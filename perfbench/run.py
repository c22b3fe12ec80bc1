"""polysched benchmark: compile time per path, schedule quality and failures.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

One run measures one workload (`corpus`, `chain` or `random`, see
README.md): one pass of the property suite (`verify`), then a fixed number
of rounds of one pass per path (`ilp`, `lp`, `dfp`), fewer when the next
would end after --seconds.  Every pass is a fresh interpreter, started one
at a time.  Times are in reference seconds (see speed.py).  The last line of
stdout is a JSON object: whether every output was correct, the operations
attempted and failed, and the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1).  Details, transform digests and the Chrome trace go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
PATHS = ("ilp", "lp", "dfp")

#: Every run ends, with its result printed, within this many seconds.
HARD_LIMIT_S = 170

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

def spawn(args, path, *, trace=0, check=0, skip=(), deadline) -> dict:
    """Run one pass in a fresh interpreter and return its parsed report."""
    cmd = [sys.executable, str(HERE / "passrun.py"),
           "--workload", args.workload, "--path", path, "--seed", str(args.seed),
           "--budget", str(args.budget), "--verify-budget", str(args.verify_budget),
           "--trace", str(trace), "--check", str(check),
           "--probe", str(int(not args.trace)),
           "--skip", ",".join(sorted(skip)), "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the pass
        return {"path": path, "killed": True, "ops": []}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{path} pass exited with code {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report.update(path=path, trace=trace)
    return report


def path_time(passes) -> float:
    """Sum over the workload's programs of each operation's median time in
    reference seconds across the run's passes of one path.  Operations cut
    off by the budget count as failed and add nothing; operations that raise
    add the time they took to fail."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            if op["status"] != "budget":
                times.setdefault(op["program"], []).append(op["ref_s"])
    return sum(statistics.median(t) for t in times.values())


def verify_segments(passes) -> dict[str, float]:
    """CPU seconds of each stretch of the run's verify pass, if it completed."""
    for p in passes:
        for op in p["ops"] if p["path"] == "verify" else ():
            if op["status"] == "ok":
                return op["segments"]
    return {}


def load_store() -> dict:
    path = RESULTS / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def account(args, passes, store) -> dict:
    """Failures per operation, quality counts and digests over all passes."""
    reasons: dict[tuple, list[str]] = {}
    digests: dict[tuple, str] = {}
    inputs: dict[tuple, str] = {}
    quality: dict[tuple, tuple[int, int]] = {}
    selftest = []
    names = [name for name, _ in workloads.programs(args.workload, ROOT / "src")]
    for p in passes:
        if p.get("killed"):
            for name in names if p["path"] in PATHS else ["corpus"]:
                reasons.setdefault((p["path"], name), []).append(
                    "killed at the run's time limit")
            continue
        selftest += p.get("selftest", [])
        for op in p["ops"]:
            key = (p["path"], op["program"])
            why = reasons.setdefault(key, [])
            if op["status"] != "ok":
                why.append(op["status"])
                continue
            if op.get("oracle"):
                why.append("oracle: " + "; ".join(op["oracle"]))
            if key in digests and digests[key] != op["digest"]:
                why.append("transform digest differs between passes")
            digests.setdefault(key, op["digest"])
            inputs[key] = op.get("input", "corpus")
            if "parallel_bands" in op:
                quality[key] = (op["parallel_bands"], op["permutable_levels"])
    for key, dig in digests.items():
        stored = store.setdefault(f"{key[0]}:{inputs[key]}", dig)
        if stored != dig:
            reasons[key].append("transform digest differs from an earlier run")
    wrong = [k for k, why in reasons.items()
             if any(not w.startswith(("budget", "raised", "killed")) for w in why)]
    failed = {k for k, why in reasons.items() if why}
    per_path = {}
    for path in PATHS + ("verify",):
        attempted = 1 if path == "verify" else len(names)
        per_path[path] = {"attempted": attempted,
                          "failed": sum(1 for k in failed if k[0] == path)}
    ok = [k for k in quality if k not in failed]
    return {
        "correct": not wrong and not selftest,
        "attempted": len(names) * len(PATHS) + 1,
        "failed": len(failed),
        "per_path": per_path,
        "failures": {f"{k[0]}/{k[1]}": why for k, why in sorted(reasons.items()) if why},
        "selftest": selftest,
        "parallel_bands": sum(quality[k][0] for k in ok),
        "permutable_levels": sum(quality[k][1] for k in ok),
        "digests": {f"{k[0]}/{k[1]}": d for k, d in sorted(digests.items())},
    }


def _median(values) -> float:
    """Median, or 0.0 when passes killed at the time limit left no value."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(passes, summary) -> dict:
    path_passes = [p for p in passes if p["path"] in PATHS and not p.get("killed")]
    metrics = {"setup_s": _median(p["setup_ref_s"] for p in path_passes)}
    for path in PATHS:
        metrics[f"{path}_s"] = path_time(p for p in path_passes if p["path"] == path)
    metrics["verify_s"] = _median(op["ref_s"] for p in passes if p["path"] == "verify"
                                  for op in p["ops"] if op["status"] == "ok")
    metrics["peak_rss_mb"] = max(p.get("peak_rss_mb", 0.0) for p in passes)
    metrics["parallel_bands"] = summary["parallel_bands"]
    metrics["permutable_levels"] = summary["permutable_levels"]
    return metrics


def per_layer(passes, names) -> dict:
    """The per-layer metrics `names`: layer metrics of the traced passes,
    `verify.<check>.s` from the verify pass, and the tracing overhead."""
    traced = [p for p in passes if p.get("trace")]
    rounds: dict[int, list] = {}
    for p in traced:
        rounds.setdefault(p["round"], []).append(p["totals"])
    per_round = [tracer.layer_metrics(t) for t in rounds.values()]
    metrics = {m: _median(r[m] for r in per_round) for m in tracer.LAYER_METRICS}
    segments = verify_segments(passes)
    for name in names:
        if name.startswith("verify."):
            metrics[name] = segments.get(name[len("verify."):-len(".s")], 0.0)

    def wall(p):
        return sum(op["wall_s"] for op in p["ops"] if op["status"] != "budget")

    plain = _median(
        sum(wall(p) for p in passes if p.get("round") == r and p["path"] in PATHS
            and not p.get("trace")) for r in rounds)
    with_trace = _median(
        sum(wall(p) for p in ps) for ps in
        ([p for p in traced if p["round"] == r] for r in rounds))
    metrics["trace.untraced_pass_s"] = plain
    metrics["trace.traced_pass_s"] = with_trace
    metrics["trace.overhead_ratio"] = with_trace / plain if plain else 0.0
    return metrics


def write_trace(args, passes, metrics) -> Path:
    events = []
    for pid, p in enumerate(q for q in passes if q.get("trace")):
        for e in p["events"]:
            events.append(dict(e, pid=pid))
    out = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                               "otherData": {"counters": metrics}}))
    return out


def run(args) -> dict:
    """The run's passes: a verify pass, then rounds of one pass per path
    (untraced, plus traced with --trace 1).  A round that would end after
    --seconds is not started, so a slow machine loses rounds."""
    start = time.monotonic()
    end = min(start + args.seconds, start + HARD_LIMIT_S)
    deadline = start + HARD_LIMIT_S
    passes = [spawn(args, "verify", deadline=deadline)]
    budget_hits: dict[str, set] = {p: set() for p in PATHS}
    rounds, round_s = 0, 0.0
    while rounds < workloads.ROUNDS[args.workload] and not passes[-1].get("killed"):
        if rounds and time.monotonic() + round_s > end:
            break
        rounds += 1
        t0 = time.monotonic()
        for path in PATHS:
            for trace in ((0, 1) if args.trace else (0,)):
                report = spawn(args, path, trace=trace, check=int(rounds == 1),
                               skip=budget_hits[path], deadline=deadline)
                report["round"] = rounds
                passes.append(report)
                budget_hits[path] |= {op["program"] for op in report["ops"]
                                      if op["status"] == "budget"}
        # the oracle and self-tests of the first round are not repeated
        round_s = time.monotonic() - t0 - sum(p.get("check_s", 0.0) for p in passes
                                              if p.get("round") == rounds)
    return {"passes": passes, "rounds": rounds,
            "elapsed_s": time.monotonic() - start}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the programs within each pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="no round starts that would end after this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--budget", type=int, default=10,
                        help="seconds one (program, path) operation may take")
    parser.add_argument("--verify-budget", type=int, default=60,
                        help="seconds the verify operation may take")
    args = parser.parse_args()

    missing = [p for p in ("src/polysched/__init__.py", "scripts/bench_chain.py",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a polysched checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    outcome = run(args)
    passes = outcome["passes"]
    store = load_store()
    summary = account(args, passes, store)
    (RESULTS / "digests.json").write_text(json.dumps(store, indent=1, sort_keys=True))
    metrics = per_layer(passes, units) if args.trace else end_to_end(passes, summary)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")

    detail = {"args": vars(args), "rounds": outcome["rounds"],
              "elapsed_s": outcome["elapsed_s"], "metrics": metrics, **summary,
              "passes": [{k: v for k, v in p.items() if k != "events"}
                         for p in passes]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1))

    print(f"{args.workload} seed {args.seed}: {outcome['rounds']} rounds "
          f"in {outcome['elapsed_s']:.1f} s")
    for metric, value in metrics.items():
        print(f"  {metric:<42} {value:>14.6g} {units[metric]}")
    counts = ", ".join(f"{path} {c['failed']}/{c['attempted']}"
                       for path, c in summary["per_path"].items())
    print(f"  failed/attempted: {summary['failed']}/{summary['attempted']} ({counts})")
    for op, why in summary["failures"].items():
        print(f"  FAILED {op}: {'; '.join(why)}")
    for msg in summary["selftest"]:
        print(f"  SELF-TEST {msg}")
    if args.trace:
        print(f"  trace: {write_trace(args, passes, metrics).relative_to(ROOT)}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
