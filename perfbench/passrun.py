"""One pass of one workload on one path, in a fresh interpreter.

Run by run.py, once per pass; prints one JSON object on stdout.  A pass
schedules every program of the workload on its path (`ilp`, `lp` or `dfp`),
or runs the property suite once (`verify`).  Each operation is timed alone,
under an in-process budget set with `signal.alarm`, in CPU seconds and, with
--probe, in reference seconds (see speed.py).  With --check the oracle and
the self-tests run after the timed loop, outside every timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

#: Samples the machine's speed from before the first heavy import, so that
#: set-up is scaled too; passes without --probe stop it at once.
PROBE = speed.Probe()
PROBE.start()

from polysched import frontend, verify  # noqa: E402
from polysched.pluto import SchedulerConfig, schedule  # noqa: E402
from polysched.postpass import dfp_schedule  # noqa: E402

import oracle  # noqa: E402
import selftest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class BudgetExceeded(BaseException):
    """Raised by the alarm handler.  A BaseException, so no handler in the
    scheduler can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_operation(path, program_json):
    """One timed operation: dependence analysis plus one path's scheduler."""
    program, deps = frontend.analyze(program_json)
    if path == "dfp":
        result = dfp_schedule(program, deps)
    else:
        result = schedule(program, deps, SchedulerConfig(mode=path))
    return program, deps, result.transform


def _quality(transform) -> tuple[int, int]:
    parallel = sum(1 for b in transform.bands if b.parallel)
    permutable = sum(b.end - b.start + 1 for b in transform.bands if b.permutable)
    return parallel, permutable


def _timed(clock, budget, fn, *args):
    """(status, cpu seconds, reference seconds, wall seconds, result) of one
    operation."""
    signal.alarm(budget)
    mark = clock.begin()
    wall0 = time.perf_counter()
    try:
        result = fn(*args)
        status = "ok"
    except BudgetExceeded:
        result, status = None, "budget"
    except Exception as exc:  # the operation failed; record it and go on
        result, status = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - wall0
        signal.alarm(0)
        cpu, ref = clock.end(mark)
    return status, cpu, ref, wall, result


def run_pass(args) -> dict:
    progs = [] if args.path == "verify" else \
        workloads.ordered(args.workload, SRC, args.seed)
    trace = tracer.Tracer() if args.trace else None
    if args.probe:
        clock = PROBE
        # set-up runs from the thread's start and the probe's first sample
        setup_cpu, setup_ref = PROBE.end((0, 0.0))
    else:
        PROBE.stop()
        clock = speed.Unscaled()
        setup_cpu = setup_ref = PROBE.now()
    setup = {"setup_cpu_s": setup_cpu, "setup_ref_s": setup_ref,
             "setup_wall_s": time.monotonic() - args.spawned}
    if trace:
        trace.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    ops, kept = [], []

    if args.path == "verify":
        # CPU time of each stretch between progress messages: loading and
        # scheduling each instance, then each property check.
        segments: dict[str, float] = {}
        last = [clock.now()]

        def progress(message):
            now = clock.now()
            status, _, name = message.partition(" ")
            segments[message if status == "scheduling" else name] = now - last[0]
            last[0] = now

        status, cpu, ref, wall, report = _timed(
            clock, args.verify_budget, verify.theorem_suite, None, 3, progress)
        segments["end"] = cpu - sum(segments.values())
        if status == "ok" and not report.ok:
            status = "failed checks: " + ", ".join(
                r.name for r in report.results if r.status == "fail")
        ops.append({"program": "corpus", "status": status, "cpu_s": cpu,
                    "ref_s": ref, "wall_s": wall, "segments": segments,
                    "digest": digest(report.to_json()) if report else None})

    skip = set(filter(None, args.skip.split(",")))
    for name, program_json in progs:
        op = {"program": name, "input": digest(program_json)}
        if name in skip:
            op.update(status="budget", cpu_s=0.0, ref_s=0.0, wall_s=0.0, skipped=True)
            ops.append(op)
            continue
        with trace.op(f"{name}/{args.path}") if trace else contextlib.nullcontext():
            status, cpu, ref, wall, result = _timed(clock, args.budget, run_operation,
                                                    args.path, program_json)
        op.update(status=status, cpu_s=cpu, ref_s=ref, wall_s=wall)
        if status == "ok":
            program, deps, transform = result
            op["digest"] = digest(transform.to_json())
            op["parallel_bands"], op["permutable_levels"] = _quality(transform)
            if args.check:
                kept.append((op, program, deps, transform))
        ops.append(op)

    PROBE.stop()
    if trace:
        trace.uninstall()
    out = dict(setup, ops=ops,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if trace:
        out["totals"] = trace.totals()
        out["events"] = trace.chrome_trace(0, f"{args.workload}/{args.path}")

    if args.check:
        check0 = time.process_time()
        checked = []
        for op, program, deps, transform in kept:
            op["oracle"] = oracle.check(program, deps, transform)
            checked.append((f"{op['program']}/{args.path}", program, deps,
                            transform, op["oracle"]))
        out["selftest"] = selftest.run(args.workload, checked)
        out["check_s"] = time.process_time() - check0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--path", choices=("ilp", "lp", "dfp", "verify"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=int, required=True)
    parser.add_argument("--verify-budget", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--check", type=int, default=0)
    parser.add_argument("--probe", type=int, default=1,
                        help="0: report CPU seconds unscaled, without sampling")
    parser.add_argument("--skip", default="",
                        help="comma-separated programs that already hit the "
                             "budget in this run")
    args = parser.parse_args()
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
