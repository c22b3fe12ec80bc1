"""Scaling benchmark: a pipeline of two-dimensional statements.

In the default `chain` family, statement k writes array k and reads array
k-1 at the same point, so the dependence graph is a single path and every
statement stays fusable with its neighbours.  In the `fan-in` family
(`--family fan-in`), statement k reads the arrays of statements k-1 and k-2,
so the graph has about twice the edges and the conflict graph more probes.
In the `shifted` family (`--family shifted`), statement k reads array k-1
one column to the left, at [i][j-1], so scale/shift must shift every
statement and pivots.
Times analysis in CPU ms, split into parsing (`parse`,
`frontend.parse_program`) and dependence analysis (`deps`,
`frontend.compute_dependences`), then the paths of `--paths` at several
lengths, in wall ms: the integer scheduler (`ilp`), the relaxed scheduler
(`lp`) and the conflict-graph pipeline (`dfp`), next to the number of
dependences (`ndeps`) and the size of the constraint systems they solve:
`rows` sums the legality and bounding Farkas rows over the dependences.
`dfp` is also split into its three stages in CPU ms, `color`
(`color_fcg`), `shift` (`scale_and_shift`) and `skew` (`introduce_skew`),
their sum `dfp cpu`, its CPU time outside analysis, and `analysis + dfp
cpu`, where analysis is `parse` plus `deps`.  With `dfp` it also counts
the fusion probes that `color_fcg` asks on a fresh analysis, untimed:
`probes` asked, `memo` answered by the program's verdict memo and `lp`
solved by an LP, the rest being decided by the dependence minima.  At
n = 800 only `dfp` finishes in seconds: `--paths dfp --sizes 400,800`.
"""

import argparse
import json
import sys
import time

from polysched import fcg, frontend
from polysched.fcg import color_fcg
from polysched.pluto import SchedulerConfig, schedule
from polysched.postpass import introduce_skew, scale_and_shift


def chain(n: int, back: int = 1, shift: int = 0) -> dict:
    """n statements; statement k reads the arrays of the `back` statements
    before it, nearest first, at the point it writes less `shift` in j."""
    stmts = []
    for k in range(n):
        reads = []
        for j in range(k - 1, max(k - back, 0) - 1, -1):
            reads.append({"array": f"A{j}", "kind": "read",
                          "map": [[1, 0, 0, 0], [0, 1, 0, -shift]]})
        stmts.append({
            "id": f"S{k}",
            "iterators": ["i", "j"],
            "domain": [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="],
                       [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]],
            "accesses": [{"array": f"A{k}", "kind": "write",
                          "map": [[1, 0, 0, 0], [0, 1, 0, 0]]}] + reads,
            "order": k,
        })
    return {"params": ["N"], "statements": stmts}


def fan_in(n: int) -> dict:
    return chain(n, back=2)


def shifted(n: int) -> dict:
    return chain(n, shift=1)


FAMILIES = {"chain": chain, "fan-in": fan_in, "shifted": shifted}


PATHS = ("ilp", "lp", "dfp")


def timed(run, *args):
    """`run(*args)` and the CPU seconds it took."""
    t0 = time.process_time()
    result = run(*args)
    return result, time.process_time() - t0


def run_dfp(program, deps):
    """`postpass.dfp_schedule`'s three stages, one at a time: the final
    transform and each stage's CPU seconds."""
    coloring, color = timed(color_fcg, program, deps)
    (scaled, steps), shift = timed(scale_and_shift, program, deps, coloring)
    skew, skewing = timed(introduce_skew, program, deps, scaled, steps)
    return skew.transform, {"color": color, "shift": shift, "skew": skewing}


def probe_counts(data) -> tuple[int, int, int]:
    """The fusion probes `color_fcg` asks on a fresh analysis of `data`:
    (asked, answered by the memo, solved by an LP)."""
    program, deps = frontend.analyze(data)
    asked, solved = [], []
    probe, build = fcg.fusion_probe, fcg.level_system
    fcg.fusion_probe = lambda *a, **k: asked.append(a) or probe(*a, **k)
    fcg.level_system = lambda *a, **k: solved.append(a) or build(*a, **k)
    try:
        color_fcg(program, deps)
    finally:
        fcg.fusion_probe, fcg.level_system = probe, build
    return len(asked), len(asked) - len(program._probe_verdicts), len(solved)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,30",
                        help="comma-separated pipeline lengths")
    parser.add_argument("--family", choices=FAMILIES, default="chain",
                        help="which statements each statement reads (default: chain)")
    parser.add_argument("--paths", default=",".join(PATHS),
                        help="comma-separated paths to run, of ilp, lp and dfp "
                             "(default: all three)")
    parser.add_argument("--emit", metavar="FILE",
                        help="also write the longest pipeline as JSON")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s]
    chosen = set(args.paths.split(","))
    if not chosen <= set(PATHS):
        parser.error(f"--paths takes ilp, lp and dfp, not {args.paths!r}")
    paths = [p for p in PATHS if p in chosen]
    family = FAMILIES[args.family]

    stages = ("color", "shift", "skew", "dfp cpu") if "dfp" in paths else ()
    total = ("analysis + dfp cpu",) if "dfp" in paths else ()
    probes = ("probes", "memo", "lp") if "dfp" in paths else ()
    print(f"{'n':>4} {'ndeps':>5} {'rows':>6} {'parse':>7} {'deps':>7} "
          + "".join(f"{p:>10}" for p in paths + list(stages))
          + "".join(f"{t:>20}" for t in total)
          + "".join(f"{c:>7}" for c in probes) + "   bands")
    for n in sizes:
        data = family(n)
        program, parse = timed(frontend.parse_program, data)
        _, dependences = timed(frontend.compute_dependences, program)
        times = {}
        analysis = parse + dependences
        transforms = {}
        for path in paths:
            # A fresh analysis per path, untimed: Farkas rows are kept on
            # the dependences, so a shared one would favour later paths.
            program, deps = frontend.analyze(data)
            t0 = time.perf_counter()
            if path == "dfp":
                transforms[path], split = run_dfp(program, deps)
                times.update(split)
                times["dfp cpu"] = sum(split.values())
                times["analysis + dfp cpu"] = analysis + times["dfp cpu"]
            else:
                transforms[path] = schedule(
                    program, deps, SchedulerConfig(mode=path)).transform
            times[path] = time.perf_counter() - t0
        rows = sum(len(dep.farkas_rows[0]) + len(dep.farkas_rows[1]) for dep in deps)
        shown = transforms.get("dfp") or transforms[paths[0]]
        shape = ", ".join(f"{b.start}-{b.end}{'p' if b.parallel else ''}"
                          for b in shown.bands)
        if "ilp" in transforms and shown is not transforms["ilp"]:
            shape += f" (integer: {len(transforms['ilp'].bands)} bands)"
        cells = "".join(f"{times[k] * 1000:>8.0f}ms" for k in paths + list(stages))
        cells += "".join(f"{times[k] * 1000:>18.0f}ms" for k in total)
        if probes:
            cells += "".join(f"{c:>7}" for c in probe_counts(data))
        print(f"{n:>4} {len(deps):>5} {rows:>6} {parse * 1000:>5.0f}ms "
              f"{dependences * 1000:>5.0f}ms "
              f"{cells}   {shape}")

    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(family(max(sizes)), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.emit}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
