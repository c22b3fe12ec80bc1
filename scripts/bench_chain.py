"""Scaling benchmark: a pipeline of two-dimensional statements.

In the default `chain` family, statement k writes array k and reads array
k-1 at the same point, so the dependence graph is a single path and every
statement stays fusable with its neighbours.  In the `fan-in` family
(`--family fan-in`), statement k reads the arrays of statements k-1 and k-2,
so the graph has about twice the edges and the conflict graph more probes.
Times dependence analysis (`analysis`, one `frontend.analyze`), then the
integer scheduler, the relaxed scheduler and the conflict-graph pipeline at
several lengths, next to the size of the constraint systems they solve:
`rows` sums the legality and bounding Farkas rows over the dependences.
"""

import argparse
import json
import sys
import time

from polysched import frontend
from polysched.farkas import bounding_constraints, legality_constraints
from polysched.pluto import SchedulerConfig, schedule
from polysched.postpass import dfp_schedule


def chain(n: int, back: int = 1) -> dict:
    """n statements; statement k reads the arrays of the `back` statements
    before it, nearest first, at the point it writes."""
    stmts = []
    for k in range(n):
        reads = []
        for j in range(k - 1, max(k - back, 0) - 1, -1):
            reads.append({"array": f"A{j}", "kind": "read",
                          "map": [[1, 0, 0, 0], [0, 1, 0, 0]]})
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


FAMILIES = {"chain": chain, "fan-in": fan_in}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,30",
                        help="comma-separated pipeline lengths")
    parser.add_argument("--family", choices=FAMILIES, default="chain",
                        help="which statements each statement reads (default: chain)")
    parser.add_argument("--emit", metavar="FILE",
                        help="also write the longest pipeline as JSON")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s]
    family = FAMILIES[args.family]

    print(f"{'n':>4} {'deps':>5} {'rows':>6} {'analysis':>9} "
          f"{'ilp':>9} {'lp':>9} {'dfp':>9}   bands")
    for n in sizes:
        data = family(n)
        t0 = time.perf_counter()
        frontend.analyze(data)
        times = {"analysis": time.perf_counter() - t0}
        results = {}
        for path in ("ilp", "lp", "dfp"):
            # A fresh analysis per path, untimed: Farkas rows are kept on
            # the dependences, so a shared one would favour later paths.
            program, deps = frontend.analyze(data)
            t0 = time.perf_counter()
            if path == "dfp":
                results[path] = dfp_schedule(program, deps)
            else:
                results[path] = schedule(program, deps,
                                         SchedulerConfig(mode=path))
            times[path] = time.perf_counter() - t0
        rows = 0
        for dep in deps:
            src, dst = program.statement(dep.src), program.statement(dep.dst)
            rows += len(legality_constraints(dep, src, dst).rows)
            rows += len(bounding_constraints(dep, src, dst).rows)
        ilp, dfp = results["ilp"], results["dfp"]
        shape = ", ".join(
            f"{b.start}-{b.end}{'p' if b.parallel else ''}"
            for b in dfp.transform.bands)
        ms = {k: f"{t * 1000:>7.0f}ms" for k, t in times.items()}
        print(f"{n:>4} {len(deps):>5} {rows:>6} {ms['analysis']} "
              f"{ms['ilp']} {ms['lp']} {ms['dfp']}   {shape} "
              f"(integer: {len(ilp.transform.bands)} bands)")

    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(family(max(sizes)), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.emit}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
