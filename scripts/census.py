"""Census of `dfp` against `lp` on generated programs.

    python scripts/census.py

Schedules every program of two seeded families on `lp` and on `dfp`:
1,000 nests of the benchmark's `random_nest` family
(`perfbench/workloads.py`, read only), 100 from each of `random.Random(1)`
to `random.Random(10)`, and 1,200 programs of `explicit_program` below,
400 from each of `random.Random(1)` to `random.Random(3)`.  A program is
named by its family, its seed and its index in that seed's draw.

Per family the script prints how many programs analysis refuses as bad
input, how many each path schedules, and how many both refuse.  It then
names every `dfp` refusal of a program that `lp` schedules, and every
`dfp` transform that `verify.check_legality` rejects or that leaves a
statement below full rank, and exits 1 when it names any, since the `dfp`
pipeline can always fall back to distribution.  It imports the installed
`polysched`, or the one on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import sys
from pathlib import Path

from polysched.frontend import ParseError, analyze
from polysched.model import SchedulingError
from polysched.pluto import SchedulerConfig, schedule
from polysched.postpass import dfp_schedule
from polysched.ratlp import ResourceLimitError
from polysched.verify import check_legality, full_rank

ROOT = Path(__file__).resolve().parents[1]


def explicit_program(rng: random.Random) -> tuple[dict, bool]:
    """1-3 statements of depth 0-2 over [0, N-1] and 1-3 explicit RAW
    edges, each pairing s_k = t_k + c on the loops both ends have, with c in
    {-1, 0, 1}; and whether an edge pairs an instance with itself."""
    depths = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
    statements = []
    for k, depth in enumerate(depths):
        domain = []
        for d in range(depth):
            unit = [int(d == e) for e in range(depth)]
            domain += [unit + [0, 0, ">="], [-u for u in unit] + [1, -1, ">="]]
        statements.append({"id": f"S{k}", "iterators": ["i", "j"][:depth],
                           "domain": domain})
    deps, reflexive = [], False
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randrange(len(depths)), rng.randrange(len(depths))
        m, n = depths[a], depths[b]
        relation = []
        for k in range(min(m, n)):
            row = [0] * (m + n + 2) + ["=="]
            row[k], row[m + k], row[-2] = 1, -1, -rng.choice((-1, 0, 1))
            relation.append(row)
        reflexive |= a == b and not any(row[-2] for row in relation)
        deps.append({"src": f"S{a}", "dst": f"S{b}", "kind": "RAW", "relation": relation})
    return {"params": ["N"], "statements": statements, "dependences": deps}, reflexive


def families() -> dict[str, list[tuple[str, dict]]]:
    """(name, program JSON) pairs of each family, in a fixed order."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {
        "random_nest": [(f"seed{seed}/nest{k}", workloads.random_nest(rng))
                        for seed in range(1, 11)
                        for rng in [random.Random(seed)] for k in range(100)],
        "explicit": [(f"seed{seed}/{k}", explicit_program(rng)[0])
                     for seed in range(1, 4)
                     for rng in [random.Random(seed)] for k in range(400)],
    }


def census(programs) -> tuple[dict[str, int], list[str]]:
    """The counts over `programs`, and one line per fault found."""
    counts = dict.fromkeys(("programs", "bad input", "lp scheduled",
                            "dfp scheduled", "both refused"), 0)
    faults = []
    for name, data in programs:
        counts["programs"] += 1
        try:
            program, deps = analyze(data)
        except ParseError:
            counts["bad input"] += 1
            continue
        try:
            schedule(program, deps, SchedulerConfig())
            lp = True
        except (SchedulingError, ResourceLimitError):
            lp = False
        counts["lp scheduled"] += lp
        try:
            transform = dfp_schedule(program, deps).transform
        except (SchedulingError, ResourceLimitError) as exc:
            counts["both refused"] += not lp
            if lp:
                faults.append(f"{name}: dfp refuses where lp schedules: {exc}")
            continue
        counts["dfp scheduled"] += 1
        if not check_legality(program, deps, transform).ok:
            faults.append(f"{name}: dfp transform is illegal")
        if not full_rank(program, transform):
            faults.append(f"{name}: dfp transform is below full rank")
    return counts, faults


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    found = []
    for family, programs in families().items():
        counts, faults = census(programs)
        print(f"{family}: " + ", ".join(f"{n} {what}" for what, n in counts.items()))
        found += [f"{family} {line}" for line in faults]
    for line in found:
        print(line)
    print(f"{len(found)} dfp faults")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
