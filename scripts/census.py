"""Census of `dfp` against `lp` and `ilp` on generated programs.

    python scripts/census.py

Schedules every program of two seeded families on `ilp`, `lp` and `dfp`:
1,000 nests of the benchmark's `random_nest` family
(`perfbench/workloads.py`, read only), 100 from each of `random.Random(1)`
to `random.Random(10)`, and 1,200 programs of `explicit_program` below,
400 from each of `random.Random(1)` to `random.Random(3)`.  A program is
named by its family, its seed and its index in that seed's draw.  `ilp`
runs under a CPU-time alarm of `ILP_CPU_SECONDS` per program, since its
branch and bound can run for minutes (ROADMAP item 17); a program past it
counts as neither scheduled nor refused on `ilp`.

Per family the script prints how many programs analysis refuses as bad
input, how many each path schedules, how many `ilp` runs hit the alarm and
how many programs every path refuses.  It then names every `ilp` alarm, and
every `dfp` refusal of a program that `ilp` or `lp` schedules, and every
`dfp` transform that `verify.check_legality` rejects or that leaves a
statement below full rank, and exits 1 when it names any but an alarm,
since the `dfp` pipeline can always fall back to distribution.  It imports
the installed `polysched`, or the one on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import random
import signal
import sys

from digest import random_nests
from polysched.frontend import ParseError, analyze
from polysched.model import SchedulingError
from polysched.pluto import ILP, LP, SchedulerConfig, schedule
from polysched.postpass import dfp_schedule
from polysched.ratlp import ResourceLimitError
from polysched.verify import check_legality, full_rank

#: CPU seconds `ilp` may spend on one program.
ILP_CPU_SECONDS = 30


class _OverBudget(BaseException):
    """Raised by the CPU-time alarm; a BaseException, so no handler of the
    scheduler's own catches it."""


def _alarm(signum, frame):
    raise _OverBudget


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
    return {
        "random_nest": random_nests(range(1, 11)),
        "explicit": [(f"seed{seed}/{k}", explicit_program(rng)[0])
                     for seed in range(1, 4)
                     for rng in [random.Random(seed)] for k in range(400)],
    }


def _schedules(program, deps, mode: str) -> bool:
    """Does the path `mode` schedule the program?"""
    try:
        schedule(program, deps, SchedulerConfig(mode=mode))
    except (SchedulingError, ResourceLimitError):
        return False
    return True


def _ilp(program, deps):
    """Whether `ilp` schedules the program, or None when it runs past
    `ILP_CPU_SECONDS` of CPU time."""
    previous = signal.signal(signal.SIGPROF, _alarm)
    signal.setitimer(signal.ITIMER_PROF, ILP_CPU_SECONDS)
    try:
        return _schedules(program, deps, ILP)
    except _OverBudget:
        return None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def census(programs) -> tuple[dict[str, int], list[str], list[str]]:
    """The counts over `programs`, one line per fault found and one per
    `ilp` alarm."""
    counts = dict.fromkeys(("programs", "bad input", "ilp scheduled", "ilp over budget",
                            "lp scheduled", "dfp scheduled", "all refused"), 0)
    faults, alarms = [], []
    for name, data in programs:
        counts["programs"] += 1
        try:
            program, deps = analyze(data)
        except ParseError:
            counts["bad input"] += 1
            continue
        lp = _schedules(program, deps, LP)
        try:
            transform, refusal = dfp_schedule(program, deps).transform, None
        except (SchedulingError, ResourceLimitError) as exc:
            transform, refusal = None, exc
        # Last, so that an alarm that stops it midway touches no other run.
        ilp = _ilp(program, deps)
        if ilp is None:
            alarms.append(f"{name}: ilp ran past {ILP_CPU_SECONDS} s CPU")
        counts["ilp scheduled"] += bool(ilp)
        counts["ilp over budget"] += ilp is None
        counts["lp scheduled"] += lp
        if transform is None:
            counts["all refused"] += ilp is False and not lp
            others = [path for path, ok in (("ilp", ilp), ("lp", lp)) if ok]
            if others:
                faults.append(f"{name}: dfp refuses where {' and '.join(others)} "
                              f"schedule{'s' * (len(others) == 1)}: {refusal}")
            continue
        counts["dfp scheduled"] += 1
        if not check_legality(program, deps, transform).ok:
            faults.append(f"{name}: dfp transform is illegal")
        if not full_rank(program, transform):
            faults.append(f"{name}: dfp transform is below full rank")
    return counts, faults, alarms


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    found, over = [], []
    for family, programs in families().items():
        counts, faults, alarms = census(programs)
        print(f"{family}: " + ", ".join(f"{n} {what}" for what, n in counts.items()))
        found += [f"{family} {line}" for line in faults]
        over += [f"{family} {line}" for line in alarms]
    for line in over + found:
        print(line)
    print(f"{len(found)} dfp faults")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
