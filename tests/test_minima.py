"""The scheduler's dependence minima against the legality check's LP.

`model.min_dependence_component` reads each minimum off the dependence
relation's Farkas cone; `verify.lp_minimum` solves one rational LP over the
relation.  The two must agree exactly, unboundedness included, on every
ordering dependence at every level of the `ilp`, `lp` and `dfp` transforms
of the corpus, of chain(8) from `scripts/bench_chain.py`, and of the first
nests of the benchmark's `random_nest` family.  Each level's pair of rows is
also asked the other way round, which reaches the unbounded case.
"""

import random

from polysched.frontend import analyze
from polysched.model import SchedulingError, min_dependence_component
from polysched.pluto import ILP, LP, SchedulerConfig, schedule
from polysched.postpass import dfp_schedule
from polysched.verify import lp_minimum

from inputs import bench_chain, workloads

#: Nests drawn from the family with the benchmark's seed; its `random`
#: workload is the first twelve.
RANDOM_NESTS = 60


def _transforms(program, deps):
    """The transforms of the paths that schedule the program."""
    out = [schedule(program, deps, SchedulerConfig(mode=mode)).transform
           for mode in (ILP, LP)]
    try:
        out.append(dfp_schedule(program, deps).transform)
    except SchedulingError:
        pass  # `dfp` fails on a few nests of the family; ilp and lp still count
    return out


def _row_pairs(dep, transform, level):
    """The level's (source row, target row), then the form the other way
    round: the rows swapped when they line up, and both negated."""
    src, dst = transform.row(dep.src, level), transform.row(dep.dst, level)
    pairs = [(src, dst)]
    if src is not None and dst is not None and len(src) == len(dst):
        pairs.append((dst, src))
    pairs.append(tuple(None if r is None else tuple(-x for x in r)
                       for r in (src, dst)))
    return pairs


def compare(programs):
    """Every (dependence, rows, cone minimum, LP minimum) where the two
    differ, and the cone minima asked, over the programs' transforms."""
    bad, minima = [], []
    for program, deps in programs:
        ordering = [d for d in deps if d.ordering]
        for transform in _transforms(program, deps):
            for level in range(1, transform.levels + 1):
                for dep in ordering:
                    for src, dst in _row_pairs(dep, transform, level):
                        cone = min_dependence_component(dep, src, dst)
                        lp = lp_minimum(dep, src, dst)
                        minima.append(cone)
                        if cone != lp:
                            bad.append((dep, src, dst, cone, lp))
    return bad, minima


def both_outcomes(minima) -> bool:
    """Finite minima and forms unbounded below both occur."""
    return None in minima and any(m is not None for m in minima)


def test_corpus_minima_equal_the_lp(corpus):
    bad, minima = compare((inst.program, inst.deps) for inst in corpus)
    assert not bad
    assert both_outcomes(minima)


def test_chain_minima_equal_the_lp():
    """Every chain dependence is an equality of the two points, so every
    minimum here is finite."""
    bad, minima = compare([analyze(bench_chain.chain(8))])
    assert not bad
    assert minima and None not in minima


def test_random_family_minima_equal_the_lp():
    rng = random.Random(workloads.RANDOM_FAMILY_SEED)
    bad, minima = compare([analyze(workloads.random_nest(rng))
                           for _ in range(RANDOM_NESTS)])
    assert not bad
    assert both_outcomes(minima)
