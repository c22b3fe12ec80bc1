import pytest

from polysched.model import AffineTransform, Cut
from polysched.postpass import dfp_schedule
from polysched.verify import load_corpus, parse_instance, theorem_suite


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def by_name(corpus):
    return {inst.name: inst for inst in corpus}


@pytest.fixture(scope="session")
def suite_report(corpus):
    """One full property-suite run shared by every test that reads it."""
    return theorem_suite(corpus)


@pytest.fixture(scope="session")
def dfp_results(by_name):
    """Pipeline runs for the instances the unit tests pick apart."""
    out = {}
    for name in ("fig1", "stencil1d", "shift_pair", "scaling_pair",
                 "distribution_forced", "transpose_chain", "matmul"):
        inst = by_name[name]
        out[name] = dfp_schedule(inst.program, inst.deps)
    return out


#: P(t, i) reads A[t - 1][i + 1], which P wrote one row of t earlier; Q(i)
#: reads B[i + 1] before Q(i + 1) overwrites it.
TWO_BANDS = {"name": "two_bands", "program": {"params": ["N"], "statements": [
    {"id": "P", "iterators": ["t", "i"],
     "domain": [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="],
                [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]],
     "accesses": [{"array": "A", "kind": "write", "map": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                  {"array": "A", "kind": "read", "map": [[1, 0, 0, -1], [0, 1, 0, 1]]}],
     "order": 0},
    {"id": "Q", "iterators": ["i"], "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
     "accesses": [{"array": "B", "kind": "write", "map": [[1, 0, 0]]},
                  {"array": "B", "kind": "read", "map": [[1, 0, 1]]}],
     "order": 1}]}}


@pytest.fixture(scope="session")
def two_bands():
    """`TWO_BANDS` with a hand-made transform cut at level 3: P on rows t, i
    (band 1-2, where a skew of level 2 by t repairs P->P), then Q on row -i
    (band 4-4, where no skew repairs Q->Q)."""
    transform = AffineTransform(
        ("N",), {"P": ("t", "i"), "Q": ("i",)},
        {"P": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)),
         "Q": ((0, 0, 0), (0, 0, 0), (0, 0, 1), (-1, 0, 0))},
        cuts=(Cut(3, (("P",), ("Q",))),))
    return parse_instance(TWO_BANDS), transform
