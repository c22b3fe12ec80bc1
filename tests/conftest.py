import signal

import pytest

from polysched.model import AffineTransform, Cut
from polysched.postpass import dfp_schedule
from polysched.verify import load_corpus, parse_instance, theorem_suite


#: Seconds one test may run, the fixtures it sets up included, before
#: `pytest_runtest_protocol` fails it: well above the slowest test, so that
#: only a test stuck in a loop reaches it.
TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """A test ran past `TIME_LIMIT_S`.  A BaseException, so that neither
    the code under test nor hypothesis catches it."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail each test, by name, once its setup, call and teardown have run
    `TIME_LIMIT_S` seconds, so that a solver stuck in a loop ends the run
    with a failure instead of hanging it.  A hook rather than an autouse
    fixture, since session fixtures are set up before any function one."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
