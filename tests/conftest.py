import pytest

from polysched.postpass import dfp_schedule
from polysched.verify import load_corpus, theorem_suite


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
