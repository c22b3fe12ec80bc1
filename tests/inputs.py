"""Inputs the tests share from outside the package.

The checkout's scripts are loaded here once, from their paths:
`workloads` is the benchmark's `perfbench/workloads.py`, `oracle` its
`perfbench/oracle.py`, `tracer` its `perfbench/tracer.py`,
`bench_chain` is `scripts/bench_chain.py` and `census` is
`scripts/census.py`.
`FIXTURES` holds the fixture programs, and `DFP_REFUSES` names the ones
that `dfp` fails on by design.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

#: Fixtures whose `dfp` run raises `SchedulingError`, each with a pinned
#: message in CI's fixture loop.
DFP_REFUSES = ("no_progress_distribution", "unbounded_self_dependence")


def _load(name: str, relative: str):
    """The module at `relative`, registered as `name` before it runs, as
    `dataclasses` looks a class's module up to resolve its annotations."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("perfbench_workloads", "perfbench/workloads.py")
oracle = _load("perfbench_oracle", "perfbench/oracle.py")
tracer = _load("perfbench_tracer", "perfbench/tracer.py")
bench_chain = _load("bench_chain", "scripts/bench_chain.py")
census = _load("census", "scripts/census.py")
