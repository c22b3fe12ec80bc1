"""Inputs the tests share from outside the package.

The checkout's scripts are loaded here once, from their paths:
`digest` is `scripts/digest.py`, `workloads` the benchmark's
`perfbench/workloads.py` as `digest` loads it, `oracle` its
`perfbench/oracle.py`, `tracer` its `perfbench/tracer.py`,
`bench_chain` is `scripts/bench_chain.py` and `census` is
`scripts/census.py`.
`FIXTURES` holds the fixture programs, `REFUSALS` the refusals that some
of them meet by design, and `DFP_REFUSES` names the ones that `dfp` fails
on.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

#: The message of every `SchedulingError` a fixture raises by design, by
#: fixture and then by path (`ilp`, `lp`, `dfp`, or `fcg` for the coloring
#: alone).  CI's fixture loop reads the same file.
REFUSALS = json.loads((ROOT / "tests" / "refusals.json").read_text())

#: Fixtures whose `dfp` run raises `SchedulingError`.
DFP_REFUSES = tuple(name for name, paths in REFUSALS.items() if "dfp" in paths)


def _load(name: str, relative: str):
    """The module at `relative`, registered as `name` before it runs, as
    `dataclasses` looks a class's module up to resolve its annotations."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Before `census`, which imports it by name, as a script's sibling.
digest = _load("digest", "scripts/digest.py")
workloads = digest.workloads
oracle = _load("perfbench_oracle", "perfbench/oracle.py")
tracer = _load("perfbench_tracer", "perfbench/tracer.py")
bench_chain = _load("bench_chain", "scripts/bench_chain.py")
census = _load("census", "scripts/census.py")
