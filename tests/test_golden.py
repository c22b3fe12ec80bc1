"""Byte-identity of the bundled corpus schedules.

Every corpus instance is scheduled on `ilp`, `lp` and `dfp`; the digest of
its dependences (endpoints, kind, label, variables and relation), of each
transform's JSON, of each path's `Step` records (level, kind, system,
raw optimum, factors, component), of the same records without their
systems (the path's optima, which a change that keeps every feasible set
but not its rows leaves as they are) and the `dfp` conflict graphs and
coloring must match `golden_corpus.json`, and the `ilp` and `lp` transforms must pass
`check_legality` and `full_rank` (the property suite checks `dfp`).  The
property-suite report is pinned by digest too, so a solve lost from or
duplicated in the steps the checks read changes it.  `golden_farkas.json`
pins the legality and bounding system (variables, rows in order, lower
bounds) that Farkas elimination gives every dependence of every corpus
program and of the four-statement chain of `scripts/bench_chain.py`.
`golden_workloads.json` pins the transform digest of every `chain` and
`random` program of the benchmark (`perfbench/workloads.py`) on each path,
each path on a fresh analysis as the benchmark runs it.
Refactors of the scheduler keep these outputs exact; a change that alters a
schedule, a Farkas system or the report on purpose regenerates the files
with

    PYTHONPATH=src python tests/test_golden.py

sets SUITE_DIGEST to the report digest that command prints, and says so in
its description.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from polysched.farkas import bounding_constraints, legality_constraints
from polysched.frontend import analyze
from polysched.pluto import ILP, LP, SchedulerConfig, schedule
from polysched.postpass import dfp_schedule
from polysched.verify import check_legality, full_rank, load_corpus, theorem_suite

GOLDEN = Path(__file__).with_name("golden_corpus.json")
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
GOLDEN_FARKAS = Path(__file__).with_name("golden_farkas.json")
EXPECTED_FARKAS = (json.loads(GOLDEN_FARKAS.read_text())
                   if GOLDEN_FARKAS.exists() else {})
GOLDEN_WORKLOADS = Path(__file__).with_name("golden_workloads.json")
EXPECTED_WORKLOADS = (json.loads(GOLDEN_WORKLOADS.read_text())
                      if GOLDEN_WORKLOADS.exists() else {})
SUITE_DIGEST = "83d874d240b85425"


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def suite_digest(report) -> str:
    """sha256 prefix of a property-suite report's JSON."""
    text = json.dumps(report.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _edges(fcg) -> dict:
    name = "{0[0]}.{0[1]}".format
    return {"conflicts": [f"{name(u)}-{name(v)}" for u, v in fcg.conflicts],
            "loops": [name(v) for v in fcg.loops]}


def golden_entry(inst) -> dict:
    """What the golden file records for one corpus instance."""
    entry = {"deps": _deps_digest(inst.deps)}
    for mode in (ILP, LP):
        result = schedule(inst.program, inst.deps, SchedulerConfig(mode=mode))
        entry[mode] = _digest(result.transform.to_json())
        entry[f"{mode}_steps"] = _steps_digest(result.steps)
        entry[f"{mode}_optima"] = _steps_digest(result.steps, systems=False)
    dfp = dfp_schedule(inst.program, inst.deps)
    coloring = dfp.coloring
    entry["dfp"] = _digest(dfp.transform.to_json())
    entry["dfp_steps"] = _steps_digest(dfp.steps)
    entry["dfp_optima"] = _steps_digest(dfp.steps, systems=False)
    entry["fcg"] = {
        "initial": _edges(coloring.initial),
        "final": _edges(coloring.fcg),
        "colors": {sid: list(ks) for sid, ks in coloring.colors.items()},
        "cut_groups": {str(c): [list(g) for g in groups]
                       for c, groups in coloring.cut_groups.items()},
    }
    return entry


def _system_json(system) -> dict:
    return {"variables": list(system.variables),
            "rows": [[[str(c) for c in r.coeffs], str(r.const), r.kind]
                     for r in system.rows],
            "lower": [None if b is None else str(b)
                      for b in system.lower.values()]}


def _deps_digest(deps) -> str:
    """Digest of a dependence list in order, labels and relations included."""
    return _digest([
        {"src": d.src, "dst": d.dst, "kind": d.kind, "label": d.label,
         "src_vars": list(d.src_vars), "dst_vars": list(d.dst_vars),
         "params": list(d.params), "relation": _system_json(d.relation)}
        for d in deps])


def _steps_digest(steps, systems=True) -> str:
    """Digest of a run's `Step` records, each with its optimum and, unless
    `systems` is false, its system."""
    records = []
    for s in steps:
        record = {"level": s.level, "kind": s.kind, "parallel": s.parallel,
                  "raw": None if s.raw is None
                  else [[v, str(x)] for v, x in s.raw.items()],
                  "factors": list(s.factors), "component": s.component}
        if systems:
            record["system"] = None if s.system is None else _system_json(s.system)
        records.append(record)
    return _digest(records)


def farkas_entry(program, deps) -> dict:
    """Digest of each dependence's (legality, bounding) system, built afresh
    from its own Farkas cone rather than taken from the program's memo, so
    every dependence runs through elimination."""
    entry = {}
    for k, dep in enumerate(deps):
        src, dst = program.statement(dep.src), program.statement(dep.dst)
        systems = [legality_constraints(dep, src, dst),
                   bounding_constraints(dep, src, dst)]
        entry[f"{k} {dep.kind} {dep.src}->{dep.dst}"] = _digest(
            [_system_json(s) for s in systems])[:16]
    return entry


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _chain(n: int) -> dict:
    return _load("bench_chain",
                 Path(__file__).parents[1] / "scripts" / "bench_chain.py").chain(n)


def workload_programs() -> dict:
    """Program JSON of the benchmark's `chain` and `random` workloads, by
    "workload/name"."""
    root = Path(__file__).parents[1]
    workloads = _load("perfbench_workloads", root / "perfbench" / "workloads.py")
    return {f"{w}/{name}": data for w in ("chain", "random")
            for name, data in workloads.programs(w, root / "src")}


def workload_entry(data) -> dict:
    """Transform digest of one benchmark program on each path."""
    entry = {}
    for mode in (ILP, LP, "dfp"):
        program, deps = analyze(data)
        result = (dfp_schedule(program, deps) if mode == "dfp"
                  else schedule(program, deps, SchedulerConfig(mode=mode)))
        entry[mode] = _digest(result.transform.to_json())
    return entry


def farkas_programs(corpus=None) -> dict:
    """(program, deps) of every corpus instance and of chain(4), by name."""
    programs = {inst.name: (inst.program, inst.deps)
                for inst in corpus or load_corpus()}
    programs["chain4"] = analyze(_chain(4))
    return programs


def test_golden_covers_corpus(corpus):
    assert sorted(EXPECTED) == sorted(inst.name for inst in corpus)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_golden_schedule(by_name, name):
    assert golden_entry(by_name[name]) == EXPECTED[name]


@pytest.mark.parametrize("mode", [ILP, LP])
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_lp_and_ilp_transforms_are_legal_and_full_rank(by_name, name, mode):
    inst = by_name[name]
    transform = schedule(inst.program, inst.deps,
                         SchedulerConfig(mode=mode)).transform
    assert check_legality(inst.program, inst.deps, transform).ok
    assert full_rank(inst.program, transform)


def test_golden_farkas_covers_corpus(corpus):
    assert sorted(EXPECTED_FARKAS) == sorted(
        [inst.name for inst in corpus] + ["chain4"])


@pytest.fixture(scope="module")
def farkas_inputs(corpus):
    return farkas_programs(corpus)


@pytest.mark.parametrize("name", sorted(EXPECTED_FARKAS))
def test_golden_farkas_rows(farkas_inputs, name):
    assert farkas_entry(*farkas_inputs[name]) == EXPECTED_FARKAS[name]


@pytest.fixture(scope="module")
def workload_inputs():
    return workload_programs()


def test_golden_workloads_cover_the_benchmark(workload_inputs):
    assert sorted(EXPECTED_WORKLOADS) == sorted(workload_inputs)


@pytest.mark.parametrize("name", sorted(EXPECTED_WORKLOADS))
def test_golden_workload_transforms(workload_inputs, name):
    assert workload_entry(workload_inputs[name]) == EXPECTED_WORKLOADS[name]


def test_suite_report_digest(suite_report):
    assert suite_digest(suite_report) == SUITE_DIGEST


if __name__ == "__main__":
    data = {inst.name: golden_entry(inst) for inst in load_corpus()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} instances to {GOLDEN}", file=sys.stderr)
    farkas = {name: farkas_entry(*pd) for name, pd in farkas_programs().items()}
    GOLDEN_FARKAS.write_text(json.dumps(farkas, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(farkas)} programs to {GOLDEN_FARKAS}", file=sys.stderr)
    work = {name: workload_entry(data) for name, data in workload_programs().items()}
    GOLDEN_WORKLOADS.write_text(json.dumps(work, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(work)} programs to {GOLDEN_WORKLOADS}", file=sys.stderr)
    print(f"property-suite report digest: {suite_digest(theorem_suite())}", file=sys.stderr)
