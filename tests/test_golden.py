"""Byte-identity of the bundled corpus schedules.

Every corpus instance is scheduled on `ilp`, `lp` and `dfp`; the digest of
its dependences (endpoints, kind, label, variables and relation), of each
transform's JSON, of each path's `Step` records (level, kind, system,
raw optimum, factors, component), of the same records without their
systems (the path's optima, which a change that keeps every feasible set
but not its rows leaves as they are), of the restricted-mode `ilp` and `lp`
transforms of every instance flagged `restricted`, and the `dfp` conflict
graphs and coloring must match `golden_corpus.json`, and the `ilp` and `lp` transforms must pass
`check_legality` and `full_rank` (the property suite checks `dfp`).  The
property-suite report is pinned by digest too, so a solve lost from or
duplicated in the steps the checks read changes it.  `golden_farkas.json`
pins the legality and bounding system (variables, rows in order, lower
bounds) that Farkas elimination gives every dependence of every corpus
program, of the four-statement chain of `scripts/bench_chain.py` and of
every `random` program of the benchmark (`perfbench/workloads.py`).
`golden_workloads.json` pins the transform digest and the `Step` records
of every `chain` and `random` program of the benchmark on each path, each
path on a fresh analysis as the benchmark runs it, and `golden_fixtures.json`
the same digests of every program under `tests/fixtures/` on each path
that schedules it (a path that raises has no keys).
Refactors of the scheduler keep these outputs exact; a change that alters a
schedule, a Farkas system or the report on purpose regenerates the files
with

    PYTHONPATH=src python tests/test_golden.py

which prints, before it writes each file, every key that changed and in how
many entries.  The change then sets SUITE_DIGEST to the report digest that
command prints, and says so in its description.
"""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from polysched.cli import main
from polysched.farkas import bounding_constraints, legality_constraints
from polysched.fcg import build_fcg
from polysched.frontend import analyze
from polysched.model import SchedulingError
from polysched.pluto import ILP, LP, SchedulerConfig, schedule
from polysched.postpass import dfp_schedule
from polysched.verify import check_legality, full_rank, load_corpus, theorem_suite

from inputs import FIXTURES, ROOT, bench_chain, workloads

GOLDEN = Path(__file__).with_name("golden_corpus.json")
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
GOLDEN_FARKAS = Path(__file__).with_name("golden_farkas.json")
EXPECTED_FARKAS = (json.loads(GOLDEN_FARKAS.read_text())
                   if GOLDEN_FARKAS.exists() else {})
GOLDEN_WORKLOADS = Path(__file__).with_name("golden_workloads.json")
EXPECTED_WORKLOADS = (json.loads(GOLDEN_WORKLOADS.read_text())
                      if GOLDEN_WORKLOADS.exists() else {})
GOLDEN_FIXTURES = Path(__file__).with_name("golden_fixtures.json")
EXPECTED_FIXTURES = (json.loads(GOLDEN_FIXTURES.read_text())
                     if GOLDEN_FIXTURES.exists() else {})
SUITE_DIGEST = "81a657563bcbe5b4"


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
        if inst.flag("restricted"):
            # Transforms only: restricted steps record just the axis unknowns.
            restricted = schedule(inst.program, inst.deps,
                                  SchedulerConfig(mode=mode, restricted=True))
            entry[f"restricted_{mode}"] = _digest(restricted.transform.to_json())
    dfp = dfp_schedule(inst.program, inst.deps)
    coloring = dfp.coloring
    entry["dfp"] = _digest(dfp.transform.to_json())
    entry["dfp_steps"] = _steps_digest(dfp.steps)
    entry["dfp_optima"] = _steps_digest(dfp.steps, systems=False)
    entry["fcg"] = {
        "initial": _edges(build_fcg(inst.program, inst.deps)),
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
    """Digest of each dependence's (legality, bounding) system: the named
    views of the rows its shape shares (`dep.farkas_rows`), substituted
    into the relation's Farkas cone (`dep.cone`)."""
    entry = {}
    for k, dep in enumerate(deps):
        src, dst = program.statement(dep.src), program.statement(dep.dst)
        systems = [legality_constraints(dep, src, dst),
                   bounding_constraints(dep, src, dst)]
        entry[f"{k} {dep.kind} {dep.src}->{dep.dst}"] = _digest(
            [_system_json(s) for s in systems])[:16]
    return entry


def workload_programs(names=("chain", "random")) -> dict:
    """Program JSON of the benchmark's workloads `names`, by "workload/name"."""
    return {f"{w}/{name}": data for w in names
            for name, data in workloads.programs(w, ROOT / "src")}


def fixture_programs() -> dict:
    """Program JSON of every fixture, by file stem."""
    return {p.stem: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}


def workload_entry(data) -> dict:
    """Transform and `Step` digests of one program on each path that
    schedules it, each path on a fresh analysis; a path that raises
    `SchedulingError` has no keys."""
    entry = {}
    for mode in (ILP, LP, "dfp"):
        program, deps = analyze(data)
        try:
            result = (dfp_schedule(program, deps) if mode == "dfp"
                      else schedule(program, deps, SchedulerConfig(mode=mode)))
        except SchedulingError:
            continue
        entry[mode] = _digest(result.transform.to_json())
        entry[f"{mode}_steps"] = _steps_digest(result.steps)
    return entry


def farkas_programs(corpus=None) -> dict:
    """(program, deps) of every corpus instance, of chain(4) and of every
    `random` benchmark program, by name."""
    programs = {inst.name: (inst.program, inst.deps)
                for inst in corpus or load_corpus()}
    programs["chain4"] = analyze(bench_chain.chain(4))
    for name, data in workload_programs(("random",)).items():
        programs[name] = analyze(data)
    return programs


def test_golden_covers_corpus(corpus):
    assert sorted(EXPECTED) == sorted(inst.name for inst in corpus)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_golden_schedule(by_name, name):
    assert golden_entry(by_name[name]) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_statement_listing_order_changes_no_output(name, tmp_path, capsys):
    """A program lists its statements in textual order however its input
    lists them: with every `order` set, reversing the list changes no
    transform on any path and no `polysched fcg` output."""
    original = ROOT / "src" / "polysched" / "corpus" / f"{name}.json"
    data = json.loads(original.read_text())
    listed = data["program"]["statements"]
    for k, st in enumerate(listed):
        st["order"] = st.get("order", k)
    listed.reverse()
    (tmp_path / "reversed.json").write_text(json.dumps(data))
    inst = load_corpus(str(tmp_path))[0]
    for mode in (ILP, LP):
        result = schedule(inst.program, inst.deps, SchedulerConfig(mode=mode))
        assert _digest(result.transform.to_json()) == EXPECTED[name][mode]
    assert _digest(dfp_schedule(inst.program, inst.deps).transform.to_json()) \
        == EXPECTED[name]["dfp"]
    for flags in ([], ["--dot"]):
        outputs = []
        for path in (original, tmp_path / "reversed.json"):
            assert main(["fcg", str(path), *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


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
        [inst.name for inst in corpus] + ["chain4"]
        + list(workload_programs(("random",))))


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


def test_golden_fixtures_cover_the_fixtures():
    assert sorted(EXPECTED_FIXTURES) == sorted(fixture_programs())


@pytest.mark.parametrize("name", sorted(EXPECTED_FIXTURES))
def test_golden_fixture_transforms(name):
    assert workload_entry(fixture_programs()[name]) == EXPECTED_FIXTURES[name]


def test_suite_report_digest(suite_report):
    assert suite_digest(suite_report) == SUITE_DIGEST


def golden_changes(old: dict, new: dict) -> dict:
    """How many entries each key differs in between two golden files,
    counting a key or entry present on one side only."""
    counts = Counter()
    for name in old.keys() | new.keys():
        a, b = old.get(name, {}), new.get(name, {})
        counts.update(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return dict(counts)


def test_golden_changes_counts_entries_per_key():
    old = {"a": {"x": 1, "y": 2}, "b": {"x": 1, "y": 2}}
    new = {"a": {"x": 1, "y": 3}, "b": {"x": 0, "y": 4}, "c": {"x": 1}}
    assert golden_changes(old, new) == {"x": 2, "y": 2}
    assert golden_changes(old, old) == {}


def _write_golden(path: Path, old: dict, new: dict, what: str) -> None:
    """Print which keys changed and in how many entries, then write `new`."""
    changes = golden_changes(old, new)
    for key, n in sorted(changes.items()):
        print(f"{path.name}: {key} changed in {n} of {len(new)} entries",
              file=sys.stderr)
    if not changes:
        print(f"{path.name}: unchanged", file=sys.stderr)
    path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(new)} {what} to {path}", file=sys.stderr)


if __name__ == "__main__":
    _write_golden(GOLDEN, EXPECTED,
                  {inst.name: golden_entry(inst) for inst in load_corpus()},
                  "instances")
    _write_golden(GOLDEN_FARKAS, EXPECTED_FARKAS,
                  {name: farkas_entry(*pd) for name, pd in farkas_programs().items()},
                  "programs")
    _write_golden(GOLDEN_WORKLOADS, EXPECTED_WORKLOADS,
                  {name: workload_entry(data)
                   for name, data in workload_programs().items()},
                  "programs")
    _write_golden(GOLDEN_FIXTURES, EXPECTED_FIXTURES,
                  {name: workload_entry(data)
                   for name, data in fixture_programs().items()},
                  "fixtures")
    print(f"property-suite report digest: {suite_digest(theorem_suite())}", file=sys.stderr)
