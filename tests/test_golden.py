"""Byte-identity of everything the scheduler computes on fixed programs.

`golden_records.json` pins every program of every family that
`scripts/digest.py` lists (`digest.families`): the bundled corpus, the
benchmark's `chain` and `random` workloads, every program under
`tests/fixtures/`, 500 `random_nest` nests, and the `chain`, `fan-in` and
`shifted` pipelines of `scripts/bench_chain.py` at 50 statements.  Its
entry for a program holds a 16-hex sha256 prefix of each key of the
program's `digest.record`: its dependences (`deps`), each path's transform
and `Step` records or its error (`ilp`, `lp`, `dfp`), the `dfp` coloring
(`coloring`), or the error analysis raised (`analysis`).  It also holds a
`farkas` digest: the legality and bounding systems (variables, rows in
order, lower bounds) that Farkas elimination gives each dependence, in
dependence order, with the dependence's index, kind and endpoints.  A
corpus entry also pins what the record leaves out: the restricted-mode
`ilp` and `lp` transforms of an instance flagged `restricted`, and the
`dfp` conflict graph's edges before and after the coloring (`fcg_initial`,
`fcg_final`).  Each program is its own test, so a failure names the
programs a change touched, and its `farkas` key is its own test too
(`test_golden_farkas_rows`), so a failure also says whether a Farkas
system or a schedule changed.  That test's `chain4` case checks that
chain(4)'s systems are chain(50)'s first three, which the `chain-50` entry
pins.  The corpus `ilp` and `lp` transforms must also
pass `check_legality` and `full_rank` (the property suite checks `dfp`).
The property-suite report is pinned by digest too, so a solve lost from or
duplicated in the steps the checks read changes it.  Refactors of the
scheduler keep these outputs exact; a change that alters a schedule, a
Farkas system or the report on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints, before it writes the file, every key that changed, in how
many entries, and the first ten programs it changed in.  The change then
sets SUITE_DIGEST to the report digest that command prints, and says so in
its description.
"""

import hashlib
import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from polysched.cli import main
from polysched.farkas import bounding_constraints, legality_constraints
from polysched.fcg import build_fcg
from polysched.frontend import analyze
from polysched.pluto import ILP, LP, SchedulerConfig, schedule
from polysched.postpass import dfp_schedule
from polysched.verify import check_legality, full_rank, load_corpus, theorem_suite

from inputs import ROOT, bench_chain, digest

GOLDEN = Path(__file__).with_name("golden_records.json")
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
SUITE_DIGEST = "81a657563bcbe5b4"

API = digest.layers(ROOT / "src")
FAMILIES = digest.families(ROOT / "src")
#: Program JSON by "family/name".
PROGRAMS = {f"{family}/{name}": data
            for family, named in FAMILIES.items() for name, data in named}
CORPUS = [name for name, _ in FAMILIES["corpus"]]


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def suite_digest(report) -> str:
    """sha256 prefix of a property-suite report's JSON."""
    text = json.dumps(report.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _edges(fcg) -> dict:
    name = "{0[0]}.{0[1]}".format
    return {"conflicts": [f"{name(u)}-{name(v)}" for u, v in fcg.conflicts],
            "loops": [name(v) for v in fcg.loops]}


def record_digests(data) -> dict:
    """A digest of each key of the program's `digest.record`."""
    return {key: _digest(value) for key, value in digest.record(API, data).items()}


def corpus_digests(inst) -> dict:
    """Digests of what `digest.record` leaves out of a corpus instance: its
    restricted-mode transforms, if it is flagged `restricted` (transforms
    only: restricted steps record just the axis unknowns), and its conflict
    graph's edges before and after the coloring."""
    entry = {}
    if inst.flag("restricted"):
        for mode in (ILP, LP):
            restricted = schedule(inst.program, inst.deps,
                                  SchedulerConfig(mode=mode, restricted=True))
            entry[f"restricted_{mode}"] = _digest(restricted.transform.to_json())
    entry["fcg_initial"] = _digest(_edges(build_fcg(inst.program, inst.deps)))
    entry["fcg_final"] = _digest(_edges(dfp_schedule(inst.program, inst.deps).coloring.fcg))
    return entry


def farkas_systems(data) -> list:
    """Each dependence's index, kind, endpoints and (legality, bounding)
    system, in dependence order: the named views of the rows its shape
    shares (`dep.farkas_rows`), substituted into the relation's Farkas cone
    (`dep.cone`)."""
    program, deps = analyze(data)
    systems = []
    for k, dep in enumerate(deps):
        src, dst = program.statement(dep.src), program.statement(dep.dst)
        systems.append([k, dep.kind, dep.src, dep.dst,
                        digest._system(legality_constraints(dep, src, dst)),
                        digest._system(bounding_constraints(dep, src, dst))])
    return systems


def schedule_entry(name: str, by_name: dict) -> dict:
    """The golden entry of the program "family/name" but its `farkas` key,
    with `by_name` the corpus instances by name."""
    entry = record_digests(PROGRAMS[name])
    family, _, program = name.partition("/")
    if family == "corpus":
        entry.update(corpus_digests(by_name[program]))
    return entry


def golden_entry(name: str, by_name: dict) -> dict:
    """What the golden file records for the program "family/name"."""
    entry = schedule_entry(name, by_name)
    if "analysis" not in entry:
        entry["farkas"] = _digest(farkas_systems(PROGRAMS[name]))
    return entry


def test_golden_records_cover_every_family():
    assert sorted(EXPECTED) == sorted(
        f"{family}/{name}" for family, named in FAMILIES.items() for name, _ in named)


def _check(name, by_name):
    """The program's entry but its `farkas` key, which
    `test_golden_farkas_rows` checks."""
    expected = {k: v for k, v in EXPECTED.get(name, {}).items() if k != "farkas"}
    assert schedule_entry(name, by_name) == expected


# One test per family, each program its own case.

@pytest.mark.parametrize("name", CORPUS)
def test_golden_schedule(by_name, name):
    _check(f"corpus/{name}", by_name)


@pytest.mark.parametrize("name", [f"{w}/{name}" for w in ("chain", "random")
                                  for name, _ in FAMILIES[w]])
def test_golden_workload_transforms(by_name, name):
    _check(name, by_name)


@pytest.mark.parametrize("name", [name for name, _ in FAMILIES["fixtures"]])
def test_golden_fixture_transforms(by_name, name):
    _check(f"fixtures/{name}", by_name)


@pytest.mark.parametrize("name", [name for name in PROGRAMS if name.split("/")[0] not in
                                  ("corpus", "chain", "random", "fixtures")])
def test_golden_generated_program(by_name, name):
    _check(name, by_name)


#: The programs whose entry pins a `farkas` key, every program that
#: analysis accepts, by test id: a corpus program by its bare name, as in
#: `test_golden_schedule`, any other by "family/name".
FARKAS = {name.removeprefix("corpus/"): name for name in PROGRAMS
          if "analysis" not in EXPECTED.get(name, {})}


def test_golden_farkas_covers_corpus():
    assert all("farkas" in EXPECTED.get(name, {}) for name in FARKAS.values())
    assert set(CORPUS) <= FARKAS.keys()


@pytest.mark.parametrize("name", [*FARKAS, "chain4"])
def test_golden_farkas_rows(name):
    if name == "chain4":
        # chain(4) is the first four statements of chain(50), so chain-50's
        # entry pins its systems: they are chain(50)'s first three.
        systems = farkas_systems(bench_chain.chain(4))
        assert systems == farkas_systems(PROGRAMS["chain-50/chain(50)"])[:len(systems)]
    else:
        assert _digest(farkas_systems(PROGRAMS[FARKAS[name]])) == EXPECTED[FARKAS[name]]["farkas"]


@pytest.mark.parametrize("name", CORPUS)
def test_statement_listing_order_changes_no_output(name, tmp_path, capsys):
    """A program lists its statements in textual order however its input
    lists them: with every `order` set, reversing the list changes no
    dependence, transform, `Step` or coloring on any path and no `polysched
    fcg` output."""
    original = ROOT / "src" / "polysched" / "corpus" / f"{name}.json"
    data = json.loads(original.read_text())
    listed = data["program"]["statements"]
    for k, st in enumerate(listed):
        st["order"] = st.get("order", k)
    listed.reverse()
    (tmp_path / "reversed.json").write_text(json.dumps(data))
    entry = record_digests(data["program"])
    assert entry == {key: EXPECTED[f"corpus/{name}"][key] for key in entry}
    for flags in ([], ["--dot"]):
        outputs = []
        for path in (original, tmp_path / "reversed.json"):
            assert main(["fcg", str(path), *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", [ILP, LP])
@pytest.mark.parametrize("name", CORPUS)
def test_lp_and_ilp_transforms_are_legal_and_full_rank(by_name, name, mode):
    inst = by_name[name]
    transform = schedule(inst.program, inst.deps,
                         SchedulerConfig(mode=mode)).transform
    assert check_legality(inst.program, inst.deps, transform).ok
    assert full_rank(inst.program, transform)


def test_suite_report_digest(suite_report):
    assert suite_digest(suite_report) == SUITE_DIGEST


def golden_changes(old: dict, new: dict) -> dict:
    """The entries each key differs in between two golden files, by key,
    counting a key or entry present on one side only."""
    changes = defaultdict(list)
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, {}), new.get(name, {})
        for key in a.keys() | b.keys():
            if a.get(key) != b.get(key):
                changes[key].append(name)
    return dict(changes)


def change_lines(changes: dict, total: int, shown: int = 10) -> list[str]:
    """One line per changed key: in how many of `total` entries it changed,
    and the first `shown` of those entries by name."""
    lines = []
    for key, names in sorted(changes.items()):
        listed = ", ".join(names[:shown])
        if len(names) > shown:
            listed += f" and {len(names) - shown} more"
        lines.append(f"{key} changed in {len(names)} of {total} entries: {listed}")
    return lines


def test_golden_changes_counts_entries_per_key():
    old = {"a": {"x": 1, "y": 2}, "b": {"x": 1, "y": 2}}
    new = {"a": {"x": 1, "y": 3}, "b": {"x": 0, "y": 4}, "c": {"x": 1}}
    assert golden_changes(old, new) == {"x": ["b", "c"], "y": ["a", "b"]}
    assert golden_changes(old, old) == {}
    assert change_lines(golden_changes(old, new), 3, shown=1) == [
        "x changed in 2 of 3 entries: b and 1 more",
        "y changed in 2 of 3 entries: a and 1 more"]
    assert change_lines({"x": ["b", "c"]}, 3) == ["x changed in 2 of 3 entries: b, c"]


if __name__ == "__main__":
    instances = {inst.name: inst for inst in load_corpus()}
    new = {name: golden_entry(name, instances) for name in PROGRAMS}
    changes = golden_changes(EXPECTED, new)
    for line in change_lines(changes, len(new)) or ["unchanged"]:
        print(f"{GOLDEN.name}: {line}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(new)} programs to {GOLDEN}", file=sys.stderr)
    print(f"property-suite report digest: {suite_digest(theorem_suite())}", file=sys.stderr)
