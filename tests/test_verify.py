import itertools
import json
import random
import signal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysched import verify
from polysched.farkas import ConstraintSystem
from polysched.fcg import colorable_dimension
from polysched.frontend import ParseError, analyze
from polysched.model import SchedulingError, identity_transform
from polysched.pluto import ILP, LP, SchedulerConfig, schedule
from polysched.postpass import dfp_schedule, introduce_skew
from polysched.ratlp import ResourceLimitError
from polysched.verify import (
    CheckResult, SuiteReport,
    brute_force_lexmin, check_legality, full_rank, load_corpus,
    parse_instance, statement_ranks, theorem_suite,
)

from inputs import FIXTURES, REFUSALS, ROOT, census, oracle, workloads

F = Fraction

CARRIED_ACROSS_LEVELS = FIXTURES / "carried_across_levels.json"



CHECK_NAMES = [
    "exact-arithmetic",
    "solution-scaling",
    "relaxation-objective",
    "integer-ratio",
    "oracle-agreement",
    "parallel-agreement",
    "band-agreement",
    "restricted-scaling",
    "pipeline-legality",
    "pipeline-rank",
    "skew-inert-when-tileable",
    "partition-convexity",
    "joint-shifts",
    "scc-colorability",
    "fusion-transitivity",
]


def system(variables, rows, lower=None):
    s = ConstraintSystem(variables, (), lower)
    return s.with_rows([s.row_from(c, k, kind) for c, k, kind in rows])


def scan_lexmin(s, bound):
    """Reference lexmin: plain enumeration of the integer box."""
    for point in itertools.product(range(bound + 1), repeat=len(s.variables)):
        vals = {v: F(x) for v, x in zip(s.variables, point)}
        if s.satisfied_by(vals):
            return vals
    return None


def ordered_program(dep):
    """Two 1-d statements A before B with one explicit same-iteration edge."""
    stmt = {"iterators": ["i"],
            "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
            "accesses": []}
    return analyze({
        "params": ["N"],
        "statements": [dict(stmt, id="A", order=0), dict(stmt, id="B", order=1)],
        "dependences": [dict(dep, relation=[[1, -1, 0, 0, "=="]])],
    })


class TestCheckLegality:
    def test_pipeline_transforms_pass(self, by_name, dfp_results):
        for name, result in dfp_results.items():
            inst = by_name[name]
            report = check_legality(inst.program, inst.deps, result.transform)
            assert report.ok, (name, report.violations)
            assert report.checked == sum(1 for d in inst.deps if d.ordering)
            assert report.violations == ()

    def test_identity_on_interchange_program(self, by_name):
        # The transposed read runs backwards along i unless the loops are
        # swapped for S2, so the identity is illegal on exactly that edge.
        inst = by_name["fig1"]
        report = check_legality(inst.program, inst.deps,
                                identity_transform(inst.program))
        assert not report.ok
        assert report.checked == 2  # the RAR edge imposes no order
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.dep == "S1->S2 A:0->1"
        assert v.level == 1 and v.minimum is None
        assert v.reason == "negative component before satisfaction"

    def test_zero_rows_leave_self_dependences_unsatisfied(self, by_name):
        inst = by_name["stencil1d"]
        width = inst.program.statements[0].dim + len(inst.program.params) + 1
        zero = identity_transform(inst.program)._replace(
            rows={"S": ((0,) * width, (0,) * width)})
        report = check_legality(inst.program, inst.deps, zero)
        assert not report.ok and report.checked == 3
        assert {v.reason for v in report.violations} == {
            "self-dependence never satisfied"}
        assert all(v.level is None and v.minimum is None
                   for v in report.violations)

    def test_dependence_carried_pair_by_pair_across_levels(self):
        """`lp` schedules this nest so that no level carries the self
        dependence `C:1->0@0` whole (minimum 0 at every level), yet no pair
        of it is tied on all three levels: every pair is carried at some
        level, which the execution oracle confirms."""
        program, deps = analyze(json.loads(CARRIED_ACROSS_LEVELS.read_text()))
        transform = schedule(program, deps, SchedulerConfig(mode=LP)).transform
        (dep,) = [d for d in deps if d.label == "C:1->0@0"]
        assert [verify.lp_minimum(dep, transform.row("S1", level), transform.row("S1", level))
                for level in (1, 2, 3)] == [0, 0, 0]
        assert oracle.check(program, deps, transform) == []
        report = check_legality(program, deps, transform)
        assert report.ok and report.violations == ()

    def test_textual_order_resolves_unsatisfied_edges(self):
        program, deps = ordered_program({"src": "A", "dst": "B", "kind": "RAW"})
        report = check_legality(program, deps, identity_transform(program))
        assert report.ok and report.checked == 1

    def test_textual_order_violation(self):
        program, deps = ordered_program({"src": "B", "dst": "A", "kind": "RAW"})
        report = check_legality(program, deps, identity_transform(program))
        assert not report.ok
        assert report.violations[0].reason == (
            "never satisfied and target textually precedes source")


class TestRanks:
    def test_full_rank_pipeline(self, by_name, dfp_results):
        inst = by_name["fig1"]
        transform = dfp_results["fig1"].transform
        ranks = statement_ranks(inst.program, transform)
        assert ranks == {"S1": (2, 2), "S2": (2, 2), "S3": (2, 2)}
        assert full_rank(inst.program, transform)

    def test_repeated_row_drops_rank(self, by_name):
        inst = by_name["fig1"]
        identity = identity_transform(inst.program)
        row = (1, 0, 0, 0)
        flat = identity._replace(rows={**identity.rows, "S1": (row, row)})
        assert statement_ranks(inst.program, flat)["S1"] == (1, 2)
        assert not full_rank(inst.program, flat)


class TestBruteForceLexmin:
    def test_prefers_early_variables(self):
        s = system(["x", "y"], [({"x": 1, "y": 1}, -1, "ge")])
        assert brute_force_lexmin(s) == {"x": 0, "y": 1}

    def test_equality_row(self):
        s = system(["x", "y"], [({"x": 1, "y": 1}, -1, "ge"),
                                ({"x": 1, "y": -1}, 0, "eq")])
        assert brute_force_lexmin(s) == {"x": 1, "y": 1}

    def test_box_misses_feasible_region(self):
        s = system(["x"], [({"x": 1}, -5, "ge")])
        assert brute_force_lexmin(s, bound=3) is None
        assert brute_force_lexmin(s, bound=5) == {"x": 5}

    def test_lower_bounds_are_honoured(self):
        s = system(["x", "y"], [], lower={"x": 1, "y": 2})
        assert brute_force_lexmin(s) == {"x": 1, "y": 2}

    def test_lower_bound_above_box(self):
        s = system(["x"], [], lower={"x": 4})
        assert brute_force_lexmin(s, bound=3) is None

    def test_matches_integer_scheduler_on_stencil(self, by_name):
        # Level-1 system of the diagonal-time schedule: the smallest integer
        # point spends one bound unit and moves only along t.
        inst = by_name["stencil1d"]
        steps = schedule(inst.program, inst.deps,
                         SchedulerConfig(mode=ILP)).steps
        assert len(steps) == 2
        sys0, asg0 = steps[0].system, steps[0].raw
        expected = dict.fromkeys(sys0.variables, 0)
        expected.update({"w": 1, "c.S.t": 1})
        assert asg0 == expected
        assert brute_force_lexmin(sys0) == expected

    rows_strategy = st.lists(
        st.tuples(
            st.fixed_dictionaries({"x": st.integers(-2, 2),
                                   "y": st.integers(-2, 2)}),
            st.integers(-2, 2),
            st.sampled_from(["ge", "eq"])),
        min_size=1, max_size=3)

    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy)
    def test_matches_exhaustive_scan(self, rows):
        s = system(["x", "y"], rows)
        assert brute_force_lexmin(s, bound=2) == scan_lexmin(s, 2)


class TestParseInstance:
    def test_minimal(self):
        inst = parse_instance({"name": "tiny"})
        assert inst.name == "tiny" and inst.description == ""
        assert inst.flags == {} and inst.deps == ()
        assert inst.program.statements == ()
        assert not inst.flag("tileable")

    def test_rejects_non_object(self):
        with pytest.raises(ParseError, match="expected an object"):
            parse_instance([1, 2])

    def test_rejects_unknown_keys(self):
        with pytest.raises(ParseError, match=r"unknown keys \['schedule'\]"):
            parse_instance({"name": "x", "schedule": []})

    def test_requires_a_name(self):
        with pytest.raises(ParseError, match="missing instance name"):
            parse_instance({"description": "unnamed"})
        with pytest.raises(ParseError, match="missing instance name"):
            parse_instance({"name": ""})

    def test_description_must_be_a_string(self):
        with pytest.raises(ParseError, match="description must be a string"):
            parse_instance({"name": "x", "description": ["a"]})

    def test_flags_must_be_booleans(self):
        with pytest.raises(ParseError, match="flags must map names to booleans"):
            parse_instance({"name": "x", "flags": {"tileable": 1}})

    def test_where_prefixes_the_message(self):
        with pytest.raises(ParseError, match="bad.json"):
            parse_instance(None, where="bad.json")


class TestLoadCorpus:
    def test_bundled_names(self, corpus):
        assert [c.name for c in corpus] == [
            "chain_indep", "distribution_forced", "fig1", "matmul",
            "scaling_pair", "scc_pair", "shift_pair", "stencil1d",
            "stencil2d_time", "transpose_chain",
        ]

    def test_bundled_flags(self, corpus):
        off = lambda key: {c.name for c in corpus if not c.flag(key)}
        assert off("ratio_oracle") == {"scc_pair", "stencil1d", "stencil2d_time"}
        assert off("tileable") == {"distribution_forced", "stencil1d",
                                   "stencil2d_time"}
        assert off("restricted") == {"stencil1d", "stencil2d_time"}

    def test_custom_directory(self, tmp_path):
        for name in ("b_second", "a_first"):
            (tmp_path / f"{name}.json").write_text(json.dumps({"name": name}))
        names = [c.name for c in load_corpus(str(tmp_path))]
        assert names == ["a_first", "b_second"]

    def test_duplicate_names_rejected(self, tmp_path):
        for fname in ("one.json", "two.json"):
            (tmp_path / fname).write_text(json.dumps({"name": "same"}))
        with pytest.raises(ParseError, match="duplicate instance names"):
            load_corpus(str(tmp_path))

    def test_duplicate_names_name_the_instance_and_both_files(self, tmp_path):
        fig1 = json.loads((ROOT / "src" / "polysched" / "corpus" / "fig1.json").read_text())
        for fname in ("a.json", "b.json"):
            (tmp_path / fname).write_text(json.dumps(fig1))
        with pytest.raises(ParseError, match=r"^corpus: duplicate instance names: "
                                             r"'fig1' in a\.json and b\.json$"):
            load_corpus(str(tmp_path))

    def test_invalid_json_names_the_file(self, tmp_path):
        (tmp_path / "broken.json").write_text("{")
        with pytest.raises(ParseError, match="broken.json.*invalid JSON"):
            load_corpus(str(tmp_path))


class TestReports:
    def test_ok_requires_no_failures(self):
        good = SuiteReport((CheckResult("a", "pass"),
                            CheckResult("b", "skip")), ("x",))
        bad = SuiteReport((CheckResult("a", "fail", ("boom",)),), ("x",))
        assert good.ok and not bad.ok

    def test_json_shape(self):
        report = SuiteReport((CheckResult("a", "pass", ("note",)),), ("x", "y"))
        assert report.to_json() == {
            "instances": ["x", "y"],
            "ok": True,
            "checks": [{"name": "a", "status": "pass", "details": ["note"]}],
        }
        json.dumps(report.to_json())

    def test_summary_layout(self):
        report = SuiteReport(
            (CheckResult("a", "pass", ("fine",)), CheckResult("b", "fail")),
            ("x", "y"))
        lines = report.summary().splitlines()
        assert lines[0] == "corpus: x, y"
        assert lines[1].startswith("PASS a")
        assert lines[2] == "     fine"
        assert lines[3].startswith("FAIL b")
        assert lines[-1] == "failures present"


class TestTheoremSuite:
    def test_all_checks_pass_on_the_corpus(self, suite_report):
        assert suite_report.ok
        assert [r.name for r in suite_report.results] == CHECK_NAMES
        assert all(r.status == "pass" for r in suite_report.results)

    def test_instances_listed(self, corpus, suite_report):
        assert suite_report.instances == tuple(c.name for c in corpus)

    def test_oracle_skips_are_reported(self, suite_report):
        by = {r.name: r for r in suite_report.results}
        assert any(d.startswith("skipped") for d in by["integer-ratio"].details)

    def test_empty_corpus_fails_the_record_quota(self):
        report = theorem_suite(corpus=())
        assert not report.ok and report.instances == ()
        failing = [r.name for r in report.results if r.status == "fail"]
        assert failing == ["solution-scaling"]

    def test_scc_colorability_picks_for_every_component_statement(self, by_name,
                                                                  monkeypatch):
        asked = []

        def recording(program, fcg, statements, used, chosen):
            picks = colorable_dimension(program, fcg, statements, used, chosen)
            asked.append((set(statements), set(used), set(chosen), picks))
            return picks

        monkeypatch.setattr(verify, "colorable_dimension", recording)
        theorem_suite(corpus=(by_name["scc_pair"],))
        assert asked == [({"P", "Q"}, set(), set(), {"P": 0, "Q": 0})]

    def test_skew_inert_tells_nests_needing_no_skew_apart(self, suite_report):
        (check,) = [r for r in suite_report.results
                    if r.name == "skew-inert-when-tileable"]
        assert check.details == ("distribution_forced: needs no skew",
                                 "stencil1d: skewed levels 2",
                                 "stencil2d_time: skewed levels 2,3")

    def test_skew_inert_reports_a_kept_skew_and_a_refused_band(self, two_bands):
        inst, t = two_bands
        skew = introduce_skew(inst.program, inst.deps, t, ())
        run = SimpleNamespace(instance=inst, dfp=SimpleNamespace(
            scaled=t, transform=skew.transform, skew=skew))
        check = verify._check_skew_inert([run], 3)
        assert check.status == "pass"
        assert check.details == (
            "two_bands: skewed levels 2; not tileable as permuted",)

    def test_skew_inert_reads_the_bands_of_the_dfp_transform(self, by_name, dfp_results):
        # A band that is not permutable fails a tileable nest even with no
        # skewed step: the verdict is the transform's, not the skew pass's notes.
        inst, result = by_name["fig1"], dfp_results["fig1"]
        assert inst.flag("tileable") and result.skew.skewed == ()
        (band, *rest) = result.transform.bands
        refused = result.transform._replace(bands=(band._replace(permutable=False), *rest))
        run = SimpleNamespace(instance=inst, dfp=result._replace(transform=refused))
        check = verify._check_skew_inert([run], 3)
        assert check.status == "fail"
        assert check.details == ("fig1: skew pass altered an already tileable nest",)

    def test_partition_convexity_fails_on_swapped_cut_groups(self, by_name, dfp_results):
        inst, result = by_name["distribution_forced"], dfp_results["distribution_forced"]
        (cut,) = result.transform.cuts
        assert cut.groups == (("P",), ("Q",))
        run = SimpleNamespace(instance=inst, dfp=result)
        assert verify._check_partition_convexity([run], 3).status == "pass"
        swapped = result.transform._replace(cuts=(cut._replace(groups=cut.groups[::-1]),))
        run = SimpleNamespace(instance=inst, dfp=result._replace(transform=swapped))
        check = verify._check_partition_convexity([run], 3)
        assert check.status == "fail"
        assert check.details == ("distribution_forced: the cut at level 1 puts Q before "
                                 "its predecessor P (P->Q b:0->1)",)

    def test_scc_colorability_passes_with_a_scalar_statement(self):
        inst = parse_instance({"name": "scalar", "program": {
            "params": ["N"], "statements": [
                {"id": "S0", "iterators": [], "domain": [],
                 "accesses": [{"array": "B", "kind": "write", "map": [[0, 0]]}]},
                {"id": "S1", "iterators": ["i"],
                 "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
                 "accesses": [{"array": "B", "kind": "read", "map": [[0, 0, 0]]}]}]}})
        report = theorem_suite(corpus=(inst,))
        (check,) = [r for r in report.results if r.name == "scc-colorability"]
        assert check.status == "pass", check.details

    def test_progress_callback_sees_every_check(self, by_name):
        seen = []
        theorem_suite(corpus=(by_name["fig1"],), progress=seen.append)
        assert seen[0] == "scheduling fig1"
        assert [m.split(" ", 1)[1] for m in seen[1:]] == CHECK_NAMES


# -- every path, legal or refused ----------------------------------------------


def _run(path, program, deps):
    if path == "dfp":
        return dfp_schedule(program, deps).transform
    return schedule(program, deps, SchedulerConfig(mode=path)).transform


@pytest.mark.parametrize("path", [ILP, LP, "dfp"])
@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_every_path_is_legal_on_every_fixture(name, path):
    """Each path gives every fixture a legal, full-rank transform, or the
    refusal that `tests/refusals.json` pins."""
    program, deps = analyze(json.loads((FIXTURES / f"{name}.json").read_text()))
    refusal = REFUSALS.get(name, {}).get(path)
    if refusal is not None:
        with pytest.raises(SchedulingError) as err:
            _run(path, program, deps)
        assert str(err.value) == refusal
        return
    transform = _run(path, program, deps)
    assert check_legality(program, deps, transform).ok
    assert full_rank(program, transform)


def test_every_path_is_legal_on_explicit_dependences():
    """On 240 generated explicit-dependence programs, some of whose edges
    run against textual order, each path gives a legal, full-rank
    transform or raises, and `dfp` raises only where `lp` does too; only a
    program with an ordering self-dependence that pairs an instance with
    itself is refused, as bad input."""
    rng = random.Random(1)
    outcomes = set()
    for n in range(240):
        data, reflexive = census.explicit_program(rng)
        try:
            program, deps = analyze(data)
        except ParseError as exc:
            assert reflexive, (n, str(exc))
            assert "pairs an instance of" in str(exc)
            outcomes.add("refused")
            continue
        assert not reflexive, n
        scheduled = set()
        for path in (ILP, LP, "dfp"):
            try:
                transform = _run(path, program, deps)
            except (SchedulingError, ResourceLimitError):
                outcomes.add("raised")
                continue
            assert check_legality(program, deps, transform).ok, (n, path)
            assert full_rank(program, transform), (n, path)
            outcomes.add("scheduled")
            scheduled.add(path)
        assert "dfp" in scheduled or LP not in scheduled, n
    assert outcomes == {"refused", "raised", "scheduled"}


def test_dfp_schedules_every_random_nest_that_lp_does():
    """On the first 100 `random_nest` nests under seed 1, `dfp` gives a
    legal, full-rank transform wherever `lp` schedules the nest: where a
    color's level has no row, the walk distributes and retries."""
    rng = random.Random(1)
    for k in range(100):
        program, deps = analyze(workloads.random_nest(rng))
        try:
            _run(LP, program, deps)
        except SchedulingError:
            continue
        transform = _run("dfp", program, deps)
        assert check_legality(program, deps, transform).ok, k
        assert full_rank(program, transform), k


def test_census_names_a_dfp_refusal_where_only_ilp_schedules(monkeypatch):
    """`scripts/census.py` counts `scc_backtrack`, which `ilp` and `dfp`
    schedule and `lp` refuses, with no fault, and the two levels of the
    permutable, not parallel, band each of them reports; a `dfp` that
    refused it would be named against `ilp` alone."""
    programs = [("scc_backtrack", json.loads((FIXTURES / "scc_backtrack.json").read_text()))]
    handler = signal.getsignal(signal.SIGPROF)
    counts, quality, faults, alarms = census.census(programs)
    assert (counts["ilp scheduled"], counts["lp scheduled"], counts["dfp scheduled"]) == (1, 0, 1)
    assert quality == {"ilp": [0, 2], "lp": [0, 0], "dfp": [0, 2]}
    assert faults == [] and alarms == []
    # The CPU alarm's handler is put back after each ilp run.
    assert signal.getsignal(signal.SIGPROF) is handler

    def refuse(program, deps):
        raise SchedulingError("refused")

    monkeypatch.setattr(census, "dfp_schedule", refuse)
    counts, _, faults, _ = census.census(programs)
    assert counts["dfp scheduled"] == 0 and counts["all refused"] == 0
    assert faults == ["scc_backtrack: dfp refuses where ilp schedules: refused"]
