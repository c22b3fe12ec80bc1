import json
import random
from fractions import Fraction

import pytest

from polysched.cli import main
from polysched.fcg import _partial, build_fcg, color_fcg, fusion_probe
from polysched.frontend import analyze
from polysched.model import (
    AffineTransform, Band, Cut, SchedulingError, dependence_list, negative,
    unsatisfied,
)
from polysched.pluto import ILP, LP, SchedulerConfig, schedule
from polysched.postpass import (
    _skew_level, dfp_schedule, introduce_skew, scale_and_shift,
)
from polysched.verify import check_legality, full_rank, load_corpus

from inputs import DFP_REFUSES, FIXTURES, workloads

F = Fraction


def R(*xs):
    return xs


#: Domains over [0, N-1] of one and of two loops.
LINE = [[1, 0, 0, ">="], [-1, 1, -1, ">="]]
BOX2 = [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="], [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]]


class TestScaleAndShift:
    def test_shifts_the_consumer_backwards(self, by_name, dfp_results):
        # The scheduler proper shifts P forward by 2; with both directions
        # open the lexmin prefers leaving P alone and pulling Q back.
        out = dfp_results["shift_pair"]
        assert out.coloring.colors == {"P": (0,), "Q": (0,)}
        assert out.scaled.rows["P"] == (R(1, 0, 0),)
        assert out.scaled.rows["Q"] == (R(1, 0, -2),)
        (step,) = out.steps
        assert step.kind == "loop" and step.parallel
        assert step.factors == (1,)
        assert step.raw["c0.Q"] == -2

    def test_scales_rational_alignment_to_integers(self, dfp_results):
        out = dfp_results["scaling_pair"]
        assert out.scaled.rows["P"] == (R(2, 0, 0),)
        assert out.scaled.rows["Q"] == (R(3, 0, 0),)
        (step,) = out.steps
        assert step.factors == (2,) and step.parallel
        assert step.raw["c.Q.i"] == F(3, 2)

    def test_identity_plus_interchange(self, dfp_results):
        out = dfp_results["fig1"]
        assert out.coloring.colors == {"S1": (0, 1), "S2": (1, 0), "S3": (0, 1)}
        assert out.scaled.rows["S1"] == (R(1, 0, 0, 0), R(0, 1, 0, 0))
        assert out.scaled.rows["S2"] == (R(0, 1, 0, 0), R(1, 0, 0, 0))
        assert out.scaled.rows["S3"] == (R(1, 0, 0, 0), R(0, 1, 0, 0))
        assert out.scaled.cuts == ()

    def test_cut_becomes_a_scalar_level(self, dfp_results):
        # The distribution recorded at color 1 becomes the scalar level 1,
        # before color 1's loop level.
        out = dfp_results["distribution_forced"]
        assert out.coloring.colors == {"P": (0,), "Q": (0,)}
        assert out.coloring.cut_groups == {1: (("P",), ("Q",))}
        assert out.scaled.rows["P"] == (R(0, 0, 0), R(1, 0, 0))
        assert out.scaled.rows["Q"] == (R(0, 0, 1), R(1, 0, 0))
        assert out.scaled.cuts == (Cut(1, (("P",), ("Q",))),)

    def test_cut_levels_pass_through(self, dfp_results):
        out = dfp_results["distribution_forced"]
        assert out.steps[0].kind == "cut"
        assert out.steps[0].factors == () and out.steps[0].raw is None
        assert out.scaled.rows["P"] == (R(0, 0, 0), R(1, 0, 0))
        assert out.scaled.rows["Q"] == (R(0, 0, 1), R(1, 0, 0))
        assert out.scaled.cuts == (Cut(1, (("P",), ("Q",))),)

    def test_illegal_permutation_is_rejected(self, by_name):
        # Space outermost on the stencil: the +1/-1 reaches cannot be carried
        # by any scaling, and a self-dependence offers no shift to hide in.
        inst = by_name["stencil1d"]
        space_first = color_fcg(inst.program, inst.deps)._replace(colors={"S": (1, 0)})
        with pytest.raises(SchedulingError, match="no legal scaling"):
            scale_and_shift(inst.program, inst.deps, space_first)

    def test_trailing_cut_orders_a_dependence_against_textual_order(self):
        # S2 runs after S0 in textual order but feeds it: once the colors
        # are placed, only a cut runs S2 first.  S0 has no row at S2's
        # levels, which therefore satisfy nothing.
        program, deps = analyze({"params": ["N"], "statements": [
            {"id": "S0", "iterators": [], "domain": []},
            {"id": "S2", "iterators": ["i", "j"], "domain": BOX2}],
            "dependences": [{"src": "S2", "dst": "S0", "kind": "RAW", "relation": []}]})
        out = dfp_schedule(program, deps)
        assert out.transform.cuts == (Cut(3, (("S2",), ("S0",))),)
        assert [s.kind for s in out.steps] == ["loop", "loop", "cut"]
        assert check_legality(program, deps, out.transform).ok
        assert full_rank(program, out.transform)

    def test_trailing_cut_without_progress_raises(self):
        # Each instance of S runs before and after the same instance of T.
        same = [[1, -1, 0, 0, "=="]]
        program, deps = analyze({"params": ["N"], "statements": [
            {"id": "S", "iterators": ["i"], "domain": LINE},
            {"id": "T", "iterators": ["i"], "domain": LINE}], "dependences": [
            {"src": "S", "dst": "T", "kind": "RAW", "relation": same},
            {"src": "T", "dst": "S", "kind": "RAW", "relation": same}]})
        with pytest.raises(SchedulingError, match="^distribution at level 2 makes no "
                           "progress; live dependences S->T explicit0, T->S explicit1$"):
            dfp_schedule(program, deps)

    def test_record_collects_level_systems(self, by_name):
        inst = by_name["fig1"]
        out = dfp_schedule(inst.program, inst.deps)
        solved = [s for s in out.steps if s.system is not None]
        assert len(solved) == 2  # one loop solve per level, nothing skewed
        for step in solved:
            assert step.system.satisfied_by(step.raw)


class TestIntroduceSkew:
    def test_no_op_keeps_the_input_rows(self, dfp_results):
        out = dfp_results["fig1"]
        assert out.skew.transform.rows == out.scaled.rows
        assert out.skew.skewed == ()
        assert [(b.start, b.end, b.permutable) for b in out.transform.bands] \
            == [(1, 2, True)]
        assert len(out.steps) == 2  # the two scale/shift steps, no skew step

    def test_stencil_space_level_gets_time_added(self, dfp_results):
        out = dfp_results["stencil1d"]
        assert out.scaled.rows["S"] == (R(1, 0, 0, 0, 0), R(0, 1, 0, 0, 0))
        (step,) = out.skew.skewed
        assert step.level == 2
        assert out.transform.rows["S"] == (R(1, 0, 0, 0, 0), R(1, 1, 0, 0, 0))
        assert step.kind == "loop" and not step.parallel
        assert out.steps[2] is step

    def test_reversal_below_a_cut_is_not_diagnosed(self, by_name, dfp_results):
        # The level-1 cut satisfies the reversed dependence, so its negative
        # level-2 component leaves the level-2 band permutable.
        inst = by_name["distribution_forced"]
        out = dfp_results["distribution_forced"]
        assert out.skew.skewed == ()
        assert out.skew.transform.rows == out.scaled.rows
        assert [(b.start, b.end, b.permutable) for b in out.transform.bands] \
            == [(2, 2, True)]
        assert dependence_list(negative(inst.deps, out.transform, 2)) == "P->Q b:0->1"
        assert unsatisfied(inst.deps, out.transform, 1) == []

    def test_reversal_without_a_cut_is_diagnosed(self, by_name):
        inst = by_name["distribution_forced"]
        fused = AffineTransform(("N",), {"P": ("i",), "Q": ("i",)},
                                {"P": (R(1, 0, 0),), "Q": (R(1, 0, 0),)})
        out = introduce_skew(inst.program, inst.deps, fused, ())
        assert out.skewed == ()
        assert dependence_list(negative(inst.deps, fused, 1)) == "P->Q b:0->1"
        assert out.transform.rows == fused.rows
        assert out.transform.bands == (Band(1, 1, False, False, ("P", "Q")),)

    def test_skew_direct_call_matches_pipeline(self, by_name, dfp_results):
        inst = by_name["stencil1d"]
        out = dfp_results["stencil1d"]
        scale_steps = out.steps[:len(out.steps) - len(out.skew.skewed)]
        redo = introduce_skew(inst.program, inst.deps, out.scaled, scale_steps)
        assert redo.transform.rows == out.transform.rows
        assert [s.level for s in redo.skewed] == [2]
        assert redo.transform.bands == out.transform.bands

    def test_one_refusal_stays_in_its_band(self, two_bands):
        inst, t = two_bands
        out = introduce_skew(inst.program, inst.deps, t, ())
        assert [s.level for s in out.skewed] == [2]
        assert out.transform.rows["P"] == (R(1, 0, 0, 0), R(1, 1, 0, 0), R(0, 0, 0, 0))
        assert out.transform.rows["Q"] == t.rows["Q"]
        assert out.transform.bands == (Band(1, 2, True, False, ("P", "Q")),
                                       Band(4, 4, False, False, ("Q",)))
        live = unsatisfied([d for d in inst.deps if d.ordering], out.transform, 3)
        assert dependence_list(negative(live, out.transform, 4)) == "Q->Q B:1->0@0"

    def test_skew_system_rejects_negative_iterator_coefficient(self):
        # Rows i, then -i + j: the level-2 combination a*(-i + j) + b*i keeps
        # its i coefficient b - a non-negative only when b >= a.
        program, deps = analyze({
            "params": ["N"],
            "statements": [{
                "id": "S", "iterators": ["i", "j"],
                "domain": [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="],
                           [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]],
                "accesses": [], "order": 0}],
        })
        t = AffineTransform(("N",), {"S": ("i", "j")},
                            {"S": (R(1, 0, 0, 0), R(-1, 1, 0, 0))})
        out, step = _skew_level(program, deps, t, 2)
        base = {"u.N": 0, "w": 0, "a.S": 1}
        assert not step.system.satisfied_by(dict(base, **{"b.S.1": 0}))
        assert step.system.satisfied_by(dict(base, **{"b.S.1": 1}))
        assert out.rows["S"][1] == R(0, 1, 0, 0)


class TestPipeline:
    def test_transposed_chain_full_run(self, dfp_results):
        out = dfp_results["fig1"]
        assert out.transform.rows["S1"] == (R(1, 0, 0, 0), R(0, 1, 0, 0))
        assert out.transform.rows["S2"] == (R(0, 1, 0, 0), R(1, 0, 0, 0))
        assert out.transform.rows["S3"] == (R(1, 0, 0, 0), R(0, 1, 0, 0))
        assert out.transform.bands == (
            Band(1, 2, True, True, ("S1", "S2", "S3")),)
        assert out.transform.cuts == ()
        assert [s.parallel for s in out.steps] == [True, True]

    def test_permutation_survives_when_already_aligned(self, dfp_results):
        out = dfp_results["transpose_chain"]
        assert out.transform.rows["S1"] == (R(1, 0, 0, 0), R(0, 1, 0, 0))
        assert out.transform.rows["S2"] == (R(0, 1, 0, 0), R(1, 0, 0, 0))
        assert out.transform.bands[0].parallel

    def test_matmul_band_spans_all_levels(self, dfp_results):
        out = dfp_results["matmul"]
        assert out.transform.rows["Upd"] == (
            R(1, 0, 0, 0, 0), R(0, 1, 0, 0, 0), R(0, 0, 1, 0, 0))
        assert out.transform.bands == (
            Band(1, 3, True, True, ("Init", "Upd")),)
        assert [s.parallel for s in out.steps] == [True, True, False]

    def test_skewed_band_remains_permutable(self, dfp_results):
        out = dfp_results["stencil1d"]
        assert out.transform.bands == (Band(1, 2, True, False, ("S",)),)

    def test_cut_narrows_the_band(self, dfp_results):
        out = dfp_results["distribution_forced"]
        assert out.transform.bands == (Band(2, 2, True, True, ("P", "Q")),)
        assert out.transform.cuts == (Cut(1, (("P",), ("Q",))),)


def test_bands_are_permutable_exactly_where_no_live_dependence_goes_negative():
    """On the corpus, chain(8), every fixture and the first 100 `random_nest`
    nests under seed 2, a `dfp` band is permutable exactly when no ordering
    dependence unsatisfied at level `start - 1` of the final transform goes
    negative on one of its levels, and every kept skew sits in a permutable
    band."""
    rng = random.Random(2)
    named = ([("chain8", workloads.chain(8))]
             + [(f"nest{k}", workloads.random_nest(rng)) for k in range(100)]
             + [(p.stem, json.loads(p.read_text())) for p in sorted(FIXTURES.glob("*.json"))])
    instances = [(i.name, i.program, i.deps) for i in load_corpus()]
    instances += [(name, *analyze(data)) for name, data in named]
    refused = skews = 0
    for name, program, deps in instances:
        try:
            out = dfp_schedule(program, deps)
        except SchedulingError:
            assert name in DFP_REFUSES
            continue
        final = out.transform
        ordering = [d for d in deps if d.ordering]
        for band in final.bands:
            live = unsatisfied(ordering, final, band.start - 1)
            clean = not any(negative(live, final, level)
                            for level in range(band.start, band.end + 1))
            assert band.permutable == clean, (name, band)
            refused += not band.permutable
        for step in out.skew.skewed:
            (band,) = [b for b in final.bands if b.start <= step.level <= b.end]
            assert band.permutable, (name, step.level)
        skews += len(out.skew.skewed)
    assert refused > 0 and skews > 0


#: The first two statements of the benchmark's `random` nest 3.  The cut
#: at level 1 satisfies S0->S1, whose components below it are unbounded or
#: negative; S0->S0 B:0->1@0 goes negative at level 3, and a skew repairs
#: it only when S0->S1 is left out of the skew's system.
SKEW_BELOW_CUT = FIXTURES / "skew_below_cut.json"


def test_skew_below_a_cut_sees_only_live_dependences():
    program, deps = analyze(json.loads(SKEW_BELOW_CUT.read_text()))
    out = dfp_schedule(program, deps)
    assert out.transform.cuts == (Cut(1, (("S0",), ("S1",))),)
    assert [s.level for s in out.skew.skewed] == [3]
    assert out.transform.bands == (Band(2, 3, True, False, ("S0", "S1")),)
    live = unsatisfied([d for d in deps if d.ordering], out.scaled, 1)
    assert dependence_list(negative(live, out.scaled, 3)) == "S0->S0 B:0->1@0"
    assert negative(live, out.transform, 3) == []
    assert check_legality(program, deps, out.transform).ok
    assert full_rank(program, out.transform)


#: A random nest on which scale/shift finds no row at level 2: the level-1
#: lexmin leaves S1->S2 unsatisfied, only S1 still loops at level 2, and
#: there S0->S1 needs phi_S1 >= 0 while S1->S2 needs phi_S1 <= 0 for all j.
SCALE_SHIFT_INFEASIBLE = FIXTURES / "scale_shift_infeasible.json"


class TestScaleShiftInfeasible:
    """`dfp` fails on this nest while `lp` and `ilp` schedule it.  Once the
    pipeline falls back to distribution when scale/shift finds a level
    infeasible, `dfp` schedules it too and this becomes a success case."""

    def test_error_names_level_statements_and_dependences(self):
        program, deps = analyze(json.loads(SCALE_SHIFT_INFEASIBLE.read_text()))
        with pytest.raises(SchedulingError) as err:
            dfp_schedule(program, deps)
        message = str(err.value)
        assert "at level 2:" in message
        assert "statements S1;" in message
        assert "S0->S1 A:0->0" in message and "S1->S2 A:0->0" in message

    def test_cli_exits_3_with_the_message(self, capsys):
        assert main(["schedule", str(SCALE_SHIFT_INFEASIBLE)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: no legal scaling and shifting "
                              "exists at level 2: statements S1;")

    @pytest.mark.parametrize("mode", [LP, ILP])
    def test_lp_and_ilp_schedule_it(self, mode):
        program, deps = analyze(json.loads(SCALE_SHIFT_INFEASIBLE.read_text()))
        transform = schedule(program, deps, SchedulerConfig(mode=mode)).transform
        assert check_legality(program, deps, transform).ok
        assert full_rank(program, transform)


#: A nest whose coloring needs two rescues at color 2.  Color 1 puts S1 on
#: j and S2 on i, which satisfies S1->S2, so the first rescue drops it;
#: the second cuts ((S0, S2), (S1,)) before color 2.  The drop holds only
#: while color 1 stays: with S1 on i, the same cut runs S1->S2 backwards.
DFP_RECOLOR_DROPS_DEPENDENCE = FIXTURES / "dfp_recolor_drops_dependence.json"


class TestRecolorDropsDependence:
    def test_dfp_is_legal(self):
        program, deps = analyze(json.loads(DFP_RECOLOR_DROPS_DEPENDENCE.read_text()))
        transform = dfp_schedule(program, deps).transform
        assert check_legality(program, deps, transform).ok
        assert full_rank(program, transform)

    def test_rescues_keep_the_placed_color(self):
        program, deps = analyze(json.loads(DFP_RECOLOR_DROPS_DEPENDENCE.read_text()))
        coloring = color_fcg(program, deps)
        assert coloring.colors["S1"] == (1, 0)
        # Color 1 satisfies S0->S0 and S1->S2, which the drop removed; the
        # cut before color 2 then removed S0->S1, the last one.
        first = _partial(program, {sid: ks[:1] for sid, ks in coloring.colors.items()})
        assert [(d.src, d.dst) for d in unsatisfied(deps, first)] == [("S0", "S1")]
        assert coloring.cut_groups == {2: (("S0", "S2"), ("S1",))}
        fcg = build_fcg(program, [])
        assert (coloring.fcg.conflicts, coloring.fcg.loops) == (fcg.conflicts, fcg.loops)

    @pytest.mark.parametrize("mode", [LP, ILP])
    def test_lp_and_ilp_schedule_it(self, mode):
        program, deps = analyze(json.loads(DFP_RECOLOR_DROPS_DEPENDENCE.read_text()))
        transform = schedule(program, deps, SchedulerConfig(mode=mode)).transform
        assert check_legality(program, deps, transform).ok
        assert full_rank(program, transform)


#: One statement over i >= 0 alone, writing A[2i] and reading A[i]: its one
#: dependence, s < t with t = 2s, is unbounded, so no parametric bound
#: holds for a row with a nonzero coefficient of i.
UNBOUNDED_SELF_DEPENDENCE = FIXTURES / "unbounded_self_dependence.json"


class TestUnboundedSelfDependence:
    """A fusion probe gives a dependence its legality rows alone only when
    the relation is bounded in its iterators; this one keeps its bounding
    rows, so its probe stays infeasible and `dfp` fails in coloring, not
    later in scale/shift."""

    def test_probe_keeps_the_bounding_rows(self):
        program, deps = analyze(json.loads(UNBOUNDED_SELF_DEPENDENCE.read_text()))
        assert [d.label for d in deps] == ["A:0->1@0"] and not deps[0].bounded
        assert not fusion_probe(program, {"S": 0}, deps)

    def test_dfp_fails_in_coloring(self):
        program, deps = analyze(json.loads(UNBOUNDED_SELF_DEPENDENCE.read_text()))
        with pytest.raises(SchedulingError, match="no dimension of S can take color 1"):
            dfp_schedule(program, deps)

    def test_cli_exits_3_with_the_message(self, capsys):
        assert main(["schedule", "--algo", "dfp", str(UNBOUNDED_SELF_DEPENDENCE)]) == 3
        assert capsys.readouterr().err == (
            "internal error: no dimension of S can take color 1; the conflict "
            "graph admits no convex coloring; live dependences S->S A:0->1@0\n")
