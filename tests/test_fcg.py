import json
import random
from itertools import combinations, combinations_with_replacement, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysched import farkas, fcg, pluto, postpass, ratlp, verify
from polysched.fcg import (
    FusionConflictGraph, build_fcg, color_fcg, colorable_dimension,
    fusion_probe, to_dot,
)
from polysched.frontend import analyze
from polysched.model import (
    Cut, SchedulingError, component_range, min_dependence_component,
    satisfaction_level,
)
from polysched.pluto import dimension_terms
from polysched.postpass import dfp_schedule, scale_and_shift
from polysched.verify import check_legality, full_rank

from inputs import DFP_REFUSES, FIXTURES, ROOT, bench_chain, workloads


def _lexmin(system):
    """The rational lexmin a fusion probe takes of its system."""
    return ratlp.solve_lexmin(ratlp.LPProblem.of(system))


def _graph(g: FusionConflictGraph) -> tuple:
    """Every vertex and edge of a conflict graph, for comparing two."""
    return g.vertices, g.conflicts, g.cliques, g.loops


#: Q(i) reads a[i + N], which P wrote N iterations earlier.
PARAMETRIC_OFFSET = {
    "params": ["N"],
    "statements": [
        {"id": "P", "iterators": ["i"],
         "domain": [[1, 0, 0, ">="], [-1, 2, 0, ">="]],
         "accesses": [{"array": "a", "kind": "write", "map": [[1, 0, 0]]}],
         "order": 0},
        {"id": "Q", "iterators": ["i"],
         "domain": [[1, 0, 0, ">="], [-1, 1, 0, ">="]],
         "accesses": [{"array": "a", "kind": "read", "map": [[1, 1, 0]]}],
         "order": 1},
    ],
}


class TestFusionProbe:
    def test_transposed_pair_fuses_only_crosswise(self, by_name):
        inst = by_name["fig1"]
        between = [d for d in inst.deps if {d.src, d.dst} == {"S1", "S2"}]
        assert not fusion_probe(inst.program, {"S1": 0, "S2": 0}, between)
        assert fusion_probe(inst.program, {"S1": 0, "S2": 1}, between)

    def test_reversal_never_fuses(self, by_name):
        inst = by_name["distribution_forced"]
        assert not fusion_probe(inst.program, {"P": 0, "Q": 0}, inst.deps)

    def test_constant_offset_is_absorbed_by_free_shifts(self, by_name):
        inst = by_name["shift_pair"]
        assert fusion_probe(inst.program, {"P": 0, "Q": 0}, inst.deps)

    def test_parametric_offset_needs_parametric_shifts(self):
        program, deps = analyze(PARAMETRIC_OFFSET)
        choose = {"P": 0, "Q": 0}
        assert not fusion_probe(program, choose, deps)
        assert fusion_probe(program, choose, deps, parametric_shifts=True)


    def test_verdicts_of_one_shape_are_solved_once(self, monkeypatch):
        # Statements 0-1, 1-2 and 2-3 of a chain pose the same probes up to
        # names: each is decided for the first pair only, and every memoized
        # verdict equals a fresh solve.
        stmt = {"iterators": ["i", "j"],
                "domain": [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="],
                           [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]]}
        program, deps = analyze({"params": ["N"], "statements": [
            {**stmt, "id": f"S{k}", "order": k, "accesses": [
                {"array": f"A{k}", "kind": "write", "map": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                {"array": f"A{max(k - 1, 0)}", "kind": "read",
                 "map": [[0, 1, 0, 0], [1, 0, 0, 0]]}][:k + 1]}
            for k in range(4)]})
        decided = []
        decide = fcg._decided
        monkeypatch.setattr(fcg, "_decided",
                            lambda *a: decided.append(a) or decide(*a))
        calls = []
        for a, b in zip(program.statements, program.statements[1:]):
            between = [d for d in deps if {d.src, d.dst} == {a.id, b.id}]
            for da in range(2):
                for db in range(2):
                    choose = {a.id: da, b.id: db}
                    calls.append((choose, fusion_probe(program, choose, between)))
                    fresh = _lexmin(fcg.level_system(program, between,
                                                     dimension_terms(program, choose)))
                    assert calls[-1][1] == bool(fresh)
        assert len(calls) == 12 and len(decided) == 4
        assert {v for _, v in calls} == {True, False}

    def test_iterator_names_do_not_split_a_probe_shape(self, monkeypatch):
        # Statements 0-1 and 1-2 of a chain of three differ only in iterator
        # names when the middle one calls its iterators a and b: the second
        # pair reuses the first pair's verdicts, and the graph is the same.
        decided = []
        decide = fcg._decided
        monkeypatch.setattr(fcg, "_decided",
                            lambda *a: decided.append(a) or decide(*a))
        graphs = []
        for middle in (["i", "j"], ["a", "b"]):
            data = workloads.chain(3)
            data["statements"][1]["iterators"] = middle
            decided.clear()
            graphs.append(_graph(build_fcg(*analyze(data))))
            assert len(decided) == 4
        assert graphs[0] == graphs[1]

    def test_memo_tells_dependence_directions_apart(self):
        # P->Q and R->Q have one shape, t.j == s.i: fusing the source's i
        # with the target's j is legal, the source's j with the target's i
        # is not.  Probing Q first must not reuse P's verdict.
        stmt = {"iterators": ["i", "j"], "accesses": [],
                "domain": [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="],
                           [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]]}
        relation = [[-1, 0, 0, 1, 0, 0, "=="]]
        program, deps = analyze({
            "params": ["N"],
            "statements": [{**stmt, "id": sid, "order": k}
                           for k, sid in enumerate("PQR")],
            "dependences": [{"src": a, "dst": "Q", "kind": "RAW",
                             "relation": relation} for a in "PR"]})
        assert fusion_probe(program, {"P": 0, "Q": 1}, deps[:1])
        assert not fusion_probe(program, {"Q": 0, "R": 1}, deps[1:])
        assert not fusion_probe(program, {"P": 1, "Q": 0}, deps[:1])


class TestDecidedByMinima:
    """One probe per rule of `fcg._decided`, and per kind of probe it
    leaves to the LP."""

    @staticmethod
    def probe(monkeypatch, program, deps, choose, parametric=False):
        """A fresh `fusion_probe` of the statements of `choose` over the
        dependences of `deps` among them, and whether it built a level
        system.  The verdict must equal the LP's on the level system."""
        deps = [d for d in deps if d.src in choose and d.dst in choose]
        built = []
        build = fcg.level_system
        monkeypatch.setattr(fcg, "level_system",
                            lambda *a, **k: built.append(a) or build(*a, **k))
        program._probe_verdicts.clear()
        verdict = fusion_probe(program, choose, deps, parametric)
        terms = dimension_terms(program, choose, parametric)
        assert verdict == bool(_lexmin(build(program, deps, terms)))
        return verdict, bool(built)

    def test_a_negative_self_distance_refutes(self, by_name, monkeypatch):
        # S(t, i) reads what S(t - 1, i + 1) wrote: the i distance is -1.
        # Parametric shifts cancel in a self-dependence like constant ones.
        inst = by_name["stencil1d"]
        assert self.probe(monkeypatch, inst.program, inst.deps, {"S": 1}) == (False, False)
        assert self.probe(monkeypatch, inst.program, inst.deps, {"S": 1}, True) == (False, False)

    def test_aligned_shifts_are_a_witness(self, by_name, monkeypatch):
        # Q(i) reads a[i - 2], which P(i - 2) wrote: at scale 1 the
        # distance is 2, so equal shifts fuse, with every parametric shift
        # at 0 when there are some.
        inst = by_name["shift_pair"]
        for parametric in (False, True):
            assert self.probe(monkeypatch, inst.program, inst.deps, {"P": 0, "Q": 0},
                              parametric) == (True, False)

    def test_no_ratio_of_scales_refutes(self, by_name, monkeypatch):
        # S2(i, j) reads S1(j, i): the i distance is unbounded at every
        # pair of scales, and no cone row without the constant admits one.
        inst = by_name["fig1"]
        (dep,) = [d for d in inst.deps if (d.src, d.dst) == ("S1", "S2")]
        assert min_dependence_component(dep, (1, 0, 0, 0), (1, 0, 0, 0)) is None
        assert farkas.cone_ratios(dep.cone, [-1, 0, 0, 0, 0], [0, 0, 1, 0, 0]) is None
        assert self.probe(monkeypatch, inst.program, inst.deps, {"S1": 0, "S2": 0}) == (False, False)

    @staticmethod
    def pair(forward, backward):
        """P and Q over 0 <= i <= N - 1, with the explicit RAW P->Q over
        the relation `forward` and Q->P over `backward`."""
        line = [[1, 0, 0, ">="], [-1, 1, -1, ">="]]
        return analyze({"params": ["N"], "statements": [
            {"id": sid, "iterators": ["i"], "domain": line, "accesses": []} for sid in "PQ"],
            "dependences": [{"src": "P", "dst": "Q", "kind": "RAW", "relation": forward},
                            {"src": "Q", "dst": "P", "kind": "RAW", "relation": backward}]})

    def test_disjoint_ratios_refute(self, monkeypatch):
        # Q(t) reads P(2t), so Q's scale is at least twice P's, and P(i)
        # reads Q(i), so it is at most P's: each dependence admits some
        # ratio, the two none.
        program, deps = self.pair([[1, -2, 0, 0, "=="]], [[1, -1, 0, 0, "=="]])
        assert self.probe(monkeypatch, program, deps, {"P": 0, "Q": 0}) == (False, False)

    def test_a_negative_cycle_of_minima_reaches_the_lp(self, monkeypatch):
        # Q(t) reads P(t + 1) and P(i) reads Q(i): at scale 1 the shifts
        # must differ by at least 1 and by at most 0.
        program, deps = self.pair([[1, -1, 0, -1, "=="]], [[1, -1, 0, 0, "=="]])
        assert [min_dependence_component(d, (1, 0, 0), (1, 0, 0)) for d in deps] == [-1, 0]
        assert self.probe(monkeypatch, program, deps, {"P": 0, "Q": 0}) == (False, True)

    def test_a_scale_other_than_one_reaches_the_lp(self, by_name, monkeypatch):
        # Q(j) reads a[3j], which P(i) wrote for 2i = 3j: Q's scale must be
        # at least 3/2 of P's.
        inst = by_name["scaling_pair"]
        assert self.probe(monkeypatch, inst.program, inst.deps, {"P": 0, "Q": 0}) == (True, True)

    def test_an_unbounded_dependence_reaches_the_lp(self, monkeypatch):
        # S(i) writes A[2i] and reads A[i] for every i >= 0: the relation
        # has no upper bound, so the probe keeps its bounding rows.
        program, deps = analyze(json.loads(UNBOUNDED_SELF_DEPENDENCE.read_text()))
        assert not any(d.bounded for d in deps)
        assert self.probe(monkeypatch, program, deps, {"S": 0}) == (False, True)

    def test_parametric_shifts_reach_the_lp(self, monkeypatch):
        # Only a parametric shift aligns P and Q, and the minima never
        # bound one, so only the ratio rule could decide this probe.  It
        # reads the shifts as constants: with parametric shifts the LP
        # decides, and fuses.
        program, deps = analyze(PARAMETRIC_OFFSET)
        assert self.probe(monkeypatch, program, deps, {"P": 0, "Q": 0}) == (False, False)
        assert self.probe(monkeypatch, program, deps, {"P": 0, "Q": 0}, True) == (True, True)


class TestBuildFcg:
    def test_transposed_chain(self, by_name):
        inst = by_name["fig1"]
        fcg = build_fcg(inst.program, inst.deps)
        assert fcg.vertices == (("S1", 0), ("S1", 1), ("S2", 0), ("S2", 1),
                                ("S3", 0), ("S3", 1))
        # S1->S3 is a same-cell RAW on A, so S1's i cannot share a level
        # with S3's j, nor S1's j with S3's i.
        assert fcg.conflicts == (
            (("S1", 0), ("S2", 0)), (("S1", 0), ("S3", 1)),
            (("S1", 1), ("S2", 1)), (("S1", 1), ("S3", 0)),
            (("S2", 0), ("S3", 0)), (("S2", 1), ("S3", 1)))
        assert fcg.cliques == ((("S1", 0), ("S1", 1)),
                               (("S2", 0), ("S2", 1)),
                               (("S3", 0), ("S3", 1)))
        assert fcg.loops == ()

    def test_stencil_space_dimension_loops(self, by_name):
        inst = by_name["stencil1d"]
        fcg = build_fcg(inst.program, inst.deps)
        assert fcg.conflicts == ()
        assert fcg.cliques == ((("S", 0), ("S", 1)),)
        assert fcg.loops == (("S", 1),)
        assert ("S", 1) in fcg.neighbours(("S", 1))
        assert ("S", 0) not in fcg.neighbours(("S", 0))

    def test_matmul(self, by_name):
        inst = by_name["matmul"]
        fcg = build_fcg(inst.program, inst.deps)
        assert fcg.conflicts == (
            (("Init", 0), ("Upd", 1)), (("Init", 0), ("Upd", 2)),
            (("Init", 1), ("Upd", 0)), (("Init", 1), ("Upd", 2)))
        assert len(fcg.cliques) == 4

    def test_reversal_conflict(self, by_name):
        inst = by_name["distribution_forced"]
        fcg = build_fcg(inst.program, inst.deps)
        assert fcg.conflicts == ((("P", 0), ("Q", 0)),)
        assert fcg.cliques == () and fcg.loops == ()

    def test_statement_subset(self, by_name):
        inst = by_name["fig1"]
        fcg = build_fcg(inst.program, [d for d in inst.deps
                                       if {d.src, d.dst} <= {"S1", "S2"}])
        assert fcg.conflicts == ((("S1", 0), ("S2", 0)),
                                 (("S1", 1), ("S2", 1)))

    def test_conflicting_is_symmetric(self, by_name):
        inst = by_name["fig1"]
        fcg = build_fcg(inst.program, inst.deps)
        assert ("S2", 0) in fcg.neighbours(("S1", 0))
        assert ("S1", 0) in fcg.neighbours(("S2", 0))
        # A same-statement clique edge is drawn but joins no neighbours.
        assert (("S1", 0), ("S1", 1)) in fcg.cliques
        assert ("S1", 1) not in fcg.neighbours(("S1", 0))
        # The same-cell RAW S1->S3 on A.
        assert ("S3", 1) in fcg.neighbours(("S1", 0))
        assert ("S1", 0) not in fcg.neighbours(("S1", 0))  # no self loop


def _coloring(program, deps):
    """The `Coloring` of `dfp`'s walk."""
    return dfp_schedule(program, deps).coloring


class TestOneColor:
    def test_picks_every_component_in_turn(self, by_name):
        inst = by_name["fig1"]
        graph = build_fcg(inst.program, inst.deps)
        sccs = (("S1",), ("S2",), ("S3",))
        assert color_fcg(inst.program, graph, sccs, ()) == {"S1": 0, "S2": 1, "S3": 0}
        assert color_fcg(inst.program, graph, sccs, {("S1", 0), ("S2", 1), ("S3", 0)}) \
            == {"S1": 1, "S2": 0, "S3": 1}

    def test_names_the_first_stuck_component(self, by_name):
        inst = by_name["distribution_forced"]
        graph = build_fcg(inst.program, inst.deps)
        # P takes its one dimension, which conflicts with Q's.
        assert color_fcg(inst.program, graph, (("P",), ("Q",)), ()) == 1
        assert color_fcg(inst.program, graph, (("P", "Q"),), ()) == 0


class TestColoring:
    def test_transposed_chain_coloring(self, by_name):
        inst = by_name["fig1"]
        col = _coloring(inst.program, inst.deps)
        assert col.colors == {"S1": (0, 1), "S2": (1, 0), "S3": (0, 1)}
        assert col.groups == (("S1", "S2", "S3"),)
        # Nothing was cut or retired: the graph is that of every dependence.
        assert col.cut_groups == {}
        assert _graph(col.fcg) == _graph(build_fcg(inst.program, inst.deps))

    def test_stencil_drops_satisfied_dependences(self, by_name):
        inst = by_name["stencil1d"]
        col = _coloring(inst.program, inst.deps)
        assert col.colors == {"S": (0, 1)}
        # Level 1 satisfies all three self-dependences and S has no second
        # dimension free of a self loop, so the walk retired them and the
        # graph of color 2, without them, has no loop.
        assert len(inst.deps) == 3 and col.cut_groups == {}
        assert build_fcg(inst.program, inst.deps).loops == (("S", 1),)
        assert _graph(col.fcg) == _graph(build_fcg(inst.program, []))
        assert col.fcg.loops == ()

    def test_reversal_forces_a_cut(self, by_name):
        inst = by_name["distribution_forced"]
        col = _coloring(inst.program, inst.deps)
        assert col.colors == {"P": (0,), "Q": (0,)}
        assert col.groups == (("P",), ("Q",))
        assert col.cut_groups == {1: (("P",), ("Q",))}
        # The cut removed the one dependence, P->Q, from the graph.
        assert [(d.src, d.dst) for d in inst.deps] == [("P", "Q")]
        assert _graph(col.fcg) == _graph(build_fcg(inst.program, []))

    def test_a_pair_linked_beside_a_longer_path_keeps_its_conflicts(self):
        # random_nest draw 83 of random.Random(2).  S0 reaches S2 through S1
        # and directly, by a WAW on A from S0(i, j) to S2(j + 2, j + 1),
        # whose distance from S0's i to either dimension of S2 is unbounded
        # below: no constant shift fuses them, so dfp cuts S2 off at level 1
        # instead of fusing it at level 1 by the parametric shift i + N.
        program, deps = analyze(json.loads((FIXTURES / "hidden_conflict.json").read_text()))
        assert build_fcg(program, deps).conflicts == (
            (("S0", 0), ("S2", 0)), (("S0", 0), ("S2", 1)))
        transform = dfp_schedule(program, deps).transform
        assert transform.cuts == (Cut(1, (("S0", "S1"), ("S2",))),)
        assert check_legality(program, deps, transform).ok and full_rank(program, transform)

    def test_no_distribution_without_a_dependence_to_cut(self):
        # S1 cannot take S0's second color while S0's diagonal dependence is
        # live, but no dependence crosses from S0 to S1: distributing them
        # would cut nothing.  Retiring the dependence satisfied above color 2
        # lets both fuse into one permutable band.
        square = [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="],
                  [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]]
        ident = [[1, 0, 0, 0], [0, 1, 0, 0]]
        program, deps = analyze({"params": ["N"], "statements": [
            {"id": "S0", "iterators": ["i", "j"], "domain": square, "order": 0,
             "accesses": [{"array": "A", "kind": "write", "map": ident},
                          {"array": "A", "kind": "read",
                           "map": [[1, 0, 0, -1], [0, 1, 0, 1]]}]},
            {"id": "S1", "iterators": ["i", "j"], "domain": square, "order": 1,
             "accesses": [{"array": "B", "kind": "write", "map": ident}]}]})
        col = _coloring(program, deps)
        assert col.cut_groups == {} and col.groups == (("S0", "S1"),)
        # The walk retired S0's diagonal dependence, the only one.
        assert [(d.src, d.dst, d.label) for d in deps] == [("S0", "S0", "A:0->1@0")]
        assert build_fcg(program, deps).loops == (("S0", 1),)
        assert _graph(col.fcg) == _graph(build_fcg(program, []))
        out = dfp_schedule(program, deps)
        assert out.transform.cuts == () and out.transform.levels == 2
        assert [(b.start, b.end, b.permutable) for b in out.transform.bands] \
            == [(1, 2, True)]
        assert check_legality(program, deps, out.transform).ok
        assert full_rank(program, out.transform)

    def test_backward_self_dependence_admits_no_coloring(self):
        # S's only dimension has a self loop and nothing is satisfied above
        # color 1 or can be cut away: the walk's level 1 has no row, and
        # distribution satisfies nothing.
        program, deps = analyze({"params": ["N"], "statements": [
            {"id": "S", "iterators": ["i"],
             "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]], "accesses": []}],
            "dependences": [{"src": "S", "dst": "S", "kind": "RAW",
                             "relation": [[1, -1, 0, -1, "=="]]}]})
        with pytest.raises(SchedulingError, match=(
                "^no transformation row exists at level 1 for statements S, and "
                "distribution makes no progress; live dependences S->S explicit0$")):
            dfp_schedule(program, deps)

    def test_a_blocked_statement_of_a_large_component_forces_a_cut(self):
        # A ring S0 -> ... -> S12 -> S0 of corner-to-corner dependences
        # leaves both dimensions of S0..S11 free of conflicts, while T's
        # reversed dependence conflicts every dimension of T with every one
        # of S12.  Once T takes a dimension at color 1, S12 has none: the
        # search gives up at once instead of trying the 2^12 picks of the
        # statements before it, and the coloring cuts before the ring.
        square = [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="],
                  [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]]
        ring = [f"S{k}" for k in range(13)]
        corner = [[1, 0, 0, 0, 0, 0, "=="], [0, 1, 0, 0, 0, 0, "=="],
                  [0, 0, 1, 0, -1, 1, "=="], [0, 0, 0, 1, -1, 1, "=="]]
        # The edge back to S0 needs N >= 2, so no instance depends on itself.
        explicit = [{"src": a, "dst": b, "kind": "RAW", "relation":
                     corner + [[0, 0, 0, 0, 1, -2, ">="]] * (b == "S0")}
                    for a, b in zip(ring, ring[1:] + ring[:1])]
        explicit.append({"src": "T", "dst": "S12", "kind": "RAW", "relation": [
            [1, 0, 1, 0, -1, 1, "=="], [0, 1, 0, 1, -1, 1, "=="]]})
        program, deps = analyze({"params": ["N"], "statements": [
            {"id": sid, "iterators": ["i", "j"], "domain": square} for sid in ["T", *ring]],
            "dependences": explicit})
        graph = build_fcg(program, deps)
        assert graph.loops == ()
        assert graph.conflicts == tuple(((("T", a), ("S12", b))) for a in (0, 1) for b in (0, 1))
        col = _coloring(program, deps)
        assert col.cut_groups == {1: (("T",), tuple(ring))}
        assert col.colors == dict.fromkeys(["T", *ring], (0, 1))
        out = dfp_schedule(program, deps)
        assert check_legality(program, deps, out.transform).ok
        assert full_rank(program, out.transform)

    def test_a_search_past_its_budget_is_rescued_like_a_stuck_one(self, monkeypatch):
        # scc_backtrack's component needs one undone pick at color 1.  With
        # no undoing allowed, the coloring treats it as a component with no
        # pick: level 1 has no row, nothing is satisfied above it, and the
        # one strongly connected component cannot be cut.
        program, deps = analyze(json.loads((FIXTURES / "scc_backtrack.json").read_text()))
        monkeypatch.setattr(fcg, "MAX_SCC_PICKS", 0)
        with pytest.raises(SchedulingError, match=(
                "^no transformation row exists at level 1 for statements S0, S1, "
                "and distribution makes no progress; live dependences S0->S0 "
                "explicit0, S0->S1 explicit1, S1->S0 explicit2$")):
            dfp_schedule(program, deps)

    def test_matmul_coloring(self, by_name):
        inst = by_name["matmul"]
        col = _coloring(inst.program, inst.deps)
        assert col.colors == {"Init": (0, 1), "Upd": (0, 1, 2)}


def _three_squares():
    """Statements A, B and C over an N x N square, with no access."""
    square = [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="],
              [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]]
    program, _ = analyze({"params": ["N"], "statements": [
        {"id": sid, "iterators": ["i", "j"], "domain": square} for sid in "ABC"]})
    return program


def _blocking_graph(program):
    """A's first dimension conflicts with both of C's, so the pick that
    starts with it undoes B's two dimensions, then A's, before A's second
    dimension completes it: three undone picks."""
    vertices = tuple((s.id, k) for s in program.statements for k in range(s.dim))
    return FusionConflictGraph(vertices, ((("A", 0), ("C", 0)), (("A", 0), ("C", 1))), ())


class TestColorableDimension:
    def test_picks_first_compatible_tuple(self, by_name):
        inst = by_name["fig1"]
        fcg = build_fcg(inst.program, inst.deps)
        assert colorable_dimension(inst.program, fcg, ("S1", "S2", "S3"), (), ()) \
            == {"S1": 0, "S2": 1, "S3": 0}

    def test_used_and_chosen_narrow_the_pick(self, by_name):
        inst = by_name["fig1"]
        fcg = build_fcg(inst.program, inst.deps)
        # Each dimension of S2 conflicts with the same dimension of S1 and
        # of S3.  S1's used first dimension leaves its second, so S2 takes
        # its first and S3 its second; a chosen first dimension of S2 rules
        # out the first dimensions of S1 and S3.
        assert colorable_dimension(inst.program, fcg, ("S1", "S2", "S3"),
                                   {("S1", 0)}, ()) == {"S1": 1, "S2": 0, "S3": 1}
        assert colorable_dimension(inst.program, fcg, ("S1", "S3"),
                                   (), {("S2", 0)}) == {"S1": 1, "S3": 1}
        # A statement every dimension of which is used takes no pick.
        assert colorable_dimension(inst.program, fcg, ("S1", "S2"),
                                   {("S1", 0), ("S1", 1)}, ()) == {"S2": 0}

    def test_none_when_everything_conflicts(self, by_name):
        inst = by_name["distribution_forced"]
        fcg = build_fcg(inst.program, inst.deps)
        assert colorable_dimension(inst.program, fcg, ("P", "Q"), (), ()) is None

    def test_subset_only_considers_named_statements(self, by_name):
        inst = by_name["distribution_forced"]
        fcg = build_fcg(inst.program, inst.deps)
        assert colorable_dimension(inst.program, fcg, ("P",), (), ()) == {"P": 0}

    def test_scalar_statements_take_no_pick(self):
        program, deps = analyze({"params": ["N"], "statements": [
            {"id": "S0", "iterators": [], "domain": [],
             "accesses": [{"array": "B", "kind": "write", "map": [[0, 0]]}]},
            {"id": "S1", "iterators": ["i"],
             "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
             "accesses": [{"array": "B", "kind": "read", "map": [[0, 0, 0]]}]}]})
        graph = build_fcg(program, deps)
        assert colorable_dimension(program, graph, ("S0",), (), ()) == {}
        assert colorable_dimension(program, graph, ("S0", "S1"), (), ()) == {"S1": 0}

    def test_undoes_a_pick_that_blocks_a_later_statement(self):
        program = _three_squares()
        graph = _blocking_graph(program)
        assert first_fit(program, graph, "ABC", (), ()) is None
        assert colorable_dimension(program, graph, "ABC", (), ()) \
            == {"A": 1, "B": 0, "C": 0}

    def test_a_statement_with_no_compatible_dimension_ends_the_search(self, monkeypatch):
        # The chosen (A, 0) rules out both of C's dimensions, so no pick of
        # B can help: the search returns None without undoing one.
        program = _three_squares()
        graph = _blocking_graph(program)
        monkeypatch.setattr(fcg, "MAX_SCC_PICKS", 0)
        assert colorable_dimension(program, graph, "BC", (), {("A", 0)}) is None

    def test_search_limit_names_statements(self, monkeypatch):
        program = _three_squares()
        graph = _blocking_graph(program)
        monkeypatch.setattr(fcg, "MAX_SCC_PICKS", 3)
        assert colorable_dimension(program, graph, "ABC", (), ()) == {"A": 1, "B": 0, "C": 0}
        monkeypatch.setattr(fcg, "MAX_SCC_PICKS", 2)
        with pytest.raises(SchedulingError, match=(
                "^dimension search undid more than 2 picks for statements A, B, C$")):
            colorable_dimension(program, graph, "ABC", (), ())


def reference_pick(program, graph, statements, used, chosen):
    """`colorable_dimension` by enumeration: every tuple of one free
    dimension per statement of `statements` that has one, in lexicographic
    order, until one has no self loop and no conflict with `chosen` or
    within itself."""
    free = [[(sid, k) for k in range(program.statement(sid).dim) if (sid, k) not in used]
            for sid in statements]
    for verts in product(*[f for f in free if f]):
        # A pair of one vertex twice asks for its self loop.
        if any(v in graph.neighbours(u) for u, v in combinations_with_replacement(verts, 2)):
            continue
        if all(graph.neighbours(v).isdisjoint(chosen) for v in verts):
            return dict(verts)
    return None


def first_fit(program, graph, statements, used, chosen):
    """Each statement of `statements` in turn takes its lowest free
    dimension compatible with `chosen` and the earlier picks, with no
    undoing: None when one has none."""
    picked = []
    for sid in statements:
        free = [(sid, k) for k in range(program.statement(sid).dim) if (sid, k) not in used]
        if not free:
            continue
        fits = [v for v in free if v not in graph.neighbours(v)
                and graph.neighbours(v).isdisjoint([*chosen, *picked])]
        if not fits:
            return None
        picked.append(fits[0])
    return dict(picked)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_colorable_dimension_equals_the_enumeration(data):
    """On small conflict graphs, with `used` and `chosen` sets, the search
    gives the enumeration's pick, and first-fit's wherever first-fit finds
    one."""
    depths = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    program, _ = analyze({"params": ["N"], "statements": [
        {"id": f"S{k}", "iterators": ["i", "j", "k"][:d], "domain": [
            [sign * int(e == a) for e in range(d)] + ([0, 0] if sign > 0 else [1, -1]) + [">="]
            for a in range(d) for sign in (1, -1)]}
        for k, d in enumerate(depths)]})
    vertices = tuple((s.id, k) for s in program.statements for k in range(s.dim))
    pairs = [(u, v) for u, v in combinations(vertices, 2) if u[0] != v[0]]
    conflicts = tuple(data.draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else ()
    loops = tuple(data.draw(st.lists(st.sampled_from(vertices), unique=True))) \
        if vertices else ()
    graph = FusionConflictGraph(vertices, conflicts, loops)
    ids = [s.id for s in program.statements]
    statements = data.draw(st.permutations(ids))[:data.draw(st.integers(1, len(ids)))]
    others = [v for v in vertices if v[0] not in statements]
    chosen = set(data.draw(st.lists(st.sampled_from(others), unique=True))) if others else set()
    used = set(data.draw(st.lists(st.sampled_from(vertices), unique=True))) \
        if vertices else set()
    pick = colorable_dimension(program, graph, statements, used, chosen)
    assert pick == reference_pick(program, graph, statements, used, chosen)
    greedy = first_fit(program, graph, statements, used, chosen)
    if greedy is not None:
        assert pick == greedy


class TestDot:
    def test_render_shape(self, by_name):
        inst = by_name["fig1"]
        fcg = build_fcg(inst.program, inst.deps)
        dot = to_dot(inst.program, fcg)
        assert dot.startswith("graph fcg {")
        assert dot.endswith("}\n")
        assert dot.count("subgraph cluster_") == 3
        assert dot.count("[style=dashed]") == 3
        solid = [ln for ln in dot.splitlines()
                 if "--" in ln and "dashed" not in ln]
        assert len(solid) == 6
        assert '"S1.i" -- "S2.i";' in dot
        assert '"S1.i" -- "S3.j";' in dot

    def test_coloring_fills_by_level(self, by_name):
        inst = by_name["fig1"]
        col = _coloring(inst.program, inst.deps)
        dot = to_dot(inst.program, col.fcg, col)
        # S2 interchanges: its j dimension is outermost, so it shares S1.i's
        # fill color.
        assert '"S1.i" [fillcolor=lightcoral];' in dot
        assert '"S2.j" [fillcolor=lightcoral];' in dot
        assert '"S2.i" [fillcolor=lightgreen];' in dot


def reference_conflicts(program, deps):
    """The conflict edges of a walk over every pair of statements
    (`combinations`) that probes each pair some dependence links, against
    the pair's dependences and each one's self-dependences."""
    conflicts = set()
    for a, b in combinations(program.statements, 2):
        involved = [d for d in deps if {d.src, d.dst} <= {a.id, b.id}]
        if any(d.src != d.dst for d in involved):
            conflicts.update(((a.id, da), (b.id, db))
                             for da, db in product(range(a.dim), range(b.dim))
                             if not fusion_probe(program, {a.id: da, b.id: db}, involved))
    return conflicts


def test_conflicts_equal_the_walk_over_every_linked_pair(monkeypatch):
    """Every `build_fcg` call that `dfp`'s walk makes, on the corpus,
    chain(8), the `random` workload, every fixture and fan-in(30), gives
    the conflicts of the `combinations` walk, in vertex order.  fan-in(30)
    links 57 pairs, each of which is probed."""
    named = (workloads.programs("corpus", ROOT / "src") + [("chain8", workloads.chain(8))]
             + workloads.programs("random", ROOT / "src")
             + [(p.stem, json.loads(p.read_text())) for p in sorted(FIXTURES.glob("*.json"))]
             + [("fan-in30", bench_chain.fan_in(30))])
    build = fcg.build_fcg
    linked = []

    def checked(program, deps):
        graph = build(program, deps)
        index = {v: k for k, v in enumerate(graph.vertices)}
        assert graph.conflicts == tuple(sorted(
            reference_conflicts(program, deps), key=lambda e: (index[e[0]], index[e[1]])))
        linked.append(len({frozenset((d.src, d.dst)) for d in deps if d.src != d.dst}))
        return graph

    monkeypatch.setattr(postpass, "build_fcg", checked)
    for name, data in named:
        program, deps = analyze(data)
        try:
            scale_and_shift(program, deps)
        except SchedulingError:
            assert name in DFP_REFUSES
    assert len(linked) > len(named) and max(linked) == 57


UNBOUNDED_SELF_DEPENDENCE = FIXTURES / "unbounded_self_dependence.json"


def _random_nests(count, seed=1):
    """The first `count` nests of the `random_nest` family under `seed`."""
    rng = random.Random(seed)
    return [(f"nest{k}", workloads.random_nest(rng)) for k in range(count)]


def test_probe_verdicts_equal_the_full_system(monkeypatch):
    """Every probe that `build_fcg`, the joint-shifts check and the
    fusion-transitivity check make, on the corpus, 100 `random_nest` nests
    and the unbounded self-dependence, gives the verdict of the level
    system with every bounding row, although a bounded dependence adds only
    its legality rows."""
    instances = [SimpleNamespace(name=i.name, program=i.program, deps=i.deps)
                 for i in verify.load_corpus()]
    unbounded = json.loads(UNBOUNDED_SELF_DEPENDENCE.read_text())
    for name, data in _random_nests(100) + [("unbounded", unbounded)]:
        program, deps = analyze(data)
        instances.append(SimpleNamespace(name=name, program=program, deps=deps))
    probes = []
    probe = fcg.fusion_probe

    def recorded(program, choose, deps, parametric_shifts=False):
        verdict = probe(program, choose, deps, parametric_shifts)
        probes.append((program, dict(choose), tuple(deps), parametric_shifts, verdict))
        return verdict

    monkeypatch.setattr(fcg, "fusion_probe", recorded)
    monkeypatch.setattr(verify, "fusion_probe", recorded)
    runs = [SimpleNamespace(instance=inst) for inst in instances]
    for inst in instances:
        try:
            scale_and_shift(inst.program, inst.deps)
        except SchedulingError:
            pass
    verify._check_joint_shifts(runs, 3)
    verify._check_fusion_transitivity(runs, 3)
    assert len(probes) > 1000
    checked, legality_only = set(), 0
    for program, choose, deps, parametric, verdict in probes:
        key = (id(program), tuple(choose.items()),
               tuple(map(id, deps)), parametric)
        if key in checked:
            continue
        checked.add(key)
        legality_only += all(d.bounded for d in deps)
        terms = dimension_terms(program, choose, parametric)
        full = _lexmin(fcg.level_system(program, deps, terms))
        assert verdict == bool(full), (program, choose, parametric)
    assert {v for *_, v in probes} == {True, False}
    assert len(checked) // 2 < legality_only < len(checked)


def test_probes_the_minima_decide_equal_the_lp(monkeypatch):
    """Every probe that `build_fcg`, the joint-shifts check and the
    fusion-transitivity check ask, on the corpus, chain(8), the `random`
    workload, every fixture and 300 `random_nest` nests under seed 7, and
    that the dependence minima decide (`fcg._decided`), gets the verdict of
    the LP on its level system.  They decide all but a few of the
    probes without parametric shifts, and most of the 849 with them."""
    named = (workloads.programs("corpus", ROOT / "src") + [("chain8", workloads.chain(8))]
             + workloads.programs("random", ROOT / "src")
             + [(p.stem, json.loads(p.read_text())) for p in sorted(FIXTURES.glob("*.json"))]
             + _random_nests(300, seed=7))
    asked = []
    decide = fcg._decided

    def recorded(*args):
        asked.append((*args, decide(*args)))
        return asked[-1][-1]

    monkeypatch.setattr(fcg, "_decided", recorded)
    runs = []
    for name, data in named:
        program, deps = analyze(data)
        try:
            scale_and_shift(program, deps)
        except SchedulingError:
            assert name in DFP_REFUSES
        runs.append(SimpleNamespace(instance=SimpleNamespace(
            name=name, program=program, deps=deps)))
    verify._check_joint_shifts(runs, 3)
    verify._check_fusion_transitivity(runs, 3)
    for program, choose, deps, parametric, verdict in asked:
        if verdict is not None:
            terms = dimension_terms(program, choose, parametric)
            lp = _lexmin(fcg.level_system(program, deps, terms))
            assert verdict == bool(lp), (choose, [d.label for d in deps], parametric)
    plain = [probe for probe in asked if not probe[3]]
    decided = [probe for probe in plain if probe[4] is not None]
    assert {v for *_, v in decided} == {True, False}
    assert len(decided) > 1400 and len(plain) - len(decided) < 50
    parametric = [probe for probe in asked if probe[3]]
    decided = [probe for probe in parametric if probe[4] is not None]
    assert {v for *_, v in decided} == {True, False}
    assert len(decided) > 550


def test_dfp_on_a_family_slice_keeps_every_dropped_dependence_satisfied(monkeypatch):
    """`dfp` is legal and full-rank on the first 100 `random_nest` nests
    under seed 2.  On those and on every fixture that `dfp` schedules, each
    ordering dependence that `dfp`'s walk retired, as satisfied by the
    scaled and shifted rows or the cuts already placed, is still satisfied
    by the final transform (some level's component is at least 1, none
    above it negative): the skew keeps what justified the retire."""
    dropped = []
    unsatisfied = pluto.unsatisfied

    def recorded(deps, transform, up_to=None):
        kept = unsatisfied(deps, transform, up_to)
        alive = set(map(id, kept))
        dropped.extend(d for d in deps if d.ordering and id(d) not in alive)
        return kept

    monkeypatch.setattr(pluto, "unsatisfied", recorded)
    fixtures = sorted(FIXTURES.glob("*.json"))
    nests = _random_nests(100, seed=2)
    checked = 0
    for name, data in nests + [(p.stem, json.loads(p.read_text())) for p in fixtures]:
        program, deps = analyze(data)
        dropped.clear()
        try:
            transform = dfp_schedule(program, deps).transform
        except SchedulingError:
            assert name in DFP_REFUSES
            continue
        if name.startswith("nest"):
            assert check_legality(program, deps, transform).ok, name
            assert full_rank(program, transform), name
        for d in dropped:
            level = satisfaction_level(d, transform)
            assert level is not None, (name, d.label)
            for above in range(1, level):
                m = component_range(d, transform, above)
                assert m is not None and m >= 0, (name, d.label, above)
        checked += len(dropped)
    assert checked > 0


def test_scaled_rows_sit_where_the_coloring_put_them():
    """Scale/shift solves each color's picks in place: on the corpus,
    chain(8), every fixture and the first 100 `random_nest` nests under
    seed 2, `dfp.scaled`'s c-th loop level gives a statement colored c
    exactly one nonzero iterator coefficient, on the dimension it took at
    c.  Only cuts lie between two colors' levels: the distribution the
    coloring asked for before color c, `cut_groups[c]`, is one of them, and
    the others are the walk's retry cuts, where a level had no row.  Only
    a trailing cut, at the last level, follows the last color."""
    fixtures = sorted(FIXTURES.glob("*.json"))
    named = ([("chain8", workloads.chain(8))] + _random_nests(100, seed=2)
             + [(p.stem, json.loads(p.read_text())) for p in fixtures])
    instances = [(i.name, i.program, i.deps) for i in verify.load_corpus()]
    instances += [(name, *analyze(data)) for name, data in named]
    cut_at = retried = 0
    for name, program, deps in instances:
        try:
            out = dfp_schedule(program, deps)
        except SchedulingError:
            assert name in DFP_REFUSES
            continue
        steps = out.steps[:len(out.steps) - len(out.skew.skewed)]
        assert [s.level for s in steps] == list(range(1, len(steps) + 1)), name
        groups = {c.level: c.groups for c in out.scaled.cuts}
        assert sorted(groups) == [s.level for s in steps if s.kind == "cut"], name
        colors = out.coloring.colors
        before = []
        c = 0
        for step in steps:
            if step.kind == "cut":
                before.append(groups[step.level])
                continue
            c += 1
            if c in out.coloring.cut_groups:
                assert out.coloring.cut_groups[c] in before, (name, c)
                before.remove(out.coloring.cut_groups[c])
                cut_at += 1
            retried += len(before)
            before = []
            for s in program.statements:
                if len(colors[s.id]) >= c:
                    its = out.scaled.row(s.id, step.level)[:s.dim]
                    assert [j for j, x in enumerate(its) if x] == [colors[s.id][c - 1]], \
                        (name, s.id, c)
        assert c == max(map(len, colors.values()), default=0), name
        assert set(out.coloring.cut_groups) <= set(range(1, c + 1)), name
        assert len(before) <= 1 and (not before or steps[-1].level == out.scaled.levels), name
    assert cut_at > 0 and retried > 0
