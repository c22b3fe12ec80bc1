import functools
import itertools
import json
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysched import farkas, frontend, model, pluto, ratlp
from polysched.farkas import (
    GE, ConstraintSystem, bounding_constraints, coefficient_variables, legality_constraints,
)
from polysched.frontend import analyze
from polysched.model import Band, Cut, SchedulingError
from polysched.postpass import dfp_schedule
from polysched.pluto import (
    ILP, LP,
    SchedulerConfig, Step, bound_variables, dimension_terms, find_hyperplane,
    independence_vector, level_rows, level_system, nullspace_basis, row_rank,
    schedule, solve_level,
)
from polysched.verify import check_legality, full_rank

from inputs import FIXTURES, REFUSALS, ROOT, bench_chain, oracle, workloads

F = Fraction


def R(*xs):
    return xs


def rows_of(result, sid):
    return result.transform.rows[sid]


def named_rows(program, dep):
    """The (legality, bounding) rows of `dep` as named systems."""
    src, dst = program.statement(dep.src), program.statement(dep.dst)
    return legality_constraints(dep, src, dst), bounding_constraints(dep, src, dst)


def _rows_hold(system, values):
    """Every row holds at `values`, bounds aside; absent variables are 0."""
    free = ConstraintSystem(system.variables, system.rows, dict.fromkeys(system.variables))
    return free.satisfied_by(values)


class TestRowAlgebra:
    def test_echelon_collapses_dependent_rows(self):
        form = pluto._echelon([R(2, 4), R(1, 2)])
        assert [r.nonzero for r in form] == [((0, 1), (1, 2))]
        assert row_rank([R(2, 4), R(1, 2)]) == 1

    def test_echelon_reduces_each_row_against_the_earlier_ones(self):
        # (1, -1) less (1, 1) is (0, -2), kept canonical as (0, 1); the
        # third row reduces to zero.
        rows = [R(1, 1), R(1, -1), R(1, 6)]
        form = pluto._echelon(rows)
        assert [r.nonzero for r in form] == [((0, 1), (1, 1)), ((1, 1),)]
        assert all(type(c) is int for r in form for _, c in r.nonzero)
        assert row_rank(rows) == 2
        assert pluto._echelon([R(0, 1), R(1, 0)])[1].nonzero == ((0, 1),)

    def test_nullspace_spans_the_complement(self):
        basis = nullspace_basis([R(1, 1, 0)], 3)
        assert basis == [R(1, -1, 0), R(0, 0, 1)]

    def test_nullspace_is_integral_with_positive_lead(self):
        basis = nullspace_basis([R(2, 1)], 2)
        assert basis == [R(1, -2)]

    def test_independence_vector_points_off_axis(self):
        assert independence_vector([R(1, 0)], 2) == R(0, 1)
        assert independence_vector([R(1, 1)], 2) == R(1, -1)

    def test_independence_vector_none_at_full_rank(self):
        assert independence_vector([R(1, 0), R(0, 1)], 2) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_agrees_with_the_oracle(data):
    """On small integer matrices, `row_rank` is the rank `oracle.rank`
    computes by its own `Fraction` elimination, and `nullspace_basis`
    gives ncols - rank independent vectors, each integral, primitive,
    positive-lead and orthogonal to every row."""
    ncols = data.draw(st.integers(1, 5))
    entry = st.integers(-12, 12) if data.draw(st.booleans()) else st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              max_size=5))
    rank = row_rank(rows)
    assert rank == oracle.rank(rows)
    basis = nullspace_basis(rows, ncols)
    assert len(basis) == ncols - rank
    assert oracle.rank(basis) == len(basis)
    for vec in basis:
        assert all(type(x) is int for x in vec)
        assert gcd(*vec) == 1 and next(filter(None, vec)) > 0
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


class TestAssembly:
    def test_bound_variables(self, by_name):
        assert bound_variables(by_name["shift_pair"].program.params) == ["u.N", "w"]
        assert bound_variables(by_name["stencil1d"].program.params) == \
            ["u.T", "u.N", "w"]

    def test_canonical_coefficient_order(self, by_name):
        program = by_name["shift_pair"].program
        names = bound_variables(program.params) + [
            v for s in program.statements
            for v in coefficient_variables(s, program.params)]
        assert names == ["u.N", "w", "c.P.i", "d.P.N", "c0.P",
                         "c.Q.i", "d.Q.N", "c0.Q"]

    def test_level_system_order_and_bounds(self, by_name):
        inst = by_name["shift_pair"]
        terms = {"Q": [("c.Q.i", (1, 0, 0), 0), ("c0.Q", (0, 0, 1), None)],
                 "P": [("c.P.i", (1, 0, 0), 1)]}
        s = level_system(inst.program, inst.deps, terms)
        assert s.variables == ("u.N", "w", "c.Q.i", "c0.Q", "c.P.i")
        assert s.lower == {"u.N": 0, "w": 0, "c.Q.i": 0, "c0.Q": None,
                           "c.P.i": 1}

    def test_level_system_drops_unlisted_coefficients(self, by_name):
        inst = by_name["shift_pair"]
        terms = {"P": [("c.P.i", (1, 0, 0), 0)], "Q": [("c.Q.i", (1, 0, 0), 0)]}
        s = level_system(inst.program, inst.deps, terms)
        assert s.variables == ("u.N", "w", "c.P.i", "c.Q.i")
        assert all(r.kind == GE for r in s.rows)  # no pin rows
        # Same rows as the donors with every shift at zero.
        for point in itertools.product(range(3), repeat=4):
            values = dict(zip(s.variables, point))
            assert _rows_hold(s, values) == all(
                _rows_hold(donor, values)
                for dep in inst.deps
                for donor in named_rows(inst.program, dep))

    def test_level_system_substitutes_forms(self, by_name):
        inst = by_name["shift_pair"]
        # One term on the consumer's iterator and its constant shift, and
        # the rest of that shift split in halves.
        terms = {"P": [("a", (1, 0, 0), 0)],
                 "Q": [("b", (1, 0, 1), 0), ("sp", (0, 0, 1), 0),
                       ("sn", (0, 0, -1), 0)]}
        s = level_system(inst.program, inst.deps, terms)
        assert s.variables == ("u.N", "w", "a", "b", "sp", "sn")
        for u, w, a, b, sp, sn in itertools.product(range(3), repeat=6):
            mine = {"u.N": u, "w": w, "a": a, "b": b, "sp": sp, "sn": sn}
            row = level_rows(terms, mine)
            assert row == {"P": (a, 0, 0), "Q": (b, 0, b + sp - sn)}
            theirs = {"u.N": u, "w": w, "c.P.i": a, "c.Q.i": b,
                      "c0.Q": b + sp - sn}
            assert _rows_hold(s, mine) == all(
                _rows_hold(donor, theirs)
                for dep in inst.deps
                for donor in named_rows(inst.program, dep))


class TestFarkasShapes:
    """Each distinct dependence relation's Farkas cone is eliminated once per
    analysis, by the frontend, and each dependence shape's rows are built
    once from it and shared by the dependences of that shape; the shared
    rows must equal a fresh build."""

    @staticmethod
    def assert_fresh(program, dep):
        assert dep.farkas_rows == farkas.dependence_rows(dep)
        for system, rows in zip(named_rows(program, dep), dep.farkas_rows):
            assert system.rows == rows
            assert all(b == 0 for b in system.lower.values())

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        build = model.dependence_rows
        monkeypatch.setattr(model, "dependence_rows",
                            lambda dep: built.append(dep) or build(dep))
        return built

    def test_rows_are_built_once_per_shape(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        program, deps = analyze(bench_chain.chain(4))
        raws = [d for d in deps if d.kind == "RAW"]
        assert len(raws) == 3 and len({d.shape for d in raws}) == 1
        rows = raws[0].farkas_rows
        terms = {s.id: [(f"c.{s.id}.i", (1, 0, 0, 0), 0)] for s in program.statements}
        level_system(program, deps, terms)
        level_system(program, deps, terms)
        assert built == [raws[0]]
        assert all(d.farkas_rows is rows for d in raws)
        for dep in raws:
            self.assert_fresh(program, dep)

    @pytest.mark.parametrize("name", ["matmul", "chain4"])
    def test_repeated_shapes_equal_a_fresh_build(self, name, monkeypatch):
        if name == "matmul":
            path = Path(pluto.__file__).with_name("corpus") / "matmul.json"
            data = json.loads(path.read_text())["program"]
        else:
            data = bench_chain.chain(4)
        built = []
        build = frontend.farkas_cone
        monkeypatch.setattr(frontend, "farkas_cone",
                            lambda relation: built.append(relation) or build(relation))
        program, deps = analyze(data)

        def no_build(relation):
            raise AssertionError("a dependence of the frontend built its own cone")

        monkeypatch.setattr(model, "farkas_cone", no_build)
        shared = self.count_builds(monkeypatch)
        for dep in deps:
            dep.farkas_rows
        relations = {d.relation.rows for d in deps}
        # The frontend also eliminates the cones of empty candidates.
        assert len({r.rows for r in built}) == len(built)
        assert len([r for r in built if r.rows in relations]) == len(relations) < len(deps)
        assert len({id(d.cone) for d in deps}) == len(relations)
        assert len(shared) == len({d.shape for d in deps}) < len(deps)
        for dep in deps:
            self.assert_fresh(program, dep)

    def test_two_analyses_share_nothing(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        data = bench_chain.chain(3)
        first, first_deps = analyze(data)
        second, second_deps = analyze(data)
        rows = [d.farkas_rows for d in first_deps]
        assert all(a._facts is not b._facts and a.cone is not b.cone
                   and a.cone.rows == b.cone.rows
                   for a, b in zip(first_deps, second_deps))
        for dep, mine in zip(second_deps, rows):
            theirs = dep.farkas_rows
            assert theirs is not mine and theirs == mine
        assert len(built) == 2 * len({d.shape for d in first_deps})

    def test_self_and_cross_dependence_do_not_collide(self):
        stmt = {"iterators": ["i"], "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
                "accesses": []}
        relation = [[-1, 1, 0, -1, ">="]]
        program, deps = analyze({
            "params": ["N"],
            "statements": [{**stmt, "id": "P", "order": 0},
                           {**stmt, "id": "Q", "order": 1}],
            "dependences": [
                {"src": "P", "dst": "Q", "kind": "RAW", "relation": relation},
                {"src": "P", "dst": "P", "kind": "RAW", "relation": relation},
                {"src": "Q", "dst": "Q", "kind": "RAW", "relation": relation},
            ],
        })
        assert deps[0].relation.rows == deps[1].relation.rows == deps[2].relation.rows
        for dep in deps:
            self.assert_fresh(program, dep)
        # One cone, but the self-dependence's shifts cancel and the cross
        # dependence's do not: two pairs of rows, the self-dependences' shared.
        assert len({id(d.cone) for d in deps}) == 1
        assert deps[0].farkas_rows is not deps[1].farkas_rows
        assert deps[0].farkas_rows[0] != deps[1].farkas_rows[0]
        assert deps[1].farkas_rows is deps[2].farkas_rows
        legality = [named_rows(program, d)[0] for d in deps]
        assert legality[0].variables == tuple(
            coefficient_variables(program.statement("P"), ["N"])
            + coefficient_variables(program.statement("Q"), ["N"]))
        assert legality[2].variables == tuple(
            coefficient_variables(program.statement("Q"), ["N"]))

    def test_iterator_names_do_not_split_shapes(self):
        """Statements alike but for their names and iterator names share one
        elimination and one pair of rows, and each one's rows equal a fresh
        build."""
        def stmt(sid, it):
            return {"id": sid, "iterators": [it],
                    "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
                    "accesses": [{"array": sid, "kind": "write", "map": [[1, 0, 0]]},
                                 {"array": sid, "kind": "read", "map": [[1, 0, -1]]}]}
        program, deps = analyze({"params": ["N"],
                                 "statements": [stmt("P", "i"), stmt("Q", "j")]})
        assert [(d.src, d.label) for d in deps] == [("P", "P:0->1@0"),
                                                    ("Q", "Q:0->1@0")]
        for dep in deps:
            self.assert_fresh(program, dep)
        assert len({id(d.cone) for d in deps}) == 1
        assert deps[0].farkas_rows is deps[1].farkas_rows


class TestFindHyperplane:
    def test_first_level_of_an_offset_pair(self, by_name):
        inst = by_name["shift_pair"]
        step = find_hyperplane(inst.program, inst.program.statements, inst.deps,
                               {}, SchedulerConfig(mode=LP), 1)
        assert (step.level, step.kind, step.component) == (1, "loop", None)
        # `schedule` takes the same step and stamps its component on it.
        first = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP)).steps[0]
        assert (first.level, first.kind, first.component) == (1, "loop", 0)
        assert first.raw == step.raw and first.rows == step.rows
        assert step.factors == (1,) and step.parallel
        assert step.raw["c.P.i"] == 1 and step.raw["c.Q.i"] == 1
        assert step.raw["c0.P"] == 2 and step.raw["c0.Q"] == 0
        assert step.raw["u.N"] == 0 and step.raw["w"] == 0

    def test_exhausted_statements_get_no_row(self, by_name):
        inst = by_name["shift_pair"]
        prior = {"P": [R(1, 0, 2)], "Q": [R(1, 0, 0)]}
        step = find_hyperplane(inst.program, inst.program.statements, inst.deps,
                               prior, SchedulerConfig(mode=LP), 2)
        assert step is None

    @pytest.mark.parametrize("mode", [ILP, LP])
    def test_a_band_builds_its_system_once(self, mode, monkeypatch):
        """`schedule` builds one `level_system` per band, not per level:
        once per chain(8) and chain(16) schedule, where every level
        rebuilt it twice, and 13 times per corpus pass, against 22."""
        built = []
        build = pluto.level_system
        monkeypatch.setattr(pluto, "level_system",
                            lambda *args: built.append(args) or build(*args))

        def builds(workload):
            counts = {}
            for name, data in workloads.programs(workload, ROOT / "src"):
                built.clear()
                schedule(*analyze(data), SchedulerConfig(mode=mode))
                counts[name] = len(built)
            return counts

        assert builds("chain") == {"chain8": 1, "chain16": 1}
        assert sum(builds("corpus").values()) == 13


def _line_pair(producer, consumer, write, read, order):
    """`producer` writes its array at `write`*i, which `consumer` reads at
    `read`*i, both over 0 <= i <= N."""
    line = [[1, 0, 0, ">="], [-1, 1, 0, ">="]]
    return [
        {"id": producer, "iterators": ["i"], "domain": line, "order": order,
         "accesses": [{"array": producer, "kind": "write", "map": [[write, 0, 0]]}]},
        {"id": consumer, "iterators": ["i"], "domain": line, "order": order + 1,
         "accesses": [{"array": consumer, "kind": "write", "map": [[1, 0, 0]]},
                      {"array": producer, "kind": "read", "map": [[read, 0, 0]]}]}]


class TestSolveLevel:
    """`solve_level` scales each group by the lcm of its members'
    denominators and reads the rows off the scaled unknowns."""

    @pytest.fixture(scope="class")
    def two_pairs(self):
        # Alignment needs c.Q = 3/2 c.P in one component, c.T = 4/3 c.R in
        # the other.
        return analyze({"params": ["N"], "statements":
                        _line_pair("P", "Q", 2, 3, 0) + _line_pair("R", "T", 3, 4, 2)})

    def aligned(self, two_pairs, groups, mode=LP):
        program, deps = two_pairs
        terms = dimension_terms(program, {s.id: 0 for s in program.statements}, True)
        unknowns = {sid: [u for u, _, _ in listed] for sid, listed in terms.items()}
        return solve_level(program, [d for d in deps if d.ordering], terms, 1,
                           [[u for sid in g for u in unknowns[sid]] for g in groups],
                           mode=mode)

    def test_group_scaled_by_its_lcm(self, by_name):
        # find_hyperplane's one group is every system variable, u and w included.
        inst = by_name["scaling_pair"]
        step = find_hyperplane(inst.program, inst.program.statements, inst.deps,
                               {}, SchedulerConfig(mode=LP), 1)
        assert step.system.variables[:2] == ("u.N", "w")
        every = lcm(*(step.raw[v].denominator for v in step.system.variables))
        assert step.factors == (every,) == (2,)
        assert step.rows == {"P": R(2, 0, 0), "Q": R(3, 0, 0)}

    def test_bound_variables_in_a_group_count(self, by_name):
        inst = by_name["scaling_pair"]
        terms = dimension_terms(inst.program, {"P": 0, "Q": 0})
        unknowns = [u for listed in terms.values() for u, _, _ in listed]
        third = [({"w": 3}, -1)]  # w >= 1/3
        deps = [d for d in inst.deps if d.ordering]
        with_w = solve_level(inst.program, deps, terms, 1,
                             [bound_variables(inst.program.params) + unknowns], third)
        assert with_w.raw["w"] == F(1, 3) and with_w.factors == (6,)
        assert with_w.rows == {"P": R(6, 0, 0), "Q": R(9, 0, 0)}
        default = solve_level(inst.program, deps, terms, 1, extra=third)
        assert default.factors == (6,) and default.rows == with_w.rows
        alone = solve_level(inst.program, deps, terms, 1, [unknowns], third)
        assert alone.raw == with_w.raw and alone.factors == (2,)
        assert alone.rows == {"P": R(2, 0, 0), "Q": R(3, 0, 0)}

    def test_components_scale_independently(self, two_pairs):
        step = self.aligned(two_pairs, [("P", "Q"), ("R", "T")])
        assert step.raw["c.Q.i"] == F(3, 2) and step.raw["c.T.i"] == F(4, 3)
        assert step.factors == (2, 3)
        assert step.rows == {"P": R(2, 0, 0), "Q": R(3, 0, 0),
                             "R": R(3, 0, 0), "T": R(4, 0, 0)}
        joint = self.aligned(two_pairs, [("P", "Q", "R", "T")])
        assert joint.factors == (6,)
        assert joint.rows == {"P": R(6, 0, 0), "Q": R(9, 0, 0),
                              "R": R(6, 0, 0), "T": R(8, 0, 0)}
        # scale_and_shift groups by weakly connected component.
        (scaled,) = dfp_schedule(*two_pairs).steps
        assert scaled.factors == (2, 3) and scaled.rows == step.rows

    def test_integral_optimum_is_untouched(self, two_pairs):
        step = self.aligned(two_pairs, [("P", "Q"), ("R", "T")], ILP)
        assert step.factors == (1, 1)
        assert step.rows == {sid: R(step.raw[f"c.{sid}.i"], 0, 0) for sid in "PQRT"}
        assert step.rows["T"] == R(4, 0, 0)


class TestSchedulerConfig:
    def test_known_modes(self):
        assert SchedulerConfig().mode == LP
        assert SchedulerConfig(mode=ILP).mode == ILP

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler mode 'ipl'"):
            SchedulerConfig(mode="ipl")


class TestSchedule:
    def test_matmul_interchanges_and_keeps_reduction_inside(self, by_name):
        inst = by_name["matmul"]
        res = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        assert rows_of(res, "Init") == (R(0, 1, 0, 0), R(1, 0, 0, 0))
        assert rows_of(res, "Upd") == (R(0, 1, 0, 0, 0), R(1, 0, 0, 0, 0),
                                       R(0, 0, 1, 0, 0))
        assert res.transform.bands == (
            Band(1, 3, True, True, ("Init", "Upd")),)
        assert res.transform.cuts == ()
        assert [s.parallel for s in res.steps] == [True, True, False]
        # The reduction level needs the parametric bound, nothing tighter.
        hot = {v: x for v, x in res.steps[2].raw.items() if x}
        assert hot == {"u.N": F(1), "c.Upd.k": F(1)}

    def test_matmul_integer_mode_agrees(self, by_name):
        inst = by_name["matmul"]
        lp = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        ilp = schedule(inst.program, inst.deps, SchedulerConfig(mode=ILP))
        assert lp.transform.rows == ilp.transform.rows
        assert lp.transform.bands == ilp.transform.bands

    def test_transposed_chain_interchanges_the_middle(self, by_name):
        inst = by_name["fig1"]
        res = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        assert rows_of(res, "S1") == (R(0, 1, 0, 0), R(1, 0, 0, 0))
        assert rows_of(res, "S2") == (R(1, 0, 0, 0), R(0, 1, 0, 0))
        assert rows_of(res, "S3") == (R(0, 1, 0, 0), R(1, 0, 0, 0))
        assert res.transform.bands == (
            Band(1, 2, True, True, ("S1", "S2", "S3")),)

    def test_offset_pair_aligns_by_shifting(self, by_name):
        inst = by_name["shift_pair"]
        res = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        assert rows_of(res, "P") == (R(1, 0, 2),)
        assert rows_of(res, "Q") == (R(1, 0, 0),)
        assert res.steps[0].parallel
        ilp = schedule(inst.program, inst.deps, SchedulerConfig(mode=ILP))
        assert ilp.transform.rows == res.transform.rows

    def test_offset_pair_without_shifts_serializes(self, by_name):
        inst = by_name["shift_pair"]
        res = schedule(inst.program, inst.deps,
                       SchedulerConfig(mode=LP, restricted=True))
        assert rows_of(res, "P") == (R(1, 0, 0),)
        assert rows_of(res, "Q") == (R(1, 0, 0),)
        assert not res.steps[0].parallel

    @pytest.mark.parametrize("mode", [LP, ILP])
    def test_restricted_steps_solve_one_unknown_per_statement(self, corpus, mode):
        # The axis search gives each active statement one term, on its axis,
        # and needs no equality to hold the other coefficients at zero.
        for inst in corpus:
            if not inst.flag("restricted"):
                continue
            res = schedule(inst.program, inst.deps,
                           SchedulerConfig(mode=mode, restricted=True))
            nbounds = len(bound_variables(inst.program.params))
            for step in res.steps:
                if step.system is None:
                    continue
                assert all(r.kind == GE for r in step.system.rows)
                owners = [v.split(".")[1] for v in step.system.variables[nbounds:]]
                active = [sid for sid in res.components[step.component]
                          if any((res.transform.row(sid, step.level) or ())
                                 [:inst.program.statement(sid).dim])]
                assert sorted(owners) == sorted(active) and active, inst.name

    def test_axis_search_limit_names_level_and_statements(self, by_name, monkeypatch):
        inst = by_name["fig1"]
        monkeypatch.setattr(pluto, "MAX_AXIS_COMBOS", 7)
        with pytest.raises(SchedulingError, match=(
                "axis search space too large at level 1: 8 assignments "
                "for statements S1, S2, S3$")):
            schedule(inst.program, inst.deps,
                     SchedulerConfig(mode=LP, restricted=True))

    def test_node_limit_names_level_and_statements(self, by_name, monkeypatch):
        inst = by_name["scaling_pair"]
        monkeypatch.setattr(ratlp, "solve_ilp",
                            functools.partial(ratlp.solve_ilp, node_limit=1))
        for restricted in (False, True):
            with pytest.raises(ratlp.ResourceLimitError, match=(
                    r"branch and bound node limit exceeded \(1 nodes\) at level 1 "
                    "for statements P, Q$")):
                schedule(inst.program, inst.deps,
                         SchedulerConfig(mode=ILP, restricted=restricted))

    def test_stencil_relaxation_takes_half_coefficients(self, by_name):
        inst = by_name["stencil1d"]
        res = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        assert rows_of(res, "S") == (R(1, 1, 0, 0, 0), R(1, 0, 0, 0, 0))
        first = res.steps[0]
        assert first.raw["c.S.t"] == F(1, 2) and first.raw["c.S.i"] == F(1, 2)
        assert first.raw["w"] == 1 and first.factors == (2,)
        assert first.factors[0] * first.raw["c.S.t"] == 1
        assert first.factors[0] * first.raw["c.S.i"] == 1

    def test_stencil_integer_mode_orders_time_first(self, by_name):
        inst = by_name["stencil1d"]
        res = schedule(inst.program, inst.deps, SchedulerConfig(mode=ILP))
        assert rows_of(res, "S") == (R(1, 0, 0, 0, 0), R(1, 1, 0, 0, 0))
        lp = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        # Rows differ between modes here, but the band shape does not.
        assert [(b.start, b.end, b.parallel) for b in res.transform.bands] \
            == [(b.start, b.end, b.parallel) for b in lp.transform.bands] \
            == [(1, 2, False)]

    def test_stencil_without_skew_splits_the_band(self, by_name):
        inst = by_name["stencil1d"]
        res = schedule(inst.program, inst.deps,
                       SchedulerConfig(mode=LP, restricted=True))
        assert rows_of(res, "S") == (R(1, 0, 0, 0, 0), R(0, 1, 0, 0, 0))
        assert [(b.start, b.end, b.parallel) for b in res.transform.bands] \
            == [(1, 1, False), (2, 2, True)]

    def test_cycle_halves_in_relaxation_only(self, by_name):
        inst = by_name["scc_pair"]
        lp = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        assert rows_of(lp, "P") == (R(2, 0, 0),)
        assert rows_of(lp, "Q") == (R(2, 0, 1),)
        assert lp.steps[0].raw["w"] == F(1, 2)
        assert lp.steps[0].raw["c0.Q"] == F(1, 2)
        assert lp.steps[0].factors == (2,)
        ilp = schedule(inst.program, inst.deps, SchedulerConfig(mode=ILP))
        assert rows_of(ilp, "P") == (R(1, 0, 0),)
        assert rows_of(ilp, "Q") == (R(1, 0, 0),)

    def test_rational_scaling_pair(self, by_name):
        inst = by_name["scaling_pair"]
        lp = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        assert rows_of(lp, "P") == (R(2, 0, 0),)
        assert rows_of(lp, "Q") == (R(3, 0, 0),)
        assert lp.steps[0].raw["c.Q.i"] == F(3, 2) and lp.steps[0].factors == (2,)
        ilp = schedule(inst.program, inst.deps, SchedulerConfig(mode=ILP))
        assert ilp.transform.rows == lp.transform.rows
        assert ilp.steps[0].raw["c.Q.i"] == 3 and ilp.steps[0].factors == (1,)

    def test_independent_components_distribute_first(self, by_name):
        inst = by_name["chain_indep"]
        res = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        assert res.components == (("X",), ("Y",), ("Z",))
        assert res.transform.cuts == (Cut(1, (("X",), ("Y",), ("Z",))),)
        assert rows_of(res, "X")[0] == R(0, 0, 0, 0)
        assert rows_of(res, "Y")[0] == R(0, 0, 0, 1)
        assert rows_of(res, "Z")[0] == R(0, 0, 0, 2)
        assert res.steps[0].kind == "component-cut"
        assert all(b.start == 2 and b.end == 3 and b.parallel
                   for b in res.transform.bands)

    def test_recorded_optima_satisfy_their_systems(self, by_name):
        inst = by_name["fig1"]
        res = schedule(inst.program, inst.deps, SchedulerConfig(mode=LP))
        solved = [s for s in res.steps if s.system is not None]
        assert len(solved) == 2
        for step in solved:
            assert step.system.satisfied_by(step.raw)

    def test_unschedulable_cycle_raises(self):
        program, deps = analyze({
            "params": ["N"],
            "statements": [
                {"id": "S", "iterators": ["i"],
                 "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
                 "accesses": [], "order": 0},
            ],
            "dependences": [
                # Target instance runs one step before its source: no affine
                # row can carry this forward and there is nothing to cut.
                {"src": "S", "dst": "S", "kind": "RAW",
                 "relation": [[-1, 1, 0, 1, "=="]]},
            ],
        })
        with pytest.raises(SchedulingError) as err:
            schedule(program, deps, SchedulerConfig(mode=LP))
        assert str(err.value) == (
            "no transformation row exists at level 1 for statements S, and "
            "distribution makes no progress; live dependences S->S explicit0")

    @pytest.mark.parametrize("mode", [ILP, LP])
    def test_trailing_cut_orders_a_dependence_against_textual_order(self, mode):
        # T feeds S at the same i, but S comes first in textual order: once
        # both have full rank, a cut runs T before S inside each i.
        program, deps = analyze(json.loads(EXPLICIT_BACKWARD.read_text()))
        result = schedule(program, deps, SchedulerConfig(mode=mode))
        assert [s.kind for s in result.steps] == ["loop", "cut"]
        assert result.transform.cuts == (Cut(2, (("T",), ("S",))),)
        assert rows_of(result, "S") == (R(1, 0, 0), R(0, 0, 1))
        assert rows_of(result, "T") == (R(1, 0, 0), R(0, 0, 0))

    @pytest.mark.parametrize("mode", [ILP, LP])
    def test_cycle_against_textual_order_raises(self, mode):
        same = [[1, -1, 0, 0, "=="]]
        data = json.loads(EXPLICIT_BACKWARD.read_text())
        data["dependences"].append({"src": "S", "dst": "T", "kind": "RAW", "relation": same})
        program, deps = analyze(data)
        with pytest.raises(SchedulingError) as err:
            schedule(program, deps, SchedulerConfig(mode=mode))
        assert str(err.value) == (
            "no transformation row exists at level 2 for statements S, T, and distribution "
            "makes no progress; live dependences T->S explicit0, S->T explicit1")


#: S and T both run over 0 <= i <= N - 1, S first, with an explicit
#: dependence from T to S at the same i.
EXPLICIT_BACKWARD = FIXTURES / "explicit_backward.json"


#: A scalar statement S0 reads B[0] before S1 and S2 overwrite it.  At
#: level 2 the scheduler distributes S1 from S0 and S2, while S0 still has
#: no row at all: its group ordinal has to land at level 2 too, or the
#: WAR dependence S0->S2 runs backwards at level 1.
CUT_AFTER_SCALAR = FIXTURES / "cut_after_scalar.json"


class TestCutAfterScalar:
    @pytest.mark.parametrize("algo", [ILP, LP, "dfp"])
    def test_every_path_is_legal_and_full_rank(self, algo):
        program, deps = analyze(json.loads(CUT_AFTER_SCALAR.read_text()))
        if algo == "dfp":
            transform = dfp_schedule(program, deps).transform
        else:
            transform = schedule(program, deps, SchedulerConfig(mode=algo)).transform
        assert check_legality(program, deps, transform).ok
        assert full_rank(program, transform)

    def test_ordinal_of_a_statement_without_rows_lands_at_the_cut(self):
        program, deps = analyze(json.loads(CUT_AFTER_SCALAR.read_text()))
        transform = schedule(program, deps, SchedulerConfig(mode=LP)).transform
        assert transform.cuts == (Cut(2, (("S1",), ("S0",), ("S2",))),)
        assert transform.rows["S0"] == (R(0, 0), R(0, 1))


#: S writes A[2i] and reads A[i] over i >= 0, and T reads A[i].  S->S is
#: unbounded, so no level has a row.  The cut at level 1 puts S before T
#: and satisfies S->T; at level 2 S and T are still two SCCs, but no live
#: dependence runs between them, so the cut there satisfies nothing.
NO_PROGRESS_DISTRIBUTION = FIXTURES / "no_progress_distribution.json"


class TestNoProgressDistribution:
    MESSAGES = REFUSALS["no_progress_distribution"]

    @pytest.mark.parametrize("mode", [ILP, LP])
    def test_error_names_the_live_dependences(self, mode):
        program, deps = analyze(json.loads(NO_PROGRESS_DISTRIBUTION.read_text()))
        with pytest.raises(SchedulingError) as err:
            schedule(program, deps, SchedulerConfig(mode=mode))
        assert str(err.value) == self.MESSAGES[mode]
        assert "live dependences S->S A:0->1@0" in str(err.value)


class TestWalkCutRequest:
    """`walk` with a stub `choose` on `distribution_forced`, whose one
    dependence P->Q reverses its loop: the stub asks for one cut first,
    then gives every statement the unit row of its loop, then None."""

    @staticmethod
    def _walk(inst, groups):
        seen = []

        def choose(statements, live, rows, level, nth):
            seen.append((level, nth, [d.label for d in live]))
            if len(seen) == 1:
                return groups
            if nth > 1:
                return None
            rows = {s.id: (1, 0, 0) for s in statements}
            return Step(level, "loop", rows=rows)

        return pluto.walk(inst.program, inst.deps, choose, apart=False), seen

    def test_a_requested_cut_is_a_cut_step_that_retires_what_it_satisfies(self, by_name):
        out, seen = self._walk(by_name["distribution_forced"], (("P",), ("Q",)))
        assert out.transform.cuts == (Cut(1, (("P",), ("Q",))),)
        assert [(s.level, s.kind, s.component) for s in out.steps] \
            == [(1, "cut", None), (2, "loop", None)]
        # The cut satisfies P->Q, so the loop level sees no live dependence,
        # and a cut does not count as a loop level: color 1 sits at level 2.
        assert seen == [(1, 1, ["b:0->1"]), (2, 1, []), (3, 2, [])]
        assert out.transform.rows == {"P": (R(0, 0, 0), R(1, 0, 0)),
                                      "Q": (R(0, 0, 1), R(1, 0, 0))}

    def test_a_requested_cut_that_satisfies_nothing_raises(self, by_name):
        with pytest.raises(SchedulingError, match=(
                "^no transformation row exists at level 1 for statements P, Q, and "
                "distribution makes no progress; live dependences P->Q b:0->1$")):
            self._walk(by_name["distribution_forced"], (("P", "Q"),))


#: One 2-d statement S over 0 <= i, j <= N - 1 with the explicit
#: self-dependence s.i = t.i + 1, s.j = t.j - 1.  Level 1 takes (1, 1), and
#: the independence guide (1, -1) then contradicts legality, c_j - c_i >= 0,
#: so ilp and lp refuse level 2, where (0, 1) would do (ROADMAP item 23).
ILP_INDEPENDENCE = FIXTURES / "ilp_independence.json"


class TestIlpIndependence:
    @pytest.mark.xfail(strict=True, raises=SchedulingError,
                       reason="one independence guide per statement (ROADMAP item 23)")
    def test_ilp_and_lp_are_legal_and_full_rank(self):
        program, deps = analyze(json.loads(ILP_INDEPENDENCE.read_text()))
        for mode in (ILP, LP):
            transform = schedule(program, deps, SchedulerConfig(mode=mode)).transform
            assert check_legality(program, deps, transform).ok
            assert full_rank(program, transform)

    def test_dfp_is_legal_and_full_rank(self):
        program, deps = analyze(json.loads(ILP_INDEPENDENCE.read_text()))
        transform = dfp_schedule(program, deps).transform
        assert transform.rows["S"] == (R(0, 1, 0, 0), R(1, 1, 0, 0))
        assert check_legality(program, deps, transform).ok
        assert full_rank(program, transform)
