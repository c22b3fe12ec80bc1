import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from polysched import pluto
from polysched.farkas import (
    GE, bounding_constraints, coefficient_variables, legality_constraints,
)
from polysched.frontend import analyze
from polysched.model import Band, Cut, SchedulingError
from polysched.pluto import (
    ILP, LP,
    SchedulerConfig, _farkas_rows, bound_variables, find_hyperplane,
    independence_vector, level_system, nullspace_basis, row_rank, rref,
    schedule,
)
from polysched.verify import load_corpus

F = Fraction


def R(*xs):
    return tuple(F(x) for x in xs)


def rows_of(result, sid):
    return result.transform.rows[sid]


def _rows_hold(system, values):
    """Every row holds at `values`, bounds aside; absent variables are 0."""
    point = [F(values.get(v, 0)) for v in system.variables]
    return all(r.holds(point) for r in system.rows)


class TestRowAlgebra:
    def test_rref_collapses_dependent_rows(self):
        red, pivots = rref([R(2, 4), R(1, 2)])
        assert red == [[F(1), F(2)]] and pivots == [0]
        assert row_rank([R(2, 4), R(1, 2)]) == 1

    def test_rref_orders_pivots(self):
        red, pivots = rref([R(0, 1), R(1, 0)])
        assert red == [[F(1), F(0)], [F(0), F(1)]] and pivots == [0, 1]

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


class TestAssembly:
    def test_bound_variables(self, by_name):
        assert bound_variables(by_name["shift_pair"].program) == ["u.N", "w"]
        assert bound_variables(by_name["stencil1d"].program) == \
            ["u.T", "u.N", "w"]

    def test_canonical_coefficient_order(self, by_name):
        program = by_name["shift_pair"].program
        names = bound_variables(program) + [
            v for s in program.statements
            for v in coefficient_variables(s, program.params)]
        assert names == ["u.N", "w", "c.P.i", "d.P.N", "c0.P",
                         "c.Q.i", "d.Q.N", "c0.Q"]

    def test_level_system_order_and_bounds(self, by_name):
        inst = by_name["shift_pair"]
        forms = {v: {v: 1} for v in ("c.P.i", "c.Q.i", "c0.Q")}
        s = level_system(inst.program, inst.deps, forms,
                         ["c.Q.i", "c0.Q", "c.P.i"], {"c.P.i": 1, "c0.Q": None})
        assert s.variables == ("u.N", "w", "c.Q.i", "c0.Q", "c.P.i")
        assert s.lower == {"u.N": 0, "w": 0, "c.Q.i": 0, "c0.Q": None,
                           "c.P.i": 1}

    def test_level_system_drops_unlisted_coefficients(self, by_name):
        inst = by_name["shift_pair"]
        forms = {v: {v: 1} for v in ("c.P.i", "c.Q.i")}
        s = level_system(inst.program, inst.deps, forms, list(forms))
        assert s.variables == ("u.N", "w", "c.P.i", "c.Q.i")
        assert all(r.kind == GE for r in s.rows)  # no pin rows
        # Same rows as the donors with every shift at zero.
        for point in itertools.product(range(3), repeat=4):
            values = dict(zip(s.variables, point))
            assert _rows_hold(s, values) == all(
                _rows_hold(donor, values)
                for dep in inst.deps
                for donor in _farkas_rows(inst.program, dep))

    def test_level_system_substitutes_forms(self, by_name):
        inst = by_name["shift_pair"]
        # One weight on both iterators, the consumer's shift split in halves.
        forms = {"c.P.i": {"a": 1}, "c.Q.i": {"a": 1},
                 "c0.Q": {"sp": 1, "sn": -1}}
        s = level_system(inst.program, inst.deps, forms, ["a", "sp", "sn"])
        for u, w, a, sp, sn in itertools.product(range(3), repeat=5):
            mine = {"u.N": u, "w": w, "a": a, "sp": sp, "sn": sn}
            theirs = {"u.N": u, "w": w, "c.P.i": a, "c.Q.i": a,
                      "c0.Q": sp - sn}
            assert _rows_hold(s, mine) == all(
                _rows_hold(donor, theirs)
                for dep in inst.deps
                for donor in _farkas_rows(inst.program, dep))

    def test_farkas_rows_built_once_per_dependence(self, monkeypatch):
        # Fresh dependences: the session corpus may already carry rows.
        inst = next(i for i in load_corpus() if i.name == "shift_pair")
        built = []
        for name in ("legality_constraints", "bounding_constraints"):
            build = getattr(pluto, name)
            monkeypatch.setattr(pluto, name, lambda dep, *rest, _build=build:
                                built.append(dep) or _build(dep, *rest))
        forms = {v: {v: 1} for v in ("c.P.i", "c.Q.i")}
        level_system(inst.program, inst.deps, forms, list(forms))
        rows = [_farkas_rows(inst.program, dep) for dep in inst.deps]
        level_system(inst.program, inst.deps, forms, list(forms))
        assert len(built) == 2 * len(inst.deps)
        assert set(map(id, built)) == set(map(id, inst.deps))
        for dep, first in zip(inst.deps, rows):
            assert _farkas_rows(inst.program, dep) is first


_spec = importlib.util.spec_from_file_location(
    "bench_chain", Path(__file__).parents[1] / "scripts" / "bench_chain.py")
bench_chain = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_chain)


class TestFarkasShapes:
    """Each distinct dependence relation's Farkas cone is eliminated once per
    program; every dependence's rows substituted into a shared cone must
    equal a fresh build."""

    @staticmethod
    def assert_fresh(program, dep):
        src, dst = program.statement(dep.src), program.statement(dep.dst)
        fresh = (legality_constraints(dep, src, dst),
                 bounding_constraints(dep, src, dst))
        for got, want in zip(_farkas_rows(program, dep), fresh):
            assert got.variables == want.variables
            assert got.rows == want.rows
            assert got.lower == want.lower

    @pytest.mark.parametrize("name", ["matmul", "chain4"])
    def test_repeated_shapes_equal_a_fresh_build(self, name, monkeypatch):
        if name == "matmul":
            inst = next(i for i in load_corpus() if i.name == "matmul")
            program, deps = inst.program, inst.deps
        else:
            program, deps = analyze(bench_chain.chain(4))
        built = []
        build = pluto.farkas_cone
        monkeypatch.setattr(pluto, "farkas_cone",
                            lambda relation: built.append(relation) or build(relation))
        for dep in deps:
            _farkas_rows(program, dep)
        relations = {d.relation.rows for d in deps}
        assert len(built) == len(relations) < len(deps)
        assert set(program._farkas_shapes) == relations
        for dep in deps:
            self.assert_fresh(program, dep)

    def test_two_analyses_share_nothing(self):
        data = bench_chain.chain(3)
        first, first_deps = analyze(data)
        second, second_deps = analyze(data)
        rows = [_farkas_rows(first, d) for d in first_deps]
        assert first._farkas_shapes and not second._farkas_shapes
        for dep, mine in zip(second_deps, rows):
            theirs = _farkas_rows(second, dep)
            assert all(a is not b and a.rows == b.rows
                       for a, b in zip(theirs, mine))

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
        # dependence's do not.
        assert len(program._farkas_shapes) == 1
        legality = [_farkas_rows(program, d)[0] for d in deps]
        assert legality[0].rows != legality[1].rows
        assert legality[2].variables == tuple(
            coefficient_variables(program.statement("Q"), ["N"]))

    def test_iterator_names_do_not_split_shapes(self):
        """Statements alike but for their names and iterator names share one
        elimination, and each one's rows equal a fresh build."""
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
        assert len(program._farkas_shapes) == 1


class TestFindHyperplane:
    def test_first_level_of_an_offset_pair(self, by_name):
        inst = by_name["shift_pair"]
        step = find_hyperplane(inst.program, inst.program.statements, inst.deps,
                               {}, SchedulerConfig(mode=LP), 1, 0)
        assert (step.level, step.kind, step.component) == (1, "loop", 0)
        assert step.factors == (1,) and step.parallel
        assert step.raw["c.P.i"] == 1 and step.raw["c.Q.i"] == 1
        assert step.raw["c0.P"] == 2 and step.raw["c0.Q"] == 0
        assert step.raw["u.N"] == 0 and step.raw["w"] == 0

    def test_exhausted_statements_get_no_row(self, by_name):
        inst = by_name["shift_pair"]
        prior = {"P": [R(1, 0, 2)], "Q": [R(1, 0, 0)]}
        step = find_hyperplane(inst.program, inst.program.statements, inst.deps,
                               prior, SchedulerConfig(mode=LP), 2, 0)
        assert step is None


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
        with pytest.raises(SchedulingError):
            schedule(program, deps, SchedulerConfig(mode=LP))
