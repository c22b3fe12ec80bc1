import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysched.farkas import (
    EQ, GE, ConstraintSystem, _row, eliminate,
    legality_constraints, bounding_constraints,
)
from polysched.frontend import analyze
from polysched.ratlp import LPProblem, solve_lp

F = Fraction


def rows_as_tuples(system):
    return [(r.coeffs, r.const, r.kind) for r in system.rows]


def dense_row(coeffs, const, kind):
    """`_row` of a dense coefficient list."""
    return _row(len(coeffs), enumerate(coeffs), const, kind)


class TestNormalizeRow:
    def test_clears_denominators(self):
        row = dense_row([F(1, 2), F(1, 3)], F(1, 6), GE)
        assert row.coeffs == (F(3), F(2)) and row.const == F(1)

    def test_divides_by_gcd(self):
        row = dense_row([F(4), F(-6)], F(2), GE)
        assert row.coeffs == (F(2), F(-3)) and row.const == F(1)

    def test_equality_sign_is_canonical(self):
        a = dense_row([F(-2), F(4)], F(0), EQ)
        b = dense_row([F(1), F(-2)], F(0), EQ)
        assert a == b

    def test_inequality_sign_is_kept(self):
        row = dense_row([F(-1)], F(0), GE)
        assert row.coeffs == (F(-1),)

    def test_idempotent(self):
        row = dense_row([F(9, 4), F(0), F(-3)], F(6), EQ)
        again = _row(row.width, row.nonzero, row.const, row.kind)
        assert again == row

    def test_all_zero_row(self):
        row = dense_row([F(0), F(0)], F(0), EQ)
        assert row.coeffs == (F(0), F(0)) and row.const == 0


rational = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_from_gives_canonical_integer_rows(data):
    """`row_from` keeps only ints with gcd 1, gives an equality a positive
    first entry, and describes the same set as the rational row it was given."""
    n = data.draw(st.integers(1, 4))
    names = [f"x{k}" for k in range(n)]
    coeffs = data.draw(st.dictionaries(st.sampled_from(names), rational))
    const = data.draw(rational)
    kind = data.draw(st.sampled_from([GE, EQ]))
    row = ConstraintSystem(names).row_from(coeffs, const, kind)

    entries = [c for _, c in row.nonzero]
    assert all(type(c) is int and c for c in entries) and type(row.const) is int
    assert gcd(row.const, *entries) == 1 or (not entries and row.const == 0)
    if kind == EQ:  # entries are nonzero, so a first entry is positive
        assert (entries[0] if entries else row.const) >= 0
    assert [i for i, _ in row.nonzero] == sorted({i for i, _ in row.nonzero})
    assert row.coeffs == tuple(dict(row.nonzero).get(i, 0) for i in range(n))

    for point in data.draw(st.lists(st.lists(rational, min_size=n, max_size=n),
                                    min_size=1, max_size=5)):
        value = const + sum(c * point[names.index(v)] for v, c in coeffs.items())
        assert row.holds(point) == (value == 0 if kind == EQ else value >= 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_satisfied_by_agrees_with_rational_rows(data):
    """`satisfied_by`'s integer check gives the verdict of the bounds and of
    each row's rational `holds` at the same point."""
    n = data.draw(st.integers(1, 4))
    names = [f"x{k}" for k in range(n)]
    lower = data.draw(st.dictionaries(st.sampled_from(names),
                                      st.none() | rational))
    system = ConstraintSystem(names, (), lower)
    system = system.with_rows(
        system.row_from(data.draw(st.dictionaries(st.sampled_from(names), rational)),
                        data.draw(rational), data.draw(st.sampled_from([GE, EQ])))
        for _ in range(data.draw(st.integers(0, 4))))
    assignment = data.draw(st.dictionaries(st.sampled_from(names), rational))
    point = [F(assignment.get(v, system.lower[v] or 0)) for v in names]
    expect = (all(b is None or x >= b for x, b in zip(point, system.lower.values()))
              and all(r.holds(point) for r in system.rows))
    assert system.satisfied_by(assignment) == expect


class TestConstraintSystem:
    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSystem(["x", "x"])

    def test_default_lower_bound_is_zero(self):
        s = ConstraintSystem(["x", "y"], (), {"y": None})
        assert s.lower["x"] == 0 and s.lower["y"] is None

    def test_row_from_orders_coefficients(self):
        s = ConstraintSystem(["x", "y", "z"])
        row = s.row_from({"z": 2, "x": 1}, -1)
        assert row.coeffs == (F(1), F(0), F(2)) and row.const == F(-1)

    def test_prune_drops_duplicate_and_dominated(self):
        s = ConstraintSystem(["x"])
        rows = [s.row_from({"x": 1}, -1), s.row_from({"x": 1}, 0),
                s.row_from({"x": 1}, -1)]
        out = s.with_rows(rows)
        # x - 1 >= 0 implies x >= 0; the duplicate collapses too.
        assert rows_as_tuples(out) == [((F(1),), F(-1), GE)]

    def test_prune_keeps_tighter_late_row(self):
        s = ConstraintSystem(["x"])
        out = s.with_rows([s.row_from({"x": 1}, 0), s.row_from({"x": 1}, -5)])
        assert rows_as_tuples(out) == [((F(1),), F(-5), GE)]

    def test_prune_drops_tautologies_keeps_contradiction(self):
        s = ConstraintSystem(["x"])
        out = s.with_rows([s.row_from({}, 3, GE), s.row_from({}, 0, EQ),
                           s.row_from({}, -1, GE)])
        assert rows_as_tuples(out) == [((F(0),), F(-1), GE)]

    def test_satisfied_by_checks_bounds_and_rows(self):
        s = ConstraintSystem(["x", "y"])
        s = s.with_rows([s.row_from({"x": 1, "y": -1}, 0)])
        assert s.satisfied_by({"x": 2, "y": 1})
        assert not s.satisfied_by({"x": 1, "y": 2})
        assert not s.satisfied_by({"x": -1, "y": -1})


class TestEliminate:
    def test_gaussian_substitution(self):
        s = ConstraintSystem(["x", "y"], (), {"x": None, "y": None})
        s = s.with_rows([s.row_from({"x": 1, "y": -1}, 0, EQ),
                         s.row_from({"y": 1}, -2)])
        out = eliminate(s, ["y"])
        assert out.variables == ("x",)
        assert rows_as_tuples(out) == [((F(1),), F(-2), GE)]

    def test_fourier_motzkin_pairing(self):
        s = ConstraintSystem(["x", "y", "z"], (), dict.fromkeys("xyz", None))
        s = s.with_rows([s.row_from({"y": 1, "x": -1}),   # y >= x
                         s.row_from({"z": 1, "y": -1})])  # z >= y
        out = eliminate(s, ["y"])
        assert rows_as_tuples(out) == [((F(-1), F(1)), F(0), GE)]  # z >= x

    def test_lower_bounds_materialize(self):
        s = ConstraintSystem(["x", "y"])  # both >= 0
        s = s.with_rows([s.row_from({"x": 1, "y": 1}, -3)])
        out = eliminate(s, ["y"])
        # y <= anything has no upper row, so only x >= 0 remains implicit;
        # the shadow keeps no row at all.
        assert out.variables == ("x",)
        assert out.rows == ()

    def test_equality_pivot_with_negative_coefficient(self):
        s = ConstraintSystem(["x", "y", "z"], (), dict.fromkeys("xyz", None))
        s = s.with_rows([s.row_from({"x": 1, "y": -2}, 1, EQ),  # y = (x+1)/2
                         s.row_from({"y": 3, "z": -1}),
                         s.row_from({"y": -1, "z": 1})])
        out = eliminate(s, ["y"])
        assert out.variables == ("x", "z")
        # 3(x+1)/2 - z >= 0 and z - (x+1)/2 >= 0, cleared of denominators.
        assert rows_as_tuples(out) == [((F(3), F(-2)), F(3), GE),
                                       ((F(-1), F(2)), F(-1), GE)]

    def test_pair_with_common_factor_is_divided_out(self):
        s = ConstraintSystem(["x", "y"], (), {"x": None, "y": None})
        s = s.with_rows([s.row_from({"y": 2, "x": -1}, -1),   # 2y >= x + 1
                         s.row_from({"y": -2, "x": 3}, -1)])  # 2y <= 3x - 1
        out = eliminate(s, ["y"])
        # The pair sums to 4x - 4 >= 0.
        assert rows_as_tuples(out) == [((F(1),), F(-1), GE)]

    def test_fractional_lower_bound_of_killed_variable(self):
        s = ConstraintSystem(["x", "y"], (), {"x": None, "y": F(1, 2)})
        s = s.with_rows([s.row_from({"x": 1, "y": -1})])  # x >= y >= 1/2
        out = eliminate(s, ["y"])
        assert rows_as_tuples(out) == [((F(2),), F(-1), GE)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.integers(-4, 4)),
                    min_size=1, max_size=4),
           st.integers(0, 4), st.integers(0, 4))
    def test_projection_is_sound(self, rows, px, py):
        """Any feasible point of the original casts a feasible shadow."""
        s = ConstraintSystem(["x", "y"])
        s = s.with_rows([s.row_from({"x": a, "y": b}, c) for a, b, c in rows])
        if not s.satisfied_by({"x": px, "y": py}):
            return
        out = eliminate(s, ["y"])
        assert out.satisfied_by({"x": px})

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_projection_is_exact_on_a_box(self, data):
        """At every integer point of a box over the survivors, the shadow
        holds exactly when the original system is feasible there."""
        n = data.draw(st.integers(2, 4))
        names = [f"x{k}" for k in range(n)]
        lower = {v: data.draw(st.sampled_from([F(0), F(1, 2), F(-2), None]))
                 for v in names}
        rational = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
        rows = data.draw(st.lists(
            st.tuples(st.lists(rational, min_size=n, max_size=n), rational,
                      st.sampled_from([GE, EQ])),
            min_size=1, max_size=5))
        s = ConstraintSystem(names, (), lower)
        s = s.with_rows([s.row_from(dict(zip(names, c)), k, kind)
                         for c, k, kind in rows])
        kill = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                  max_size=min(2, n - 1), unique=True))
        out = eliminate(s, kill)
        for point in itertools.product(range(-2, 3), repeat=len(out.variables)):
            fixed = dict(zip(out.variables, point))
            pinned = s.with_rows([s.row_from({v: 1}, -x, EQ)
                                  for v, x in fixed.items()])
            assert out.satisfied_by(fixed) == bool(solve_lp(LPProblem.of(pinned)))


@pytest.fixture(scope="module")
def uniform_pair():
    program, deps = analyze({
        "params": ["N"],
        "statements": [
            {"id": "P", "iterators": ["i"],
             "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
             "accesses": [{"array": "a", "kind": "write", "map": [[1, 0, 0]]}],
             "order": 0},
            {"id": "Q", "iterators": ["i"],
             "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
             "accesses": [{"array": "a", "kind": "read", "map": [[1, 0, -1]]}],
             "order": 1},
        ],
    })
    (dep,) = [d for d in deps if d.kind == "RAW"]
    return program, dep


class TestSchedulingConstraints:
    def test_legality_admits_forward_schedules(self, uniform_pair):
        program, dep = uniform_pair
        src = program.statement("P")
        dst = program.statement("Q")
        system = legality_constraints(dep, src, dst)
        good = {"c.P.i": 1, "c.Q.i": 1, "c0.P": 0, "c0.Q": 0, "d.P.N": 0,
                "d.Q.N": 0}
        assert system.satisfied_by(good)
        # Q shifted one more step back would execute its reader first.
        assert not system.satisfied_by({**good, "c0.P": 2})
        assert system.satisfied_by({**good, "c0.Q": 2})

    def test_bounding_limits_the_difference(self, uniform_pair):
        program, dep = uniform_pair
        system = bounding_constraints(
            dep, program.statement("P"), program.statement("Q"))
        assert set(system.variables) >= {"u.N", "w"}
        base = {"c.P.i": 1, "c.Q.i": 1}
        # The dependence distance is 1, so w = 1 suffices and w = 0 does not.
        assert system.satisfied_by({**base, "w": 1})
        assert not system.satisfied_by({**base, "w": 0})
        assert system.satisfied_by({**base, "u.N": 1})
