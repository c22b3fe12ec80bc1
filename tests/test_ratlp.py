from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysched.farkas import EQ, ConstraintSystem
from polysched.ratlp import (
    INFEASIBLE, OPTIMAL, UNBOUNDED,
    LPProblem, ResourceLimitError, scale_to_integral, solve_ilp, solve_lexmin,
    solve_lp,
)

F = Fraction


def system(variables, rows, lower=None):
    s = ConstraintSystem(variables, (), lower)
    return s.with_rows([s.row_from(c, k, kind) for c, k, kind in rows])


class TestSolveLP:
    def test_minimum_at_a_bound(self):
        s = system(["x"], [({"x": 1}, -3, "ge")])
        res = solve_lp(LPProblem.of(s, ["x"]))
        assert res and res.status == OPTIMAL
        assert res.assignment["x"] == 3 and res.objective == (F(3),)

    def test_feasibility_only(self):
        s = system(["x", "y"], [({"x": 1, "y": 1}, -2, "ge")])
        res = solve_lp(LPProblem.of(s))
        assert res and res.objective == ()
        assert s.satisfied_by(res.assignment)

    def test_infeasible(self):
        s = system(["x"], [({"x": 1}, -3, "ge"), ({"x": -1}, 2, "ge")])
        res = solve_lp(LPProblem.of(s, ["x"]))
        assert not res and res.status == INFEASIBLE

    def test_unbounded(self):
        s = system(["x"], [({"x": 1}, 0, "ge")])
        res = solve_lp(LPProblem.of(s, [{"x": -1}]))
        assert res.status == UNBOUNDED

    def test_free_variable_goes_negative(self):
        s = system(["x"], [({"x": 1}, 5, "ge")], {"x": None})
        res = solve_lp(LPProblem.of(s, ["x"]))
        assert res.assignment["x"] == -5

    def test_exact_fraction(self):
        s = system(["x"], [({"x": 2}, -1, "ge")])
        res = solve_lp(LPProblem.of(s, ["x"]))
        assert res.assignment["x"] == F(1, 2)

    def test_equality_row(self):
        s = system(["x", "y"],
                   [({"x": 1, "y": 1}, -10, EQ), ({"y": -1}, 4, "ge")])
        res = solve_lp(LPProblem.of(s, ["x"]))
        assert res.assignment["x"] == 6 and res.assignment["y"] == 4

    def test_nonzero_lower_bound(self):
        s = system(["x", "y"], [({"x": 1, "y": 1}, -5, "ge")],
                   {"x": F(2)})
        res = solve_lp(LPProblem.of(s, [{"x": 1, "y": 1}]))
        assert res.objective == (F(5),)
        assert res.assignment["x"] >= 2

    def test_deterministic(self):
        s = system(["x", "y", "z"],
                   [({"x": 1, "y": 2, "z": 1}, -7, "ge"),
                    ({"x": 2, "y": 1}, -4, "ge")])
        prob = LPProblem.of(s, [{"x": 1, "y": 1, "z": 1}])
        first = solve_lp(prob)
        for _ in range(3):
            again = solve_lp(prob)
            assert again.assignment == first.assignment
            assert again.objective == first.objective


class TestLexmin:
    def test_stage_order_matters(self):
        s = system(["x", "y"], [({"x": 1, "y": 1}, -4, "ge")])
        res = solve_lexmin(LPProblem.of(s, ["x", "y"]))
        assert res.objective == (F(0), F(4))
        rev = solve_lexmin(LPProblem.of(s, ["y", "x"]))
        assert rev.objective == (F(0), F(4))
        assert rev.assignment["y"] == 0 and rev.assignment["x"] == 4

    def test_later_stage_breaks_ties(self):
        s = system(["x", "y"], [({"x": 1, "y": 1}, -4, "ge")])
        res = solve_lexmin(LPProblem.of(s, [{"x": 1, "y": 1}, {"x": 1}]))
        assert res.objective == (F(4), F(0))
        assert res.assignment["y"] == 4

    def test_earlier_optimum_is_never_traded(self):
        # Minimizing y first pins y = 0 even though the second stage would
        # prefer the point (0, 4).
        s = system(["x", "y"], [({"x": 1, "y": 1}, -4, "ge")])
        res = solve_lexmin(LPProblem.of(s, ["y", {"x": 1, "y": -1}]))
        assert res.assignment["y"] == 0 and res.assignment["x"] == 4

    def test_infeasible_propagates(self):
        s = system(["x"], [({"x": -1}, -1, "ge")])
        assert solve_lexmin(LPProblem.of(s, ["x"])).status == INFEASIBLE


class TestSolveILP:
    def test_rounds_fractional_relaxation(self):
        s = system(["x"], [({"x": 2}, -1, "ge")])
        prob = LPProblem.of(s, ["x"], ["x"])
        assert solve_lp(prob).assignment["x"] == F(1, 2)
        res = solve_ilp(prob)
        assert res.assignment["x"] == 1

    def test_branches_both_sides(self):
        s = system(["x", "y"], [({"x": 2, "y": 2}, -3, "ge")])
        res = solve_ilp(LPProblem.of(s, [{"x": 1, "y": 1}], ["x", "y"]))
        assert res.objective == (F(2),)
        assert all(res.assignment[v].denominator == 1 for v in "xy")
        assert s.satisfied_by(res.assignment)

    def test_infeasible_integrality(self):
        s = system(["x"], [({"x": 2}, -1, EQ)])
        assert solve_ilp(LPProblem.of(s, ["x"], ["x"])).status == INFEASIBLE

    def test_unbounded_relaxation_reported(self):
        s = system(["x"], [])
        res = solve_ilp(LPProblem.of(s, [{"x": -1}], ["x"]))
        assert res.status == UNBOUNDED

    def test_node_limit(self):
        s = system(["x"], [({"x": 2}, -1, "ge")])
        with pytest.raises(ResourceLimitError):
            solve_ilp(LPProblem.of(s, ["x"], ["x"]), node_limit=1)

    def test_non_integral_variables_stay_rational(self):
        s = system(["x", "y"], [({"x": 2, "y": 2}, -1, EQ)])
        res = solve_ilp(LPProblem.of(s, [{"y": 1}], ["x"]))
        assert res.assignment["x"] == 0 and res.assignment["y"] == F(1, 2)


class TestScaleToIntegral:
    def test_group_scaled_by_its_lcm(self):
        out = scale_to_integral({"a": F(1, 2), "b": F(3)}, [["a", "b"]])
        assert out.values == {"a": F(1), "b": F(6)}
        assert out.group_factors == (2,) and out.factor == 2

    def test_groups_scale_independently(self):
        out = scale_to_integral({"a": F(1, 2), "b": F(1, 3), "w": F(1, 6)},
                                [["a"], ["b"]])
        assert out.values == {"a": F(1), "b": F(1), "w": F(1)}
        assert out.group_factors == (2, 3)
        assert out.factor == 6  # shared w keeps up with both groups

    def test_ungrouped_only(self):
        out = scale_to_integral({"x": F(5, 4)})
        assert out.values == {"x": F(5)} and out.factor == 4
        assert out.group_factors == ()

    def test_integral_input_is_untouched(self):
        out = scale_to_integral({"x": F(2), "y": F(0)}, [["x", "y"]])
        assert out.values == {"x": F(2), "y": F(0)}
        assert out.factor == 1 and out.group_factors == (1,)


bounded_rows = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6)),
    min_size=0, max_size=4)


@settings(max_examples=80, deadline=None)
@given(bounded_rows, st.integers(0, 3), st.integers(0, 3))
def test_optimum_is_feasible(rows, cx, cy):
    s = system(["x", "y"],
               [({"x": a, "y": b}, c, "ge") for a, b, c in rows]
               + [({"x": -1}, 5, "ge"), ({"y": -1}, 5, "ge")])
    res = solve_lp(LPProblem.of(s, [{"x": cx, "y": cy}]))
    if res:
        assert s.satisfied_by(res.assignment)
        assert res.objective[0] == cx * res.assignment["x"] + cy * res.assignment["y"]


@settings(max_examples=80, deadline=None)
@given(bounded_rows, st.integers(0, 3), st.integers(0, 3))
def test_ilp_matches_grid_search(rows, cx, cy):
    """On a box, branch and bound must agree with trying every lattice point."""
    s = system(["x", "y"],
               [({"x": a, "y": b}, c, "ge") for a, b, c in rows]
               + [({"x": -1}, 5, "ge"), ({"y": -1}, 5, "ge")])
    prob = LPProblem.of(s, [{"x": cx, "y": cy}], ["x", "y"])
    res = solve_ilp(prob)

    best = None
    for x in range(6):
        for y in range(6):
            if s.satisfied_by({"x": x, "y": y}):
                val = cx * x + cy * y
                if best is None or val < best:
                    best = val
    if best is None:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert res.objective == (F(best),)
        relax = solve_lp(prob)
        assert relax.objective[0] <= res.objective[0]
