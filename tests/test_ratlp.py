from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysched import fcg, ratlp
from polysched.farkas import EQ, ZERO, ConstraintSystem, eliminate
from polysched.frontend import analyze
from polysched.postpass import dfp_schedule
from polysched.ratlp import (
    INFEASIBLE, OPTIMAL, UNBOUNDED,
    LPProblem, LPResult, ResourceLimitError, _Tableau, solve_ilp, solve_lexmin, solve_lp,
)
from polysched.pluto import ILP, LP, SchedulerConfig, dimension_terms, level_system, schedule
from inputs import ROOT, workloads
from test_dependences import corpus_programs

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
                   {"x": 2})
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
    def test_variable_order_decides(self):
        # The columns are minimized in the system's variable order.
        xy = system(["x", "y"], [({"x": 1, "y": 1}, -4, "ge")])
        res = solve_lexmin(LPProblem.of(xy))
        assert res.assignment == {"x": 0, "y": 4} and res.objective == ()
        yx = system(["y", "x"], [({"x": 1, "y": 1}, -4, "ge")])
        assert solve_lexmin(LPProblem.of(yx)).assignment == {"y": 0, "x": 4}

    def test_infeasible_propagates(self):
        s = system(["x"], [({"x": -1}, -1, "ge")])
        assert solve_lexmin(LPProblem.of(s)).status == INFEASIBLE

    def test_objectives_are_refused(self):
        # A lexmin has no objective to ignore, and an LP has at most one.
        s = system(["x", "y"], [({"x": 1, "y": 1}, -4, "ge")])
        for solve in (solve_lexmin, solve_ilp):
            with pytest.raises(ValueError):
                solve(LPProblem.of(s, ["y"]))
        with pytest.raises(ValueError):
            solve_lp(LPProblem.of(s, ["x", "y"]))

    @pytest.mark.parametrize("rows, want", [
        ([({"x": 1}, 5, "ge"), ({"x": -1}, -2, "ge")], -2),  # -5 <= x <= -2
        ([({"x": 1}, -3, "ge")], 3),                          # x >= 3
        ([({"x": 1}, 1, "ge"), ({"x": -1}, 4, "ge")], 0),     # -1 <= x <= 4
    ])
    def test_free_variable_takes_its_smallest_magnitude(self, rows, want):
        # With no objective list the lexmin runs over the tableau's columns:
        # a free variable's positive half, then its negative half.
        s = system(["x"], rows, {"x": None})
        res = solve_lexmin(LPProblem.of(s))
        assert res.assignment == {"x": want} and res.objective == ()

    def test_free_variables_take_their_halves_in_variable_order(self):
        # x - y = 5: both halves of the first variable come before either
        # half of the second, so the first variable gets magnitude 0.
        free = {"x": None, "y": None}
        xy = system(["x", "y"], [({"x": 1, "y": -1}, -5, EQ)], free)
        assert solve_lexmin(LPProblem.of(xy)).assignment == {"x": 0, "y": -5}
        yx = system(["y", "x"], [({"x": 1, "y": -1}, -5, EQ)], free)
        assert solve_lexmin(LPProblem.of(yx)).assignment == {"y": 0, "x": 5}


class TestDualSimplex:
    def test_tie_in_the_lexicographic_ratio_test(self):
        # Every column has the same ratio on the violated row and x's row
        # ties y and z: the later variable rows decide, and z takes the rise.
        s = system(["x", "y", "z"], [({"x": 1, "y": 1, "z": 1}, -1, "ge")])
        res = solve_lexmin(LPProblem.of(s))
        assert res.assignment == {"x": 0, "y": 0, "z": 1}

    def test_pivot_on_a_variable_row_with_a_denominator(self):
        # A structural row that has picked up a denominator becomes a pivot
        # row here; it must keep that denominator, or y reads 2.
        s = system(["x", "y"], [({"x": 3, "y": 1}, -1, "ge"),
                                ({"y": 2}, -1, "ge"),
                                ({"x": 3, "y": -3}, -2, "ge")])
        res = solve_lexmin(LPProblem.of(s))
        assert res.assignment == {"x": F(7, 6), "y": F(1, 2)}
        assert s.satisfied_by(res.assignment)

    def test_dependent_equalities(self):
        s = system(["x", "y"], [({"x": 1, "y": 1}, -2, EQ),
                                ({"x": 1, "y": -1}, 0, EQ),
                                ({"x": 2}, -2, EQ)])
        res = solve_lexmin(LPProblem.of(s))
        assert res.assignment == {"x": 1, "y": 1}

    def test_contradictory_equalities(self):
        s = system(["x", "y"], [({"x": 1, "y": 1}, -2, EQ),
                                ({"x": 1, "y": 1}, -3, EQ)])
        assert solve_lexmin(LPProblem.of(s)).status == INFEASIBLE
        assert solve_lp(LPProblem.of(s)).status == INFEASIBLE

    def test_infeasible_after_several_pivots(self):
        s = system(["x", "y", "z"], [({"x": 1}, -1, "ge"), ({"y": 1}, -1, "ge"),
                                     ({"z": 1}, -1, "ge"),
                                     ({"x": -1, "y": -1, "z": -1}, 2, "ge")])
        assert solve_lexmin(LPProblem.of(s)).status == INFEASIBLE
        assert solve_lp(LPProblem.of(s, [{"x": 1, "y": -1}])).status == INFEASIBLE

    def test_feasibility_with_free_variables(self):
        free = {"x": None, "y": None}
        s = system(["x", "y"], [({"x": 1, "y": 1}, 5, EQ),
                                ({"x": 1, "y": -1}, -3, "ge")], free)
        res = solve_lp(LPProblem.of(s))
        assert res and s.satisfied_by(res.assignment)
        cycle = system(["x", "y"], [({"x": 1, "y": -1}, -1, "ge"),
                                    ({"y": 1, "x": -1}, -1, "ge")], free)
        assert solve_lexmin(LPProblem.of(cycle)).status == INFEASIBLE


class TestSolveILP:
    def test_rounds_fractional_relaxation(self):
        s = system(["x"], [({"x": 2}, -1, "ge")])
        prob = LPProblem.of(s)
        assert solve_lexmin(prob).assignment["x"] == F(1, 2)
        res = solve_ilp(prob)
        assert res.assignment["x"] == 1

    def test_branches_both_sides(self):
        # The relaxation (0, 3/2) branches on y.  The side y <= 1, searched
        # first, takes seven nodes to end at (1, 1), after (2, 0); the side
        # y >= 2 then beats both with (0, 2) at the ninth.
        s = system(["x", "y"], [({"x": 2, "y": 2}, -3, "ge")])
        res = solve_ilp(LPProblem.of(s), node_limit=9)
        assert res.assignment == {"x": 0, "y": 2}
        with pytest.raises(ResourceLimitError):
            solve_ilp(LPProblem.of(s), node_limit=8)

    def test_infeasible_integrality(self):
        s = system(["x"], [({"x": 2}, -1, EQ)])
        assert solve_ilp(LPProblem.of(s)).status == INFEASIBLE

    def test_lexmin_is_never_unbounded(self):
        # The columns are non-negative, so a system with no rows has its
        # lexmin at the bounds, and a free variable at 0.
        s = system(["x", "y"], [], {"x": -3, "y": None})
        assert solve_ilp(LPProblem.of(s)).assignment == {"x": -3, "y": 0}

    def test_node_limit(self):
        s = system(["x"], [({"x": 2}, -1, "ge")])
        with pytest.raises(ResourceLimitError):
            solve_ilp(LPProblem.of(s), node_limit=1)

    def test_every_variable_is_integral(self):
        # x = 0 and y = 1/2 is the relaxation; no integer point has 2x + 2y = 1.
        s = system(["x", "y"], [({"x": 2, "y": 2}, -1, EQ)])
        assert solve_lexmin(LPProblem.of(s)).assignment == {"x": 0, "y": F(1, 2)}
        assert solve_ilp(LPProblem.of(s)).status == INFEASIBLE


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


def column_key(s, point):
    """The tableau's column values at `point`, in order: a bounded variable
    less its bound, a free one as its positive half, then its negative half."""
    key = []
    for v in s.variables:
        x, low = point[v], s.lower[v]
        key += [x - low] if low is not None else [max(x, 0), max(-x, 0)]
    return tuple(key)


@settings(max_examples=80, deadline=None)
@given(bounded_rows, st.sampled_from(["x", "y"]))
def test_ilp_matches_grid_search(rows, free):
    """On a box, branch and bound must find the lattice point with the least
    column values, the order the relaxation minimizes."""
    s = system(["x", "y"],
               [({"x": a, "y": b}, c, "ge") for a, b, c in rows]
               + [({v: -1}, 5, "ge") for v in "xy"] + [({free: 1}, 5, "ge")],
               {free: None})
    res = solve_ilp(LPProblem.of(s))

    grid = [{"x": x, "y": y} for x in range(-5, 6) for y in range(-5, 6)]
    best = min((p for p in grid if s.satisfied_by(p)),
               key=lambda p: column_key(s, p), default=None)
    if best is None:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert res.assignment == best
        relax = solve_lexmin(LPProblem.of(s))
        assert column_key(s, relax.assignment) <= column_key(s, best)


def reference_lexmin(s):
    """Lexmin of the tableau's columns without a simplex: each variable's
    range [lo, hi] is read off the system projected onto it by
    Fourier-Motzkin elimination, then the variable is fixed at the value its
    columns put first.  That is lo for a variable bounded below; a free one
    is its positive half, then its negative half, so it takes lo when lo > 0,
    hi when hi < 0, else 0.  None when the system is infeasible."""
    values = {}
    for v in s.variables:
        shadow = eliminate(s, [u for u in s.variables if u != v])
        lo, hi = shadow.lower[v], None
        for r in shadow.rows:
            a, c = r.coeffs[0], r.const
            if not a:
                if c < 0 or (r.kind == EQ and c):
                    return None
                continue
            x = Fraction(-c, a)
            if r.kind == EQ or a > 0:
                lo = x if lo is None else max(lo, x)
            if r.kind == EQ or a < 0:
                hi = x if hi is None else min(hi, x)
        if hi is not None and lo > hi:
            return None
        if s.lower[v] is None:
            lo = lo if lo > 0 else hi if hi < 0 else ZERO
        values[v] = lo = Fraction(lo)
        s = s.with_rows([s.row_from({v: lo.denominator}, -lo.numerator, EQ)])
    return values


small_rows = st.lists(
    st.tuples(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
              st.integers(-6, 6), st.sampled_from(["ge", EQ])),
    min_size=1, max_size=5)
bounds = st.sampled_from([0, 0, -2, 1, 3, None])


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), small_rows, st.lists(bounds, min_size=4, max_size=4))
def test_lexmin_matches_projection(n, rows, lower):
    """The dual simplex lexmin agrees with one projection per variable on a
    boxed system, free variables included."""
    names = ["x", "y", "z", "t"][:n]
    box = [({v: sign}, 4, "ge") for v in names for sign in (1, -1)]
    s = system(names,
               [(dict(zip(names, coeffs)), c, kind) for coeffs, c, kind in rows] + box,
               dict(zip(names, lower)))
    res = solve_lexmin(LPProblem.of(s))
    want = reference_lexmin(s)
    if want is None:
        assert res.status == INFEASIBLE
        assert solve_lp(LPProblem.of(s)).status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert res.assignment == want
        assert s.satisfied_by(solve_lp(LPProblem.of(s)).assignment)


def tableau_lexmin(s):
    """The lexmin as the tableau alone reaches it: (status, assignment)."""
    tab = _Tableau(s)
    return (OPTIMAL, tab.assignment()) if tab.lexmin() else (INFEASIBLE, {})


def tableaux_built(solve):
    """`solve()` and the number of `_Tableau`s it built."""
    built = []
    init = _Tableau.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "__init__", counted)
        return solve(), len(built)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), small_rows, st.lists(bounds, min_size=4, max_size=4),
       st.booleans())
def test_the_bound_point_exit_matches_the_tableau(n, rows, lower, at_bounds):
    """On boxed systems, half of them made to hold at the bound point by
    moving each row's constant, `solve_lexmin` gives the status and point
    of a tableau's lexmin, and builds one exactly when the bound point
    (`satisfied_by` of no values) breaks a row.  `solve_ilp` gives the same
    whenever that lexmin is integral or infeasible."""
    names = ["x", "y", "z", "t"][:n]
    low = dict(zip(names, lower))
    drawn = []
    for coeffs, c, kind in rows:
        form = dict(zip(names, coeffs))
        if at_bounds:
            value = c + sum(a * (low[v] or 0) for v, a in form.items())
            c -= value if kind == EQ else min(value, 0)
        drawn.append((form, c, kind))
    box = [({v: sign}, 4, "ge") for v in names for sign in (1, -1)]
    s = system(names, drawn + box, low)
    assert s.satisfied_by({}) or not at_bounds
    want = tableau_lexmin(s)
    res, built = tableaux_built(lambda: solve_lexmin(LPProblem.of(s)))
    assert (res.status, res.assignment) == want
    assert all(type(x) is Fraction for x in res.assignment.values())
    assert built == (not s.satisfied_by({}))
    if want[0] == INFEASIBLE or all(x.denominator == 1 for x in want[1].values()):
        res, built = tableaux_built(lambda: solve_ilp(LPProblem.of(s)))
        assert (res.status, res.assignment) == want
        assert built == (not s.satisfied_by({}))


def test_the_bound_point_exit_on_the_workloads():
    """How many of each path's solves on the benchmark workloads end at the
    bound point with no tableau, per workload and path: (skipped, solves).
    `ilp` and `lp` add rows that the bound point breaks at every level;
    the `chain` scale/shift levels hold there.  `dfp` solves one fusion
    probe, on `corpus`; the dependence minima decide the rest."""
    counts = {}

    def counting(solve, key):
        def run(problem, *args):
            result, built = tableaux_built(lambda: solve(problem, *args))
            counts[key][0] += not built
            counts[key][1] += 1
            return result
        return run

    for workload in ("corpus", "chain", "random"):
        for mode in (ILP, LP, "dfp"):
            key = (workload, mode)
            counts[key] = [0, 0]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ratlp, "solve_lexmin", counting(ratlp.solve_lexmin, key))
                mp.setattr(ratlp, "solve_ilp", counting(ratlp.solve_ilp, key))
                for _, data in workloads.programs(workload, ROOT / "src"):
                    program, deps = analyze(data)
                    if mode == "dfp":
                        dfp_schedule(program, deps)
                    else:
                        schedule(program, deps, SchedulerConfig(mode=mode))
    assert {k: tuple(v) for k, v in counts.items()} == {
        ("corpus", ILP): (0, 22), ("corpus", LP): (0, 22), ("corpus", "dfp"): (12, 22),
        ("chain", ILP): (0, 4), ("chain", LP): (0, 4), ("chain", "dfp"): (4, 4),
        ("random", ILP): (0, 29), ("random", LP): (0, 29), ("random", "dfp"): (3, 26),
    }


def test_pivot_counts_on_the_workloads():
    """How many pivots each path takes on the benchmark workloads, per
    workload and path.  Leaving on the first negative row took 143, 83 and
    20 on `corpus`, 116, 116 and 0 on `chain`, and 142, 132 and 51 on
    `random`."""
    counts = {}
    pivot = _Tableau._pivot

    def counted(self, r, j):
        counts[key] += 1
        return pivot(self, r, j)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "_pivot", counted)
        for workload in ("corpus", "chain", "random"):
            for mode in (ILP, LP, "dfp"):
                key = (workload, mode)
                counts[key] = 0
                for _, data in workloads.programs(workload, ROOT / "src"):
                    program, deps = analyze(data)
                    if mode == "dfp":
                        dfp_schedule(program, deps)
                    else:
                        schedule(program, deps, SchedulerConfig(mode=mode))
    assert counts == {
        ("corpus", ILP): 112, ("corpus", LP): 63, ("corpus", "dfp"): 16,
        ("chain", ILP): 48, ("chain", LP): 48, ("chain", "dfp"): 0,
        ("random", ILP): 98, ("random", LP): 90, ("random", "dfp"): 35,
    }


def reference_ilp(s):
    """Branch and bound that rebuilds every node from its system, with a
    fresh tableau: (result, nodes opened).  `solve_ilp` must open the same
    nodes and end at the same optimum while it resumes each child from its
    parent's tableau."""
    stack, best, nodes = [s], None, 0
    while stack:
        system = stack.pop()
        nodes += 1
        res = solve_lexmin(LPProblem.of(system))
        if not res:
            continue
        key = column_key(system, res.assignment)
        if best and key >= best[0]:
            continue
        x = res.assignment
        frac = next((v for v in system.variables if x[v].denominator != 1), None)
        if frac is None:
            best = key, res
            continue
        stack.append(system.with_rows([system.row_from({frac: 1}, -ceil(x[frac]))]))
        stack.append(system.with_rows([system.row_from({frac: -1}, floor(x[frac]))]))
    return (best[1] if best else LPResult(INFEASIBLE)), nodes


def assert_same_search(s):
    want, nodes = reference_ilp(s)
    got = solve_ilp(LPProblem.of(s), node_limit=nodes)
    assert (got.status, got.assignment) == (want.status, want.assignment)
    with pytest.raises(ResourceLimitError):
        solve_ilp(LPProblem.of(s), node_limit=nodes - 1)
    return nodes


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), small_rows, st.lists(bounds, min_size=4, max_size=4))
def test_warm_started_branch_and_bound_opens_the_reference_nodes(n, rows, lower):
    """On boxed systems with free and shifted bounds, resuming
    each child from its parent's tableau opens exactly the nodes of a
    rebuild per node and ends at the same optimum."""
    names = ["x", "y", "z", "t"][:n]
    box = [({v: sign}, 4, "ge") for v in names for sign in (1, -1)]
    s = system(names,
               [(dict(zip(names, coeffs)), c, kind) for coeffs, c, kind in rows] + box,
               dict(zip(names, lower)))
    assert_same_search(s)


def test_warm_started_branch_and_bound_on_the_corpus_levels(corpus):
    """Every `ilp` level system of the corpus: the same nodes and optimum
    as a rebuild per node, and some levels branch."""
    branched = 0
    for inst in corpus:
        for step in schedule(inst.program, inst.deps, SchedulerConfig(mode=ILP)).steps:
            if step.system is not None:
                branched += assert_same_search(step.system) > 1
    assert branched


# -- pivot-for-pivot identity with the dense pivot ------------------------------


def reference_pivot(self, r: int, j: int):
    """`_Tableau._pivot` over every column of each row it rewrites; returns
    the rows it rewrote."""
    rows, den = self.rows, self.den
    rewritten = [r]
    prow = rows[r]
    p = prow[j]
    sign = 1
    if p < 0:
        prow, p, sign = [-c for c in prow], -p, -1
    for i, row in enumerate(rows):
        f = row[j]
        if not f or i == r:
            continue
        if p == 1:
            new = [a - f * b for a, b in zip(row, prow)]
        else:
            new = [p * a - f * b for a, b in zip(row, prow)]
        new[j] = sign * f
        if i < self.n:
            d = den[i] * p
            g = gcd(d, *new)
            den[i] = d // g
        else:
            g = gcd(*new)
        if g > 1:
            new = [c // g for c in new]
        rows[i] = new
        rewritten.append(i)
    # Column j now stands for row r's numerator, so a structural row
    # keeps its denominator.
    unit = [0] * len(prow)
    unit[j] = 1
    rows[r] = unit
    self.col_var[j] = r
    return rewritten


PIVOT = _Tableau._pivot


def pivot_trace(solve, pivot):
    """`solve()` with `_Tableau._pivot` replaced by `pivot`, and the
    (row, column, element, sorted rows rewritten) of each pivot it took."""
    trace = []

    def traced(self, r, j):
        element = self.rows[r][j]
        rewritten = pivot(self, r, j)
        trace.append((r, j, element, sorted(rewritten)))
        return rewritten

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "_pivot", traced)
        return solve(), trace


def lexmin_and_children(system, cost=None):
    """The final state of `lexmin`, then of `minimize` when there is a
    `cost`, else of both `branched` children of every fractional variable:
    each outcome with the tableau's columns, denominators and rows."""
    def state(tab, outcome):
        return outcome, tab.columns(), tuple(tab.den), tuple(map(tuple, tab.rows))

    tab = _Tableau(system, cost)
    out = [state(tab, tab.lexmin())]
    if not out[0][0]:
        return out
    if cost is not None:
        return out + [state(tab, tab.minimize())]
    x = tab.assignment()
    for v in system.variables:
        if x[v].denominator != 1:
            for bound, up in ((ceil(x[v]), True), (floor(x[v]), False)):
                child = tab.branched(v, bound, up)
                out.append(state(child, child.lexmin()))
    return out


def assert_same_pivots(system, cost=None, ilp=True):
    """`lexmin`, `minimize`, the `branched` children and `solve_ilp` take
    the reference pivots, each returning the rows the reference rewrote,
    and end in the reference states; returns the pivots taken."""
    got = pivot_trace(lambda: lexmin_and_children(system, cost), PIVOT)
    assert got == pivot_trace(lambda: lexmin_and_children(system, cost), reference_pivot)
    trace = got[1]
    if ilp:
        solve = lambda: solve_ilp(LPProblem.of(system))  # noqa: E731
        got = pivot_trace(solve, PIVOT)
        assert got == pivot_trace(solve, reference_pivot)
        trace += got[1]
    return trace


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), small_rows, st.lists(bounds, min_size=4, max_size=4),
       st.one_of(st.none(), st.lists(st.integers(-2, 2), min_size=4, max_size=4)))
@example(2, [([2, 2, 0, 0], -3, "ge"), ([3, -3, 0, 0], -2, "ge")], [1, None] * 2, None)
def test_pivots_match_the_dense_pivot(n, rows, lower, cost):
    """On boxed systems with equalities, free variables, shifted lower
    bounds and pivot elements other than 1, every solve takes the dense
    pivot's pivots and ends in its state."""
    names = ["x", "y", "z", "t"][:n]
    box = [({v: sign}, 4, "ge") for v in names for sign in (1, -1)]
    s = system(names,
               [(dict(zip(names, coeffs)), c, kind) for coeffs, c, kind in rows] + box,
               dict(zip(names, lower)))
    assert_same_pivots(s, cost and dict(zip(names, cost)))


def test_the_drawn_pivots_reach_elements_other_than_one():
    s = system(["x", "y"], [({"x": 3, "y": 1}, -1, "ge"), ({"y": 2}, -1, "ge"),
                            ({"x": 3, "y": -3}, -2, "ge")])
    assert {abs(p) for _, _, p, _ in assert_same_pivots(s)} > {1}


def workload_systems():
    """Every system the three paths solve on the corpus, chain(8) and the
    `random` workload, each with whether `solve_ilp` took it, and the
    level system of every fusion probe that `build_fcg` asks, built
    here whether or not the dependence minima decide the probe."""
    programs = [analyze(data) for data in corpus_programs() + [workloads.chain(8)] + [
        data for _, data in workloads.programs("random", ROOT / "src")]]
    systems = {}

    def record(s, ilp):
        entry = systems.setdefault((s.variables, s.rows, tuple(s.lower.items())), [s, False])
        entry[1] |= ilp

    def recorder(solve, ilp):
        def recorded(problem, *args):
            record(problem.system, ilp)
            return solve(problem, *args)
        return recorded

    def probed(program, choose, deps, parametric_shifts=False):
        terms = dimension_terms(program, choose, parametric_shifts)
        record(level_system(program, deps, terms), False)
        return probe(program, choose, deps, parametric_shifts)

    probe = fcg.fusion_probe
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratlp, "solve_lexmin", recorder(ratlp.solve_lexmin, False))
        mp.setattr(ratlp, "solve_ilp", recorder(ratlp.solve_ilp, True))
        mp.setattr(fcg, "fusion_probe", probed)
        for program, deps in programs:
            for mode in (ILP, LP):
                schedule(program, deps, SchedulerConfig(mode=mode))
            dfp_schedule(program, deps)
    return list(systems.values())


def test_pivots_match_the_dense_pivot_on_the_level_systems():
    """Every system of `workload_systems`, every level system of
    `solve_level` among them, takes the dense pivot's pivots: lexmin with
    its children, and `solve_ilp` on the systems `ilp` gives it."""
    systems = workload_systems()
    elements = set()
    for s, ilp in systems:
        elements.update(abs(p) for _, _, p, _ in assert_same_pivots(s, ilp=ilp))
    assert len(systems) > 150 and elements > {1}


# -- the leaving row changes the pivots, never the result ------------------------


def first_negative_lexmin(self) -> bool:
    """`_Tableau.lexmin` leaving on the first row with a negative constant."""
    rows = self.rows
    while True:
        r = next((i for i in range(self.m) if rows[i][0] < 0), -1)
        if r < 0:
            return True
        prow = rows[r]
        best = 0
        for j in [j for j, a in enumerate(prow) if a > 0 and j]:
            if not best or self._lex_less(j, prow[j], best, prow[best]):
                best = j
        if not best:
            return False
        self._pivot(r, best)


def results(system):
    """Status and assignment of `solve_lexmin`, `solve_ilp`, and the lexmin
    of both `branched` children of every fractional variable."""
    def outcome(res):
        return res.status, res.assignment

    out = [outcome(solve_lexmin(LPProblem.of(system))),
           outcome(solve_ilp(LPProblem.of(system)))]
    tab = _Tableau(system)
    if tab.lexmin():
        x = tab.assignment()
        for v in system.variables:
            if x[v].denominator != 1:
                for bound, up in ((ceil(x[v]), True), (floor(x[v]), False)):
                    child = tab.branched(v, bound, up)
                    out.append(child.lexmin() and child.assignment())
    return out


def assert_same_results(system):
    got = results(system)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "lexmin", first_negative_lexmin)
        assert got == results(system)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), small_rows, st.lists(bounds, min_size=4, max_size=4))
def test_the_leaving_row_keeps_every_result(n, rows, lower):
    """On boxed systems with equalities, free variables and shifted lower
    bounds, leaving on the first negative row gives the same lexmin,
    integer lexmin and branched children."""
    names = ["x", "y", "z", "t"][:n]
    box = [({v: sign}, 4, "ge") for v in names for sign in (1, -1)]
    assert_same_results(system(
        names, [(dict(zip(names, coeffs)), c, kind) for coeffs, c, kind in rows] + box,
        dict(zip(names, lower))))


def test_the_leaving_row_keeps_every_result_on_the_level_systems():
    """The same on every system of `workload_systems`."""
    systems = workload_systems()
    for s, _ in systems:
        assert_same_results(s)
    assert len(systems) > 150
