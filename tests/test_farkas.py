import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysched import farkas
from polysched.farkas import (
    EQ, GE, ConstraintSystem, LinearRow, _prune, _row, eliminate,
    farkas_cone, legality_constraints, bounding_constraints,
)
from polysched.frontend import analyze
from polysched.ratlp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPProblem, solve_lp
from test_golden import EXPECTED_FARKAS, farkas_programs, workload_programs

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


# -- history pruning -----------------------------------------------------------


def reference_eliminate(system, kill):
    """`eliminate` without history pruning: Gaussian substitution, then
    Fourier-Motzkin keeping every combination that `_prune` keeps."""
    n = len(system.variables)
    rows = list(system.rows)
    for v in kill:
        b = system.lower[v]
        if b is not None:
            rows.append(_row(n, [(system.index(v), b.denominator)], -b.numerator, GE))
    for v in kill:
        col = system.index(v)
        coef = [dict(r.nonzero).get(col, 0) for r in rows]
        pivot = next((k for k, r in enumerate(rows) if r.kind == EQ and coef[k]), None)
        out = []
        if pivot is not None:
            p, pc = rows[pivot], coef[pivot]
            for k, (r, rc) in enumerate(zip(rows, coef)):
                if not rc:
                    out.append(r)
                elif k != pivot:
                    f = rc if pc > 0 else -rc
                    acc = {i: abs(pc) * c for i, c in r.nonzero}
                    for i, c in p.nonzero:
                        acc[i] = acc.get(i, 0) - f * c
                    out.append(_row(n, sorted(acc.items()),
                                    abs(pc) * r.const - f * p.const, r.kind))
        else:
            out = [r for r, c in zip(rows, coef) if not c]
            for lo, a in [(r, c) for r, c in zip(rows, coef) if c > 0]:
                for hi, b in [(r, -c) for r, c in zip(rows, coef) if c < 0]:
                    acc = {i: b * c for i, c in lo.nonzero}
                    for i, c in hi.nonzero:
                        acc[i] = acc.get(i, 0) + a * c
                    out.append(_row(n, sorted(acc.items()),
                                    b * lo.const + a * hi.const, GE))
        rows = [out[k] for k in _prune(out)]
    survivors = [v for v in system.variables if v not in set(kill)]
    at = {system.index(v): k for k, v in enumerate(survivors)}
    return ConstraintSystem(
        survivors,
        [LinearRow(tuple((at[i], c) for i, c in r.nonzero), r.const, r.kind,
                   len(survivors)) for r in rows],
        {v: system.lower[v] for v in survivors})


def implies(system, row) -> bool:
    """Does every point of the system's rows, with every variable free,
    satisfy `row`?  One `solve_lp` per sign of the row."""
    free = ConstraintSystem(system.variables, system.rows,
                            dict.fromkeys(system.variables))
    for sign in ((1, -1) if row.kind == EQ else (1,)):
        objective = {free.variables[i]: sign * c for i, c in row.nonzero}
        res = solve_lp(LPProblem.of(free, [objective]))
        if res.status == INFEASIBLE:
            return True
        if res.status != OPTIMAL or res.objective[0] + sign * row.const < 0:
            return False
    return True


def assert_same_shadow(pruned, reference):
    assert pruned.variables == reference.variables
    assert pruned.lower == reference.lower
    assert all(implies(pruned, r) for r in reference.rows)
    assert all(implies(reference, r) for r in pruned.rows)


@pytest.fixture(scope="module")
def farkas_eliminations(corpus):
    """Every (system, kill) that Farkas elimination is asked for by the
    ordering dependences of the corpus and of chain(4), by program."""
    calls = []

    def record(system, kill):
        calls.append((system, tuple(kill)))
        return eliminate(system, kill)

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(farkas, "eliminate", record)
        for name, (program, deps) in farkas_programs(corpus).items():
            calls.clear()
            for dep in deps:
                if dep.ordering:
                    src, dst = program.statement(dep.src), program.statement(dep.dst)
                    legality_constraints(dep, src, dst)
                    bounding_constraints(dep, src, dst)
            out[name] = list(calls)
    assert out["chain4"] and out["matmul"]  # the recorder saw the calls
    return out


@pytest.mark.parametrize("name", sorted(EXPECTED_FARKAS))
def test_pruned_farkas_rows_have_the_reference_shadow(farkas_eliminations, name):
    """Both ways, each system's rows imply the other's: the history rule
    drops only rows that the rows it keeps imply."""
    for system, kill in farkas_eliminations[name]:
        assert_same_shadow(eliminate(system, kill), reference_eliminate(system, kill))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pruning_keeps_the_shadow(data):
    """On small systems with repeated and parallel rows, pruning keeps the
    reference shadow and never keeps more rows than the reference."""
    n = data.draw(st.integers(3, 5))
    names = [f"x{k}" for k in range(n)]
    lower = {v: data.draw(st.sampled_from([F(0), F(1, 2), F(-1), None]))
             for v in names}
    small = st.integers(-2, 2)
    rows = data.draw(st.lists(
        st.tuples(st.lists(small, min_size=n, max_size=n), st.integers(-3, 3),
                  st.sampled_from([GE, GE, EQ])),
        min_size=1, max_size=7))
    for coeffs, const, kind in list(rows):
        how = data.draw(st.sampled_from(["none", "repeat", "scaled", "shifted"]))
        if how == "repeat":
            rows.append((coeffs, const, kind))
        elif how == "scaled":
            rows.append(([2 * c for c in coeffs], 2 * const, kind))
        elif how == "shifted":
            rows.append((coeffs, const + data.draw(small), GE))
    s = ConstraintSystem(names, (), lower)
    s = s.with_rows([s.row_from(dict(zip(names, c)), k, kind)
                     for c, k, kind in rows])
    kill = data.draw(st.lists(st.sampled_from(names), min_size=1,
                              max_size=min(3, n - 1), unique=True))
    pruned, reference = eliminate(s, kill), reference_eliminate(s, kill)
    assert len(pruned.rows) <= len(reference.rows)
    assert_same_shadow(pruned, reference)


def test_history_rule_skips_a_redundant_pair():
    """Eliminating y then z: the second step pairs rows of two history bits
    each, and the two pairs with four bits (k + 2 after k = 2 steps) are
    skipped.  Both give x + 1 >= 0, which 2x - 1 >= 0 implies."""
    s = ConstraintSystem(["x", "y", "z"], (), dict.fromkeys("xyz"))
    s = s.with_rows([s.row_from({"y": 1, "z": -1}),        # bit 1
                     s.row_from({"y": -1, "x": 1}),        # bit 2
                     s.row_from({"y": 1, "z": 1}, -1),     # bit 3
                     s.row_from({"y": -1}, 2)])            # bit 4
    pruned, reference = eliminate(s, ["y", "z"]), reference_eliminate(s, ["y", "z"])
    assert rows_as_tuples(reference) == [((F(2),), F(-1), GE), ((F(1),), F(1), GE)]
    assert rows_as_tuples(pruned) == [((F(2),), F(-1), GE)]
    assert_same_shadow(pruned, reference)


def test_prune_merges_equal_rows_onto_the_smaller_history():
    """Of equal rows the first with the fewest history bits is kept; a
    tighter row replaces a looser one whatever its history."""
    s = ConstraintSystem(["x", "y"])
    a, tight = s.row_from({"x": 1, "y": -1}), s.row_from({"x": 1, "y": -1}, -1)
    b = s.row_from({"y": 1})
    assert _prune([a, b, a, a], [0b111, 1, 0b11, 0b1100]) == [2, 1]
    assert _prune([a, b, a], [0b1, 1, 0b10]) == [0, 1]
    assert _prune([a, tight], [0b1, 0b111]) == [1]
    assert _prune([a, b, a]) == [0, 1]


# -- the Farkas cone -------------------------------------------------------------


def reference_farkas_system(dep, forms, variables):
    """Per-form Farkas elimination, for one affine form alone: the form (one
    {variable: weight} map per relation variable, then one for the constant)
    is equated with the slack plus one non-negative multiplier per ge row
    and two per eq row (one per sign), and the multipliers are eliminated."""
    ineqs = []
    for r in dep.relation.rows:
        ineqs.append((r.nonzero, r.const))
        if r.kind == EQ:
            ineqs.append((tuple((i, -c) for i, c in r.nonzero), -r.const))
    lam = [f"_l{k}" for k in range(len(ineqs) + 1)]  # lam[0] is the slack
    system = ConstraintSystem(list(variables) + lam)
    lhs = [dict(form) for form in forms]
    lhs[-1][lam[0]] = -1
    for k, (nonzero, c0) in enumerate(ineqs):
        for j, c in nonzero:
            lhs[j][lam[k + 1]] = -c
        if c0:
            lhs[-1][lam[k + 1]] = -c0
    return eliminate(system.with_rows(system.row_from(f, 0, EQ) for f in lhs), lam)


def reference_systems(dep, src, dst):
    """(legality, bounding) rows of `dep`, each by per-form elimination."""
    forms, variables = farkas._difference_form(dep, src, dst)
    neg = [{v: -w for v, w in form.items()} for form in forms]
    for p in dep.params:
        neg[dep.relation.index(p)][f"u.{p}"] = 1
    neg[-1]["w"] = 1
    bounds = [f"u.{p}" for p in dep.params] + ["w"]
    return (reference_farkas_system(dep, forms, variables),
            reference_farkas_system(dep, neg, bounds + variables))


RANDOM_NESTS = sorted(name for name in workload_programs() if name.startswith("random/"))


@pytest.fixture(scope="module")
def cone_programs(corpus):
    """(program, deps) of the corpus, chain(4) and the benchmark's random
    nests, by name."""
    programs = farkas_programs(corpus)
    programs.update((name, analyze(data)) for name, data in workload_programs().items()
                    if name in RANDOM_NESTS)
    return programs


@pytest.mark.parametrize("name", sorted(EXPECTED_FARKAS) + RANDOM_NESTS)
def test_cone_rows_have_the_per_form_shadow(cone_programs, name):
    """Both ways, the legality and bounding rows substituted into the
    relation's cone and those of per-form elimination imply each other."""
    program, deps = cone_programs[name]
    for dep in deps:
        if dep.ordering:
            src, dst = program.statement(dep.src), program.statement(dep.dst)
            mine = (legality_constraints(dep, src, dst),
                    bounding_constraints(dep, src, dst))
            for got, want in zip(mine, reference_systems(dep, src, dst)):
                assert_same_shadow(got, want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cone_holds_exactly_the_nonnegative_forms(data):
    """On a small non-empty relation of ge and eq rows through a known
    integer point, a small integer (a, b) is in `farkas_cone` exactly when
    the minimum of a.x + b over the relation is non-negative; unbounded
    below counts as outside.  One LP per form, no elimination."""
    n = data.draw(st.integers(1, 3))
    names = [f"x{k}" for k in range(n)]
    point = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    relation = ConstraintSystem(names, (), dict.fromkeys(names))
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        kind = data.draw(st.sampled_from([GE, GE, EQ]))
        slack = 0 if kind == EQ else data.draw(st.integers(0, 2))
        const = slack - sum(c * x for c, x in zip(coeffs, point))
        rows.append(relation.row_from(dict(zip(names, coeffs)), const, kind))
    relation = relation.with_rows(rows)
    assert relation.satisfied_by(dict(zip(names, point)))

    cone = farkas_cone(relation)
    assert cone.variables == tuple(f"a{j}" for j in range(n)) + ("b",)
    assert all(b is None for b in cone.lower.values())
    for _ in range(6):
        a = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        b = data.draw(st.integers(-3, 3))
        res = solve_lp(LPProblem.of(relation, [{v: c for v, c in zip(names, a) if c}]))
        assert res.status in (OPTIMAL, UNBOUNDED)
        expect = res.status == OPTIMAL and res.objective[0] + b >= 0
        form = {**{f"a{j}": c for j, c in enumerate(a)}, "b": b}
        assert cone.satisfied_by(form) == expect
