import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysched import farkas, frontend, model, pluto
from polysched.farkas import (
    EQ, GE, ConstraintSystem, LinearRow, _int_row, _prune, eliminate,
    coefficient_variables, farkas_cone, legality_constraints, bounding_constraints,
)
from polysched.frontend import analyze
from polysched.ratlp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPProblem, solve_lp
from inputs import ROOT, bench_chain, workloads
from test_dependences import corpus_programs

F = Fraction

#: Program JSON of every corpus instance, of chain(4) and of every `random`
#: benchmark program, by name: the programs whose Farkas systems the shadow
#: tests below compare with per-form elimination.
SHADOW_PROGRAMS = {**dict(workloads.programs("corpus", ROOT / "src")),
                   "chain4": bench_chain.chain(4),
                   **{f"random/{name}": data
                      for name, data in workloads.programs("random", ROOT / "src")}}


def rows_as_tuples(system):
    return [(r.coeffs, r.const, r.kind) for r in system.rows]


def dense_row(coeffs, const, kind):
    """`_int_row` of a dense coefficient list."""
    return _int_row(len(coeffs), dict(enumerate(coeffs)), const, kind)


class TestNormalizeRow:
    def test_divides_by_gcd(self):
        row = dense_row([4, -6], 2, GE)
        assert row.coeffs == (2, -3) and row.const == 1

    def test_equality_sign_is_canonical(self):
        a = dense_row([-2, 4], 0, EQ)
        b = dense_row([1, -2], 0, EQ)
        assert a == b

    def test_inequality_sign_is_kept(self):
        row = dense_row([-1], 0, GE)
        assert row.coeffs == (-1,)

    def test_idempotent(self):
        row = dense_row([9, 0, -12], 24, EQ)
        again = _int_row(row.width, dict(row.nonzero), row.const, row.kind)
        assert again == row and row.coeffs == (3, 0, -4) and row.const == 8

    def test_all_zero_row(self):
        row = dense_row([0, 0], 0, EQ)
        assert row.coeffs == (0, 0) and row.const == 0


rational = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
integer = st.integers(-12, 12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_from_gives_canonical_integer_rows(data):
    """`row_from` keeps only ints with gcd 1, gives an equality a positive
    first entry, and describes the same set as the int row it was given,
    at rational points."""
    n = data.draw(st.integers(1, 4))
    names = [f"x{k}" for k in range(n)]
    coeffs = data.draw(st.dictionaries(st.sampled_from(names), integer))
    const = data.draw(integer)
    kind = data.draw(st.sampled_from([GE, EQ]))
    row = ConstraintSystem(names).row_from(coeffs, const, kind)

    entries = [c for _, c in row.nonzero]
    assert all(type(c) is int and c for c in entries) and type(row.const) is int
    assert gcd(row.const, *entries) == 1 or (not entries and row.const == 0)
    if kind == EQ:  # entries are nonzero, so a first entry is positive
        assert (entries[0] if entries else row.const) >= 0
    assert [i for i, _ in row.nonzero] == sorted({i for i, _ in row.nonzero})
    assert row.coeffs == tuple(dict(row.nonzero).get(i, 0) for i in range(n))

    free = ConstraintSystem(names, (row,), dict.fromkeys(names))
    for point in data.draw(st.lists(st.lists(rational, min_size=n, max_size=n),
                                    min_size=1, max_size=5)):
        value = const + sum(c * point[names.index(v)] for v, c in coeffs.items())
        assert free.satisfied_by(dict(zip(names, point))) == (
            value == 0 if kind == EQ else value >= 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_satisfied_by_agrees_with_rational_rows(data):
    """`satisfied_by`'s integer check gives the verdict of the bounds and of
    each row it was built from, evaluated at the same rational point."""
    n = data.draw(st.integers(1, 4))
    names = [f"x{k}" for k in range(n)]
    lower = data.draw(st.dictionaries(st.sampled_from(names),
                                      st.none() | integer))
    drawn = [(data.draw(st.dictionaries(st.sampled_from(names), integer)),
              data.draw(integer), data.draw(st.sampled_from([GE, EQ])))
             for _ in range(data.draw(st.integers(0, 4)))]
    system = ConstraintSystem(names, (), lower)
    system = system.with_rows(system.row_from(*row) for row in drawn)
    assignment = data.draw(st.dictionaries(st.sampled_from(names), rational))
    point = dict(zip(names, (F(assignment.get(v, system.lower[v] or 0)) for v in names)))
    values = [(const + sum(c * point[v] for v, c in coeffs.items()), kind)
              for coeffs, const, kind in drawn]
    expect = (all(b is None or point[v] >= b for v, b in system.lower.items())
              and all(x == 0 if kind == EQ else x >= 0 for x, kind in values))
    assert system.satisfied_by(assignment) == expect


class TestConstraintSystem:
    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSystem(["x", "x"])

    def test_default_lower_bound_is_zero(self):
        s = ConstraintSystem(["x", "y"], (), {"y": None})
        assert s.lower["x"] == 0 and s.lower["y"] is None

    def test_rational_lower_bound_rejected(self):
        with pytest.raises(TypeError, match="lower bound of y"):
            ConstraintSystem(["x", "y"], (), {"y": F(1, 2)})

    def test_row_from_rejects_a_rational_coefficient(self):
        s = ConstraintSystem(["x", "y"])
        with pytest.raises(TypeError):
            s.row_from({"x": 1, "y": F(1, 2)})

    def test_row_from_orders_coefficients(self):
        s = ConstraintSystem(["x", "y", "z"])
        row = s.row_from({"z": 2, "x": 1}, -1)
        assert row.coeffs == (1, 0, 2) and row.const == -1

    def test_prune_drops_duplicate_and_dominated(self):
        s = ConstraintSystem(["x"])
        rows = [s.row_from({"x": 1}, -1), s.row_from({"x": 1}, 0),
                s.row_from({"x": 1}, -1)]
        out = s.with_rows(rows)
        # x - 1 >= 0 implies x >= 0; the duplicate collapses too.
        assert rows_as_tuples(out) == [((1,), -1, GE)]

    def test_prune_keeps_tighter_late_row(self):
        s = ConstraintSystem(["x"])
        out = s.with_rows([s.row_from({"x": 1}, 0), s.row_from({"x": 1}, -5)])
        assert rows_as_tuples(out) == [((1,), -5, GE)]

    def test_prune_drops_tautologies_keeps_contradiction(self):
        s = ConstraintSystem(["x"])
        out = s.with_rows([s.row_from({}, 3, GE), s.row_from({}, 0, EQ),
                           s.row_from({}, -1, GE)])
        assert rows_as_tuples(out) == [((0,), -1, GE)]

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
        assert rows_as_tuples(out) == [((1,), -2, GE)]

    def test_fourier_motzkin_pairing(self):
        s = ConstraintSystem(["x", "y", "z"], (), dict.fromkeys("xyz", None))
        s = s.with_rows([s.row_from({"y": 1, "x": -1}),   # y >= x
                         s.row_from({"z": 1, "y": -1})])  # z >= y
        out = eliminate(s, ["y"])
        assert rows_as_tuples(out) == [((-1, 1), 0, GE)]  # z >= x

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
        assert rows_as_tuples(out) == [((3, -2), 3, GE),
                                       ((-1, 2), -1, GE)]

    def test_pair_with_common_factor_is_divided_out(self):
        s = ConstraintSystem(["x", "y"], (), {"x": None, "y": None})
        s = s.with_rows([s.row_from({"y": 2, "x": -1}, -1),   # 2y >= x + 1
                         s.row_from({"y": -2, "x": 3}, -1)])  # 2y <= 3x - 1
        out = eliminate(s, ["y"])
        # The pair sums to 4x - 4 >= 0.
        assert rows_as_tuples(out) == [((1,), -1, GE)]

    def test_fractional_lower_bound_of_killed_variable(self):
        s = ConstraintSystem(["x", "y"], (), {"x": None, "y": 1})
        s = s.with_rows([s.row_from({"x": 2, "y": -1})])  # x >= y/2 >= 1/2
        out = eliminate(s, ["y"])
        assert rows_as_tuples(out) == [((2,), -1, GE)]

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
        lower = {v: data.draw(st.sampled_from([0, 1, -2, None])) for v in names}
        small = st.integers(-3, 3)
        rows = data.draw(st.lists(
            st.tuples(st.lists(small, min_size=n, max_size=n), small,
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


def reference_prune(rows, hist=()):
    """`_prune` stated directly: tautologies go; the rows that share a
    coefficient vector (ge), or are one equality, leave the one with the
    least (constant, history bits, index) in the place of the first."""
    best = {}
    for k, r in enumerate(rows):
        if not r.nonzero and (r.const == 0 if r.kind == EQ else r.const >= 0):
            continue
        key = (r.kind, r.nonzero, r.const if r.kind == EQ else None)
        rank = (r.const, hist[k].bit_count() if hist else 0, k)
        if key not in best or rank < best[key][0]:
            best[key] = (rank, k)
    return [k for _, k in best.values()]


def reference_eliminate(system, kill, history=False):
    """`eliminate` stated directly: columns in the system's order, each
    step's coefficients read from a dict of each row, every combination
    made canonical by `_int_row`, and `reference_prune` after every
    step.  Without `history`, Fourier-Motzkin keeps every combination that
    pruning keeps; with it, the rows carry `eliminate`'s histories and
    Chernikov's rule skips pairs as there."""
    n = len(system.variables)
    rows = list(system.rows)
    for v in kill:
        b = system.lower[v]
        if b is not None:
            rows.append(_int_row(n, {system.index(v): 1}, -b, GE))
    hist, bit = [], 1
    for r in rows:
        if r.kind == EQ:
            hist.append(0)
        else:
            hist.append(bit)
            bit <<= 1
    steps = 0
    for v in kill:
        col = system.index(v)
        coef = [dict(r.nonzero).get(col, 0) for r in rows]
        pivot = next((k for k, r in enumerate(rows) if r.kind == EQ and coef[k]), None)
        out, out_hist = [], []
        if pivot is not None:
            p, pc = rows[pivot], coef[pivot]
            for k, (r, rc, h) in enumerate(zip(rows, coef, hist)):
                if not rc:
                    out.append(r)
                    out_hist.append(h)
                elif k != pivot:
                    f = rc if pc > 0 else -rc
                    acc = {i: abs(pc) * c for i, c in r.nonzero}
                    for i, c in p.nonzero:
                        acc[i] = acc.get(i, 0) - f * c
                    out.append(_int_row(n, acc, abs(pc) * r.const - f * p.const, r.kind))
                    out_hist.append(h | hist[pivot])
        else:
            steps += 1
            out = [r for r, c in zip(rows, coef) if not c]
            out_hist = [h for h, c in zip(hist, coef) if not c]
            for lo, a, hl in [(r, c, h) for r, c, h in zip(rows, coef, hist) if c > 0]:
                for hi, b, hh in [(r, -c, h) for r, c, h in zip(rows, coef, hist) if c < 0]:
                    if history and (hl | hh).bit_count() > steps + 1:
                        continue
                    acc = {i: b * c for i, c in lo.nonzero}
                    for i, c in hi.nonzero:
                        acc[i] = acc.get(i, 0) + a * c
                    out.append(_int_row(n, acc, b * lo.const + a * hi.const, GE))
                    out_hist.append(hl | hh)
        kept = reference_prune(out, out_hist if history else ())
        rows, hist = [out[k] for k in kept], [out_hist[k] for k in kept]
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


def multiplier_system(relation):
    """The system that `farkas_cone` projects, with its kill list.  Its
    variables are one multiplier per row of `relation` (`_l<k>` for row k,
    free for an eq row and >= 0 for a ge row) and the slack `_l` (>= 0),
    then the free unknowns a0, ..., a(n-1) and b; its rows are the
    equations a_j = sum_k _l<k> * r_kj and b = _l + sum_k _l<k> * c_k.
    The kill list is the eq rows' multipliers, the slack, then the ge
    rows' multipliers, each in row order."""
    n = len(relation.variables)
    eqs = [f"_l{k}" for k, r in enumerate(relation.rows) if r.kind == EQ]
    ges = [f"_l{k}" for k, r in enumerate(relation.rows) if r.kind != EQ]
    kill = eqs + ["_l"] + ges
    unknowns = [f"a{j}" for j in range(n)] + ["b"]
    s = ConstraintSystem(kill + unknowns, (), dict.fromkeys(eqs + unknowns))
    forms = [{f"a{j}": 1} for j in range(n)] + [{"b": 1, "_l": -1}]
    for k, r in enumerate(relation.rows):
        for j, c in r.nonzero:
            forms[j][f"_l{k}"] = -c
        if r.const:
            forms[n][f"_l{k}"] = -r.const
    return s.with_rows([s.row_from(form, 0, EQ) for form in forms]), kill


@pytest.fixture(scope="module")
def shadow_programs():
    """(program, deps) of each of `SHADOW_PROGRAMS`, by name."""
    return {name: analyze(data) for name, data in SHADOW_PROGRAMS.items()}


@pytest.fixture(scope="module")
def farkas_eliminations(shadow_programs):
    """The multiplier system and kill list of the cone of every ordering
    dependence of `SHADOW_PROGRAMS`, by program."""
    out = {name: [multiplier_system(dep.relation) for dep in deps if dep.ordering]
           for name, (program, deps) in shadow_programs.items()}
    assert out["chain4"] and out["matmul"]
    return out


@pytest.mark.parametrize("name", sorted(SHADOW_PROGRAMS))
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
    lower = {v: data.draw(st.sampled_from([0, 1, -1, None])) for v in names}
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
    assert rows_as_tuples(reference) == [((2,), -1, GE), ((1,), 1, GE)]
    assert rows_as_tuples(pruned) == [((2,), -1, GE)]
    assert_same_shadow(pruned, reference)


def test_prune_merges_equal_rows_onto_the_smaller_history():
    """On dense rows whose last field is the history, of equal rows the
    first with the fewest history bits is kept; a tighter row replaces a
    looser one whatever its history.  Without `by_history` the first of
    equal rows is kept."""
    def a(hist, const=0):  # x - y + const >= 0
        return ((1, -1), const, GE, hist)

    b = ((0, 1), 0, GE, 1)
    assert _prune([a(0b111), b, a(0b11), a(0b1100)], by_history=True) == [2, 1]
    assert _prune([a(0b1), b, a(0b10)], by_history=True) == [0, 1]
    assert _prune([a(0b1), a(0b111, -1)], by_history=True) == [1]
    assert _prune([a(0b11), b, a(0b1)]) == [0, 1]


@st.composite
def eliminations(draw):
    """(system, kill): equality pivots of either sign, nonzero lower bounds
    on killed variables and rows that substitution makes equal."""
    n = draw(st.integers(2, 5))
    names = [f"x{k}" for k in range(n)]
    lower = {v: draw(st.sampled_from([0, 1, -2, 2, None])) for v in names}
    small = st.integers(-3, 3)
    vector = st.lists(small, min_size=n, max_size=n)
    eqs = draw(st.lists(st.tuples(vector, small), max_size=3))
    rows = [(c, k, EQ) for c, k in eqs]
    for coeffs, const in draw(st.lists(st.tuples(vector, small), min_size=1, max_size=5)):
        rows.append((coeffs, const, GE))
        if eqs and draw(st.booleans()):  # equal to the row once eqs[j] is used
            (ec, ek), w = draw(st.sampled_from(eqs)), draw(small)
            rows.append(([c + w * e for c, e in zip(coeffs, ec)], const + w * ek
                         + draw(st.sampled_from([0, 0, 1, -1])), GE))
    s = ConstraintSystem(names, (), lower)
    s = s.with_rows([s.row_from(dict(zip(names, c)), k, kind) for c, k, kind in rows])
    return s, draw(st.lists(st.sampled_from(names), min_size=1, max_size=n - 1, unique=True))


@settings(max_examples=300, deadline=None)
@given(eliminations())
def test_eliminate_gives_the_reference_rows_in_order(case):
    """`eliminate` works on renumbered columns through `_int_row`; it
    returns exactly the rows of `reference_eliminate` with histories, in
    order."""
    s, kill = case
    got, want = eliminate(s, kill), reference_eliminate(s, kill, history=True)
    assert got.variables == want.variables and got.lower == want.lower
    assert got.rows == want.rows


@pytest.fixture(scope="module")
def family_relations():
    """Every distinct relation whose cone dependence analysis and the
    dependences build, over the corpus, chain(8) and 300 nests of the
    `random_nest` family (`Random(1)`), empty ones included, and each
    relation with all its variables to kill: its projection onto no
    variable, which is empty exactly when the relation is."""
    relations = {}

    def cone(relation):
        relations.setdefault(relation.rows, relation)
        return farkas_cone(relation)

    rng = random.Random(1)
    programs = (corpus_programs() + [workloads.chain(8)]
                + [workloads.random_nest(rng) for _ in range(300)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontend, "farkas_cone", cone)
        mp.setattr(model, "farkas_cone", cone)
        for data in programs:
            for dep in analyze(data)[1]:
                dep.cone
    relations = list(relations.values())
    return relations, [(rel, list(rel.variables)) for rel in relations]


@pytest.fixture(scope="module")
def family_eliminations(family_relations):
    """The (system, kill) of every cone and projection of the family."""
    relations, projections = family_relations
    return [multiplier_system(rel) for rel in relations] + projections


def test_cone_is_the_projection_of_its_multiplier_system(family_relations):
    """`farkas_cone` builds its multiplier system as dense rows for the
    loop `eliminate` runs; it gives the rows of `eliminate` and of
    `reference_eliminate` on the system `multiplier_system` states."""
    relations, _ = family_relations
    for rel in relations:
        cone = farkas_cone(rel)
        system, kill = multiplier_system(rel)
        got, want = eliminate(system, kill), reference_eliminate(system, kill, history=True)
        assert cone.variables == got.variables == want.variables
        assert cone.lower == got.lower == want.lower
        assert cone.rows == got.rows == want.rows


def tie_break_system():
    """A system on which the history `_prune` keeps of two equal rows
    changes the rows of the result.  No system of the family merges equal
    rows with histories of different sizes."""
    names = ["x0", "x1", "x2", "x3", "x4"]
    s = ConstraintSystem(names, (), dict.fromkeys(names))
    rows = [([0, -1, 0, -1, 1], -1), ([-1, 0, 0, -1, 0], 0), ([1, -1, -1, -1, 0], 0),
            ([-1, 1, 1, 1, -1], 0), ([1, -1, 0, 0, 0], -1), ([0, 0, -1, 1, 1], -1)]
    return s.with_rows([s.row_from(dict(zip(names, c)), k) for c, k in rows]), ["x4", "x0", "x3"]


def test_eliminate_gives_the_reference_rows_on_the_family(family_eliminations):
    """On every system of the family, projections included, and on
    `tie_break_system`, `eliminate` returns exactly the rows of
    `reference_eliminate` with histories, in order: the same pivots,
    Chernikov skips and pruning."""
    projected = 0
    for system, kill in family_eliminations + [tie_break_system()]:
        got, want = eliminate(system, kill), reference_eliminate(system, kill, history=True)
        assert got.variables == want.variables and got.lower == want.lower
        assert got.rows == want.rows
        projected += len(kill) == len(system.variables)
    assert projected and len(family_eliminations) > 500


def name_keyed_level_system(program, deps, terms):
    """`pluto.level_system` stated by variable name: each row of the named
    views `legality_constraints` and `bounding_constraints` substituted
    through its variables' names, summed into a {variable: coefficient} map
    and made a row by `row_from`."""
    bounds = pluto.bound_variables(program.params)
    forms = {v: {v: 1} for v in bounds}
    lower = {}
    for sid, listed in terms.items():
        names = coefficient_variables(program.statement(sid), program.params)
        for unknown, row, low in listed:
            lower[unknown] = low
            for v, a in zip(names, row):
                if a:
                    forms.setdefault(v, {})[unknown] = a
    system = ConstraintSystem(bounds + list(lower), (), lower)
    rows = []
    for dep in deps:
        src, dst = program.statement(dep.src), program.statement(dep.dst)
        for donor in (legality_constraints(dep, src, dst),
                      bounding_constraints(dep, src, dst)):
            for r in donor.rows:
                acc = {}
                for i, c in r.nonzero:
                    for v, a in forms.get(donor.variables[i], {}).items():
                        acc[v] = acc.get(v, 0) + c * a
                rows.append(system.row_from(acc, r.const, r.kind))
    return system.with_rows(rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_level_system_rows_equal_the_name_keyed_sum(shadow_programs, data):
    """On drawn terms, some sharing an unknown and some with weights
    beyond 1, `level_system` gives the rows of `name_keyed_level_system`."""
    name = data.draw(st.sampled_from(["fig1", "matmul", "stencil1d", "scaling_pair",
                                      "chain4", "random/nest3"]))
    program, deps = shadow_programs[name]
    weight = st.integers(-3, 3)
    pool = [f"u{k}" for k in range(6)]
    terms = {}
    for s in program.statements:
        width = len(coefficient_variables(s, program.params))
        terms[s.id] = [(data.draw(st.sampled_from(pool)),
                        tuple(data.draw(st.lists(weight, min_size=width, max_size=width))),
                        data.draw(st.sampled_from([0, 1, None, 2])))
                       for _ in range(data.draw(st.integers(0, 3)))]
    got = pluto.level_system(program, deps, terms)
    want = name_keyed_level_system(program, deps, terms)
    assert got.variables == want.variables and got.lower == want.lower
    assert got.rows == want.rows


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


def named_difference_form(dep, src, dst):
    """phi_dst(t) - phi_src(s) over the dependence space by variable name:
    one {coefficient variable: weight} map per relation variable, in order,
    then one for the constant, and the two statements' coefficient
    variables.  A self-dependence's shifts cancel."""
    m, n = len(dep.src_vars), len(dep.src_vars) + len(dep.dst_vars)
    forms = [{} for _ in range(n + len(dep.params) + 1)]
    cs = coefficient_variables(src, dep.params)
    cd = coefficient_variables(dst, dep.params)
    for k in range(src.dim):
        forms[k][cs[k]] = -1
    for k in range(dst.dim):
        forms[m + k][cd[k]] = 1
    for k in range(len(dep.params) + 1):
        for v, w in ((cd[dst.dim + k], 1), (cs[src.dim + k], -1)):
            forms[n + k][v] = forms[n + k].get(v, 0) + w
    forms = [{v: w for v, w in form.items() if w} for form in forms]
    return forms, list(dict.fromkeys(cs + cd))


def reference_systems(dep, src, dst):
    """(legality, bounding) rows of `dep`, each by per-form elimination."""
    forms, variables = named_difference_form(dep, src, dst)
    neg = [{v: -w for v, w in form.items()} for form in forms]
    for p in dep.params:
        neg[dep.relation.index(p)][f"u.{p}"] = 1
    neg[-1]["w"] = 1
    bounds = [f"u.{p}" for p in dep.params] + ["w"]
    return (reference_farkas_system(dep, forms, variables),
            reference_farkas_system(dep, neg, bounds + variables))


@pytest.mark.parametrize("name", sorted(SHADOW_PROGRAMS))
def test_cone_rows_have_the_per_form_shadow(shadow_programs, name):
    """Both ways, the legality and bounding rows substituted into the
    relation's cone and those of per-form elimination imply each other."""
    program, deps = shadow_programs[name]
    for dep in deps:
        if dep.ordering:
            src, dst = program.statement(dep.src), program.statement(dep.dst)
            mine = (legality_constraints(dep, src, dst),
                    bounding_constraints(dep, src, dst))
            for got, want in zip(mine, reference_systems(dep, src, dst)):
                assert_same_shadow(got, want)


@st.composite
def relations(draw):
    """A small relation of ge and eq rows over free variables through a
    known integer point, and that point."""
    n = draw(st.integers(1, 3))
    names = [f"x{k}" for k in range(n)]
    point = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    relation = ConstraintSystem(names, (), dict.fromkeys(names))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        kind = draw(st.sampled_from([GE, GE, EQ]))
        slack = 0 if kind == EQ else draw(st.integers(0, 2))
        const = slack - sum(c * x for c, x in zip(coeffs, point))
        rows.append(relation.row_from(dict(zip(names, coeffs)), const, kind))
    return relation.with_rows(rows), point


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cone_holds_exactly_the_nonnegative_forms(data):
    """On a small non-empty relation of ge and eq rows through a known
    integer point, a small integer (a, b) is in `farkas_cone` exactly when
    the minimum of a.x + b over the relation is non-negative; unbounded
    below counts as outside.  `cone_minimum` reads that minimum of a.x + b off
    the cone, None when unbounded.  One LP per form, no elimination."""
    relation, point = data.draw(relations())
    names, n = relation.variables, len(point)
    assert relation.satisfied_by(dict(zip(names, point)))

    cone = farkas_cone(relation)
    assert cone.variables == tuple(f"a{j}" for j in range(n)) + ("b",)
    assert all(b is None for b in cone.lower.values())
    assert not farkas.cone_is_empty(cone)
    for _ in range(6):
        a = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        b = data.draw(st.integers(-3, 3))
        res = solve_lp(LPProblem.of(relation, [{v: c for v, c in zip(names, a) if c}]))
        assert res.status in (OPTIMAL, UNBOUNDED)
        expect = res.status == OPTIMAL and res.objective[0] + b >= 0
        form = {**{f"a{j}": c for j, c in enumerate(a)}, "b": b}
        assert cone.satisfied_by(form) == expect
        minimum = res.objective[0] + b if res.status == OPTIMAL else None
        assert farkas.cone_minimum(cone, a + [b]) == minimum


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cone_ratios_are_the_ratios_of_bounded_forms(data):
    """On a small non-empty relation through a known integer point, and two
    small integer linear forms f and g, a positive ratio y/x is in
    `cone_ratios` exactly when x * f + y * g is bounded below on the
    relation, as one LP per ratio says: some constant then puts the form in
    the cone.  The ratios tried are the ends of the interval and a few
    fixed ones."""
    relation, point = data.draw(relations())
    names, n = relation.variables, len(point)
    cone = farkas_cone(relation)
    f, g = (data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            for _ in range(2))
    ratios = farkas.cone_ratios(cone, f, g)
    tried = {Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)}
    if ratios is not None:
        lo, hi = ratios
        tried |= {r for r in (lo, hi, lo / 2, lo * 2, hi and hi * 2) if r}
    for r in tried:
        x, y = r.denominator, r.numerator
        form = {v: x * a + y * b for v, a, b in zip(names, f, g) if x * a + y * b}
        bounded = solve_lp(LPProblem.of(relation, [form])).status == OPTIMAL
        inside = ratios is not None and ratios[0] <= r and (ratios[1] is None or r <= ratios[1])
        assert inside == bounded, (r, ratios)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bounded_by_parameters_matches_the_recession_cone(data):
    """On a small non-empty relation over iterators x and parameters p
    through a known integer point, `bounded_by_parameters` holds exactly
    when no direction with p fixed leaves the relation (each iterator is
    bounded on the recession cone {dx : rows' x parts >= 0, eq parts == 0})
    and the relation makes every parameter non-negative.  LPs only, no
    elimination."""
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    xs, ps = [f"x{k}" for k in range(n)], [f"p{k}" for k in range(m)]
    names = xs + ps
    point = data.draw(st.lists(st.integers(0, 2), min_size=n + m, max_size=n + m))
    relation = ConstraintSystem(names, (), dict.fromkeys(names))
    rows = [relation.row_from({p: 1}) for p in ps if data.draw(st.booleans())]
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=n + m, max_size=n + m))
        kind = data.draw(st.sampled_from([GE, GE, GE, EQ]))
        slack = 0 if kind == EQ else data.draw(st.integers(0, 2))
        const = slack - sum(c * x for c, x in zip(coeffs, point))
        rows.append(relation.row_from(dict(zip(names, coeffs)), const, kind))
    relation = relation.with_rows(rows)
    assert relation.satisfied_by(dict(zip(names, point)))

    recession = ConstraintSystem(xs, (), dict.fromkeys(xs))
    recession = recession.with_rows(
        recession.row_from({xs[i]: c for i, c in r.nonzero if i < n}, 0, r.kind)
        for r in relation.rows)
    fixed = all(solve_lp(LPProblem.of(recession, [{x: sign}])).status == OPTIMAL
                for x in xs for sign in (1, -1))
    nonnegative = all(
        (res := solve_lp(LPProblem.of(relation, [p]))).status == OPTIMAL
        and res.objective[0] >= 0 for p in ps)
    cone = farkas_cone(relation)
    assert farkas.bounded_by_parameters(cone, m) == (fixed and nonnegative)
    # The scan decides what eliminating the parameters' unknowns and b does.
    params = [f"a{n + k}" for k in range(m)]
    in_cone = all(cone.satisfied_by({p: 1}) for p in params)
    assert (fixed and nonnegative) == (in_cone and not eliminate(cone, params + ["b"]).rows)


@settings(max_examples=200, deadline=None)
@given(eliminations(), relations())
def test_projected_rows_are_already_pruned(case, relation):
    """`_prune` keeps every row `_project` makes for `eliminate` and
    `farkas_cone`, so their constructor keeps the rows as made."""
    made = []
    project = farkas._project

    def recording(*args):
        made.append(project(*args))
        return made[-1]

    farkas._project = recording
    try:
        systems = [eliminate(*case), farkas_cone(relation[0])]
    finally:
        farkas._project = project
    for rows, system in zip(made, systems):
        assert _prune(rows) == list(range(len(rows)))
        assert system.rows == tuple(rows)
