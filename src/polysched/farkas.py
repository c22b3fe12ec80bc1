"""Affine constraint systems over named rational variables.

The scheduler needs conditions of the form "phi_dst(t) - phi_src(s) >= 0 for
every point of a dependence polyhedron".  Such universally quantified
conditions are linearized with non-negative multipliers over the polyhedron's
constraints, the coefficients of each iterator, parameter and the constant are
equated, and the multipliers are projected out again.  Everything here is
exact: every row is a sparse canonical integer row (its nonzero entries and
its constant are ints with gcd 1), elimination combines such rows in exact
integers, and only lower bounds and solutions are `fractions.Fraction`s;
there is no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from .model import DependencePolyhedron, Statement

ZERO = Fraction(0)

GE = "ge"
EQ = "eq"


class LinearRow(NamedTuple):
    """One affine constraint over `width` variables: the sum of c * x[i] over
    the (i, c) entries of `nonzero`, plus `const`, is >= 0 (ge) or == 0 (eq).

    Rows come out of `_row`, or out of `eliminate` renumbering such rows, so
    they are canonical: `nonzero` lists the nonzero int coefficients in index
    order, the entries and the int `const` have gcd 1, and an equality's
    first entry is positive.
    """

    nonzero: tuple[tuple[int, int], ...]
    const: int
    kind: str
    width: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The dense coefficient vector."""
        vec = [0] * self.width
        for i, c in self.nonzero:
            vec[i] = c
        return tuple(vec)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        acc = self.const
        for i, c in self.nonzero:
            acc = point[i] * c + acc
        return acc

    def holds(self, point: Sequence[Fraction]) -> bool:
        v = self.evaluate(point)
        return v == 0 if self.kind == EQ else v >= 0


def _row(width: int, items: Iterable, const, kind: str) -> LinearRow:
    """The canonical row with the rational (index, coefficient) `items`, in
    index order, and the rational `const`: denominators cleared, divided by
    the gcd, and an equality's first nonzero entry made positive, so that
    multiples of one row collapse to the same row.  Zero entries are dropped.
    """
    items = [(i, c) for i, c in items if c]
    if type(const) is not int or any(type(c) is not int for _, c in items):
        den = lcm(const.denominator, *[c.denominator for _, c in items])
        const = const.numerator * (den // const.denominator)
        items = [(i, c.numerator * (den // c.denominator)) for i, c in items]
    g = gcd(const, *[c for _, c in items])
    if g > 1:
        const //= g
        items = [(i, c // g) for i, c in items]
    if kind == EQ and (items[0][1] if items else const) < 0:
        const = -const
        items = [(i, -c) for i, c in items]
    return LinearRow(tuple(items), const, kind, width)


class ConstraintSystem:
    """An ordered set of affine rows over named variables with lower bounds.

    A lower bound of None marks a free variable.  The default bound is 0,
    matching the non-negativity restriction on transformation coefficients.
    Instances are not mutated after construction; all editing operations
    return new systems.
    """

    __slots__ = ("variables", "rows", "lower", "_index")

    def __init__(self, variables, rows=(), lower=None):
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self._index = {v: i for i, v in enumerate(self.variables)}
        bounds = dict.fromkeys(self.variables, ZERO)
        if lower:
            for v, b in lower.items():
                if v not in self._index:
                    raise KeyError(v)
                bounds[v] = None if b is None else Fraction(b)
        self.lower: dict[str, Fraction | None] = bounds
        self.rows: tuple[LinearRow, ...] = _prune(rows)

    def index(self, var: str) -> int:
        return self._index[var]

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"ConstraintSystem({len(self.variables)} vars, {len(self.rows)} rows)"

    # -- construction helpers -------------------------------------------------

    def row_from(self, coeffs: Mapping[str, Fraction | int], const=0, kind=GE) -> LinearRow:
        items = sorted((self._index[v], c) for v, c in coeffs.items())
        return _row(len(self.variables), items, const, kind)

    def with_rows(self, extra: Iterable[LinearRow]) -> "ConstraintSystem":
        return ConstraintSystem(self.variables, self.rows + tuple(extra), self.lower)

    def with_lower(self, bounds: Mapping[str, Fraction | int | None]) -> "ConstraintSystem":
        merged = dict(self.lower)
        merged.update({v: b for v, b in bounds.items()})
        return ConstraintSystem(self.variables, self.rows, merged)

    # -- checking -------------------------------------------------------------

    def satisfied_by(self, assignment: Mapping[str, Fraction | int]) -> bool:
        """Does the point meet every bound and row?  Variables missing from
        `assignment` sit at their lower bound, or 0 when free.  Rows are
        checked in ints, on the point scaled to a common denominator."""
        pt = [Fraction(assignment.get(v, self.lower[v] or 0)) for v in self.variables]
        for v, x in zip(self.variables, pt):
            b = self.lower[v]
            if b is not None and x < b:
                return False
        den = lcm(*(x.denominator for x in pt))
        num = [x.numerator * (den // x.denominator) for x in pt]
        for r in self.rows:
            value = r.const * den + sum(num[i] * c for i, c in r.nonzero)
            if value < 0 or (value and r.kind == EQ):
                return False
        return True


def _prune(rows: Iterable[LinearRow]) -> tuple[LinearRow, ...]:
    """Drop tautologies and rows dominated by an earlier row.

    Only single-row implications are checked: identical coefficient vectors
    where one constant implies the other, plus exact duplicates of equalities.
    """
    best_ge: dict[tuple, int] = {}
    seen_eq: set[tuple] = set()
    kept: list[LinearRow] = []
    for row in rows:
        key = row.nonzero
        if not key and (row.const == 0 if row.kind == EQ else row.const >= 0):
            continue  # a tautology; a false constant row stays for solvers to report
        if row.kind == EQ:
            key = (key, row.const)
            if key in seen_eq:
                continue
            seen_eq.add(key)
            kept.append(row)
        else:
            prev = best_ge.get(key)
            if prev is not None:
                if kept[prev].const <= row.const:
                    continue
                kept[prev] = row
            else:
                best_ge[key] = len(kept)
                kept.append(row)
    return tuple(kept)


# -- elimination --------------------------------------------------------------


def eliminate(system: ConstraintSystem, kill: Sequence[str]) -> ConstraintSystem:
    """Project the named variables out of the system, exactly.

    Equalities are used first (Gaussian substitution), remaining occurrences
    go through Fourier-Motzkin pairing.  Lower bounds of killed variables are
    materialized as rows before projection.  The work runs in exact integers
    over each row's nonzero entries: every step yields a positive multiple of
    the rational combination, which `_row` makes canonical, so the rows,
    their order and what `_prune` keeps are those of the rational
    computation.  The result's feasible set is the exact shadow of the
    input's on the surviving variables.
    """
    n = len(system.variables)
    rows = list(system.rows)
    for v in kill:
        b = system.lower[v]
        if b is not None:  # v >= p/q as q*v - p >= 0
            rows.append(_row(n, [(system.index(v), b.denominator)], -b.numerator, GE))
    for v in kill:
        rows = _eliminate_one(rows, system.index(v))

    # Canonical rows stay canonical when their columns are renumbered.
    kill_set = set(kill)
    survivors = [v for v in system.variables if v not in kill_set]
    at = {system.index(v): k for k, v in enumerate(survivors)}
    return ConstraintSystem(
        survivors,
        [LinearRow(tuple((at[i], c) for i, c in r.nonzero), r.const, r.kind,
                   len(survivors)) for r in rows],
        {v: system.lower[v] for v in survivors})


def _eliminate_one(rows: list[LinearRow], col: int) -> list[LinearRow]:
    coef = [dict(r.nonzero).get(col, 0) for r in rows]
    pivot = next((k for k, r in enumerate(rows) if r.kind == EQ and coef[k]), None)
    if pivot is not None:
        # r - (rc/pc)*p, scaled by |pc|.
        p, pc = rows[pivot], coef[pivot]
        out = []
        for k, (r, rc) in enumerate(zip(rows, coef)):
            if not rc:
                out.append(r)
            elif k != pivot:
                f = rc if pc > 0 else -rc
                acc = {i: abs(pc) * c for i, c in r.nonzero}
                for i, c in p.nonzero:
                    acc[i] = acc.get(i, 0) - f * c
                out.append(_row(r.width, sorted(acc.items()),
                                abs(pc) * r.const - f * p.const, r.kind))
        return list(_prune(out))

    upper, lower_rows, out = [], [], []
    for r, c in zip(rows, coef):
        if not c:
            out.append(r)
        elif c > 0:
            lower_rows.append((r, c))  # c*v >= -(rest): bounds v from below
        else:
            upper.append((r, -c))
    for lo, a in lower_rows:
        for hi, b in upper:
            acc = {i: b * c for i, c in lo.nonzero}
            for i, c in hi.nonzero:
                acc[i] = acc.get(i, 0) + a * c
            out.append(_row(lo.width, sorted(acc.items()),
                            b * lo.const + a * hi.const, GE))
    return list(_prune(out))


# -- scheduling constraint generators ----------------------------------------


def coefficient_variables(statement: "Statement", params: Sequence[str]) -> list[str]:
    """Transform-row variable names for one statement: iterators, parameter
    shifts, constant shift."""
    sid = statement.id
    names = [f"c.{sid}.{it}" for it in statement.domain.iterators]
    names += [f"d.{sid}.{p}" for p in params]
    names.append(f"c0.{sid}")
    return names


def _difference_form(dep: "DependencePolyhedron", src: "Statement", dst: "Statement"):
    """phi_dst(t) - phi_src(s) as {dep-space var: {coeff var: weight}} pieces.

    Returns (linear, const) where `linear` maps each dependence-space variable
    to the coefficient variables weighting it and `const` collects the pieces
    that do not involve dependence-space variables.
    """
    params = dep.params
    linear: dict[str, dict[str, int]] = {}
    for it, var in zip(dst.domain.iterators, dep.dst_vars):
        linear.setdefault(var, {})[f"c.{dst.id}.{it}"] = 1
    for it, var in zip(src.domain.iterators, dep.src_vars):
        linear.setdefault(var, {})[f"c.{src.id}.{it}"] = -1
    for p in params:
        cell = linear.setdefault(p, {})
        cell[f"d.{dst.id}.{p}"] = cell.get(f"d.{dst.id}.{p}", 0) + 1
        cell[f"d.{src.id}.{p}"] = cell.get(f"d.{src.id}.{p}", 0) - 1
    const = {f"c0.{dst.id}": 1, f"c0.{src.id}": -1}
    if src.id == dst.id:
        # Self-dependence: shifts and parameter shifts cancel exactly.
        const = {}
        for p in params:
            linear[p] = {v: c for v, c in linear[p].items() if c}
    return linear, const


def _farkas_system(dep, src, dst, extra_linear, extra_const, coeff_vars):
    """Constraint system stating: the given affine form of the dependence-space
    variables is non-negative on the whole dependence polyhedron.

    The form is described per dependence-space variable by a mapping from
    coefficient variables to weights (plus a pure-constant part).  Multiplier
    variables are introduced, coefficients equated per dependence-space
    variable and per constant, then the multipliers are eliminated.
    """
    relation = dep.relation
    ineqs = []  # (nonzero, const) of each row as an inequality
    for r in relation.rows:
        ineqs.append((r.nonzero, r.const))
        if r.kind == EQ:
            ineqs.append((tuple((i, -c) for i, c in r.nonzero), -r.const))

    lam = [f"_l{k}" for k in range(len(ineqs) + 1)]  # lam[0] is the affine slack
    variables = list(coeff_vars) + lam
    sys0 = ConstraintSystem(variables)

    # One equation per dependence-space variable, then one for the constant.
    lhs = [dict(extra_linear.get(var, {})) for var in relation.variables]
    lhs.append(dict(extra_const))
    lhs[-1][lam[0]] = -1
    for k, (nonzero, const) in enumerate(ineqs):
        for j, c in nonzero:
            lhs[j][lam[k + 1]] = -c
        if const:
            lhs[-1][lam[k + 1]] = -const
    rows = [sys0.row_from(form, 0, EQ) for form in lhs]

    return eliminate(sys0.with_rows(rows), lam)


def legality_constraints(dep: "DependencePolyhedron", src: "Statement",
                         dst: "Statement") -> ConstraintSystem:
    """Rows over the two statements' coefficient variables that hold exactly
    when phi_dst - phi_src is non-negative on every point of the dependence."""
    linear, const = _difference_form(dep, src, dst)
    coeff_vars = list(dict.fromkeys(
        coefficient_variables(src, dep.params) + coefficient_variables(dst, dep.params)))
    return _farkas_system(dep, src, dst, linear, const, coeff_vars)


def bounding_constraints(dep: "DependencePolyhedron", src: "Statement",
                         dst: "Statement") -> ConstraintSystem:
    """Rows stating u.p + w - (phi_dst - phi_src) >= 0 on the dependence."""
    linear, const = _difference_form(dep, src, dst)
    neg_linear = {v: {cv: -w for cv, w in form.items()} for v, form in linear.items()}
    for p in dep.params:
        cell = neg_linear.setdefault(p, {})
        cell[f"u.{p}"] = cell.get(f"u.{p}", 0) + 1
    neg_const = {cv: -w for cv, w in const.items()}
    neg_const["w"] = 1
    coeff_vars = [f"u.{p}" for p in dep.params] + ["w"]
    coeff_vars += list(dict.fromkeys(
        coefficient_variables(src, dep.params) + coefficient_variables(dst, dep.params)))
    return _farkas_system(dep, src, dst, neg_linear, neg_const, coeff_vars)
