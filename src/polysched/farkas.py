"""Affine constraint systems over named rational variables.

The scheduler needs conditions of the form "phi_dst(t) - phi_src(s) >= 0 for
every point of a dependence polyhedron".  Such universally quantified
conditions are linearized with non-negative multipliers over the polyhedron's
constraints, the coefficients of each iterator, parameter and the constant are
equated, and the multipliers are projected out again.  Everything here is
exact: rows are stored with `fractions.Fraction` coefficients in normalized
integer form, and elimination runs in exact integers over each row's nonzero
entries; there is no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from .model import DependencePolyhedron, Statement

ZERO = Fraction(0)

GE = "ge"
EQ = "eq"


@dataclass(frozen=True)
class LinearRow:
    """One affine constraint: coeffs . x + const >= 0 (ge) or == 0 (eq)."""

    coeffs: tuple[Fraction, ...]
    const: Fraction
    kind: str
    #: (index, coefficient) of each nonzero coefficient in index order, an
    #: integral one as an int: rows are wide and sparse, and duplicate
    #: detection and the simplex read only these.
    nonzero: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.nonzero is None:
            object.__setattr__(self, "nonzero", tuple(
                (i, c.numerator if c.denominator == 1 else c)
                for i, c in enumerate(self.coeffs) if c))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        acc = self.const
        for c, x in zip(self.coeffs, point):
            if c:
                acc += c * x
        return acc

    def holds(self, point: Sequence[Fraction]) -> bool:
        v = self.evaluate(point)
        return v == 0 if self.kind == EQ else v >= 0


def _normalize_row(coeffs, const, kind):
    """Canonical integer form: clear denominators, divide by the gcd.

    Equality rows additionally get a canonical sign (first nonzero positive)
    so that duplicates collapse.
    """
    coeffs = tuple(coeffs)
    return _normalized(len(coeffs), [(i, c) for i, c in enumerate(coeffs) if c],
                       const, kind)


#: Shared `Fraction`s for the small integers that fill most rows.
_SMALL = {k: Fraction(k) for k in range(-16, 17)}


def _normalized(n: int, items, const, kind) -> LinearRow:
    """`_normalize_row` of the width-n row whose nonzero coefficients are the
    (index, coefficient) `items`, in index order.  Only the nonzero entries
    are touched, and in integers, so wide, sparse rows cost little."""
    den = lcm(const.denominator, *[c.denominator for _, c in items])
    if den == 1:
        b = const.numerator
        ints = [(i, c.numerator) for i, c in items]
    else:
        b = int(const * den)
        ints = [(i, int(c * den)) for i, c in items]
    g = gcd(b, *[c for _, c in ints])
    if g > 1:
        b //= g
        ints = [(i, c // g) for i, c in ints]
    if kind == EQ and (ints[0][1] if ints else b) < 0:
        b = -b
        ints = [(i, -c) for i, c in ints]
    vec = [ZERO] * n
    for i, c in ints:
        vec[i] = _SMALL.get(c) or Fraction(c)
    return LinearRow(tuple(vec), _SMALL.get(b) or Fraction(b), kind, tuple(ints))


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
        # LinearRow instances are trusted to be normalized already (they all
        # come out of `_normalize_row`); raw (coeffs, const, kind) triples are
        # normalized here.
        self.rows: tuple[LinearRow, ...] = _prune(
            r if isinstance(r, LinearRow) else _normalize_row(*r) for r in rows
        )

    def index(self, var: str) -> int:
        return self._index[var]

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return f"ConstraintSystem({len(self.variables)} vars, {len(self.rows)} rows)"

    # -- construction helpers -------------------------------------------------

    def row_from(self, coeffs: Mapping[str, Fraction | int], const=0, kind=GE) -> LinearRow:
        index = self._index
        items = sorted((index[v], c) for v, c in coeffs.items() if c)
        return _normalized(len(self.variables), items, const, kind)

    def with_rows(self, extra: Iterable[LinearRow]) -> "ConstraintSystem":
        return ConstraintSystem(self.variables, self.rows + tuple(extra), self.lower)

    def with_lower(self, bounds: Mapping[str, Fraction | int | None]) -> "ConstraintSystem":
        merged = dict(self.lower)
        merged.update({v: b for v, b in bounds.items()})
        return ConstraintSystem(self.variables, self.rows, merged)

    # -- checking -------------------------------------------------------------

    def point(self, assignment: Mapping[str, Fraction | int]) -> tuple[Fraction, ...]:
        return tuple(Fraction(assignment.get(v, self.lower[v] or 0)) for v in self.variables)

    def satisfied_by(self, assignment: Mapping[str, Fraction | int]) -> bool:
        pt = self.point(assignment)
        for v, x in zip(self.variables, pt):
            b = self.lower[v]
            if b is not None and x < b:
                return False
        return all(r.holds(pt) for r in self.rows)

def _prune(rows: Iterable) -> tuple:
    """Drop tautologies and rows dominated by an earlier row.

    Only single-row implications are checked: identical coefficient vectors
    where one constant implies the other, plus exact duplicates of equalities.
    Reads only a normalized row's `nonzero`, `const` and `kind`, so it serves
    both a system's `LinearRow`s and the `_Sparse` rows under elimination.
    """
    best_ge: dict[tuple, int] = {}
    seen_eq: set[tuple] = set()
    kept: list = []
    for row in rows:
        key = row.nonzero
        if not key:
            if row.kind == GE and row.const >= 0:
                continue
            if row.kind == EQ and row.const == 0:
                continue
            # Trivially false row: keep one witness so solvers report it.
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
    the rational combination, divided by its gcd, so the rows, their order
    and what `_prune` keeps are those of the rational computation.  The
    result's feasible set is the exact shadow of the input's on the
    surviving variables.
    """
    rows = [_Sparse(r.nonzero, r.const.numerator, r.kind) for r in system.rows]
    for v in kill:
        b = system.lower[v]
        if b is not None:  # v >= p/q as q*v - p >= 0
            rows.append(_Sparse(((system.index(v), b.denominator),), -b.numerator, GE))
    for v in kill:
        rows = _eliminate_one(rows, system.index(v))

    kill_set = set(kill)
    survivors = [v for v in system.variables if v not in kill_set]
    at = {system.index(v): k for k, v in enumerate(survivors)}
    return ConstraintSystem(
        survivors,
        [_normalized(len(survivors), [(at[i], c) for i, c in r.nonzero], r.const, r.kind)
         for r in rows],
        {v: system.lower[v] for v in survivors})


class _Sparse(NamedTuple):
    """A row under elimination: its nonzero (index, int) entries in index
    order, an int constant and the kind."""

    nonzero: tuple
    const: int
    kind: str


def _sparse(acc: dict, const: int, kind: str) -> _Sparse:
    """The row with the {index: int} entries `acc`, divided by its gcd; an
    equality gets the canonical sign (first nonzero positive)."""
    items = [(i, c) for i, c in sorted(acc.items()) if c]
    g = gcd(const, *[c for _, c in items])
    if g > 1:
        const //= g
        items = [(i, c // g) for i, c in items]
    if kind == EQ and (items[0][1] if items else const) < 0:
        const = -const
        items = [(i, -c) for i, c in items]
    return _Sparse(tuple(items), const, kind)


def _eliminate_one(rows: list[_Sparse], col: int) -> list[_Sparse]:
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
                out.append(_sparse(acc, abs(pc) * r.const - f * p.const, r.kind))
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
            out.append(_sparse(acc, b * lo.const + a * hi.const, GE))
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
    linear: dict[str, dict[str, Fraction]] = {}
    for it, var in zip(dst.domain.iterators, dep.dst_vars):
        linear.setdefault(var, {})[f"c.{dst.id}.{it}"] = Fraction(1)
    for it, var in zip(src.domain.iterators, dep.src_vars):
        linear.setdefault(var, {})[f"c.{src.id}.{it}"] = Fraction(-1)
    for p in params:
        cell = linear.setdefault(p, {})
        cell[f"d.{dst.id}.{p}"] = cell.get(f"d.{dst.id}.{p}", ZERO) + 1
        cell[f"d.{src.id}.{p}"] = cell.get(f"d.{src.id}.{p}", ZERO) - 1
    const = {f"c0.{dst.id}": Fraction(1), f"c0.{src.id}": Fraction(-1)}
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
    ineqs: list[LinearRow] = []
    for r in relation.rows:
        if r.kind == EQ:
            ineqs.append(LinearRow(r.coeffs, r.const, GE))
            ineqs.append(LinearRow(tuple(-c for c in r.coeffs), -r.const, GE))
        else:
            ineqs.append(r)

    lam = [f"_l{k}" for k in range(len(ineqs) + 1)]  # lam[0] is the affine slack
    variables = list(coeff_vars) + lam
    sys0 = ConstraintSystem(variables)

    rows = []
    for j, var in enumerate(relation.variables):
        lhs = dict(extra_linear.get(var, {}))
        for k, row in enumerate(ineqs):
            if row.coeffs[j]:
                lhs[lam[k + 1]] = lhs.get(lam[k + 1], ZERO) - row.coeffs[j]
        rows.append(sys0.row_from(lhs, 0, EQ))
    lhs = dict(extra_const)
    lhs[lam[0]] = Fraction(-1)
    for k, row in enumerate(ineqs):
        if row.const:
            lhs[lam[k + 1]] = lhs.get(lam[k + 1], ZERO) - row.const
    rows.append(sys0.row_from(lhs, 0, EQ))

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
        cell[f"u.{p}"] = cell.get(f"u.{p}", ZERO) + 1
    neg_const = {cv: -w for cv, w in const.items()}
    neg_const["w"] = Fraction(1)
    coeff_vars = [f"u.{p}" for p in dep.params] + ["w"]
    coeff_vars += list(dict.fromkeys(
        coefficient_variables(src, dep.params) + coefficient_variables(dst, dep.params)))
    return _farkas_system(dep, src, dst, neg_linear, neg_const, coeff_vars)
