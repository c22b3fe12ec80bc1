"""Affine constraint systems over named rational variables.

The scheduler needs conditions of the form "phi_dst(t) - phi_src(s) >= 0 for
every point of a dependence polyhedron".  By the affine form of Farkas'
lemma, the forms non-negative on a polyhedron make up one cone that depends
on the polyhedron alone: `farkas_cone` equates coefficients with a
non-negative multiplier per ge row and for the slack, and a free one per eq
row, and projects the multipliers out.  A dependence's legality and bounding
rows are that cone's rows with the two forms substituted in, so one
elimination per dependence relation serves both.  The projection builds only
some of the combinations plain Fourier-Motzkin elimination would: it skips
those that Chernikov's rule proves redundant, so the shadow is the same with
fewer rows.  Everything here is exact: every row is a sparse canonical
integer row (its nonzero entries and its constant are ints with gcd 1),
elimination combines such rows in exact integers, and only lower bounds and
solutions are `fractions.Fraction`s; there is no floating point.
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
        rows = tuple(rows)
        kept = _prune(rows)
        self.rows: tuple[LinearRow, ...] = (
            rows if len(kept) == len(rows) else tuple(map(rows.__getitem__, kept)))

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


def _prune(rows: Sequence[LinearRow], hist: Sequence[int] = ()) -> list[int]:
    """The rows to keep, as indices into `rows`: tautologies and rows
    dominated by an earlier row are dropped, and a row that dominates an
    earlier one takes its place.

    Only single-row implications are checked: identical coefficient vectors
    where one constant implies the other, plus exact duplicates of equalities.
    Of equal rows the first is kept, unless `hist` gives each row's history
    (see `eliminate`): then it is the first with the fewest history bits.
    Nothing is dropped exactly when the result has one index per row.
    """
    seen: dict[tuple, int] = {}  # key -> position in kept
    kept: list[int] = []
    for k, row in enumerate(rows):
        key = row.nonzero
        if not key and (row.const == 0 if row.kind == EQ else row.const >= 0):
            continue  # a tautology; a false constant row stays for solvers to report
        if row.kind == EQ:
            key = (key, row.const)  # an equality repeats only as an exact duplicate
        at = seen.get(key)
        if at is None:
            seen[key] = len(kept)
            kept.append(k)
            continue
        prev = rows[kept[at]]
        if prev.const < row.const:
            continue  # a looser ge row
        if (prev.const > row.const
                or (hist and hist[k].bit_count() < hist[kept[at]].bit_count())):
            kept[at] = k
    return kept


# -- elimination --------------------------------------------------------------


def eliminate(system: ConstraintSystem, kill: Sequence[str]) -> ConstraintSystem:
    """Project the named variables out of the system, exactly.

    Equalities are used first (Gaussian substitution), remaining occurrences
    go through Fourier-Motzkin pairing.  Lower bounds of killed variables are
    materialized as rows before projection.  The work runs in exact integers
    over each row's nonzero entries: every step yields a positive multiple of
    the rational combination, which `_row` makes canonical.

    Each row carries a history, an int bitmask of the input inequalities it
    combines: one bit per inequality row of the input, the materialized
    lower bounds included, and none for an equality.  A substituted row
    takes the union of its own history and the pivot's.  After k
    Fourier-Motzkin steps, a combination whose history has more than k + 1
    bits is implied by the other rows (Chernikov's rule, Imbert's first
    acceleration theorem), so such a pair is skipped before it is built.
    The rule holds only for minimal histories, so when `_prune` merges two
    equal rows it keeps the history with fewer bits.  The result has no more
    rows than plain Fourier-Motzkin elimination gives, and its feasible set
    is still the exact shadow of the input's on the surviving variables.
    """
    n = len(system.variables)
    rows = list(system.rows)
    for v in kill:
        b = system.lower[v]
        if b is not None:  # v >= p/q as q*v - p >= 0
            rows.append(_row(n, [(system.index(v), b.denominator)], -b.numerator, GE))
    hist, bit = [], 1
    for r in rows:
        if r.kind == EQ:
            hist.append(0)
        else:
            hist.append(bit)
            bit <<= 1
    steps = 0
    for v in kill:
        rows, hist, steps = _eliminate_one(rows, hist, steps, system.index(v))

    # Canonical rows stay canonical when their columns are renumbered.
    kill_set = set(kill)
    survivors = [v for v in system.variables if v not in kill_set]
    at = {system.index(v): k for k, v in enumerate(survivors)}
    return ConstraintSystem(
        survivors,
        [LinearRow(tuple((at[i], c) for i, c in r.nonzero), r.const, r.kind,
                   len(survivors)) for r in rows],
        {v: system.lower[v] for v in survivors})


def _eliminate_one(rows: list[LinearRow], hist: list[int], steps: int, col: int):
    """Eliminate column `col` from the rows and their histories, after
    `steps` Fourier-Motzkin steps; returns (rows, histories, steps).
    Gaussian substitution rewrites `rows` and `hist` in place."""
    coef = [dict(r.nonzero).get(col, 0) for r in rows]
    pivot = next((k for k, r in enumerate(rows) if r.kind == EQ and coef[k]), None)
    if pivot is not None:
        # r - (rc/pc)*p, scaled by |pc|, in place of each row r with rc != 0.
        p, pc, ph = rows[pivot], coef[pivot], hist[pivot]
        for k, rc in enumerate(coef):
            if rc and k != pivot:
                r = rows[k]
                f = rc if pc > 0 else -rc
                acc = {i: abs(pc) * c for i, c in r.nonzero}
                for i, c in p.nonzero:
                    acc[i] = acc.get(i, 0) - f * c
                rows[k] = _row(r.width, sorted(acc.items()),
                               abs(pc) * r.const - f * p.const, r.kind)
                hist[k] |= ph
        del rows[pivot], hist[pivot]
        out, out_hist = rows, hist
    else:
        steps += 1
        out, out_hist, upper, lower_rows = [], [], [], []
        for r, c, h in zip(rows, coef, hist):
            if not c:
                out.append(r)
                out_hist.append(h)
            elif c > 0:
                lower_rows.append((r, c, h))  # c*v >= -(rest): bounds v from below
            else:
                upper.append((r, -c, h))
        for lo, a, hl in lower_rows:
            for hi, b, hh in upper:
                h = hl | hh
                if h.bit_count() > steps + 1:
                    continue
                acc = {i: b * c for i, c in lo.nonzero}
                for i, c in hi.nonzero:
                    acc[i] = acc.get(i, 0) + a * c
                out.append(_row(lo.width, sorted(acc.items()),
                                b * lo.const + a * hi.const, GE))
                out_hist.append(h)
    kept = _prune(out, out_hist)
    if len(kept) == len(out):
        return out, out_hist, steps
    return [out[k] for k in kept], [out_hist[k] for k in kept], steps


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
    """phi_dst(t) - phi_src(s) over the dependence space, and the two
    statements' coefficient variables.  The form is one {coefficient
    variable: weight} map per relation variable, in order, then one for the
    constant."""
    m, n = len(dep.src_vars), len(dep.src_vars) + len(dep.dst_vars)
    forms: list[dict[str, int]] = [{} for _ in range(n + len(dep.params) + 1)]
    for k, it in enumerate(src.domain.iterators):
        forms[k][f"c.{src.id}.{it}"] = -1
    for k, it in enumerate(dst.domain.iterators):
        forms[m + k][f"c.{dst.id}.{it}"] = 1
    if src.id != dst.id:  # a self-dependence's shifts cancel exactly
        for k, p in enumerate(dep.params):
            forms[n + k].update({f"d.{dst.id}.{p}": 1, f"d.{src.id}.{p}": -1})
        forms[-1].update({f"c0.{dst.id}": 1, f"c0.{src.id}": -1})
    return forms, list(dict.fromkeys(coefficient_variables(src, dep.params)
                                     + coefficient_variables(dst, dep.params)))


def farkas_cone(relation: ConstraintSystem) -> ConstraintSystem:
    """The affine forms sum_j a_j * x_j + b that are non-negative on every
    point of `relation`, as rows over a0, ..., a(n-1) (one per relation
    variable, in order) and b, all free.

    On a non-empty polyhedron such a form is lam_0 + sum_k lam_k * (row k),
    with the slack lam_0 and each ge row's multiplier non-negative and each
    eq row's free.  Equating coefficients gives one equation per a_j and one
    for b; the free multipliers are eliminated first, so Gaussian
    substitution removes them before any Fourier-Motzkin step.  The
    relation's variables are free, as in every dependence relation.
    """
    n = len(relation.variables)
    unknowns = [f"a{j}" for j in range(n)] + ["b"]
    free = [f"_l{k}" for k, r in enumerate(relation.rows) if r.kind == EQ]
    kill = free + ["_l"] + [f"_l{k}" for k, r in enumerate(relation.rows) if r.kind != EQ]
    system = ConstraintSystem(unknowns + kill, (), dict.fromkeys(unknowns + free))
    lhs = [{v: 1} for v in unknowns]  # a_j - sum_k lam_k * r_kj, b - lam_0 - ...
    lhs[n]["_l"] = -1
    for k, r in enumerate(relation.rows):
        for j, c in r.nonzero:
            lhs[j][f"_l{k}"] = -c
        if r.const:
            lhs[n][f"_l{k}"] = -r.const
    return eliminate(system.with_rows(system.row_from(form, 0, EQ) for form in lhs), kill)


def _cone_rows(dep: "DependencePolyhedron", cone: ConstraintSystem | None,
               forms: Sequence[Mapping[str, int]], variables: Sequence[str]):
    """The rows of `cone`, `farkas_cone(dep.relation)` when None, with its
    k-th variable replaced by the form `forms[k]` over `variables`."""
    cone = farkas_cone(dep.relation) if cone is None else cone
    index = {v: i for i, v in enumerate(variables)}
    subst = [[(index[v], w) for v, w in form.items()] for form in forms]
    rows = []
    for r in cone.rows:
        acc: dict[int, int] = {}
        for j, c in r.nonzero:
            for i, w in subst[j]:
                acc[i] = acc.get(i, 0) + c * w
        rows.append(_row(len(variables), sorted(acc.items()), r.const, r.kind))
    return ConstraintSystem(variables, rows)


def legality_constraints(dep: "DependencePolyhedron", src: "Statement",
                         dst: "Statement", cone: ConstraintSystem | None = None,
                         ) -> ConstraintSystem:
    """Rows over the two statements' coefficient variables that hold exactly
    when phi_dst - phi_src is non-negative on every point of the dependence.
    `cone` is `farkas_cone(dep.relation)`, eliminated here when not given;
    a caller that keeps it shares one elimination between forms."""
    return _cone_rows(dep, cone, *_difference_form(dep, src, dst))


def bounding_constraints(dep: "DependencePolyhedron", src: "Statement",
                         dst: "Statement", cone: ConstraintSystem | None = None,
                         ) -> ConstraintSystem:
    """Rows stating u.p + w - (phi_dst - phi_src) >= 0 on the dependence;
    `cone` as for `legality_constraints`."""
    forms, variables = _difference_form(dep, src, dst)
    forms = [{v: -w for v, w in form.items()} for form in forms]
    for p in dep.params:
        forms[dep.relation.index(p)][f"u.{p}"] = 1
    forms[-1]["w"] = 1
    return _cone_rows(dep, cone, forms, [f"u.{p}" for p in dep.params] + ["w"] + variables)
