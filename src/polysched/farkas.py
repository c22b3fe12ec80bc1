"""Affine constraint systems over named rational variables.

The scheduler needs conditions of the form "phi_dst(t) - phi_src(s) >= 0 for
every point of a dependence polyhedron".  By the affine form of Farkas'
lemma, the forms non-negative on a polyhedron make up one cone that depends
on the polyhedron alone: `farkas_cone` equates coefficients with a
non-negative multiplier per ge row and for the slack, and a free one per eq
row, and projects the multipliers out, handing the elimination loop
dense int rows with no names.  A dependence's legality and bounding
rows are its cone's rows (`dep.cone`) with the two forms substituted in by
column (`dependence_rows`), once per dependence shape; the schedulers read
them by position, and `legality_constraints` and `bounding_constraints`
only name them.  The cone's row layout is read here alone: the
polyhedron is empty exactly when no cone row holds the constant b
(`cone_is_empty`, how `frontend` keeps or drops a candidate dependence),
and by LP duality the minimum of an affine form over the polyhedron is
the largest k for which the form minus k lies in the cone
(`cone_minimum`, read off the rows without a solve).  The
projection builds only some of the combinations plain Fourier-Motzkin
elimination would: it skips those that Chernikov's rule proves
redundant, so the shadow is the same with fewer rows.  Everything
here is exact: every row is a sparse canonical integer row (its nonzero
entries and its constant are ints with gcd 1), elimination combines
rows in exact integers, on dense int vectors that it turns back into
such rows once (one loop, `_project`, for `eliminate` and
`farkas_cone`), and exact equality elimination has one home, the
integer echelon form of `_reduce`.  A lower bound is an int or None;
only a minimum (`cone_minimum`) is a `fractions.Fraction`, and there is
no floating point.  Rows are combined by column index, never through
variable names, and `_int_row` is the one normalizer of sparse rows,
for `row_from`, the cone's substitutions, `pluto.level_system` and
`pluto._echelon`; `_dense` makes a dense row canonical the same way.
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

    Rows come out of `_int_row`, or out of `eliminate` renumbering such rows, so
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


def _int_row(width: int, acc: dict[int, int], const: int, kind: str) -> LinearRow:
    """The canonical row with the int coefficients `acc` {index:
    coefficient} and the int `const`: divided by the gcd, and an
    equality's first nonzero entry made positive, so that multiples of one
    row collapse to the same row.  Zero entries are dropped."""
    g = gcd(const, *acc.values())
    if g > 1:
        const //= g
        items = tuple([(i, c // g) for i, c in sorted(acc.items()) if c])
    elif 0 in acc.values():
        items = tuple([e for e in sorted(acc.items()) if e[1]])
    else:
        items = tuple(sorted(acc.items()))
    if kind == EQ and (items[0][1] if items else const) < 0:
        const = -const
        items = tuple([(i, -c) for i, c in items])
    return _new_row(LinearRow, (items, const, kind, width))


#: LinearRow's constructor without the Python-level `__new__` of a NamedTuple.
_new_row = tuple.__new__


class ConstraintSystem:
    """An ordered set of affine rows over named variables with lower bounds.

    A lower bound of None marks a free variable.  The default bound is 0,
    matching the non-negativity restriction on transformation coefficients.
    Every other bound is an int, and any other value is a TypeError.
    Instances are not mutated after construction; all editing operations
    return new systems.
    """

    __slots__ = ("variables", "rows", "lower", "_index")

    def __init__(self, variables, rows=(), lower=None):
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self._index = {v: i for i, v in enumerate(self.variables)}
        bounds = dict.fromkeys(self.variables, 0)
        if lower:
            for v, b in lower.items():
                if v not in self._index:
                    raise KeyError(v)
                if b is not None and type(b) is not int:
                    raise TypeError(f"lower bound of {v} is not an int: {b!r}")
                bounds[v] = b
        self.lower: dict[str, int | None] = bounds
        self._set_rows(rows)

    def _set_rows(self, rows):
        rows = tuple(rows)
        kept = _prune(rows)
        self.rows: tuple[LinearRow, ...] = (
            rows if len(kept) == len(rows) else tuple(map(rows.__getitem__, kept)))

    def index(self, var: str) -> int:
        return self._index[var]

    def __repr__(self):
        return f"ConstraintSystem({len(self.variables)} vars, {len(self.rows)} rows)"

    # -- construction helpers -------------------------------------------------

    def row_from(self, coeffs: Mapping[str, int], const: int = 0, kind=GE) -> LinearRow:
        index = self._index
        return _int_row(len(self.variables), {index[v]: c for v, c in coeffs.items()},
                        const, kind)

    def with_rows(self, extra: Iterable[LinearRow]) -> "ConstraintSystem":
        """The system with the rows `extra` after its own, pruned.  It
        shares this system's variables, their index and their bounds."""
        system = ConstraintSystem.__new__(ConstraintSystem)
        system.variables, system._index, system.lower = self.variables, self._index, self.lower
        system._set_rows(self.rows + tuple(extra))
        return system

    def renamed(self, variables) -> "ConstraintSystem":
        """The system with its variables renamed, in order, to `variables`:
        the same rows and bounds, by column."""
        system = ConstraintSystem(variables, (), dict(zip(variables, self.lower.values())))
        system.rows = self.rows
        return system

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


def _prune(rows: Sequence[tuple], by_history: bool = False) -> list[int]:
    """The rows to keep, as indices into `rows`: tautologies and rows
    dominated by an earlier row are dropped, and a row that dominates an
    earlier one takes its place.  The rows are `LinearRow`s, or the dense
    rows of `eliminate`, whose first field is () for a constant row too.

    Only single-row implications are checked: identical coefficient vectors
    where one constant implies the other, plus exact duplicates of equalities.
    Of equal rows the first is kept, unless `by_history`, when each row's
    last field is its history (see `eliminate`): then it is the first with
    the fewest history bits.  Nothing is dropped exactly when the result
    has one index per row.
    """
    nonzero = [r[0] for r in rows]
    if all(nonzero) and len(set(nonzero)) == len(nonzero):
        return list(range(len(rows)))  # no constant row, no two rows alike
    seen: dict[tuple, int] = {}  # key -> position in kept
    kept: list[int] = []
    for k, (key, const, kind, hist) in enumerate(rows):
        if not key and (const == 0 if kind == EQ else const >= 0):
            continue  # a tautology; a false constant row stays for solvers to report
        if kind == EQ:
            key = (key, const)  # an equality repeats only as an exact duplicate
        at = seen.get(key)
        if at is None:
            seen[key] = len(kept)
            kept.append(k)
            continue
        _, prev, _, prev_hist = rows[kept[at]]
        if prev < const:
            continue  # a looser ge row
        if prev > const or (by_history and hist.bit_count() < prev_hist.bit_count()):
            kept[at] = k
    return kept


# -- elimination --------------------------------------------------------------


def eliminate(system: ConstraintSystem, kill: Sequence[str]) -> ConstraintSystem:
    """Project the named variables out of the system, exactly.

    Equalities are used first (Gaussian substitution), remaining occurrences
    go through Fourier-Motzkin pairing.  Lower bounds of killed variables are
    materialized as rows before projection.  The work runs in exact integers
    on dense coefficient vectors (`_dense`), in `_project`, the loop that
    `farkas_cone` also runs; they become `LinearRow`s once at the end:
    every step yields a positive multiple of the rational combination,
    divided by its gcd as `_int_row` would, with no product by a factor 1.

    Each row carries a history in its last field, an int bitmask of the
    input inequalities it combines: one bit per inequality row of the
    input, the materialized lower bounds included, and none for an
    equality.  A substituted row takes the union of its own history and the
    pivot's.  After k Fourier-Motzkin steps, a combination whose history
    has more than k + 1 bits is implied by the other rows (Chernikov's
    rule, Imbert's first acceleration theorem), so such a pair is skipped
    before it is built.  The rule holds only for minimal histories, so when
    `_prune` merges two equal rows it keeps the history with fewer bits.
    The result has no more rows than plain Fourier-Motzkin elimination
    gives, and its feasible set is still the exact shadow of the input's on
    the surviving variables.
    """
    n = len(system.variables)
    # The vectors run over renumbered columns: the killed ones first, in
    # kill order, then the survivors in order, so the t-th step eliminates
    # column t and every column before it is zero.  Rows stay canonical in
    # that order; a ge row's entries do not depend on it, and an equality
    # that survives holds survivors alone, so its first entry is the same
    # in both orders.
    cols = [system.index(v) for v in kill]
    order = dict.fromkeys(cols)
    killed = len(order)
    order.update(dict.fromkeys(range(n)))
    at = [0] * n  # each column's place in the vectors
    for k, i in enumerate(order):
        at[i] = k
    rows = []
    for nonzero, const, kind, _ in system.rows:
        vec = [0] * n
        for i, c in nonzero:
            vec[at[i]] = c
        if kind == EQ and next(filter(None, vec), 0) < 0:
            vec, const = [-c for c in vec], -const
        rows.append((tuple(vec) if nonzero else (), const, kind, None))
    for v, i in zip(kill, cols):
        b = system.lower[v]
        if b is not None:  # v >= b as v - b >= 0
            vec = [0] * n
            vec[at[i]] = 1
            rows.append((tuple(vec), -b, GE, None))
    survivors = [v for k, v in enumerate(system.variables) if at[k] >= killed]
    return ConstraintSystem(survivors, _project(rows, killed, len(survivors)),
                            {v: system.lower[v] for v in survivors})


def _project(rows: list[tuple], killed: int, width: int) -> list[LinearRow]:
    """The shadow of the dense rows (`_dense`, their last field None) on
    their columns after the first `killed`, which are eliminated in order,
    as rows of `width` (see `eliminate`)."""
    rows = [(vec, const, kind, 0 if kind == EQ else 1 << k)
            for k, (vec, const, kind, _) in enumerate(rows)]
    steps = 0
    for t in range(killed):
        rows, steps = _eliminate_at(rows, steps, t)
    # Pruned rows stay pruned when their columns are renumbered.
    return [_new_row(LinearRow, (tuple([e for e in enumerate(vec[killed:]) if e[1]]), const,
                                 kind, width))
            for vec, const, kind, _ in rows]


def _dense(vec: list[int], const: int, kind: str, hist: int | None) -> tuple:
    """The canonical dense row (coefficients, const, kind, hist) of the int
    vector `vec` and `const`, as `_int_row` makes a `LinearRow`: divided by
    the gcd, an equality's first nonzero entry made positive, and an
    all-zero vector given as (), so that `_prune` reads it as a constant
    row.  `hist` is the row's history (see `eliminate`)."""
    g = gcd(const, *vec)
    if g > 1:
        vec = [c // g for c in vec]
        const //= g
    if not any(vec):
        return ((), -const if kind == EQ and const < 0 else const, kind, hist)
    if kind == EQ and next(filter(None, vec)) < 0:
        vec = [-c for c in vec]
        const = -const
    return (tuple(vec), const, kind, hist)


def _combine(a: int, xs: Sequence[int], b: int, ys: Sequence[int]) -> list[int]:
    """a * xs + b * ys, entry by entry, with no product by a factor 1."""
    if a != 1:
        return [a * x + b * y for x, y in zip(xs, ys)]
    if b == 1:
        return [x + y for x, y in zip(xs, ys)]
    return [x - y for x, y in zip(xs, ys)] if b == -1 else [x + b * y for x, y in zip(xs, ys)]


def _eliminate_at(rows: list[tuple], steps: int, t: int):
    """Eliminate column `t` of the dense rows (see `eliminate`), every
    column before which is zero, after `steps` Fourier-Motzkin steps;
    returns (rows, steps)."""
    coef, pivot = [], None
    for k, (vec, _, kind, _) in enumerate(rows):
        c = vec[t] if vec else 0
        coef.append(c)
        if c and kind == EQ and pivot is None:
            pivot = k
    out = []
    if pivot is not None:
        # r - (rc/pc)*p, scaled by |pc|, in place of each row r with rc != 0.
        (pvec, pconst, _, ph), pc = rows[pivot], coef[pivot]
        m = abs(pc)
        for k, (r, rc) in enumerate(zip(rows, coef)):
            if not rc:
                out.append(r)
            elif k != pivot:
                vec, const, kind, h = r
                f = -rc if pc > 0 else rc
                out.append(_dense(_combine(m, vec, f, pvec), m * const + f * pconst, kind, h | ph))
    else:
        steps += 1
        upper, lower_rows = [], []
        for r, c in zip(rows, coef):
            if not c:
                out.append(r)
            elif c > 0:  # c*v >= -(rest): bounds v from below
                lower_rows.append((r[0], r[1], c, r[3]))
            else:
                upper.append((r[0], r[1], -c, r[3]))
        for lvec, lconst, a, hl in lower_rows:
            for uvec, uconst, b, hu in upper:
                h = hl | hu
                if h.bit_count() <= steps + 1:
                    out.append(_dense(_combine(b, lvec, a, uvec), b * lconst + a * uconst, GE, h))
    kept = _prune(out, by_history=True)
    return (out if len(kept) == len(out) else [out[k] for k in kept]), steps


# -- integer echelon forms ----------------------------------------------------
#
# An echelon form is a tuple of canonical equality rows, each reduced against
# the rows before it; a row's pivot is its first entry, positive because the
# row is canonical.  Reducing a row against the form takes only positive
# multiples of it, so an inequality keeps its sense, and every step is exact
# in ints.  The result has zero at every pivot, as against the form with each
# row reduced against the later rows too, so no back-substitution is needed.


def _reduce(row: LinearRow, form: tuple[LinearRow, ...]) -> LinearRow:
    """A positive multiple of `row` minus multiples of the rows of `form`,
    with zero at every pivot of `form`: `row` itself when it holds none.
    Otherwise its nonzero entries are in no order and keep their common
    factor until `_with_pivot` makes the row canonical."""
    acc, const = dict(row.nonzero), row.const
    changed = False
    for p in form:
        j, pc = p.nonzero[0]
        rc = acc.pop(j, 0)
        if rc:
            acc = {i: pc * c for i, c in acc.items()}
            for i, c in p.nonzero[1:]:
                acc[i] = acc.get(i, 0) - rc * c
            const = pc * const - rc * p.const
            changed = True
    if not changed:
        return row
    return _new_row(LinearRow, (tuple([e for e in acc.items() if e[1]]), const, row.kind,
                                row.width))


def _with_pivot(form: tuple[LinearRow, ...], row: LinearRow, reduced: LinearRow):
    """`form` with the equality `row` added as `reduced`, its `_reduce`
    against `form` with a nonzero entry, made canonical."""
    return form + (reduced if reduced is row else
                   _int_row(reduced.width, dict(reduced.nonzero), reduced.const, EQ),)


# -- scheduling constraint generators ----------------------------------------


def coefficient_variables(statement: "Statement", params: Sequence[str]) -> list[str]:
    """Transform-row variable names for one statement: iterators, parameter
    shifts, constant shift."""
    sid = statement.id
    names = [f"c.{sid}.{it}" for it in statement.domain.iterators]
    names += [f"d.{sid}.{p}" for p in params]
    names.append(f"c0.{sid}")
    return names


def bound_variables(params: Sequence[str]) -> list[str]:
    """The bounding form's variable names: one u per parameter, then w."""
    return [f"u.{p}" for p in params] + ["w"]


def _difference_form(dep: "DependencePolyhedron"):
    """phi_dst(t) - phi_src(s) over the dependence space, by column: one
    list of (column, weight) pairs per relation variable, in order, then
    one for the constant, and the number of columns.  The columns are the
    source's coefficients (iterators, parameter shifts, constant shift),
    then the target's unless the dependence is a self-dependence, whose
    shifts cancel exactly."""
    m, n, np = len(dep.src_vars), len(dep.dst_vars), len(dep.params)
    at = 0 if dep.src == dep.dst else m + np + 1  # the target's first column
    forms = [[(k, -1)] for k in range(m)] + [[(at + k, 1)] for k in range(n)]
    forms += [[(at + n + k, 1), (m + k, -1)] if at else [] for k in range(np + 1)]
    return forms, at + n + np + 1


def farkas_cone(relation: ConstraintSystem) -> ConstraintSystem:
    """The affine forms sum_j a_j * x_j + b that are non-negative on every
    point of `relation`, as rows over a0, ..., a(n-1) (one per relation
    variable, in order) and b, all free.

    On a non-empty polyhedron such a form is lam_0 + sum_k lam_k * (row k),
    with the slack lam_0 and each ge row's multiplier non-negative and each
    eq row's free.  Equating coefficients gives one equation per a_j and one
    for b; the free multipliers are eliminated first, so Gaussian
    substitution removes them before any Fourier-Motzkin step, then the
    slack, then the ge rows' multipliers.  The system goes straight to
    `_project` as dense int rows: the equations, then the non-negative
    multipliers' bounds as `eliminate` would materialize them.  The
    relation's variables are free, as in every dependence relation.
    """
    n = len(relation.variables)
    eqs = [r for r in relation.rows if r.kind == EQ]
    # Columns: the multipliers in elimination order (the slack's is that of
    # the row 1 >= 0), then a_j at m + j, then b.  Each equation holds its
    # unknown once, so it has gcd 1 and is canonical once its first entry
    # is positive.
    multiplied = eqs + [((), 1, GE, n)] + [r for r in relation.rows if r.kind != EQ]
    m = len(multiplied)
    vecs = [[0] * (m + n + 1) for _ in range(n + 1)]
    for c, (nonzero, const, _, _) in enumerate(multiplied):
        for j, a in nonzero:
            vecs[j][c] = -a
        vecs[n][c] = -const
    rows = []
    for j, vec in enumerate(vecs):
        vec[m + j] = 1
        if next(filter(None, vec)) < 0:
            vec = [-x for x in vec]
        rows.append((tuple(vec), 0, EQ, None))
    for c in range(len(eqs), m):  # the non-negative multipliers' bounds
        vec = [0] * (m + n + 1)
        vec[c] = 1
        rows.append((tuple(vec), 0, GE, None))
    unknowns = [f"a{j}" for j in range(n)] + ["b"]
    return ConstraintSystem(unknowns, _project(rows, m, n + 1), dict.fromkeys(unknowns))


def bounded_by_parameters(cone: ConstraintSystem, nparams: int) -> bool:
    """Has every affine form f on the relation of `cone` (its Farkas cone,
    whose last `nparams` unknowns before b belong to the parameters p) an
    upper bound u.p + w with u, w >= 0, which holds for every larger u and
    w too?

    It has when each parameter is non-negative on the relation and every
    form over the iterators is in the cone with some parameter coefficients
    and constant, that is, eliminating those unknowns and b leaves no row:
    then u.p + w - f is a form of the cone plus non-negative multiples of
    the parameters and 1.  No row of the cone of a non-empty relation gives
    b a negative coefficient, and none gives a parameter one when the
    parameters are non-negative, so that elimination only drops the rows
    holding one of them: no row is left exactly when every row holds one.
    Exact for a non-empty relation that makes its parameters non-negative,
    as every dependence relation does, and never true wrongly otherwise.
    """
    first = len(cone.variables) - 1 - nparams  # the parameters' unknowns, then b
    for nonzero, _, kind, _ in cone.rows:
        held = False
        for j, c in nonzero:
            if j >= first:
                if c < 0 or kind == EQ:
                    return False
                held = True
        if not held:
            return False
    return True


def cone_is_empty(cone: ConstraintSystem) -> bool:
    """Is the relation of `cone`, its Farkas cone, empty?  By the affine
    Farkas lemma, exactly when the cone holds the form -1; as it holds 1 and
    its rows are homogeneous, a row holding b gives it a positive
    coefficient, so that is when no row holds b."""
    b = len(cone.variables) - 1
    return not any(r.nonzero and r.nonzero[-1][0] == b for r in cone.rows)


def cone_minimum(cone: ConstraintSystem, form: Sequence[int]) -> Fraction | None:
    """The minimum of the affine form sum_j form[j] * x_j + form[-1] over
    the relation of `cone`, its Farkas cone, read off the rows with no
    solve; None when unbounded below, and ValueError when the relation is
    empty.

    By LP duality, the minimum of f = sum_j a_j * x_j + b over the relation
    is the largest k for which f - k lies in the cone.  A cone row without a
    `b` term that fails at a leaves no such k: f is unbounded below.  Every
    other row is c.a + c_b * (b - k) >= 0 with c_b > 0, since the cone of a
    non-empty relation is closed under raising b, so k is b plus the least
    c.a / c_b.
    """
    n = len(form) - 1
    least, unbounded = None, False  # least as (c.a, c_b)
    for r in cone.rows:
        cb = r.nonzero[-1][1] if r.nonzero and r.nonzero[-1][0] == n else 0
        ca = r.const + sum(c * form[j] for j, c in r.nonzero if j < n)
        if cb:
            if least is None or ca * least[1] < least[0] * cb:
                least = (ca, cb)
        elif ca < 0 or (ca and r.kind == EQ):
            unbounded = True
    if least is None:  # b is free: the relation has no point
        raise ValueError("the relation is empty")
    return None if unbounded else Fraction(least[0] + form[n] * least[1], least[1])


def _cone_rows(cone: ConstraintSystem, forms: Sequence[Sequence[tuple[int, int]]],
               width: int) -> tuple[LinearRow, ...]:
    """The rows of `cone` with its k-th unknown replaced by the form
    `forms[k]` over `width` columns, pruned by `_prune`."""
    rows = []
    for nonzero, const, kind, _ in cone.rows:
        acc: dict[int, int] = {}
        for j, c in nonzero:
            for i, w in forms[j]:
                acc[i] = acc.get(i, 0) + c * w
        rows.append(_int_row(width, acc, const, kind))
    return tuple(map(rows.__getitem__, _prune(rows)))


def dependence_rows(dep: "DependencePolyhedron"):
    """The (legality, bounding) rows of `dep`'s shape, `dep.cone` with a
    form substituted in: phi_dst - phi_src >= 0 over the columns of
    `_difference_form`, and u.p + w - (phi_dst - phi_src) >= 0 over one u
    per parameter, then w, then those columns."""
    forms, width = _difference_form(dep)
    np = len(dep.params)
    first = len(forms) - 1 - np  # the parameters' forms, then the constant's
    neg = [[(np + 1 + i, -w) for i, w in form] for form in forms]
    for k in range(np + 1):
        neg[first + k].append((k, 1))
    return (_cone_rows(dep.cone, forms, width),
            _cone_rows(dep.cone, neg, np + 1 + width))


def _coefficient_names(dep: "DependencePolyhedron", src: "Statement", dst: "Statement"):
    """The names of the legality rows' columns."""
    return list(dict.fromkeys(coefficient_variables(src, dep.params)
                              + coefficient_variables(dst, dep.params)))


def legality_constraints(dep: "DependencePolyhedron", src: "Statement",
                         dst: "Statement") -> ConstraintSystem:
    """Rows over the two statements' coefficient variables that hold exactly
    when phi_dst - phi_src is non-negative on every point of the dependence:
    `dep.farkas_rows`' legality rows, named."""
    return ConstraintSystem(_coefficient_names(dep, src, dst), dep.farkas_rows[0])


def bounding_constraints(dep: "DependencePolyhedron", src: "Statement",
                         dst: "Statement") -> ConstraintSystem:
    """Rows stating u.p + w - (phi_dst - phi_src) >= 0 on the dependence:
    `dep.farkas_rows`' bounding rows, named."""
    return ConstraintSystem(bound_variables(dep.params) + _coefficient_names(dep, src, dst),
                            dep.farkas_rows[1])
