"""Exact rational linear programming.

One integer tableau serves every solve that needs a pivot, and every run of
the same problem takes the same pivots.  A lexmin whose bound point, every
variable at its lower bound and every free one at 0, meets every row needs
none: every column is then 0, the least point of the non-negative
orthant, so `solve_lexmin` and `solve_ilp` return that point and build no
tableau.  Callers ask three questions:

- the lexmin of its columns (`solve_lexmin`): the lexicographic dual
  simplex (Feautrier's PIP, isl) pivots on the negative row that is most
  infeasible per unit of norm, as dual steepest edge does (Forrest and
  Goldfarb, 1992), and picks the column by a lexicographic ratio test over
  the variable rows.  One pass reaches the lexicographic minimum of the
  non-negative columns in order, with no phase 1, no artificial columns
  and no objective row; the leaving row changes the pivots, never the
  lexmin, which is unique;
- the integer lexmin of the same columns (`solve_ilp`), by a depth-first
  branch and bound around that pass, each child resuming it from its
  parent's final tableau;
- the minimum of at most one objective (`solve_lp`): the primal simplex
  with Bland's rule, on one objective row, from the dual simplex's
  feasible point.

Rows are content-reduced integers and the ratio tests compare cross
products.  Rows are dense, but a pivot works in proportion to the pivot
row's nonzeros, and it returns the rows it rewrote, the only rows whose
constant and norm the dual simplex reads again.  A pivot replaces the
rows it rewrites, so tableaux may share rows: `solve_lexmin` and
`solve_ilp` take a `base` tableau, never pivoted, of a system that the
problem's extends, and convert only the rows it lacks.  That is how the
levels of one `pluto.schedule` band share one system and one set of
converted rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Mapping, NamedTuple

from .farkas import EQ, ZERO, ConstraintSystem

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class ResourceLimitError(RuntimeError):
    """Raised when branch and bound exhausts its node budget."""


class LPProblem(NamedTuple):
    """A constraint system plus the objectives to minimize, of which only
    `solve_lp` takes one.

    Each objective is a mapping {variable: int coefficient}; a bare string
    v is shorthand for {v: 1}.
    """

    system: ConstraintSystem
    objectives: tuple = ()

    @staticmethod
    def of(system, objectives=()) -> "LPProblem":
        objs = tuple({o: 1} if isinstance(o, str) else dict(o) for o in objectives)
        return LPProblem(system, objs)


class LPResult(NamedTuple):
    status: str
    #: Empty, and shared, unless the status is optimal.
    assignment: dict[str, Fraction] = {}
    objective: tuple[Fraction, ...] = ()

    def __bool__(self):
        return self.status == OPTIMAL


def _norm(row: list[int]) -> int:
    """The L1 norm of a row's coefficients, its constant left out."""
    return sum(map(abs, row)) - abs(row[0])


class _Tableau:
    """Dense integer tableau with a row for every quantity.

    A variable bounded below is shifted to its bound; a free variable is
    split into a positive and a negative half.  These non-negative
    structural columns are the first nonbasic quantities, and each keeps a
    row for good: rows 0 to n-1 express them, then come the constraint rows
    (an equality as a pair of opposite inequalities), then at most one
    objective row.  Every row holds [constant, coefficient per column] over
    the current nonbasic quantities, so at the basic solution a row's value
    is its constant.  Constraint and objective rows matter only up to a
    positive factor and are kept content-reduced; a structural row also
    keeps a positive denominator in `den`.  Rows are dense int lists, read
    by column; `_pivot` alone walks the pivot row's nonzeros, replaces every
    row it rewrites with a new list, so that `branched` children and the
    tableaux built over a `base` may share rows, and returns the indices of
    those rows.

    A `base` is a tableau that has not pivoted, of a system that `system`
    extends by `ConstraintSystem.with_rows`: the same variables and bounds,
    its rows first, save where a row added after them dominates one and
    takes its place.  Its structural rows and the converted rows of every
    row `system` keeps at the same position are shared, not built again,
    so the tableau equals a fresh one row for row.
    """

    def __init__(self, system: ConstraintSystem, cost: Mapping | None = None,
                 base: _Tableau | None = None):
        #: The system it was built from (a `branched` copy keeps its
        #: parent's), which a tableau over this `base` reads.
        self.system = system
        if base is None:
            self.col_of: dict[str, tuple] = {}  # variable -> (column, negative half, shift)
            n = 0
            for v in system.variables:
                b = system.lower[v]
                if b is None:
                    self.col_of[v] = (n, n + 1, 0)
                    n += 2
                else:
                    self.col_of[v] = (n, None, b)
                    n += 1
            self.rows = [[0] * k + [1] + [0] * (n - k) for k in range(1, n + 1)]
            given = ()
        else:
            if base.system.lower is not system.lower:
                raise ValueError("a base tableau's system shares the variables and bounds")
            self.col_of, n = base.col_of, base.n
            self.rows = base.rows[:n]
            given = base.system.rows
        self.n = n
        self.den = [1] * n
        #: The quantity (row) nonbasic in each column; column 0 is the constant.
        self.col_var = [-1] + list(range(n))
        cols = [self.col_of[v] for v in system.variables]
        at = n  # base's first tableau row of given[k]
        for k, lr in enumerate(system.rows):
            own = given[k] if k < len(given) else None
            if lr is own:
                self.rows += base.rows[at:at + 1 + (lr.kind == EQ)]
            else:
                row = self._integral(lr.const, ((cols[i], c) for i, c in lr.nonzero))
                self.rows += [row, [-c for c in row]] if lr.kind == EQ else [row]
            if own is not None:
                at += 1 + (own.kind == EQ)
        self.m = len(self.rows)
        if cost is not None:
            self.rows.append(self._integral(
                0, ((self.col_of[v], c) for v, c in cost.items() if c)))

    def _integral(self, const: int, terms) -> list[int]:
        """An int affine form over the structural columns; `terms` pairs a
        variable's columns with its nonzero int coefficient, and a shifted
        variable adds its coefficient times its int shift to the constant."""
        vec = [const] + [0] * self.n
        for (k, neg, shift), c in terms:
            vec[k + 1] += c
            if neg is not None:
                vec[neg + 1] -= c
            elif shift:
                vec[0] += c * shift
        return vec

    def _pivot(self, r: int, j: int) -> list[int]:
        """Exchange row r's quantity with column j's, which becomes basic;
        each row it rewrites changes at the pivot row's nonzeros alone.
        Returns the indices of the rows it rewrote, r among them, in order."""
        rows, den = self.rows, self.den
        prow = rows[r]
        p = prow[j]
        sign = 1 if p > 0 else -1
        p *= sign
        nonzero = [(k, sign * b) for k, b in enumerate(prow) if b and k != j]
        rewritten = [i for i, row in enumerate(rows) if row[j]]
        for i in rewritten:
            if i == r:
                continue
            row = rows[i]
            f = row[j]
            new = row[:] if p == 1 else [p * a for a in row]
            for k, b in nonzero:
                new[k] -= f * b
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
        # Column j now stands for row r's numerator, so a structural row
        # keeps its denominator.
        unit = [0] * len(prow)
        unit[j] = 1
        rows[r] = unit
        self.col_var[j] = r
        return rewritten

    def lexmin(self) -> bool:
        """Lexicographic dual simplex; False when the system is infeasible.

        The leaving row is the most infeasible per unit of norm: the least
        constant over the L1 norm of its coefficients, compared by cross
        products, the first of a tie kept.  Every column stays
        lexicographically positive over the structural rows in order, so
        each pivot raises the solution in that order, whichever negative row
        leaves, and the first feasible basis is the lexicographic minimum,
        which is unique.  The ratio test walks the pivot row's positive
        entries, the first of a tie kept.  The negative rows' constants and
        norms are read once, then updated at the rows each pivot rewrote.
        """
        rows, m = self.rows, self.m
        # row index -> (constant, norm) of every negative constraint row
        negative = {i: (row[0], _norm(row)) for i, row in enumerate(rows[:m]) if row[0] < 0}
        while True:
            r, const, norm = -1, 0, 1  # the leaving row, its constant and norm
            for i in sorted(negative):
                c, l1 = negative[i]
                if r < 0 or c * norm < const * l1:
                    r, const, norm = i, c, l1
            if r < 0:
                return True
            prow = rows[r]
            best = 0
            for j in [j for j, a in enumerate(prow) if a > 0 and j]:
                if not best or self._lex_less(j, prow[j], best, prow[best]):
                    best = j
            if not best:
                return False
            for i in self._pivot(r, best):
                row = rows[i]
                if i < m and row[0] < 0:
                    negative[i] = row[0], _norm(row)
                else:
                    negative.pop(i, None)

    def _lex_less(self, j, a, k, b) -> bool:
        """Is column j over a lexicographically below column k over b?"""
        rows = self.rows
        for i in range(self.n):
            row = rows[i]
            x = row[j] * b - row[k] * a
            if x:
                return x < 0
        return False

    def branched(self, v: str, bound: int, up: bool) -> "_Tableau":
        """A copy with the row v >= bound (`up`) or v <= bound added after
        the constraint rows, over the current nonbasic columns.

        Every column stays lexicographically positive, since the variable
        rows are unchanged, so `lexmin` resumes from this basis and reaches
        the lexmin of the new system, which is unique."""
        k, neg, shift = self.col_of[v]
        den = self.den
        d = den[k] if neg is None else lcm(den[k], den[neg])
        # d * (v - bound), v being the value of row k (less row neg) plus shift
        row = [x * (d // den[k]) for x in self.rows[k]]
        if neg is not None:
            f = d // den[neg]
            row = [a - f * b for a, b in zip(row, self.rows[neg])]
        row[0] += (shift - bound) * d
        if not up:
            row = [-x for x in row]
        g = gcd(*row)
        if g > 1:
            row = [x // g for x in row]
        tab = _Tableau.__new__(_Tableau)
        tab.system, tab.col_of, tab.n, tab.m = self.system, self.col_of, self.n, self.m + 1
        # `_pivot` replaces rows whole, so they may be shared.
        tab.rows = self.rows[:self.m] + [row] + self.rows[self.m:]
        tab.den, tab.col_var = den[:], self.col_var[:]
        return tab

    def minimize(self) -> bool:
        """Primal simplex with Bland's rule on the objective row from a
        feasible basis; False when unbounded."""
        rows = self.rows
        while True:
            obj = rows[self.m]
            enter = min((j for j in range(1, self.n + 1) if obj[j] < 0),
                        key=self.col_var.__getitem__, default=0)
            if not enter:
                return True
            leave, bn, bd = -1, 0, 1
            for i in range(self.m):
                a = -rows[i][enter]
                if a > 0 and (leave < 0 or rows[i][0] * bd < bn * a):
                    leave, bn, bd = i, rows[i][0], a
            if leave < 0:
                return False
            self._pivot(leave, enter)

    def columns(self) -> tuple[Fraction, ...]:
        """The structural columns' values, which `lexmin` minimizes."""
        return tuple(Fraction(self.rows[k][0], self.den[k]) for k in range(self.n))

    def assignment(self, value: tuple[Fraction, ...] | None = None) -> dict[str, Fraction]:
        """Each variable's value, from the columns' values (`columns()`)."""
        value = self.columns() if value is None else value
        return {v: value[k] + shift if neg is None else value[k] - value[neg]
                for v, (k, neg, shift) in self.col_of.items()}


def _no_objective(problem: LPProblem) -> ConstraintSystem:
    if problem.objectives:
        raise ValueError("a lexmin is over the tableau's columns and takes no objective")
    return problem.system


def solve_lp(problem: LPProblem) -> LPResult:
    """Minimize the problem's one objective, or check feasibility when it has
    none; `objective` holds the minimum."""
    if len(problem.objectives) > 1:
        raise ValueError("solve_lp minimizes at most one objective")
    cost = problem.objectives[0] if problem.objectives else None
    tab = _Tableau(problem.system, cost)
    if not tab.lexmin():
        return LPResult(INFEASIBLE)
    if cost is None:
        return LPResult(OPTIMAL, tab.assignment())
    if not tab.minimize():
        return LPResult(UNBOUNDED)
    x = tab.assignment()
    return LPResult(OPTIMAL, x, (sum((c * x[v] for v, c in cost.items()), ZERO),))


def _at_bounds(system: ConstraintSystem) -> dict[str, Fraction] | None:
    """The bound point, when it meets every row: each variable at its lower
    bound, a free one at 0, where every tableau column is 0.  Rows are read
    last first, since the rows a caller adds come last and are the ones
    that point breaks."""
    point = [system.lower[v] or 0 for v in system.variables]
    for r in reversed(system.rows):
        value = r.const + sum([point[i] * c for i, c in r.nonzero])
        if value < 0 or (value and r.kind == EQ):
            return None
    return {v: Fraction(x) for v, x in zip(system.variables, point)}


def solve_lexmin(problem: LPProblem, base: _Tableau | None = None) -> LPResult:
    """The lexmin of the tableau's columns: every variable in the system's
    order, a free one as its positive half, then its negative half, which
    gives it the value of smallest magnitude.  No tableau is built when
    the bound point (`_at_bounds`) is feasible; else the tableau shares the
    rows of `base`, a `_Tableau` of a system that the problem's extends."""
    system = _no_objective(problem)
    x = _at_bounds(system)
    if x is not None:
        return LPResult(OPTIMAL, x)
    tab = _Tableau(system, None, base)
    return LPResult(OPTIMAL, tab.assignment()) if tab.lexmin() else LPResult(INFEASIBLE)


def solve_ilp(problem: LPProblem, base: _Tableau | None = None,
              node_limit: int = 100_000) -> LPResult:
    """The integer point of `solve_lexmin`'s order: the least tuple of column
    values with every variable integral.

    Depth-first branch and bound on the first fractional variable in the
    system's order, so runs are reproducible.  The root is the one node
    that may end at the bound point (`_at_bounds`), which is integral, with
    no tableau; else its tableau shares the rows of `base`, as in
    `solve_lexmin`.  A child adds its one bound row to its parent's final
    tableau (`_Tableau.branched`) and resumes the lexmin from there.  A
    node's lexmin bounds every integer point below it, so a node whose
    columns do not beat the incumbent's is pruned.
    """
    system = _no_objective(problem)
    stack: list = [(None, None)]  # the root, then (parent tableau, branch)
    best = None  # the incumbent's column values and result
    nodes = 0
    while stack:
        tab, branch = stack.pop()
        nodes += 1
        if nodes > node_limit:
            raise ResourceLimitError(
                f"branch and bound node limit exceeded ({node_limit} nodes)")
        if tab is None:
            x = _at_bounds(system)
            if x is not None:
                return LPResult(OPTIMAL, x)
            tab = _Tableau(system, None, base)
        else:
            tab = tab.branched(*branch)
        if not tab.lexmin():
            continue
        key = tab.columns()
        if best and key >= best[0]:
            continue
        x = tab.assignment(key)
        frac = next((v for v in system.variables if x[v].denominator != 1), None)
        if frac is None:
            best = key, LPResult(OPTIMAL, x)
            continue
        stack.append((tab, (frac, ceil(x[frac]), True)))
        stack.append((tab, (frac, floor(x[frac]), False)))
    return best[1] if best else LPResult(INFEASIBLE)
