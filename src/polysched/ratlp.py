"""Exact rational linear programming.

Two-phase primal simplex with Bland's rule, so every result is exact and
every run of the same problem takes the same pivots.  The tableau holds
integers: each row is an equality, so it can be kept scaled by a positive
integer and content-reduced, and the ratio tests compare cross products.
Lexicographic multi-objective solves reuse one tableau: after each stage the
nonbasic columns with positive reduced cost are frozen, which restricts all
later pivoting to that stage's optimal face.  Integer solutions come from a
depth-first branch and bound around the rational solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Mapping, Sequence

from .farkas import GE, ConstraintSystem

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class ResourceLimitError(RuntimeError):
    """Raised when branch and bound exhausts its node budget."""

    def __init__(self, limit: int):
        super().__init__(f"branch and bound node limit exceeded ({limit} nodes)")
        self.limit = limit


@dataclass(frozen=True)
class LPProblem:
    """A constraint system plus an ordered list of objectives to minimize.

    Each objective is a mapping {variable: coefficient}; a bare string is
    shorthand for minimizing that single variable.  `integrality` lists the
    variables that must be integral in `solve_ilp`.
    """

    system: ConstraintSystem
    objectives: tuple = ()
    integrality: frozenset[str] = frozenset()

    @staticmethod
    def of(system, objectives=(), integrality=()) -> "LPProblem":
        objs = tuple({o: ONE} if isinstance(o, str) else dict(o) for o in objectives)
        return LPProblem(system, objs, frozenset(integrality))


@dataclass(frozen=True)
class LPResult:
    status: str
    assignment: dict[str, Fraction] = field(default_factory=dict)
    objective: tuple[Fraction, ...] = ()

    def __bool__(self):
        return self.status == OPTIMAL


class _Simplex:
    """Dense integer tableau with explicit column bookkeeping.

    Free variables are split into a positive and a negative part; bounded
    variables are shifted so every column is non-negative.  Every row is an
    equality, so it may be stored scaled by any positive integer: rows are
    kept content-reduced with a positive coefficient on their basic column,
    and a basic variable's value is rhs over that coefficient.  The objective
    row carries the same implicit positive scale, which preserves the reduced
    cost signs that drive Bland's rule, so the pivot sequence is identical to
    a Fraction tableau's.
    """

    def __init__(self, system: ConstraintSystem):
        self.system = system
        self.col_of: dict[str, tuple] = {}
        nstruct = 0
        for v in system.variables:
            b = system.lower[v]
            if b is None:
                self.col_of[v] = ("split", nstruct, nstruct + 1)
                nstruct += 2
            else:
                self.col_of[v] = ("shift", nstruct, b)
                nstruct += 1
        self.nstruct = nstruct

        # First pass: per row, the structural part, the right-hand side and
        # whether a slack (basic) or a surplus plus artificial is needed.
        staged = []
        n_aux = 0
        for lr in system.rows:
            vec = [ZERO] * nstruct
            const = Fraction(lr.const)
            for c, v in zip(lr.coeffs, system.variables):
                if not c:
                    continue
                kind, i, extra = self.col_of[v]
                if kind == "split":
                    vec[i] += c
                    vec[extra] -= c
                else:
                    vec[i] += c
                    const += c * extra
            den = (-const).denominator
            for c in vec:
                if c:
                    den = lcm(den, c.denominator)
            ivec = [int(c * den) for c in vec]
            b = int(-const * den)
            if lr.kind == GE:
                if b <= 0:
                    staged.append(([-c for c in ivec], -b, "slack"))
                else:
                    staged.append((ivec, b, "surplus"))
                n_aux += 1
            else:
                if b < 0:
                    ivec, b = [-c for c in ivec], -b
                staged.append((ivec, b, "eq"))

        n_art = sum(1 for _, _, k in staged if k != "slack")
        ncols = nstruct + n_aux + n_art
        rows, rhs, basis, artificial = [], [], [], []
        aux = nstruct
        art = nstruct + n_aux
        for vec, b, k in staged:
            full = vec + [0] * (ncols - nstruct)
            if k == "slack":
                full[aux] = 1
                basis.append(aux)
                aux += 1
            else:
                if k == "surplus":
                    full[aux] = -1
                    aux += 1
                full[art] = 1
                basis.append(art)
                artificial.append(art)
                art += 1
            rows.append(full)
            rhs.append(b)

        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.artificial = set(artificial)
        self.n_aux = n_aux
        self.ncols = ncols
        self.frozen = set()
        self.obj = [0] * ncols

    # -- tableau mechanics ----------------------------------------------------

    @staticmethod
    def _reduce(row: list, b: int) -> int:
        """Divide the row and rhs by their content; returns the new rhs."""
        g = abs(b)
        for c in row:
            if g == 1:
                return b
            if c:
                g = gcd(g, c)
        if g > 1:
            row[:] = [c // g for c in row]
            b //= g
        return b

    def _pivot(self, r: int, j: int):
        row = self.rows[r]
        if row[j] < 0:
            self.rows[r] = row = [-c for c in row]
            self.rhs[r] = -self.rhs[r]
        self.rhs[r] = rr = self._reduce(row, self.rhs[r])
        p = row[j]
        nz = [k for k, c in enumerate(row) if c]
        for i, other in enumerate(self.rows):
            if i == r:
                continue
            f = other[j]
            if f:
                if p != 1:
                    other[:] = [c * p for c in other]
                    b = self.rhs[i] * p - f * rr
                else:
                    b = self.rhs[i] - f * rr
                for k in nz:
                    other[k] -= f * row[k]
                self.rhs[i] = self._reduce(other, b)
        f = self.obj[j]
        if f:
            if p != 1:
                self.obj[:] = [c * p for c in self.obj]
            obj = self.obj
            for k in nz:
                obj[k] -= f * row[k]
            self._reduce(obj, 0)
        self.basis[r] = j

    def _price_out(self, cost: Sequence[Fraction]):
        den = 1
        for c in cost:
            if c:
                den = lcm(den, c.denominator)
        obj = [int(c * den) for c in cost] + [0] * (self.ncols - len(cost))
        for r, b in enumerate(self.basis):
            f = obj[b]
            if f:
                row = self.rows[r]
                q = row[b]
                if q != 1:
                    obj = [c * q - f * rc for c, rc in zip(obj, row)]
                    self._reduce(obj, 0)
                else:
                    obj = [c - f * rc for c, rc in zip(obj, row)]
        self._reduce(obj, 0)
        self.obj = obj

    def _minimize(self) -> str:
        while True:
            enter = -1
            for j, c in enumerate(self.obj):
                if c < 0 and j not in self.frozen:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave, bn, bd = -1, 0, 0
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    n = self.rhs[r]
                    if leave < 0 or n * bd < bn * a or (
                        n * bd == bn * a and self.basis[r] < self.basis[leave]
                    ):
                        leave, bn, bd = r, n, a
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    def _freeze_positive(self):
        in_basis = set(self.basis)
        for j, c in enumerate(self.obj):
            if c > 0 and j not in in_basis:
                self.frozen.add(j)

    # -- driver ---------------------------------------------------------------

    def feasible(self) -> bool:
        if self.artificial:
            cost = [ZERO] * self.ncols
            for j in self.artificial:
                cost[j] = ONE
            self._price_out(cost)
            self._minimize()
            if any(
                self.rhs[r] for r, b in enumerate(self.basis) if b in self.artificial
            ):
                return False
            self._evict_artificials()
            # Artificial columns can never re-enter; dropping them shrinks
            # every later row operation.
            cut = self.nstruct + self.n_aux
            for row in self.rows:
                del row[cut:]
            self.ncols = cut
            self.artificial = set()
        return True

    def _evict_artificials(self):
        r = 0
        while r < len(self.rows):
            if self.basis[r] in self.artificial:
                row = self.rows[r]
                j = next(
                    (k for k, c in enumerate(row) if c and k not in self.artificial),
                    -1,
                )
                if j < 0:
                    del self.rows[r], self.rhs[r], self.basis[r]
                    continue
                self._pivot(r, j)
            r += 1

    def _cost_vector(self, objective: Mapping[str, Fraction]) -> list:
        cost = [ZERO] * self.ncols
        for v, c in objective.items():
            c = Fraction(c)
            kind, i, extra = self.col_of[v]
            cost[i] += c
            if kind == "split":
                cost[extra] -= c
        return cost

    def _column_value(self, j: int, row_of: Mapping[int, int]) -> Fraction:
        r = row_of.get(j)
        if r is None:
            return ZERO
        return Fraction(self.rhs[r], self.rows[r][j])

    def assignment(self) -> dict[str, Fraction]:
        row_of = {b: r for r, b in enumerate(self.basis)}
        out = {}
        for v, (kind, i, extra) in self.col_of.items():
            if kind == "split":
                out[v] = self._column_value(i, row_of) - self._column_value(extra, row_of)
            else:
                out[v] = self._column_value(i, row_of) + extra
        return out

    def _stage_value(self, objective: Mapping[str, Fraction]) -> Fraction:
        row_of = {b: r for r, b in enumerate(self.basis)}
        acc = ZERO
        for v, c in objective.items():
            kind, i, extra = self.col_of[v]
            x = self._column_value(i, row_of)
            if kind == "split":
                x -= self._column_value(extra, row_of)
            else:
                x += extra
            acc += Fraction(c) * x
        return acc

    def solve(self, objectives: Sequence[Mapping[str, Fraction]]) -> LPResult:
        if not self.feasible():
            return LPResult(INFEASIBLE)
        values = []
        for obj in objectives:
            self._price_out(self._cost_vector(obj))
            if self._minimize() == UNBOUNDED:
                return LPResult(UNBOUNDED)
            values.append(self._stage_value(obj))
            self._freeze_positive()
        return LPResult(OPTIMAL, self.assignment(), tuple(values))


def solve_lp(problem: LPProblem) -> LPResult:
    """Minimize the first objective (feasibility check when there is none)."""
    return _Simplex(problem.system).solve(problem.objectives[:1])


def solve_lexmin(problem: LPProblem) -> LPResult:
    """Lexicographic minimization over the problem's objective list."""
    return _Simplex(problem.system).solve(problem.objectives)


def solve_ilp(problem: LPProblem, node_limit: int = 100_000) -> LPResult:
    """Depth-first branch and bound; branching follows the system's variable
    order restricted to the integrality set, so runs are reproducible."""
    order = [v for v in problem.system.variables if v in problem.integrality]
    stack = [problem.system]
    incumbent: LPResult | None = None
    nodes = 0
    while stack:
        system = stack.pop()
        nodes += 1
        if nodes > node_limit:
            raise ResourceLimitError(node_limit)
        relax = _Simplex(system).solve(problem.objectives)
        if relax.status == INFEASIBLE:
            continue
        if relax.status == UNBOUNDED:
            return relax
        if incumbent and relax.objective >= incumbent.objective:
            continue
        frac = next(
            (v for v in order if relax.assignment[v].denominator != 1), None
        )
        if frac is None:
            incumbent = relax
            continue
        val = relax.assignment[frac]
        up = system.with_rows([system.row_from({frac: 1}, -ceil(val), GE)])
        down = system.with_rows([system.row_from({frac: -1}, floor(val), GE)])
        stack.append(up)
        stack.append(down)
    return incumbent if incumbent else LPResult(INFEASIBLE)


@dataclass(frozen=True)
class ScaledSolution:
    values: dict[str, Fraction]
    factor: int
    group_factors: tuple[int, ...]


def scale_to_integral(assignment: Mapping[str, Fraction],
                      groups: Sequence[Sequence[str]] = ()) -> ScaledSolution:
    """Scale a rational solution to an integral one.

    Every variable group (one per connected set of statements) is multiplied
    by the least common multiple of its denominators.  Ungrouped variables
    (shared bounding coefficients, for instance) are multiplied by the least
    common multiple over all groups and their own denominators, so they stay
    valid for every group.
    """
    assignment = {v: Fraction(x) for v, x in assignment.items()}
    grouped: set[str] = set()
    factors = []
    values: dict[str, Fraction] = {}
    for group in groups:
        members = [v for v in group if v in assignment]
        k = lcm(1, *(assignment[v].denominator for v in members))
        factors.append(k)
        for v in members:
            values[v] = assignment[v] * k
            grouped.add(v)
    rest = [v for v in assignment if v not in grouped]
    k_all = lcm(1, *factors, *(assignment[v].denominator for v in rest))
    for v in rest:
        values[v] = assignment[v] * k_all
    return ScaledSolution(values, k_all, tuple(factors))
