"""Level-by-level affine scheduling.

Each level solves for one transform row per statement: the row must carry
every live dependence forward (difference non-negative on the dependence
polyhedron) while a parametric bound on the differences is minimized
lexicographically, then per-statement trivial solutions and linearly dependent
rows are excluded.  The integer and rational variants share everything but
the final solve; rational solutions are rescaled to integers afterwards.

When no row exists the scheduler first retires dependences already satisfied
at an earlier level, and failing that distributes the strongly connected
components apart with a constant level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from . import ratlp
from .farkas import (
    EQ, ZERO, ConstraintSystem,
    bounding_constraints, coefficient_variables, farkas_cone, legality_constraints,
)
from .model import (
    AffineTransform, Band, Cut, DependencePolyhedron, Program,
    SchedulingError, Statement, components, constant_row, satisfaction_level,
    scc_decompose,
)

LP = "lp"
ILP = "ilp"

#: Joint axis assignments tried before giving up in the no-skew mode.
MAX_AXIS_COMBOS = 4096


@dataclass(frozen=True)
class SchedulerConfig:
    mode: str = LP
    #: No shifts and no skew: every row is a scaled unit vector.
    restricted: bool = False


DEFAULT = SchedulerConfig()


# -- exact linear algebra over rows -------------------------------------------


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        lead = mat[r][col]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def row_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def nullspace_basis(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Integral basis of the right null space of the row span.

    Each vector's leading nonzero entry is made positive; with non-negative
    coefficient variables the summed independence constraint would otherwise
    often point away from the feasible orthant.
    """
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        den = lcm(*(x.denominator for x in vec))
        vec = [x * den for x in vec]
        lead = next(x for x in vec if x)
        if lead < 0:
            vec = [-x for x in vec]
        basis.append(tuple(vec))
    return basis


def independence_vector(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Sum of the null-space basis of the rows found so far.

    Requiring a positive product with this vector forces the next row out of
    the span.  The converse does not hold: some independent rows violate it,
    a deliberate single-row under-approximation that keeps the system linear.
    Returns None when the rows already have full rank.
    """
    basis = nullspace_basis(rows, ncols)
    if not basis:
        return None
    return tuple(sum(col) for col in zip(*basis))


# -- constraint assembly ------------------------------------------------------


def _farkas_rows(program: Program, dep: DependencePolyhedron,
                 ) -> tuple[ConstraintSystem, ConstraintSystem]:
    """The (legality, bounding) rows of `dep`, built on first use.

    They depend only on the dependence and its two statements, so they are
    kept on the dependence and shared by every path and level that uses it.
    Both substitute a form into the Farkas cone of the dependence's
    relation, which depends on the relation's rows alone: each distinct
    relation is eliminated once per program.
    """
    if dep._farkas is None:
        src, dst = program.statement(dep.src), program.statement(dep.dst)
        cone = program._farkas_shapes.get(dep.relation.rows)
        if cone is None:
            cone = program._farkas_shapes[dep.relation.rows] = farkas_cone(dep.relation)
        object.__setattr__(dep, "_farkas", (legality_constraints(dep, src, dst, cone),
                                            bounding_constraints(dep, src, dst, cone)))
    return dep._farkas


def bound_variables(program: Program) -> list[str]:
    return [f"u.{p}" for p in program.params] + ["w"]


def level_system(program: Program, deps: Sequence[DependencePolyhedron],
                 forms: Mapping[str, Mapping[str, Fraction | int]],
                 variables: Sequence[str],
                 lower: Mapping[str, Fraction | None] | None = None) -> ConstraintSystem:
    """Legality and bounding rows of `deps` restricted to one level's unknowns.

    The system's variables are the bound variables, then `variables` in the
    given order.  Each coefficient variable named in `forms` is replaced by
    its linear form {variable: weight} over `variables`; every other
    coefficient variable is zero: its terms vanish, and leaving out the pin
    row keeps the tableau small.  Donor bounds are ignored: legality and
    bounding rows are valid whatever bounds the level chooses.
    """
    bounds = bound_variables(program)
    system = ConstraintSystem(bounds + list(variables), (), lower)
    forms = {**forms, **{v: {v: 1} for v in bounds}}
    rows = []
    for dep in deps:
        for donor in _farkas_rows(program, dep):
            subst = [forms.get(v) for v in donor.variables]
            for r in donor.rows:
                acc: dict[str, Fraction] = {}
                for i, c in r.nonzero:
                    form = subst[i]
                    if form:
                        for v, a in form.items():
                            x = c if a == 1 else -c if a == -1 else c * a
                            acc[v] = acc[v] + x if v in acc else x
                rows.append(system.row_from(acc, r.const, r.kind))
    return system.with_rows(rows)


# -- one level ----------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One schedule level: a solve, or a cut that needed none.

    `raw` is the solver's optimum over `system.variables` (both None for a
    cut); `raw` times `factors`, one per component group, gives the level's
    integer rows.  `component` is None for a step spanning the whole program.
    """

    level: int
    kind: str  # "loop", "cut" or "component-cut"
    parallel: bool = False  # no parametric or constant bound needed
    system: ConstraintSystem | None = None
    raw: Mapping[str, Fraction] | None = None
    factors: tuple[int, ...] = ()
    component: int | None = None


def _lexmin(system: ConstraintSystem) -> ratlp.LPResult:
    """Rational lexmin of every variable in the system's order."""
    return ratlp.solve_lexmin(
        ratlp.LPProblem.of(system, [{v: 1} for v in system.variables]))


def _lexmin_solve(system: ConstraintSystem, config: SchedulerConfig) -> ratlp.LPResult:
    if config.mode == ILP:
        problem = ratlp.LPProblem.of(system, [{v: 1} for v in system.variables],
                                     system.variables)
        return ratlp.solve_ilp(problem)
    return _lexmin(system)


def _statement_state(statements: Sequence[Statement], prior: Mapping[str, Sequence]):
    """Iterator parts of the rows found so far and completion per statement."""
    parts = {}
    complete = {}
    for s in statements:
        rows = [r[: s.dim] for r in prior.get(s.id, ())]
        nonzero = [r for r in rows if any(r)]
        parts[s.id] = nonzero
        complete[s.id] = s.dim == 0 or row_rank(nonzero) == s.dim
    return parts, complete


def find_hyperplane(program: Program, statements: Sequence[Statement],
                    deps: Sequence[DependencePolyhedron],
                    prior: Mapping[str, Sequence],
                    config: SchedulerConfig, level: int,
                    component: int | None) -> Step | None:
    """The loop step of `level`: one more row per statement, or None if none.

    Statements whose rows already span their iteration space get zero rows
    and stop influencing the problem; so do shifts in the restricted mode.
    """
    parts, complete = _statement_state(statements, prior)
    if all(complete.values()):
        return None

    forms = {}
    variables = []
    active = []
    for s in statements:
        if complete[s.id]:
            continue
        active.append(s)
        for v in coefficient_variables(s, program.params):
            if config.restricted and v.startswith(("c0.", "d.")):
                continue
            forms[v] = {v: 1}
            variables.append(v)
    system = level_system(program, deps, forms, variables)

    rows = []
    for s in active:
        rows.append(system.row_from(
            {f"c.{s.id}.{it}": 1 for it in s.domain.iterators}, -1))
        guide = independence_vector(parts[s.id], s.dim) if parts[s.id] else None
        if guide is not None:
            rows.append(system.row_from(
                {f"c.{s.id}.{it}": a for it, a in zip(s.domain.iterators, guide) if a},
                -1))
    system = system.with_rows(rows)

    if config.restricted:
        result, system = _best_axis_solve(system, active, parts, config)
    else:
        result = _lexmin_solve(system, config)
    if not result:
        return None

    scaled = ratlp.scale_to_integral(result.assignment,
                                     groups=[list(result.assignment)])
    return Step(level, "loop", _is_parallel(program, result.assignment), system,
                dict(result.assignment), scaled.group_factors, component)


def _best_axis_solve(system: ConstraintSystem, active: Sequence[Statement],
                     parts: Mapping[str, Sequence], config: SchedulerConfig):
    """No-skew search: each statement's row must be a scaled unit vector on an
    axis its earlier rows leave untouched.  All joint axis assignments are
    tried and the lexicographically best outcome wins; ties cannot occur since
    the objective covers every variable."""
    choices = []
    for s in active:
        used = [k for k in range(s.dim) if any(r[k] for r in parts[s.id])]
        axes = [k for k in range(s.dim) if k not in used]
        choices.append([(s, k) for k in axes])
    total = 1
    for c in choices:
        total *= len(c)
    if total > MAX_AXIS_COMBOS:
        raise SchedulingError(f"axis search space too large ({total} assignments)")

    best = None
    best_sys = None
    for combo in itertools.product(*choices):
        pinned = system
        bounds = {}
        pins = []
        for s, axis in combo:
            for k, it in enumerate(s.domain.iterators):
                var = f"c.{s.id}.{it}"
                if k == axis:
                    bounds[var] = Fraction(1)
                else:
                    pins.append(pinned.row_from({var: 1}, 0, EQ))
        pinned = pinned.with_rows(pins).with_lower(bounds)
        result = _lexmin_solve(pinned, config)
        if result and (best is None or result.objective < best.objective):
            best, best_sys = result, pinned
    return best, best_sys


# -- the full scheduler -------------------------------------------------------


@dataclass(frozen=True)
class ScheduleResult:
    transform: AffineTransform
    steps: tuple[Step, ...]
    components: tuple[tuple[str, ...], ...]


def _is_parallel(program: Program, assignment: Mapping[str, Fraction]) -> bool:
    return all(not assignment.get(v) for v in bound_variables(program))


def schedule(program: Program, deps: Sequence[DependencePolyhedron],
             config: SchedulerConfig = DEFAULT) -> ScheduleResult:
    """Full transform: weakly connected components are scheduled separately
    (each with its own bound minimization) under an outer distribution level
    when there is more than one."""
    deps = tuple(d for d in deps if d.ordering)
    by_id = {s.id: s for s in program.statements}
    ordered = sorted(program.statements, key=lambda s: s.textual_order)
    comps = components([s.id for s in ordered], deps)

    rows: dict[str, list] = {s.id: [] for s in ordered}
    bands: list[Band] = []
    cuts: list[Cut] = []
    steps: list[Step] = []

    start = 1
    if len(comps) > 1:
        for ci, comp in enumerate(comps):
            for sid in comp:
                rows[sid].append(constant_row(by_id[sid], len(program.params), ci))
        cuts.append(Cut(1, comps))
        steps.append(Step(1, "component-cut"))
        start = 2

    for ci, comp in enumerate(comps):
        stmts = [by_id[sid] for sid in comp]
        live = [d for d in deps if d.src in comp]
        _schedule_component(program, ci, stmts, live, config,
                            rows, bands, cuts, steps, start)

    transform = AffineTransform.of(program, rows, bands,
                                   sorted(cuts, key=lambda c: c.level))
    return ScheduleResult(transform, tuple(steps), comps)


def _schedule_component(program, ci, stmts, live, config,
                        rows, bands, cuts, steps, start):
    comp = tuple(s.id for s in stmts)
    nparams = len(program.params)
    level = start
    band_start = start
    band_parallel = False

    def close_band(end):
        nonlocal band_start
        if end >= band_start:
            bands.append(Band(band_start, end, True, band_parallel, comp))

    while True:
        _, complete = _statement_state(stmts, rows)
        if all(complete.values()):
            close_band(level - 1)
            return

        step = find_hyperplane(program, stmts, live, rows, config, level, ci)
        if step is not None:
            for s in stmts:
                if complete[s.id]:
                    continue
                names = coefficient_variables(s, program.params)
                rows[s.id].append(tuple(step.factors[0] * step.raw.get(v, ZERO)
                                        for v in names))
            if level == band_start:
                band_parallel = step.parallel
            steps.append(step)
            level += 1
            continue

        # No row at this level: retire satisfied dependences, else distribute.
        close_band(level - 1)
        band_start = level
        current = AffineTransform.of(program, rows)
        satisfied = [d for d in live
                     if satisfaction_level(d, current, level - 1) is not None]
        if satisfied:
            dropped = set(map(id, satisfied))
            live[:] = [d for d in live if id(d) not in dropped]
            continue

        sccs = scc_decompose(comp, live)
        if len(sccs) <= 1:
            raise SchedulingError(
                f"no transformation row exists for {comp} and nothing to distribute")
        ordinal = {sid: k for k, group in enumerate(sccs) for sid in group}
        for s in stmts:
            rows[s.id].append(constant_row(s, nparams, ordinal[s.id]))
        cuts.append(Cut(level, sccs))
        steps.append(Step(level, "cut", component=ci))
        current = AffineTransform.of(program, rows)
        before = len(live)
        live[:] = [d for d in live
                   if satisfaction_level(d, current, level) is None]
        if len(live) == before:
            raise SchedulingError(
                f"distribution of {comp} made no progress at level {level}")
        level += 1
        band_start = level
