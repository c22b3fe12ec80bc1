"""Level-by-level affine scheduling.

Each level solves for one transform row per statement: the row must carry
every live dependence forward (difference non-negative on the dependence
polyhedron) while a parametric bound on the differences is minimized
lexicographically, then per-statement trivial solutions and linearly dependent
rows are excluded.  The integer and rational variants share everything but
the final solve; rational solutions are rescaled to integers afterwards.

When no row exists the scheduler first retires dependences already satisfied
at an earlier level, and failing that distributes the strongly connected
components apart with a constant level (`model.place_cut`).  That satisfies
exactly the live dependences between them; when there are none, as with a
single SCC, the error names the live dependences.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from typing import Mapping, NamedTuple, Sequence

from . import ratlp
from .farkas import (
    EQ, ConstraintSystem, LinearRow, _dense, _int_row, _reduce, _with_pivot,
    bound_variables, coefficient_variables,
)
from .model import (
    AffineTransform, Band, Cut, DependencePolyhedron, Program,
    SchedulingError, Statement, components, dependence_list, place_cut,
    scc_decompose, unsatisfied,
)

LP = "lp"
ILP = "ilp"

#: Joint axis assignments tried before giving up in the no-skew mode.
MAX_AXIS_COMBOS = 4096


class SchedulerConfig:
    __slots__ = ("mode", "restricted")

    def __init__(self, mode: str = LP, restricted: bool = False):
        if mode not in (LP, ILP):
            raise ValueError(f"unknown scheduler mode {mode!r}; "
                             f"expected {LP!r} or {ILP!r}")
        self.mode = mode
        #: No shifts and no skew: every row is a scaled unit vector.
        self.restricted = restricted


DEFAULT = SchedulerConfig()


# -- exact linear algebra over rows -------------------------------------------


def _echelon(rows: Sequence[Sequence]) -> tuple[LinearRow, ...]:
    """The integer echelon form (`farkas._reduce`) of the int rows, less
    those the rows before it span."""
    form: tuple[LinearRow, ...] = ()
    for r in rows:
        row = _int_row(len(r), dict(enumerate(r)), 0, EQ)
        reduced = _reduce(row, form)
        if reduced.nonzero:
            form = _with_pivot(form, row, reduced)
    return form


def row_rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows))


def nullspace_basis(rows: Sequence[Sequence], ncols: int) -> list[tuple[int, ...]]:
    """Integral basis of the right null space of the row span: per free
    column f, the primitive vector that is 0 at the other free columns,
    read off the echelon rows, each reduced against the later ones too.

    Each vector's leading nonzero entry is made positive (`farkas._dense`);
    with non-negative coefficient variables the summed independence
    constraint would otherwise often point away from the feasible orthant.
    """
    form = _echelon(rows)
    pivots = {p.nonzero[0][0]: dict(_reduce(p, form[k + 1:]).nonzero)
              for k, p in enumerate(form)}
    basis = []
    for f in (f for f in range(ncols) if f not in pivots):
        vec = [0] * ncols
        vec[f] = den = lcm(*[row[j] for j, row in pivots.items() if f in row])
        for j, row in pivots.items():
            vec[j] = -row.get(f, 0) * (den // row[j])
        basis.append(_dense(vec, 0, EQ, None)[0])
    return basis


def independence_vector(rows: Sequence[Sequence], ncols: int):
    """Sum of the null-space basis of the rows found so far.

    Requiring a positive product with this vector forces the next row out of
    the span.  The converse does not hold: some independent rows violate it,
    a deliberate single-row under-approximation that keeps the system linear.
    So `ilp` and `lp` refuse some levels that have a legal independent row,
    as on `tests/fixtures/ilp_independence.json` (ROADMAP item 23).
    Returns None when the rows already have full rank.
    """
    basis = nullspace_basis(rows, ncols)
    if not basis:
        return None
    return tuple(sum(col) for col in zip(*basis))


# -- constraint assembly ------------------------------------------------------


#: Per statement id, the (unknown, int row over the statement's
#: `coefficient_variables`, int lower bound or None) terms of its level row.
Terms = Mapping[str, Sequence[tuple[str, Sequence[int], int | None]]]


def level_system(program: Program, deps: Sequence[DependencePolyhedron],
                 terms: Terms, feasibility: bool = False) -> ConstraintSystem:
    """Legality and bounding rows of `deps` over one level's unknowns.

    `terms` gives each statement an ordered list of (unknown, row over its
    `coefficient_variables`, lower bound, None for free); its level row is
    the sum of each unknown times its row (`level_rows`), and a statement
    left out has a zero row.  The system's variables are the bound
    variables, then every unknown in order.  Donor bounds are ignored:
    legality and bounding rows are valid whatever bounds the level chooses.
    A dependence's `farkas_rows`, shared per dependence shape, are
    substituted by position: each coefficient of a statement becomes the
    (column, int weight) pairs its terms give it, and each row is made
    canonical by `_int_row`.  A repeat of an earlier row, which the
    system's pruning would drop, is dropped as it is made: a statement that
    leaves most coefficients out repeats many of its dependences' rows.

    With `feasibility` set, for a caller that asks only whether the system
    has a point, a dependence whose relation is `bounded` gives its
    legality rows alone: its bounding rows hold for some u and w whatever
    the level's row, and for any larger ones, so leaving them out changes
    no verdict while every relation makes its parameters non-negative, as
    every dependence relation does.
    """
    bounds = bound_variables(program.params)
    lower = {u: low for listed in terms.values() for u, _, low in listed}
    system = ConstraintSystem(bounds + list(lower), (), lower)
    width, nparams = len(system.variables), len(program.params)
    columns = {}
    for sid, listed in terms.items():
        weights = [{} for _ in range(program.statement(sid).dim + nparams + 1)]
        for unknown, row, _ in listed:
            for j, a in enumerate(row):
                if a:
                    weights[j][system.index(unknown)] = a
        columns[sid] = [tuple(w.items()) for w in weights]
    units = [((k, 1),) for k in range(len(bounds))]
    rows, seen = [], set()
    for dep in deps:
        cols = [form for sid in dict.fromkeys((dep.src, dep.dst)) for form in
                columns.get(sid) or [()] * (program.statement(sid).dim + nparams + 1)]
        legality_only = feasibility and dep.bounded
        for donor, subst in zip(dep.farkas_rows[:1] if legality_only else dep.farkas_rows,
                                (cols, units + cols)):
            for nonzero, const, kind, _ in donor:
                acc: dict[int, int] = {}
                for i, c in nonzero:
                    for k, a in subst[i]:
                        acc[k] = acc.get(k, 0) + c * a
                row = _int_row(width, acc, const, kind)
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
    return system.with_rows(rows)


def level_rows(terms: Terms, values: Mapping[str, int]) -> dict[str, tuple[int, ...]]:
    """Each statement's level row: its terms' rows times the unknowns'
    `values`, an absent unknown counting as 0."""
    rows = {}
    for sid, listed in terms.items():
        acc = [0] * len(listed[0][1]) if listed else []
        for u, row, _ in listed:
            x = values.get(u)
            if x:
                for j, a in enumerate(row):
                    if a:
                        acc[j] += x * a
        rows[sid] = tuple(acc)
    return rows


def _unit_terms(s: Statement, params: Sequence[str], picks) -> list:
    """One term per (k, low) of `picks`: the k-th of `s`'s coefficient
    variables alone, as its own unknown with lower bound `low`."""
    names = coefficient_variables(s, params)
    return [(names[k], tuple(int(j == k) for j in range(len(names))), low)
            for k, low in picks]


def dimension_terms(program: Program, choose: Mapping[str, int],
                    parametric_shifts: bool = False) -> Terms:
    """The `level_system` terms of the level where each statement of
    `choose` loops over its chosen dimension: per statement, in the order
    of `choose`, that iterator coefficient, at least 1, then each parameter
    shift when `parametric_shifts` is set, then the constant shift; every
    shift is free and every other coefficient zero.  The tableau splits a
    free variable into a positive and a negative half, so
    `ratlp.solve_lexmin` gives each shift its value of smallest magnitude.
    """
    params, nparams = program.params, len(program.params)
    terms = {}
    for sid, k in choose.items():
        s = program.statement(sid)
        shifts = range(s.dim if parametric_shifts else s.dim + nparams, s.dim + nparams + 1)
        terms[sid] = _unit_terms(s, params, [(k, 1)] + [(j, None) for j in shifts])
    return terms


# -- one level ----------------------------------------------------------------


class Step(NamedTuple):
    """One schedule level: a solve, or a cut that needed none.

    A loop step comes only from `solve_level`.  `raw` is the solver's
    optimum over `system.variables` (both None for a cut), as `Fraction`s;
    `factors` holds one int per group of variables `solve_level` scaled,
    the lcm of that group's denominators, and `rows`, the level's row of
    each statement it placed, is `raw` times those factors, read off by
    `level_rows`: its entries are ints.  `component` is `schedule`'s index
    of the weakly connected component the step is in, None outside one.
    """

    level: int
    kind: str  # "loop", "cut" or "component-cut"
    parallel: bool = False  # no parametric or constant bound needed
    system: ConstraintSystem | None = None
    raw: Mapping[str, Fraction] | None = None
    factors: tuple[int, ...] = ()
    component: int | None = None
    rows: Mapping[str, tuple[int, ...]] | None = None


def solve_level(program: Program, deps: Sequence[DependencePolyhedron],
                terms: Terms, level: int, groups: Sequence[Sequence[str]] | None = None,
                extra: Sequence[tuple[Mapping[str, int], int]] = (),
                mode: str = LP) -> Step | None:
    """The loop step of `level` over `terms`, or None when it is infeasible.

    The system is `level_system` of `deps` plus one row per (form over the
    unknowns, constant) of `extra`, each form plus its constant at least 0.
    Its column lexmin is taken, over the integers in `ilp` mode; a
    node-limit error names the level and the statements of `terms`.  Each
    group of `groups`, by default the one group of every system variable,
    is scaled by the lcm of its members' denominators, which makes each
    scaled unknown an int, and each statement's row is read off the scaled
    unknowns by `level_rows`, so an unknown in no group reads as 0.
    """
    system = level_system(program, deps, terms)
    if extra:
        system = system.with_rows(system.row_from(form, const) for form, const in extra)
    if mode != ILP:
        result = ratlp.solve_lexmin(ratlp.LPProblem.of(system))
    else:
        try:
            result = ratlp.solve_ilp(ratlp.LPProblem.of(system))
        except ratlp.ResourceLimitError as exc:
            raise ratlp.ResourceLimitError(f"{exc} at level {level} for statements "
                                           f"{', '.join(terms)}") from None
    if not result:
        return None
    x = result.assignment
    factors, scaled = [], {}
    for group in [system.variables] if groups is None else groups:
        members = [v for v in group if v in x]
        k = lcm(1, *(x[v].denominator for v in members))
        factors.append(k)
        scaled.update((v, x[v].numerator * (k // x[v].denominator)) for v in members)
    return Step(level, "loop", _is_parallel(program, x), system, dict(x),
                tuple(factors), rows=level_rows(terms, scaled))


def _statement_state(statements: Sequence[Statement], prior: Mapping[str, Sequence]):
    """Iterator parts of the rows found so far and completion per statement."""
    parts, complete = {}, {}
    for s in statements:
        parts[s.id] = [r[:s.dim] for r in prior.get(s.id, ()) if any(r[:s.dim])]
        complete[s.id] = s.dim == 0 or row_rank(parts[s.id]) == s.dim
    return parts, complete


def find_hyperplane(program: Program, statements: Sequence[Statement],
                    deps: Sequence[DependencePolyhedron],
                    prior: Mapping[str, Sequence],
                    config: SchedulerConfig, level: int) -> Step | None:
    """The loop step of `level`: one more row per statement, or None if none.

    Every statement whose rows do not yet span its iteration space gets one
    unit term per coefficient, at least 0 (in the restricted mode one term
    on an unused axis, at least 1; see `_best_axis_solve`), plus rows that
    keep its iterator coefficients nonzero and out of the span of its
    earlier rows.  The others get zero rows and stop influencing the
    problem.  The level is scaled as one group: the bound variables, then
    every unknown.
    """
    parts, complete = _statement_state(statements, prior)
    if all(complete.values()):
        return None

    active = [s for s in statements if not complete[s.id]]
    if config.restricted:
        return _best_axis_solve(program, deps, active, parts, config, level)
    nparams = len(program.params)
    terms = {s.id: _unit_terms(s, program.params,
                               [(k, 0) for k in range(s.dim + nparams + 1)])
             for s in active}
    extra = []
    for s in active:
        names = coefficient_variables(s, program.params)[:s.dim]
        extra.append((dict.fromkeys(names, 1), -1))
        guide = independence_vector(parts[s.id], s.dim) if parts[s.id] else None
        if guide is not None:
            extra.append(({v: a for v, a in zip(names, guide) if a}, -1))
    return solve_level(program, deps, terms, level, extra=extra, mode=config.mode)


def _best_axis_solve(program: Program, deps: Sequence[DependencePolyhedron],
                     active: Sequence[Statement], parts: Mapping[str, Sequence],
                     config: SchedulerConfig, level: int) -> Step | None:
    """No-skew search: each statement's row is a scaled unit vector on an
    axis its earlier rows leave untouched, one term per statement.  Every
    joint axis assignment is solved; the least optimum over the bound
    variables, then every iterator coefficient (absent ones count as 0),
    wins, and ties cannot occur since it covers every unknown.  None when
    no assignment is feasible."""
    choices = [[k for k in range(s.dim) if not any(r[k] for r in parts[s.id])]
               for s in active]
    total = prod(map(len, choices))
    if total > MAX_AXIS_COMBOS:
        raise SchedulingError(
            f"axis search space too large at level {level}: {total} assignments "
            f"for statements {', '.join(s.id for s in active)}")
    order = bound_variables(program.params) + [
        v for s in active for v in coefficient_variables(s, program.params)[:s.dim]]
    best, best_key = None, None
    for combo in itertools.product(*choices):
        terms = {s.id: _unit_terms(s, program.params, [(k, 1)])
                 for s, k in zip(active, combo)}
        step = solve_level(program, deps, terms, level, mode=config.mode)
        if step is None:
            continue
        key = tuple(step.raw.get(v, 0) for v in order)
        if best_key is None or key < best_key:
            best, best_key = step, key
    return best


# -- the full scheduler -------------------------------------------------------


class ScheduleResult(NamedTuple):
    transform: AffineTransform
    steps: tuple[Step, ...]
    components: tuple[tuple[str, ...], ...]


def _is_parallel(program: Program, assignment: Mapping[str, Fraction]) -> bool:
    return all(not assignment.get(v) for v in bound_variables(program.params))


def schedule(program: Program, deps: Sequence[DependencePolyhedron],
             config: SchedulerConfig = DEFAULT) -> ScheduleResult:
    """Full transform: weakly connected components are scheduled separately
    (each with its own bound minimization) under an outer distribution level
    when there is more than one.  Each component is one walk over its
    levels, and each retire or cut there ends a band.  A walk ends once
    every statement has full rank and no dependence that runs against
    textual order is left unsatisfied; a trailing cut orders such a one."""
    deps = tuple(d for d in deps if d.ordering)
    comps = components([s.id for s in program.statements], deps)
    order = {s.id: s.textual_order for s in program.statements}

    rows: dict[str, list] = {s.id: [] for s in program.statements}
    bands: list[Band] = []
    cuts: list[Cut] = []
    steps: list[Step] = []

    start = 1
    if len(comps) > 1:
        cuts.append(place_cut(program, rows, 1, comps))
        steps.append(Step(1, "component-cut"))
        start = 2

    for ci, comp in enumerate(comps):
        stmts = [program.statement(sid) for sid in comp]
        live = [d for d in deps if d.src in comp]
        level = band_start = start
        while True:
            step = find_hyperplane(program, stmts, live, rows, config, level)
            if step is not None:
                for sid, row in step.rows.items():
                    rows[sid].append(row)
                steps.append(step._replace(component=ci))
                level += 1
                continue
            if level > band_start:
                bands.append(Band(band_start, level - 1, True,
                                  steps[band_start - level].parallel, comp))
            back = [d for d in live if order[d.src] > order[d.dst]]
            if all(_statement_state(stmts, rows)[1].values()) and not (
                    back and unsatisfied(back, AffineTransform.of(program, rows), level - 1)):
                break
            kept = unsatisfied(live, AffineTransform.of(program, rows), level - 1)
            if len(kept) == len(live):
                cuts.append(place_cut(program, rows, level, scc_decompose(comp, live)))
                steps.append(Step(level, "cut", component=ci))
                kept = unsatisfied(live, AffineTransform.of(program, rows), level)
                if len(kept) == len(live):
                    raise SchedulingError(
                        f"no transformation row exists at level {level} for statements "
                        f"{', '.join(comp)}, and distribution makes no progress; "
                        f"live dependences {dependence_list(live)}")
                level += 1
            live, band_start = kept, level

    transform = AffineTransform.of(program, rows, bands,
                                   sorted(cuts, key=lambda c: c.level))
    return ScheduleResult(transform, tuple(steps), comps)
