"""Passes that turn a fusion-conflict-graph coloring into the final schedule.

Both passes only choose per-statement terms, extra rows and groups:
`pluto.solve_level` builds and solves each level, scales it to integers
with one group per weakly connected component, and reads the rows back.
`scale_and_shift` solves each color's picks on `pluto.dimension_terms`,
the terms of the fusion probes' systems: the picked coefficient may grow past 1
and the shifts are free, so fused statements can slide against each other.
`introduce_skew` then walks the bands, the runs of loop levels between
cuts.  A band's live set is the ordering dependences `model.unsatisfied`
lists above it; each band level where `model.negative` finds one of them
is replaced with a non-negative combination of itself and the rows above
it, solved over the live set alone: one term on each row, with
non-negativity rows on the iterator coefficients as extras.  A band with
a level that admits no such combination keeps its rows and is not
permutable.  `dfp_schedule` chains all three.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .fcg import Coloring, color_fcg
from .model import (
    AffineTransform,
    Band,
    DependencePolyhedron,
    Program,
    SchedulingError,
    components,
    dependence_list,
    negative,
    place_cut,
    scc_decompose,
    unsatisfied,
)
from .pluto import Step, Terms, dimension_terms, solve_level


def _component_groups(comps: Sequence[Sequence[str]], terms: Terms) -> list[list[str]]:
    """One `solve_level` group per weakly connected component: the unknowns
    of its statements' terms."""
    return [[u for sid in comp for u, _, _ in terms.get(sid, ())] for comp in comps]


def scale_and_shift(program: Program, deps: Sequence[DependencePolyhedron],
                    coloring: Coloring):
    """Solve one loop level per color, outermost first, with free shifts.

    A cut recorded at color c is placed by `model.place_cut` right before
    color c's loop level, and a dependence already satisfied by the rows
    above (cuts included) no longer constrains deeper levels.  When a
    dependence that runs against textual order is still unsatisfied after
    the last color, a trailing cut distributes the strongly connected
    components of the unsatisfied dependences, as `pluto.schedule` does,
    and an error is raised if that leaves one unsatisfied.  Returns the
    scaled transform and one `Step` per level.
    """
    ordering = [d for d in deps if d.ordering]
    ids = [s.id for s in program.statements]
    comps = components(ids, deps)
    acc: dict[str, list] = {s.id: [] for s in program.statements}
    cuts = []
    steps = []

    for color in range(1, max((s.dim for s in program.statements), default=0) + 1):
        level = color + len(cuts)
        if color in coloring.cut_groups:
            cuts.append(place_cut(program, acc, level, coloring.cut_groups[color]))
            steps.append(Step(level, "cut"))
            level += 1

        live = unsatisfied(ordering, AffineTransform.of(program, acc))
        # Each cut holds every statement: one colored here has level - 1 rows.
        active = {s.id: coloring.colors[s.id][color - 1] for s in program.statements
                  if len(coloring.colors[s.id]) >= color}
        terms = dimension_terms(program, active, parametric_shifts=True)
        step = solve_level(program, live, terms, level, _component_groups(comps, terms))
        if step is None:
            raise SchedulingError(
                f"no legal scaling and shifting exists at level {level}: "
                f"statements {', '.join(active)}; live dependences {dependence_list(live)}")
        for sid, row in step.rows.items():
            acc[sid].append(row)
        steps.append(step)

    order = {s.id: s.textual_order for s in program.statements}
    back = [d for d in ordering if order[d.src] > order[d.dst]]
    if back and unsatisfied(back, AffineTransform.of(program, acc)):
        level = len(steps) + 1
        live = unsatisfied(ordering, AffineTransform.of(program, acc))
        cuts.append(place_cut(program, acc, level, scc_decompose(ids, live)))
        steps.append(Step(level, "cut"))
        if unsatisfied(back, AffineTransform.of(program, acc)):
            raise SchedulingError(
                f"distribution at level {level} makes no progress; "
                f"live dependences {dependence_list(live)}")
    return AffineTransform.of(program, acc, (), cuts), tuple(steps)


# -- skewing -------------------------------------------------------------------


class SkewOutcome(NamedTuple):
    """`transform` is the input with every kept skew and every band set (a
    band that a level refused a skew is not permutable); `skewed` holds one
    step per replaced level, outermost first, none when no band kept a skew."""

    transform: AffineTransform
    skewed: tuple[Step, ...]


def _skew_level(program: Program, live: Sequence[DependencePolyhedron],
                transform: AffineTransform, level: int):
    """Replace the level's rows by non-negative combinations with outer rows.

    Each statement present at the level gets a term `a.S` of at least 1 on
    its own row (keeping the rows linearly independent) and a term `b.S.k`,
    at least 0, on each nonzero outer row k.  Legality over the live
    ordering dependences and the usual bounding make this the same lexmin
    shape as the scheduler.  The weights are scaled to integers per
    connected component of `live`.
    """
    terms = {}
    for s in program.statements:
        own = transform.row(s.id, level)
        if own is None or not any(own):
            continue  # the statement's row stays zero
        outer = [(k, transform.row(s.id, k)) for k in range(1, level)]
        terms[s.id] = [(f"a.{s.id}", own, 1)] + [
            (f"b.{s.id}.{k}", r, 0) for k, r in outer if r is not None and any(r)]

    # Iterator coefficients stay non-negative, as everywhere else.
    extra = [({u: row[j] for u, row, _ in terms[s.id] if row[j]}, 0)
             for s in program.statements if s.id in terms for j in range(s.dim)]
    comps = components([s.id for s in program.statements], live)
    step = solve_level(program, live, terms, level, _component_groups(comps, terms), extra)
    if step is None:
        return None
    rows = {sid: (*r[:level - 1], step.rows[sid], *r[level:]) if sid in step.rows else r
            for sid, r in transform.rows.items()}
    return transform._replace(rows=rows), step


def introduce_skew(program: Program, deps: Sequence[DependencePolyhedron],
                   transform: AffineTransform, steps: Sequence[Step]) -> SkewOutcome:
    """Walk the bands, the runs of loop levels between cuts, outermost first.

    A band's live set is the ordering dependences no level above it
    satisfies.  Each band level where one of them goes negative is replaced
    before deeper ones are examined.  When some level admits no legal
    combination, the band keeps its unskewed rows and is not permutable;
    other bands keep their skews.  A band's `parallel` flag is that of the
    last step at its first level, `steps` or a kept skew.
    """
    ordering = [d for d in deps if d.ordering]
    by_level = {s.level: s for s in steps}
    current = transform
    skewed: list[Step] = []
    bands = []
    start = 1
    for stop in sorted({c.level for c in transform.cuts} | {transform.levels + 1}):
        if start < stop:
            live = unsatisfied(ordering, current, start - 1)
            trial, kept, permutable = current, [], True
            for level in range(start, stop):
                if not negative(live, trial, level):
                    continue
                solved = _skew_level(program, live, trial, level)
                if solved is None:
                    permutable = False
                    break
                trial, step = solved
                kept.append(step)
            if permutable:
                current = trial
                skewed += kept
                by_level.update((s.level, s) for s in kept)
            first = by_level.get(start)
            bands.append(Band(
                start, stop - 1, permutable, bool(first and first.parallel),
                tuple(s.id for s in program.statements if len(current.rows[s.id]) >= start)))
        start = stop + 1
    return SkewOutcome(current._replace(bands=tuple(bands)), tuple(skewed))


# -- the full pipeline ---------------------------------------------------------


class DfpResult(NamedTuple):
    """`steps` holds the scale/shift steps, then the skew steps."""

    coloring: Coloring
    scaled: AffineTransform
    transform: AffineTransform
    steps: tuple[Step, ...]
    skew: SkewOutcome


def dfp_schedule(program: Program,
                 deps: Sequence[DependencePolyhedron]) -> DfpResult:
    """Conflict-graph coloring, then scaling/shifting, then skewing."""
    coloring = color_fcg(program, deps)
    scaled, steps = scale_and_shift(program, deps, coloring)
    skew = introduce_skew(program, deps, scaled, steps)
    return DfpResult(coloring, scaled, skew.transform, steps + skew.skewed, skew)
