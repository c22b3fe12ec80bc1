"""Passes that turn a fusion-conflict-graph coloring into the final schedule.

Both passes only choose per-statement terms, extra rows and groups:
`pluto.solve_level` builds and solves each level, scales it to integers
with one group per weakly connected component, and reads the rows back.
`scale_and_shift` solves each color's picks on `pluto.dimension_terms`,
the terms the fusion probes solve: the picked coefficient may grow past 1
and the shifts are free, so fused statements can slide against each other.
`introduce_skew` then repairs levels with a negative dependence component
by replacing the level's row with a non-negative combination of itself and
the rows above it: one term on each, with non-negativity rows on the
iterator coefficients as extras.  `dfp_schedule` chains all three.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .fcg import Coloring, color_fcg
from .model import (
    AffineTransform,
    Band,
    DependencePolyhedron,
    Program,
    SchedulingError,
    components,
    negative,
    place_cut,
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
    above (cuts included) no longer constrains deeper levels.  Returns the
    scaled transform and one `Step` per level.
    """
    ordering = [d for d in deps if d.ordering]
    comps = components([s.id for s in program.statements], deps)
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
        terms = dimension_terms(
            program, [s for s in program.statements if s.id in active],
            active, parametric_shifts=True)
        step = solve_level(program, live, terms, level, _component_groups(comps, terms))
        if step is None:
            raise SchedulingError(
                f"no legal scaling and shifting exists at level {level}: "
                f"statements {', '.join(active)}; live dependences "
                + ", ".join(f"{d.src}->{d.dst} {d.label}" for d in live))
        for sid, row in step.rows.items():
            acc[sid].append(row)
        steps.append(step)

    return AffineTransform.of(program, acc, (), cuts), tuple(steps)


# -- skewing -------------------------------------------------------------------


@dataclass(frozen=True)
class SkewOutcome:
    """`transform` is the input object itself when no level needed a skew;
    `skewed` holds one step per replaced level, outermost first."""

    transform: AffineTransform
    skewed: tuple[Step, ...]
    diagnostics: tuple[str, ...]


def _skew_level(program: Program, deps: Sequence[DependencePolyhedron],
                transform: AffineTransform, level: int):
    """Replace the level's rows by non-negative combinations with outer rows.

    Each statement present at the level gets a term `a.S` of at least 1 on
    its own row (keeping the rows linearly independent) and a term `b.S.k`,
    at least 0, on each nonzero outer row k.  Legality over all ordering
    dependences and the usual bounding make this the same lexmin shape as
    the scheduler.  The weights are scaled to integers per connected
    component.
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
    comps = components([s.id for s in program.statements], deps)
    step = solve_level(program, [d for d in deps if d.ordering], terms, level,
                       _component_groups(comps, terms), extra)
    if step is None:
        return None
    rows = {sid: (*r[:level - 1], step.rows[sid], *r[level:]) if sid in step.rows else r
            for sid, r in transform.rows.items()}
    return replace(transform, rows=rows), step


def introduce_skew(program: Program, deps: Sequence[DependencePolyhedron],
                   transform: AffineTransform) -> SkewOutcome:
    """Fix levels where a dependence live after the last cut above goes negative.

    Scans outermost first; each offending level is replaced before deeper
    ones are examined.  When some level admits no legal combination the nest
    is not tileable as permuted: the input transform is returned untouched
    with a diagnostic.  With no negative component anywhere the input object
    itself is returned.
    """
    ordering = [d for d in deps if d.ordering]
    current = transform
    skewed: list[Step] = []
    for level in range(1, transform.levels + 1):
        # As in `_band_permutable`, only dependences the last cut above the
        # level leaves unsatisfied constrain the level's band.
        cut = max((c.level for c in transform.cuts if c.level < level), default=0)
        bad = unsatisfied(negative(ordering, current, level), current, cut)
        if not bad:
            continue
        solved = _skew_level(program, deps, current, level)
        if solved is None:
            labels = ", ".join(f"{d.src}->{d.dst} {d.label}" for d in bad)
            return SkewOutcome(
                transform, (),
                (f"level {level} has a negative component ({labels}) "
                 f"but no legal skew exists; the nest is not tileable",))
        current, step = solved
        skewed.append(step)
    return SkewOutcome(current, tuple(skewed), ())


# -- the full pipeline ---------------------------------------------------------


@dataclass(frozen=True)
class DfpResult:
    """`steps` holds the scale/shift steps, then the skew steps."""

    coloring: Coloring
    scaled: AffineTransform
    transform: AffineTransform
    steps: tuple[Step, ...]
    skew: SkewOutcome


def _band_permutable(ordering, transform, start, end):
    """No dependence live at `start` goes negative on a level of the band."""
    live = unsatisfied(ordering, transform, start - 1)
    return not any(negative(live, transform, level) for level in range(start, end + 1))


def _bands(program: Program, deps: Sequence[DependencePolyhedron],
           transform: AffineTransform, steps: Sequence[Step]) -> tuple[Band, ...]:
    ordering = [d for d in deps if d.ordering]
    by_level = {s.level: s for s in steps}  # the last step of each level
    cut_levels = {c.level for c in transform.cuts}
    bands = []
    start = None
    for level in range(1, transform.levels + 2):
        is_loop = level <= transform.levels and level not in cut_levels
        if is_loop and start is None:
            start = level
        elif not is_loop and start is not None:
            stmts = tuple(s.id for s in program.statements
                          if len(transform.rows[s.id]) >= start)
            first = by_level.get(start)
            bands.append(Band(
                start, level - 1,
                _band_permutable(ordering, transform, start, level - 1),
                bool(first and first.parallel), stmts))
            start = None
    return tuple(bands)


def dfp_schedule(program: Program,
                 deps: Sequence[DependencePolyhedron]) -> DfpResult:
    """Conflict-graph coloring, then scaling/shifting, then skewing."""
    coloring = color_fcg(program, deps)
    scaled, steps = scale_and_shift(program, deps, coloring)
    skew = introduce_skew(program, deps, scaled)
    steps += skew.skewed
    final = replace(skew.transform,
                    bands=_bands(program, deps, skew.transform, steps))
    return DfpResult(coloring, scaled, final, steps, skew)
