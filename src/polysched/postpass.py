"""The passes of `dfp`: fusion-conflict-graph coloring with scaling and
shifting, level by level, then skewing.

Both passes only choose per-statement terms, extra rows and groups:
`pluto.solve_level` builds and solves each level, scales it to integers
with one group per weakly connected component, and reads the rows back.
`scale_and_shift` walks its levels as `pluto.schedule` does, by
`pluto.walk`.  Each level first colors the conflict graph of the walk's
live dependences (`fcg.color_fcg`), then solves the picks on
`pluto.dimension_terms`, the terms of the fusion probes' systems: the
picked coefficient may grow past 1 and the shifts are free, so fused
statements can slide against each other.  A color that gets stuck asks
the walk for a cut, or leaves the level without a row, and the walk
retires or cuts as it does for `ilp` and `lp`.
`introduce_skew` then walks the bands, the runs of loop levels between
cuts.  A band's live set is the ordering dependences `model.unsatisfied`
lists above it; each band level where `model.negative` finds one of them
is replaced with a non-negative combination of itself and the rows above
it, solved over the live set alone: one term on each row, with
non-negativity rows on the iterator coefficients as extras.  A band with
a level that admits no such combination keeps its rows and is not
permutable.  `dfp_schedule` chains the two.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .fcg import Coloring, FusionConflictGraph, build_fcg, color_fcg
from .model import (
    AffineTransform,
    Band,
    DependencePolyhedron,
    Program,
    components,
    negative,
    scc_decompose,
    unsatisfied,
)
from .pluto import Step, Terms, dimension_terms, solve_level, walk


def _component_groups(comps: Sequence[Sequence[str]], terms: Terms) -> list[list[str]]:
    """One `solve_level` group per weakly connected component: the unknowns
    of its statements' terms."""
    return [[u for sid in comp for u, _, _ in terms.get(sid, ())] for comp in comps]


def _split_groups(groups: Sequence[Sequence[str]], left: set) -> tuple:
    """Refine the ordered distribution so no group straddles the boundary:
    each group's statements in `left` come first."""
    return tuple(part for g in groups for part in (
        tuple(sid for sid in g if sid in left), tuple(sid for sid in g if sid not in left))
        if part)


def scale_and_shift(program: Program, deps: Sequence[DependencePolyhedron]):
    """Color and solve one loop level per color, outermost first, with free
    shifts: one `pluto.walk` of every statement together, whose nth loop
    level is color n's.

    Each level takes one color, `fcg.color_fcg`, of the conflict graph and
    the strongly connected components of the walk's live set, read-read
    dependences included, both built once per live set.  Each statement
    colored takes that dimension on `pluto.dimension_terms`, over the
    ordering dependences the rows above leave unsatisfied, scaled with one
    group per weakly connected component.  A component with no dimension
    to take asks the walk for a cut before it, the last distribution split
    there, when a live dependence crosses it; else the level has no row,
    and the walk retires or cuts as on every path.  Returns the `Coloring`,
    the scaled transform, whose bands `introduce_skew` sets, and one `Step`
    per level.
    """
    ids = tuple(s.id for s in program.statements)
    comps = components(ids, deps)
    total = sum(s.dim for s in program.statements)
    colors: dict[str, list] = {sid: [] for sid in ids}
    cut_groups: dict[int, tuple] = {}
    built = None  # (live set, its graph, its SCCs)
    colored = FusionConflictGraph((), (), ())  # the graph of the last color

    def color_level(statements, live, rows, level, nth):
        nonlocal built, colored
        used = {(sid, k) for sid, ks in colors.items() for k in ks}
        if len(used) == total:
            return None
        if built is None or built[0] != live:
            built = live, build_fcg(program, live), scc_decompose(ids, live)
        _, graph, sccs = built
        picks = color_fcg(program, graph, sccs, used)
        if isinstance(picks, int):
            left = {sid for comp in sccs[:picks] for sid in comp}
            if not any((d.src in left) != (d.dst in left) for d in live):
                return None
            cut_groups[nth] = _split_groups(
                cut_groups[max(cut_groups)] if cut_groups else [ids], left)
            return cut_groups[nth]
        active = {sid: picks[sid] for sid in ids if sid in picks}
        ordering = unsatisfied([d for d in live if d.ordering],
                               AffineTransform.of(program, rows))
        terms = dimension_terms(program, active, parametric_shifts=True)
        step = solve_level(program, ordering, terms, level, _component_groups(comps, terms))
        if step is not None:
            for sid, k in active.items():
                colors[sid].append(k)
            colored = graph
        return step

    out = walk(program, deps, color_level, apart=False)
    coloring = Coloring({sid: tuple(ks) for sid, ks in colors.items()}, cut_groups, colored)
    return coloring, out.transform._replace(bands=()), out.steps


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
    """Conflict-graph coloring and scaling/shifting in one walk, then
    skewing."""
    coloring, scaled, steps = scale_and_shift(program, deps)
    skew = introduce_skew(program, deps, scaled, steps)
    return DfpResult(coloring, scaled, skew.transform, steps + skew.skewed, skew)
