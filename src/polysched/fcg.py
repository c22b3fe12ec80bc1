"""Fusion conflict graph: which loop dimensions can share a level.

Each vertex stands for one dimension of one statement.  A conflict edge says
the two dimensions cannot be fused and permuted to the outermost level at the
same time; a self loop says the dimension cannot be outermost at all.  Both
are decided by small rational LP feasibility probes over the dependences of
the affected statement pair, so building the graph costs a quadratic number
of cheap solves instead of one monolithic scheduling problem.

Coloring the graph one color per loop level then reads off a permutation for
every statement, falling back to dependence removal and loop distribution
when a color cannot be completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Optional, Sequence

from . import ratlp
from .model import (
    AffineTransform,
    Cut,
    DependencePolyhedron,
    Program,
    SchedulingError,
    Statement,
    _adjacency,
    _partition,
    constant_row,
    satisfaction_level,
    scc_decompose,
    unit_row,
)
from .pluto import level_system

Vertex = tuple[str, int]

MAX_SCC_PICKS = 4096


@dataclass(frozen=True)
class FusionConflictGraph:
    """Conflict, clique and self-loop edges over (statement, dimension) pairs."""

    vertices: tuple[Vertex, ...]
    conflicts: tuple[tuple[Vertex, Vertex], ...]
    cliques: tuple[tuple[Vertex, Vertex], ...]
    loops: tuple[Vertex, ...]
    #: Every edge in both orientations, self loops once.
    _edges: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = {(v, v) for v in self.loops}
        for u, v in self.conflicts + self.cliques:
            edges.update(((u, v), (v, u)))
        object.__setattr__(self, "_edges", frozenset(edges))

    def has_loop(self, v: Vertex) -> bool:
        return (v, v) in self._edges

    def conflicting(self, u: Vertex, v: Vertex) -> bool:
        """True when an edge (conflict or same-statement clique) joins u and
        v, or u is v and has a self loop."""
        return (u, v) in self._edges


def fusion_probe(program: Program, statements: Sequence[Statement],
                 choose: Mapping[str, int],
                 deps: Sequence[DependencePolyhedron],
                 parametric_shifts: bool = False) -> bool:
    """Can the chosen dimensions share the outermost level?

    Builds the legality and bounding rows of `deps` with the chosen iterator
    coefficient of every statement at least 1 and every other iterator
    coefficient zero, and asks for feasibility.  Constant shifts stay free;
    parametric shifts are zero unless requested, since a parametric offset
    would let misaligned accesses slide past each other and hide a genuine
    fusion conflict.

    The verdict is kept on the program under the probe's shape: the
    dependences' shapes, where their statements stand among `statements`,
    and each statement's iterators and chosen dimension.  Probes of the
    same shape solve the same system up to the names of the statements.
    """
    place = {s.id: k for k, s in enumerate(statements)}
    key = (tuple((d.shape, place.get(d.src), place.get(d.dst))
                 for d in deps),
           tuple((s.domain.iterators, choose.get(s.id)) for s in statements),
           parametric_shifts)
    verdict = program._probe_verdicts.get(key)
    if verdict is None:
        verdict = program._probe_verdicts[key] = _probe(
            program, statements, choose, deps, parametric_shifts)
    return verdict


def _probe(program, statements, choose, deps, parametric_shifts) -> bool:
    variables = []
    lower: dict[str, Fraction | None] = {}
    for s in statements:
        k = choose.get(s.id)
        if k is not None:
            var = f"c.{s.id}.{s.domain.iterators[k]}"
            variables.append(var)
            lower[var] = Fraction(1)
        shifts = [f"d.{s.id}.{p}" for p in program.params] if parametric_shifts else []
        shifts.append(f"c0.{s.id}")
        variables += shifts
        lower.update(dict.fromkeys(shifts))
    forms = {v: {v: 1} for v in variables}
    system = level_system(program, deps, forms, variables, lower)
    return bool(ratlp.solve_lexmin(ratlp.LPProblem.of(system)))


def _transitive_reduction(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Edges of a DAG not implied by a longer path: (a, b) goes when b is
    reachable from another successor of a."""
    succ = _adjacency(range(n), edges)
    return {(a, b) for a, b in edges if not any(
        b in part for part in _partition(range(n), succ, [c for c in succ[a] if c != b]))}


def _probe_pairs(stmts: Sequence[Statement], deps: Sequence[DependencePolyhedron]):
    """Statement pairs worth probing: directly connected, minus pairs whose
    ordering is already implied transitively through other statements."""
    ids = [s.id for s in stmts]
    comp_of: dict[str, int] = {}
    sccs = scc_decompose(ids, deps)
    for ci, comp in enumerate(sccs):
        for sid in comp:
            comp_of[sid] = ci
    cond = {(comp_of[d.src], comp_of[d.dst])
            for d in deps if comp_of[d.src] != comp_of[d.dst]}
    kept = _transitive_reduction(len(sccs), cond)

    by_id = {s.id: s for s in stmts}
    linked = {frozenset((d.src, d.dst)) for d in deps}
    pairs = []
    for a, b in combinations(ids, 2):
        if frozenset((a, b)) not in linked:
            continue
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb and (ca, cb) not in kept and (cb, ca) not in kept:
            continue
        pairs.append((by_id[a], by_id[b]))
    return pairs


def build_fcg(program: Program, deps: Sequence[DependencePolyhedron],
              statements: Optional[Sequence[str]] = None) -> FusionConflictGraph:
    """Probe self loops, pairwise conflicts and same-statement cliques.

    `statements` restricts the graph to a subset (used to examine a strongly
    connected component in isolation); dependences reaching outside the
    subset are ignored.
    """
    if statements is None:
        stmts = list(program.statements)
    else:
        chosen = set(statements)
        stmts = [s for s in program.statements if s.id in chosen]
    ids = {s.id for s in stmts}
    pool = [d for d in deps if d.src in ids and d.dst in ids]

    vertices = tuple((s.id, k) for s in stmts for k in range(s.dim))
    index = {v: i for i, v in enumerate(vertices)}

    def edge(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
        return (u, v) if index[u] < index[v] else (v, u)

    loops = []
    for s in stmts:
        mine = [d for d in pool if d.src == s.id and d.dst == s.id]
        if not mine:
            continue
        for k in range(s.dim):
            if not fusion_probe(program, (s,), {s.id: k}, mine):
                loops.append((s.id, k))

    conflicts = []
    for a, b in _probe_pairs(stmts, pool):
        involved = [d for d in pool if {d.src, d.dst} <= {a.id, b.id}]
        for da, db in product(range(a.dim), range(b.dim)):
            ok = fusion_probe(program, (a, b), {a.id: da, b.id: db}, involved)
            if not ok:
                conflicts.append(edge((a.id, da), (b.id, db)))

    cliques = []
    for s in stmts:
        for da, db in combinations(range(s.dim), 2):
            cliques.append(((s.id, da), (s.id, db)))

    return FusionConflictGraph(
        vertices,
        tuple(sorted(conflicts, key=lambda e: (index[e[0]], index[e[1]]))),
        tuple(cliques),
        tuple(sorted(loops, key=index.__getitem__)),
    )


# -- coloring ------------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """Outcome of coloring: one dimension per statement per level.

    `colors[sid][c-1]` is the dimension of `sid` placed at color `c`; the
    list covers every dimension of the statement, outermost color first.
    `cut_groups` maps a color to the distribution in force when that color
    was finally completed; the matching scalar level precedes the color's
    loop level in the assembled transform.
    """

    colors: Mapping[str, tuple[int, ...]]
    groups: tuple[tuple[str, ...], ...]
    cut_groups: Mapping[int, tuple[tuple[str, ...], ...]]
    fcg: FusionConflictGraph
    initial: FusionConflictGraph
    events: tuple[str, ...]


@dataclass(frozen=True)
class _Failure:
    color: int
    scc_index: int
    sccs: tuple[tuple[str, ...], ...]
    colors: Mapping[str, list]


def _color_scc(by_id: Mapping[str, Statement], comp: Sequence[str],
               colors: Mapping[str, list], fcg: FusionConflictGraph,
               chosen: Sequence[Vertex]):
    """Pick one free dimension per live statement of the component, lowest
    index first, compatible with everything already chosen at this color."""
    picked: list[Vertex] = []
    for sid in comp:
        s = by_id[sid]
        used = set(colors[sid])
        if len(used) >= s.dim:
            continue
        pick = None
        for k in range(s.dim):
            v = (sid, k)
            if k in used or fcg.has_loop(v):
                continue
            if any(fcg.conflicting(v, u) for u in chosen) or \
               any(fcg.conflicting(v, u) for u in picked):
                continue
            pick = v
            break
        if pick is None:
            return None
        picked.append(pick)
    for sid, k in picked:
        colors[sid].append(k)
    return picked


def _color_once(stmts: Sequence[Statement], live: Sequence[DependencePolyhedron],
                fcg: FusionConflictGraph, max_colors: int):
    by_id = {s.id: s for s in stmts}
    colors: dict[str, list] = {s.id: [] for s in stmts}
    sccs = scc_decompose([s.id for s in stmts], live)
    for color in range(1, max_colors + 1):
        chosen: list[Vertex] = []
        for idx, comp in enumerate(sccs):
            picked = _color_scc(by_id, comp, colors, fcg, chosen)
            if picked is None:
                return _Failure(color, idx, sccs, colors)
            chosen += picked
    return colors


def _partial(program: Program, colors: Mapping[str, list], depth: int) -> AffineTransform:
    np = len(program.params)
    rows = {}
    for s in program.statements:
        take = list(colors.get(s.id, ()))[:depth]
        rows[s.id] = tuple(unit_row(s, np, k) for k in take)
    return AffineTransform.of(program, rows)


def _split_groups(groups: list, left_ids: set):
    """Refine the ordered distribution so no group straddles the boundary."""
    out = []
    changed = False
    for g in groups:
        a = tuple(sid for sid in g if sid in left_ids)
        b = tuple(sid for sid in g if sid not in left_ids)
        if a and b:
            out += [a, b]
            changed = True
        else:
            out.append(g)
    return out, changed


def color_fcg(program: Program, deps: Sequence[DependencePolyhedron]) -> Coloring:
    """Assign every statement dimension a loop level.

    Colors are attempted outermost first across the dependence graph's
    strongly connected components in topological order.  When a component
    cannot take the current color the routine either discards dependences
    already satisfied by the colored outer levels or distributes (cutting
    the graph between components), rebuilds the conflict graph, and starts
    over.  Each rescue strictly shrinks the live dependence set or refines
    the distribution, so the loop terminates.
    """
    stmts = list(program.statements)
    max_colors = max((s.dim for s in stmts), default=0)
    live: list[DependencePolyhedron] = list(deps)
    groups: list[tuple[str, ...]] = [tuple(s.id for s in stmts)]
    cut_groups: dict[int, tuple[tuple[str, ...], ...]] = {}
    events: list[str] = []

    initial = build_fcg(program, live)
    fcg = initial

    for _ in range(len(live) + len(stmts) + 2):
        outcome = _color_once(stmts, live, fcg, max_colors)
        if not isinstance(outcome, _Failure):
            return Coloring(
                {sid: tuple(ks) for sid, ks in outcome.items()},
                tuple(groups), dict(cut_groups), fcg, initial, tuple(events))

        progressed = False
        if outcome.scc_index > 0:
            # Distribute: everything before the stuck component runs first.
            left = {sid for comp in outcome.sccs[: outcome.scc_index] for sid in comp}
            cut = [d for d in live
                   if (d.src in left) != (d.dst in left)]
            groups, changed = _split_groups(groups, left)
            if cut:
                live = [d for d in live if not ((d.src in left) != (d.dst in left))]
                cut_groups[outcome.color] = tuple(groups)
                events.append(
                    f"cut before {outcome.sccs[outcome.scc_index][0]} "
                    f"at color {outcome.color}, dropping {len(cut)} dependences")
                progressed = True
            elif changed:
                cut_groups[outcome.color] = tuple(groups)
                progressed = True
        if not progressed and outcome.color > 1:
            partial = _partial(program, outcome.colors, outcome.color - 1)
            satisfied = [d for d in live
                         if satisfaction_level(d, partial) is not None]
            if satisfied:
                dropped = set(id(d) for d in satisfied)
                live = [d for d in live if id(d) not in dropped]
                events.append(
                    f"dropped {len(satisfied)} dependences satisfied above "
                    f"color {outcome.color}")
                progressed = True
        if not progressed:
            stuck = outcome.sccs[outcome.scc_index]
            raise SchedulingError(
                f"no dimension of {', '.join(stuck)} can take color "
                f"{outcome.color}; the conflict graph admits no convex coloring")
        fcg = build_fcg(program, live)

    raise SchedulingError("coloring failed to converge")


def permute_and_fuse(program: Program, coloring: Coloring) -> AffineTransform:
    """Assemble the colored permutation into schedule rows.

    Loop levels follow color order; a distribution recorded at color c turns
    into one scalar level right before color c's loop level, carrying each
    statement's group ordinal.  Statements keep exactly one row per own
    dimension plus the scalar rows, zero-padded where a shallow statement
    sits under a deeper neighbour's cut.
    """
    np = len(program.params)
    max_colors = max((s.dim for s in program.statements), default=0)

    plan: list[tuple[str, object]] = []
    for c in range(1, max_colors + 1):
        if c in coloring.cut_groups:
            plan.append(("cut", coloring.cut_groups[c]))
        plan.append(("color", c))

    placed: dict[str, dict[int, tuple[Fraction, ...]]] = \
        {s.id: {} for s in program.statements}
    cuts = []
    for level, (kind, val) in enumerate(plan, 1):
        if kind == "cut":
            ordinal = {sid: gi for gi, g in enumerate(val) for sid in g}
            for s in program.statements:
                placed[s.id][level] = constant_row(s, np, ordinal[s.id])
            cuts.append(Cut(level, val))
        else:
            for s in program.statements:
                order = coloring.colors[s.id]
                if len(order) >= val:
                    placed[s.id][level] = unit_row(s, np, order[val - 1])

    rows = {}
    for s in program.statements:
        depth = max(placed[s.id], default=0)
        zero = constant_row(s, np, 0)
        rows[s.id] = tuple(placed[s.id].get(lv, zero) for lv in range(1, depth + 1))
    return AffineTransform.of(program, rows, (), cuts)


def colorable_dimension(program: Program, fcg: FusionConflictGraph,
                        statements: Sequence[str]):
    """Some loop-free, mutually conflict-free dimension pick for the set,
    or None.  Exhaustive over dimension tuples, so only for small sets."""
    stmts = [s for s in program.statements if s.id in set(statements)]
    total = 1
    for s in stmts:
        total *= max(s.dim, 1)
    if total > MAX_SCC_PICKS:
        raise SchedulingError(f"dimension search space too large ({total})")
    for picks in product(*[range(s.dim) for s in stmts]):
        verts = [(s.id, k) for s, k in zip(stmts, picks)]
        if any(fcg.has_loop(v) for v in verts):
            continue
        if any(fcg.conflicting(u, v) for u, v in combinations(verts, 2)):
            continue
        return {s.id: k for s, k in zip(stmts, picks)}
    return None


# -- rendering -----------------------------------------------------------------


_PALETTE = ("white", "lightcoral", "lightgreen", "lightblue",
            "khaki", "plum", "lightsalmon")


def to_dot(program: Program, fcg: FusionConflictGraph,
           coloring: Optional[Coloring] = None) -> str:
    """Graphviz rendering: one cluster per statement, solid conflict edges,
    dashed same-statement edges, fill color by assigned level."""
    fill: dict[Vertex, int] = {}
    if coloring is not None:
        for sid, order in coloring.colors.items():
            for pos, k in enumerate(order):
                fill[(sid, k)] = pos + 1

    def name(v: Vertex) -> str:
        sid, k = v
        return f"{sid}.{program.statement(sid).domain.iterators[k]}"

    lines = ["graph fcg {", "  node [shape=box, style=filled];"]
    for s in program.statements:
        if not s.dim:
            continue
        lines.append(f"  subgraph cluster_{s.id} {{")
        lines.append(f'    label="{s.id}";')
        for k in range(s.dim):
            color = _PALETTE[fill.get((s.id, k), 0) % len(_PALETTE)]
            lines.append(f'    "{name((s.id, k))}" [fillcolor={color}];')
        lines.append("  }")
    for u, v in fcg.conflicts:
        lines.append(f'  "{name(u)}" -- "{name(v)}";')
    for v in fcg.loops:
        lines.append(f'  "{name(v)}" -- "{name(v)}";')
    for u, v in fcg.cliques:
        lines.append(f'  "{name(u)}" -- "{name(v)}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
