"""Fusion conflict graph: which loop dimensions can share a level.

Each vertex stands for one dimension of one statement.  A conflict edge says
the two dimensions cannot be fused and permuted to the outermost level at the
same time; a self loop says the dimension cannot be outermost at all.  Both
are decided by fusion probes over the dependences of the affected statement
pair: is one small rational level system feasible?  A probe is its chosen
dimensions, one per statement.  The exact minimum of each dependence
distance, read off the relation's Farkas cone with no solve, answers most
probes first, with parametric shifts or without (Kennedy and McKinley's
fusion-preventing dependence test, made exact).  Only the few probes it
leaves open, such as those that need scaled loops, build the system and
solve it as an LP, so building the graph costs a quadratic number of cone
reads and a handful of solves instead of one monolithic scheduling problem.

Coloring the graph one color per loop level, outermost first and in one
pass, picks each statement's dimension per level for `postpass`.  Each
strongly connected component takes its dimensions at a color by one
depth-first search, `colorable_dimension`, the lexicographically first
compatible pick; the property suite asks the same search of each component
alone.  When a color cannot be completed, only that color is undone: the
coloring falls back to loop distribution or to removing the dependences the
placed colors satisfy, and tries the color again.
"""

from __future__ import annotations

from itertools import combinations, groupby, product
from operator import itemgetter
from typing import Collection, Mapping, NamedTuple, Optional, Sequence

from . import ratlp
from .farkas import cone_ratios
from .model import (
    AffineTransform,
    DependencePolyhedron,
    Program,
    SchedulingError,
    dependence_list,
    min_dependence_component,
    scc_decompose,
    unit_row,
    unsatisfied,
)
from .pluto import dimension_terms, level_system

Vertex = tuple[str, int]

MAX_SCC_PICKS = 4096


class FusionConflictGraph:
    """Conflict, clique and self-loop edges over (statement, dimension)
    pairs, the vertices of one statement next to each other."""

    __slots__ = ("vertices", "conflicts", "loops", "_neighbours")

    def __init__(self, vertices: tuple[Vertex, ...],
                 conflicts: tuple[tuple[Vertex, Vertex], ...], loops: tuple[Vertex, ...]):
        self.vertices, self.conflicts, self.loops = vertices, conflicts, loops
        adj: dict[Vertex, set] = {v: set() for v in vertices}
        for v in loops:
            adj[v].add(v)
        for u, v in conflicts:
            adj[u].add(v)
            adj[v].add(u)
        #: The vertices joined to each vertex by a conflict edge, itself if
        #: it has a self loop.
        self._neighbours = {v: frozenset(vs) for v, vs in adj.items()}

    def neighbours(self, v: Vertex) -> frozenset:
        """The vertices a conflict edge joins to `v`, and `v` itself when it
        has a self loop."""
        return self._neighbours[v]

    @property
    def cliques(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """The same-statement edges: every pair of one statement's
        dimensions, in vertex order."""
        return tuple(pair for _, dims in groupby(self.vertices, itemgetter(0))
                     for pair in combinations(dims, 2))


def fusion_probe(program: Program, choose: Mapping[str, int],
                 deps: Sequence[DependencePolyhedron],
                 parametric_shifts: bool = False) -> bool:
    """Can the chosen dimensions share the outermost level?

    `choose` maps each statement of the probe, in order, to its chosen
    dimension, and `deps` are the dependences among them.  Asks whether
    `pluto.level_system` of `deps` over `pluto.dimension_terms` of `choose`
    is feasible: the chosen iterator coefficient of every statement, its
    scale, at least 1, every other iterator coefficient zero and the
    constant shifts free.  Parametric shifts are zero unless requested,
    since a parametric offset would let misaligned accesses slide past each
    other and hide a genuine fusion conflict.  Only feasibility counts:
    the bounding rows of a dependence whose relation is bounded in its
    iterators for fixed parameters hold for u and w large enough, so they
    change no verdict, while an unbounded one's can make a legal row
    infeasible.

    Most probes are decided without that system, exactly, from the
    dependence minima (`_decided`); only those it leaves open build the
    system and solve it with `ratlp.solve_lexmin`.  The verdict is kept on
    the program under the probe's shape: the dependences' shapes, where
    their statements stand in `choose`, and each statement's depth and
    chosen dimension.  Probes of the same shape ask the same question up to
    the names of the statements and their iterators.
    """
    place = {sid: k for k, sid in enumerate(choose)}
    key = (tuple((d.shape, place[d.src], place[d.dst]) for d in deps),
           tuple((program.statement(sid).dim, k) for sid, k in choose.items()),
           parametric_shifts)
    verdict = program._probe_verdicts.get(key)
    if verdict is None:
        verdict = _decided(program, choose, deps, parametric_shifts)
        if verdict is None:
            terms = dimension_terms(program, choose, parametric_shifts)
            verdict = bool(ratlp.solve_lexmin(ratlp.LPProblem.of(
                level_system(program, deps, terms))))
        program._probe_verdicts[key] = verdict
    return verdict


def _decided(program: Program, choose: Mapping[str, int],
             deps: Sequence[DependencePolyhedron],
             parametric_shifts: bool) -> Optional[bool]:
    """The verdict of a `fusion_probe`, read off the dependence minima
    (`model.min_dependence_component`) of the chosen dimensions' unit rows,
    or None when they leave it open.  Three exact rules decide it, after
    Kennedy and McKinley's fusion-preventing dependence test:

    - a self-dependence scales its distance by the statement's scale alone,
      since its shifts, parametric ones too, cancel, so a negative or
      unbounded minimum refutes the probe for every scale of at least 1;
    - with every scale at 1, each cross dependence's minimum m bounds the
      difference of its two constant shifts, shift(dst) - shift(src) >= -m,
      and shifts meeting every such bound (no negative cycle of minima)
      with every self-dependence's minimum non-negative and every
      parametric shift at 0 are a feasible point, once every dependence is
      `bounded`, so that its bounding rows hold for u and w large enough;
    - a pair of statements is refuted when no positive ratio of their two
      scales passes the cone rows without the constant
      (`farkas.cone_ratios`) of every cross dependence.  Only this rule
      needs constant shifts: a parametric shift could offset those rows'
      parameter terms.

    A probe that no rule proves or refutes stays open: one that needs a
    scale other than 1 or keeps an unbounded dependence's bounding rows,
    or more than two statements, or two with parametric shifts, that no
    shifts fuse at scale 1.
    """
    np = len(program.params)
    rows = {sid: unit_row(program.statement(sid), np, k) for sid, k in choose.items()}
    cross = []
    for d in deps:
        m = min_dependence_component(d, rows[d.src], rows[d.dst])
        if d.src != d.dst:
            cross.append((d, m))
        elif m is None or m < 0:
            return False
    if all(m is not None for _, m in cross) and all(d.bounded for d in deps) \
            and _shifts_exist(rows, [(d.src, d.dst, m) for d, m in cross]):
        return True
    if len(choose) == 2 and not parametric_shifts \
            and not _ratio_exists(choose, [d for d, _ in cross]):
        return False
    return None


def _shifts_exist(ids, bounds) -> bool:
    """Is there a shift per statement of `ids` with shift[dst] - shift[src]
    >= -m for every (src, dst, m) of `bounds`?  Bellman-Ford from every
    statement at once: each pass that lowers a shift to meet a bound
    follows one more edge of a path, and a pass beyond the longest simple
    path that still lowers one has found a negative cycle."""
    shift = dict.fromkeys(ids, 0)
    for _ in ids:
        lowered = False
        for src, dst, m in bounds:
            if shift[dst] + m < shift[src]:
                shift[src] = shift[dst] + m
                lowered = True
        if not lowered:
            return True
    return False


def _ratio_exists(choose: Mapping[str, int],
                  deps: Sequence[DependencePolyhedron]) -> bool:
    """Is there a positive ratio of the second statement's scale to the
    first's, in the order of `choose`, that every cross dependence of
    `deps` between the two admits, by `farkas.cone_ratios`?"""
    a = next(iter(choose))
    lo, hi = 0, None
    for d in deps:
        width = len(d.relation.variables)
        src, dst = [0] * width, [0] * width
        src[choose[d.src]] = -1
        dst[len(d.src_vars) + choose[d.dst]] = 1
        ratios = cone_ratios(d.cone, *((src, dst) if d.src == a else (dst, src)))
        if ratios is None:
            return False
        lo = max(lo, ratios[0])
        if ratios[1] is not None:
            hi = ratios[1] if hi is None else min(hi, ratios[1])
    return hi is None or lo <= hi


def _transitive_reduction(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Edges of a DAG not implied by a longer path: (a, b) goes when b is
    reachable from another successor of a.  The vertices 0..n-1 must be
    numbered in a topological order, every edge going to a larger number.

    One pass, from the last vertex back, keeps each vertex's set of vertices
    reachable by a non-empty path as an int bitmask.  In a DAG, b is
    reachable from another successor of a exactly when it is reachable from
    any successor, b itself included, since b cannot reach itself.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    below = [0] * n
    kept = set()
    for v in reversed(range(n)):
        via = 0
        for c in succ[v]:
            via |= below[c]
        kept.update((v, b) for b in succ[v] if not via >> b & 1)
        for c in succ[v]:
            via |= 1 << c
        below[v] = via
    return kept


def _probe_pairs(program: Program, deps: Sequence[DependencePolyhedron]):
    """Statement pairs worth probing: directly connected, minus pairs whose
    ordering is already implied transitively through other statements."""
    ids = [s.id for s in program.statements]
    comp_of: dict[str, int] = {}
    sccs = scc_decompose(ids, deps)
    for ci, comp in enumerate(sccs):
        for sid in comp:
            comp_of[sid] = ci
    cond = {(comp_of[d.src], comp_of[d.dst])
            for d in deps if comp_of[d.src] != comp_of[d.dst]}
    kept = _transitive_reduction(len(sccs), cond)  # `sccs` is topologically sorted

    # The linked pairs of distinct statements, as position pairs i < j in
    # lexicographic order: the probes run in statement order.
    position = {sid: k for k, sid in enumerate(ids)}
    linked = sorted({tuple(sorted((position[d.src], position[d.dst])))
                     for d in deps if d.src != d.dst})
    pairs = []
    for i, j in linked:
        ca, cb = comp_of[ids[i]], comp_of[ids[j]]
        if ca != cb and (ca, cb) not in kept and (cb, ca) not in kept:
            continue
        pairs.append((program.statements[i], program.statements[j]))
    return pairs


def build_fcg(program: Program, deps: Sequence[DependencePolyhedron]) -> FusionConflictGraph:
    """Probe self loops and pairwise conflicts over every statement, against
    the dependences `deps` alone."""
    stmts = program.statements
    # The dependences by the frozenset of endpoints, each list in `deps` order.
    by_pair: dict[frozenset, list] = {}
    for d in deps:
        by_pair.setdefault(frozenset((d.src, d.dst)), []).append(d)
    position = {d: k for k, d in enumerate(deps)}

    vertices = tuple((s.id, k) for s in stmts for k in range(s.dim))
    index = {v: i for i, v in enumerate(vertices)}

    def edge(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
        return (u, v) if index[u] < index[v] else (v, u)

    loops = []
    for s in stmts:
        mine = by_pair.get(frozenset((s.id,)))
        if not mine:
            continue
        for k in range(s.dim):
            if not fusion_probe(program, {s.id: k}, mine):
                loops.append((s.id, k))

    conflicts = []
    for a, b in _probe_pairs(program, deps):
        involved = sorted(by_pair.get(frozenset((a.id,)), [])
                          + by_pair.get(frozenset((b.id,)), [])
                          + by_pair[frozenset((a.id, b.id))],
                          key=position.__getitem__)
        for da, db in product(range(a.dim), range(b.dim)):
            ok = fusion_probe(program, {a.id: da, b.id: db}, involved)
            if not ok:
                conflicts.append(edge((a.id, da), (b.id, db)))

    return FusionConflictGraph(
        vertices,
        tuple(sorted(conflicts, key=lambda e: (index[e[0]], index[e[1]]))),
        tuple(sorted(loops, key=index.__getitem__)),
    )


# -- coloring ------------------------------------------------------------------


class Coloring(NamedTuple):
    """Outcome of coloring: one dimension per statement per level.

    `colors[sid][c-1]` is the dimension of `sid` placed at color `c`; the
    list covers every dimension of the statement, outermost color first.
    `cut_groups` maps a color to the distribution in force when that color
    was completed, the scalar level right before the color's loop level:
    c + k for the k-th cut color c (from 0), plus scale/shift's retry cuts
    before it.  `fcg` is the conflict graph of the dependences still live
    at the end, so a dependence that a cut or a drop removed is not in it.
    """

    colors: Mapping[str, tuple[int, ...]]
    cut_groups: Mapping[int, tuple[tuple[str, ...], ...]]
    fcg: FusionConflictGraph

    @property
    def groups(self) -> tuple[tuple[str, ...], ...]:
        """The final distribution: the last cut's, else one group of every
        statement."""
        if self.cut_groups:
            return self.cut_groups[max(self.cut_groups)]
        return (tuple(self.colors),) if self.colors else ()

    def color(self, v: Vertex) -> int:
        """The 1-based color of vertex `v`, 0 when it has none."""
        sid, k = v
        order = self.colors.get(sid, ())
        return order.index(k) + 1 if k in order else 0


def _partial(program: Program, colors: Mapping[str, list]) -> AffineTransform:
    """The permutation of the colors placed so far, one unit row each."""
    np = len(program.params)
    return AffineTransform.of(program, {
        s.id: tuple(unit_row(s, np, k) for k in colors[s.id])
        for s in program.statements})


def _split_groups(groups: list, left_ids: set):
    """Refine the ordered distribution so no group straddles the boundary."""
    out = []
    for g in groups:
        a = tuple(sid for sid in g if sid in left_ids)
        b = tuple(sid for sid in g if sid not in left_ids)
        if a and b:
            out += [a, b]
        else:
            out.append(g)
    return out


def color_fcg(program: Program, deps: Sequence[DependencePolyhedron]) -> Coloring:
    """Assign every statement dimension a loop level.

    Colors are placed outermost first, in one pass: at each color the
    strongly connected components of the live dependences take one
    dimension per statement, in topological order, by
    `colorable_dimension`.  When a component cannot take the color, or
    its search runs past `MAX_SCC_PICKS`, the color's partial picks are
    undone, while the colors already placed stay.  The routine then
    distributes (cutting the graph before the stuck component) or, if
    nothing crosses that cut, drops the dependences the placed colors
    satisfy; it rebuilds the conflict graph and tries the same color again.
    Each rescue strictly shrinks the live dependence set and each completed
    color moves to the next, so the loop terminates.
    """
    ids = tuple(s.id for s in program.statements)
    max_colors = max((s.dim for s in program.statements), default=0)
    live: list[DependencePolyhedron] = list(deps)
    colors: dict[str, list] = {sid: [] for sid in ids}
    groups: list[tuple[str, ...]] = [ids] if ids else []
    cut_groups: dict[int, tuple[tuple[str, ...], ...]] = {}

    fcg, sccs = build_fcg(program, live), scc_decompose(ids, live)
    color = 1
    while color <= max_colors:
        used = {(sid, k) for sid, ks in colors.items() for k in ks}
        chosen: set[Vertex] = set()
        for idx, comp in enumerate(sccs):
            try:
                picked = colorable_dimension(program, fcg, comp, used, chosen)
            except SchedulingError:  # past its budget: stuck all the same
                picked = None
            if picked is None:
                break
            chosen.update(picked.items())
        else:
            for sid, k in chosen:
                colors[sid].append(k)
            color += 1
            continue

        # Distribute: everything before the stuck component runs first.
        left = {sid for comp in sccs[:idx] for sid in comp}
        kept = [d for d in live if (d.src in left) == (d.dst in left)]
        if len(kept) < len(live):
            groups = _split_groups(groups, left)
            cut_groups[color] = tuple(groups)
        else:
            kept = unsatisfied(live, _partial(program, colors))
            if len(kept) == len(live):
                # Nothing crosses the cut: the stuck component's own live
                # dependences are the whole cause.
                inside = [d for d in live if {d.src, d.dst} <= set(sccs[idx])]
                raise SchedulingError(
                    f"no dimension of {', '.join(sccs[idx])} can take color "
                    f"{color}; the conflict graph admits no convex coloring; "
                    f"live dependences {dependence_list(inside)}")
        live = kept
        fcg, sccs = build_fcg(program, live), scc_decompose(ids, live)

    return Coloring({sid: tuple(ks) for sid, ks in colors.items()}, dict(cut_groups), fcg)


def colorable_dimension(program: Program, fcg: FusionConflictGraph,
                        statements: Sequence[str], used: Collection[Vertex],
                        chosen: Collection[Vertex]) -> Optional[dict[str, int]]:
    """The lexicographically first pick, in the order of `statements`, of
    one dimension per statement that still has a free one, or None.

    A pick is not in `used`, has no self loop and conflicts with no vertex
    of `chosen` and with no other pick; a statement whose every dimension
    is in `used`, a scalar one too, takes none.  A depth-first search over
    an explicit stack, so a large component cannot reach the recursion
    limit: it undoes a pick only when the statements after it cannot be
    completed, so wherever the lowest compatible dimension of each
    statement in turn completes the pick, that is its answer and nothing is
    undone.  A statement with no compatible dimension at all ends the
    search at once, with None.  More than `MAX_SCC_PICKS` undone picks
    raise."""
    slots = []
    for sid in statements:
        free = [(sid, k) for k in range(program.statement(sid).dim) if (sid, k) not in used]
        if free:
            slots.append([v for v in free if v not in fcg.neighbours(v)
                          and fcg.neighbours(v).isdisjoint(chosen)])
    if not all(slots):
        return None
    picks: list[Vertex] = []
    # The next candidate to try in each slot up to the current one.
    tries, undone = [0], 0
    while len(picks) < len(slots):
        slot = slots[len(picks)]
        for j in range(tries[-1], len(slot)):
            if fcg.neighbours(slot[j]).isdisjoint(picks):
                picks.append(slot[j])
                tries[-1] = j + 1
                tries.append(0)
                break
        else:
            if not picks:
                return None
            picks.pop()
            tries.pop()
            undone += 1
            if undone > MAX_SCC_PICKS:
                raise SchedulingError(
                    f"dimension search undid more than {MAX_SCC_PICKS} picks "
                    f"for statements {', '.join(statements)}")
    return dict(picks)


# -- rendering -----------------------------------------------------------------


_FILLS = ("lightcoral", "lightgreen", "lightblue", "khaki", "plum", "lightsalmon")


def to_dot(program: Program, fcg: FusionConflictGraph,
           coloring: Optional[Coloring] = None) -> str:
    """Graphviz rendering: one cluster per statement, solid conflict edges,
    dashed same-statement edges, fill color by assigned level (cycling
    through six fills; white when uncolored)."""
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
            level = coloring.color((s.id, k)) if coloring is not None else 0
            color = _FILLS[(level - 1) % len(_FILLS)] if level else "white"
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
