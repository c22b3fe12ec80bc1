"""Program representation: iteration domains, dependences, transforms.

Statements are perfectly nested loops executed one nest after another in
textual order, which `Program.statements` keeps whatever the input order;
no two statements share an order, or neither would run first.  A
dependence is a polyhedron of (source instance, target instance, parameters)
points; the dependence graph over statement ids splits into weakly or
strongly connected components.  An affine transform is a list of rows per
statement, each row giving iterator coefficients, parameter-shift
coefficients and a constant shift.  The value types are NamedTuples, so
immutable.  `IndexSet`, `Program` and `DependencePolyhedron` check their
fields in `__init__`; they are plain slotted classes whose fields nothing
reassigns afterwards, though nothing prevents it either.  Only their memo
fields change, filled on first use: a program keeps its probe verdicts, and
a dependence keeps what its relation decides (its Farkas cone, per shape
its Farkas rows, and per affine form its minimum) in `_facts`, shared by
the dependences of one analysis over that relation.  Every pass places its
distribution levels with `place_cut` and tells which dependences still
constrain a level with `unsatisfied` and `negative`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .farkas import (
    ConstraintSystem, LinearRow, bounded_by_parameters, cone_minimum,
    dependence_rows, farkas_cone,
)

RAW = "RAW"
WAR = "WAR"
WAW = "WAW"
RAR = "RAR"

#: Dependence kinds that constrain execution order.  Read-read pairs are kept
#: in the graph for fusion analysis but can never be violated.
ORDERING_KINDS = (RAW, WAR, WAW)


class SchedulingError(RuntimeError):
    """An impossible state: progress guarantees or proved properties failed."""


class IndexSet:
    """Affine iteration domain over iterators and program parameters."""

    __slots__ = ("iterators", "params", "system")

    def __init__(self, iterators: tuple[str, ...], params: tuple[str, ...],
                 system: ConstraintSystem):
        expect = tuple(iterators) + tuple(params)
        if system.variables != expect:
            raise ValueError(f"domain variables {system.variables} != {expect}")
        self.iterators, self.params, self.system = iterators, params, system

    @property
    def dim(self) -> int:
        return len(self.iterators)


class AccessFunction(NamedTuple):
    """One array reference: affine map from iterators and parameters to cells."""

    array: str
    kind: str  # "read" or "write"
    rows: tuple[tuple[int, ...], ...]


class Statement(NamedTuple):
    id: str
    domain: IndexSet
    accesses: tuple[AccessFunction, ...]
    textual_order: int

    @property
    def dim(self) -> int:
        return self.domain.dim


class Program:
    __slots__ = ("params", "statements", "_by_id", "_probe_verdicts")

    def __init__(self, params: tuple[str, ...], statements: Sequence[Statement]):
        self.params = params
        self.statements = tuple(sorted(statements, key=lambda s: s.textual_order))
        self._by_id = {s.id: s for s in self.statements}
        if len(self._by_id) != len(self.statements):
            raise ValueError("duplicate statement ids")
        if len({s.textual_order for s in self.statements}) != len(self.statements):
            raise ValueError("duplicate textual orders")
        #: One verdict per probe shape, filled by `fcg.fusion_probe`.
        self._probe_verdicts: dict = {}

    def statement(self, sid: str) -> Statement:
        return self._by_id[sid]


class DependencePolyhedron:
    """Instance-pair polyhedron between a source and a target statement.

    The relation's variables are the source instance coordinates, the target
    instance coordinates, then the parameters, all unbounded (domain rows and
    explicit parameter non-negativity carry the bounds).  Two dependences are
    equal only when they are the same object.
    """

    __slots__ = ("src", "dst", "kind", "src_vars", "dst_vars", "params", "relation",
                 "label", "_facts")

    def __init__(self, src: str, dst: str, kind: str, src_vars: tuple[str, ...],
                 dst_vars: tuple[str, ...], params: tuple[str, ...],
                 relation: ConstraintSystem, label: str = ""):
        if relation.variables != src_vars + dst_vars + params:
            raise ValueError("relation variables out of order")
        self.src, self.dst, self.kind, self.label = src, dst, kind, label
        self.src_vars, self.dst_vars, self.params = src_vars, dst_vars, params
        self.relation = relation
        #: What depends on `relation` alone, shared by the dependences of one
        #: analysis with the same rows and read through `_fact`: the Farkas
        #: cone under "cone" (set by the frontend or on first read), the
        #: `bounded` verdict under "bounded", `farkas_rows` under the rest of
        #: the `shape`: (source depth, self or not), and the minimum of each
        #: affine form over the relation under ("min", form).
        self._facts: dict = {}

    def __repr__(self):
        return f"<{self.kind} {self.src}->{self.dst} {self.label}>"

    @property
    def ordering(self) -> bool:
        return self.kind in ORDERING_KINDS

    def _fact(self, key, make):
        """The fact under `key` in `_facts`, made by `make()` on first read.
        A present key counts as made, so None and False facts are kept."""
        if key not in self._facts:
            self._facts[key] = make()
        return self._facts[key]

    @property
    def cone(self) -> ConstraintSystem:
        """The Farkas cone of `relation` (`farkas.farkas_cone`).  The frontend
        builds it to decide that the relation is not empty; it is built
        here, on first read, only for a dependence made by hand."""
        return self._fact("cone", lambda: farkas_cone(self.relation))

    @property
    def bounded(self) -> bool:
        """Does every affine form on the relation have an upper bound
        u.p + w with u, w >= 0 (`farkas.bounded_by_parameters`)?  Then the
        dependence's bounding rows hold for some u and w whatever the level's
        rows, and a feasibility question may leave them out."""
        return self._fact("bounded", lambda: bounded_by_parameters(
            self.cone, len(self.params)))

    @property
    def farkas_rows(self) -> tuple[tuple[LinearRow, ...], tuple[LinearRow, ...]]:
        """The (legality, bounding) rows by column (`farkas.dependence_rows`),
        shared by every dependence of the analysis with the same `shape`."""
        return self._fact((len(self.src_vars), self.src == self.dst),
                          lambda: dependence_rows(self))

    @property
    def shape(self) -> tuple:
        """All that the dependence's legality and bounding rows depend on
        besides the names of its statements and iterators: the relation's
        rows, both depths, the parameters, and whether it is a
        self-dependence.  `fcg.fusion_probe` keys its verdicts on it, and
        `farkas_rows` are shared per shape; the cone needs the rows alone."""
        return (self.relation.rows, len(self.src_vars), len(self.dst_vars),
                self.params, self.src == self.dst)


# -- dependence graph ---------------------------------------------------------


def _adjacency(ids: Sequence, pairs) -> dict:
    """Successor lists over the vertices `ids` in their order, duplicates dropped."""
    order = {v: i for i, v in enumerate(ids)}
    succ: dict = {v: set() for v in ids}
    for a, b in pairs:
        succ[a].add(b)
    return {v: sorted(succ[v], key=order.__getitem__) for v in ids}


def _search(root, succ: Mapping, seen: set) -> list:
    """Vertices newly reached from `root`, in depth-first finishing order.

    Successors are tried in list order and `seen` grows in place, so calls
    from successive roots partition the graph.
    """
    seen.add(root)
    finished = []
    work = [(root, iter(succ[root]))]
    while work:
        v, it = work[-1]
        nxt = next((w for w in it if w not in seen), None)
        if nxt is None:
            finished.append(work.pop()[0])
        else:
            seen.add(nxt)
            work.append((nxt, iter(succ[nxt])))
    return finished


def _partition(ids, succ, roots) -> tuple[tuple[str, ...], ...]:
    """The vertex sets reached from `roots` in turn, members in `ids` order."""
    order = {v: i for i, v in enumerate(ids)}
    seen: set[str] = set()
    return tuple(tuple(sorted(_search(r, succ, seen), key=order.__getitem__))
                 for r in roots if r not in seen)


def components(ids: Sequence[str], deps: Sequence[DependencePolyhedron],
               ) -> tuple[tuple[str, ...], ...]:
    """Weakly connected components of the dependence graph over `ids`,
    ordered by their first vertex."""
    pairs = [(d.src, d.dst) for d in deps] + [(d.dst, d.src) for d in deps]
    return _partition(ids, _adjacency(ids, pairs), ids)


def scc_decompose(ids: Sequence[str], deps: Sequence[DependencePolyhedron],
                  ) -> tuple[tuple[str, ...], ...]:
    """Strongly connected components in topological order of the condensation.

    Kosaraju: a depth-first search from each vertex in `ids` order gives the
    finishing order, and searches of the reversed graph from the latest
    finisher on peel off the components source first.  Members follow `ids`,
    so repeated runs agree exactly.
    """
    finished: list[str] = []
    seen: set[str] = set()
    succ = _adjacency(ids, [(d.src, d.dst) for d in deps])
    for v in ids:
        if v not in seen:
            finished += _search(v, succ, seen)
    pred = _adjacency(ids, [(d.dst, d.src) for d in deps])
    return _partition(ids, pred, reversed(finished))


# -- transforms ---------------------------------------------------------------


class Band(NamedTuple):
    """A run of consecutive levels found against one fixed legality system."""

    start: int
    end: int
    permutable: bool
    parallel: bool
    statements: tuple[str, ...]


class Cut(NamedTuple):
    """A constant distribution level: statements grouped by emitted ordinal."""

    level: int
    groups: tuple[tuple[str, ...], ...]


class AffineTransform(NamedTuple):
    """Per-statement schedule rows plus band and distribution structure.

    A row has one coefficient per iterator of its statement, one per program
    parameter, and a trailing constant; rows of different statements at the
    same position form one schedule level.  Statements may own fewer rows than
    the deepest one.  Dependence minima (`component_range`) and `negative`
    read a missing row as the zero function, while `satisfaction_level`
    and `verify.check_legality` compare two statements on their common
    rows, then by textual order.  Every path scales its rows to integers,
    so their entries are ints; `to_json` prints each entry as a "p/q"
    string.
    """

    params: tuple[str, ...]
    dims: Mapping[str, tuple[str, ...]]
    rows: Mapping[str, tuple[tuple[int, ...], ...]]
    bands: tuple[Band, ...] = ()
    cuts: tuple[Cut, ...] = ()

    @staticmethod
    def of(program: Program, rows: Mapping[str, Sequence[tuple[int, ...]]],
           bands: Sequence[Band] = (), cuts: Sequence[Cut] = ()) -> "AffineTransform":
        """`program`'s transform with the given rows per statement."""
        return AffineTransform(
            program.params, {s.id: s.domain.iterators for s in program.statements},
            {sid: tuple(r) for sid, r in rows.items()}, tuple(bands), tuple(cuts))

    @property
    def levels(self) -> int:
        return max((len(r) for r in self.rows.values()), default=0)

    def row(self, sid: str, level: int):
        """Row of `sid` at 1-based `level`, or None past its depth."""
        rows = self.rows[sid]
        return rows[level - 1] if level <= len(rows) else None

    def to_json(self) -> dict:
        return {
            "params": list(self.params),
            "statements": {
                sid: {
                    "iterators": list(self.dims[sid]),
                    "rows": [[f"{x.numerator}/{x.denominator}" for x in row] for row in rows],
                }
                for sid, rows in self.rows.items()
            },
            "bands": [
                {
                    "start": b.start,
                    "end": b.end,
                    "permutable": b.permutable,
                    "parallel": b.parallel,
                    "statements": list(b.statements),
                }
                for b in self.bands
            ],
            "cuts": [
                {"level": c.level, "groups": [list(g) for g in c.groups]}
                for c in self.cuts
            ],
        }


def unit_row(stmt: Statement, nparams: int, k: int) -> tuple[int, ...]:
    """The schedule row of `stmt` that is its k-th iterator."""
    return tuple([int(i == k) for i in range(stmt.dim)]) + (0,) * (nparams + 1)


def constant_row(stmt: Statement, nparams: int, value: int) -> tuple[int, ...]:
    """The scalar schedule row of `stmt` with the constant `value`."""
    return (0,) * (stmt.dim + nparams) + (value,)


def identity_transform(program: Program) -> AffineTransform:
    """Original loop order: unit iterator rows, no shifts."""
    np = len(program.params)
    rows = {s.id: [unit_row(s, np, k) for k in range(s.dim)]
            for s in program.statements}
    band = Band(1, max((s.dim for s in program.statements), default=0),
                True, False, tuple(s.id for s in program.statements))
    return AffineTransform.of(program, rows, (band,) if band.end else ())


# -- dependence components ----------------------------------------------------


def dependence_difference(dep: DependencePolyhedron,
                          src_row: Sequence[int] | None,
                          dst_row: Sequence[int] | None) -> list[int]:
    """phi_dst - phi_src over the dependence space: one coefficient per
    relation variable, in order, then the constant.  A missing row is zero."""
    m, n, np = len(dep.src_vars), len(dep.dst_vars), len(dep.params)
    src = src_row or (0,) * (m + np + 1)
    dst = dst_row or (0,) * (n + np + 1)
    return [-x for x in src[:m]] + list(dst[:n]) + [b - a for a, b in zip(src[m:], dst[n:])]


def min_dependence_component(dep: DependencePolyhedron,
                             src_row, dst_row) -> Fraction | None:
    """Exact minimum of phi_dst - phi_src over the dependence polyhedron,
    None when unbounded below.

    Read off the relation's Farkas cone (`farkas.cone_minimum`) once per
    form: the passes and checks of one analysis, and the dependences over
    one relation, ask again for forms they share."""
    form = dependence_difference(dep, src_row, dst_row)
    try:
        return dep._fact(("min", tuple(form)), lambda: cone_minimum(dep.cone, form))
    except ValueError:
        raise SchedulingError(f"dependence polyhedron became empty: {dep!r}") from None


def component_range(dep: DependencePolyhedron, transform: AffineTransform,
                    level: int) -> Fraction | None:
    return min_dependence_component(
        dep, transform.row(dep.src, level), transform.row(dep.dst, level))


def satisfaction_level(dep: DependencePolyhedron, transform: AffineTransform,
                       up_to: int | None = None) -> int | None:
    """First level, up to `up_to`, whose component is >= 1 on the whole
    dependence.  Only levels where both statements have a row count, as in
    `verify.check_legality`: past the shorter one's rows, textual order
    decides.  A rational minimum of at least 1 certifies the integer
    minimum too, so this never claims satisfaction early.
    """
    limit = min(len(transform.rows[dep.src]), len(transform.rows[dep.dst]))
    if up_to is not None:
        limit = min(limit, up_to)
    for level in range(1, limit + 1):
        m = component_range(dep, transform, level)
        if m is not None and m >= 1:
            return level
    return None


def unsatisfied(deps: Sequence[DependencePolyhedron], transform: AffineTransform,
                up_to: int | None = None) -> list[DependencePolyhedron]:
    """The dependences of `deps`, in order, that no level up to `up_to`
    (default: every level) of `transform` satisfies: those still live below."""
    return [d for d in deps if satisfaction_level(d, transform, up_to) is None]


def dependence_list(deps: Sequence[DependencePolyhedron]) -> str:
    """`deps` as errors and diagnostics name them: "src->dst label", in
    order, comma-separated."""
    return ", ".join(f"{d.src}->{d.dst} {d.label}" for d in deps)


def negative(deps: Sequence[DependencePolyhedron], transform: AffineTransform,
             level: int) -> list[DependencePolyhedron]:
    """The dependences of `deps`, in order, whose component at `level` can
    go negative (or is unbounded below)."""
    out = []
    for d in deps:
        m = component_range(d, transform, level)
        if m is None or m < 0:
            out.append(d)
    return out


def place_cut(program: Program, rows: Mapping[str, list], level: int,
              groups: Sequence[Sequence[str]]) -> Cut:
    """Write the distribution `Cut(level, groups)` into `rows` and return it.

    Each statement of `groups` gets zero rows up to `level - 1`, then a
    constant row holding its group's ordinal.  A statement with fewer rows
    than the level above the cut (no loops, or loops all placed) still
    gets its ordinal at `level`, where the cut orders it against the rest.
    """
    np = len(program.params)
    for ordinal, group in enumerate(groups):
        for sid in group:
            s = program.statement(sid)
            listed = rows[sid]
            listed += [constant_row(s, np, 0)] * (level - 1 - len(listed))
            listed.append(constant_row(s, np, ordinal))
    return Cut(level, tuple(groups))
