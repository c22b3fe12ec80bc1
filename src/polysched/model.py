"""Program representation: iteration domains, dependences, transforms.

Statements are perfectly nested loops executed one nest after another in
textual order.  A dependence is a polyhedron of (source instance, target
instance, parameters) points; the dependence graph over statement ids splits
into weakly or strongly connected components.  An affine transform is a list
of rows per statement, each row giving iterator coefficients, parameter-shift
coefficients and a constant shift.  All types are immutable after construction,
except that `Program` and `DependencePolyhedron` fill memo fields on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .farkas import ConstraintSystem, ZERO
from . import ratlp

RAW = "RAW"
WAR = "WAR"
WAW = "WAW"
RAR = "RAR"

#: Dependence kinds that constrain execution order.  Read-read pairs are kept
#: in the graph for fusion analysis but can never be violated.
ORDERING_KINDS = (RAW, WAR, WAW)


class SchedulingError(RuntimeError):
    """An impossible state: progress guarantees or proved properties failed."""


@dataclass(frozen=True)
class IndexSet:
    """Affine iteration domain over iterators and program parameters."""

    iterators: tuple[str, ...]
    params: tuple[str, ...]
    system: ConstraintSystem

    def __post_init__(self):
        expect = tuple(self.iterators) + tuple(self.params)
        if self.system.variables != expect:
            raise ValueError(f"domain variables {self.system.variables} != {expect}")

    @property
    def dim(self) -> int:
        return len(self.iterators)


@dataclass(frozen=True)
class AccessFunction:
    """One array reference: affine map from iterators and parameters to cells."""

    array: str
    kind: str  # "read" or "write"
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Statement:
    id: str
    domain: IndexSet
    accesses: tuple[AccessFunction, ...]
    textual_order: int

    @property
    def dim(self) -> int:
        return self.domain.dim


@dataclass(frozen=True)
class Program:
    params: tuple[str, ...]
    statements: tuple[Statement, ...]
    #: One Farkas cone per distinct dependence relation (keyed by its rows),
    #: filled by `pluto._farkas_rows`, one verdict per probe shape, filled by
    #: `fcg.fusion_probe`, and the statements by id.
    _farkas_shapes: dict = field(default_factory=dict, init=False, repr=False,
                                 compare=False)
    _probe_verdicts: dict = field(default_factory=dict, init=False, repr=False,
                                  compare=False)
    _by_id: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self._by_id.update((s.id, s) for s in self.statements)
        if len(self._by_id) != len(self.statements):
            raise ValueError("duplicate statement ids")

    def statement(self, sid: str) -> Statement:
        return self._by_id[sid]

@dataclass(frozen=True, eq=False)
class DependencePolyhedron:
    """Instance-pair polyhedron between a source and a target statement.

    The relation's variables are the source instance coordinates, the target
    instance coordinates, then the parameters, all unbounded (domain rows and
    explicit parameter non-negativity carry the bounds).
    """

    src: str
    dst: str
    kind: str
    src_vars: tuple[str, ...]
    dst_vars: tuple[str, ...]
    params: tuple[str, ...]
    relation: ConstraintSystem
    label: str = ""
    #: (legality, bounding) rows, the program's cone of this relation with the
    #: two forms substituted in, filled on first use by `pluto._farkas_rows`.
    _farkas: tuple[ConstraintSystem, ConstraintSystem] | None = field(
        default=None, init=False, repr=False, compare=False)
    #: Minima by (source row, target row), filled by `min_dependence_component`.
    _minima: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        expect = self.src_vars + self.dst_vars + self.params
        if self.relation.variables != expect:
            raise ValueError("relation variables out of order")

    def __repr__(self):
        return f"<{self.kind} {self.src}->{self.dst} {self.label}>"

    @property
    def ordering(self) -> bool:
        return self.kind in ORDERING_KINDS

    @property
    def shape(self) -> tuple:
        """All that the dependence's legality and bounding rows depend on
        besides the names of its statements and iterators: the relation's
        rows, both depths, the parameters, and whether it is a
        self-dependence.  `fcg.fusion_probe` keys its verdicts on it; the
        Farkas cone needs the relation's rows alone."""
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


@dataclass(frozen=True)
class Band:
    """A run of consecutive levels found against one fixed legality system."""

    start: int
    end: int
    permutable: bool
    parallel: bool
    statements: tuple[str, ...]


@dataclass(frozen=True)
class Cut:
    """A constant distribution level: statements grouped by emitted ordinal."""

    level: int
    groups: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class AffineTransform:
    """Per-statement schedule rows plus band and distribution structure.

    A row has one coefficient per iterator of its statement, one per program
    parameter, and a trailing constant; rows of different statements at the
    same position form one schedule level.  Statements may own fewer rows than
    the deepest one (a missing row behaves like the zero function).
    """

    params: tuple[str, ...]
    dims: Mapping[str, tuple[str, ...]]
    rows: Mapping[str, tuple[tuple[Fraction, ...], ...]]
    bands: tuple[Band, ...] = ()
    cuts: tuple[Cut, ...] = ()

    @staticmethod
    def of(program: Program, rows: Mapping[str, Sequence[tuple[Fraction, ...]]],
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

    def iterator_part(self, sid: str, level: int):
        r = self.row(sid, level)
        return None if r is None else r[: len(self.dims[sid])]

    def to_json(self) -> dict:
        def fmt(x: Fraction) -> str:
            x = Fraction(x)
            return f"{x.numerator}/{x.denominator}"

        return {
            "params": list(self.params),
            "statements": {
                sid: {
                    "iterators": list(self.dims[sid]),
                    "rows": [[fmt(x) for x in row] for row in rows],
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

    @staticmethod
    def from_json(data: Mapping) -> "AffineTransform":
        dims = {sid: tuple(st["iterators"]) for sid, st in data["statements"].items()}
        rows = {
            sid: tuple(tuple(Fraction(x) for x in row) for row in st["rows"])
            for sid, st in data["statements"].items()
        }
        bands = tuple(
            Band(b["start"], b["end"], b["permutable"], b["parallel"],
                 tuple(b["statements"]))
            for b in data.get("bands", ())
        )
        cuts = tuple(
            Cut(c["level"], tuple(tuple(g) for g in c["groups"]))
            for c in data.get("cuts", ())
        )
        return AffineTransform(tuple(data["params"]), dims, rows, bands, cuts)


def unit_row(stmt: Statement, nparams: int, k: int) -> tuple[Fraction, ...]:
    """The schedule row of `stmt` that is its k-th iterator."""
    return tuple(Fraction(int(i == k)) for i in range(stmt.dim)) + (ZERO,) * (nparams + 1)


def constant_row(stmt: Statement, nparams: int, value: int) -> tuple[Fraction, ...]:
    """The scalar schedule row of `stmt` with the constant `value`."""
    return (ZERO,) * (stmt.dim + nparams) + (Fraction(value),)


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
                          src_row: Sequence[Fraction] | None,
                          dst_row: Sequence[Fraction] | None):
    """phi_dst - phi_src over the dependence space as (objective, constant)."""
    np = len(dep.params)
    obj: dict[str, Fraction] = {}
    const = ZERO

    def accumulate(row, vars_, sign):
        nonlocal const
        if row is None:
            return
        m = len(vars_)
        for v, c in zip(vars_, row[:m]):
            if c:
                obj[v] = obj.get(v, ZERO) + sign * c
        for p, c in zip(dep.params, row[m: m + np]):
            if c:
                obj[p] = obj.get(p, ZERO) + sign * c
        const += sign * row[m + np]

    accumulate(dst_row, dep.dst_vars, Fraction(1))
    accumulate(src_row, dep.src_vars, Fraction(-1))
    return obj, const


def min_dependence_component(dep: DependencePolyhedron,
                             src_row, dst_row) -> Fraction | None:
    """Exact minimum of phi_dst - phi_src over the dependence polyhedron,
    None when unbounded below.

    Kept on the dependence per pair of rows: the passes and checks of one
    analysis ask again for rows they share."""
    key = tuple(None if r is None else tuple(r) for r in (src_row, dst_row))
    if key not in dep._minima:
        dep._minima[key] = _min_component(dep, src_row, dst_row)
    return dep._minima[key]


def _min_component(dep, src_row, dst_row) -> Fraction | None:
    obj, const = dependence_difference(dep, src_row, dst_row)
    if not obj:
        return const
    res = ratlp.solve_lp(ratlp.LPProblem.of(dep.relation, [obj]))
    if res.status == ratlp.UNBOUNDED:
        return None
    if res.status != ratlp.OPTIMAL:
        raise SchedulingError(f"dependence polyhedron became empty: {dep!r}")
    return res.objective[0] + const


def component_range(dep: DependencePolyhedron, transform: AffineTransform,
                    level: int) -> Fraction | None:
    return min_dependence_component(
        dep, transform.row(dep.src, level), transform.row(dep.dst, level))


def satisfaction_level(dep: DependencePolyhedron, transform: AffineTransform,
                       up_to: int | None = None) -> int | None:
    """First level whose component is >= 1 on the whole dependence.

    A rational minimum of at least 1 certifies the integer minimum too, so
    this never claims satisfaction early.
    """
    limit = transform.levels if up_to is None else up_to
    for level in range(1, limit + 1):
        m = component_range(dep, transform, level)
        if m is not None and m >= 1:
            return level
    return None

