"""Input parsing and dependence analysis.

Programs arrive as JSON: parameters, statements with iteration domains and
array accesses, and optionally an explicit dependence list.  Without the
explicit list, dependences are computed from access pairs: two references to
the same array, at least one a write (read-read pairs are kept between
distinct statements for fusion analysis), restricted to instance pairs where
the source runs before the target.  One rule orders instances: the source
runs first if it precedes the target lexicographically on the loops they
share, or, equal on all of them, if its statement comes first in textual
order; each depth of first precedence gets its own polyhedron.  Statements
are separate nests, so two statements share no loop, while a statement
shares all its loops with itself.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Mapping, Sequence

from . import ratlp
from .farkas import EQ, GE, ConstraintSystem
from .model import (
    RAR, RAW, WAR, WAW,
    AccessFunction, DependencePolyhedron, IndexSet, Program, Statement,
)

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RELS = {">=", "<=", "=="}
_KINDS = {RAW, WAR, WAW, RAR}


class ParseError(ValueError):
    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


def _name(where: str, value) -> str:
    if not isinstance(value, str) or not _NAME.match(value):
        raise ParseError(where, f"expected an identifier, got {value!r}")
    return value


def _int(where: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(where, f"expected an integer coefficient, got {value!r}")
    return value


def _row(where: str, value, width: int, with_rel: bool):
    if not isinstance(value, list):
        raise ParseError(where, "expected a list")
    expect = width + (1 if with_rel else 0)
    if len(value) != expect:
        raise ParseError(where, f"expected {expect} entries, got {len(value)}")
    coeffs = [_int(f"{where}[{i}]", x) for i, x in enumerate(value[:width])]
    if not with_rel:
        return coeffs, None
    rel = value[width]
    if rel not in _RELS:
        raise ParseError(f"{where}[{width}]", f"relation must be one of {sorted(_RELS)}")
    return coeffs, rel


def _constraint(system: ConstraintSystem, variables: Sequence[str],
                coeffs: Sequence[int], const: int, rel: str):
    """expr `rel` 0, normalized so inequalities read `expr >= 0`."""
    sign = -1 if rel == "<=" else 1
    mapping = {v: sign * c for v, c in zip(variables, coeffs) if c}
    return system.row_from(mapping, sign * const, EQ if rel == "==" else GE)


def parse_program(data: Mapping) -> Program:
    if not isinstance(data, Mapping):
        raise ParseError("$", "top level must be an object")
    for key in data:
        if key not in ("params", "statements", "dependences"):
            raise ParseError("$", f"unknown key {key!r}")

    raw_params = data.get("params", [])
    if not isinstance(raw_params, list):
        raise ParseError("params", "expected a list")
    params = tuple(_name(f"params[{i}]", p) for i, p in enumerate(raw_params))
    if len(set(params)) != len(params):
        raise ParseError("params", "duplicate parameter names")

    raw_stmts = data.get("statements", [])
    if not isinstance(raw_stmts, list):
        raise ParseError("statements", "expected a list")

    statements = []
    seen_ids: set[str] = set()
    seen_orders: set[int] = set()
    arity: dict[str, int] = {}
    for i, st in enumerate(raw_stmts):
        where = f"statements[{i}]"
        if not isinstance(st, Mapping):
            raise ParseError(where, "expected an object")
        for key in st:
            if key not in ("id", "iterators", "domain", "accesses", "order"):
                raise ParseError(where, f"unknown key {key!r}")
        sid = _name(f"{where}.id", st.get("id"))
        if sid in seen_ids:
            raise ParseError(f"{where}.id", f"duplicate statement id {sid!r}")
        seen_ids.add(sid)

        raw_iters = st.get("iterators")
        if not isinstance(raw_iters, list):
            raise ParseError(f"{where}.iterators", "expected a list")
        iters = tuple(_name(f"{where}.iterators[{j}]", it)
                      for j, it in enumerate(raw_iters))
        if len(set(iters)) != len(iters) or set(iters) & set(params):
            raise ParseError(f"{where}.iterators",
                             "iterator names must be distinct from each other and from parameters")

        width = len(iters) + len(params) + 1
        variables = iters + params
        system = ConstraintSystem(variables, (), dict.fromkeys(variables, None))
        raw_domain = st.get("domain")
        if not isinstance(raw_domain, list):
            raise ParseError(f"{where}.domain", "expected a list of rows")
        rows = []
        for j, r in enumerate(raw_domain):
            coeffs, rel = _row(f"{where}.domain[{j}]", r, width, True)
            rows.append(_constraint(system, variables, coeffs[:-1], coeffs[-1], rel))
        system = system.with_rows(rows)

        raw_accesses = st.get("accesses", [])
        if not isinstance(raw_accesses, list):
            raise ParseError(f"{where}.accesses", "expected a list")
        accesses = []
        for j, acc in enumerate(raw_accesses):
            awhere = f"{where}.accesses[{j}]"
            if not isinstance(acc, Mapping):
                raise ParseError(awhere, "expected an object")
            for key in acc:
                if key not in ("array", "kind", "map"):
                    raise ParseError(awhere, f"unknown key {key!r}")
            array = _name(f"{awhere}.array", acc.get("array"))
            kind = acc.get("kind")
            if kind not in ("read", "write"):
                raise ParseError(f"{awhere}.kind", "kind must be 'read' or 'write'")
            raw_map = acc.get("map")
            if not isinstance(raw_map, list):
                raise ParseError(f"{awhere}.map", "expected a list of rows")
            amap = tuple(
                tuple(_row(f"{awhere}.map[{k}]", r, width, False)[0])
                for k, r in enumerate(raw_map)
            )
            if array in arity and arity[array] != len(amap):
                raise ParseError(f"{awhere}.map",
                                 f"array {array!r} used with {len(amap)} "
                                 f"subscripts, earlier with {arity[array]}")
            arity.setdefault(array, len(amap))
            accesses.append(AccessFunction(array, kind, amap))

        order = st.get("order", i)
        if isinstance(order, bool) or not isinstance(order, int):
            raise ParseError(f"{where}.order", "expected an integer")
        if order in seen_orders:
            raise ParseError(f"{where}.order", f"duplicate order {order}")
        seen_orders.add(order)

        statements.append(Statement(sid, IndexSet(iters, params, system),
                                    tuple(accesses), order))

    statements.sort(key=lambda s: s.textual_order)
    return Program(params, tuple(statements))


# -- dependence polyhedra -----------------------------------------------------


def _dependence_space(src: Statement, dst: Statement, params: Sequence[str]):
    """Fresh system over source instance, target instance and parameters.

    All variables are free; domain rows carry the real bounds, and parameters
    are explicitly non-negative.
    """
    svars = tuple(f"s.{it}" for it in src.domain.iterators)
    tvars = tuple(f"t.{it}" for it in dst.domain.iterators)
    variables = svars + tvars + tuple(params)
    out = ConstraintSystem(variables, (), dict.fromkeys(variables, None))

    rows = []
    for aliases, stmt in ((svars, src), (tvars, dst)):
        local = list(aliases) + list(params)
        for r in stmt.domain.system.rows:
            rows.append(out.row_from(
                {local[k]: c for k, c in r.nonzero}, r.const, r.kind))
    for p in params:
        rows.append(out.row_from({p: 1}))
    return svars, tvars, out.with_rows(rows)


def _equal_cells(system: ConstraintSystem, svars, tvars, params,
                 a: AccessFunction, b: AccessFunction):
    """a(source instance) == b(target instance), one row per array dimension."""
    rows = []
    for ra, rb in zip(a.rows, b.rows):
        mapping: dict[str, Fraction | int] = {}
        for v, c in zip(svars, ra):
            mapping[v] = mapping.get(v, 0) + c
        for v, c in zip(tvars, rb):
            mapping[v] = mapping.get(v, 0) - c
        for k, p in enumerate(params):
            mapping[p] = mapping.get(p, 0) + ra[len(svars) + k] - rb[len(tvars) + k]
        rows.append(system.row_from(mapping, ra[-1] - rb[-1], EQ))
    return rows


_KIND_OF = {("write", "read"): RAW, ("read", "write"): WAR,
            ("write", "write"): WAW, ("read", "read"): RAR}


def _dependence(src: Statement, dst: Statement, kind: str,
                space: ConstraintSystem, rows, label: str):
    """The dependence on `space` restricted by `rows`, or None when no
    rational point satisfies them."""
    relation = space.with_rows(rows)
    if not ratlp.solve_lp(ratlp.LPProblem.of(relation)):
        return None
    v, m, n = space.variables, src.dim, src.dim + dst.dim
    return DependencePolyhedron(src.id, dst.id, kind, v[:m], v[m:n], v[n:],
                                relation, label=label)


def _deps_between(src: Statement, dst: Statement, params) -> list[DependencePolyhedron]:
    """Dependences from `src` to `dst`, one polyhedron per access pair and
    order case.

    The two instances share the first `shared` loops: all of a statement's
    own, none of two statements'.  The source precedes the target at the
    first depth d < shared where they differ (label suffix `@d`), or, equal
    throughout, when its statement comes first in textual order.  Read-read
    pairs of a statement with itself are skipped: they never order instances
    and fusion analysis only uses cross-statement ones.
    """
    shared = src.dim if src is dst else 0
    tie = src.textual_order < dst.textual_order
    pairs = [(ai, a, bi, b) for ai, a in enumerate(src.accesses)
             for bi, b in enumerate(dst.accesses) if a.array == b.array
             and not (src is dst and a.kind == b.kind == "read")]
    if not pairs:
        return []
    svars, tvars, space = _dependence_space(src, dst, params)
    out = []
    for ai, a, bi, b in pairs:
        kind = _KIND_OF[a.kind, b.kind]
        cells = _equal_cells(space, svars, tvars, params, a, b)
        for d in range(shared + tie):
            rows = cells + [space.row_from({svars[k]: 1, tvars[k]: -1}, 0, EQ)
                            for k in range(d)]
            label = f"{a.array}:{ai}->{bi}"
            if d < shared:
                rows.append(space.row_from({tvars[d]: 1, svars[d]: -1}, -1))
                label += f"@{d}"
            out.append(_dependence(src, dst, kind, space, rows, label))
    return [dep for dep in out if dep is not None]


def compute_dependences(program: Program) -> tuple[DependencePolyhedron, ...]:
    stmts = sorted(program.statements, key=lambda s: s.textual_order)
    return tuple(dep for i, src in enumerate(stmts) for dst in stmts[i:]
                 for dep in _deps_between(src, dst, program.params))


def parse_dependences(program: Program, entries) -> tuple[DependencePolyhedron, ...]:
    """Explicit dependence list.  Rows are over source iterators, target
    iterators, parameters and a constant; domain and parameter-sign rows are
    conjoined since a dependence only relates existing instances."""
    if not isinstance(entries, list):
        raise ParseError("dependences", "expected a list")
    out = []
    for i, e in enumerate(entries):
        where = f"dependences[{i}]"
        if not isinstance(e, Mapping):
            raise ParseError(where, "expected an object")
        for key in e:
            if key not in ("src", "dst", "kind", "relation"):
                raise ParseError(where, f"unknown key {key!r}")
        try:
            src = program.statement(_name(f"{where}.src", e.get("src")))
            dst = program.statement(_name(f"{where}.dst", e.get("dst")))
        except KeyError as exc:
            raise ParseError(where, f"unknown statement id {exc.args[0]!r}") from None
        kind = e.get("kind")
        if kind not in _KINDS:
            raise ParseError(f"{where}.kind", f"kind must be one of {sorted(_KINDS)}")
        _, _, space = _dependence_space(src, dst, program.params)
        raw_rel = e.get("relation")
        if not isinstance(raw_rel, list):
            raise ParseError(f"{where}.relation", "expected a list of rows")
        rows = []
        for j, r in enumerate(raw_rel):
            coeffs, rel = _row(f"{where}.relation[{j}]", r,
                               len(space.variables) + 1, True)
            rows.append(_constraint(space, space.variables, coeffs[:-1], coeffs[-1], rel))
        out.append(_dependence(src, dst, kind, space, rows, f"explicit{i}"))
    return tuple(dep for dep in out if dep is not None)


def analyze(data: Mapping) -> tuple[Program, tuple[DependencePolyhedron, ...]]:
    """Parse a program and obtain its dependences, computed or explicit."""
    program = parse_program(data)
    if "dependences" in data:
        deps = parse_dependences(program, data["dependences"])
    else:
        deps = compute_dependences(program)
    return program, deps


def parse_json(text: str, where: str):
    """Decoded JSON text; a syntax error is a ParseError at `where`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(where, f"invalid JSON: {exc}") from None


def loads(text: str) -> tuple[Program, tuple[DependencePolyhedron, ...]]:
    return analyze(parse_json(text, "$"))
