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

Most candidate polyhedra are empty because their own equalities contradict
them, so the equalities are reduced first, in exact integers (the first step
of Pugh's Omega test): a candidate they refute, alone or with the constant
lower bounds of the domains, is dropped at once.  Only statement pairs that
share an array are visited, and their cases are built once per pair shape,
everything the builder reads but names: every later pair of that shape
only names them.  Every distinct relation left, explicit dependences
included, is decided once per analysis, domain rows and all,
by eliminating its Farkas cone: by the affine Farkas lemma (Feautrier
1992) it is empty exactly when no row of the cone holds the constant
(`farkas.cone_is_empty`), and its dependences keep the cone, which the
schedulers read.  Every test is exact over the rationals, so a relation
with rational points but no integer point is kept.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Mapping, Sequence

from .farkas import (
    EQ, GE, ConstraintSystem, LinearRow, cone_is_empty, farkas_cone,
)
from .farkas import _int_row, _new_row, _reduce, _with_pivot
from .model import (
    RAR, RAW, WAR, WAW,
    AccessFunction, DependencePolyhedron, IndexSet, Program, Statement,
)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RELS = {">=", "<=", "=="}
_KINDS = {RAW, WAR, WAW, RAR}


class ParseError(ValueError):
    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


def _name(where: str, value) -> str:
    if not isinstance(value, str) or not _NAME.fullmatch(value):
        raise ParseError(where, f"expected an identifier, got {value!r}")
    return value


def _int(where: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(where, f"expected an integer coefficient, got {value!r}")
    return value


def _object(where: str, value, keys, expected: str = "expected an object") -> Mapping:
    """`value`, which must be an object whose keys are all among `keys`."""
    if not isinstance(value, Mapping):
        raise ParseError(where, expected)
    for key in value:
        if key not in keys:
            raise ParseError(where, f"unknown key {key!r}")
    return value


def _list(where: str, value, what: str = "a list") -> list:
    if not isinstance(value, list):
        raise ParseError(where, f"expected {what}")
    return value


def _row(where: str, value, width: int, with_rel: bool):
    expect = width + (1 if with_rel else 0)
    if len(_list(where, value)) != expect:
        raise ParseError(where, f"expected {expect} entries, got {len(value)}")
    coeffs = value[:width]
    if not all([type(x) is int for x in coeffs]):
        for i, x in enumerate(coeffs):
            _int(f"{where}[{i}]", x)
    if not with_rel:
        return coeffs, None
    rel = value[width]
    if rel not in _RELS:
        raise ParseError(f"{where}[{width}]", f"relation must be one of {sorted(_RELS)}")
    return coeffs, rel


def _constraint(coeffs: Sequence[int], const: int, rel: str) -> LinearRow:
    """expr `rel` 0 over one column per coefficient, normalized so
    inequalities read `expr >= 0`."""
    sign = -1 if rel == "<=" else 1
    return _int_row(len(coeffs), {i: sign * c for i, c in enumerate(coeffs)},
                    sign * const, EQ if rel == "==" else GE)


def parse_program(data: Mapping) -> Program:
    _object("$", data, ("params", "statements", "dependences"), "top level must be an object")
    raw_params = _list("params", data.get("params", []))
    params = tuple(_name(f"params[{i}]", p) for i, p in enumerate(raw_params))
    if len(set(params)) != len(params):
        raise ParseError("params", "duplicate parameter names")

    raw_stmts = _list("statements", data.get("statements", []))
    statements = []
    seen_ids: set[str] = set()
    seen_orders: set[int] = set()
    arity: dict[str, int] = {}
    for i, st in enumerate(raw_stmts):
        where = f"statements[{i}]"
        _object(where, st, ("id", "iterators", "domain", "accesses", "order"))
        sid = _name(f"{where}.id", st.get("id"))
        if sid in seen_ids:
            raise ParseError(f"{where}.id", f"duplicate statement id {sid!r}")
        seen_ids.add(sid)

        raw_iters = _list(f"{where}.iterators", st.get("iterators"))
        iters = tuple(_name(f"{where}.iterators[{j}]", it)
                      for j, it in enumerate(raw_iters))
        if len(set(iters)) != len(iters) or set(iters) & set(params):
            raise ParseError(f"{where}.iterators",
                             "iterator names must be distinct from each other and from parameters")

        width = len(iters) + len(params) + 1
        variables = iters + params
        system = ConstraintSystem(variables, (), dict.fromkeys(variables, None))
        raw_domain = _list(f"{where}.domain", st.get("domain"), "a list of rows")
        rows = []
        for j, r in enumerate(raw_domain):
            coeffs, rel = _row(f"{where}.domain[{j}]", r, width, True)
            rows.append(_constraint(coeffs[:-1], coeffs[-1], rel))
        system = system.with_rows(rows)

        raw_accesses = _list(f"{where}.accesses", st.get("accesses", []))
        accesses = []
        for j, acc in enumerate(raw_accesses):
            awhere = f"{where}.accesses[{j}]"
            _object(awhere, acc, ("array", "kind", "map"))
            array = _name(f"{awhere}.array", acc.get("array"))
            kind = acc.get("kind")
            if kind not in ("read", "write"):
                raise ParseError(f"{awhere}.kind", "kind must be 'read' or 'write'")
            raw_map = _list(f"{awhere}.map", acc.get("map"), "a list of rows")
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

    return Program(params, statements)


# -- dependence polyhedra -----------------------------------------------------


def _dependence_space(src: Statement, dst: Statement, params: Sequence[str]):
    """Fresh system over source instance, target instance and parameters.

    All variables are free; domain rows carry the real bounds, and parameters
    are explicitly non-negative.
    """
    svars = tuple(f"s.{it}" for it in src.domain.iterators)
    tvars = tuple(f"t.{it}" for it in dst.domain.iterators)
    variables = svars + tvars + tuple(params)
    m, n = len(svars), len(svars) + len(tvars)
    width = len(variables)

    # Canonical rows stay canonical when their columns are renumbered in order.
    rows = []
    for first, stmt in ((0, src), (m, dst)):
        at = [*range(first, first + stmt.dim), *range(n, width)]
        rows += [_new_row(LinearRow, (tuple([(at[k], c) for k, c in nonzero]), const,
                                      kind, width))
                 for nonzero, const, kind, _ in stmt.domain.system.rows]
    rows += [_int_row(width, {k: 1}, 0, GE) for k in range(n, width)]
    return ConstraintSystem(variables, rows, dict.fromkeys(variables, None))


def _equal_cells(width: int, m: int, n: int, a: AccessFunction, b: AccessFunction):
    """a(source instance) == b(target instance), one row per array dimension,
    over a dependence space of `width` columns whose target instance takes
    columns m to n - 1."""
    rows = []
    for ra, rb in zip(a.rows, b.rows):
        vec = [*ra[:m], *[-c for c in rb[:n - m]],
               *[x - y for x, y in zip(ra[m:-1], rb[n - m:-1])]]
        rows.append(_int_row(width, dict(enumerate(vec)), ra[-1] - rb[-1], EQ))
    return rows


_KIND_OF = {("write", "read"): RAW, ("read", "write"): WAR,
            ("write", "write"): WAW, ("read", "read"): RAR}


def _dependence(src: Statement, dst: Statement, kind: str,
                relation: ConstraintSystem, label: str,
                facts: dict) -> DependencePolyhedron:
    v, m, n = relation.variables, src.dim, src.dim + dst.dim
    dep = DependencePolyhedron(src.id, dst.id, kind, v[:m], v[m:n], v[n:],
                               relation, label=label)
    dep._facts = facts
    return dep


def _relation_facts(relation: ConstraintSystem, known: dict) -> dict | None:
    """The facts a dependence over `relation` shares with every other over
    the same rows (`DependencePolyhedron._facts`), kept in `known` under
    the rows, or None when the relation is empty: its Farkas cone is
    eliminated and decides emptiness (`farkas.cone_is_empty`)."""
    facts = known.get(relation.rows, False)
    if facts is False:
        cone = farkas_cone(relation)
        facts = known[relation.rows] = None if cone_is_empty(cone) else {"cone": cone}
    return facts


# -- refutation by equalities -------------------------------------------------
#
# A candidate relation is empty when its equalities, in integer echelon form
# (`farkas._reduce`), reduce a row to a nonzero constant, or its strict row
# to a negative one, or when such a reduced row cannot hold above the
# constant lower bounds the domains give the variables (`_out_of_reach`).
# This decides rational feasibility of the equalities exactly and of the
# inequalities only partly, so a candidate that survives is still decided by
# `_relation_facts`.


def _lower_bounds(space: ConstraintSystem) -> dict[int, Fraction | int]:
    """Each variable's greatest lower bound among the rows of `space` that
    bound it alone, by column."""
    low: dict[int, Fraction | int] = {}
    for nonzero, const, kind, _ in space.rows:
        if kind == GE and len(nonzero) == 1 and nonzero[0][1] > 0:
            (i, c), = nonzero
            b = -const // c if const % c == 0 else Fraction(-const, c)
            if i not in low or b > low[i]:
                low[i] = b
    return low


def _out_of_reach(row: LinearRow, low: Mapping[int, Fraction | int]) -> bool:
    """Is `row` false wherever every variable is at least its bound in
    `low`?  Only a row whose coefficients share one sign is decided: at the
    bounds it takes its least value if they are positive and its largest if
    they are negative.  An equality that is above zero there, or below with
    negative coefficients, never reaches zero; a ge row with negative
    coefficients that is below zero there never reaches it either."""
    nonzero = row.nonzero
    if not nonzero or any(i not in low for i, _ in nonzero):
        return False
    positive = nonzero[0][1] > 0
    if (positive and row.kind == GE) or any((c > 0) != positive for _, c in nonzero):
        return False
    at_bounds = row.const + sum(c * low[i] for i, c in nonzero)
    return at_bounds > 0 if positive else at_bounds < 0


def _extend(form: tuple[LinearRow, ...] | None, row: LinearRow,
            low: Mapping[int, Fraction | int]):
    """`form` with the equality `row` added, or None when they contradict,
    alone or above the lower bounds `low` (or `form` is already None)."""
    if form is None:
        return None
    r = _reduce(row, form)
    if not r.nonzero:
        return None if r.const else form
    return None if _out_of_reach(r, low) else _with_pivot(form, row, r)


def _refutes(form: tuple[LinearRow, ...] | None, row: LinearRow,
             low: Mapping[int, Fraction | int]) -> bool:
    """Do the equalities of `form` leave the row `row` no point, or none
    above the lower bounds `low`?"""
    if form is None:
        return True
    r = _reduce(row, form)
    return (r.const < 0) if not r.nonzero else _out_of_reach(r, low)


def _deps_between(src: Statement, dst: Statement, params, pairs,
                  known: dict) -> list[tuple]:
    """The dependence cases from `src` to `dst` that survive, one per access
    pair (ai, bi) of `pairs` and order case, as (ai, bi, d, kind, relation,
    facts): d is the depth of first precedence, or None for the tie.  Only
    the relation's variables carry names, which `_named` replaces.

    The two instances share the first `shared` loops: all of a statement's
    own, none of two statements'.  The source precedes the target at the
    first depth d < shared where they differ, or, equal throughout, when
    its statement comes first in textual order.

    A case whose equalities refute it, alone or with the variables' constant
    lower bounds (see `_refutes`), is dropped with no elimination; any other,
    domain rows included, is decided exactly by `_relation_facts`, once per
    distinct relation of `known`.
    """
    shared = src.dim if src is dst else 0
    tie = src.textual_order < dst.textual_order
    space = _dependence_space(src, dst, params)
    m, n, width = src.dim, src.dim + dst.dim, len(space.variables)
    prefix = [_int_row(width, {k: 1, m + k: -1}, 0, EQ) for k in range(shared)]
    strict = [_int_row(width, {m + k: 1, k: -1}, -1, GE) for k in range(shared)]
    low = _lower_bounds(space)
    out = []
    for ai, bi in pairs:
        a, b = src.accesses[ai], dst.accesses[bi]
        kind = _KIND_OF[a.kind, b.kind]
        cells = _equal_cells(width, m, n, a, b)
        form: tuple[LinearRow, ...] | None = ()
        for row in cells:
            form = _extend(form, row, low)
        for d in range(shared + tie):
            rows = cells + prefix[:d]
            if d < shared:
                empty = _refutes(form, strict[d], low)
                form = _extend(form, prefix[d], low)  # the form of depth d + 1
                if empty:
                    continue
                rows.append(strict[d])
            elif form is None:  # the tie: equal on every shared loop
                continue
            relation = space.with_rows(rows)
            facts = _relation_facts(relation, known)
            if facts is not None:
                out.append((ai, bi, d if d < shared else None, kind, relation, facts))
    return out


def _named(src: Statement, dst: Statement, params, cases) -> list[DependencePolyhedron]:
    """The dependences from `src` to `dst` of `cases` (`_deps_between`),
    over the variables `s.<iterator>`, `t.<iterator>` and the parameters,
    labelled `array:ai->bi`, with `@d` for a depth of first precedence."""
    variables = (*[f"s.{it}" for it in src.domain.iterators],
                 *[f"t.{it}" for it in dst.domain.iterators], *params)
    out = []
    for ai, bi, d, kind, relation, facts in cases:
        if relation.variables != variables:
            relation = relation.renamed(variables)
        label = f"{src.accesses[ai].array}:{ai}->{bi}" + ("" if d is None else f"@{d}")
        out.append(_dependence(src, dst, kind, relation, label, facts))
    return out


def compute_dependences(program: Program) -> tuple[DependencePolyhedron, ...]:
    """Dependences between every statement pair `src <= dst` in textual
    order that shares an array, with one Farkas cone per distinct relation.

    Access pairs of one array, at least one a write, may depend; a
    statement's read-read pairs with itself are skipped, since they never
    order instances and fusion analysis only uses cross-statement ones.
    The cases are built once per pair shape, all that `_deps_between` reads
    but names: whether src is dst, the textual-order tie, both domains and
    the matched access pairs, by index, kind and map; every pair of that
    shape then only names them (`_named`).
    """
    stmts = program.statements
    users: dict[str, list[int]] = {}
    for k, s in enumerate(stmts):
        for array in dict.fromkeys(a.array for a in s.accesses):
            users.setdefault(array, []).append(k)
    ids: dict = {}  # each domain and each access, by its rows, to a small int
    domains = [ids.setdefault((s.dim, s.domain.system.rows), len(ids)) for s in stmts]
    accesses = [[ids.setdefault((a.kind, a.rows), len(ids)) for a in s.accesses]
                for s in stmts]
    known: dict = {}
    built: dict = {}
    out = []
    for i, src in enumerate(stmts):
        for j in sorted({j for a in src.accesses for j in users[a.array] if j >= i}):
            dst = stmts[j]
            pairs = [(ai, bi) for ai, a in enumerate(src.accesses)
                     for bi, b in enumerate(dst.accesses) if a.array == b.array
                     and not (i == j and a.kind == b.kind == "read")]
            key = (i == j, src.textual_order < dst.textual_order, domains[i], domains[j],
                   *[(ai, bi, accesses[i][ai], accesses[j][bi]) for ai, bi in pairs])
            cases = built.get(key)
            if cases is None:
                cases = built[key] = _deps_between(src, dst, program.params, pairs, known)
            out += _named(src, dst, program.params, cases)
    return tuple(out)


def parse_dependences(program: Program, entries) -> tuple[DependencePolyhedron, ...]:
    """Explicit dependence list.  Rows are over source iterators, target
    iterators, parameters and a constant; domain and parameter-sign rows are
    conjoined since a dependence only relates existing instances.  An empty
    relation is dropped; equal relations share one Farkas cone.  An ordering
    self-dependence whose relation holds a point with s = t is refused, as
    no schedule runs an instance before itself."""
    known: dict = {}
    out = []
    for i, e in enumerate(_list("dependences", entries)):
        where = f"dependences[{i}]"
        _object(where, e, ("src", "dst", "kind", "relation"))
        try:
            src = program.statement(_name(f"{where}.src", e.get("src")))
            dst = program.statement(_name(f"{where}.dst", e.get("dst")))
        except KeyError as exc:
            raise ParseError(where, f"unknown statement id {exc.args[0]!r}") from None
        kind = e.get("kind")
        if kind not in _KINDS:
            raise ParseError(f"{where}.kind", f"kind must be one of {sorted(_KINDS)}")
        space = _dependence_space(src, dst, program.params)
        rows = []
        for j, r in enumerate(_list(f"{where}.relation", e.get("relation"), "a list of rows")):
            coeffs, rel = _row(f"{where}.relation[{j}]", r,
                               len(space.variables) + 1, True)
            rows.append(_constraint(coeffs[:-1], coeffs[-1], rel))
        relation = space.with_rows(rows)
        facts = _relation_facts(relation, known)
        if facts is None:
            continue
        if src is dst and kind != RAR:  # no instance may run before itself
            same = [_int_row(len(space.variables), {k: 1, src.dim + k: -1}, 0, EQ)
                    for k in range(src.dim)]
            if not cone_is_empty(farkas_cone(relation.with_rows(same))):
                raise ParseError(f"{where}.relation",
                                 f"pairs an instance of {src.id} with itself")
        out.append(_dependence(src, dst, kind, relation, f"explicit{i}", facts))
    return tuple(out)


def analyze(data: Mapping) -> tuple[Program, tuple[DependencePolyhedron, ...]]:
    """Parse a program and obtain its dependences, computed or explicit."""
    program = parse_program(data)
    if "dependences" in data:
        deps = parse_dependences(program, data["dependences"])
    else:
        deps = compute_dependences(program)
    return program, deps


def parse_json(text: str, where: str):
    """Decoded JSON text; a syntax error, an int literal past Python's digit
    limit or nesting past its recursion limit is a ParseError at `where`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(where, f"invalid JSON: {exc}") from None


def read_utf8(file, where: str) -> str:
    """The text of `file`, a path or a package resource, read as UTF-8;
    a file that is not UTF-8 is a ParseError at `where`."""
    try:
        return file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(where, f"not UTF-8: {exc.reason} at byte {exc.start}") from None
