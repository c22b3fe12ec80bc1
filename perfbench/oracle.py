"""Legality and rank oracle, independent of the scheduler's own checks.

Legality is decided point by point: every program parameter is fixed to
PARAM_VALUE, the integer points of each ordering dependence are enumerated,
and the emitted rows must run every source instance before its target.  Two
instances whose schedule vectors agree on all their common levels run in
textual order, so that tie is legal only between distinct statements with
the source textually first.  Rank is plain Gaussian elimination over
`Fraction`.  Nothing here calls an LP solver or `polysched.verify`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

#: Parameter value at which dependences are enumerated.  Large enough that
#: every offset of -1..1 in the benchmark's programs produces instances.
PARAM_VALUE = 4


def _int(x):
    return int(x) if Fraction(x).denominator == 1 else x


def _rows(system):
    return [(tuple(map(_int, r.coeffs)), _int(r.const), r.kind == "eq")
            for r in system.rows]


def _dot(coeffs, point):
    return sum(c * x for c, x in zip(coeffs, point))


def _holds(rows, point) -> bool:
    for coeffs, const, eq in rows:
        value = _dot(coeffs, point) + const
        if value < 0 or (eq and value):
            return False
    return True


def domain_points(stmt, params: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Integer points of a statement's domain with the parameters fixed."""
    rows = _rows(stmt.domain.system)
    span = max(params, default=0) + 2
    out = [it for it in itertools.product(range(-span, span + 1), repeat=stmt.dim)
           if _holds(rows, it + params)]
    if any(abs(x) == span for p in out for x in p):
        raise ValueError(f"domain of {stmt.id} is not bounded inside the "
                         f"enumeration box at parameters {params}")
    return out


def dependence_points(dep, points):
    """(source instance, target instance) pairs of one dependence, given
    each statement's domain points.  Pairs are joined on the relation's
    equalities, then filtered by its inequalities."""
    params = (PARAM_VALUE,) * len(dep.params)
    ns, nt = len(dep.src_vars), len(dep.dst_vars)
    eqs, ges = [], []
    for coeffs, const, eq in _rows(dep.relation):
        split = (coeffs[:ns], coeffs[ns:ns + nt],
                 _dot(coeffs[ns + nt:], params) + const)
        (eqs if eq else ges).append(split)
    targets: dict[tuple, list] = {}
    for t in points[dep.dst]:
        targets.setdefault(tuple(-_dot(b, t) for _, b, _ in eqs), []).append(t)
    for s in points[dep.src]:
        for t in targets.get(tuple(_dot(a, s) + k for a, _, k in eqs), ()):
            if all(_dot(a, s) + _dot(b, t) + k >= 0 for a, b, k in ges):
                yield s, t


def _time(row, point, params) -> Fraction:
    m = len(point)
    return (sum(c * x for c, x in zip(row[:m], point))
            + sum(c * p for c, p in zip(row[m:m + len(params)], params))
            + row[m + len(params)])


def rank(rows) -> int:
    mat = [list(map(Fraction, r)) for r in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col] / mat[r][col]
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def check(program, deps, transform) -> list[str]:
    """Problems found with `transform`; empty when it is legal and every
    statement keeps full iterator rank."""
    problems = []
    order = {s.id: s.textual_order for s in program.statements}
    for s in program.statements:
        rows = [row[:s.dim] for row in transform.rows[s.id]]
        if s.dim and (not rows or rank(rows) != s.dim):
            problems.append(f"{s.id}: iterator rank below {s.dim}")
    params = (PARAM_VALUE,) * len(program.params)
    points = {s.id: domain_points(s, params) for s in program.statements}
    for dep in deps:
        if not dep.ordering:
            continue
        src_rows = transform.rows[dep.src]
        dst_rows = transform.rows[dep.dst]
        common = min(len(src_rows), len(dst_rows))
        tie_ok = dep.src != dep.dst and order[dep.src] < order[dep.dst]
        for s, t in dependence_points(dep, points):
            before = None
            for level in range(common):
                a = _time(src_rows[level], s, params)
                b = _time(dst_rows[level], t, params)
                if a != b:
                    before = a < b
                    break
            if before is False or (before is None and not tie_ok):
                problems.append(f"{dep.src}{s} -> {dep.dst}{t} "
                                f"({dep.kind} {dep.label}) runs out of order")
                break
    return problems
