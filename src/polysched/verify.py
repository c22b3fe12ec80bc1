"""Executable checks for the scheduler's structural guarantees.

Three layers: transform-level validation (legality and row rank), a small
brute-force integer oracle that cross-checks the solvers on a bounded grid,
and a named suite of properties run over the bundled corpus.  Results are
plain data so the command-line driver can render them as text or JSON.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

from .farkas import EQ, ConstraintSystem
from .fcg import build_fcg, colorable_dimension, fusion_probe
from .frontend import ParseError, analyze, parse_json
from .model import (
    AffineTransform, DependencePolyhedron, Program,
    component_range, components, scc_decompose,
)
from .pluto import (
    ILP, LP, ScheduleResult, SchedulerConfig, Step,
    bound_variables, row_rank, schedule,
)
from .postpass import DfpResult, dfp_schedule

ZERO = Fraction(0)


# -- transform validation -----------------------------------------------------


@dataclass(frozen=True)
class Violation:
    dep: str
    level: Optional[int]
    minimum: Optional[Fraction]
    reason: str


@dataclass(frozen=True)
class LegalityReport:
    ok: bool
    checked: int
    violations: tuple[Violation, ...]


def _dep_name(dep: DependencePolyhedron) -> str:
    return f"{dep.src}->{dep.dst}:{dep.label}"


def check_legality(program: Program, deps: Sequence[DependencePolyhedron],
                   transform: AffineTransform) -> LegalityReport:
    """Exact per-level validation of a complete transform.

    Every ordering dependence must have non-negative components down to the
    level that satisfies it (minimum component >= 1).  A dependence no level
    satisfies is only legal between distinct statements whose textual order
    already runs source before target; rows past the shorter statement's
    depth never execute out of order, so only common levels are examined.
    """
    order = {s.id: s.textual_order for s in program.statements}
    violations = []
    checked = 0
    for dep in deps:
        if not dep.ordering:
            continue
        checked += 1
        common = min(len(transform.rows[dep.src]), len(transform.rows[dep.dst]))
        satisfied = False
        for level in range(1, common + 1):
            m = component_range(dep, transform, level)
            if m is not None and m >= 1:
                satisfied = True
                break
            if m is None or m < 0:
                violations.append(Violation(
                    _dep_name(dep), level, m,
                    "negative component before satisfaction"))
                satisfied = True  # stop scanning; the damage is recorded
                break
        if satisfied:
            continue
        if dep.src == dep.dst:
            violations.append(Violation(
                _dep_name(dep), None, None, "self-dependence never satisfied"))
        elif order[dep.src] >= order[dep.dst]:
            violations.append(Violation(
                _dep_name(dep), None, None,
                "never satisfied and target textually precedes source"))
    return LegalityReport(not violations, checked, tuple(violations))


def statement_ranks(program: Program,
                    transform: AffineTransform) -> dict[str, tuple[int, int]]:
    """Rank of each statement's iterator coefficients against its depth."""
    out = {}
    for s in program.statements:
        rows = [r[:s.dim] for r in transform.rows[s.id]]
        out[s.id] = (row_rank(rows), s.dim)
    return out


def full_rank(program: Program, transform: AffineTransform) -> bool:
    return all(r == d for r, d in statement_ranks(program, transform).values())


# -- brute-force integer oracle -----------------------------------------------


def brute_force_lexmin(system: ConstraintSystem, bound: int = 3,
                       incumbent: Optional[Mapping[str, Fraction]] = None,
                       ) -> Optional[dict[str, Fraction]]:
    """Lexicographically smallest integer point of `system` in [0, bound]^n.

    Variables are scanned in system order, so the first feasible leaf of the
    ascending depth-first search is the lexmin.  Pruning is by interval
    arithmetic per row; a known-feasible `incumbent` additionally caps the
    search at assignments that could still be lexicographically smaller.
    Rows are already canonical integer rows, so the search runs in ints over
    each row's nonzero entries: fixing a variable re-checks only the rows it
    occurs in.
    Returns None when the box contains no feasible point.
    """
    names = system.variables
    n = len(names)
    lows = []
    for v in names:
        lb = system.lower[v]
        lo = 0 if lb is None else max(0, math.ceil(lb))
        if lo > bound:
            return None
        lows.append(lo)

    # Per row: the extreme suffix contributions, indexed by depth; per
    # variable: the (row, coefficient) pairs it occurs in.
    sums, is_eq, minsuf, maxsuf = [], [], [], []
    occurs: list[list[tuple[int, int]]] = [[] for _ in names]
    for ri, row in enumerate(system.rows):
        sums.append(row.const)
        is_eq.append(row.kind == EQ)
        lo_at, hi_at = [0] * (n + 1), [0] * (n + 1)
        for d, c in row.nonzero:
            occurs[d].append((ri, c))
            lo_at[d], hi_at[d] = ((c * lows[d], c * bound) if c >= 0
                                  else (c * bound, c * lows[d]))
        for d in range(n - 1, -1, -1):
            lo_at[d] += lo_at[d + 1]
            hi_at[d] += hi_at[d + 1]
        minsuf.append(lo_at)
        maxsuf.append(hi_at)

    inc = None
    if incumbent is not None:
        cand = [incumbent.get(v, ZERO) for v in names]
        if all(x.denominator == 1 and lows[i] <= x <= bound
               for i, x in enumerate(cand)):
            inc = [int(x) for x in cand]

    point = [0] * n

    def open_below(depth: int, rows) -> bool:
        for ri in rows:
            if sums[ri] + maxsuf[ri][depth] < 0:
                return False
            if is_eq[ri] and sums[ri] + minsuf[ri][depth] > 0:
                return False
        return True

    def descend(depth: int, tight: bool) -> bool:
        if depth == n:
            return True
        top = inc[depth] if tight else bound
        here = occurs[depth]
        rows = [ri for ri, _ in here]
        for val in range(lows[depth], top + 1):
            point[depth] = val
            for ri, c in here:
                sums[ri] += c * val
            # A row without this variable keeps its sum and suffix bounds.
            if open_below(depth + 1, rows) and descend(
                    depth + 1, tight and val == inc[depth]):
                return True
            for ri, c in here:
                sums[ri] -= c * val
        return False

    if open_below(0, range(len(sums))) and descend(0, inc is not None):
        return {v: Fraction(x) for v, x in zip(names, point)}
    return None


# -- corpus -------------------------------------------------------------------


_ENVELOPE_KEYS = {"name", "description", "flags", "program"}


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    description: str
    flags: Mapping[str, bool]
    program: Program
    deps: tuple[DependencePolyhedron, ...]

    def flag(self, key: str) -> bool:
        return bool(self.flags.get(key))


def parse_instance(data, where: str = "instance") -> CorpusInstance:
    """One corpus entry: a program wrapped with a name and property flags."""
    if not isinstance(data, Mapping):
        raise ParseError(where, "expected an object")
    unknown = set(data) - _ENVELOPE_KEYS
    if unknown:
        raise ParseError(where, f"unknown keys {sorted(unknown)}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError(where, "missing instance name")
    flags = data.get("flags", {})
    if (not isinstance(flags, Mapping)
            or not all(isinstance(v, bool) for v in flags.values())):
        raise ParseError(where, "flags must map names to booleans")
    try:
        program, deps = analyze(data.get("program", {}))
    except ParseError as exc:
        inner = "program" if exc.where == "$" else f"program.{exc.where}"
        raise ParseError(where, inner + str(exc)[len(exc.where):]) from None
    return CorpusInstance(name, str(data.get("description", "")),
                          dict(flags), program, deps)


def load_corpus(path: Optional[str] = None) -> tuple[CorpusInstance, ...]:
    """Bundled instances, or every *.json file under `path`."""
    if path is None:
        root = resources.files(__package__).joinpath("corpus")
        entries = [(e.name, e.read_text())
                   for e in root.iterdir() if e.name.endswith(".json")]
    else:
        if not Path(path).is_dir():
            raise ParseError(path, "not a directory")
        entries = [(p.name, p.read_text()) for p in Path(path).glob("*.json")]
    out = []
    for fname, text in sorted(entries):
        out.append(parse_instance(parse_json(text, fname), fname))
    out.sort(key=lambda c: c.name)
    if len({c.name for c in out}) != len(out):
        raise ParseError("corpus", "duplicate instance names")
    return tuple(out)


# -- the property suite -------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass", "fail" or "skip"
    details: tuple[str, ...] = ()


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[CheckResult, ...]
    instances: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def to_json(self) -> dict:
        return {
            "instances": list(self.instances),
            "ok": self.ok,
            "checks": [{"name": r.name, "status": r.status,
                        "details": list(r.details)} for r in self.results],
        }

    def summary(self) -> str:
        lines = [f"corpus: {', '.join(self.instances)}"]
        for r in self.results:
            lines.append(f"{r.status.upper():<4} {r.name}")
            lines.extend(f"     {d}" for d in r.details)
        lines.append("all checks passed" if self.ok else "failures present")
        return "\n".join(lines)


@dataclass(frozen=True)
class _Runs:
    """Everything the checks need about one instance, computed once."""

    instance: CorpusInstance
    lp: ScheduleResult
    ilp: ScheduleResult
    dfp: DfpResult


def _run_instance(inst: CorpusInstance) -> _Runs:
    return _Runs(inst,
                 schedule(inst.program, inst.deps, SchedulerConfig(mode=LP)),
                 schedule(inst.program, inst.deps, SchedulerConfig(mode=ILP)),
                 dfp_schedule(inst.program, inst.deps))


def _solves(result: ScheduleResult | DfpResult) -> list[Step]:
    """The steps of the result that solved a system, in solve order."""
    return [s for s in result.steps if s.system is not None]


def _all_records(runs: Sequence[_Runs]) -> list:
    """(system, optimum) of every solve of every run."""
    return [(s.system, s.raw) for r in runs for result in (r.lp, r.ilp, r.dfp)
            for s in _solves(result)]


def _in_grid(assignment: Mapping[str, Fraction], bound: int) -> bool:
    return all(x.denominator == 1 and 0 <= x <= bound
               for x in assignment.values())


def _scaled(step: Step) -> dict[str, Fraction]:
    """A relaxed step's optimum times its integer factor."""
    return {v: step.factors[0] * x for v, x in step.raw.items()}


def _step_pairs(lp: ScheduleResult, ilp: ScheduleResult):
    """Zip the relaxed and integer solve steps, or None on divergence."""
    lp_steps, ilp_steps = _solves(lp), _solves(ilp)
    if len(lp_steps) != len(ilp_steps) or any(
            a.system.variables != b.system.variables
            for a, b in zip(lp_steps, ilp_steps)):
        return None
    return list(zip(lp_steps, ilp_steps))


def _loop_steps(result: ScheduleResult):
    return {(s.component, s.level): s for s in result.steps if s.kind == "loop"}


_SCALES = (Fraction(2), Fraction(7, 3), Fraction(10))


def _check_exact_arithmetic(runs, bound):
    records = _all_records(runs)
    bad = []
    for i, (system, assignment) in enumerate(records):
        for v, x in assignment.items():
            if not isinstance(x, Fraction):
                bad.append(f"system {i}: {v} is {type(x).__name__}, not a rational")
    details = tuple(bad) or (f"{len(records)} recorded optima, all exact rationals",)
    return CheckResult("exact-arithmetic", "fail" if bad else "pass", details)


def _check_solution_scaling(runs, bound):
    records = _all_records(runs)
    bad = []
    for i, (system, assignment) in enumerate(records):
        for k in _SCALES:
            scaled = {v: k * x for v, x in assignment.items()}
            if not system.satisfied_by(scaled):
                bad.append(f"system {i}: optimum scaled by {k} leaves the system")
    if len(records) < 50:
        bad.append(f"only {len(records)} recorded systems, expected at least 50")
    details = tuple(bad) or (
        f"{len(records)} systems x scales {', '.join(str(k) for k in _SCALES)}",)
    return CheckResult("solution-scaling", "fail" if bad else "pass", details)


def _check_relaxation_objective(runs, bound):
    bad, details = [], []
    for r in runs:
        if not r.instance.flag("ratio_oracle"):
            details.append(f"skipped {r.instance.name}: bounding objectives "
                           "diverge between relaxations on this nest")
            continue
        lp_steps, ilp_steps = _loop_steps(r.lp), _loop_steps(r.ilp)
        if lp_steps.keys() != ilp_steps.keys():
            bad.append(f"{r.instance.name}: loop structure differs between modes")
            continue
        bvars = bound_variables(r.instance.program)
        for key in sorted(lp_steps):
            a, b = lp_steps[key], ilp_steps[key]
            for v in bvars:
                x, y = (s.factors[0] * s.raw.get(v, ZERO) for s in (a, b))
                if x != y:
                    bad.append(f"{r.instance.name} level {key[1]}: scaled {v} "
                               f"is {x}, integer mode found {y}")
    status = "fail" if bad else "pass"
    return CheckResult("relaxation-objective", status, tuple(bad + details))


def _box_oracle(name, runs, bound, unflagged, target, mismatch, head):
    """Compare each aligned (relaxed, integer) solve pair with the box lexmin
    of the system `target(lp, ilp)` gives; `unflagged` is the reason to skip
    runs without the `ratio_oracle` flag, or None to check every run."""
    bad, details = [], []
    checked = 0
    for r in runs:
        if unflagged and not r.instance.flag("ratio_oracle"):
            details.append(f"skipped {r.instance.name}: {unflagged}")
            continue
        pairs = _step_pairs(r.lp, r.ilp)
        if pairs is None:
            bad.append(f"{r.instance.name}: record streams differ between modes")
            continue
        for li, (lp, ilp) in enumerate(pairs):
            if not _in_grid(ilp.raw, bound):
                details.append(f"skipped {r.instance.name}#{li}: integer "
                               "optimum outside the oracle box")
                continue
            system, expect = target(lp, ilp)
            oracle = brute_force_lexmin(system, bound, incumbent=ilp.raw)
            checked += 1
            if oracle is None or any(oracle.get(v, ZERO) != expect.get(v, ZERO)
                                     for v in system.variables):
                bad.append(f"{r.instance.name}#{li}: "
                           + mismatch.format(factor=lp.factors[0]))
    return CheckResult(name, "fail" if bad else "pass",
                       tuple(bad + [head.format(checked)] + details))


def _check_integer_ratio(runs, bound):
    return _box_oracle(
        "integer-ratio", runs, bound,
        "the scaled-ratio law does not hold on this nest",
        lambda lp, ilp: (lp.system, _scaled(lp)),
        "scaled relaxed optimum (factor {factor}) differs from the box lexmin",
        "{} systems checked against the oracle")


def _check_oracle_agreement(runs, bound):
    return _box_oracle(
        "oracle-agreement", runs, bound, None,
        lambda lp, ilp: (ilp.system, ilp.raw),
        "integer solver and box lexmin disagree",
        "{} systems cross-checked")


def _check_parallel_agreement(runs, bound):
    bad = []
    for r in runs:
        a, b = r.lp.transform.bands, r.ilp.transform.bands
        if len(a) != len(b):
            bad.append(f"{r.instance.name}: {len(a)} bands relaxed, {len(b)} integer")
            continue
        for ba, bb in zip(a, b):
            if ba.parallel != bb.parallel:
                bad.append(f"{r.instance.name}: band at level {ba.start} "
                           f"parallel={ba.parallel} relaxed, {bb.parallel} integer")
    details = tuple(bad) or (f"{sum(len(r.lp.transform.bands) for r in runs)} "
                             "bands agree on outer parallelism",)
    return CheckResult("parallel-agreement", "fail" if bad else "pass", details)


def _check_band_agreement(runs, bound):
    bad = []
    for r in runs:
        a = [(b.start, b.end) for b in r.lp.transform.bands]
        b = [(x.start, x.end) for x in r.ilp.transform.bands]
        if a != b:
            bad.append(f"{r.instance.name}: band spans {a} relaxed vs {b} integer")
    details = tuple(bad) or ("band spans and depths identical across modes",)
    return CheckResult("band-agreement", "fail" if bad else "pass", details)


def _check_restricted_scaling(runs, bound):
    bad, details = [], []
    for r in runs:
        if not r.instance.flag("restricted"):
            details.append(f"skipped {r.instance.name}: needs shifts or skewing")
            continue
        prog, deps = r.instance.program, r.instance.deps
        pairs = _step_pairs(
            schedule(prog, deps, SchedulerConfig(mode=LP, restricted=True)),
            schedule(prog, deps, SchedulerConfig(mode=ILP, restricted=True)))
        if pairs is None:
            bad.append(f"{r.instance.name}: record streams differ between modes")
            continue
        for li, (lp, ilp) in enumerate(pairs):
            scaled = _scaled(lp)
            if any(scaled.get(v, ZERO) != ilp.raw.get(v, ZERO)
                   for v in lp.system.variables):
                bad.append(f"{r.instance.name}#{li}: scaled relaxed assignment "
                           f"(factor {lp.factors[0]}) differs from the integer one")
    return CheckResult("restricted-scaling", "fail" if bad else "pass",
                       tuple(bad + details))


def _check_pipeline_legality(runs, bound):
    bad = []
    checked = 0
    for r in runs:
        report = check_legality(r.instance.program, r.instance.deps,
                                r.dfp.transform)
        checked += report.checked
        bad.extend(f"{r.instance.name}: {v.dep} at level {v.level}: {v.reason}"
                   for v in report.violations)
    details = tuple(bad) or (
        f"{len(runs)} transforms, {checked} ordering dependences validated",)
    return CheckResult("pipeline-legality", "fail" if bad else "pass", details)


def _check_pipeline_rank(runs, bound):
    bad = []
    for r in runs:
        for sid, (rank, dim) in sorted(
                statement_ranks(r.instance.program, r.dfp.transform).items()):
            if rank != dim:
                bad.append(f"{r.instance.name}/{sid}: rank {rank} of {dim}")
    details = tuple(bad) or ("every statement keeps full iterator rank",)
    return CheckResult("pipeline-rank", "fail" if bad else "pass", details)


def _check_skew_inert(runs, bound):
    bad, details = [], []
    for r in runs:
        sk = r.dfp.skew
        if r.instance.flag("tileable"):
            if sk.transform is not r.dfp.scaled or sk.skewed or sk.diagnostics:
                bad.append(f"{r.instance.name}: skew pass altered an already "
                           "tileable nest")
        elif sk.skewed:
            levels = ",".join(str(s.level) for s in sk.skewed)
            details.append(f"{r.instance.name}: skewed levels {levels}")
        else:
            details.append(f"{r.instance.name}: not tileable as permuted")
    return CheckResult("skew-inert-when-tileable", "fail" if bad else "pass",
                       tuple(bad + details))


def _check_partition_convexity(runs, bound):
    bad = []
    for r in runs:
        colors = r.dfp.coloring.colors
        dims = {s.id: s.dim for s in r.instance.program.statements}
        for dep in r.instance.deps:
            if dep.src == dep.dst:
                continue
            for c in range(1, len(colors[dep.dst]) + 1):
                have = len(colors[dep.src])
                if have < c and have < dims[dep.src]:
                    bad.append(f"{r.instance.name}: {dep.src} misses color {c} "
                               f"though its successor {dep.dst} holds it")
    details = tuple(bad) or ("color classes closed under predecessors",)
    return CheckResult("partition-convexity", "fail" if bad else "pass", details)


def _check_joint_shifts(runs, bound):
    bad = []
    probes = 0
    for r in runs:
        prog, deps = r.instance.program, r.instance.deps
        by_id = {s.id: s for s in prog.statements}
        for comp in components([s.id for s in prog.statements], deps):
            if len(comp) < 2:
                continue
            stmts = [by_id[sid] for sid in comp]
            pool = [d for d in deps if d.src in comp and d.dst in comp]
            for dim in range(min(s.dim for s in stmts)):
                pairwise = all(
                    fusion_probe(prog, (a, b), {a.id: dim, b.id: dim},
                                 [d for d in pool
                                  if {d.src, d.dst} <= {a.id, b.id}],
                                 parametric_shifts=True)
                    for a, b in itertools.combinations(stmts, 2))
                if not pairwise:
                    continue
                probes += 1
                joint = fusion_probe(prog, stmts, {s.id: dim for s in stmts},
                                     pool, parametric_shifts=True)
                if not joint:
                    bad.append(f"{r.instance.name}: dimension {dim} fuses "
                               "pairwise under shifts but not jointly")
    details = tuple(bad) or (f"{probes} joint probes follow from pairwise ones",)
    return CheckResult("joint-shifts", "fail" if bad else "pass", details)


def _check_scc_colorability(runs, bound):
    bad = []
    count = 0
    for r in runs:
        prog, deps = r.instance.program, r.instance.deps
        by_id = {s.id: s for s in prog.statements}
        for comp in scc_decompose([s.id for s in prog.statements], deps):
            stmts = [by_id[sid] for sid in comp]
            sub = build_fcg(prog, deps, statements=comp)
            count += 1
            if colorable_dimension(prog, sub, stmts) is None:
                bad.append(f"{r.instance.name}: component {{{','.join(comp)}}} "
                           "has no colorable dimension")
    details = tuple(bad) or (f"{count} isolated components each keep a "
                             "colorable dimension",)
    return CheckResult("scc-colorability", "fail" if bad else "pass", details)


def _check_fusion_transitivity(runs, bound):
    bad = []
    tried = 0
    for r in runs:
        prog, deps = r.instance.program, r.instance.deps
        by_id = {s.id: s for s in prog.statements}
        linked = set()
        for d in deps:
            if d.src != d.dst:
                linked.add((d.src, d.dst))
                linked.add((d.dst, d.src))

        def probe(choose: dict[str, int], parametric: bool) -> bool:
            pool = [d for d in deps if d.src in choose and d.dst in choose]
            return fusion_probe(prog, [by_id[s] for s in sorted(choose)],
                                choose, pool, parametric_shifts=parametric)

        ids = sorted(by_id)
        for a, b, c in itertools.permutations(ids, 3):
            if a > c or (a, b) not in linked or (b, c) not in linked:
                continue
            for parametric in (False, True):
                for da, db, dc in itertools.product(
                        range(by_id[a].dim), range(by_id[b].dim),
                        range(by_id[c].dim)):
                    if (probe({a: da, b: db}, parametric)
                            and probe({b: db, c: dc}, parametric)):
                        tried += 1
                        if not probe({a: da, b: db, c: dc}, parametric):
                            bad.append(
                                f"{r.instance.name}: {a}.{da}+{b}.{db} and "
                                f"{b}.{db}+{c}.{dc} fuse but the triple "
                                f"does not (parametric={parametric})")
    details = tuple(bad) or (f"{tried} fusable chains extend to triples",)
    return CheckResult("fusion-transitivity", "fail" if bad else "pass", details)


_CHECKS: tuple[Callable, ...] = (
    _check_exact_arithmetic,
    _check_solution_scaling,
    _check_relaxation_objective,
    _check_integer_ratio,
    _check_oracle_agreement,
    _check_parallel_agreement,
    _check_band_agreement,
    _check_restricted_scaling,
    _check_pipeline_legality,
    _check_pipeline_rank,
    _check_skew_inert,
    _check_partition_convexity,
    _check_joint_shifts,
    _check_scc_colorability,
    _check_fusion_transitivity,
)


def theorem_suite(corpus: Optional[Sequence[CorpusInstance]] = None,
                  bound: int = 3,
                  progress: Optional[Callable[[str], None]] = None) -> SuiteReport:
    """Run every property check over `corpus` (default: the bundled one)."""
    instances = load_corpus() if corpus is None else tuple(corpus)
    runs = []
    for inst in instances:
        if progress:
            progress(f"scheduling {inst.name}")
        runs.append(_run_instance(inst))
    results = []
    for fn in _CHECKS:
        res = fn(runs, bound)
        if progress:
            progress(f"{res.status} {res.name}")
        results.append(res)
    return SuiteReport(tuple(results), tuple(i.name for i in instances))
