"""Executable checks for the scheduler's structural guarantees.

Three layers: transform-level validation (legality and row rank), a small
brute-force integer oracle that cross-checks the solvers on a bounded grid,
and a named suite of properties run over the bundled corpus.  Results are
plain data so the command-line driver can render them as text or JSON.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from . import ratlp
from .farkas import EQ, ConstraintSystem, bound_variables
from .fcg import build_fcg, colorable_dimension, fusion_probe
from .frontend import ParseError, analyze, parse_json, read_utf8
from .model import (
    AffineTransform, DependencePolyhedron, Program, SchedulingError,
    components, dependence_difference, dependence_list, scc_decompose, unsatisfied,
)
from .pluto import (
    ILP, LP, ScheduleResult, SchedulerConfig, Step,
    row_rank, schedule,
)
from .postpass import DfpResult, dfp_schedule

ZERO = Fraction(0)


# -- transform validation -----------------------------------------------------


class Violation(NamedTuple):
    dep: str
    level: Optional[int]
    minimum: Optional[Fraction]
    reason: str


class LegalityReport(NamedTuple):
    ok: bool
    checked: int
    violations: tuple[Violation, ...]


def lp_minimum(dep: DependencePolyhedron, src_row, dst_row) -> Optional[Fraction]:
    """Exact minimum of phi_dst - phi_src over the dependence polyhedron by
    one rational LP over the relation, None when unbounded below.

    The legality check's own oracle: it shares neither the Farkas cone the
    scheduler reads its minima from nor the scheduler's memo of them.
    """
    form = dependence_difference(dep, src_row, dst_row)
    if not any(form[:-1]):
        return Fraction(form[-1])
    obj = {v: c for v, c in zip(dep.relation.variables, form) if c}
    res = ratlp.solve_lp(ratlp.LPProblem.of(dep.relation, [obj]))
    if res.status == ratlp.UNBOUNDED:
        return None
    if res.status != ratlp.OPTIMAL:
        raise SchedulingError(f"dependence polyhedron became empty: {dep!r}")
    return res.objective[0] + form[-1]


def check_legality(program: Program, deps: Sequence[DependencePolyhedron],
                   transform: AffineTransform) -> LegalityReport:
    """Exact per-level validation of a complete transform.

    Every ordering dependence must have non-negative components down to the
    level that satisfies it (minimum component >= 1).  A dependence no level
    satisfies whole, with no negative component, is still legal when no
    pair of it is tied on every common level (`_never_tied`): each pair is
    then carried at some level.  Otherwise it is only legal between
    distinct statements whose textual order already runs source before
    target; rows past the shorter statement's depth never execute out of
    order, so only common levels are examined.
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
            m = lp_minimum(dep, transform.row(dep.src, level),
                           transform.row(dep.dst, level))
            if m is not None and m >= 1:
                satisfied = True
                break
            if m is None or m < 0:
                violations.append(Violation(
                    dependence_list([dep]), level, m,
                    "negative component before satisfaction"))
                satisfied = True  # stop scanning; the damage is recorded
                break
        if satisfied or (dep.src != dep.dst and order[dep.src] < order[dep.dst]):
            continue
        if _never_tied(dep, transform, common):
            continue
        violations.append(Violation(
            dependence_list([dep]), None, None,
            "self-dependence never satisfied" if dep.src == dep.dst
            else "never satisfied and target textually precedes source"))
    return LegalityReport(not violations, checked, tuple(violations))


def _never_tied(dep: DependencePolyhedron, transform: AffineTransform,
                common: int) -> bool:
    """Is the dependence relation empty once phi_dst - phi_src is pinned to
    0 at each of the first `common` levels?  One rational lexmin."""
    relation = dep.relation
    forms = [dependence_difference(dep, transform.row(dep.src, k), transform.row(dep.dst, k))
             for k in range(1, common + 1)]
    rows = [relation.row_from(dict(zip(relation.variables, f)), f[-1], EQ) for f in forms]
    return not ratlp.solve_lexmin(ratlp.LPProblem.of(relation.with_rows(rows)))


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


def brute_force_lexmin(system: ConstraintSystem,
                       bound: int = 3) -> Optional[dict[str, Fraction]]:
    """Lexicographically smallest integer point of `system` in [0, bound]^n.

    Variables are scanned in system order, so the first feasible leaf of the
    ascending depth-first search is the lexmin.  Pruning is by interval
    arithmetic per row.  Rows are already canonical integer rows, so the
    search runs in ints over each row's nonzero entries: fixing a variable
    re-checks only the rows it occurs in.
    Returns None when the box contains no feasible point.
    """
    names = system.variables
    n = len(names)
    lows = []
    for v in names:
        lb = system.lower[v]
        lo = 0 if lb is None else max(0, lb)
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

    point = [0] * n

    def open_below(depth: int, rows) -> bool:
        for ri in rows:
            if sums[ri] + maxsuf[ri][depth] < 0:
                return False
            if is_eq[ri] and sums[ri] + minsuf[ri][depth] > 0:
                return False
        return True

    def descend(depth: int) -> bool:
        if depth == n:
            return True
        here = occurs[depth]
        rows = [ri for ri, _ in here]
        for val in range(lows[depth], bound + 1):
            point[depth] = val
            for ri, c in here:
                sums[ri] += c * val
            # A row without this variable keeps its sum and suffix bounds.
            if open_below(depth + 1, rows) and descend(depth + 1):
                return True
            for ri, c in here:
                sums[ri] -= c * val
        return False

    if open_below(0, range(len(sums))) and descend(0):
        return {v: Fraction(x) for v, x in zip(names, point)}
    return None


# -- corpus -------------------------------------------------------------------


_ENVELOPE_KEYS = {"name", "description", "flags", "program"}


class CorpusInstance(NamedTuple):
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
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ParseError(where, "description must be a string")
    try:
        program, deps = analyze(data.get("program", {}))
    except ParseError as exc:
        inner = "program" if exc.where == "$" else f"program.{exc.where}"
        raise ParseError(where, inner + str(exc)[len(exc.where):]) from None
    return CorpusInstance(name, description, dict(flags), program, deps)


def load_corpus(path: Optional[str] = None) -> tuple[CorpusInstance, ...]:
    """Bundled instances, or every *.json file under `path`, of which there
    must be at least one; two files with one instance name are refused."""
    if path is None:
        root = resources.files(__package__).joinpath("corpus")
        entries = [(e.name, read_utf8(e, e.name))
                   for e in root.iterdir() if e.name.endswith(".json")]
    else:
        if not Path(path).is_dir():
            raise ParseError(path, "not a directory")
        entries = [(p.name, read_utf8(p, p.name)) for p in Path(path).glob("*.json")]
        if not entries:
            raise ParseError(path, "no *.json instances")
    out, files = [], {}  # files: instance name -> file
    for fname, text in sorted(entries):
        inst = parse_instance(parse_json(text, fname), fname)
        if inst.name in files:
            raise ParseError("corpus", f"duplicate instance names: {inst.name!r} in "
                                       f"{files[inst.name]} and {fname}")
        files[inst.name] = fname
        out.append(inst)
    return tuple(sorted(out, key=lambda c: c.name))


# -- the property suite -------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass", "fail" or "skip"
    details: tuple[str, ...] = ()


class SuiteReport(NamedTuple):
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


class _Runs(NamedTuple):
    """Everything the checks need about one instance, computed once."""

    instance: CorpusInstance
    lp: ScheduleResult
    ilp: ScheduleResult
    dfp: DfpResult


def _named(inst: CorpusInstance, what: str, fn: Callable, *args):
    """`fn(*args)`; an error names the instance and `what` ran."""
    try:
        return fn(*args)
    except (SchedulingError, ratlp.ResourceLimitError) as exc:
        raise type(exc)(f"{inst.name}: {what}: {exc}") from None


def _run_instance(inst: CorpusInstance) -> _Runs:
    """Every path on the instance; an error names the instance and path."""
    lp, ilp = [_named(inst, mode, schedule, inst.program, inst.deps,
                      SchedulerConfig(mode=mode)) for mode in (LP, ILP)]
    return _Runs(inst, lp, ilp, _named(inst, "dfp", dfp_schedule, inst.program, inst.deps))


def _verdict(name: str, bad: Sequence[str], notes: Sequence[str] = (),
             passed: str = "") -> CheckResult:
    """A check fails exactly when it has a bad line.  Its details are the
    bad lines, then its notes, or, with neither, its one `passed` line."""
    details = (*bad, *notes) or ((passed,) if passed else ())
    return CheckResult(name, "fail" if bad else "pass", details)


def _solves(result: ScheduleResult | DfpResult) -> list[Step]:
    """The steps of the result that solved a system, in solve order."""
    return [s for s in result.steps if s.system is not None]


def _all_records(runs: Sequence[_Runs]) -> list:
    """(system, optimum) of every solve of every run."""
    return [(s.system, s.raw) for r in runs for result in (r.lp, r.ilp, r.dfp)
            for s in _solves(result)]


def _aligned(runs: Sequence[_Runs], bad: list, notes: list, flag: str = "",
             skip: str = "", results: Optional[Callable] = None):
    """(instance, index, relaxed step, integer step) of each pair of solves
    in step, run by run, from `results(run)` (default: its `lp` and `ilp`).
    A run without a named `flag` adds the note "skipped <name>: <skip>"
    instead, and one whose modes solve different systems a bad line."""
    for r in runs:
        if flag and not r.instance.flag(flag):
            notes.append(f"skipped {r.instance.name}: {skip}")
            continue
        lp, ilp = map(_solves, results(r) if results else (r.lp, r.ilp))
        if len(lp) != len(ilp) or any(a.system.variables != b.system.variables
                                      for a, b in zip(lp, ilp)):
            bad.append(f"{r.instance.name}: record streams differ between modes")
            continue
        for li, (a, b) in enumerate(zip(lp, ilp)):
            yield r.instance, li, a, b


def _in_grid(assignment: Mapping[str, Fraction], bound: int) -> bool:
    return all(x.denominator == 1 and 0 <= x <= bound
               for x in assignment.values())


def _scaled(step: Step) -> dict[str, Fraction]:
    """A relaxed step's optimum times its integer factor."""
    return {v: step.factors[0] * x for v, x in step.raw.items()}


_SCALES = (Fraction(2), Fraction(7, 3), Fraction(10))


def _check_exact_arithmetic(runs, bound):
    records = _all_records(runs)
    bad = []
    for i, (system, assignment) in enumerate(records):
        for v, x in assignment.items():
            if not isinstance(x, Fraction):
                bad.append(f"system {i}: {v} is {type(x).__name__}, not a rational")
    return _verdict("exact-arithmetic", bad,
                    passed=f"{len(records)} recorded optima, all exact rationals")


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
    return _verdict("solution-scaling", bad, passed=(
        f"{len(records)} systems x scales {', '.join(str(k) for k in _SCALES)}"))


def _check_relaxation_objective(runs, bound):
    bad, notes = [], []
    for inst, li, lp, ilp in _aligned(
            runs, bad, notes, "ratio_oracle",
            "bounding objectives diverge between relaxations on this nest"):
        for v in bound_variables(inst.program.params):
            x, y = (s.factors[0] * s.raw.get(v, ZERO) for s in (lp, ilp))
            if x != y:
                bad.append(f"{inst.name} level {lp.level}: scaled {v} "
                           f"is {x}, integer mode found {y}")
    return _verdict("relaxation-objective", bad, notes)


def _box_oracle(runs, bound, flag, skip, target):
    """(bad, notes, checked): each aligned solve pair (`_aligned`) whose
    integer optimum lies in the box is checked against the box lexmin of
    the system that `target(lp, ilp)` gives with its expected optimum."""
    bad, notes, checked = [], [], 0
    for inst, li, lp, ilp in _aligned(runs, bad, notes, flag, skip):
        if not _in_grid(ilp.raw, bound):
            notes.append(f"skipped {inst.name}#{li}: integer "
                         "optimum outside the oracle box")
            continue
        system, expect = target(lp, ilp)
        oracle = brute_force_lexmin(system, bound)
        checked += 1
        if oracle is None or any(oracle.get(v, ZERO) != expect.get(v, ZERO)
                                 for v in system.variables):
            bad.append(f"{inst.name}#{li}: the box lexmin differs "
                       f"(relaxed factor {lp.factors[0]})")
    return bad, notes, checked


def _check_integer_ratio(runs, bound):
    bad, notes, checked = _box_oracle(
        runs, bound, "ratio_oracle", "the scaled-ratio law does not hold on this nest",
        lambda lp, ilp: (lp.system, _scaled(lp)))
    return _verdict("integer-ratio", bad,
                    [f"{checked} systems checked against the oracle", *notes])


def _check_oracle_agreement(runs, bound):
    bad, notes, checked = _box_oracle(runs, bound, "", "",
                                      lambda lp, ilp: (ilp.system, ilp.raw))
    return _verdict("oracle-agreement", bad, [f"{checked} systems cross-checked", *notes])


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
    return _verdict("parallel-agreement", bad, passed=(
        f"{sum(len(r.lp.transform.bands) for r in runs)} bands agree on outer parallelism"))


def _check_band_agreement(runs, bound):
    bad = []
    for r in runs:
        a = [(b.start, b.end) for b in r.lp.transform.bands]
        b = [(x.start, x.end) for x in r.ilp.transform.bands]
        if a != b:
            bad.append(f"{r.instance.name}: band spans {a} relaxed vs {b} integer")
    return _verdict("band-agreement", bad,
                    passed="band spans and depths identical across modes")


def _check_restricted_scaling(runs, bound):
    def restricted(r):
        return [_named(r.instance, f"restricted {mode}", schedule, r.instance.program,
                       r.instance.deps, SchedulerConfig(mode=mode, restricted=True))
                for mode in (LP, ILP)]

    bad, notes = [], []
    for inst, li, lp, ilp in _aligned(runs, bad, notes, "restricted",
                                      "needs shifts or skewing", restricted):
        scaled = _scaled(lp)
        if any(scaled.get(v, ZERO) != ilp.raw.get(v, ZERO)
               for v in lp.system.variables):
            bad.append(f"{inst.name}#{li}: scaled relaxed assignment "
                       f"(factor {lp.factors[0]}) differs from the integer one")
    return _verdict("restricted-scaling", bad, notes)


def _check_pipeline_legality(runs, bound):
    bad, checked = [], 0
    for r in runs:
        report = check_legality(r.instance.program, r.instance.deps,
                                r.dfp.transform)
        checked += report.checked
        bad.extend(f"{r.instance.name}: {v.dep} at level {v.level}: {v.reason}"
                   for v in report.violations)
    return _verdict("pipeline-legality", bad, passed=(
        f"{len(runs)} transforms, {checked} ordering dependences validated"))


def _check_pipeline_rank(runs, bound):
    bad = []
    for r in runs:
        for sid, (rank, dim) in sorted(
                statement_ranks(r.instance.program, r.dfp.transform).items()):
            if rank != dim:
                bad.append(f"{r.instance.name}/{sid}: rank {rank} of {dim}")
    return _verdict("pipeline-rank", bad, passed="every statement keeps full iterator rank")


def _check_skew_inert(runs, bound):
    bad, notes = [], []
    for r in runs:
        sk = r.dfp.skew
        refused = not all(b.permutable for b in r.dfp.transform.bands)
        if r.instance.flag("tileable"):
            if sk.skewed or refused:
                bad.append(f"{r.instance.name}: skew pass altered an already "
                           "tileable nest")
        else:
            kept = []  # one band can keep its skews while another is refused
            if sk.skewed:
                kept.append("skewed levels " + ",".join(str(s.level) for s in sk.skewed))
            if refused:
                kept.append("not tileable as permuted")
            notes.append(f"{r.instance.name}: {'; '.join(kept) or 'needs no skew'}")
    return _verdict("skew-inert-when-tileable", bad, notes)


def _check_partition_convexity(runs, bound):
    """No ordering dependence live above a cut of a `dfp` transform runs
    from a later group of the cut into an earlier one."""
    bad = []
    for r in runs:
        transform = r.dfp.transform
        ordering = [d for d in r.instance.deps if d.ordering]
        for cut in transform.cuts:
            place = {sid: k for k, group in enumerate(cut.groups) for sid in group}
            for dep in unsatisfied(ordering, transform, cut.level - 1):
                if place.get(dep.src, -1) > place.get(dep.dst, len(cut.groups)):
                    bad.append(f"{r.instance.name}: the cut at level {cut.level} puts "
                               f"{dep.dst} before its predecessor {dep.src} "
                               f"({dependence_list([dep])})")
    return _verdict("partition-convexity", bad,
                    passed="color classes closed under predecessors")


def _fuses(prog: Program, deps, choose: Mapping[str, int], parametric: bool) -> bool:
    """`fusion_probe` of the statements of `choose`, in textual order, on
    their chosen dimensions, over the dependences among them."""
    pool = [d for d in deps if d.src in choose and d.dst in choose]
    ordered = {s.id: choose[s.id] for s in prog.statements if s.id in choose}
    return fusion_probe(prog, ordered, pool, parametric_shifts=parametric)


def _check_joint_shifts(runs, bound):
    bad = []
    probes = 0
    for r in runs:
        prog, deps = r.instance.program, r.instance.deps
        for comp in components([s.id for s in prog.statements], deps):
            if len(comp) < 2:
                continue
            for dim in range(min(prog.statement(sid).dim for sid in comp)):
                if not all(_fuses(prog, deps, {a: dim, b: dim}, True)
                           for a, b in itertools.combinations(comp, 2)):
                    continue
                probes += 1
                if not _fuses(prog, deps, dict.fromkeys(comp, dim), True):
                    bad.append(f"{r.instance.name}: dimension {dim} fuses "
                               "pairwise under shifts but not jointly")
    return _verdict("joint-shifts", bad,
                    passed=f"{probes} joint probes follow from pairwise ones")


def _check_scc_colorability(runs, bound):
    bad = []
    count = 0
    for r in runs:
        prog, deps = r.instance.program, r.instance.deps
        for comp in scc_decompose([s.id for s in prog.statements], deps):
            sub = build_fcg(prog, [d for d in deps if d.src in comp and d.dst in comp])
            count += 1
            if _named(r.instance, "scc-colorability", colorable_dimension,
                      prog, sub, comp, (), ()) is None:
                bad.append(f"{r.instance.name}: component {{{','.join(comp)}}} "
                           "has no colorable dimension")
    return _verdict("scc-colorability", bad, passed=(
        f"{count} isolated components each keep a colorable dimension"))


def _check_fusion_transitivity(runs, bound):
    bad = []
    tried = 0
    for r in runs:
        prog, deps = r.instance.program, r.instance.deps
        linked = set()
        for d in deps:
            if d.src != d.dst:
                linked.add((d.src, d.dst))
                linked.add((d.dst, d.src))
        ids = sorted(s.id for s in prog.statements)
        for a, b, c in itertools.permutations(ids, 3):
            if a > c or (a, b) not in linked or (b, c) not in linked:
                continue
            for parametric in (False, True):
                for da, db, dc in itertools.product(
                        *[range(prog.statement(x).dim) for x in (a, b, c)]):
                    if (_fuses(prog, deps, {a: da, b: db}, parametric)
                            and _fuses(prog, deps, {b: db, c: dc}, parametric)):
                        tried += 1
                        if not _fuses(prog, deps, {a: da, b: db, c: dc}, parametric):
                            bad.append(
                                f"{r.instance.name}: {a}.{da}+{b}.{db} and "
                                f"{b}.{db}+{c}.{dc} fuse but the triple "
                                f"does not (parametric={parametric})")
    return _verdict("fusion-transitivity", bad,
                    passed=f"{tried} fusable chains extend to triples")


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
