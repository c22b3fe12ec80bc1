"""End-to-end acceptance gates.

One test per gate, in a fixed order, each printing a single PASS/FAIL line
so a run with output enabled reads as a checklist.  The corpus-wide property
suite is shared through the session fixture; the timing gates measure
fresh runs.
"""

import re
import time
from fractions import Fraction

from polysched.fcg import build_fcg
from polysched.frontend import analyze
from polysched.pluto import SchedulerConfig, schedule
from polysched.postpass import dfp_schedule
from polysched.verify import load_corpus

from inputs import bench_chain

F = Fraction


def R(*xs):
    return tuple(F(x) for x in xs)


IDENTITY = (R(1, 0, 0, 0), R(0, 1, 0, 0))
INTERCHANGE = (R(0, 1, 0, 0), R(1, 0, 0, 0))

def gate(name, failures, note=""):
    ok = not failures
    tail = f"  ({note})" if note else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"{name}: " + "; ".join(failures)


def check(report, name):
    return next(r for r in report.results if r.name == name)


def require_pass(report, names):
    bad = []
    for name in names:
        res = check(report, name)
        if res.status != "pass":
            bad.append(f"{name}: " + "; ".join(res.details))
    return bad


def test_golden_figure_schedule():
    # Freshly analyzed, so the timing includes building the Farkas rows.
    inst = next(i for i in load_corpus() if i.name == "fig1")
    t0 = time.perf_counter()
    result = dfp_schedule(inst.program, inst.deps)
    elapsed = time.perf_counter() - t0
    bad = []
    rows = result.transform.rows
    if rows["S1"] != IDENTITY or rows["S3"] != IDENTITY:
        bad.append("S1/S3 are not scheduled by the identity")
    if rows["S2"] != INTERCHANGE:
        bad.append("S2 loops are not interchanged")
    vertices = result.coloring.fcg.vertices
    if len(vertices) != 6:
        bad.append(f"{len(vertices)} conflict-graph vertices, expected 6")
    if len(set(result.coloring.colors.values())) != 2:
        bad.append("expected exactly two permutation classes")
    if result.transform.cuts != ():
        bad.append("fusion was cut")
    if elapsed >= 1.0:
        bad.append(f"pipeline took {elapsed:.2f}s, expected under a second")
    gate("golden-figure-schedule", bad, f"{elapsed * 1000:.0f}ms")


def test_conflict_graph_edges(by_name):
    inst = by_name["fig1"]
    fcg = build_fcg(inst.program, inst.deps)
    bad = []
    # Two edges per linked pair: S1->S2 and S2->S3 read A transposed, and
    # S1->S3 is a same-cell RAW on A, so S1.i-S3.j and S1.j-S3.i conflict.
    if len(fcg.conflicts) != 6:
        bad.append(f"{len(fcg.conflicts)} conflict edges, expected 6")
    if len(fcg.cliques) != 3:
        bad.append(f"{len(fcg.cliques)} clique edges, expected 3")
    if any(u == v for u, v in fcg.conflicts + fcg.cliques):
        bad.append("self-loop present")
    gate("conflict-graph-edges", bad)


def test_scaling_closure(suite_report):
    res = check(suite_report, "solution-scaling")
    bad = require_pass(suite_report, ["solution-scaling"])
    m = re.match(r"(\d+) systems", res.details[0]) if res.details else None
    count = int(m.group(1)) if m else 0
    if count < 50:
        bad.append(f"only {count} recorded relaxed systems, expected 50")
    gate("scaling-closure", bad, f"{count} systems x 3 scales")


def test_parallel_agreement(suite_report):
    res = check(suite_report, "parallel-agreement")
    gate("parallel-agreement", require_pass(suite_report, ["parallel-agreement"]),
         res.details[0] if res.details else "")


def test_band_depth_agreement(suite_report):
    gate("band-depth-agreement", require_pass(suite_report, ["band-agreement"]))


def test_integer_oracle_ratio(suite_report):
    bad = require_pass(suite_report, ["integer-ratio", "oracle-agreement"])
    ratio = check(suite_report, "integer-ratio")
    oracle = check(suite_report, "oracle-agreement")
    skips = [d for d in ratio.details + oracle.details
             if d.startswith("skipped")]
    if not skips:
        bad.append("expected out-of-scope instances to be reported as skipped")
    gate("integer-oracle-ratio", bad, f"{len(skips)} skips reported")


def test_restricted_uniform_scaling(suite_report):
    gate("restricted-uniform-scaling",
         require_pass(suite_report, ["restricted-scaling"]))


def test_end_to_end_legality(suite_report):
    gate("end-to-end-legality",
         require_pass(suite_report, ["pipeline-legality", "pipeline-rank",
                                     "skew-inert-when-tileable"]))


def test_structural_feasibility(suite_report):
    gate("structural-feasibility",
         require_pass(suite_report, ["partition-convexity", "joint-shifts",
                                     "scc-colorability", "fusion-transitivity"]))


def _cpu_time(run, n=30):
    """CPU seconds of one run on chain-n, and its result.  Every run
    gets its own analysis: Farkas rows are kept on the dependences, and a
    shared analysis would hand a later run an earlier one's rows."""
    program, deps = analyze(bench_chain.chain(n))
    t0 = time.process_time()
    result = run(program, deps)
    return time.process_time() - t0, result


def test_scalability_smoke():
    # Three alternating runs per path, judged on their medians: one run of
    # each, about 0.1 s against 0.2 s, can flip on a stall of the machine.
    runs = {"dfp": [], "ilp": []}
    for _ in range(3):
        runs["dfp"].append(_cpu_time(dfp_schedule))
        runs["ilp"].append(_cpu_time(lambda program, deps: schedule(
            program, deps, SchedulerConfig(mode="ilp"))))
    t_dfp, t_ilp = (sorted(t for t, _ in runs[path])[1] for path in ("dfp", "ilp"))
    slowest = max(t for t, _ in runs["dfp"])
    bad = []
    if any(len(result.transform.rows) != 30 for _, result in runs["dfp"]):
        bad.append("chain was not scheduled in full")
    if slowest >= 10.0:
        bad.append(f"pipeline took {slowest:.1f}s, expected under 10s")
    if t_dfp >= t_ilp:
        bad.append(f"pipeline ({t_dfp:.2f}s) is not faster than the "
                   f"integer scheduler ({t_ilp:.2f}s)")
    gate("scalability-smoke", bad,
         f"median CPU dfp {t_dfp:.2f}s vs ilp {t_ilp:.2f}s")


def test_chain_100_dfp_at_most_half_of_ilp():
    # The paper's claim at scale: on chain-100, the median CPU time of
    # three alternating runs of `dfp` is at most half that of `ilp`.
    runs = {"dfp": [], "ilp": []}
    for _ in range(3):
        runs["dfp"].append(_cpu_time(dfp_schedule, 100)[0])
        runs["ilp"].append(_cpu_time(lambda program, deps: schedule(
            program, deps, SchedulerConfig(mode="ilp")), 100)[0])
    t_dfp, t_ilp = (sorted(runs[path])[1] for path in ("dfp", "ilp"))
    bad = []
    if t_dfp > t_ilp / 2:
        bad.append(f"pipeline ({t_dfp:.3f}s) takes more than half the "
                   f"integer scheduler's time ({t_ilp:.3f}s)")
    gate("chain-100-scaling", bad,
         f"median CPU dfp {t_dfp:.3f}s vs ilp {t_ilp:.3f}s")
