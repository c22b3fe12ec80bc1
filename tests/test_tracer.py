"""The package API that the benchmark's traced runs rebind and read.

`perfbench/tracer.py` wraps the functions its `WRAPPED` list names, by
module and name, and reads `LPProblem.system` and `LPProblem.objectives`
from the solvers' arguments.  A rename there would show only in a traced
benchmark run; this test runs one traced pass over fig1 instead.
"""

import json

from polysched import frontend, pluto, postpass, verify
from polysched.pluto import SchedulerConfig

from inputs import ROOT, tracer

FIG1 = ROOT / "src" / "polysched" / "corpus" / "fig1.json"


def test_a_traced_pass_reports_every_layer_metric():
    data = json.loads(FIG1.read_text())["program"]
    trace = tracer.Tracer()
    trace.install()
    try:
        with trace.op("fig1"):
            program, deps = frontend.analyze(data)
            for mode in (pluto.ILP, pluto.LP):
                pluto.schedule(program, deps, SchedulerConfig(mode=mode))
            result = postpass.dfp_schedule(program, deps)
            assert verify.check_legality(program, deps, result.transform).ok
    finally:
        trace.uninstall()
    metrics = tracer.layer_metrics([trace.totals()])
    assert set(metrics) == set(tracer.LAYER_METRICS)
    for layer in ("ratlp.solve_lexmin", "ratlp.solve_ilp", "ratlp.solve_lp",
                  "fcg.fusion_probe"):
        assert metrics[f"{layer}.calls"] > 0, layer
