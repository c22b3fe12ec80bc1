"""Digest of everything a polysched source tree computes on fixed programs.

    python scripts/digest.py [SRC]

SRC is a `src/` directory holding a `polysched` package (default: this
checkout's).  Each program is analysed, then scheduled on `ilp`, `lp` and
`dfp`, each path on a fresh analysis as the benchmark runs it.  The digest
covers every dependence (endpoints, kind, label, relation rows and lower
bounds), every transform's JSON, every `Step` (level, kind, parallel,
factors, component, system variables, rows and lower bounds, raw optimum,
rows), every `dfp` coloring (`colors`, `cut_groups`) and the message of
every error a path raises.

The programs are fixed: the benchmark's workloads (`perfbench/workloads.py`,
read only), every file under `tests/fixtures/`, 500 `random_nest` nests,
100 from each of `random.Random(1)` to `random.Random(5)`, and the `chain`,
`fan-in` and `shifted` pipelines of `scripts/bench_chain.py` at n = 50,
whose simplex solves take the most pivots.  The script prints
one sha256 prefix per family and one over all of them, so a change that
claims byte-identical output runs it on the parent's tree and on its own
and compares the two.  `tests/test_golden.py` pins each program's
`record`, one sha256 prefix per key, in `tests/golden_records.json`, next
to one prefix of its dependences' Farkas systems (`farkas`, which `record`
leaves out), and names the programs whose entry changed.

The other scripts load `perfbench/workloads.py` from here (`workloads`),
and draw `random_nest` nests with `random_nests`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
PATHS = ("ilp", "lp", "dfp")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The benchmark's program sets, read only.
workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def random_nests(seeds) -> list[tuple[str, dict]]:
    """(name, program JSON) of 100 `random_nest` nests from each
    `random.Random(seed)` of `seeds`, named by the seed and the index in
    its draw."""
    return [(f"seed{seed}/nest{k}", workloads.random_nest(rng))
            for seed in seeds for rng in [random.Random(seed)] for k in range(100)]


def families(src: Path) -> dict[str, list[tuple[str, dict]]]:
    """(name, program JSON) pairs of each family, in a fixed order."""
    # Imports `polysched`, so `layers(src)` must have put `src` first.
    bench_chain = _load("bench_chain", ROOT / "scripts" / "bench_chain.py")
    out = {w: workloads.programs(w, src) for w in workloads.WORKLOADS}
    out["fixtures"] = [(p.stem, json.loads(p.read_text()))
                       for p in sorted((ROOT / "tests" / "fixtures").glob("*.json"))]
    out["random_nest"] = random_nests(range(1, 6))
    for family, build in bench_chain.FAMILIES.items():
        out[f"{family}-50"] = [(f"{family}(50)", build(50))]
    return out


def _system(system) -> list:
    return [list(system.variables), list(system.lower.values()),
            [[list(r.nonzero), r.const, r.kind] for r in system.rows]]


def _steps(steps) -> list:
    return [[s.level, s.kind, s.parallel, list(s.factors), s.component,
             None if s.system is None else _system(s.system),
             None if s.raw is None else [[v, str(x)] for v, x in s.raw.items()],
             None if s.rows is None else [[sid, list(r)] for sid, r in s.rows.items()]]
            for s in steps]


def layers(src: Path) -> SimpleNamespace:
    """The package's layer modules, imported from `src`."""
    sys.path.insert(0, str(src))
    return SimpleNamespace(**{name: importlib.import_module(f"polysched.{name}")
                              for name in ("frontend", "model", "pluto", "postpass", "ratlp")})


def record(api: SimpleNamespace, data) -> dict:
    """Everything the tree computes on one program, as JSON."""
    frontend, pluto, postpass = api.frontend, api.pluto, api.postpass
    errors = (frontend.ParseError, api.model.SchedulingError, api.ratlp.ResourceLimitError)
    try:
        _, deps = frontend.analyze(data)
    except errors as exc:
        return {"analysis": f"{type(exc).__name__}: {exc}"}
    out = {"deps": [[d.src, d.dst, d.kind, d.label, _system(d.relation)] for d in deps]}
    for path in PATHS:
        program, deps = frontend.analyze(data)
        try:
            if path == "dfp":
                result = postpass.dfp_schedule(program, deps)
                colors = result.coloring
                out["coloring"] = [
                    {sid: list(ks) for sid, ks in colors.colors.items()},
                    {str(c): [list(g) for g in groups]
                     for c, groups in colors.cut_groups.items()}]
            else:
                result = pluto.schedule(program, deps, pluto.SchedulerConfig(mode=path))
        except errors as exc:
            out[path] = f"{type(exc).__name__}: {exc}"
            continue
        out[path] = [result.transform.to_json(), _steps(result.steps)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src",
                        help="the src/ tree to digest (default: this checkout's)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    api = layers(src)
    overall = hashlib.sha256()
    total = 0
    for family, programs in families(src).items():
        text = json.dumps([[name, record(api, data)] for name, data in programs],
                          sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode()).hexdigest()
        overall.update(digest.encode())
        total += len(programs)
        print(f"{family:<12} {len(programs):>4} programs  {digest[:16]}")
    print(f"{'overall':<12} {total:>4} programs  {overall.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
