"""Self-tests of the benchmark's own parts.

* The oracle must agree with `verify.check_legality` and `verify.full_rank`
  on every transform of the bundled corpus, on all three paths, and on
  legality for each of those transforms with one loop level reversed.
* The chain generator must emit exactly the programs of
  `scripts/bench_chain.chain`.

The benchmark runs these in every corpus and chain run, after the timed
loop.  `python3 perfbench/selftest.py` runs both on their own.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from polysched import verify  # noqa: E402
from polysched.model import AffineTransform  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def _negated(transform, level):
    """`transform` with every row at 0-based `level` negated: a mutant that
    runs that loop level backwards."""
    rows = {sid: tuple(tuple(-x for x in r) if i == level else r
                       for i, r in enumerate(rs))
            for sid, rs in transform.rows.items()}
    return AffineTransform(transform.params, transform.dims, rows,
                           transform.bands, transform.cuts)


def oracle_agreement(name, program, deps, transform, problems) -> list[str]:
    """Disagreements between the oracle and the package's own legality and
    rank checks on one transform (whose oracle `problems` are given) and on
    each of its single-level reversals."""
    def legal_by_oracle(found):
        return not any("out of order" in p for p in found)

    out = []
    ranked = verify.full_rank(program, transform)
    if ranked != (not any("rank" in p for p in problems)):
        out.append(f"{name}: full_rank says {ranked}, the oracle disagrees")
    cases = [("", transform, problems)]
    for level in range(transform.levels):
        mutant = _negated(transform, level)
        cases.append((f" reversed at level {level + 1}", mutant,
                      oracle.check(program, deps, mutant)))
    for label, t, found in cases:
        legal = verify.check_legality(program, deps, t).ok
        if legal != legal_by_oracle(found):
            out.append(f"{name}{label}: check_legality says {legal}, "
                       f"the oracle disagrees")
    return out


def chain_matches_script() -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "bench_chain", ROOT / "scripts" / "bench_chain.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return [f"chain({n}) differs from scripts/bench_chain.chain({n})"
            for n in workloads.CHAIN_SIZES if workloads.chain(n) != script.chain(n)]


def run(workload: str, checked) -> list[str]:
    """Self-test failures for one pass; `checked` holds (name, program,
    deps, transform, oracle problems) per successful operation."""
    if workload == "corpus":
        return [msg for item in checked for msg in oracle_agreement(*item)]
    if workload == "chain":
        return chain_matches_script()
    return []


def main() -> int:
    from passrun import run_operation

    failures = chain_matches_script()
    for name, data in workloads.corpus_programs(ROOT / "src"):
        for path in ("ilp", "lp", "dfp"):
            program, deps, transform = run_operation(path, data)
            problems = oracle.check(program, deps, transform)
            failures += problems
            failures += oracle_agreement(f"{name}/{path}", program, deps,
                                         transform, problems)
            print(f"{name}/{path}: {'ok' if not problems else problems}")
    for f in failures:
        print("FAIL", f)
    print("self-test passed" if not failures else "self-test failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
