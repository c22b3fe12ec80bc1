"""In-process A/B timing of two polysched source trees.

    python scripts/ab_inprocess.py SRC_A SRC_B [--rounds R] [--workloads W ...]

Each SRC is a `src/` directory holding a `polysched` package.  Its package
is copied to a temporary directory under a new name and imported, so the
trees run side by side in one interpreter; SRC_A is loaded twice, and its
second copy is an A/A control that shows the noise of the measurement.

The programs are the benchmark's workloads (`perfbench/workloads.py`, read
only).  Every round times, per program, `frontend.analyze` alone and
analysis followed by each path (`ilp`, `lp`, `dfp`), in CPU seconds
(`time.process_time`), with the trees in a new random order for each
operation.  Per workload and operation the script prints the sum over the
programs of each tree's minimum over the rounds, in ms, and each tree's
change against SRC_A, then the simplex pivots (`ratlp._Tableau._pivot`
calls) the operation takes on them, counted in one more, untimed pass:
a number with no noise for a solver change.

One interpreter cannot see start-up cost, so the `import` row comes first:
every round imports each tree's `cli` module, which is what a command-line
run loads, once in a fresh `python -B` child, the trees in a new random
order, and the row gives each tree's least child CPU time
(`resource.getrusage(RUSAGE_CHILDREN)`, interpreter start included).  A
child writes no bytecode; it reads the bytecode that the script's own
import of the tree left, unless PYTHONDONTWRITEBYTECODE is set, in which
case every child compiles the package afresh.

The `verify` row follows it: every round runs each tree's
`verify.theorem_suite()` on its bundled corpus once, the trees in a new
random order, and the row gives each tree's least CPU time for one pass.
"""

from __future__ import annotations

import argparse
import importlib
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from digest import workloads

ROOT = Path(__file__).resolve().parents[1]
OPERATIONS = ("analysis", "ilp", "lp", "dfp")


def _load_tree(src: Path, name: str, scratch: Path):
    """The `polysched` package under `src`, imported as `name`."""
    shutil.copytree(src / "polysched", scratch / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    for sub in ("cli", "frontend", "pluto", "postpass", "verify"):
        importlib.import_module(f"{name}.{sub}")
    return package


def _operation(package, op: str, data):
    """A callable running `op` on the program `data` with `package`."""
    analyze = package.frontend.analyze
    if op == "analysis":
        return lambda: analyze(data)
    if op == "dfp":
        return lambda: package.postpass.dfp_schedule(*analyze(data))
    config = package.pluto.SchedulerConfig(mode=op)
    return lambda: package.pluto.schedule(*analyze(data), config)


def _pivots(package, op: str, programs) -> int:
    """The simplex pivots `op` takes over `programs` with `package`."""
    tableau = package.ratlp._Tableau
    pivot = tableau._pivot
    count = 0

    def counted(self, r, j):
        nonlocal count
        count += 1
        return pivot(self, r, j)

    tableau._pivot = counted
    try:
        for _, data in programs:
            _operation(package, op, data)()
    finally:
        tableau._pivot = pivot
    return count


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _import_times(names, scratch: Path, rounds: int, rng) -> list[float]:
    """Each package's least CPU seconds over `rounds` fresh `python -B`
    children that import its `cli` module and nothing else."""
    best = [float("inf")] * len(names)
    for _ in range(rounds):
        order = list(range(len(names)))
        rng.shuffle(order)
        for t in order:
            code = f"import sys; sys.path.insert(0, {str(scratch)!r}); import {names[t]}.cli"
            start = _child_cpu()
            subprocess.run([sys.executable, "-B", "-c", code], check=True)
            best[t] = min(best[t], _child_cpu() - start)
    return best


def _verify_times(trees, rounds: int, rng) -> list[float]:
    """Each tree's least CPU seconds over `rounds` passes of its property
    suite."""
    best = [float("inf")] * len(trees)
    for _ in range(rounds):
        order = list(range(len(trees)))
        rng.shuffle(order)
        for t in order:
            start = time.process_time()
            trees[t].verify.theorem_suite()
            best[t] = min(best[t], time.process_time() - start)
    return best


def _print_row(label: str, sums, pivots=None) -> None:
    """One operation's times per tree in ms, each against SRC_A's, and
    each tree's pivots when given."""
    cells = [f"{sums[0]:.2f}"] + [
        f"{s:.2f} ({100 * (s / sums[0] - 1):+.1f}%)" for s in sums[1:]]
    if pivots is not None:
        cells = [f"{c} {p:>5}p" for c, p in zip(cells, pivots)]
    print("  " + label.ljust(10) + "".join(c.rjust(27) for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path, help="the reference src/ tree")
    parser.add_argument("src_b", type=Path, help="the src/ tree compared with it")
    parser.add_argument("--rounds", type=int, default=15,
                        help="timed rounds per operation (default 15)")
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    labels = ("A", "A/A", "B")
    header = "  " + "operation".ljust(10) + "".join(label.rjust(27) for label in labels)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        names = [f"polysched_ab{k}" for k in range(3)]
        trees = [_load_tree(src, name, Path(tmp))
                 for name, src in zip(names, (args.src_a, args.src_a, args.src_b))]
        rng = random.Random(0)
        print(f"import: {args.rounds} rounds, least CPU ms of a fresh child")
        print(header)
        _print_row("import", [1000 * s for s in _import_times(names, Path(tmp),
                                                              args.rounds, rng)])
        print(f"verify: {args.rounds} rounds, least CPU ms of one theorem_suite() pass")
        print(header)
        _print_row("verify", [1000 * s for s in _verify_times(trees, args.rounds, rng)])
        for workload in args.workloads:
            programs = workloads.programs(workload, ROOT / "src")
            best = {}  # (tree, operation, program) -> least CPU seconds
            for _ in range(args.rounds):
                for k, (_, data) in enumerate(programs):
                    for op in OPERATIONS:
                        order = list(range(len(trees)))
                        rng.shuffle(order)
                        for t in order:
                            run = _operation(trees[t], op, data)
                            start = time.process_time()
                            run()
                            spent = time.process_time() - start
                            key = (t, op, k)
                            best[key] = min(best.get(key, spent), spent)
            print(f"{workload}: {len(programs)} programs, {args.rounds} rounds, "
                  f"sum of per-program minima in CPU ms, then pivots (p)")
            print(header)
            for op in OPERATIONS:
                _print_row(op, [1000 * sum(best[t, op, k] for k in range(len(programs)))
                                for t in range(len(trees))],
                           [_pivots(tree, op, programs) for tree in trees])
        sys.path.remove(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
