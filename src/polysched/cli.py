"""Command-line driver.

Subcommands mirror the package layers: `schedule` emits a transform as JSON,
`deps` the dependence graph, `fcg` the colored conflict graph (optionally as
DOT) and `verify` runs the property suite.  Output for a given input and
flag set is byte-identical across runs; rationals are printed as "p/q"
strings.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import verify
from .fcg import to_dot
from .frontend import ParseError, analyze, parse_json, read_utf8
from .model import SchedulingError
from .pluto import SchedulerConfig, schedule
from .postpass import dfp_schedule
from .ratlp import ResourceLimitError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load(path: str):
    """A program description, bare or wrapped as a corpus instance; every
    error in it is a ParseError at `path`."""
    data = parse_json(read_utf8(Path(path), path), path)
    if isinstance(data, dict) and "program" in data:
        inst = verify.parse_instance(data, path)
        return inst.program, inst.deps
    try:
        return analyze(data)
    except ParseError as exc:
        raise ParseError(path, str(exc).removeprefix("$: ")) from None


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _cmd_schedule(args) -> int:
    program, deps = _load(args.file)
    if args.algo == "dfp":
        transform = dfp_schedule(program, deps).transform
    else:
        transform = schedule(program, deps,
                             SchedulerConfig(mode=args.algo)).transform
    _emit(transform.to_json())
    return EXIT_OK


def _cmd_deps(args) -> int:
    program, deps = _load(args.file)
    _emit({
        "statements": [s.id for s in program.statements],
        "dependences": [
            {"src": d.src, "dst": d.dst, "kind": d.kind, "label": d.label}
            for d in deps
        ],
    })
    return EXIT_OK


def _cmd_fcg(args) -> int:
    program, deps = _load(args.file)
    coloring = dfp_schedule(program, deps).coloring
    graph = coloring.fcg
    if args.dot:
        sys.stdout.write(to_dot(program, graph, coloring))
        return EXIT_OK
    _emit({
        "vertices": [{"statement": sid, "dim": k, "color": coloring.color((sid, k))}
                     for sid, k in graph.vertices],
        "conflicts": [[list(u), list(v)] for u, v in graph.conflicts],
        "cliques": [[list(u), list(v)] for u, v in graph.cliques],
        "loops": [list(v) for v in graph.loops],
        "groups": [list(g) for g in coloring.groups],
    })
    return EXIT_OK


def _cmd_verify(args) -> int:
    corpus = verify.load_corpus(args.corpus) if args.corpus else None
    report = verify.theorem_suite(corpus)
    if args.json:
        _emit(report.to_json())
    else:
        print(report.summary())
    return EXIT_OK if report.ok else EXIT_VERIFY


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysched",
        description="Affine loop scheduling over exact rationals.")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("schedule", help="compute a transform and print it as JSON")
    p.add_argument("file", help="program description (JSON)")
    p.add_argument("--algo", choices=("ilp", "lp", "dfp"), default="dfp",
                   help="integer, relaxed, or fusion-driven scheduler")
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("deps", help="print the dependence graph as JSON")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_deps)

    p = sub.add_parser("fcg", help="print the colored fusion conflict graph")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit Graphviz text")
    p.set_defaults(fn=_cmd_fcg)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--corpus", metavar="DIR",
                   help="directory of instances (default: bundled corpus)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report instead of the summary")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SchedulingError, ResourceLimitError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
