"""Program sets of the benchmark's workloads.

Every workload is a fixed list of (name, program JSON) pairs.  The run seed
only permutes the order in which a pass schedules them: it never changes
which programs are in the set, so a pass costs the same work under every
seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("corpus", "chain", "random")

CHAIN_SIZES = (8, 16)

#: The random workload: the first RANDOM_NESTS nests drawn from
#: random.Random(RANDOM_FAMILY_SEED).  Nests 0 to 37 of the draw succeed on
#: every path, in at most 2.6 CPU seconds on a 2-vCPU Intel Xeon VM; nest
#: 38 makes `dfp` raise.  Twelve keep a round near 8 s.
RANDOM_FAMILY_SEED = 1
RANDOM_NESTS = 12

#: Rounds of ilp, lp and dfp passes per run: with the verify pass, each
#: run takes about 40 s on a 2-vCPU Intel Xeon VM.
ROUNDS = {"corpus": 5, "chain": 2, "random": 2}


def corpus_programs(src: Path) -> list[tuple[str, dict]]:
    """The bundled corpus instances, read as JSON only: dependence analysis
    belongs to the timed operation, not to set-up."""
    out = []
    for path in sorted((src / "polysched" / "corpus").glob("*.json")):
        data = json.loads(path.read_text())
        out.append((data["name"], data["program"]))
    return out


def chain(n: int) -> dict:
    """Statement k writes A<k> and reads A<k-1> at the same 2-d point, so the
    dependence graph is one path of n statements."""
    stmts = []
    for k in range(n):
        reads = []
        if k:
            reads.append({"array": f"A{k - 1}", "kind": "read",
                          "map": [[1, 0, 0, 0], [0, 1, 0, 0]]})
        stmts.append({
            "id": f"S{k}",
            "iterators": ["i", "j"],
            "domain": [[1, 0, 0, 0, ">="], [-1, 0, 1, -1, ">="],
                       [0, 1, 0, 0, ">="], [0, -1, 1, -1, ">="]],
            "accesses": [{"array": f"A{k}", "kind": "write",
                          "map": [[1, 0, 0, 0], [0, 1, 0, 0]]}] + reads,
            "order": k,
        })
    return {"params": ["N"], "statements": stmts}


def random_nest(rng: random.Random) -> dict:
    """One nest of ROADMAP item 3's family: 1-3 statements, each with 1-2
    loops over [0, N-1], one write and 1-2 reads into 2-d arrays A and B,
    every subscript ±iterator plus an offset in {-1, 0, 1}."""
    stmts = []
    for k in range(rng.randint(1, 3)):
        depth = rng.randint(1, 2)
        domain = []
        for d in range(depth):
            unit = [int(d == e) for e in range(depth)]
            domain += [unit + [0, 0, ">="], [-u for u in unit] + [1, -1, ">="]]

        def access(kind):
            rows = []
            for _ in range(2):
                row = [0] * depth + [0, rng.choice((-1, 0, 1))]
                row[rng.randrange(depth)] = rng.choice((1, -1))
                rows.append(row)
            return {"array": rng.choice("AB"), "kind": kind, "map": rows}

        stmts.append({"id": f"S{k}", "iterators": ["i", "j"][:depth],
                      "domain": domain,
                      "accesses": [access("write")] +
                                  [access("read") for _ in range(rng.randint(1, 2))],
                      "order": k})
    return {"params": ["N"], "statements": stmts}


def programs(workload: str, src: Path) -> list[tuple[str, dict]]:
    """The workload's programs in their canonical order."""
    if workload == "corpus":
        return corpus_programs(src)
    if workload == "chain":
        return [(f"chain{n}", chain(n)) for n in CHAIN_SIZES]
    if workload == "random":
        rng = random.Random(RANDOM_FAMILY_SEED)
        return [(f"nest{k}", random_nest(rng)) for k in range(RANDOM_NESTS)]
    raise ValueError(f"unknown workload {workload!r}")


def ordered(workload: str, src: Path, seed: int) -> list[tuple[str, dict]]:
    """The workload's programs in the order the run seed gives."""
    progs = programs(workload, src)
    random.Random(f"{workload}:{seed}").shuffle(progs)
    return progs
