"""Dependence analysis against a builder that solves every candidate.

`frontend.compute_dependences` drops the candidates that their equalities
refute, alone or with the domains' constant lower bounds, with no
elimination, decides each distinct surviving relation once from its Farkas
cone, and visits only statement pairs that share an array.  None of that
may change its output: `reference_dependences` below states the precedence
rule directly and asks the solver about every candidate of every statement
pair, and the two must agree on order, labels, variables and rows.  The
analysis also builds each statement-pair shape once and only names it for
every other pair of that shape: `per_pair_dependences` builds every pair
on its own, and renaming a program's statements, arrays and iterators must
change nothing but names.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysched import frontend, model, ratlp
from polysched.farkas import EQ, GE, ConstraintSystem, farkas_cone
from polysched.frontend import (
    _extend, _out_of_reach, _refutes, analyze, compute_dependences, parse_program,
)
from polysched.model import SchedulingError
from polysched.pluto import SchedulerConfig, schedule
from polysched.postpass import dfp_schedule

from inputs import FIXTURES, ROOT, bench_chain, workloads

CORPUS = ROOT / "src" / "polysched" / "corpus"


def corpus_programs():
    return [json.loads(p.read_text())["program"] for p in sorted(CORPUS.glob("*.json"))]


def random_programs():
    """The first 100 nests of the `random_nest` family under seeds 1 and 2."""
    out = []
    for seed in (1, 2):
        rng = random.Random(seed)
        out += [workloads.random_nest(rng) for _ in range(100)]
    return out


_KINDS = {("write", "read"): "RAW", ("read", "write"): "WAR",
          ("write", "write"): "WAW", ("read", "read"): "RAR"}


def _renamed(space, names, rows):
    """Rows over `names` (a statement's iterators, then the parameters)
    restated on `space`."""
    return [space.row_from({names[k]: c for k, c in r.nonzero}, r.const, r.kind)
            for r in rows]


def reference_dependences(program):
    """Every access pair of every statement pair `src <= dst`, every depth
    of first precedence, each solved: the dependences as the rule states
    them, as (src, dst, kind, label, variables, rows, lower bounds)."""
    out = []
    stmts = sorted(program.statements, key=lambda s: s.textual_order)
    params = list(program.params)
    for i, src in enumerate(stmts):
        for dst in stmts[i:]:
            svars = [f"s.{it}" for it in src.domain.iterators]
            tvars = [f"t.{it}" for it in dst.domain.iterators]
            variables = svars + tvars + params
            space = ConstraintSystem(variables, (), dict.fromkeys(variables, None))
            space = space.with_rows(
                _renamed(space, svars + params, src.domain.system.rows)
                + _renamed(space, tvars + params, dst.domain.system.rows)
                + [space.row_from({p: 1}) for p in params])
            shared = src.dim if src is dst else 0
            tie = src.textual_order < dst.textual_order
            for ai, a in enumerate(src.accesses):
                for bi, b in enumerate(dst.accesses):
                    if a.array != b.array or (src is dst and a.kind == b.kind == "read"):
                        continue
                    cells = []
                    for ra, rb in zip(a.rows, b.rows):
                        form = dict.fromkeys(variables, 0)
                        for v, c in zip(svars, ra):
                            form[v] += c
                        for v, c in zip(tvars, rb):
                            form[v] -= c
                        for k, p in enumerate(params):
                            form[p] += ra[len(svars) + k] - rb[len(tvars) + k]
                        cells.append(space.row_from(form, ra[-1] - rb[-1], EQ))
                    for d in range(shared + tie):
                        order = [space.row_from({svars[k]: 1, tvars[k]: -1}, 0, EQ)
                                 for k in range(d)]
                        label = f"{a.array}:{ai}->{bi}"
                        if d < shared:
                            order.append(space.row_from({tvars[d]: 1, svars[d]: -1}, -1))
                            label += f"@{d}"
                        relation = space.with_rows(cells + order)
                        if ratlp.solve_lp(ratlp.LPProblem.of(relation)):
                            out.append((src.id, dst.id, _KINDS[a.kind, b.kind], label,
                                        relation.variables, relation.rows,
                                        tuple(relation.lower.items())))
    return out


def as_tuples(deps):
    for d in deps:
        assert d.relation.variables == d.src_vars + d.dst_vars + d.params
    return [(d.src, d.dst, d.kind, d.label, d.relation.variables, d.relation.rows,
             tuple(d.relation.lower.items())) for d in deps]


@pytest.mark.parametrize("family", ["corpus", "chain", "fan-in", "random"])
def test_dependences_equal_the_reference(family):
    programs = {
        "corpus": corpus_programs,
        "chain": lambda: [bench_chain.chain(8)],
        "fan-in": lambda: [bench_chain.fan_in(30)],
        "random": random_programs,
    }[family]()
    found = 0
    for data in programs:
        program = parse_program(data)
        expect = reference_dependences(program)
        assert as_tuples(compute_dependences(program)) == expect
        found += len(expect)
    assert found


def per_pair_dependences(program):
    """Every statement pair `src <= dst` built on its own by
    `frontend._deps_between` and named for itself, with no pair shape
    shared, in the form of `as_tuples`."""
    known: dict = {}
    out = []
    stmts = program.statements
    for i, src in enumerate(stmts):
        for dst in stmts[i:]:
            pairs = tuple((ai, bi) for ai, a in enumerate(src.accesses)
                          for bi, b in enumerate(dst.accesses) if a.array == b.array
                          and not (src is dst and a.kind == b.kind == "read"))
            for ai, bi, d, kind, relation, facts in frontend._deps_between(
                    src, dst, program.params, pairs, known):
                label = f"{src.accesses[ai].array}:{ai}->{bi}" + ("" if d is None else f"@{d}")
                out.append((src.id, dst.id, kind, label, relation.variables, relation.rows,
                            tuple(relation.lower.items())))
    return out


def _domains_apart():
    """Writes of A[i] over [0, N) and [1, N), reads of A[i] over the same
    two ranges, then the first write again: pairs that differ only in
    their source's domain, only in their target's, or only in being a
    self pair."""
    stmts = []
    for k, (kind, low) in enumerate([("write", 0), ("write", 1), ("read", 0), ("read", 1),
                                     ("write", 0)]):
        stmts.append({"id": f"S{k}", "iterators": ["i"],
                      "domain": [[1, 0, -low, ">="], [-1, 1, -1, ">="]],
                      "accesses": [{"array": "A", "kind": kind, "map": [[1, 0, 0]]}]})
    return {"params": ["N"], "statements": stmts}


#: Per program set: (pair shapes built, statement pairs visited).
PAIR_SHAPES = {"corpus": (20, 26), "chain16": (2, 31), "fan-in30": (4, 87),
               "random": (38, 38), "fixtures": (34, 34), "domains": (14, 15)}


@pytest.mark.parametrize("family", sorted(PAIR_SHAPES))
def test_pair_shapes_give_what_each_pair_builds_alone(family, monkeypatch):
    """Each dependence equals the one its statement pair builds on its own,
    and two dependences share one `_facts` dict exactly when their
    relations have equal rows.  How many pair shapes get built is pinned:
    chain(16) has two, one self pair and one producer-consumer pair."""
    programs = {
        "corpus": corpus_programs,
        "chain16": lambda: [bench_chain.chain(16)],
        "fan-in30": lambda: [bench_chain.fan_in(30)],
        "random": lambda: [data for _, data in workloads.programs("random", ROOT / "src")],
        "fixtures": lambda: [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))],
        "domains": lambda: [_domains_apart()],
    }[family]()
    counts = {"built": 0, "named": 0}
    build, name = frontend._deps_between, frontend._named

    def built(*args):
        counts["built"] += 1
        return build(*args)

    def named(*args):
        counts["named"] += 1
        return name(*args)

    for data in programs:
        program = parse_program(data)
        with monkeypatch.context() as patched:
            if "dependences" not in data:  # counted as `analyze` runs it
                patched.setattr(frontend, "_deps_between", built)
                patched.setattr(frontend, "_named", named)
            deps = compute_dependences(program)
        assert as_tuples(deps) == per_pair_dependences(program)
        by_rows = {(d.relation.rows, id(d._facts)) for d in deps}
        assert len(by_rows) == len({d.relation.rows for d in deps}) \
            == len({id(d._facts) for d in deps})
    assert (counts["built"], counts["named"]) == PAIR_SHAPES[family]


def _renamed_program(data: dict) -> dict:
    """`data` with every statement id, array and iterator renamed, the
    iterators of each statement apart from every other's; ids and arrays
    keep their order."""
    return {**data, "statements": [
        {**st, "id": "X" + st["id"],
         "iterators": [f"{it}_{k}" for it in st["iterators"]],
         "accesses": [{**a, "array": "Z" + a["array"]} for a in st.get("accesses", [])]}
        for k, st in enumerate(data["statements"])]}


def _beyond_names(program, deps, result):
    """What an analysis and a run give besides names: dependences, steps
    and the transform, with statements by position and variables by
    column."""
    at = {s.id: k for k, s in enumerate(program.statements)}
    steps = [(s.level, s.kind, s.parallel, s.factors, s.component,
              None if s.system is None else (len(s.system.variables), s.system.rows,
                                             tuple(s.system.lower.values())),
              None if s.raw is None else tuple(s.raw.values()),
              None if s.rows is None else tuple((at[sid], r) for sid, r in s.rows.items()))
             for s in result.steps]
    t = result.transform
    return ([(at[d.src], at[d.dst], d.kind, d.label.partition(":")[2], d.relation.rows)
             for d in deps], steps, [t.rows[s.id] for s in program.statements],
            [(b.start, b.end, b.permutable, b.parallel, [at[x] for x in b.statements])
             for b in t.bands],
            [(c.level, [[at[x] for x in g] for g in c.groups]) for c in t.cuts])


@pytest.mark.parametrize("path", ["ilp", "lp", "dfp"])
def test_renaming_changes_nothing_but_names(path):
    """Renaming statement ids, arrays and iterators consistently, with no
    two statements left sharing an iterator name, changes no relation row,
    `Step` optimum or system, or transform row, on chain(8) and six
    `random_nest` draws: no name leaks from one statement pair into
    another that shares its shape."""
    rng = random.Random(3)
    programs = [bench_chain.chain(8)] + [workloads.random_nest(rng) for _ in range(6)]
    ran = 0
    for data in programs:
        runs, labels = [], []
        for variant in (data, _renamed_program(data)):
            program, deps = analyze(variant)
            labels.append([d.label for d in deps])
            for d in deps:
                src, dst = program.statement(d.src), program.statement(d.dst)
                assert d.src_vars == tuple(f"s.{it}" for it in src.domain.iterators)
                assert d.dst_vars == tuple(f"t.{it}" for it in dst.domain.iterators)
            try:
                result = (dfp_schedule(program, deps) if path == "dfp"
                          else schedule(program, deps, SchedulerConfig(mode=path)))
            except SchedulingError:
                runs.append("raises")
                continue
            runs.append(_beyond_names(program, deps, result))
        assert labels[1] == ["Z" + label for label in labels[0]]
        assert runs[0] == runs[1]
        ran += runs[0] != "raises"
    assert ran >= 5


class _Cones:
    """Records each relation whose Farkas cone the frontend eliminates, and
    fails on any LP solve."""

    def __init__(self, monkeypatch):
        self.relations = []
        build = frontend.farkas_cone

        def recorded(relation):
            self.relations.append(relation)
            return build(relation)

        def no_solve(problem):
            raise AssertionError("dependence analysis called the LP solver")

        monkeypatch.setattr(frontend, "farkas_cone", recorded)
        monkeypatch.setattr(ratlp, "solve_lp", no_solve)

    @property
    def calls(self):
        return len(self.relations)


def test_corpus_analysis_solves_few_relations(monkeypatch):
    """Of the corpus's 91 candidates, most contradict their own equalities;
    the explicit dependences of `scc_pair` keep one elimination each."""
    cones = _Cones(monkeypatch)
    for data in corpus_programs():
        analyze(data)
    assert 0 < cones.calls <= 22


def test_chain_analysis_solves_each_distinct_relation_once(monkeypatch):
    """The benchmark's chain workload: 70 candidates, but every producer to
    consumer pair has the same relation, and it is eliminated once per
    analysis, fewer times than there are dependences."""
    cones = _Cones(monkeypatch)
    deps = [dep for n in workloads.CHAIN_SIZES
            for dep in analyze(workloads.chain(n))[1]]
    assert len(deps) == 8 + 16 - 2
    assert 0 < cones.calls <= 6
    assert cones.calls < len(deps)


_COEFF = st.integers(-2, 2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_refutation_rejects_only_empty_relations(data):
    """An echelon form contradicts itself exactly when its equalities have
    no rational point, and refutes an inequality only when the solver finds
    no point of the equalities and the inequality together.  The inequality
    is drawn as a combination of the equalities, often unperturbed, so that
    both verdicts occur."""
    width = data.draw(st.integers(1, 4))
    names = [f"x{k}" for k in range(width)]
    space = ConstraintSystem(names, (), dict.fromkeys(names))
    vector = st.lists(_COEFF, min_size=width, max_size=width)
    eqs = data.draw(st.lists(st.tuples(vector, st.integers(-3, 3)), max_size=4))
    weights = data.draw(st.lists(_COEFF, min_size=len(eqs), max_size=len(eqs)))
    noise = data.draw(st.one_of(st.just([0] * width), vector))
    coeffs = [sum(w * c[j] for w, (c, _) in zip(weights, eqs)) + noise[j]
              for j in range(width)]
    const = sum(w * k for w, (_, k) in zip(weights, eqs)) + data.draw(st.integers(-2, 2))

    rows = [space.row_from(dict(zip(names, c)), k, EQ) for c, k in eqs]
    row = space.row_from(dict(zip(names, coeffs)), const)
    form = ()
    for r in rows:
        form = _extend(form, r, {})

    def feasible(extra):
        return bool(ratlp.solve_lp(ratlp.LPProblem.of(space.with_rows(rows + extra))))

    assert (form is None) == (not feasible([]))
    if _refutes(form, row, {}):
        assert not feasible([row])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_out_of_reach_rows_have_no_point_above_the_bounds(data):
    """A row `_out_of_reach` decides has no rational point at which every
    bounded variable is at least its bound."""
    width = data.draw(st.integers(1, 3))
    names = [f"x{k}" for k in range(width)]
    space = ConstraintSystem(names, (), dict.fromkeys(names))
    low = {k: data.draw(st.integers(-2, 2)) for k in range(width)
           if data.draw(st.booleans())}
    sign = data.draw(st.sampled_from([1, -1]))
    coeffs = [sign * data.draw(st.integers(0, 2)) for _ in names]
    row = space.row_from(dict(zip(names, coeffs)), data.draw(st.integers(-4, 4)),
                         data.draw(st.sampled_from([GE, EQ])))
    if _out_of_reach(row, low):
        bounds = [space.row_from({names[k]: 1}, -b) for k, b in low.items()]
        problem = ratlp.LPProblem.of(space.with_rows(bounds + [row]))
        assert ratlp.solve_lp(problem).status == ratlp.INFEASIBLE


def _feasible(relation) -> bool:
    return bool(ratlp.solve_lp(ratlp.LPProblem.of(relation)))


def test_bounds_refute_only_empty_candidates(monkeypatch):
    """Over 300 nests of the `random_nest` family, every candidate that the
    lower bounds refute, decided from its cone when the bounds are
    withheld, is infeasible; the dependences are the same either way, and
    more than half of the empty candidates are refuted with no
    elimination."""
    rng = random.Random(1)
    programs = [parse_program(workloads.random_nest(rng)) for _ in range(300)]
    decided = {}
    build = frontend.farkas_cone

    def recorded(relation):
        decided[relation.rows] = relation
        return build(relation)

    monkeypatch.setattr(frontend, "farkas_cone", recorded)
    monkeypatch.setattr(frontend, "_lower_bounds", lambda space: {})
    unbounded = [as_tuples(compute_dependences(p)) for p in programs]
    every = dict(decided)
    monkeypatch.undo()
    monkeypatch.setattr(frontend, "farkas_cone", recorded)
    decided.clear()
    assert [as_tuples(compute_dependences(p)) for p in programs] == unbounded
    refuted = [r for rows, r in every.items() if rows not in decided]
    for relation in refuted:
        assert not _feasible(relation)
    empty = sum(not _feasible(r) for r in every.values())
    assert 2 * len(refuted) > empty


def _explicit_programs():
    """`scc_pair` with its explicit dependences, and again with a read-read
    dependence over a relation of its own added."""
    data = json.loads((CORPUS / "scc_pair.json").read_text())["program"]
    rar = {"src": "P", "dst": "Q", "kind": "RAR", "relation": [[-1, 1, 0, -2, "=="]]}
    return [("scc_pair", data),
            ("scc_pair+rar", {**data, "dependences": data["dependences"] + [rar]})]


@pytest.mark.parametrize("workload", ["corpus", "chain", "random", "explicit"])
def test_analysis_builds_one_cone_per_relation(workload, monkeypatch):
    """Analysis builds the Farkas cone of each distinct relation that
    survives the equality refutation once, read-read ones and explicit ones
    included, and every dependence keeps its relation's cone: `ilp`, `lp`
    and `dfp` build none, and each dependence's cone equals a fresh
    `farkas_cone`."""
    built = []

    def recorded(relation):
        built.append(relation.rows)
        return farkas_cone(relation)

    monkeypatch.setattr(frontend, "farkas_cone", recorded)
    monkeypatch.setattr(model, "farkas_cone", recorded)
    if workload == "explicit":
        programs = _explicit_programs()
    else:
        programs = workloads.programs(workload, ROOT / "src")
    read_only = 0
    for _, data in programs:
        for path in ("ilp", "lp", "dfp"):
            built.clear()
            program, deps = analyze(data)
            analysed = list(built)
            assert len(set(analysed)) == len(analysed)
            assert {d.relation.rows for d in deps} <= set(analysed)
            if path == "dfp":
                dfp_schedule(program, deps)
            else:
                schedule(program, deps, SchedulerConfig(mode=path))
            for dep in deps:
                assert dep.cone.rows == farkas_cone(dep.relation).rows
            assert built == analysed
        ordering = {d.relation.rows for d in deps if d.ordering}
        read_only += len({d.relation.rows for d in deps} - ordering)
    assert read_only or workload == "chain"  # the chain reads no array twice


def test_cone_decides_emptiness_like_the_solver(monkeypatch):
    """On the corpus and 300 nests of the `random_nest` family, every
    candidate that reaches its Farkas cone is found empty exactly when the
    LP finds it infeasible, both verdicts occur, and deciding by the LP
    instead gives the same dependence lists."""
    rng = random.Random(1)
    programs = corpus_programs() + [workloads.random_nest(rng) for _ in range(300)]
    verdicts = []
    decide = frontend._relation_facts

    def recorded(relation, known):
        facts = decide(relation, known)
        verdicts.append((relation, facts is None))
        return facts

    monkeypatch.setattr(frontend, "_relation_facts", recorded)
    by_cone = [as_tuples(analyze(data)[1]) for data in programs]
    for relation, empty in verdicts:
        assert empty == (not _feasible(relation))
    assert {empty for _, empty in verdicts} == {True, False}

    def by_lp(relation, known):
        return {} if _feasible(relation) else None

    monkeypatch.setattr(frontend, "_relation_facts", by_lp)
    assert [as_tuples(analyze(data)[1]) for data in programs] == by_cone
