from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysched import farkas, model, ratlp
from polysched.farkas import ConstraintSystem
from polysched.frontend import analyze, compute_dependences, parse_program
from polysched.model import (
    RAR, RAW,
    AffineTransform, Band, Cut, DependencePolyhedron, IndexSet, Program,
    SchedulingError,
    component_range, components, identity_transform, min_dependence_component,
    satisfaction_level, scc_decompose,
)
from polysched.verify import lp_minimum

from inputs import workloads


def edge(src, dst, kind=RAW):
    """Bare graph edge; the empty relation is enough for structure tests."""
    return DependencePolyhedron(src, dst, kind, (), (), (), ConstraintSystem(()))


@pytest.fixture(scope="module")
def pair():
    """P writes a[i], Q reads a[i-2]: one uniform flow dependence at distance 2."""
    program, deps = analyze({
        "params": ["N"],
        "statements": [
            {"id": "P", "iterators": ["i"],
             "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
             "accesses": [{"array": "a", "kind": "write", "map": [[1, 0, 0]]}],
             "order": 0},
            {"id": "Q", "iterators": ["i"],
             "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
             "accesses": [{"array": "a", "kind": "read", "map": [[1, 0, -2]]}],
             "order": 1},
        ],
    })
    (dep,) = deps
    return program, dep


class TestGraph:
    def test_scc_topological_order(self):
        deps = (edge("A", "B"), edge("B", "A"), edge("B", "C"), edge("C", "D"))
        assert scc_decompose(("A", "B", "C", "D"), deps) == (("A", "B"), ("C",), ("D",))

    def test_scc_order_follows_edges_not_listing(self):
        assert scc_decompose(("X", "Y"), (edge("Y", "X"),)) == (("Y",), ("X",))

    def test_scc_members_follow_vertex_order(self):
        deps = (edge("C", "B"), edge("B", "C"), edge("B", "A"), edge("A", "B"))
        assert scc_decompose(("A", "B", "C"), deps) == (("A", "B", "C"),)

    def test_components_are_weakly_connected(self):
        assert components(("A", "B", "C", "D"), (edge("B", "A"),)) == (
            ("A", "B"), ("C",), ("D",))

    def test_ordering_kinds(self):
        assert edge("A", "B", RAW).ordering
        assert not edge("A", "B", RAR).ordering


@st.composite
def digraphs(draw):
    """Vertex ids in a random order and edges with self-loops and repeats."""
    ids = draw(st.permutations([f"v{k}" for k in range(draw(st.integers(0, 7)))]))
    if not ids:
        return (), []
    pairs = st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=16)
    return tuple(ids), [edge(a, b) for a, b in draw(pairs)]


def _closure(ids, pairs):
    """Reflexive reachability by Warshall's algorithm."""
    reach = {(u, v): u == v for u, v in product(ids, ids)}
    for a, b in pairs:
        reach[a, b] = True
    for k, u, v in product(ids, ids, ids):
        reach[u, v] = reach[u, v] or (reach[u, k] and reach[k, v])
    return reach


def _check_partition(ids, comps, connected):
    order = {v: i for i, v in enumerate(ids)}
    assert sorted(v for c in comps for v in c) == sorted(ids)
    where = {v: ci for ci, c in enumerate(comps) for v in c}
    for c in comps:
        assert list(c) == sorted(c, key=order.__getitem__)
    for u, v in product(ids, ids):
        assert (where[u] == where[v]) == connected(u, v)
    return where


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_scc_decompose_properties(graph):
    ids, deps = graph
    reach = _closure(ids, [(d.src, d.dst) for d in deps])
    sccs = scc_decompose(ids, deps)
    where = _check_partition(ids, sccs, lambda u, v: reach[u, v] and reach[v, u])
    for d in deps:
        assert where[d.src] <= where[d.dst]


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_components_properties(graph):
    ids, deps = graph
    reach = _closure(ids, [(d.src, d.dst) for d in deps] + [(d.dst, d.src) for d in deps])
    comps = components(ids, deps)
    _check_partition(ids, comps, lambda u, v: reach[u, v])
    firsts = [ids.index(c[0]) for c in comps]
    assert firsts == sorted(firsts)


class TestValidation:
    def test_duplicate_statement_ids(self):
        from polysched.model import Statement
        s = IndexSet((), (), ConstraintSystem(()))
        with pytest.raises(ValueError, match="^duplicate statement ids$"):
            Program((), (Statement("S", s, (), 0), Statement("S", s, (), 1)))

    def test_duplicate_textual_orders(self):
        """Two statements with one order would tie neither way, so the
        dependence between them would vanish: S writes A[i], T reads it."""
        from polysched.model import Statement
        loop = [[1, 0, ">="], [-1, 3, ">="]]
        program = parse_program({"statements": [
            {"id": "S", "iterators": ["i"], "domain": loop,
             "accesses": [{"array": "A", "kind": "write", "map": [[1, 0]]}]},
            {"id": "T", "iterators": ["i"], "domain": loop,
             "accesses": [{"array": "A", "kind": "read", "map": [[1, 0]]}]}]})
        assert [(d.kind, d.src, d.dst) for d in compute_dependences(program)] == [
            (RAW, "S", "T")]
        tied = [Statement(s.id, s.domain, s.accesses, 0) for s in program.statements]
        with pytest.raises(ValueError, match="^duplicate textual orders$"):
            Program((), tied)

    def test_index_set_variable_order(self):
        bad = ConstraintSystem(("N", "i"))
        with pytest.raises(ValueError,
                           match=r"^domain variables \('N', 'i'\) != \('i', 'N'\)$"):
            IndexSet(("i",), ("N",), bad)

    def test_dependence_variable_order(self):
        with pytest.raises(ValueError, match="^relation variables out of order$"):
            DependencePolyhedron("A", "B", RAW, ("s.i",), ("t.i",), (),
                                 ConstraintSystem(("t.i", "s.i")))

    def test_statements_listed_in_textual_order(self, pair):
        program, _ = pair
        given = Program(program.params, tuple(reversed(program.statements)))
        assert [s.id for s in given.statements] == ["P", "Q"]
        assert given.statement("Q") is program.statement("Q")

    def test_statement_lookup(self, pair):
        program, _ = pair
        assert program.statement("P").id == "P"
        with pytest.raises(KeyError):
            program.statement("missing")


class TestTransform:
    def transform(self):
        return AffineTransform(
            params=("N",),
            dims={"P": ("i", "j"), "Q": ("i",)},
            rows={"P": ((1, 0, 0, 0), (0, 2, 1, -1)),
                  "Q": ((2, 0, 3),)},
            bands=(Band(1, 2, True, False, ("P", "Q")),),
            cuts=(Cut(1, (("P",), ("Q",))),),
        )

    def test_levels_is_deepest_statement(self):
        assert self.transform().levels == 2

    def test_row_is_one_based_and_none_past_depth(self):
        t = self.transform()
        assert t.row("Q", 1) == (2, 0, 3)
        assert t.row("Q", 2) is None
        assert t.row("P", 2) == (0, 2, 1, -1)

    def test_json_round_trip(self):
        t = self.transform()
        data = t.to_json()
        assert data["statements"]["P"]["rows"][1] == ["0/1", "2/1", "1/1", "-1/1"]
        assert data["cuts"] == [{"level": 1, "groups": [["P"], ["Q"]]}]

    def test_identity_transform(self, pair):
        program, _ = pair
        t = identity_transform(program)
        assert t.rows["P"] == ((1, 0, 0),)
        assert t.rows["Q"] == ((1, 0, 0),)
        assert t.bands == (Band(1, 1, True, False, ("P", "Q")),)
        assert t.cuts == ()


class TestSatisfaction:
    def test_identity_satisfies_at_level_one(self, pair):
        program, dep = pair
        t = identity_transform(program)
        assert component_range(dep, t, 1) == 2
        assert satisfaction_level(dep, t) == 1

    def test_exact_shift_leaves_zero_component(self, pair):
        program, dep = pair
        t = AffineTransform(("N",), {"P": ("i",), "Q": ("i",)},
                            {"P": ((1, 0, 0),),
                             "Q": ((1, 0, -2),)})
        assert component_range(dep, t, 1) == 0
        assert satisfaction_level(dep, t) is None

    def test_reversed_row_is_unbounded_below(self, pair):
        program, dep = pair
        t = AffineTransform(("N",), {"P": ("i",), "Q": ("i",)},
                            {"P": ((1, 0, 0),),
                             "Q": ((-1, 0, 0),)})
        assert component_range(dep, t, 1) is None
        assert satisfaction_level(dep, t) is None

    def test_minimum_is_solved_once_per_pair_of_rows(self, pair, monkeypatch):
        """The memo computes each pair of rows once, and a minimum is read
        off the Farkas cone without any solver call."""
        program, dep = pair
        computed = []
        compute = model.cone_minimum
        monkeypatch.setattr(model, "cone_minimum",
                            lambda *args: computed.append(args) or compute(*args))

        def no_solve(*args, **kwargs):
            raise AssertionError("a dependence minimum called the solver")

        for name in ("solve_lp", "solve_lexmin", "solve_ilp"):
            monkeypatch.setattr(ratlp, name, no_solve)
        src, dst = (1, 0, 0), (3, 0, -7)
        assert min_dependence_component(dep, src, dst) == 6 - 7
        assert min_dependence_component(dep, list(src), list(dst)) == -1
        assert min_dependence_component(dep, dst, src) is None
        assert min_dependence_component(dep, dst, src) is None
        assert len(computed) == 2

    def test_dependences_of_one_relation_share_their_minima(self, monkeypatch):
        """The consecutive pairs of a chain depend over one relation, so
        the same rows on both ask its Farkas cone for one minimum."""
        program, deps = analyze(workloads.chain(3))
        assert len(deps) == 2 and deps[0]._facts is deps[1]._facts
        computed = []
        compute = model.cone_minimum
        monkeypatch.setattr(model, "cone_minimum",
                            lambda *args: computed.append(args) or compute(*args))
        row = (1, 0, 0, 0)
        assert [min_dependence_component(d, row, row) for d in deps] == [0, 0]
        assert len(computed) == 1

    def test_empty_relation_raises_like_the_lp(self):
        """A relation with no point has every form in its cone: the cone
        says so, and both the cone minimum and the legality check's LP
        report it."""
        names = ("i", "i'", "N")
        rel = ConstraintSystem(names, (), dict.fromkeys(names))
        rel = rel.with_rows([rel.row_from({"i": 1}), rel.row_from({"i": -1}, -1)])
        dep = DependencePolyhedron("P", "Q", RAW, ("i",), ("i'",), ("N",), rel)
        assert farkas.cone_is_empty(dep.cone)
        row = (1, 0, 0)
        for minimum in (min_dependence_component, lp_minimum):
            with pytest.raises(SchedulingError, match="empty"):
                minimum(dep, row, row)

    def test_missing_row_acts_as_zero(self, pair):
        program, dep = pair
        t = AffineTransform(("N",), {"P": ("i",), "Q": ("i",)},
                            {"P": (), "Q": ((0, 0, 1),)})
        # phi_Q - phi_P = 1 everywhere once P's side contributes nothing.
        assert component_range(dep, t, 1) == 1

    def test_satisfaction_reads_only_common_levels(self, pair):
        """A level where one statement has no row satisfies nothing, though
        its component reads the missing row as zero: past the shorter
        statement's rows, textual order decides, as in `check_legality`."""
        program, dep = pair
        t = AffineTransform(("N",), {"P": ("i",), "Q": ("i",)},
                            {"P": (), "Q": ((0, 0, 1),)})
        assert satisfaction_level(dep, t) is None
        assert satisfaction_level(dep, t._replace(rows={"P": ((0, 0, 0),),
                                                        "Q": ((0, 0, 1),)})) == 1
