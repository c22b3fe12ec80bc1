from fractions import Fraction

import pytest

from polysched.farkas import ConstraintSystem
from polysched.frontend import analyze
from polysched.model import (
    RAR, RAW,
    AffineTransform, Band, Cut, DDG, DependencePolyhedron, IndexSet, Program,
    component_range, identity_transform, satisfaction_level, scc_decompose,
)

F = Fraction


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
        ddg = DDG(("A", "B", "C", "D"),
                  (edge("A", "B"), edge("B", "A"), edge("B", "C"), edge("C", "D")))
        assert scc_decompose(ddg) == (("A", "B"), ("C",), ("D",))

    def test_scc_order_follows_edges_not_listing(self):
        ddg = DDG(("X", "Y"), (edge("Y", "X"),))
        assert scc_decompose(ddg) == (("Y",), ("X",))

    def test_scc_members_follow_vertex_order(self):
        ddg = DDG(("A", "B", "C"),
                  (edge("C", "B"), edge("B", "C"), edge("B", "A"), edge("A", "B")))
        assert scc_decompose(ddg) == (("A", "B", "C"),)

    def test_components_are_weakly_connected(self):
        ddg = DDG(("A", "B", "C", "D"), (edge("B", "A"),))
        assert ddg.components() == (("A", "B"), ("C",), ("D",))

    def test_ordering_kinds(self):
        assert edge("A", "B", RAW).ordering
        assert not edge("A", "B", RAR).ordering


class TestValidation:
    def test_duplicate_statement_ids(self):
        from polysched.model import Statement
        s = IndexSet((), (), ConstraintSystem(()))
        with pytest.raises(ValueError):
            Program((), (Statement("S", s, (), 0), Statement("S", s, (), 1)))

    def test_index_set_variable_order(self):
        bad = ConstraintSystem(("N", "i"))
        with pytest.raises(ValueError):
            IndexSet(("i",), ("N",), bad)

    def test_dependence_variable_order(self):
        with pytest.raises(ValueError):
            DependencePolyhedron("A", "B", RAW, ("s.i",), ("t.i",), (),
                                 ConstraintSystem(("t.i", "s.i")))

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
            rows={"P": ((F(1), F(0), F(0), F(0)), (F(0), F(1, 2), F(1), F(-1))),
                  "Q": ((F(2), F(0), F(3)),)},
            bands=(Band(1, 2, True, False, ("P", "Q")),),
            cuts=(Cut(1, (("P",), ("Q",))),),
        )

    def test_levels_is_deepest_statement(self):
        assert self.transform().levels == 2

    def test_row_is_one_based_and_none_past_depth(self):
        t = self.transform()
        assert t.row("Q", 1) == (F(2), F(0), F(3))
        assert t.row("Q", 2) is None
        assert t.row("P", 2) == (F(0), F(1, 2), F(1), F(-1))

    def test_iterator_part_strips_params_and_constant(self):
        t = self.transform()
        assert t.iterator_part("P", 2) == (F(0), F(1, 2))
        assert t.iterator_part("Q", 2) is None

    def test_json_round_trip(self):
        t = self.transform()
        data = t.to_json()
        assert data["statements"]["P"]["rows"][1] == ["0/1", "1/2", "1/1", "-1/1"]
        assert data["cuts"] == [{"level": 1, "groups": [["P"], ["Q"]]}]
        assert AffineTransform.from_json(data) == t

    def test_identity_transform(self, pair):
        program, _ = pair
        t = identity_transform(program)
        assert t.rows["P"] == ((F(1), F(0), F(0)),)
        assert t.rows["Q"] == ((F(1), F(0), F(0)),)
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
                            {"P": ((F(1), F(0), F(0)),),
                             "Q": ((F(1), F(0), F(-2)),)})
        assert component_range(dep, t, 1) == 0
        assert satisfaction_level(dep, t) is None

    def test_reversed_row_is_unbounded_below(self, pair):
        program, dep = pair
        t = AffineTransform(("N",), {"P": ("i",), "Q": ("i",)},
                            {"P": ((F(1), F(0), F(0)),),
                             "Q": ((F(-1), F(0), F(0)),)})
        assert component_range(dep, t, 1) is None
        assert satisfaction_level(dep, t) is None

    def test_missing_row_acts_as_zero(self, pair):
        program, dep = pair
        t = AffineTransform(("N",), {"P": ("i",), "Q": ("i",)},
                            {"P": (), "Q": ((F(0), F(0), F(1)),)})
        # phi_Q - phi_P = 1 everywhere once P's side contributes nothing.
        assert component_range(dep, t, 1) == 1
