import pytest

from polysched.frontend import (
    ParseError, analyze, compute_dependences, parse_json, parse_program,
)


def shape(deps):
    return [(d.src, d.dst, d.kind) for d in deps]


PAIR = {
    "params": ["N"],
    "statements": [
        {"id": "P", "iterators": ["i"],
         "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
         "accesses": [{"array": "a", "kind": "write", "map": [[1, 0, 0]]}],
         "order": 0},
        {"id": "Q", "iterators": ["i"],
         "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
         "accesses": [{"array": "a", "kind": "read", "map": [[1, 0, -1]]}],
         "order": 1},
    ],
}


def edit(base, **patches):
    import copy
    data = copy.deepcopy(base)
    for path, value in patches.items():
        cursor = data
        *steps, last = path.split("__")
        for step in steps:
            cursor = cursor[int(step)] if step.isdigit() else cursor[step]
        if value is ...:
            del cursor[last]
        else:
            cursor[int(last) if last.isdigit() else last] = value
    return data


class TestParseProgram:
    def test_statements_sorted_by_order(self):
        data = edit(PAIR)
        data["statements"].reverse()
        program = parse_program(data)
        assert [s.id for s in program.statements] == ["P", "Q"]
        assert program.params == ("N",)

    def test_listing_position_is_default_order(self):
        data = edit(PAIR, statements__0__order=..., statements__1__order=...)
        program = parse_program(data)
        assert [s.textual_order for s in program.statements] == [0, 1]

    def test_empty_program(self):
        program, deps = analyze({})
        assert program.statements == () and deps == ()

    def test_domain_rows_become_constraints(self):
        program = parse_program(PAIR)
        dom = program.statement("P").domain
        assert dom.iterators == ("i",) and dom.params == ("N",)
        assert dom.system.satisfied_by({"i": 0, "N": 1})
        assert not dom.system.satisfied_by({"i": 1, "N": 1})

    def test_equality_relation(self):
        data = edit(PAIR, statements__0__domain=[[1, 0, -2, "=="]])
        dom = parse_program(data).statement("P").domain.system
        assert dom.satisfied_by({"i": 2, "N": 0})
        assert not dom.satisfied_by({"i": 3, "N": 0})

    def test_le_relation_flips_sign(self):
        data = edit(PAIR, statements__0__domain=[[1, -1, 0, "<="]])
        dom = parse_program(data).statement("P").domain.system
        assert dom.satisfied_by({"i": 4, "N": 4})
        assert not dom.satisfied_by({"i": 5, "N": 4})


class TestParseErrors:
    @pytest.mark.parametrize("data, where", [
        ([], "$"),
        ({"programs": {}}, "$"),
        ({"params": "N"}, "params"),
        ({"params": ["2x"]}, "params[0]"),
        ({"params": ["N", "N"]}, "params"),
        ({"statements": {}}, "statements"),
        ({"statements": [[]]}, "statements[0]"),
        ({"statements": [{"id": "S", "iterators": [], "domain": [],
                          "body": ""}]}, "statements[0]"),
        ({"statements": [{"id": "s p a c e", "iterators": [],
                          "domain": []}]}, "statements[0].id"),
        ({"statements": [{"id": "S", "iterators": ["i"], "domain": [],
                          "accesses": 5}]}, "statements[0].accesses"),
        ({"statements": [{"id": "S", "iterators": ["i"], "domain": [],
                          "accesses": None}]}, "statements[0].accesses"),
    ])
    def test_top_level_shapes(self, data, where):
        with pytest.raises(ParseError) as err:
            parse_program(data)
        assert err.value.where == where
        assert str(err.value).startswith(where + ": ")

    @pytest.mark.parametrize("path, name, where", [
        ("params__0", "N\n", "params[0]"),
        ("statements__0__id", "S\n", "statements[0].id"),
        ("statements__0__iterators__0", "i\n", "statements[0].iterators[0]"),
        ("statements__0__accesses__0__array", "a\n", "statements[0].accesses[0].array"),
    ])
    def test_name_with_a_trailing_newline(self, path, name, where):
        with pytest.raises(ParseError) as err:
            parse_program(edit(PAIR, **{path: name}))
        assert str(err.value) == f"{where}: expected an identifier, got {name!r}"

    def test_duplicate_statement_id(self):
        data = edit(PAIR, statements__1__id="P")
        with pytest.raises(ParseError, match="duplicate statement id"):
            parse_program(data)

    def test_duplicate_order(self):
        data = edit(PAIR, statements__1__order=0)
        with pytest.raises(ParseError, match="duplicate order"):
            parse_program(data)

    def test_boolean_order_rejected(self):
        data = edit(PAIR, statements__0__order=False)
        with pytest.raises(ParseError, match="expected an integer"):
            parse_program(data)

    def test_iterator_clashes_with_parameter(self):
        data = edit(PAIR, statements__0__iterators=["N"])
        with pytest.raises(ParseError, match="distinct"):
            parse_program(data)

    def test_domain_row_width(self):
        data = edit(PAIR, statements__0__domain=[[1, 0, ">="]])
        with pytest.raises(ParseError, match="expected 4 entries, got 3"):
            parse_program(data)

    def test_unknown_relation(self):
        data = edit(PAIR, statements__0__domain=[[1, 0, 0, ">"]])
        with pytest.raises(ParseError, match="relation must be one of"):
            parse_program(data)

    def test_fractional_coefficient(self):
        data = edit(PAIR, statements__0__domain=[[0.5, 0, 0, ">="]])
        with pytest.raises(ParseError, match="integer coefficient"):
            parse_program(data)

    def test_access_kind(self):
        data = edit(PAIR, statements__0__accesses__0__kind="update")
        with pytest.raises(ParseError, match="read.*write"):
            parse_program(data)

    def test_access_arity_mismatch(self):
        data = edit(PAIR, statements__1__accesses__0__map=[[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ParseError, match="subscripts"):
            parse_program(data)

    def test_dependences_unknown_statement(self):
        data = edit(PAIR, dependences=[
            {"src": "P", "dst": "R", "kind": "RAW",
             "relation": [[1, -1, 0, 0, "=="]]}])
        with pytest.raises(ParseError, match="unknown statement id 'R'"):
            analyze(data)

    def test_dependences_bad_kind(self):
        data = edit(PAIR, dependences=[
            {"src": "P", "dst": "Q", "kind": "flow",
             "relation": [[1, -1, 0, 0, "=="]]}])
        with pytest.raises(ParseError, match="kind must be one of"):
            analyze(data)

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_json("{not json", "$")


class TestComputedDependences:
    def test_uniform_pair(self):
        program, deps = analyze(PAIR)
        assert shape(deps) == [("P", "Q", "RAW")]
        (dep,) = deps
        assert dep.label == "a:0->0"
        assert dep.src_vars == ("s.i",) and dep.dst_vars == ("t.i",)
        assert dep.relation.satisfied_by({"s.i": 1, "t.i": 2, "N": 5})
        assert not dep.relation.satisfied_by({"s.i": 1, "t.i": 1, "N": 5})

    def test_transposed_chain(self, by_name):
        deps = by_name["fig1"].deps
        assert shape(deps) == [("S1", "S2", "RAW"), ("S1", "S3", "RAW"),
                               ("S2", "S3", "RAR")]
        assert [d.label for d in deps] == ["A:0->1", "A:0->1", "A:1->1"]
        transposed = deps[0]
        assert transposed.relation.satisfied_by(
            {"s.i": 1, "s.j": 2, "t.i": 2, "t.j": 1, "N": 3})
        assert not transposed.relation.satisfied_by(
            {"s.i": 1, "s.j": 2, "t.i": 1, "t.j": 2, "N": 3})

    def test_stencil_self_dependences(self, by_name):
        deps = by_name["stencil1d"].deps
        assert shape(deps) == [("S", "S", "RAW")] * 3
        assert [d.label for d in deps] == ["A:0->1@0", "A:0->2@0", "A:0->3@0"]

    def test_infeasible_pairs_dropped(self):
        # The reader scans a disjoint window, so no instance pair matches.
        data = edit(PAIR, statements__1__accesses__0__map=[[0, 1, 5]])
        _, deps = analyze(data)
        assert deps == ()

    def test_compute_matches_analyze(self):
        program, deps = analyze(PAIR)
        assert shape(compute_dependences(program)) == shape(deps)


class TestExplicitDependences:
    def test_cycle(self, by_name):
        inst = by_name["scc_pair"]
        assert shape(inst.deps) == [("P", "Q", "RAW"), ("Q", "P", "RAW")]
        assert [d.label for d in inst.deps] == ["explicit0", "explicit1"]
        back = inst.deps[1]
        # t.i == s.i + 1 for the Q -> P edge.
        assert back.relation.satisfied_by({"s.i": 3, "t.i": 4, "N": 9})
        assert not back.relation.satisfied_by({"s.i": 3, "t.i": 3, "N": 9})

    def test_explicit_list_replaces_computed(self):
        data = edit(PAIR, dependences=[])
        _, deps = analyze(data)
        assert deps == ()

    def test_infeasible_entries_skipped(self):
        data = edit(PAIR, dependences=[
            {"src": "P", "dst": "Q", "kind": "RAW",
             "relation": [[0, 0, 0, -1, "=="]]}])
        _, deps = analyze(data)
        assert deps == ()

    @pytest.mark.parametrize("kind", ["RAW", "WAR", "WAW"])
    @pytest.mark.parametrize("statement, relation", [
        ({"id": "S", "iterators": ["i"], "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]]},
         [[1, -1, 0, 0, "=="]]),
        ({"id": "S", "iterators": [], "domain": []}, []),
    ], ids=["same-i", "scalar"])
    def test_an_instance_paired_with_itself_is_refused(self, kind, statement, relation):
        data = {"params": ["N"], "statements": [statement], "dependences": [
            {"src": "S", "dst": "S", "kind": kind, "relation": relation}]}
        with pytest.raises(ParseError) as err:
            analyze(data)
        assert str(err.value) == "dependences[0].relation: pairs an instance of S with itself"

    def test_self_dependences_that_pair_distinct_instances_are_kept(self):
        # s.i = t.i - 1 never pairs an instance with itself, and a read-read
        # pair orders nothing, even on the diagonal.
        data = edit(PAIR, dependences=[
            {"src": "P", "dst": "P", "kind": "RAW", "relation": [[1, -1, 0, 1, "=="]]},
            {"src": "P", "dst": "P", "kind": "RAR", "relation": [[1, -1, 0, 0, "=="]]}])
        _, deps = analyze(data)
        assert shape(deps) == [("P", "P", "RAW"), ("P", "P", "RAR")]

    def test_domain_rows_still_apply(self, by_name):
        back = by_name["scc_pair"].deps[1]
        # Instances outside [0, N-1] are not in the relation.
        assert not back.relation.satisfied_by({"s.i": 3, "t.i": 4, "N": 2})

