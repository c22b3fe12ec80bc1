import functools
import json
import sys
from importlib import resources

import pytest

from polysched import ratlp
from polysched.cli import main
from polysched.fcg import color_fcg, to_dot

from inputs import FIXTURES, REFUSALS

CORPUS = resources.files("polysched").joinpath("corpus")
FIG1 = str(CORPUS.joinpath("fig1.json"))

CHECK_NAMES = [
    "exact-arithmetic", "solution-scaling", "relaxation-objective",
    "integer-ratio", "oracle-agreement", "parallel-agreement",
    "band-agreement", "restricted-scaling", "pipeline-legality",
    "pipeline-rank", "skew-inert-when-tileable", "partition-convexity",
    "joint-shifts", "scc-colorability", "fusion-transitivity",
]

UNSCHEDULABLE = {
    "params": ["N"],
    "statements": [
        {"id": "S", "iterators": ["i"],
         "domain": [[1, 0, 0, ">="], [-1, 1, -1, ">="]],
         "accesses": [], "order": 0},
    ],
    "dependences": [
        {"src": "S", "dst": "S", "kind": "RAW",
         "relation": [[-1, 1, 0, 1, "=="]]},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchedule:
    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "schedule", FIG1)
        second = run(capsys, "schedule", FIG1)
        assert first[0] == 0 and first == second

    def test_round_trips_through_json(self, capsys, dfp_results):
        code, out, _ = run(capsys, "schedule", FIG1)
        assert code == 0
        assert json.loads(out) == dfp_results["fig1"].transform.to_json()

    def test_relaxed_and_integer_agree_here(self, capsys):
        lp = run(capsys, "schedule", FIG1, "--algo", "lp")
        ilp = run(capsys, "schedule", FIG1, "--algo", "ilp")
        assert lp[0] == ilp[0] == 0 and lp[1] == ilp[1]

    def test_bare_program_without_envelope(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(
            {k: v for k, v in UNSCHEDULABLE.items() if k != "dependences"}))
        code, out, _ = run(capsys, "schedule", str(path))
        assert code == 0
        assert json.loads(out)["statements"]["S"]["rows"] == [["1/1", "0/1", "0/1"]]


class TestDeps:
    def test_fig1_graph(self, capsys):
        code, out, _ = run(capsys, "deps", FIG1)
        assert code == 0
        data = json.loads(out)
        assert data["statements"] == ["S1", "S2", "S3"]
        assert data["dependences"] == [
            {"src": "S1", "dst": "S2", "kind": "RAW", "label": "A:0->1"},
            {"src": "S1", "dst": "S3", "kind": "RAW", "label": "A:0->1"},
            {"src": "S2", "dst": "S3", "kind": "RAR", "label": "A:1->1"},
        ]

    def test_explicit_dependences_keep_their_labels(self, capsys):
        code, out, _ = run(capsys, "deps", str(CORPUS.joinpath("scc_pair.json")))
        assert code == 0
        labels = [d["label"] for d in json.loads(out)["dependences"]]
        assert labels == ["explicit0", "explicit1"]

    def test_statements_follow_textual_order(self, capsys, tmp_path):
        data = json.loads(CORPUS.joinpath("fig1.json").read_text())
        data["program"]["statements"].reverse()
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "deps", str(path))
        assert code == 0
        _, listed, _ = run(capsys, "deps", FIG1)
        assert json.loads(out)["statements"] == ["S1", "S2", "S3"]
        assert json.loads(out) == json.loads(listed)


class TestFcg:
    def test_fig1_json(self, capsys):
        code, out, _ = run(capsys, "fcg", FIG1)
        assert code == 0
        data = json.loads(out)
        assert [v["color"] for v in data["vertices"]] == [1, 2, 2, 1, 1, 2]
        assert data["conflicts"] == [
            [["S1", 0], ["S2", 0]], [["S1", 1], ["S2", 1]],
            [["S2", 0], ["S3", 0]], [["S2", 1], ["S3", 1]],
        ]
        assert len(data["cliques"]) == 3
        assert data["loops"] == []
        assert data["groups"] == [["S1", "S2", "S3"]]

    def test_empty_program_has_no_group(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"params": [], "statements": []}))
        code, out, _ = run(capsys, "fcg", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == [] and data["groups"] == []

    def test_dot_matches_library_rendering(self, capsys, by_name):
        code, out, _ = run(capsys, "fcg", FIG1, "--dot")
        assert code == 0
        inst = by_name["fig1"]
        coloring = color_fcg(inst.program, inst.deps)
        assert out == to_dot(inst.program, coloring.fcg, coloring)
        assert '"S1.i" -- "S2.i";' in out

    def test_dot_cycles_the_fills_past_six_levels(self, capsys, tmp_path):
        # Seven loops take colors 1-7: color 7 takes the first fill again,
        # not the white of an uncolored vertex.
        its = [f"i{k}" for k in range(7)]
        domain = []
        for k in range(7):
            unit = [int(k == e) for e in range(7)]
            domain += [unit + [0, 0, ">="], [-u for u in unit] + [1, -1, ">="]]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"params": ["N"], "statements": [{
            "id": "S", "iterators": its, "domain": domain,
            "accesses": [{"array": "A", "kind": "write",
                          "map": [[int(k == e) for e in range(7)] + [0, 0]
                                  for k in range(7)]}]}]}))
        code, out, _ = run(capsys, "fcg", str(path), "--dot")
        assert code == 0
        fills = ["lightcoral", "lightgreen", "lightblue", "khaki", "plum",
                 "lightsalmon", "lightcoral"]
        for k, fill in enumerate(fills):
            assert f'"S.i{k}" [fillcolor={fill}];' in out


@pytest.mark.parametrize("path", ["ilp", "lp", "dfp", "fcg"])
@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_every_fixture_is_scheduled_or_refused_as_pinned(capsys, name, path):
    """Each path, and the coloring alone (`fcg`), exits 0 on every fixture
    with nothing on stderr, or exits 3 with the refusal that
    `tests/refusals.json` pins.  Eleven runs refuse by design.  An
    unbounded self-dependence has no bounded row on `ilp` and `lp`, where
    distribution then satisfies nothing, and keeps its bounding rows in
    `dfp`'s fusion probes, so `fcg` and `dfp` fail in coloring
    (`unbounded_self_dependence`, `no_progress_distribution`).  `ilp` and
    `lp` find no level-2 row on `ilp_independence`, where one independence
    guide contradicts legality though (0, 1) is legal, and `lp` none on
    `scc_backtrack`, whose cycle `ilp` and `dfp` schedule (ROADMAP item
    23).  Scale/shift finds no row as colored at level 2 of
    `scale_shift_infeasible` and level 1 of `dfp_missing_row`; there `dfp`
    cuts and retries one level down, as `ilp` and `lp` do, and exits 0."""
    argv = ["fcg"] if path == "fcg" else ["schedule", "--algo", path]
    refusal = REFUSALS.get(name, {}).get(path)
    code, _, err = run(capsys, *argv, str(FIXTURES / f"{name}.json"))
    if refusal is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (3, f"internal error: {refusal}\n")


class TestVerify:
    def test_bundled_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert [c["name"] for c in data["checks"]] == CHECK_NAMES

    def test_small_corpus_misses_the_record_quota(self, capsys, tmp_path):
        for name in ("fig1.json", "shift_pair.json"):
            (tmp_path / name).write_text(CORPUS.joinpath(name).read_text())
        code, out, _ = run(capsys, "verify", "--corpus", str(tmp_path), "--json")
        assert code == 1
        data = json.loads(out)
        assert data["instances"] == ["fig1", "shift_pair"]
        failing = [c["name"] for c in data["checks"] if c["status"] == "fail"]
        assert failing == ["solution-scaling"]

    def test_summary_text_mode(self, capsys, tmp_path):
        (tmp_path / "fig1.json").write_text(CORPUS.joinpath("fig1.json").read_text())
        code, out, _ = run(capsys, "verify", "--corpus", str(tmp_path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "corpus: fig1"
        assert lines[-1] == "failures present"
        assert any(line.startswith("FAIL solution-scaling") for line in lines)


    def test_missing_corpus_directory(self, capsys, tmp_path):
        missing = tmp_path / "absent"
        code, out, err = run(capsys, "verify", "--corpus", str(missing))
        assert code == 2 and out == ""
        assert err == f"error: {missing}: not a directory\n"

    def test_empty_corpus_directory(self, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("not an instance")
        code, out, err = run(capsys, "verify", "--corpus", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: {tmp_path}: no *.json instances\n"

    def test_duplicate_instance_names_name_both_files(self, capsys, tmp_path):
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(CORPUS.joinpath("fig1.json").read_text())
        code, out, err = run(capsys, "verify", "--corpus", str(tmp_path))
        assert code == 2 and out == ""
        assert err == "error: corpus: duplicate instance names: 'fig1' in a.json and b.json\n"


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "schedule", "/nonexistent/input.json")
        assert code == 2 and err.startswith("error: ")

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "deps", str(path))
        assert code == 2 and "invalid JSON" in err

    @pytest.mark.parametrize("argv", [["schedule"], ["deps"], ["fcg"], ["verify", "--corpus"]])
    def test_non_utf8_input_names_the_file(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        corpus = argv[0] == "verify"
        code, out, err = run(capsys, *argv, str(tmp_path if corpus else path))
        name = "bad.json" if corpus else str(path)
        assert code == 2 and out == ""
        assert err == f"error: {name}: not UTF-8: invalid start byte at byte 0\n"

    @pytest.mark.parametrize("argv", [["schedule"], ["deps"], ["fcg"], ["verify", "--corpus"]])
    @pytest.mark.parametrize("malformed", ["deep", "long"])
    def test_json_past_the_decoder_limits_is_bad_input(self, capsys, tmp_path, argv,
                                                       malformed):
        if malformed == "deep":
            text, message = "[" * 200_000, "maximum recursion depth exceeded"
        else:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if not limit:
                pytest.skip("int literals have no digit limit")
            text = ('{"statements": [{"id": "S", "iterators": ["i"], "domain": [[1, 0, '
                    + "9" * (limit + 1) + ', ">="]], "accesses": []}]}')
            message = f"Exceeds the limit ({limit} digits)"
        path = tmp_path / "bad.json"
        path.write_text(text)
        corpus = argv[0] == "verify"
        code, out, err = run(capsys, *argv, str(tmp_path if corpus else path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"invalid JSON: {message}" in err

    @pytest.mark.parametrize("accesses", [5, None])
    def test_non_list_accesses(self, capsys, tmp_path, accesses):
        path = tmp_path / "prog.json"
        path.write_text(json.dumps({"statements": [
            {"id": "S", "iterators": ["i"], "domain": [], "accesses": accesses}]}))
        code, _, err = run(capsys, "schedule", str(path))
        assert code == 2
        assert "statements[0].accesses: expected a list" in err

    def test_bad_envelope(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"program": {}, "bogus": 1}))
        code, _, err = run(capsys, "fcg", str(path))
        assert code == 2 and err == f"error: {path}: unknown keys ['bogus']\n"

    def test_corpus_holds_wrapped_instances_only(self, capsys, tmp_path):
        """`schedule`, `deps` and `fcg` take a bare program, but a corpus
        directory holds wrapped instances: a bare program there is bad
        input."""
        bare = json.loads(CORPUS.joinpath("fig1.json").read_text())["program"]
        (tmp_path / "fig1.json").write_text(json.dumps(bare))
        assert run(capsys, "deps", str(tmp_path / "fig1.json"))[0] == 0
        code, out, err = run(capsys, "verify", "--corpus", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: fig1.json: unknown keys ['params', 'statements']\n"

    @pytest.mark.parametrize("argv", [["schedule"], ["deps"], ["fcg"]])
    @pytest.mark.parametrize("text, message", [
        ("[" * 200_000, "invalid JSON: maximum recursion depth exceeded"),
        (json.dumps({"statements": [{"id": "S", "iterators": ["i"], "domain": [],
                                     "accesses": 5}]}),
         "statements[0].accesses: expected a list"),
        ("5", "top level must be an object"),
        (json.dumps({"name": "x", "program": {"statements": 3}}),
         "program.statements: expected a list"),
        (json.dumps({"statements": [{"id": "S\n", "iterators": [], "domain": []}]}),
         "statements[0].id: expected an identifier, got 'S\\n'"),
        (json.dumps({"statements": [{"id": "S", "iterators": [], "domain": []}],
                     "dependences": [{"src": "S", "dst": "S", "kind": "WAW",
                                      "relation": []}]}),
         "dependences[0].relation: pairs an instance of S with itself\n"),
    ], ids=["malformed", "bad-program", "top-level", "bad-instance", "newline-name",
            "reflexive"])
    def test_input_errors_name_the_file(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("program, message", [
        ({"statements": [{"id": "S", "iterators": ["i"], "domain": [[1, 0]],
                          "accesses": []}]},
         "bad.json: program.statements[0].domain[0]: expected 3 entries, got 2"),
        (5, "bad.json: program: top level must be an object"),
    ])
    def test_corpus_parse_error_names_the_file(self, capsys, tmp_path,
                                               program, message):
        (tmp_path / "fig1.json").write_text(CORPUS.joinpath("fig1.json").read_text())
        (tmp_path / "bad.json").write_text(
            json.dumps({"name": "bad", "program": program}))
        code, out, err = run(capsys, "verify", "--corpus", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_unschedulable_input(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(UNSCHEDULABLE))
        code, _, err = run(capsys, "schedule", str(path), "--algo", "lp")
        assert code == 3 and err.startswith("internal error: ")

    def test_uncolorable_input_exits_3(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(UNSCHEDULABLE))
        code, _, err = run(capsys, "schedule", str(path))
        assert code == 3
        assert err.startswith("internal error: no dimension of S can take color 1; ")

    def test_corpus_scheduling_error_names_instance_and_path(self, capsys, tmp_path):
        # The suite schedules on lp first, and lp refuses this one too.
        program = json.loads((FIXTURES / "unbounded_self_dependence.json").read_text())
        (tmp_path / "stuck.json").write_text(json.dumps({"name": "stuck", "program": program}))
        code, out, err = run(capsys, "verify", "--corpus", str(tmp_path))
        assert code == 3 and out == ""
        assert err == (f"internal error: stuck: lp: "
                       f"{REFUSALS['unbounded_self_dependence']['lp']}\n")

    def test_suite_check_error_names_instance_and_check(self, capsys, tmp_path):
        # A chain of 7 statements with 4 loops each, S{k} reading A{k-1} at
        # the point S{k-1} wrote: the paths schedule it, but the restricted
        # axis search of `restricted-scaling` has 4**7 assignments to try.
        box = [[int(j == k) for j in range(4)] + [0, 0, ">="] for k in range(4)] + \
              [[-int(j == k) for j in range(4)] + [1, -1, ">="] for k in range(4)]
        ident = [[int(j == k) for j in range(4)] + [0, 0] for k in range(4)]
        statements = [{"id": f"S{k}", "iterators": ["i", "j", "k", "l"], "domain": box,
                       "accesses": [{"array": f"A{k}", "kind": "write", "map": ident}]
                       + [{"array": f"A{k - 1}", "kind": "read", "map": ident}] * (k > 0)}
                      for k in range(7)]
        (tmp_path / "big.json").write_text(json.dumps({
            "name": "big", "flags": {"restricted": True},
            "program": {"params": ["N"], "statements": statements}}))
        code, out, err = run(capsys, "verify", "--corpus", str(tmp_path))
        assert code == 3 and out == ""
        assert err == ("internal error: big: restricted lp: axis search space too large "
                       "at level 1: 16384 assignments for statements "
                       "S0, S1, S2, S3, S4, S5, S6\n")

    def test_node_limit_exits_3_and_names_where(self, capsys, monkeypatch):
        monkeypatch.setattr(ratlp, "solve_ilp",
                            functools.partial(ratlp.solve_ilp, node_limit=1))
        code, _, err = run(capsys, "schedule", str(CORPUS.joinpath("scaling_pair.json")),
                           "--algo", "ilp")
        assert code == 3
        assert err == ("internal error: branch and bound node limit exceeded (1 nodes) "
                       "at level 1 for statements P, Q\n")

    def test_subcommand_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()
