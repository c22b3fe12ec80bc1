import json
from importlib import resources

import pytest

from polysched.cli import main
from polysched.fcg import color_fcg, to_dot
from polysched.model import AffineTransform

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
        assert AffineTransform.from_json(json.loads(out)) == \
            dfp_results["fig1"].transform

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

    def test_dot_matches_library_rendering(self, capsys, by_name):
        code, out, _ = run(capsys, "fcg", FIG1, "--dot")
        assert code == 0
        inst = by_name["fig1"]
        coloring = color_fcg(inst.program, inst.deps)
        assert out == to_dot(inst.program, coloring.fcg, coloring)
        assert '"S1.i" -- "S2.i";' in out


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


class TestBench:
    def test_times_all_three_paths(self, capsys):
        code, out, _ = run(capsys, "bench", FIG1)
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == ["ilp", "lp", "dfp"]
        assert all(line.endswith("ms") for line in lines)


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "schedule", "/nonexistent/input.json")
        assert code == 2 and err.startswith("error: ")

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "deps", str(path))
        assert code == 2 and "invalid JSON" in err

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
        assert code == 2 and err.startswith("error: inst.json")

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

    def test_subcommand_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()
