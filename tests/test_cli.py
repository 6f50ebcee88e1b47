"""Command-line interface: exit codes, reports, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from insertproc import (check_consistency, check_k_dependence, cli,
                        complete_graph, graph_to_json_dict, kite_graph,
                        marginal, min_k_search, sample_exact)
from insertproc.cli import main
from insertproc.fixtures import fixture_names, fixture_text


@pytest.fixture()
def fixture_dir(tmp_path):
    for name in ("k2", "k3", "k4", "kite", "path4", "coloring3", "cyclic3"):
        (tmp_path / f"{name}.json").write_text(fixture_text(name))
    return tmp_path


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["insertproc", "insertproc.cli"])
@pytest.mark.parametrize("name, code", [("k3", 0), ("kite", 1)])
def test_python_dash_m_runs_the_command(fixture_dir, capsys, monkeypatch,
                                        module, name, code):
    # both module spellings run the command, with main's exit code and output
    monkeypatch.chdir(fixture_dir)
    argv = ["check-c", "--graph", f"{name}.json"]
    assert main(argv) == code
    want = capsys.readouterr().out
    assert want
    done = subprocess.run([sys.executable, "-m", module, *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (code, want)


def test_fixture_registry_complete():
    names = fixture_names()
    for expected in ("k2", "k3", "k4", "k5", "k6", "k22", "k222", "k2222",
                     "kite", "path4", "cycle5", "coloring3"):
        assert expected in names
    with pytest.raises(KeyError):
        fixture_text("nope")


def test_check_c_verified(fixture_dir, capsys):
    code, out = run_cli(["check-c", "--graph", str(fixture_dir / "k3.json"),
                         "--max-n", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert report["constants"]["1"] == "4"
    assert report["constants"]["2"] == "5"


def test_check_kdep_looped_graph_verifies(tmp_path, capsys):
    # an iid graph, every weight 114/113 including loops, so every gap
    # verifies; its scaled gap-3 sums exceed the int64 range
    weights = [[i, j, "114/113"] for i in range(4) for j in range(4)]
    path = tmp_path / "looped.json"
    path.write_text(json.dumps({"vertices": 4, "weights": weights}))
    code, out = run_cli(["check-kdep", "--graph", str(path), "--k", "3",
                         "--max-n", "1", "--max-m", "1"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["verified"] is True
    assert report["counterexample"] is None


def test_check_c_counterexample_exit(fixture_dir, capsys):
    code, out = run_cli(["check-c", "--graph", str(fixture_dir / "kite.json"),
                         "--max-n", "4"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verified"] is False
    assert report["counterexample"]["word"] is not None


def test_check_kdep_counterexample(fixture_dir, capsys):
    code, out = run_cli(["check-kdep", "--graph", str(fixture_dir / "k3.json"),
                         "--k", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["counterexample"]["x"] == [0]
    assert report["counterexample"]["y"] == [1]
    assert report["counterexample"]["lhs"] == "6"
    assert report["counterexample"]["expected"] == "8"


def test_check_kdep_verified(fixture_dir, capsys):
    code, out = run_cli(["check-kdep", "--graph", str(fixture_dir / "k4.json"),
                         "--k", "1"], capsys)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_check_kdep_consistency_failure(fixture_dir, capsys):
    code, out = run_cli(["check-kdep", "--graph", str(fixture_dir / "kite.json"),
                         "--k", "1"], capsys)
    assert code == 1
    assert "consistency_failure" in json.loads(out)


def test_min_k(fixture_dir, capsys):
    code, out = run_cli(["min-k", "--graph", str(fixture_dir / "k4.json"),
                         "--max-k", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["found"] == 1
    assert report["per_k"] == {"0": False, "1": True}

    code, out = run_cli(["min-k", "--graph", str(fixture_dir / "k2.json"),
                         "--max-k", "2"], capsys)
    assert code == 1
    assert json.loads(out)["found"] is None


def test_sample_ndjson(fixture_dir, capsys):
    code, out = run_cli(["sample", "--graph", str(fixture_dir / "k3.json"),
                         "--window", "3", "--count", "4", "--seed", "9"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        word = json.loads(line)
        assert len(word) == 3
        assert all(a != b for a, b in zip(word, word[1:]))


def test_sample_insertion_method(fixture_dir, capsys):
    code, out = run_cli(["sample", "--graph", str(fixture_dir / "k3.json"),
                         "--window", "4", "--count", "3", "--seed", "1",
                         "--method", "insertion"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_sft_certify(fixture_dir, capsys):
    code, out = run_cli(["sft", "--file", str(fixture_dir / "coloring3.json"),
                         "--certify"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["lr"]["K"] == 2
    assert report["certificate"]["verdict"] == "not_finitely_dependent"


def test_sft_flag_alias(fixture_dir, capsys):
    code_a, out_a = run_cli(["sft", "--sft", str(fixture_dir / "cyclic3.json")],
                            capsys)
    code_b, out_b = run_cli(["sft", "--file", str(fixture_dir / "cyclic3.json")],
                            capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_sft_violation_exit(fixture_dir, tmp_path, capsys):
    bad = {"q": 3, "n": 2, "allowed": [[0, 1], [0, 2], [1, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(["sft", "--sft", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["lr"]["is_constant"] is False


def test_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": 2, "weights": [[0, 1, ]}')
    code = main(["check-c", "--graph", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_exit_two(tmp_path, capsys):
    code = main(["check-c", "--graph", str(tmp_path / "absent.json")])
    assert code == 2


def test_bound_exceeded_exit_two(fixture_dir, capsys):
    code = main(["check-c", "--graph", str(fixture_dir / "k4.json"),
                 "--max-n", "20"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bound" in err


def test_one_vertex_window_exit_two(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"vertices": 1, "weights": [[0, 0, "1/1"]]}))
    code = main(["check-c", "--graph", str(path), "--max-n", "3000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "length 3000 > 24" in captured.err


def test_vertex_count_bound_exit_two(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": 10 ** 9, "weights": [[0, 1, "1"]]}))
    code = main(["analyze", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "table bound" in captured.err


def test_gap_bound_exit_two(fixture_dir, capsys):
    # min-k enforces the q**k middle bound at its largest gap, as check-kdep does
    for argv in (["check-kdep", "--k", "9"], ["min-k", "--max-k", "9"]):
        code = main(argv + ["--graph", str(fixture_dir / "k4.json")])
        assert code == 2, argv
        assert "gap enumeration bound" in capsys.readouterr().err


# (argv with "K4" for the K4 fixture, the API call on K4, refused): the
# refused sizes are past the bounds (4**12 > 10**7 words, 4**9 > 10**5
# middles), the allowed ones small, so no sweep runs near a bound
_BOUND_CASES = [
    (["check-c", "--graph", "K4", "--max-n", "12"],
     lambda g: check_consistency(g, 12), True),
    (["check-c", "--graph", "K4", "--max-n", "3"],
     lambda g: check_consistency(g, 3), False),
    (["check-c", "--graph", "K4", "--max-n", "1"],
     lambda g: check_consistency(g, 1), True),
    (["check-c", "--graph", "K4", "--max-n", "2"],
     lambda g: check_consistency(g, 2), False),
    (["check-kdep", "--graph", "K4", "--k", "-1", "--max-n", "2", "--max-m", "2"],
     lambda g: check_k_dependence(g, -1, 2, 2), True),
    (["check-kdep", "--graph", "K4", "--k", "0", "--max-n", "2", "--max-m", "2"],
     lambda g: check_k_dependence(g, 0, 2, 2), False),
    (["check-kdep", "--graph", "K4", "--k", "1", "--max-n", "11", "--max-m", "1"],
     lambda g: check_k_dependence(g, 1, 11, 1), True),
    (["check-kdep", "--graph", "K4", "--k", "9"],
     lambda g: check_k_dependence(g, 9), True),
    (["check-kdep", "--graph", "K4", "--k", "1", "--max-n", "2", "--max-m", "2"],
     lambda g: check_k_dependence(g, 1, 2, 2), False),
    (["min-k", "--graph", "K4", "--max-k", "1", "--max-n", "1", "--max-m", "11"],
     lambda g: min_k_search(g, 1, 1, 11), True),
    (["min-k", "--graph", "K4", "--max-k", "9"],
     lambda g: min_k_search(g, 9), True),
    (["min-k", "--graph", "K4", "--max-k", "1", "--max-n", "2", "--max-m", "2"],
     lambda g: min_k_search(g, 1, 2, 2), False),
    (["min-k", "--graph", "K4", "--max-k", "-1", "--max-n", "2", "--max-m", "2"],
     lambda g: min_k_search(g, -1, 2, 2), True),
    (["min-k", "--graph", "K4", "--max-k", "0", "--max-n", "2", "--max-m", "2"],
     lambda g: min_k_search(g, 0, 2, 2), False),
    (["sample", "--graph", "K4", "--window", "12"],
     lambda g: marginal(g, 12), True),
    (["sample", "--graph", "K4", "--window", "12", "--count", "0"],
     lambda g: sample_exact(g, 12, 0, 0), True),
    (["sample", "--graph", "K4", "--window", "3", "--count", "5"],
     lambda g: sample_exact(g, 3, 0, 5), False),
    (["sample", "--graph", "K4", "--window", "3", "--count", "-1"],
     lambda g: sample_exact(g, 3, 0, -1), True),
    (["sample", "--graph", "K4", "--window", "3", "--count", "0"],
     lambda g: sample_exact(g, 3, 0, 0), False),
    (["verify-identities", "--max-n", "8"],
     lambda g: cli.verify_identities(max_len=8), True),
    (["verify-identities", "--max-n", "3", "--threads", "0"],
     lambda g: cli.verify_identities(max_len=3, threads=0), True),
    (["verify-identities", "--max-n", "2"],
     lambda g: cli.verify_identities(max_len=2), False),
]


@pytest.mark.parametrize("argv, call, refused", _BOUND_CASES,
                         ids=[" ".join(a) for a, _, _ in _BOUND_CASES])
def test_api_and_cli_refuse_the_same_inputs(fixture_dir, capsys, argv, call,
                                            refused):
    k4 = str(fixture_dir / "k4.json")
    code = main([k4 if a == "K4" else a for a in argv])
    capsys.readouterr()
    try:
        call(complete_graph(4))
    except ValueError:
        api_refused = True
    else:
        api_refused = False
    assert (code == 2) == api_refused == refused


def test_sample_insertion_has_no_window_bound(fixture_dir, capsys):
    # 4**20 words are past the enumeration bound, but this sampler grows
    # one word and enumerates none
    code, out = run_cli(["sample", "--graph", str(fixture_dir / "k4.json"),
                         "--method", "insertion", "--window", "20",
                         "--count", "3"], capsys)
    assert code == 0
    words = [json.loads(line) for line in out.splitlines()]
    assert len(words) == 3
    for word in words:
        assert len(word) == 20
        assert all(a != b for a, b in zip(word, word[1:]))


@pytest.mark.parametrize("method, message", [
    ("exact", "no word of this length has positive building count"),
    ("insertion", "no insertion has positive weight"),
])
def test_edgeless_sample_exit_two(tmp_path, capsys, method, message):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"vertices": 2, "weights": []}))
    code = main(["sample", "--graph", str(path), "--window", "3",
                 "--method", method])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("name, doc, argv", [
    ("graph", {"vertices": True, "weights": [[False, False, "1"]]},
     ["check-c", "--graph"]),
    ("shift", {"q": 2, "n": 2, "allowed": [[0, 1], [True, 0]]},
     ["sft", "--sft"]),
])
def test_bool_document_exit_two(tmp_path, capsys, name, doc, argv):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert main(argv + [str(path)]) == 2
    assert f"invalid {name}" in capsys.readouterr().err


def test_verify_identities_pool_size(monkeypatch):
    # a fake Pool records the requested size and starts no process
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(cli, "Pool", FakePool)
    report = cli.verify_identities(max_len=2, threads=10 ** 6)
    assert report["all_passed"]
    assert sizes == [8]


def test_usage_error_exit_two(capsys):
    assert main(["check-c"]) == 2
    assert main(["no-such-command"]) == 2


def test_analyze_report(fixture_dir, capsys):
    code, out = run_cli(["analyze", "--graph", str(fixture_dir / "kite.json")],
                        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["vertices"] == 4
    assert report["kite"] == [0, 1, 2, 3]
    assert report["uniform_weight"]["is_uniform"] is True
    assert report["complete_multipartite"]["is_complete_multipartite"] is False


def test_analyze_path_graph(fixture_dir, capsys):
    code, out = run_cli(["analyze", "--graph", str(fixture_dir / "path4.json")],
                        capsys)
    report = json.loads(out)
    assert report["regular_out_degree"] is None
    assert report["directed_triangle"] is None


def test_report_determinism(fixture_dir, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["check-c", "--graph", str(fixture_dir / "k3.json"),
                     "--max-n", "4", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unwritable_out_exit_two(fixture_dir, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["check-c", "--graph", str(fixture_dir / "k3.json"),
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write")
    assert len(captured.err.splitlines()) == 1
    assert not target.exists()


@pytest.mark.parametrize("graph", [kite_graph(), complete_graph(3, 2)],
                         ids=["kite", "K3-weight-2"])
def test_min_k_and_check_kdep_report_the_same_consistency_failure(
        tmp_path, capsys, graph):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json_dict(graph)))
    code, out = run_cli(["min-k", "--graph", str(path), "--max-k", "2",
                         "--max-n", "3", "--max-m", "3"], capsys)
    assert code == 1
    failure = json.loads(out)["consistency_failure"]
    code, out = run_cli(["check-kdep", "--graph", str(path), "--k", "1",
                         "--max-n", "3", "--max-m", "3"], capsys)
    assert code == 1
    assert json.loads(out)["consistency_failure"] == failure
    assert " != " in failure


def test_pretty_flag(fixture_dir, capsys):
    code, out = run_cli(["check-c", "--graph", str(fixture_dir / "k3.json"),
                         "--max-n", "3", "--pretty"], capsys)
    assert code == 0
    assert out.startswith("{\n")
    json.loads(out)


def test_verify_identities_command(capsys):
    code, out = run_cli(["verify-identities", "--max-n", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["closed_forms"] == {"2": True, "3": True, "4": True}
    assert all(s["ok"] for s in report["sweeps"])


def test_verify_identities_threads(capsys):
    code_a, out_a = run_cli(["verify-identities", "--max-n", "3"], capsys)
    code_b, out_b = run_cli(["verify-identities", "--max-n", "3",
                             "--threads", "2"], capsys)
    assert code_a == code_b == 0
    assert out_a == out_b
