import json
import subprocess
import sys

import pytest

from conncluster.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def line_file(tmp_path, capsys):
    path = tmp_path / "line.json"
    code, _, _ = run_cli(
        ["gen", "--family", "line", "--n", "6", "--k", "2", "--seed", "7",
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    return str(path)


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["gen", "--family", "tree", "--n", "7", "--k", "3", "--seed", "5",
             "--out", str(a)], capsys)
    run_cli(["gen", "--family", "tree", "--n", "7", "--k", "3", "--seed", "5",
             "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_gen_writes_annotation_side_file(tmp_path, capsys):
    out = tmp_path / "i2.json"
    code, _, _ = run_cli(
        ["gen", "--family", "worstcase-I", "--m", "2", "--out", str(out)], capsys
    )
    assert code == 0
    ann = json.loads((tmp_path / "i2.json.ann.json").read_text())
    assert ann["centers"] == [0, 1]


def test_solve_auto_disjoint_center(line_file, capsys):
    code, out, _ = run_cli(
        ["solve", "--in", line_file, "--objective", "center", "--mode", "disjoint"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["algorithm"] == "tree-dp"
    assert doc["report"]["feasible"] is True
    assert doc["clustering"]["value"] == doc["report"]["objective"]


def test_solve_output_bytes_deterministic(line_file, capsys):
    args = ["solve", "--in", line_file, "--algo", "greedy", "--mode", "non_disjoint"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_solve_round_trip_validate_eval(line_file, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    code, _, _ = run_cli(
        ["solve", "--in", line_file, "--out", str(sol)], capsys
    )
    assert code == 0
    cl_path = tmp_path / "cl.json"
    cl_path.write_text(json.dumps(json.loads(sol.read_text())["clustering"]))
    code, out, _ = run_cli(
        ["validate", "--in", line_file, "--clustering", str(cl_path)], capsys
    )
    assert code == 0
    assert json.loads(out)["feasible"] is True
    code, out, _ = run_cli(
        ["eval", "--in", line_file, "--clustering", str(cl_path)], capsys
    )
    assert code == 0
    assert json.loads(out)["matches"] is True


def test_validate_detects_violation(line_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"mode": "disjoint", "clusters": [[0, 2], [1, 3, 4, 5]], "centers": None}
        )
    )
    code, out, _ = run_cli(
        ["validate", "--in", line_file, "--clustering", str(bad)], capsys
    )
    assert code == 1
    assert json.loads(out)["violations"]


def test_solve_exact_k_pads(line_file, capsys):
    code, out, _ = run_cli(
        ["solve", "--in", line_file, "--algo", "general", "--exact-k"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["clustering"]["clusters"]) == 2


def test_solve_with_centers_oracle(tmp_path, capsys):
    gadget = tmp_path / "sat.json"
    run_cli(
        ["gen", "--family", "sat", "--formula", "1,2,3;-2,-3", "--out", str(gadget)],
        capsys,
    )
    code, out, _ = run_cli(
        ["solve", "--in", str(gadget), "--algo", "oracle", "--centers", "0,1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["report"]["objective"] == 1.0


def test_solve_oracle_nondisjoint_witness(line_file, capsys):
    code, out, _ = run_cli(
        ["solve", "--in", line_file, "--algo", "oracle", "--mode", "non_disjoint",
         "--objective", "diameter"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["algorithm"] == "oracle-nondisjoint"
    assert doc["report"]["objective"] == doc["clustering"]["value"]
    assert doc["report"]["feasible"] is True


def test_solve_tree_assign(line_file, capsys):
    code, out, _ = run_cli(
        ["solve", "--in", line_file, "--algo", "tree-assign", "--centers", "1,4"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["algorithm"] == "tree-assign"
    assert doc["report"]["feasible"] is True


def test_exit_code_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "k": 1}')
    code, _, err = run_cli(["solve", "--in", str(bad)], capsys)
    assert code == 2
    assert "error" in err


def test_exit_code_missing_file(capsys):
    code, _, _ = run_cli(["solve", "--in", "/nonexistent.json"], capsys)
    assert code == 2


def test_exit_code_precondition(line_file, capsys):
    # line algo refuses the disjoint center objective
    code, _, err = run_cli(
        ["solve", "--in", line_file, "--algo", "line", "--mode", "disjoint"], capsys
    )
    assert code == 3
    assert "tree-dp" in err


def test_exit_code_infeasible_assignment(tmp_path, capsys):
    # two far components and centers only in one of them
    inst = {
        "n": 4,
        "k": 2,
        "metric": {
            "type": "explicit",
            "matrix": [
                [0, 1, 5, 5],
                [1, 0, 5, 5],
                [5, 5, 0, 1],
                [5, 5, 1, 0],
            ],
        },
        "edges": [[0, 1], [2, 3]],
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(inst))
    code, _, _ = run_cli(
        ["solve", "--in", str(path), "--algo", "assign", "--centers", "0,1"], capsys
    )
    assert code == 1


def test_export_dot(line_file, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    run_cli(["solve", "--in", line_file, "--out", str(sol)], capsys)
    cl = tmp_path / "cl.json"
    cl.write_text(json.dumps(json.loads(sol.read_text())["clustering"]))
    code, out, _ = run_cli(
        ["export-dot", "--in", line_file, "--clustering", str(cl)], capsys
    )
    assert code == 0
    assert out.startswith("graph conncluster {")
    assert "peripheries=2" in out


def test_solve_lp_strategy_from_file(tmp_path, capsys):
    path = tmp_path / "lp.json"
    run_cli(
        ["gen", "--family", "lp", "--n", "15", "--k", "3", "--seed", "2",
         "--out", str(path)],
        capsys,
    )
    code, out, _ = run_cli(["solve", "--in", str(path), "--algo", "lp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["algorithm"] == "disjoint-lp"
    assert doc["report"]["objective"] <= doc["report"]["bound"]


def test_bench_csv(line_file, capsys):
    code, out, _ = run_cli(
        [
            "bench",
            "--in",
            line_file,
            "--algos",
            "auto,greedy",
            "--mode",
            "non_disjoint",
            "--objective",
            "center",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("instance,algo,n,k,value,oracle,ratio,seconds")
    assert len(lines) == 3


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conncluster.cli", "gen", "--family", "line",
         "--n", "4", "--k", "2", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 4


def test_exit_code_non_finite_distance(tmp_path, capsys):
    inst = {
        "n": 3,
        "k": 1,
        "metric": {
            "type": "explicit",
            "matrix": [[0, 1, float("inf")], [1, 0, 1], [float("inf"), 1, 0]],
        },
        "edges": [[0, 1], [1, 2]],
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(inst))  # writes the JSON token Infinity
    code, out, err = run_cli(["solve", "--in", str(path), "--algo", "general"], capsys)
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_tree_assign_rejects_more_centers_than_k(tmp_path, capsys):
    path = tmp_path / "tree.json"
    run_cli(
        ["gen", "--family", "tree", "--n", "8", "--k", "2", "--seed", "3",
         "--out", str(path)],
        capsys,
    )
    code, out, err = run_cli(
        ["solve", "--in", str(path), "--algo", "tree-assign", "--centers", "0,3,5,7"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert "k=2" in err


def test_bench_csv_out_file(line_file, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, stdout, _ = run_cli(
        ["bench", "--in", line_file, "--algos", "auto,greedy", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,algo,n,k,value,oracle,ratio,seconds"
    assert len(lines) == 3


@pytest.mark.parametrize("algo", ["tree-assign", "assign"])
def test_solve_rejects_center_id_out_of_range(tmp_path, capsys, algo):
    path = tmp_path / "tree.json"
    run_cli(
        ["gen", "--family", "tree", "--n", "8", "--k", "2", "--seed", "3",
         "--out", str(path)],
        capsys,
    )
    code, out, err = run_cli(
        ["solve", "--in", str(path), "--algo", algo, "--centers", "0,8"], capsys
    )
    assert code == 2
    assert out == ""
    assert "center ids [8] out of range for n=8" in err


@pytest.mark.parametrize("command", ["validate", "eval", "export-dot"])
def test_clustering_point_id_out_of_range(line_file, tmp_path, capsys, command):
    cl = tmp_path / "cl.json"
    cl.write_text(
        json.dumps({"mode": "disjoint", "clusters": [[0, 1, 2], [3, 4, 5, 6]],
                    "centers": [1, 4]})
    )
    code, out, err = run_cli(
        [command, "--in", line_file, "--clustering", str(cl)], capsys
    )
    assert code == 2
    assert out == ""
    assert "point ids [6] out of range for n=6" in err


@pytest.mark.parametrize(
    "clusters, centers",
    [
        ([[0, 1, 2], []], None),  # empty cluster
        ([[0, 1, 2], ["a", 3, 4, 5]], None),  # non-integer id
        ([[0, 1, 2], [3, 4, 5]], [1, 2]),  # center outside its cluster
    ],
)
def test_malformed_clustering_document_exits_2(
    line_file, tmp_path, capsys, clusters, centers
):
    cl = tmp_path / "cl.json"
    cl.write_text(
        json.dumps({"mode": "disjoint", "clusters": clusters, "centers": centers})
    )
    for command in ("validate", "eval", "export-dot"):
        code, out, err = run_cli(
            [command, "--in", line_file, "--clustering", str(cl)], capsys
        )
        assert code == 2
        assert out == ""
        assert "malformed clustering document" in err


def test_eval_rejects_unknown_objective(line_file, tmp_path, capsys):
    cl = tmp_path / "cl.json"
    cl.write_text(
        json.dumps({"mode": "disjoint", "clusters": [[0, 1, 2], [3, 4, 5]],
                    "centers": [1, 4], "objective": "median"})
    )
    code, out, err = run_cli(["eval", "--in", line_file, "--clustering", str(cl)], capsys)
    assert code == 2
    assert out == ""
    assert "unknown objective 'median'" in err


def _line3(**changes):
    doc = {
        "n": 3,
        "k": 2,
        "metric": {"type": "explicit", "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "edges": [[0, 1], [1, 2]],
    }
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_line3(n=True), '"n" must be a positive integer'),
        (_line3(k=True), '"k" must be an integer'),
        (_line3(edges=[[0, 1], [0.7, 2]]), "connectivity edges must be [u, v] pairs"),
        (
            _line3(metric={"type": "graph", "edges": [[0, 1, 1.0], [1.5, 2, 1.0]]}),
            "graph metric edges must be [u, v, weight] triples",
        ),
        (
            _line3(metric={"type": "explicit", "matrix": "abc"}),
            "explicit metric matrix entries must be numbers",
        ),
        (
            _line3(metric={"type": "lp", "coords": [["a"], ["b"], ["c"]], "p": 2}),
            "lp metric coords must be numbers",
        ),
        (
            _line3(metric={"type": "explicit",
                           "matrix": [[0, 1, float("nan")], [1, 0, 1], [float("nan"), 1, 0]]}),
            "distance matrix has non-finite entries",
        ),
        (_line3(labels=5), '"labels" must be a list of strings'),
    ],
    ids=["n-bool", "k-bool", "float-edge-id", "float-metric-edge-id", "string-matrix",
         "string-coords", "nan-matrix", "labels-not-a-list"],
)
def test_malformed_instance_document_exits_2(tmp_path, capsys, doc, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["solve", "--in", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_float_point_id_in_clustering_exits_2(line_file, tmp_path, capsys):
    cl = tmp_path / "cl.json"
    cl.write_text(json.dumps({"mode": "disjoint", "clusters": [[0.7, 1, 2], [3, 4, 5]]}))
    for command in ("validate", "eval", "export-dot"):
        code, out, err = run_cli(
            [command, "--in", line_file, "--clustering", str(cl)], capsys
        )
        assert code == 2
        assert out == ""
        assert "malformed clustering document: point id 0.7 is not an integer" in err


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"centers": None}, "the center objective needs a clustering with centers"),
        ({"value": "abc"}, "\"value\" must be a number, got 'abc'"),
    ],
)
def test_eval_rejects_unusable_clustering(line_file, tmp_path, capsys, changes, message):
    doc = {"mode": "disjoint", "clusters": [[0, 1, 2], [3, 4, 5]], "centers": [1, 4]}
    cl = tmp_path / "cl.json"
    cl.write_text(json.dumps({**doc, **changes}))
    code, out, err = run_cli(["eval", "--in", line_file, "--clustering", str(cl)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_transform_invariant_failure_exits_3(tmp_path, capsys):
    # a non-metric line: the fixed-center pipeline's transform needs the
    # triangle inequality and reports the broken invariant
    path = tmp_path / "line.json"
    run_cli(["gen", "--family", "line", "--n", "9", "--k", "2", "--seed", "5",
             "--out", str(path)], capsys)
    code, out, err = run_cli(
        ["solve", "--in", str(path), "--algo", "assign", "--centers", "0,4"], capsys
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: after layer 1: cluster of center 0 has radius 9.0")
