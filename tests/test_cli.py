import builtins
import csv
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading

import pytest

import conncluster
from conncluster import cli
from conncluster.cli import main
from conncluster.model import (
    check_triangle_inequality,
    clustering_cost,
    clustering_from_doc,
    dist_leq,
    instance_to_doc,
    load_instance_file,
)
from conncluster.oracle import exact_nondisjoint_diameter


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


@pytest.mark.parametrize("family, broken", [("line", 76), ("tree", 72)])
def test_gen_metric_repair_closes_the_random_matrix(tmp_path, capsys, family, broken):
    """Random line and tree matrices break the triangle inequality unless
    ``--metric-repair`` replaces them by their shortest-path closure."""
    insts = []
    for repair in ([], ["--metric-repair"]):
        path = tmp_path / f"{family}{len(repair)}.json"
        code, _, _ = run_cli(["gen", "--family", family, "--n", "9", "--k", "2", "--seed", "1",
                              *repair, "--out", str(path)], capsys)
        assert code == 0
        insts.append(load_instance_file(str(path)))
    plain, repaired = insts
    assert plain.edges == repaired.edges
    assert len(check_triangle_inequality(plain)) == broken
    assert check_triangle_inequality(repaired) == []


def test_gen_writes_annotation_side_file(tmp_path, capsys):
    out = tmp_path / "i2.json"
    code, _, _ = run_cli(
        ["gen", "--family", "worstcase-I", "--m", "2", "--out", str(out)], capsys
    )
    assert code == 0
    ann = json.loads((tmp_path / "i2.json.ann.json").read_text())
    assert ann["centers"] == [0, 1]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


#: sha256 prefixes of ``gen --family sat``'s instance and annotations
SAT_DOC, SAT_ANN = "fd6eff73fea20a54", "cefd669e6b465450"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_gen_annotations_go_to_their_path(tmp_path, capsys, to_file):
    """``--annotations`` names the side file whether the instance goes to
    ``--out`` or to stdout; without it, ``<out>.ann.json`` is the path."""
    ann, out = tmp_path / "ann.json", tmp_path / "sat.json"
    argv = ["gen", "--family", "sat", "--annotations", str(ann)]
    code, stdout, err = run_cli(argv + ["--out", str(out)] * to_file, capsys)
    assert (code, err) == (0, "")
    doc = out.read_bytes() if to_file else stdout.encode()
    assert (_sha(doc), _sha(ann.read_bytes())) == (SAT_DOC, SAT_ANN)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.json", "sat.json"][: 1 + to_file]
    code, _, _ = run_cli(["gen", "--family", "sat", "--out", str(out)], capsys)
    assert code == 0
    assert _sha((tmp_path / "sat.json.ann.json").read_bytes()) == SAT_ANN


# The first 16 hex digits of the SHA-256 of the instance document and of
# the annotations (``{}`` for the random families) that ``gen`` writes
# for each argument list.
GEN_DIGESTS = {
    "--family worstcase-I --m 1": ("dc0acde39af75712", "e26f96cf327b3966"),
    "--family worstcase-I --m 2": ("0b17de245ca451da", "abc488ed8e144ed2"),
    "--family worstcase-I --m 3": ("ba474078af44d248", "00ecac3a238e51f3"),
    "--family worstcase-Iprime --m 2": ("75b638c56ce3c06b", "b3959489e99775fa"),
    "--family worstcase-Iprime --m 3": ("29c2836ddc3b083b", "0b75655b63490d3f"),
    "--family sat --variant two_center --formula 1,2;-1,-2": ("fd6eff73fea20a54", "cefd669e6b465450"),
    "--family sat --variant two_center --formula 1,-2,3;-1;2,3;-3": ("d6535764f0b8386c", "bdcbeebcafdaff16"),
    "--family sat --variant two_center --formula 200000": ("74ce16e108c699d8", "fa2f6c3e94a8bf12"),
    "--family sat --variant four_center --formula 1,2;-1,-2": ("a6bdc2d9eb97d35c", "aab99cffdd935db6"),
    "--family sat --variant four_center --formula 1,-2,3;-1;2,3;-3": ("17d2abac6d47be09", "c886df34ccee9104"),
    "--family sat --variant four_center --formula 200000": ("0447ad4d0142ffbc", "a7a50fe87cbda3d4"),
    "--family star-clique-cover --n 5 --k 2 --pairs 0,1;1,2;0,2;3,4": ("82016b3d8f47b805", "7c834a9ace11b7f9"),
    "--family star-set-cover --n 5 --k 2 --sets 0,1,2;2,3;3,4;1,4": ("38fba5cb1e6b9177", "8d72ded7b97f30a5"),
    "--family star-multicut --n 5 --k 2 --pairs 0,1;2,3;1,4": ("026971812be905ae", "d485dc2eb67d9d04"),
    "--family line --n 12 --k 3 --seed 1": ("1ba425487fac96e9", "ca3d163bab055381"),
    "--family line --n 12 --k 3 --seed 1 --metric-repair": ("8b78ecca2ed78a68", "ca3d163bab055381"),
    "--family line --n 12 --k 3 --seed 7": ("65eaecd86d0d04d6", "ca3d163bab055381"),
    "--family line --n 12 --k 3 --seed 7 --metric-repair": ("a874ab9710c8ab4d", "ca3d163bab055381"),
    "--family tree --n 12 --k 3 --seed 1": ("7b8c388fb90f0e1f", "ca3d163bab055381"),
    "--family tree --n 12 --k 3 --seed 1 --metric-repair": ("26763c572543bc9b", "ca3d163bab055381"),
    "--family tree --n 12 --k 3 --seed 7": ("273c3511a469e05f", "ca3d163bab055381"),
    "--family tree --n 12 --k 3 --seed 7 --metric-repair": ("5e5265d5b038841d", "ca3d163bab055381"),
    "--family general --n 12 --k 3 --seed 1": ("84732483660e2a74", "ca3d163bab055381"),
    "--family general --n 12 --k 3 --seed 1 --metric-repair": ("84732483660e2a74", "ca3d163bab055381"),
    "--family general --n 12 --k 3 --seed 7": ("780a38072db1ec22", "ca3d163bab055381"),
    "--family general --n 12 --k 3 --seed 7 --metric-repair": ("780a38072db1ec22", "ca3d163bab055381"),
    "--family lp --n 12 --k 3 --seed 1": ("29bea69ae29a0d47", "ca3d163bab055381"),
    "--family lp --n 12 --k 3 --seed 1 --metric-repair": ("29bea69ae29a0d47", "ca3d163bab055381"),
    "--family lp --n 12 --k 3 --seed 7": ("cc31c5a737a85d24", "ca3d163bab055381"),
    "--family lp --n 12 --k 3 --seed 7 --metric-repair": ("cc31c5a737a85d24", "ca3d163bab055381"),
}


@pytest.mark.parametrize("argv", list(GEN_DIGESTS))
def test_gen_bytes_are_pinned(tmp_path, capsys, argv):
    assert {a.split()[1] for a in GEN_DIGESTS} == set(cli.FAMILIES)
    ann = tmp_path / "ann.json"
    code, out, err = run_cli(["gen", *argv.split(), "--annotations", str(ann)], capsys)
    assert (code, err) == (0, "")
    assert (_sha(out.encode()), _sha(ann.read_bytes())) == GEN_DIGESTS[argv]


@pytest.mark.parametrize("family", ["line", "tree", "general", "lp"])
def test_gen_named_annotations_path_gets_a_file_for_every_family(tmp_path, capsys, family):
    """A family without annotations writes ``{}`` to a named
    ``--annotations`` path, with or without ``--out``; the implicit
    ``<out>.ann.json`` is written only for families with annotations."""
    ann, out = tmp_path / "ann.json", tmp_path / "inst.json"
    argv = ["gen", "--family", family, "--n", "5", "--k", "2", "--seed", "3"]
    code, stdout, err = run_cli(argv + ["--annotations", str(ann)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(stdout)["n"] == 5
    assert ann.read_text() == "{}\n"
    ann.unlink()
    code, _, _ = run_cli(argv + ["--annotations", str(ann), "--out", str(out)], capsys)
    assert code == 0 and ann.read_text() == "{}\n"
    ann.unlink()
    code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


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
    code, out, err = run_cli(["solve", "--in", "/nonexistent.json"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent.json'\n"


def test_exit_code_precondition(line_file, capsys):
    # line algo refuses the disjoint center objective
    code, _, err = run_cli(
        ["solve", "--in", line_file, "--algo", "line", "--mode", "disjoint"], capsys
    )
    assert code == 3
    assert "tree-dp" in err


@pytest.mark.parametrize(
    "family, argv, message",
    [
        ("tree", ["--algo", "line", "--objective", "diameter"], "not a path"),
        ("tree", ["--algo", "line", "--mode", "non_disjoint"], "not a path"),
        ("general", ["--algo", "line", "--objective", "diameter"], "not a path"),
        ("general", ["--algo", "line", "--mode", "non_disjoint"], "not a path"),
        ("general", ["--algo", "tree-dp"], "not a tree"),
        ("general", ["--algo", "tree-dp", "--objective", "diameter"], "not a tree"),
        ("general", ["--algo", "tree-assign", "--centers", "0,1"], "not a tree"),
    ],
)
def test_shape_preconditions_exit_3(tmp_path, capsys, family, argv, message):
    path = str(tmp_path / f"{family}.json")
    run_cli(["gen", "--family", family, "--n", "7", "--k", "3", "--seed", "1", "--out", path], capsys)
    code, out, err = run_cli(["solve", "--in", path, *argv], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: connectivity graph is {message}\n"


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


def _two_components(tmp_path, k):
    """A 4-point document whose connectivity graph is the edges 0-1 and 2-3."""
    path = tmp_path / f"two-k{k}.json"
    path.write_text(json.dumps({
        "n": 4, "k": k,
        "metric": {"type": "explicit",
                   "matrix": [[0, 1, 5, 5], [1, 0, 5, 5], [5, 5, 0, 1], [5, 5, 1, 0]]},
        "edges": [[0, 1], [2, 3]],
    }))
    return str(path)


@pytest.mark.parametrize(
    "k, argv, code, message",
    [
        (1, ["--algo", "general"], 1,
         "connectivity graph has more components than the cluster budget"),
        (2, ["--algo", "oracle", "--centers", "0,1"], 1,
         "no feasible assignment for the given centers"),
        (2, ["--algo", "assign", "--centers", "1,x"], 2, "cannot parse centers '1,x'"),
        (2, ["--algo", "assign"], 3, "assign needs --centers"),
        (2, ["--algo", "tree-assign"], 3, "tree-assign needs --centers"),
        (2, ["--algo", "greedy", "--mode", "non_disjoint", "--exact-k"], 3,
         "--exact-k needs a disjoint result"),
    ],
    ids=["general-infeasible", "oracle-infeasible-centers", "unparsable-centers",
         "assign-without-centers", "tree-assign-without-centers", "exact-k-non-disjoint"],
)
def test_solve_exits_with_its_code_and_message(tmp_path, capsys, k, argv, code, message):
    got = run_cli(["solve", "--in", _two_components(tmp_path, k), *argv], capsys)
    assert got == (code, "", f"error: {message}\n")


def test_validate_of_a_clustering_without_clusters_exits_2(line_file, tmp_path, capsys):
    cl = tmp_path / "cl.json"
    cl.write_text(json.dumps({"mode": "disjoint", "clusters": []}))
    got = run_cli(["validate", "--in", line_file, "--clustering", str(cl)], capsys)
    assert got == (
        2, "", "error: malformed clustering document: clustering needs at least one cluster\n"
    )


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


def test_bench_non_disjoint_diameter_fills_the_oracle_column(line_file, capsys):
    code, out, err = run_cli(["bench", "--in", line_file, "--algos", "greedy,line",
                              "--objective", "diameter", "--mode", "non_disjoint"], capsys)
    assert (code, err) == (0, "")
    optimum = exact_nondisjoint_diameter(load_instance_file(line_file))
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[1] for row in rows] == ["greedy", "line"]
    for row in rows:
        assert float(row[5]) == optimum > 0
        assert float(row[6]) == float(row[4]) / optimum
    assert float(rows[1][6]) == 1.0  # the line solver is exact


def _child_env():
    """The environment under which a child finds the package where this
    process found it."""
    src = os.path.dirname(os.path.dirname(conncluster.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conncluster.cli", "gen", "--family", "line",
         "--n", "4", "--k", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["n"] == 4


def test_out_of_memory_exits_2():
    """A request larger than the process may allocate exits 2 with a
    message, not a traceback.  The child's address space is capped at
    1 GiB, so the 3.2 GB matrix of ``gen --n 20000`` is refused at once and
    no memory is exhausted."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "conncluster", "gen", "--family", "line", "--n", "20000"],
        capture_output=True,
        text=True,
        env={**_child_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: out of memory: ")
    assert proc.stderr.count("\n") == 1


def test_out_of_memory_in_process_exits_2(monkeypatch, capsys):
    """The same exit in this process: a solver step that cannot allocate
    (here ``gen_random``, made to raise) exits 2 with the message."""
    def starved(*args, **kwargs):
        raise MemoryError("cannot allocate 3.2 GB")

    monkeypatch.setattr(cli.gens, "gen_random", starved)
    got = run_cli(["gen", "--family", "line", "--n", "20000"], capsys)
    assert got == (2, "", "error: out of memory: cannot allocate 3.2 GB\n")


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


@pytest.mark.parametrize(
    "coords, p",
    [
        ([[0.0], [1e-200]], 2),
        ([[0.0], [1e-10]], 40),
        ([[0.0, 1.0], [-0.0, 1.0], [1e-200, 1.0]], 2),  # -0.0 is 0.0: 0 and 1 may meet
    ],
)
def test_lp_distance_underflowing_to_zero_exits_2(tmp_path, capsys, coords, p):
    inst = {"n": len(coords), "k": 2, "metric": {"type": "lp", "coords": coords, "p": p},
            "edges": [[i, i + 1] for i in range(len(coords) - 1)]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(inst))
    code, out, err = run_cli(["solve", "--in", str(path), "--algo", "general"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: lp distance between points 0 and {len(coords) - 1} underflows to 0\n"


def test_gen_lp_with_underflowing_distances_exits_2(tmp_path, capsys):
    path = tmp_path / "lp.json"
    argv = ["gen", "--family", "lp", "--n", "20", "--k", "2", "--seed", "1", "--out", str(path)]
    code, out, err = run_cli(argv + ["--p", "1000"], capsys)
    assert code == 2
    assert err == "error: lp distance between points 0 and 2 underflows to 0\n"
    assert not path.exists()
    assert run_cli(argv + ["--p", "40"], capsys)[0] == 0


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


def test_bench_bytes(line_file, tmp_path, capsys):
    """A bench file's raw bytes, ``\\r\\n`` line ends included, and stdout's
    text are the same CSV; only the seconds column varies."""
    out = tmp_path / "bench.csv"
    argv = ["bench", "--in", line_file, "--algos", "auto,greedy"]
    assert run_cli(argv + ["--out", str(out)], capsys) == (0, "", "")
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0

    def untimed(raw):
        return re.sub(rb",\d+\.\d{4}\r\n", b",S\r\n", raw)

    want = (
        b"instance,algo,n,k,value,oracle,ratio,seconds\r\n"
        + f"{line_file},auto,6,2,6.0,6.0,1.0,S\r\n".encode()
        + f"{line_file},greedy,6,2,7.0,6.0,1.1666666666666667,S\r\n".encode()
    )
    assert untimed(out.read_bytes()) == want
    assert untimed(stdout.encode()) == want


@pytest.mark.parametrize("dim", [100, 300])
def test_lp_documents_past_99_coordinates_solve(tmp_path, capsys, dim):
    """The grid's color cycle once gave up at 100 coordinates, with a
    traceback and exit 1."""
    path = tmp_path / "lp.json"
    run_cli(["gen", "--family", "lp", "--n", "30", "--k", "3", "--dim", str(dim),
             "--seed", "0", "--out", str(path)], capsys)
    for extra in (["--algo", "lp"], ["--objective", "diameter"]):
        code, out, err = run_cli(["solve", "--in", str(path), *extra], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["report"]["feasible"]


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


@pytest.mark.parametrize("algo", ["oracle", "tree-assign", "assign"])
def test_solve_rejects_repeated_center_id(tmp_path, capsys, algo):
    path = tmp_path / "tree.json"
    run_cli(
        ["gen", "--family", "tree", "--n", "8", "--k", "2", "--seed", "3",
         "--out", str(path)],
        capsys,
    )
    code, out, err = run_cli(
        ["solve", "--in", str(path), "--algo", algo, "--centers", "1,4,1"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: center ids [1] repeated\n"


def test_oracle_rejects_more_centers_than_k(tmp_path, capsys):
    path = tmp_path / "tree.json"
    run_cli(
        ["gen", "--family", "tree", "--n", "8", "--k", "2", "--seed", "3",
         "--out", str(path)],
        capsys,
    )
    code, out, err = run_cli(
        ["solve", "--in", str(path), "--algo", "oracle", "--centers", "0,1,2"], capsys
    )
    assert code == 3
    assert out == ""
    assert err == "error: 3 centers exceed the budget k=2\n"


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
        (
            _line3(metric={"type": "explicit", "matrix": [[0, "1", 2], ["1", 0, 1], [2, 1, 0]]}),
            "explicit metric matrix entries must be numbers",
        ),
        (
            _line3(metric={"type": "explicit", "matrix": [[0, " 1", 2], [" 1", 0, 1], [2, 1, 0]]}),
            "explicit metric matrix entries must be numbers",
        ),
        (
            _line3(metric={"type": "explicit", "matrix": [[0, "1e0", 2], ["1e0", 0, 1], [2, 1, 0]]}),
            "explicit metric matrix entries must be numbers",
        ),
        (
            _line3(metric={"type": "explicit", "matrix": [[0, True, 2], [True, 0, 1], [2, 1, 0]]}),
            "explicit metric matrix entries must be numbers",
        ),
        (
            _line3(metric={"type": "lp", "coords": [["1"], [2], [3]], "p": 2}),
            "lp metric coords must be numbers",
        ),
        (
            _line3(metric={"type": "lp", "coords": [[True], [2], [3]], "p": 2}),
            "lp metric coords must be numbers",
        ),
        (
            _line3(metric={"type": "graph", "edges": [[0, 1, "1.5"], [1, 2, 1.0]]}),
            "graph metric edges must be [u, v, weight] triples",
        ),
        (
            _line3(metric={"type": "graph", "edges": [[0, 1, True], [1, 2, 1.0]]}),
            "graph metric edges must be [u, v, weight] triples",
        ),
        (
            # a NaN would make the kept parallel edge depend on edge order
            _line3(metric={"type": "graph",
                           "edges": [[0, 1, 1.0], [1, 0, float("nan")], [1, 2, 1.0]]}),
            "metric-graph edge weights must be finite and nonnegative",
        ),
        (
            _line3(metric={"type": "lp", "coords": [[0], [1], [2]], "p": True}),
            'lp metric "p" must be a number or "inf"',
        ),
        (
            _line3(metric={"type": "lp", "coords": [[0], [1], [2]], "p": "2"}),
            'lp metric "p" must be a number or "inf"',
        ),
        (
            _line3(metric={"type": "lp", "coords": [[0], [1], [2]], "p": " 3"}),
            'lp metric "p" must be a number or "inf"',
        ),
        (
            _line3(metric={"type": "graph", "edges": [[0, 1, 1e308], [1, 2, 1e308]]}),
            "distance matrix has non-finite entries",  # d(0, 2) overflows to inf
        ),
        # an object or a string iterates, but only an array holds edges
        (_line3(edges={}), "connectivity edges must be [u, v] pairs"),
        (_line3(edges=""), "connectivity edges must be [u, v] pairs"),
        (
            _line3(n=1, k=1, metric={"type": "graph", "edges": {}}, edges=[]),
            "graph metric edges must be [u, v, weight] triples",
        ),
        (
            _line3(n=1, k=1, metric={"type": "graph", "edges": ""}, edges=[]),
            "graph metric edges must be [u, v, weight] triples",
        ),
    ],
    ids=["n-bool", "k-bool", "float-edge-id", "float-metric-edge-id", "string-matrix",
         "string-coords", "nan-matrix", "labels-not-a-list", "numeric-string-matrix",
         "spaced-string-matrix", "exponent-string-matrix", "bool-matrix", "numeric-string-coords",
         "bool-coords", "string-graph-weight", "bool-graph-weight", "nan-graph-weight", "bool-p",
         "numeric-string-p", "spaced-string-p", "overflowing-graph-distance", "object-edges", "string-edges",
         "object-metric-edges", "string-metric-edges"],
)
def test_malformed_instance_document_exits_2(tmp_path, capsys, doc, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["solve", "--in", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_large_integer_distances_still_load(tmp_path, capsys):
    big = 2**64  # past int64: JSON integers have no bound
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_line3(
        metric={"type": "explicit", "matrix": [[0, big, 2**63], [big, 0, 1], [2**63, 1, 0]]}
    )))
    code, out, err = run_cli(["solve", "--in", str(path), "--algo", "line", "--objective", "diameter"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["report"]["objective"] == 1.0


@pytest.mark.parametrize("objective", ["center", "diameter"])
@pytest.mark.parametrize("algo", sorted(set(cli.ALGORITHMS) - {"two-center"}))  # k=2 needs n >= 2
def test_one_point_instance_searches_one_candidate(tmp_path, capsys, monkeypatch, algo, objective):
    from conncluster import disjoint, exact, greedy, oracle

    searched = []
    for module in (disjoint, exact, greedy, oracle):
        def spy(cands, probe, search=module.binary_search_min_feasible):
            searched.append(len(cands))
            return search(cands, probe)

        monkeypatch.setattr(module, "binary_search_min_feasible", spy)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(
        {"n": 1, "k": 1, "metric": {"type": "lp", "coords": [[0.5]], "p": 2}, "edges": []}
    ))
    args = ["solve", "--in", str(path), "--algo", algo, "--objective", objective]
    if algo in ("tree-assign", "assign", "oracle"):
        args += ["--centers", "0"]
    if algo == "line" and objective == "center":
        args += ["--mode", "non_disjoint"]  # the disjoint line center is tree-dp's
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["clustering"]["clusters"] == [[0]]
    assert doc["report"]["objective"] == 0.0
    assert searched and set(searched) == {1}


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
        # the loader's number rule: a numeric string or a boolean is no number
        ({"value": "2.0"}, "\"value\" must be a number, got '2.0'"),
        ({"value": True}, "\"value\" must be a number, got True"),
        ({"value": float("nan")}, "\"value\" must be a number, got nan"),
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


def test_parallel_metric_graph_edges_keep_the_shortest(tmp_path, capsys):
    doc = {
        "n": 3,
        "k": 1,
        "metric": {
            "type": "graph",
            "edges": [[0, 1, 1.0], [0, 1, 2.0], [1, 2, 5.0], [2, 1, 4.0]],
        },
        "edges": [[0, 1], [1, 2]],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        ["solve", "--in", str(path), "--algo", "oracle", "--objective", "diameter"], capsys
    )
    assert code == 0
    # d(0, 2) = 1 + 4 over the shortest parallel edges, not (1 + 2) + (5 + 4)
    assert json.loads(out)["report"]["objective"] == 5.0


def test_disconnected_metric_graph_exits_2_before_the_matrix(tmp_path, capsys):
    import tracemalloc

    n = 3000
    doc = {"n": n, "k": 1, "metric": {"type": "graph", "edges": [[0, 1, 1.0]]},
           "edges": [[0, 1]]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out, err = run_cli(["solve", "--in", str(path)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: metric graph is disconnected\n")
    assert peak < n * n  # an n x n float matrix takes 8 n^2 bytes


@pytest.mark.parametrize("n", [4, 3000])
def test_disconnected_metric_graph_with_n_minus_1_edges_exits_2_before_the_matrix(
    tmp_path, capsys, n
):
    """A cycle through every point but the last has n - 1 distinct edges,
    so the edge count lets it pass; the search over the edges refuses it.
    At n = 4 it is a triangle and an isolated point."""
    import tracemalloc

    cycle = [[i, (i + 1) % (n - 1), 1.0] for i in range(n - 1)]
    doc = {"n": n, "k": 1, "metric": {"type": "graph", "edges": cycle}, "edges": [[0, 1]]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out, err = run_cli(["solve", "--in", str(path)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: metric graph is disconnected\n")
    if n == 3000:
        assert peak < n * n  # an n x n float matrix takes 8 n^2 bytes


DIGITS = "9" * 5000  # past the interpreter's limit on integer-string conversion


def test_overlong_integer_literal_in_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"n": ' + DIGITS + ', "k": 1, "metric": {}, "edges": []}')
    code, out, err = run_cli(["solve", "--in", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: Exceeds the limit")


def test_overlong_integer_literal_in_clustering_exits_2(line_file, tmp_path, capsys):
    cl = tmp_path / "cl.json"
    cl.write_text('{"mode": "disjoint", "clusters": [[' + DIGITS + "]]}")
    code, out, err = run_cli(["validate", "--in", line_file, "--clustering", str(cl)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON: Exceeds the limit")



@pytest.mark.parametrize("kind", ["instance", "clustering"])
@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"n": 1, "labels": ["a\xffb"]}', "error: invalid JSON: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100000 + b"]" * 100000, "error: invalid JSON: maximum recursion depth exceeded"),
    ],
    ids=["non-utf8", "deep-nesting"],
)
def test_undecodable_document_exits_2(line_file, tmp_path, capsys, kind, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    if kind == "instance":
        argv = ["solve", "--in", str(path)]
    else:
        argv = ["validate", "--in", line_file, "--clustering", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(message)


@pytest.mark.parametrize("p", [1, 2, 3, "inf"])
def test_lp_coords_without_columns_give_zero_distances(tmp_path, capsys, p):
    path = tmp_path / "lp.json"
    path.write_text(json.dumps(_line3(metric={"type": "lp", "p": p, "coords": [[], [], []]})))
    code, out, err = run_cli(["solve", "--in", str(path), "--algo", "general"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)["report"]
    assert (report["objective"], report["bound"]) == (0.0, 0.0)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_lone_surrogate_label_exits_2(tmp_path, capsys, to_file):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_line3(labels=["a", "\ud800", "c"])))
    argv = ["export-dot", "--in", str(path)]
    if to_file:
        argv += ["--out", str(tmp_path / "g.dot")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", 'error: "labels" must be valid Unicode\n')


def test_export_dot_escapes_labels(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_line3(labels=['a"b', "c\\", "d\\n"])))
    code, out, _ = run_cli(["export-dot", "--in", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[2:5] == [
        '  0 [label="a\\"b"];',
        '  1 [label="c\\\\"];',
        '  2 [label="d\\\\n"];',
    ]


@pytest.mark.parametrize("encoding", ["utf-16", "utf-8-sig"])
def test_load_instance_bytes_follow_the_cli_encoding(tmp_path, capsys, encoding):
    """Instance bytes are UTF-8 without a byte-order mark, whether they
    reach ``load_instance`` or ``solve --in``."""
    doc = _line3(labels=["ä", "b", "c"])
    path = tmp_path / "inst.json"
    path.write_bytes(json.dumps(doc).encode(encoding))
    code, out, err = run_cli(["solve", "--in", str(path)], capsys)
    assert (code, out) == (2, "")
    with pytest.raises(conncluster.InstanceFormatError) as exc:
        conncluster.load_instance(path.read_bytes())
    assert err == f"error: {exc.value}\n"

    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    code, _, _ = run_cli(["solve", "--in", str(path)], capsys)
    assert code == 0
    assert conncluster.load_instance(path.read_bytes()).labels == ("ä", "b", "c")


@pytest.mark.parametrize("objective", ["center", "diameter"])
@pytest.mark.parametrize(
    "coords, p",
    [([[0], [2e-9], [1e19]], 2), ([[0], [5e-324], [1]], 1), ([[0], [2e-9], [1e300]], 1)],
    ids=["cell-past-int64", "subnormal-gap", "cell-overflows"],
)
def test_lp_grid_far_or_tiny_cells(tmp_path, capsys, coords, p, objective):
    """A grid cell index past 2**63 stays exact, and one that overflows to
    inf sends the lp pipeline to the general partition."""
    path = tmp_path / "inst.json"
    doc = {"n": 3, "k": 2, "metric": {"type": "lp", "coords": coords, "p": p},
           "edges": [[0, 1], [1, 2]]}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        ["solve", "--in", str(path), "--algo", "lp", "--objective", objective], capsys
    )
    assert (code, err) == (0, "")
    report = json.loads(out)["report"]
    assert report["feasible"] is True
    assert dist_leq(report["objective"], report["bound"])


def test_gen_unparsable_pair_exits_2(capsys):
    code, out, err = run_cli(
        ["gen", "--family", "star-clique-cover", "--n", "3", "--pairs", "0,x", "--k", "2"], capsys
    )
    assert (code, out, err) == (2, "", "error: cannot parse pair '0,x'\n")


def test_python_m_conncluster_matches_in_process(line_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "k": 1}')
    violating = tmp_path / "violating.json"
    violating.write_text(json.dumps({"mode": "disjoint", "clusters": [[0, 2], [1, 3, 4, 5]]}))
    by_code = {
        0: ["solve", "--in", line_file],
        1: ["validate", "--in", line_file, "--clustering", str(violating)],
        2: ["solve", "--in", str(bad)],
        3: ["solve", "--in", line_file, "--algo", "line", "--mode", "disjoint"],
    }
    for code, argv in by_code.items():
        want = run_cli(argv, capsys)
        proc = subprocess.run(
            [sys.executable, "-m", "conncluster", *argv],
            capture_output=True,
            env=_child_env(),
            timeout=120,
        )
        assert want[0] == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, want[1].encode(), want[2].encode()
        )


@pytest.fixture
def fresh_parser():
    """Drop the process's cached parser before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.fixture
def cl_file(line_file, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert run_cli(["solve", "--in", line_file, "--out", str(sol)], capsys)[0] == 0
    path = tmp_path / "cl.json"
    path.write_text(json.dumps(json.loads(sol.read_text())["clustering"]))
    return str(path)


def test_parser_is_built_once_per_process(line_file, cl_file, fresh_parser, monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for _ in range(3):
        for argv in (
            ["gen", "--family", "line", "--n", "5"],
            ["solve", "--in", line_file],
            ["validate", "--in", line_file, "--clustering", cl_file],
            ["eval", "--in", line_file, "--clustering", cl_file],
            ["export-dot", "--in", line_file],
            ["bench", "--in", line_file],
        ):
            assert main(argv) == 0
        with pytest.raises(SystemExit):
            main(["solve"])
    capsys.readouterr()
    assert builds == [1]


@pytest.mark.parametrize(
    "bad",
    [
        ["solve"],
        ["solve", "--in", "{in}", "--algo", "nope"],
        ["solve", "--in", "{in}", "--dim", "x"],
        ["solve", "--in", "{in}", "--bogus"],
    ],
    ids=["missing-in", "bad-algo", "bad-dim", "unknown-flag"],
)
def test_parse_failure_leaves_no_state(line_file, capsys, bad):
    bad = [line_file if arg == "{in}" else arg for arg in bad]
    good = ["solve", "--in", line_file]
    before = run_cli(good, capsys)
    with pytest.raises(SystemExit) as shared:
        main(bad)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(bad)
    want = capsys.readouterr()
    assert shared.value.code == fresh.value.code == 2
    assert want.err.startswith("usage: conncluster")
    assert (got.out, got.err) == ("", want.err)
    assert run_cli(good, capsys) == before


@pytest.mark.parametrize("columns", ["40", "100"])
@pytest.mark.parametrize(
    "command", [None, "gen", "solve", "validate", "eval", "export-dot", "bench"]
)
def test_help_matches_a_fresh_parser(fresh_parser, monkeypatch, capsys, command, columns):
    # the shared parser is built at another terminal width than the help is read at
    monkeypatch.setenv("COLUMNS", "60")
    assert main(["gen", "--family", "line"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    fresh = cli.build_parser()
    if command:
        fresh = fresh._subparsers._group_actions[0].choices[command]
    assert exc.value.code == 0
    assert capsys.readouterr().out == fresh.format_help()


def test_rebound_command_is_called_after_the_parser_exists(line_file, monkeypatch, capsys):
    assert run_cli(["solve", "--in", line_file], capsys)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.infile) or 3)
    assert main(["solve", "--in", line_file]) == 3
    assert seen == [line_file]


@pytest.mark.parametrize("kind", ["directory", "under-a-file"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--in", "{bad}"],
        ["validate", "--in", "{bad}", "--clustering", "{cl}"],
        ["eval", "--in", "{bad}", "--clustering", "{cl}"],
        ["export-dot", "--in", "{bad}"],
        ["bench", "--in", "{bad}"],
        ["validate", "--in", "{in}", "--clustering", "{bad}"],
        ["eval", "--in", "{in}", "--clustering", "{bad}"],
        ["export-dot", "--in", "{in}", "--clustering", "{bad}"],
        ["gen", "--family", "line", "--out", "{bad}"],
        ["solve", "--in", "{in}", "--out", "{bad}"],
        ["validate", "--in", "{in}", "--clustering", "{cl}", "--out", "{bad}"],
        ["eval", "--in", "{in}", "--clustering", "{cl}", "--out", "{bad}"],
        ["export-dot", "--in", "{in}", "--out", "{bad}"],
        ["bench", "--in", "{in}", "--out", "{bad}"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_os_error_on_a_path_exits_2(line_file, cl_file, tmp_path, capsys, argv, kind):
    if kind == "directory":
        bad, code = str(tmp_path), errno.EISDIR
    else:
        bad, code = os.path.join(line_file, "x"), errno.ENOTDIR
    paths = {"{in}": line_file, "{cl}": cl_file, "{bad}": bad}
    result = run_cli([paths.get(arg, arg) for arg in argv], capsys)
    assert result == (2, "", f"error: [Errno {code}] {os.strerror(code)}: {bad!r}\n")


@pytest.mark.parametrize("refused", ["in", "out"])
def test_permission_error_exits_2(line_file, tmp_path, monkeypatch, capsys, refused):
    # chmod cannot deny root a read, so ``open`` refuses the one path
    out = str(tmp_path / "out.json")
    target = line_file if refused == "in" else out
    real_open = builtins.open

    def refusing_open(file, *args, **kwargs):
        if file == target:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", refusing_open)
    result = run_cli(["solve", "--in", line_file, "--out", out], capsys)
    assert result == (2, "", f"error: [Errno 13] Permission denied: {target!r}\n")


def test_concurrent_requests_match_a_serial_run(line_file, cl_file, tmp_path, fresh_parser, capsys):
    docs = [line_file]
    for family, k in (("tree", 3), ("general", 2), ("lp", 3)):
        path = str(tmp_path / f"{family}.json")
        assert main(["gen", "--family", family, "--n", "9", "--k", str(k),
                     "--seed", "5", "--out", path]) == 0
        docs.append(path)
    requests = [
        argv
        for doc in docs
        for argv in (
            ["solve", "--in", doc],
            ["solve", "--in", doc, "--algo", "greedy", "--mode", "non_disjoint"],
            ["solve", "--in", doc, "--algo", "general", "--objective", "diameter"],
            ["validate", "--in", doc, "--clustering", cl_file],
            ["eval", "--in", doc, "--clustering", cl_file],
            ["export-dot", "--in", doc, "--clustering", cl_file],
        )
    ] * 3

    def run(outdir, i):
        out = outdir / f"{i}.out"
        return main(requests[i] + ["--out", str(out)]), out.read_bytes() if out.exists() else None

    serial_dir, threads_dir = tmp_path / "serial", tmp_path / "threads"
    serial_dir.mkdir()
    threads_dir.mkdir()
    serial = [run(serial_dir, i) for i in range(len(requests))]
    cli._parser.cache_clear()  # the four threads race to build it
    results = {}

    def worker(start):
        for i in range(start, len(requests), 4):
            try:
                results[i] = run(threads_dir, i)
            except Exception as exc:  # compared with the serial result below
                results[i] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    assert not any(t.is_alive() for t in threads)
    assert [results.get(i) for i in range(len(requests))] == serial
    assert {code for code, _ in serial} == {0, 1}


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["gen", "--family", "worstcase-I", "--m", "9"], 2, "error: m must be between 1 and 4\n"),
        (["gen", "--family", "worstcase-Iprime", "--m", "0"], 2, "error: m must be 2 or 3\n"),
        (["gen", "--family", "lp", "--p", "x"], 2, "error: cannot parse p 'x'\n"),
        (["gen", "--family", "lp", "--dim", "-1"], 2, "error: need dim >= 0\n"),
        (["gen", "--family", "star-set-cover", "--n", "4", "--sets", "1,x"], 2,
         "error: cannot parse set '1,x'\n"),
        (["gen", "--family", "sat", "--formula", "1,2;-1,y"], 2,
         "error: cannot parse clause '-1,y'\n"),
        (["gen", "--family", "star-multicut", "--n", "4", "--pairs", "0,1;1,2,3"], 2,
         "error: cannot parse pair '1,2,3'\n"),
        (["gen", "--family", "nope"], 2, "error: unknown family 'nope'\n"),
        (["solve", "--in", "{line}", "--algo", "oracle", "--mode", "non_disjoint"], 3,
         "error: n=13 exceeds enumeration limit 12\n"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_bad_gen_arguments_and_oracle_limits_exit_without_traceback(
    tmp_path, capsys, argv, code, err
):
    line = str(tmp_path / "line.json")
    run_cli(["gen", "--family", "line", "--n", "13", "--k", "5", "--seed", "1", "--out", line],
            capsys)
    assert run_cli([line if a == "{line}" else a for a in argv], capsys) == (code, "", err)


@pytest.mark.parametrize("family", ["tree", "general"])
def test_line_disjoint_center_off_a_path_names_the_shape(tmp_path, capsys, family):
    # the shape, not the tree-dp hint, which leads nowhere on a general graph
    path = str(tmp_path / f"{family}.json")
    run_cli(["gen", "--family", family, "--n", "7", "--k", "3", "--seed", "1", "--out", path],
            capsys)
    result = run_cli(["solve", "--in", path, "--algo", "line"], capsys)
    assert result == (3, "", "error: connectivity graph is not a path\n")


#: For each ``--algo`` entry, metric documents (family, n, k, seed) it
#: accepts and the extra arguments it needs.
ACCEPTED = {
    "auto": [("line", 7, 3, 1), ("tree", 8, 2, 4), ("general", 7, 2, 2), ("lp", 8, 3, 3)],
    "greedy": [("general", 7, 3, 1), ("tree", 8, 2, 4)],
    "line": [("line", 7, 3, 1), ("line", 8, 2, 5)],
    "tree-dp": [("tree", 8, 2, 4), ("tree", 9, 3, 6)],
    "tree-assign": [("tree", 8, 2, 4), ("tree", 9, 3, 6)],
    "general": [("general", 7, 3, 1)],
    "lp": [("lp", 8, 3, 3)],
    "doubling": [("general", 7, 3, 1)],
    "two-center": [("tree", 8, 2, 4), ("general", 7, 2, 2), ("general", 8, 2, 9)],
    "assign": [("general", 7, 3, 1), ("tree", 8, 2, 4)],
    "oracle": [("general", 6, 2, 1), ("tree", 7, 2, 4)],
}
CENTERS = {"tree-assign": ["--centers", "0,5"], "assign": ["--centers", "0,5"]}


def _metric_doc(tmp_path, family, n, k, seed):
    path = tmp_path / f"{family}-{n}-{k}-{seed}.json"
    inst = conncluster.gen_random(family, n, k, seed, metric_repair=True)
    path.write_text(json.dumps(instance_to_doc(inst)))
    return str(path)


@pytest.mark.parametrize("objective", ["center", "diameter"])
@pytest.mark.parametrize("algo", sorted(ACCEPTED))
def test_report_objective_is_the_emitted_clusterings_value(tmp_path, capsys, algo, objective):
    assert set(ACCEPTED) == set(cli.ALGORITHMS)
    # the line sweeps answer disjoint center only through tree-dp
    mode = "non_disjoint" if algo == "line" and objective == "center" else "disjoint"
    for doc in ACCEPTED[algo]:
        path = _metric_doc(tmp_path, *doc)
        code, out, err = run_cli(["solve", "--in", path, "--algo", algo, "--objective", objective,
                                  "--mode", mode, *CENTERS.get(algo, [])], capsys)
        assert (code, err) == (0, ""), (doc, err)
        solved = json.loads(out)
        report = solved["report"]
        assert solved["clustering"]["objective"] == objective
        assert report["objective"] == solved["clustering"]["value"], (doc, solved)
        emitted = clustering_from_doc(solved["clustering"])
        assert clustering_cost(load_instance_file(path), emitted, objective) == report["objective"]
        assert report["bound"] is None or dist_leq(report["objective"], report["bound"])
        if algo in CENTERS:  # bench passes no centers
            continue
        code, out, _ = run_cli(["bench", "--in", path, "--algos", algo, "--objective", objective,
                                "--mode", mode], capsys)
        assert code == 0
        assert float(out.splitlines()[1].split(",")[4]) == report["objective"], (doc, out)


def test_center_only_entries_report_the_diameter_of_their_clustering(tmp_path, capsys):
    # a seeded tree whose matrix is not repaired into a metric
    path = str(tmp_path / "tree.json")
    run_cli(["gen", "--family", "tree", "--n", "8", "--k", "2", "--seed", "4", "--out", path],
            capsys)
    for algo in ("tree-assign", "tree-dp", "two-center"):
        argv = ["solve", "--in", path, "--algo", algo, *CENTERS.get(algo, [])]
        center = json.loads(run_cli(argv, capsys)[1])["report"]
        solved = json.loads(run_cli([*argv, "--objective", "diameter"], capsys)[1])
        assert solved["report"]["objective"] == solved["clustering"]["value"]
        assert solved["report"]["algorithm"] == center["algorithm"] == algo
        # twice the radius bound, or none where the matrix breaks it
        assert solved["report"]["bound"] in (None, 2 * center["bound"])


@pytest.mark.parametrize("seed", range(6))
def test_bench_center_only_diameter_ratio_is_at_least_one(tmp_path, capsys, seed):
    path = _metric_doc(tmp_path, "tree", 8, 2, seed)
    code, out, _ = run_cli(["bench", "--in", path, "--algos", "two-center,tree-dp",
                            "--objective", "diameter"], capsys)
    assert code == 0
    for row in out.splitlines()[1:]:
        value, oracle, ratio = row.split(",")[4:7]
        assert dist_leq(float(oracle), float(value)), row
        assert ratio == "" or float(ratio) >= 1.0 - 1e-9, row


def test_bench_oracle_limit_defaults_to_the_oracles_own(tmp_path, capsys):
    """An 11-point document is inside the oracles' default size limit, so
    bench fills the oracle and ratio columns."""
    path = str(tmp_path / "g11.json")
    run_cli(["gen", "--family", "general", "--n", "11", "--k", "3", "--seed", "1",
             "--out", path], capsys)
    code, out, _ = run_cli(["bench", "--in", path, "--algos", "greedy"], capsys)
    assert code == 0
    (row,) = out.splitlines()[1:]
    value, oracle, ratio = row.split(",")[4:7]
    assert float(oracle) > 0 and float(ratio) == float(value) / float(oracle)


def test_bench_leaves_the_oracle_cells_empty_past_the_oracles_limit(tmp_path, capsys):
    """The oracles decline a 13-point document at once, so its oracle and
    ratio cells stay empty while the algorithm's value is written."""
    path = str(tmp_path / "g13.json")
    run_cli(["gen", "--family", "general", "--n", "13", "--k", "3", "--seed", "1",
             "--out", path], capsys)
    code, out, err = run_cli(["bench", "--in", path, "--algos", "greedy"], capsys)
    assert (code, err) == (0, "")
    (row,) = out.splitlines()[1:]
    assert row.split(",")[1:4] == ["greedy", "13", "3"]
    value, oracle, ratio = row.split(",")[4:7]
    assert float(value) > 0 and oracle == ratio == ""


@pytest.mark.parametrize("objective", ["center", "diameter"])
@pytest.mark.parametrize("algo", ["auto", "greedy", "line", "tree-dp", "general", "oracle"])
def test_zero_cost_prints_as_positive_zero(tmp_path, capsys, algo, objective):
    """Distances of -0.0 load; a cost over them prints as 0.0, not -0.0."""
    doc = {"n": 2, "k": 1, "metric": {"type": "explicit", "matrix": [[0.0, -0.0], [-0.0, 0.0]]},
           "edges": [[0, 1]]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    mode = "non_disjoint" if algo == "line" and objective == "center" else "disjoint"
    code, out, err = run_cli(["solve", "--in", str(path), "--algo", algo,
                              "--objective", objective, "--mode", mode], capsys)
    assert (code, err) == (0, "")
    assert '"objective": 0.0\n' in out and '"value": 0.0\n' in out
    assert "-0.0" not in out


@pytest.mark.parametrize("dim", ["0", "-1"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_doubling_dimension_below_one_exits_3(tmp_path, capsys, command, dim):
    path = str(tmp_path / "general.json")
    run_cli(["gen", "--family", "general", "--n", "12", "--k", "3", "--seed", "1",
             "--out", path], capsys)
    algo = "--algo" if command == "solve" else "--algos"
    code, out, err = run_cli([command, "--in", path, algo, "doubling", f"--dim={dim}"], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: doubling dimension must be at least 1, got {dim}\n"


def test_doubling_dimension_too_small_for_the_layers_exits_3(tmp_path, capsys):
    path = str(tmp_path / "lp.json")
    run_cli(["gen", "--family", "lp", "--n", "80", "--k", "40", "--dim", "3", "--seed", "0",
             "--out", path], capsys)
    code, out, err = run_cli(["solve", "--in", path, "--algo", "doubling", "--dim=1"], capsys)
    assert (code, out) == (3, "")
    assert err == ("error: the centers need 20 layers, more than the 16 a metric of "
                   "doubling dimension 1 allows\n")
    code, out, err = run_cli(["solve", "--in", path, "--algo", "doubling", "--dim=3"], capsys)
    assert (code, err) == (0, "")


def test_sat_gadget_builds_points_only_for_used_variables(capsys):
    code, out, _ = run_cli(["gen", "--family", "sat", "--formula", "200000"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert doc["labels"] == ["T", "F", "x200000", "~x200000", "a200000", "b1"]


# Exit code and the first 16 hex digits of the stdout's SHA-256 of every
# solve of a 4-point path whose distances are all half the float range.
# Greedy center grows at 2r, the largest float, whose tolerant bound
# overflows to inf.
HALF_MAX_SOLVES = {
    ("auto", "center", "disjoint"): (0, "474df7e4d142002f"),
    ("auto", "center", "non_disjoint"): (0, "cd7483a2d7ac0262"),
    ("auto", "diameter", "disjoint"): (0, "7fde0f40fa38bb03"),
    ("auto", "diameter", "non_disjoint"): (0, "7fde0f40fa38bb03"),
    ("greedy", "center", "disjoint"): (0, "b1c4df3ad840676d"),
    ("greedy", "center", "non_disjoint"): (0, "b1c4df3ad840676d"),
    ("greedy", "diameter", "disjoint"): (0, "500bb2344f337c95"),
    ("greedy", "diameter", "non_disjoint"): (0, "500bb2344f337c95"),
    ("line", "center", "disjoint"): (3, "e3b0c44298fc1c14"),
    ("line", "center", "non_disjoint"): (0, "cd7483a2d7ac0262"),
    ("line", "diameter", "disjoint"): (0, "7fde0f40fa38bb03"),
    ("line", "diameter", "non_disjoint"): (0, "7fde0f40fa38bb03"),
    ("tree-dp", "center", "disjoint"): (0, "474df7e4d142002f"),
    ("tree-dp", "center", "non_disjoint"): (0, "474df7e4d142002f"),
    ("tree-dp", "diameter", "disjoint"): (0, "74b01775161bfcb4"),
    ("tree-dp", "diameter", "non_disjoint"): (0, "74b01775161bfcb4"),
    ("tree-assign", "center", "disjoint"): (0, "6dd41678a08066aa"),
    ("tree-assign", "center", "non_disjoint"): (0, "6dd41678a08066aa"),
    ("tree-assign", "diameter", "disjoint"): (0, "e8ae973860488ed3"),
    ("tree-assign", "diameter", "non_disjoint"): (0, "e8ae973860488ed3"),
    ("general", "center", "disjoint"): (0, "b769ee59be900ad6"),
    ("general", "center", "non_disjoint"): (0, "b769ee59be900ad6"),
    ("general", "diameter", "disjoint"): (0, "68e663427a0dda7f"),
    ("general", "diameter", "non_disjoint"): (0, "68e663427a0dda7f"),
    ("lp", "center", "disjoint"): (3, "e3b0c44298fc1c14"),
    ("lp", "center", "non_disjoint"): (3, "e3b0c44298fc1c14"),
    ("lp", "diameter", "disjoint"): (3, "e3b0c44298fc1c14"),
    ("lp", "diameter", "non_disjoint"): (3, "e3b0c44298fc1c14"),
    ("doubling", "center", "disjoint"): (0, "a0911741107340ae"),
    ("doubling", "center", "non_disjoint"): (0, "a0911741107340ae"),
    ("doubling", "diameter", "disjoint"): (0, "c6dff4767131f898"),
    ("doubling", "diameter", "non_disjoint"): (0, "c6dff4767131f898"),
    ("two-center", "center", "disjoint"): (0, "457f1f9ef73ee8c7"),
    ("two-center", "center", "non_disjoint"): (0, "457f1f9ef73ee8c7"),
    ("two-center", "diameter", "disjoint"): (0, "7611598cb38e5f48"),
    ("two-center", "diameter", "non_disjoint"): (0, "7611598cb38e5f48"),
    ("assign", "center", "disjoint"): (0, "aa69f17d70031342"),
    ("assign", "center", "non_disjoint"): (0, "aa69f17d70031342"),
    ("assign", "diameter", "disjoint"): (0, "fd33174d7d7df452"),
    ("assign", "diameter", "non_disjoint"): (0, "fd33174d7d7df452"),
    ("oracle", "center", "disjoint"): (0, "86b04e4c70116c7b"),
    ("oracle", "center", "non_disjoint"): (0, "cdf1f8e1da14668b"),
    ("oracle", "diameter", "disjoint"): (0, "10e120e5b8ac675c"),
    ("oracle", "diameter", "non_disjoint"): (0, "8d55326024df7afe"),
}


@pytest.mark.parametrize("algo, objective, mode", sorted(HALF_MAX_SOLVES))
def test_half_float_range_distances_solve_without_warning(tmp_path, capsys, algo, objective, mode):
    # any warning fails the test (pyproject.toml), the overflow too
    assert {a for a, _, _ in HALF_MAX_SOLVES} == set(cli.ALGORITHMS)
    half = sys.float_info.max / 2
    matrix = [[0.0 if i == j else half for j in range(4)] for i in range(4)]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(
        {"n": 4, "k": 2, "metric": {"type": "explicit", "matrix": matrix},
         "edges": [[0, 1], [1, 2], [2, 3]]}
    ))
    centers = ["--centers", "0,2"] if algo in ("tree-assign", "assign") else []
    code, out, _ = run_cli(["solve", "--in", str(path), "--algo", algo, "--objective", objective,
                            "--mode", mode, *centers], capsys)
    digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert (code, digest) == HALF_MAX_SOLVES[algo, objective, mode]
