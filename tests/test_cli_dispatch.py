"""The ``--algo`` table of ``conncluster.cli``.

Each entry must reach its solver through the name ``conncluster.cli``
binds, looked up when the entry runs: ``perfbench/tracer.py`` times the
solvers by rebinding those names, so an entry holding the function
object itself would run untimed.
"""

import functools
import importlib.util
import json
import pathlib

import pytest

from conncluster import cli, gen_random
from conncluster.model import instance_to_doc

SOLVERS = (
    "solve_disjoint",
    "solve_two_center_disjoint",
    "solve_assignment_given_centers",
    "pad_to_k",
    "tree_dp_solve",
    "solve_line_center_nondisjoint",
    "solve_line_diameter",
    "solve_tree_assignment",
    "solve_nondisjoint",
    "exact_disjoint",
    "exact_assignment",
    "exact_nondisjoint_center",
    "exact_nondisjoint_diameter",
    "exact_nondisjoint_center_with_witness",
    "exact_nondisjoint_diameter_with_witness",
)

FAMILIES = {
    "line": ("line", 6, 2, 7),
    "tree": ("tree", 7, 3, 5),
    "general": ("general", 7, 3, 3),
    "general-k2": ("general", 6, 2, 4),
    "lp": ("lp", 8, 3, 2),
}


#: Documents whose shape alone sends ``auto`` somewhere: a single point
#: is a path, and a path beside a cycle has n - 1 edges, two degree-1
#: ends and no degree above 2, yet is neither a path nor a tree.
SHAPES = {
    "point": {"n": 1, "k": 1, "metric": {"type": "explicit", "matrix": [[0]]}, "edges": []},
    "path-cycle": {
        "n": 5,
        "k": 2,
        "metric": {
            "type": "explicit",
            "matrix": [
                [0, 1, 2, 2, 2],
                [1, 0, 2, 2, 2],
                [2, 2, 0, 1, 1],
                [2, 2, 1, 0, 1],
                [2, 2, 1, 1, 0],
            ],
        },
        "edges": [[0, 1], [2, 3], [3, 4], [2, 4]],
    },
}


@pytest.fixture
def files(tmp_path):
    docs = {name: instance_to_doc(gen_random(family, n, k, seed))
            for name, (family, n, k, seed) in FAMILIES.items()}
    out = {}
    # the lp document's MST plus one chord: a cycle, so not a tree
    docs["lp-cycle"] = {**docs["lp"], "edges": [*docs["lp"]["edges"], [0, 1]]}
    for name, doc in {**docs, **SHAPES}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name] = str(path)
    return out


@pytest.fixture
def calls(monkeypatch):
    """Wrap every solver name bound in ``conncluster.cli``; the list
    collects ``(name, args, kwargs)`` of each call in order."""
    seen = []
    for name in SOLVERS:
        fn = getattr(cli, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            seen.append((_name, args, kwargs))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, functools.wraps(fn)(wrapper))
    return seen


CASES = [
    # auto's leaves
    ("auto", "line", ["--objective", "diameter"], "solve_line_diameter"),
    ("auto", "line", ["--mode", "non_disjoint"], "solve_line_center_nondisjoint"),
    ("auto", "general", ["--mode", "non_disjoint"], "solve_nondisjoint"),
    ("auto", "tree", [], "tree_dp_solve"),
    ("auto", "general-k2", [], "solve_two_center_disjoint"),
    ("auto", "general", [], "solve_disjoint"),
    ("auto", "lp", ["--objective", "diameter"], "tree_dp_solve"),
    # every --algo
    ("greedy", "general", ["--mode", "non_disjoint"], "solve_nondisjoint"),
    ("line", "line", ["--objective", "diameter"], "solve_line_diameter"),
    ("line", "line", ["--mode", "non_disjoint"], "solve_line_center_nondisjoint"),
    ("tree-dp", "tree", [], "tree_dp_solve"),
    ("tree-dp", "tree", ["--objective", "diameter"], "tree_dp_solve"),
    ("tree-assign", "tree", ["--centers", "0,3"], "solve_tree_assignment"),
    ("general", "general", [], "solve_disjoint"),
    ("lp", "lp", [], "solve_disjoint"),
    ("doubling", "general", [], "solve_disjoint"),
    ("two-center", "general-k2", [], "solve_two_center_disjoint"),
    ("assign", "general", ["--centers", "0,3"], "solve_assignment_given_centers"),
    ("oracle", "general", ["--centers", "0,3"], "exact_assignment"),
    ("oracle", "general", [], "exact_disjoint"),
    ("oracle", "general", ["--mode", "non_disjoint"], "exact_nondisjoint_center_with_witness"),
    ("oracle", "general", ["--mode", "non_disjoint", "--objective", "diameter"],
     "exact_nondisjoint_diameter_with_witness"),
    # auto on the shapes
    ("auto", "point", [], "tree_dp_solve"),
    ("auto", "point", ["--objective", "diameter"], "solve_line_diameter"),
    ("auto", "point", ["--mode", "non_disjoint"], "solve_line_center_nondisjoint"),
    ("auto", "path-cycle", [], "solve_two_center_disjoint"),
    ("auto", "path-cycle", ["--objective", "diameter"], "solve_disjoint"),
    ("auto", "path-cycle", ["--mode", "non_disjoint"], "solve_nondisjoint"),
]


@pytest.mark.parametrize("algo, family, extra, solver", CASES)
def test_every_algo_calls_its_solver_through_the_cli_binding(
    files, calls, capsys, algo, family, extra, solver
):
    code = cli.main(["solve", "--in", files[family], "--algo", algo, *extra])
    capsys.readouterr()
    assert code == 0
    assert [name for name, *_ in calls] == [solver]


def test_cases_cover_every_algo():
    assert {algo for algo, *_ in CASES} == set(cli.ALGORITHMS)


def test_exact_k_pads_through_the_cli_binding(files, calls, capsys):
    code = cli.main(["solve", "--in", files["general"], "--algo", "general", "--exact-k"])
    capsys.readouterr()
    assert code == 0
    assert [name for name, *_ in calls] == ["solve_disjoint", "pad_to_k"]


@pytest.mark.parametrize("family, strategy", [("general", "general"), ("lp-cycle", "lp")])
def test_auto_names_the_pipeline_strategy(files, calls, capsys, family, strategy):
    """Neither document is a tree nor has k=2: ``auto`` runs the lp
    pipeline where there are coordinates and the general one elsewhere."""
    code = cli.main(["solve", "--in", files[family]])
    capsys.readouterr()
    assert code == 0
    [(name, args, _)] = calls
    assert (name, args[2]) == ("solve_disjoint", strategy)


def test_solve_takes_no_seed(files, calls, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--in", files["general"], "--algo", "greedy",
                  "--mode", "non_disjoint", "--seed", "3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: conncluster ")
    assert captured.err.endswith("error: unrecognized arguments: --seed 3\n")
    assert calls == []


def test_lp_on_a_disconnected_explicit_document_is_refused_before_the_search(
    tmp_path, calls, capsys
):
    """Two components and k=1: the search would find no radius (exit 1),
    but the missing coordinates are found first (exit 3)."""
    path = tmp_path / "split.json"
    path.write_text(json.dumps({
        "n": 4, "k": 1, "metric": {"type": "explicit", "matrix": [
            [0, 1, 5, 5], [1, 0, 5, 5], [5, 5, 0, 1], [5, 5, 1, 0]]},
        "edges": [[0, 1], [2, 3]],
    }))
    code = cli.main(["solve", "--in", str(path), "--algo", "lp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: lp strategy needs an lp metric\n"
    assert captured.out == ""
    assert [name for name, *_ in calls] == ["solve_disjoint"]


def test_algo_choices_are_the_table_keys():
    parser = cli.build_parser()
    solve = parser._subparsers._group_actions[0].choices["solve"]
    (algo,) = [a for a in solve._actions if a.dest == "algo"]
    assert list(algo.choices) == list(cli.ALGORITHMS)


@pytest.mark.parametrize("mode, oracle", [("disjoint", "exact_disjoint"),
                                          ("non_disjoint", "exact_nondisjoint_center")])
def test_bench_runs_table_entries(files, calls, capsys, mode, oracle):
    code = cli.main(["bench", "--in", files["general"], "--algos", "auto,greedy", "--mode", mode])
    rows = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(rows) == 3
    expected = "solve_disjoint" if mode == "disjoint" else "solve_nondisjoint"
    assert [name for name, *_ in calls] == [oracle, expected, "solve_nondisjoint"]


def test_bench_rejects_unknown_algo_before_solving(files, calls, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", "--in", files["general"], "--algos", "auto,foo",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: unknown algorithm 'foo'\n"
    assert captured.out == ""
    assert not out.exists()
    assert calls == []


def test_cli_binds_every_traced_name():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name, _span in tracer.WRAPPED:
        mod = importlib.import_module(f"conncluster.{module}")
        assert callable(getattr(mod, name, None)), f"conncluster.{module}.{name}"
