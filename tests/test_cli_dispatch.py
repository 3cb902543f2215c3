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


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, (family, n, k, seed) in FAMILIES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(instance_to_doc(gen_random(family, n, k, seed))))
        out[name] = str(path)
    return out


@pytest.fixture
def calls(monkeypatch):
    """Wrap every solver name bound in ``conncluster.cli``; the list
    collects ``(name, kwargs)`` of each call in order."""
    seen = []
    for name in SOLVERS:
        fn = getattr(cli, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            seen.append((_name, kwargs))
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
    ("auto", "lp", ["--objective", "diameter"], "solve_disjoint"),
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
]


@pytest.mark.parametrize("algo, family, extra, solver", CASES)
def test_every_algo_calls_its_solver_through_the_cli_binding(
    files, calls, capsys, algo, family, extra, solver
):
    code = cli.main(["solve", "--in", files[family], "--algo", algo, *extra])
    capsys.readouterr()
    assert code == 0
    assert [name for name, _ in calls] == [solver]


def test_cases_cover_every_algo():
    assert {algo for algo, *_ in CASES} == set(cli.ALGORITHMS)


def test_exact_k_pads_through_the_cli_binding(files, calls, capsys):
    code = cli.main(["solve", "--in", files["general"], "--algo", "general", "--exact-k"])
    capsys.readouterr()
    assert code == 0
    assert [name for name, _ in calls] == ["solve_disjoint", "pad_to_k"]


def test_greedy_passes_the_seed_and_auto_ignores_it(files, calls, capsys):
    for algo in ("greedy", "auto"):
        code = cli.main(["solve", "--in", files["general"], "--algo", algo,
                         "--mode", "non_disjoint", "--seed", "5"])
        assert code == 0
    capsys.readouterr()
    assert [name for name, _ in calls] == ["solve_nondisjoint"] * 2
    assert calls[0][1]["seed"] == 5
    assert calls[1][1].get("seed") is None


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
    assert [name for name, _ in calls] == [oracle, expected, "solve_nondisjoint"]


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
