"""One rule for the point ids a caller hands in (``model.point_ids`` and
``model.center_set``): every entry that takes a center set, a clustering
or a clustering document refuses the same ids with the same class and
message, and takes NumPy integers, arrays, ranges and tuples alike."""

import json

import numpy as np
import pytest

from conncluster import (
    CENTER,
    AlgorithmPreconditionError,
    InstanceFormatError,
    clustering,
    exact_assignment,
    gen_random,
    greedy_with_given_centers,
    partition_doubling,
    partition_general_metric,
    partition_lp,
    partition_two_centers,
    solve_assignment_given_centers,
    solve_tree_assignment,
    tree_assignment,
    validate_clustering,
    verify_wsp,
)
from conncluster.cli import main
from conncluster.wsp import WellSeparatedPartition

INST = gen_random("tree", 8, 3, 3)
COORDS = gen_random("lp", 8, 3, 3).coords
ONE_GROUP = WellSeparatedPartition(1.0, ((frozenset({1, 4}),),), (0.0,))

#: Every library entry that takes a center set, as a function of it.
CENTER_ENTRIES = {
    "tree_assignment": lambda C: tree_assignment(INST, C, 1.0),
    "solve_tree_assignment": lambda C: solve_tree_assignment(INST, C),
    "solve_assignment_given_centers": lambda C: solve_assignment_given_centers(INST, C, CENTER),
    "greedy_with_given_centers": lambda C: greedy_with_given_centers(INST, C, 1.0),
    "exact_assignment": lambda C: exact_assignment(INST, C, CENTER),
    "partition_general_metric": lambda C: partition_general_metric(INST.dist, C, 1.0),
    "partition_lp": lambda C: partition_lp(COORDS, 2, C, 1.0),
    "partition_doubling": lambda C: partition_doubling(INST.dist, C, 1.0, 2),
    "partition_two_centers": lambda C: partition_two_centers(INST.dist, C, 1.0),
    "verify_wsp": lambda C: verify_wsp(INST.dist, C, ONE_GROUP),
}

REFUSED = [
    ([1.7, 4], "center id 1.7 is not an integer"),
    ([True, 4], "center id True is not an integer"),
    (["1", 4], "center id '1' is not an integer"),
    ([None], "center id None is not an integer"),
    ([], "need at least one center"),
    ([0, 0], "center ids [0] repeated"),
    ([8], "center ids [8] out of range for n=8"),
    ([-1], "center ids [-1] out of range for n=8"),
]


@pytest.mark.parametrize("entry", CENTER_ENTRIES)
@pytest.mark.parametrize("centers, message", REFUSED)
def test_every_center_entry_refuses_alike(entry, centers, message):
    with pytest.raises(InstanceFormatError) as info:
        CENTER_ENTRIES[entry](centers)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", CENTER_ENTRIES)
def test_every_center_entry_takes_any_integer_sequence(entry):
    want = CENTER_ENTRIES[entry]([1, 4])
    for alike in ((4, 1), np.array([1, 4]), [np.int64(1), np.int32(4)], range(1, 5, 3)):
        assert CENTER_ENTRIES[entry](alike) == want


@pytest.mark.parametrize(
    "entry", ["solve_tree_assignment", "solve_assignment_given_centers"]
)
def test_solvers_that_consume_centers_check_the_budget(entry):
    with pytest.raises(AlgorithmPreconditionError) as info:
        CENTER_ENTRIES[entry]([0, 1, 2, 5])
    assert str(info.value) == "4 centers exceed the budget k=3"


@pytest.mark.parametrize(
    "clusters, centers, message",
    [
        ([[1.7]], None, "point id 1.7 is not an integer"),
        ([[1, True]], None, "point id True is not an integer"),
        ([range(8)], ["1"], "point id '1' is not an integer"),
        ([range(8)], [None], "point id None is not an integer"),
    ],
)
def test_clustering_refuses_ids_that_are_not_integers(clusters, centers, message):
    with pytest.raises(InstanceFormatError) as info:
        clustering(clusters, centers)
    assert str(info.value) == message


def test_clustering_takes_numpy_integers_as_python_ints():
    got = clustering([np.arange(4), (4, 5), range(6, 8)], np.array([0, 4, 6]))
    assert got == clustering([[0, 1, 2, 3], [4, 5], [6, 7]], [0, 4, 6])
    assert all(type(x) is int for x in (*got.centers, *got.clusters[0]))


@pytest.mark.parametrize("bad, message", [(8, "point ids [8] out of range for n=8"),
                                          (-1, "point ids [-1] out of range for n=8")])
def test_validate_clustering_refuses_ids_out_of_range(bad, message):
    with pytest.raises(InstanceFormatError) as info:
        validate_clustering(INST, clustering([range(8), [bad]]))
    assert str(info.value) == message


def _cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def tree_file(tmp_path, capsys):
    path = tmp_path / "tree.json"
    assert _cli(["gen", "--family", "tree", "--n", "8", "--k", "3", "--seed", "3",
                 "--out", str(path)], capsys)[0] == 0
    return str(path)


@pytest.mark.parametrize("algo", ["auto", "oracle", "tree-assign", "assign"])
@pytest.mark.parametrize("centers, message", [(c, m) for c, m in REFUSED if c in ([0, 0], [8], [-1])])
def test_the_cli_refuses_centers_alike(tree_file, capsys, algo, centers, message):
    arg = "--centers=" + ",".join(map(str, centers))
    code, out, err = _cli(["solve", "--in", tree_file, "--algo", algo, arg], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("algo", ["oracle", "tree-assign", "assign"])
def test_the_cli_checks_the_budget_where_centers_are_used(tree_file, capsys, algo):
    code, out, err = _cli(["solve", "--in", tree_file, "--algo", algo, "--centers", "0,1,2,5"],
                          capsys)
    assert (code, out, err) == (3, "", "error: 4 centers exceed the budget k=3\n")


def test_the_cli_ignores_the_budget_where_centers_are_not_used(tree_file, capsys):
    code, _, _ = _cli(["solve", "--in", tree_file, "--centers", "0,1,2,5"], capsys)
    assert code == 0


@pytest.mark.parametrize("command", ["validate", "eval", "export-dot"])
def test_the_cli_refuses_clustering_ids_alike(tree_file, tmp_path, capsys, command):
    cl = tmp_path / "cl.json"
    for clusters, message in (
        ([[0, 1, 2, 3, 9], [4, 5, 6, 7, -2, 8]],
         "point ids [-2, 8, 9] out of range for n=8"),
        ([[0, 1, 2, 3], [4, 5, 6, 7.0]],
         "malformed clustering document: point id 7.0 is not an integer"),
    ):
        cl.write_text(json.dumps({"mode": "disjoint", "clusters": clusters}))
        code, out, err = _cli([command, "--in", tree_file, "--clustering", str(cl)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
