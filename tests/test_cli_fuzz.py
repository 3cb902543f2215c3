"""Mutated instance and clustering documents through ``cli.main``.

Every command exits with a documented code (0 success, 1 infeasible,
2 bad input, 3 precondition) and no exception escapes.  A successful
solve on a metric instance never reports a bound below its objective.
"""

import contextlib
import copy
import io
import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import check_triangle_inequality, gen_random, load_instance_file
from conncluster.cli import main
from conncluster.model import dist_leq, instance_to_doc


def _docs() -> list[dict]:
    docs = [
        instance_to_doc(gen_random("line", 5, 2, 1, metric_repair=True)),
        instance_to_doc(gen_random("tree", 6, 2, 2, metric_repair=True)),
        instance_to_doc(gen_random("general", 6, 3, 3)),
        instance_to_doc(gen_random("general", 5, 2, 4)),
    ]
    lp = instance_to_doc(gen_random("lp", 6, 3, 5))
    lp["labels"] = list("abcdef")
    graph = instance_to_doc(gen_random("general", 5, 3, 6))
    graph["metric"] = {
        "type": "graph",
        "edges": [[u, v, 1 + (u + v) % 3] for u, v in graph["edges"]],
    }
    return docs + [lp, graph]


INSTANCES = _docs()
CLUSTERING = {
    "mode": "disjoint",
    "clusters": [[0, 1], [2, 3, 4]],
    "centers": [0, 3],
    "objective": "center",
    "value": 1.0,
}

# Sizes and ids stay small: a graph metric realizes an n x n matrix, and
# a larger instance would only make each example slower.
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.7, -1.0, 2.5, 1e308]),
    st.text(max_size=4),
)
values = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(data, doc):
    """One to three edits: replace a value, delete it, or repeat a list entry."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = data.draw(st.sampled_from(["replace", "delete", "repeat"]))
        if op == "replace":
            parent[key] = data.draw(values)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    return code, out.getvalue()


@settings(max_examples=150)
@given(st.data(), st.sampled_from(INSTANCES), st.sampled_from(["center", "diameter"]),
       st.sampled_from(["disjoint", "non_disjoint"]))
def test_solve_mutated_instance(data, doc, objective, mode):
    doc = _mutate(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/inst.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out = _run(["solve", "--in", path, "--objective", objective, "--mode", mode])
        if code != 0:
            return
        report = json.loads(out)["report"]
        if report["bound"] is not None and not check_triangle_inequality(load_instance_file(path)):
            assert dist_leq(report["objective"], report["bound"]), report


@settings(max_examples=150)
@given(st.data(), st.sampled_from(INSTANCES), st.booleans(),
       st.sampled_from(["validate", "eval", "export-dot"]))
def test_check_mutated_documents(data, inst_doc, mutate_instance, command):
    if mutate_instance:
        inst_doc = _mutate(data, inst_doc)
    cl_doc = _mutate(data, CLUSTERING)
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, cl_path = f"{tmp}/inst.json", f"{tmp}/cl.json"
        for path, doc in ((inst_path, inst_doc), (cl_path, cl_doc)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        _run([command, "--in", inst_path, "--clustering", cl_path])
