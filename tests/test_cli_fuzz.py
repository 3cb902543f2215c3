"""Mutated instance and clustering documents through ``cli.main``.

Every command exits with a documented code (0 success, 1 infeasible,
2 bad input, 3 precondition) and no exception escapes.  A successful
solve never reports a bound below its objective, also on an explicit
matrix that breaks the triangle inequality.
Documents are mutated as JSON values and, to reach the decoder's own
failures, as bytes.  Each mutated instance file loads as it did before
documents and ``make_instance`` shared one gate (``tests/_load_refs.py``).
Argument lists are mutated too, between valid requests in one process,
since every call shares one parser.
"""

import contextlib
import copy
import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _load_refs as frozen
from conncluster import gen_random
from conncluster.cli import ALGORITHMS, FAMILIES, build_parser, main
from conncluster.model import dist_leq, instance_to_doc, load_instance_file


def _loads_as_before(path: str) -> None:
    assert frozen.outcome(load_instance_file, path) == frozen.outcome(
        frozen.load_instance_file, path
    )


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
    st.sampled_from([0.7, -1.0, 2.5, 1e308, 2**63, 2**64, 10**30]),
    st.text(max_size=4),
    st.just("\ud800"),  # JSON can escape a lone surrogate; no output encoding takes it
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
    for text in (out.getvalue(), err.getvalue()):  # what a UTF-8 terminal takes
        text.encode("utf-8")
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
        _loads_as_before(path)
        code, out = _run(["solve", "--in", path, "--objective", objective, "--mode", mode])
        if code != 0:
            return
        assert _bound_holds(json.loads(out)["report"]), out


def _bound_holds(report: dict) -> bool:
    return report["bound"] is None or dist_leq(report["objective"], report["bound"])


@st.composite
def non_metric_docs(draw):
    """A seeded explicit-matrix document with n of its pairs scaled by
    0.1 or 5, which breaks the triangle inequality on most draws."""
    family = draw(st.sampled_from(["general", "tree", "line"]))
    n = draw(st.integers(4, 8))
    doc = instance_to_doc(gen_random(family, n, draw(st.integers(1, n)), draw(st.integers(0, 999))))
    m = doc["metric"]["matrix"]
    for _ in range(n):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[i][j] = m[j][i] = m[i][j] * draw(st.sampled_from([0.1, 5.0]))
    return doc


NEEDS_CENTERS = ("tree-assign", "assign")


@settings(max_examples=40)
@given(st.data(), non_metric_docs(), st.sampled_from(["center", "diameter"]),
       st.sampled_from(["disjoint", "non_disjoint"]))
def test_no_solver_claims_a_bound_below_its_objective(data, doc, objective, mode):
    assert set(NEEDS_CENTERS) <= set(ALGORITHMS)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/inst.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for algo in ALGORITHMS:
            argv = ["solve", "--in", path, "--algo", algo, "--objective", objective, "--mode", mode]
            if algo in NEEDS_CENTERS:
                centers = data.draw(st.lists(st.integers(0, doc["n"] - 1), min_size=1,
                                             max_size=doc["k"], unique=True))
                argv += ["--centers", ",".join(map(str, centers))]
            code, out = _run(argv)
            assert code != 2, argv
            if code == 0:
                assert _bound_holds(json.loads(out)["report"]), (algo, out)


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
        _loads_as_before(inst_path)
        _run([command, "--in", inst_path, "--clustering", cl_path])


# Bytes that are not UTF-8: a lone continuation byte, a truncated
# two-byte sequence, an encoded surrogate and a byte never used.
BAD_UTF8 = [b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff"]


def _mutate_bytes(data, doc):
    """Splice invalid UTF-8 into a string, or nest the document in arrays."""
    text = json.dumps(doc).encode()
    if data.draw(st.booleans()):
        quotes = [i for i, b in enumerate(text) if b == ord('"')]
        at = data.draw(st.sampled_from(quotes)) + 1
        return text[:at] + data.draw(st.sampled_from(BAD_UTF8)) + text[at:]
    depth = data.draw(st.sampled_from([1, 50, 5000, 100000]))
    return b"[" * depth + text + b"]" * depth


@settings(max_examples=60)
@given(st.data(), st.sampled_from(INSTANCES), st.booleans(),
       st.sampled_from(["solve", "validate", "eval", "export-dot"]))
def test_undecodable_documents_exit_2(data, inst_doc, bad_instance, command):
    inst_bytes = json.dumps(inst_doc).encode()
    cl_bytes = json.dumps(CLUSTERING).encode()
    if bad_instance or command == "solve":
        inst_bytes = _mutate_bytes(data, inst_doc)
    else:
        cl_bytes = _mutate_bytes(data, CLUSTERING)
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, cl_path = f"{tmp}/inst.json", f"{tmp}/cl.json"
        for path, doc in ((inst_path, inst_bytes), (cl_path, cl_bytes)):
            with open(path, "wb") as fh:
                fh.write(doc)
        _loads_as_before(inst_path)
        argv = [command, "--in", inst_path]
        if command != "solve":
            argv += ["--clustering", cl_path]
        code, _ = _run(argv)
        assert code == 2


# Valid requests, with {in} a line instance and {cl} a clustering of it.
VALID_ARGV = [
    ["solve", "--in", "{in}"],
    ["solve", "--in", "{in}", "--objective", "diameter", "--mode", "non_disjoint"],
    ["solve", "--in", "{in}", "--algo", "greedy", "--mode", "non_disjoint"],
    ["solve", "--in", "{in}", "--algo", "general", "--dim", "1"],
    ["validate", "--in", "{in}", "--clustering", "{cl}"],
    ["eval", "--in", "{in}", "--clustering", "{cl}", "--objective", "diameter"],
    ["export-dot", "--in", "{in}", "--clustering", "{cl}"],
    ["gen", "--family", "tree", "--n", "5", "--seed", "4"],
]
REQUIRED = {"gen": ["--family"], "solve": ["--in"], "validate": ["--in", "--clustering"],
            "eval": ["--in", "--clustering"], "export-dot": ["--in"]}
# None of these is a prefix of an option, which argparse would accept.
UNKNOWN_FLAGS = ["--bogus", "--zzz=1", "-q", "--verbose"]
BAD_CHOICES = {"--algo": ["nope", "", "AUTO"], "--objective": ["radius", "Center"],
               "--mode": ["both", "disjoint "]}
# int() takes " 3", "1_0" and other Unicode digits; it takes none of these.
NOT_INTEGERS = ["x", "1.5", "", "2e3", "0x10", "nan"]


def _call(parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``; argparse's
    ``SystemExit(c)`` gives ``("exit", c)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


def _set_flag(argv, flag, value):
    if flag in argv:
        at = argv.index(flag) + 1
        return argv[:at] + [value] + argv[at + 1:]
    return argv + [flag, value]


def _mutate_argv(data, kind, argv):
    """An argument list that argparse rejects, made from a valid one."""
    if kind == "drop":
        at = argv.index(data.draw(st.sampled_from(REQUIRED[argv[0]])))
        return argv[:at] + argv[at + 2:]
    if kind == "unknown":
        at = data.draw(st.integers(0, len(argv)))
        return argv[:at] + [data.draw(st.sampled_from(UNKNOWN_FLAGS))] + argv[at:]
    if kind == "choice":
        flag = data.draw(st.sampled_from(sorted(BAD_CHOICES)))
        return _set_flag(argv, flag, data.draw(st.sampled_from(BAD_CHOICES[flag])))
    flag = data.draw(st.sampled_from(["--dim", "--seed", "--n"]))
    return _set_flag(argv, flag, data.draw(st.sampled_from(NOT_INTEGERS)))


@pytest.fixture(scope="module")
def argv_requests(tmp_path_factory):
    """The valid requests on files of their own, each with its first output."""
    tmp = tmp_path_factory.mktemp("argv")
    paths = {"{in}": str(tmp / "inst.json"), "{cl}": str(tmp / "cl.json")}
    for key, doc in (("{in}", INSTANCES[0]), ("{cl}", CLUSTERING)):
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    requests = [[paths.get(arg, arg) for arg in argv] for argv in VALID_ARGV]
    return [(argv, _call(main, argv)) for argv in requests]


@settings(max_examples=100)
@given(st.data(), st.lists(
    st.tuples(st.sampled_from(["valid", "drop", "unknown", "choice", "integer"]),
              st.integers(0, len(VALID_ARGV) - 1)),
    min_size=1, max_size=6))
def test_mutated_argv_between_valid_requests(argv_requests, data, steps):
    for kind, i in steps:
        argv, first = argv_requests[i]
        if kind == "valid":
            assert first[0] in (0, 1), first
            assert _call(main, argv) == first
            continue
        argv = _mutate_argv(data, kind, argv)
        code, out, err = _call(main, argv)
        assert (code, out) == (("exit", 2), ""), argv
        assert err == _call(lambda a: build_parser().parse_args(a), argv)[2]


# Small sizes keep each generated instance small.  A sat literal may be
# large: only the variables that occur in the formula add points.
GEN_TOKENS = {
    "--n": st.integers(-1, 10).map(str),
    "--k": st.integers(-1, 6).map(str),
    "--m": st.integers(-1, 5).map(str),
    "--seed": st.integers(0, 9).map(str),
    "--dim": st.integers(-1, 3).map(str),
    "--p": st.sampled_from(["1", "2", "3", "inf", "1.5", "0", "-1", "nan", "1e400", "x", ""]),
    "--variant": st.sampled_from(["two_center", "four_center", "x"]),
    "--formula": st.sampled_from(["1,2;-1,-2", "1,2,3;-2,-3", "1;-1", "1,2,3,4", "0", "1,x",
                                  ";", "", "-3", "200000", "1;-99999"]),
    "--pairs": st.sampled_from(["0,1", "0,1;1,2", "0,1;2,3", "0,x", "0,1,2", "0", "5,0",
                                "0,0", ";", "", " 1 , 2 "]),
    "--sets": st.sampled_from(["0,1;2", "0;1;2;3", "1,x", "0,,1", "-1,2", ";", "", "0,1,2,3"]),
}


@settings(max_examples=60)
@given(st.sampled_from([*FAMILIES, "x"]),
       st.dictionaries(st.sampled_from(sorted(GEN_TOKENS)), st.none(), max_size=5),
       st.data())
def test_gen_exits_0_or_2(family, flags, data):
    argv = ["gen", "--family", family]
    # "--sets=-1,2": argparse would take a separate "-1,2" for an option
    argv += [f"{flag}={data.draw(GEN_TOKENS[flag])}" for flag in flags]
    code, out = _run(argv)
    assert code in (0, 2), argv
    assert (out != "") == (code == 0), argv
