"""Pins for the instance loader and the connectivity check.

The loaders decode with orjson and read a document again with the
standard library's ``json`` whenever the fast reading fails.  Each input
here goes through the loaders, through the ``json``-only loader they
replaced, kept below as the reference, and through the loader from
before documents and ``make_instance`` shared one gate
(``tests/_load_refs.py``): all give an equal ``Instance`` (``dist``
compared byte for byte) or raise the same exception type with the same
message.  A file holding a CR byte is pinned apart: its error offsets
count positions in the file.  ``make_instance`` checks the connectivity
edges with NumPy; the per-edge loop it replaced, with the document's id
rule in front, is the reference for its adjacency lists, edge list and
first error.
"""

import copy
import gc
import json
import math
import numbers
import sys
import tempfile
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _load_refs as frozen
import conncluster.model as model
from _load_refs import outcome as _outcome
from conncluster.model import (
    REL_TOL,
    GraphMetric,
    InstanceFormatError,
    LpMetric,
    instance_from_doc,
    load_instance,
    load_instance_file,
    make_instance,
    read_json_file,
)
from test_cli_fuzz import INSTANCES, _mutate, _paths, values


def reference_load(source):
    """``load_instance`` as it was before orjson."""
    if isinstance(source, (str, bytes)):
        try:
            if isinstance(source, bytes):
                source = source.decode("utf-8")
            doc = json.loads(source)
        except (ValueError, RecursionError) as exc:
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
    return instance_from_doc(doc)


def reference_load_file(path):
    """``load_instance_file`` as it was before orjson."""
    return instance_from_doc(read_json_file(path))


def assert_same_load(data: bytes) -> None:
    """The file, bytes and str loaders agree with their references on
    ``data``, and the file loader with the bytes loader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/inst.json"
        with open(path, "wb") as fh:
            fh.write(data)
        loaded = _outcome(load_instance_file, path)
        assert loaded == _outcome(reference_load_file, path)
        assert loaded == _outcome(load_instance, data)
        if b"\r" not in data:  # the old file loader read CR and CRLF as LF
            assert loaded == _outcome(frozen.load_instance_file, path)
    assert _outcome(load_instance, data) == _outcome(reference_load, data)
    assert _outcome(load_instance, data) == _outcome(frozen.load_instance, data)
    text = data.decode("utf-8", "surrogateescape")
    assert _outcome(load_instance, text) == _outcome(reference_load, text)
    assert _outcome(load_instance, text) == _outcome(frozen.load_instance, text)


@settings(max_examples=150)
@given(st.data(), st.sampled_from(INSTANCES))
def test_mutated_documents_load_alike(data, doc):
    assert_same_load(json.dumps(_mutate(data, doc)).encode())


# Literals that orjson and json read differently or not at all, and
# integers at the edges of int64 and uint64.
LITERALS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "5e-324", "-0", "-0.0",
    str(2**63 - 1), str(2**63), str(2**64 - 1), str(2**64), str(-2**63), str(-2**63 - 1),
    "1" + "0" * 29, "-123456789012345678901234567890", "2.5", "1E2",
]
SENTINEL = "@@literal@@"


def _targets(doc: dict) -> list[tuple]:
    """Paths to n, k, a connectivity id, and the first matrix entry,
    coordinate, metric-graph id and weight, where the document has them."""
    metric = doc["metric"]
    out = [("n",), ("k",), ("edges", 0, 0), ("edges", 0, 1), ("metric", "p")]
    out += [("metric", "matrix", 0, 1), ("metric", "matrix", 1, 0)] if "matrix" in metric else []
    out += [("metric", "coords", 0, 0), ("metric", "coords", 2, 1)] if "coords" in metric else []
    if metric["type"] == "graph":
        out += [("metric", "edges", 0, 0), ("metric", "edges", 0, 1), ("metric", "edges", 0, 2)]
    return out


@settings(max_examples=300)
@given(st.data(), st.sampled_from(INSTANCES), st.sampled_from(LITERALS))
def test_literals_in_place_load_alike(data, doc, literal):
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(_targets(doc)) | st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, list) and path[-1] >= len(parent):
        return
    parent[path[-1]] = SENTINEL
    assert_same_load(json.dumps(doc).replace(f'"{SENTINEL}"', literal).encode())


def _edits() -> list[bytes]:
    lp = next(d for d in INSTANCES if d["metric"]["type"] == "lp")
    text = json.dumps(lp)
    deep = "[" * 100000 + "]" * 100000
    return [
        text.replace('"a"', '"\\ud800"').encode(),
        ('{"n": 99, ' + text[1:]).encode(),  # duplicate key: the last one wins
        (text[:-1] + ', "n": 99}').encode(),
        b"\xef\xbb\xbf" + text.encode(),
        text.encode("utf-16"),
        text.encode("utf-16-le"),
        text.encode() + b"\x00",
        text.encode() + b" x",
        (text[:-1] + ', "comment": "ok", "x": [1, {"y": 2}]}').encode(),
        (deep[:100000] + text + deep[100000:]).encode(),
        (text[:-1] + f', "x": {deep}}}').encode(),
        text.replace('"p": ', f'"extra": {deep}, "p": ').encode(),
        text.replace('"type": "lp"', f'"type": "lp", "matrix": {deep}').encode(),
        text.replace('"labels": ["a"', '"labels": ["a\\u0000"').encode(),
        b"",
        b"null",
    ]


def test_text_edits_load_alike():
    for data in _edits():
        assert_same_load(data)


def test_deep_nesting_under_an_unread_key_keeps_the_json_error():
    lp = next(d for d in INSTANCES if d["metric"]["type"] == "lp")
    data = (json.dumps(lp)[:-1] + ', "x": ' + "[" * 5000 + "]" * 5000 + "}").encode()
    orjson.loads(data)  # orjson takes it; json does not
    try:
        load_instance(data)
    except InstanceFormatError as exc:
        assert str(exc).startswith("invalid JSON: maximum recursion depth exceeded")
    else:
        raise AssertionError("loaded a document json cannot decode")


float_literals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**40), 10**40).map(str),
    st.builds(
        lambda sign, digits, exp: f"{sign}{digits[0]}.{digits[1:] or '0'}e{exp}",
        st.sampled_from(["", "-"]),
        st.text("0123456789", min_size=1, max_size=40).filter(lambda s: s[0] != "0" or len(s) == 1),
        st.integers(-330, 330),
    ),
)


@settings(max_examples=500)
@given(float_literals)
def test_float_literals_decode_alike(literal):
    try:
        fast = orjson.loads(literal)
    except orjson.JSONDecodeError:
        return
    assert float(fast).hex() == float(json.loads(literal)).hex()


def reference_connectivity(edges, n):
    """The per-edge loop ``make_instance`` ran before the NumPy check,
    after the document's rule: every edge a pair of integer ids, not
    bools, or no edge is checked."""
    try:
        edges = [(u, v) for u, v in edges]
    except (TypeError, ValueError):
        raise InstanceFormatError("connectivity edges must be [u, v] pairs") from None
    ids = [x for e in edges for x in e]
    if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in ids):
        raise InstanceFormatError("connectivity edges must be [u, v] pairs")
    adj = [set() for _ in range(n)]
    edge_list = []
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceFormatError(f"connectivity edge ({u}, {v}) out of range")
        if u == v:
            raise InstanceFormatError(f"connectivity self-loop at {u}")
        a, b = min(u, v), max(u, v)
        if b in adj[a]:
            raise InstanceFormatError(f"duplicate connectivity edge ({a}, {b})")
        adj[a].add(b)
        adj[b].add(a)
        edge_list.append((a, b))
    return tuple(tuple(sorted(s)) for s in adj), tuple(sorted(edge_list))


FAR_IDS = [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1, 10**30]


def _as_numpy(x: int):
    """The id as a NumPy integer of a type that holds it."""
    if -(2**63) <= x < 2**63:
        return np.int64(x) if x < -(2**31) or x >= 2**31 else np.int32(x)
    return np.uint64(x) if 0 <= x < 2**64 else x


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 8))
    ids = st.one_of(
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.integers(-3, -1),
        st.integers(n, n + 3),
        st.sampled_from(FAR_IDS),
    )
    edges = draw(st.lists(st.tuples(ids, ids), max_size=12))
    for _ in range(draw(st.integers(0, 3))):  # repeats, in either orientation
        if edges:
            u, v = draw(st.sampled_from(edges))
            pair = (v, u) if draw(st.booleans()) else (u, v)
            edges.insert(draw(st.integers(0, len(edges))), pair)
    if draw(st.booleans()):
        edges = [tuple(_as_numpy(x) if draw(st.booleans()) else x for x in e) for e in edges]
    if draw(st.booleans()):
        edges = [list(e) for e in edges]
    return n, edges


def _connectivity_outcome(connect, n, edges):
    try:
        return connect(n, edges)
    except Exception as exc:
        return type(exc), str(exc)


def _numpy_connect(n, edges):
    inst = make_instance(np.zeros((n, n)), edges, 1)
    return inst.adj, inst.edges


def _frozen_connect(n, edges):
    return frozen._connectivity(edges, n)


@settings(max_examples=400)
@given(edge_lists())
def test_connectivity_matches_the_edge_loop(case):
    """Integer ids, NumPy ones and ids past int64 included, keep the
    outcome they had before the one edge reader."""
    n, edges = case
    expected = _connectivity_outcome(lambda n, e: reference_connectivity(e, n), n, edges)
    assert _connectivity_outcome(_numpy_connect, n, edges) == expected
    assert _connectivity_outcome(_frozen_connect, n, edges) == expected


def test_connectivity_fixed_cases():
    cases = [
        (3, []),
        (3, [(0, 1), (1, 2)]),
        (3, [(2, 1), (1, 0), (0, 2)]),
        (3, [(0, 1), (1, 0)]),
        (3, [(1, 1), (0, 5)]),
        (3, [(0, 5), (1, 1)]),
        (3, [(0, 1), (2, 2**64), (1, 0)]),
        (3, [(0, 1), (1, 0), (2, 2**64)]),
        (3, [(0, 2**63)]),
        (3, [(-(2**63) - 1, 0)]),
        (3, [(np.uint64(2**63), 0)]),
        (3, [(np.int64(0), np.int32(2)), (2, 1)]),
        (3, [(0, 1), (1, None)]),
        (3, [(0, 5), (1, None)]),
        (3, [(0, 1, 2)]),
        (3, [(0, 1), (1.5, 2), ("0", "2")]),
        (3, [(0, 1), (True, 2)]),
        (3, [(0, 5), (1.0, 2)]),
        (3, np.array([[0, 1], [1, 2]], dtype=np.int32)),
        (3, np.array([[0, 1], [1, 2]], dtype=np.int64)),
    ]
    for n, edges in cases:
        expected = _connectivity_outcome(lambda n, e: reference_connectivity(e, n), n, edges)
        assert _connectivity_outcome(_numpy_connect, n, edges) == expected
    pairs = "connectivity edges must be [u, v] pairs"
    for edges in ([(0, 5), (1, None)], [(0, 1, 2)], [(0, 1), (1.5, 2), ("0", "2")], 5, None):
        assert _connectivity_outcome(_numpy_connect, 3, edges) == (InstanceFormatError, pairs)


def test_valid_documents_take_the_orjson_path(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("read with json")

    outcomes = [_outcome(reference_load, doc) for doc in INSTANCES]
    monkeypatch.setattr(model, "read_json_file", refuse)
    monkeypatch.setattr(model.json, "loads", refuse)
    for doc, expected in zip(INSTANCES, outcomes):
        data = json.dumps(doc).encode()
        path = tmp_path / "inst.json"
        path.write_bytes(data)
        assert _outcome(load_instance_file, str(path)) == expected
        assert _outcome(load_instance, data) == expected
        assert _outcome(load_instance, data.decode()) == expected


def edge_by_edge(doc):
    """The loader from before the one edge reader, with the connectivity
    edges read edge by edge, as it read them before the one-pass reading."""
    with mock.patch.object(frozen, "_edge_array", lambda edges: None):
        return frozen.instance_from_doc(doc)


@settings(max_examples=300)
@given(st.data(), st.sampled_from(INSTANCES))
def test_edges_read_in_one_pass_as_edge_by_edge(data, doc):
    """Edits to the edge list only: an id, an edge or the whole list
    replaced by any JSON value, a far or NumPy id, or an edge appended."""
    doc = copy.deepcopy(doc)
    odd = values | st.sampled_from(FAR_IDS) | st.integers(0, 4).map(_as_numpy)
    for _ in range(data.draw(st.integers(1, 3))):
        edges = doc["edges"]
        op = data.draw(st.sampled_from(["id", "edge", "append", "list"]))
        if op == "list" or not isinstance(edges, list) or not edges:
            doc["edges"] = data.draw(odd)
        elif op == "append":
            edges.append(data.draw(odd | st.lists(odd, max_size=3)))
        else:
            at = data.draw(st.integers(0, len(edges) - 1))
            if op == "edge" or not isinstance(edges[at], list) or not edges[at]:
                edges[at] = data.draw(odd | st.lists(odd, max_size=3))
            else:
                edges[at][data.draw(st.integers(0, len(edges[at]) - 1))] = data.draw(odd)
    assert _outcome(instance_from_doc, doc) == _outcome(edge_by_edge, doc)


def reference_make_instance(dist, edges, k, *, labels=None, coords=None, p=None):
    """``make_instance`` before it kept a matrix that symmetrizing leaves
    as it is: it checked every matrix the same way and always built
    ``(m + m.T) / 2``."""
    m = np.asarray(dist, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InstanceFormatError("distance matrix must be square")
    n = m.shape[0]
    if n == 0:
        raise InstanceFormatError("instance needs at least one point")
    if not (1 <= k <= n):
        raise InstanceFormatError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    # an entry above half the float range overflows to inf here: rejected
    with np.errstate(over="ignore"):
        sym = (m + m.T) / 2.0
        if not np.isfinite(sym).all():
            raise InstanceFormatError("distance matrix has non-finite entries")
        # the exact test is cheap and decides most documents; NaN fails
        # it, but the finiteness check above has already rejected NaN
        if not (np.array_equal(m, m.T) or np.allclose(m, m.T, rtol=REL_TOL, atol=REL_TOL)):
            raise InstanceFormatError("distance matrix is not symmetric")
    if np.any(np.diag(m) != 0.0):
        raise InstanceFormatError("distance matrix has nonzero diagonal")
    if np.any(m < 0.0):
        raise InstanceFormatError("distance matrix has negative entries")
    adj, edge_list = frozen._connectivity(edges, n)
    if labels is not None and len(labels) != n:
        raise InstanceFormatError("labels length must equal n")

    m = sym
    m.setflags(write=False)
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        coords.setflags(write=False)
    return model.Instance(
        n=n,
        k=int(k),
        dist=m,
        adj=adj,
        edges=edge_list,
        labels=tuple(labels) if labels is not None else None,
        coords=coords,
        p=p,
    )


HALF_MAX = sys.float_info.max / 2
#: Entries at the edges of each check: signed zeros, the largest value
#: whose doubling is finite and the smallest whose doubling is not, NaN,
#: infinities, negatives, a subnormal, and a hair above 1 within REL_TOL.
MATRIX_VALUES = [
    0.0, -0.0, 1.0, 2.5, 1.0 + 1e-12, 1.0 + 1e-6, 5e-324, HALF_MAX, 2.0**1023,
    sys.float_info.max, math.nan, math.inf, -math.inf, -1.0, 3.0,
]


def _make_outcome(make, dist):
    try:
        inst = make(dist, [], 1)
    except Exception as exc:
        return type(exc), str(exc)
    return inst.dist.dtype, inst.dist.shape, inst.dist.tobytes(), inst.dist.flags.writeable


@st.composite
def distance_inputs(draw):
    """A symmetric matrix of ``MATRIX_VALUES`` with a zero diagonal, then
    a few entries overwritten on one side or both, passed as a C-ordered,
    Fortran-ordered or transposed array, as integers, or as lists."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from(MATRIX_VALUES)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = draw(entry)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i, j] = draw(entry)
        if draw(st.booleans()):
            m[j, i] = m[i, j]
    form = draw(st.sampled_from(["c", "fortran", "transposed", "int", "list"]))
    if form == "fortran":
        return np.asfortranarray(m)
    if form == "transposed":
        return np.ascontiguousarray(m).T
    if form == "int" and (abs(m) < 2**53).all() and (m == np.round(m)).all():
        return m.astype(np.int64)
    return m.tolist() if form == "list" else m


@settings(max_examples=500)
@given(distance_inputs())
def test_make_instance_keeps_the_old_checks_and_bytes(dist):
    expected = _make_outcome(reference_make_instance, copy.deepcopy(dist))
    assert _make_outcome(make_instance, dist) == expected
    if isinstance(dist, np.ndarray):
        assert dist.flags.writeable
        if not isinstance(expected[0], type):
            assert not np.shares_memory(make_instance(dist, [], 1).dist, dist)


def test_make_instance_fixed_cases():
    cases = [
        [[0.0, -0.0], [0.0, 0.0]],  # -0.0 on one side: stored as 0.0
        [[0.0, -0.0], [-0.0, 0.0]],  # on both sides: kept as -0.0
        [[-0.0, 1.0], [1.0, 0.0]],  # a -0.0 on the diagonal is zero
        [[0.0, 2.0**1023], [2.0**1023, 0.0]],  # doubles to inf: non-finite
        [[0.0, HALF_MAX], [HALF_MAX, 0.0]],
        [[0.0, math.nan], [math.nan, 0.0]],
        [[0.0, 1.0], [1.0 + 1e-12, 0.0]],  # asymmetric within REL_TOL
        [[0.0, 1.0], [1.0 + 1e-6, 0.0]],
        [[0.0, -1.0], [-1.0, 0.0]],
        [[1.0, 1.0], [1.0, 0.0]],
    ]
    sym = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    arrays = [np.array(c) for c in cases]
    arrays += [np.asfortranarray(sym), sym.T, sym.astype(np.int64), np.array(cases[0]).T]
    for dist in cases + arrays:
        assert _make_outcome(make_instance, dist) == _make_outcome(
            reference_make_instance, copy.deepcopy(dist)
        )
    for dist in arrays:
        assert dist.flags.writeable
        try:
            inst = make_instance(dist, [], 1)
        except InstanceFormatError:
            continue
        assert not np.shares_memory(inst.dist, dist)


def test_make_instance_leaves_the_callers_coords_alone():
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    for coords in (base, np.asfortranarray(base), base[::-1][::-1], base.astype(np.float32)):
        inst = make_instance(LpMetric(coords, 2).realize(3), [(0, 1), (1, 2)], 1, coords=coords, p=2)
        assert coords.flags.writeable
        assert not np.shares_memory(inst.coords, coords)
        assert np.array_equal(inst.coords, coords) and not inst.coords.flags.writeable


def _doc_bytes(**changes) -> bytes:
    lp = copy.deepcopy(next(d for d in INSTANCES if d["metric"]["type"] == "lp"))
    lp.update(changes)
    return json.dumps(lp).encode()


#: One document for each way out of the loaders: a success, a document
#: orjson rejects (NaN) and ``json`` then reads, one orjson reads but
#: leaves to ``json`` (a nested value under an unread key), and one that
#: ``instance_from_doc`` rejects.
LOADER_EXITS = {
    "success": _doc_bytes(),
    "json fallback": _doc_bytes(x=[[1]]),
    "orjson rejects": _doc_bytes(k=1).replace(b'"k": 1', b'"k": NaN'),
    "rejected": _doc_bytes(k=0),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("exit", sorted(LOADER_EXITS))
def test_loaders_restore_the_collector_state(tmp_path, monkeypatch, enabled, exit):
    paused = []
    build = model.instance_from_doc

    def recording(doc, **kwargs):
        paused.append(not gc.isenabled())
        return build(doc, **kwargs)

    monkeypatch.setattr(model, "instance_from_doc", recording)
    path = tmp_path / "inst.json"
    path.write_bytes(LOADER_EXITS[exit])
    missing = str(tmp_path / "missing.json")
    loads = [(load_instance, LOADER_EXITS[exit]), (load_instance, LOADER_EXITS[exit].decode()),
             (load_instance_file, str(path)), (load_instance_file, missing)]
    was = gc.isenabled()
    try:
        for load, arg in loads:
            (gc.enable if enabled else gc.disable)()
            paused.clear()
            try:
                load(arg)
            except (InstanceFormatError, OSError):
                pass
            assert gc.isenabled() == enabled
            if exit in ("success", "json fallback", "rejected") and arg != missing:
                assert paused[0]  # orjson's reading ran with the collector off
    finally:
        (gc.enable if was else gc.disable)()


def _make_from_values(doc):
    """``make_instance`` on a document's values: its matrix, or its
    metric realized, its edges, ``k``, labels, and an lp metric's
    coordinates and exponent ("inf" read as inf)."""
    metric, n = doc["metric"], doc["n"]
    coords = p = None
    if metric["type"] == "explicit":
        dist = metric["matrix"]
    elif metric["type"] == "lp":
        coords, p = metric["coords"], metric["p"]
        p = math.inf if p in ("inf", "infinity") else p
        dist = LpMetric(np.array(coords, dtype=float), p).realize(n)
    else:
        dist = GraphMetric(tuple((u, v, float(w)) for u, v, w in metric["edges"])).realize(n)
    return make_instance(dist, doc["edges"], doc["k"], labels=doc.get("labels"), coords=coords, p=p)


@settings(max_examples=200)
@given(st.data(), st.sampled_from(INSTANCES))
def test_documents_and_make_instance_build_equal_instances(data, doc):
    if data.draw(st.booleans()):
        doc = _mutate(data, doc)
    loaded = _outcome(instance_from_doc, doc)
    if isinstance(loaded[0], type):  # the document does not load
        return
    assert _outcome(_make_from_values, doc) == loaded


def test_every_sample_document_builds_equally_through_make_instance():
    for doc in INSTANCES:
        assert _outcome(_make_from_values, doc) == _outcome(instance_from_doc, doc)


LINE3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
COORDS3 = np.array([[0.0], [1.0], [2.0]])
PATH3 = [(0, 1), (1, 2)]
MATRIX_NUMBERS = "distance matrix entries must be numbers"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(edges=[(0, 1), (1.7, 2)]), "connectivity edges must be [u, v] pairs"),
        (dict(edges=[(0, 1), (True, 2)]), "connectivity edges must be [u, v] pairs"),
        (dict(edges=[("0", 1), (1, 2)]), "connectivity edges must be [u, v] pairs"),
        (dict(edges=[(0, 1), (1, None)]), "connectivity edges must be [u, v] pairs"),
        (dict(edges=[(0, 1, 2)]), "connectivity edges must be [u, v] pairs"),
        (dict(k=2.5), '"k" must be an integer'),
        (dict(k=True), '"k" must be an integer'),
        (dict(labels=[1, 2, 3]), '"labels" must be a list of strings'),
        (dict(labels="abc"), '"labels" must be a list of strings'),
        (dict(coords=COORDS3, p=None), "norm exponent p must be a positive integer or inf"),
        (dict(coords=COORDS3, p=2.5), "norm exponent p must be a positive integer or inf"),
        (dict(coords=COORDS3, p=0), "norm exponent p must be a positive integer or inf"),
        (dict(coords=COORDS3, p=True), "norm exponent p must be a positive integer or inf"),
        (dict(coords=COORDS3, p="2"), "norm exponent p must be a positive integer or inf"),
        (dict(p=2), "norm exponent p needs coords"),
        (dict(coords=np.zeros((2, 1)), p=1), "coordinate list must have 3 rows"),
        (dict(coords=np.zeros(3), p=1), "coordinate list must have 3 rows"),
        (dict(coords=np.zeros((4, 1)), p=1), "coordinate list must have 3 rows"),
        (dict(dist=[["0", 1, 2], [1, 0, 1], [2, 1, 0]]), MATRIX_NUMBERS),
        (dict(dist=[[0, True, 2], [True, 0, 1], [2, 1, 0]]), MATRIX_NUMBERS),
        (dict(dist=LINE3.astype(str)), MATRIX_NUMBERS),
        (dict(dist=LINE3.astype(bool)), MATRIX_NUMBERS),
        (dict(dist=[list(r) for r in LINE3.astype(bool)]), MATRIX_NUMBERS),
        (dict(coords=[["0"], [1], [2]], p=1), "lp metric coords must be numbers"),
        (dict(coords=[[False], [True], [2]], p=1), "lp metric coords must be numbers"),
        (dict(coords=COORDS3.astype(bool), p=1), "lp metric coords must be numbers"),
    ],
)
def test_make_instance_applies_the_document_rules(kwargs, message):
    args = dict(dist=LINE3, edges=PATH3, k=1)
    args.update(kwargs)
    dist, edges, k = args.pop("dist"), args.pop("edges"), args.pop("k")
    with pytest.raises(InstanceFormatError) as info:
        make_instance(dist, edges, k, **args)
    assert str(info.value) == message


def test_make_instance_takes_what_a_document_may_hold():
    """NumPy integers for ids and k, integer matrices and coordinates,
    tuple labels, an edge generator and p given as an int, a float or inf."""
    base = make_instance(LINE3, PATH3, 2, labels=["a", "b", "c"])
    alike = [
        make_instance(LINE3.astype(np.int64), [(np.int64(0), np.int32(1)), (1, 2)], np.int64(2),
                      labels=("a", "b", "c")),
        make_instance(LINE3.tolist(), (e for e in [(1, 2), (0, 1)]), 2, labels=["a", "b", "c"]),
        make_instance(LINE3, np.array(PATH3), 2, labels=["a", "b", "c"]),
    ]
    for inst in alike:
        assert _outcome(lambda x: x, inst) == _outcome(lambda x: x, base)
    for p in (1, 1.0, np.int64(1), math.inf):
        dist = LpMetric(COORDS3, p).realize(3)
        inst = make_instance(dist, PATH3, 1, coords=COORDS3.astype(int), p=p)
        assert type(inst.p) is float and inst.p == p
        assert inst.coords.dtype == np.float64


def _crlf(text: str) -> bytes:
    return text.replace("\n", "\r\n").encode()


def test_crlf_instance_files_report_offsets_in_the_file(tmp_path):
    """A CRLF or CR instance file loads as its bytes do, its error
    offsets counted in the file, where the old file loader counted them
    in the text with its line ends made LF."""
    lp = next(d for d in INSTANCES if d["metric"]["type"] == "lp")
    text = json.dumps(lp, indent=1)
    path = tmp_path / "inst.json"
    for data in (_crlf(text), text.replace("\n", "\r").encode()):
        path.write_bytes(data)
        assert _outcome(load_instance_file, str(path)) == _outcome(load_instance, data)
        assert not isinstance(_outcome(load_instance_file, str(path))[0], type)
        for bad in (data.replace(b'"k"', b"'k'"), data[:-1], data.replace(b'"k": 3', b'"k": NaN')):
            path.write_bytes(bad)
            loaded = _outcome(load_instance_file, str(path))
            assert loaded == _outcome(load_instance, bad) == _outcome(frozen.load_instance, bad)
            if loaded[0] is InstanceFormatError and "char" in loaded[1]:
                try:
                    json.loads(bad.decode())
                except json.JSONDecodeError as exc:
                    assert loaded[1] == f"invalid JSON: {exc}"
                    assert f"(char {exc.pos})" in loaded[1]
                    assert bad[: exc.pos].decode().count("\r") > 0  # offsets past a CR
                old = _outcome(frozen.load_instance_file, str(path))
                assert old[0] is InstanceFormatError and old[1] != loaded[1]


def test_crlf_clustering_files_report_offsets_in_the_file(tmp_path):
    text = json.dumps({"mode": "disjoint", "clusters": [[0, 1], [2]], "centers": [0, 2]}, indent=1)
    path = tmp_path / "cl.json"
    path.write_bytes(_crlf(text))
    assert read_json_file(str(path)) == json.loads(text)
    bad = _crlf(text)[:-1]
    path.write_bytes(bad)
    with pytest.raises(InstanceFormatError) as info:
        read_json_file(str(path))
    with pytest.raises(json.JSONDecodeError) as direct:
        json.loads(bad.decode())
    assert str(info.value) == f"invalid JSON: {direct.value}"
    assert direct.value.pos == len(bad)  # the end of the file, CR bytes counted
