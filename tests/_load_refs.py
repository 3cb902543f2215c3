"""Reference copy of the instance loader before documents and
``make_instance`` shared one gate.

Until then the connectivity edges had three readers: a one-pass reading
of plain int ids in ``instance_from_doc``, its per-edge fallback, and an
``int()`` conversion in ``_connectivity`` with a deferred exception for
``make_instance`` callers.  ``load_instance_file`` opened a file twice:
once for orjson and, when orjson's reading failed, again in text mode
for ``json``, which turned CR and CRLF into LF.  The loader's code stays
here, without its comments, as the reference the single gate is checked
against: every document gives the same instance, or the same exception
type and message, except that a file's error offsets now count
positions in the file.  Only the metric realization kernels are the
package's own.

One rule was added to the copy later, at the place the package checks
it: the connectivity ``edges`` and a graph metric's ``edges`` must be
JSON arrays.  Before it, ``{}`` and ``""`` there loaded as no edges.
"""

import gc
import itertools
import json
import math
import numbers
from typing import Iterable, Optional

import numpy as np
import orjson

from conncluster.model import (
    REL_TOL,
    ExplicitMetric,
    GraphMetric,
    Instance,
    InstanceFormatError,
    LpMetric,
)

_INT64 = np.iinfo(np.int64)
_SIGN_OR_HUGE = np.uint64(0x7FE0000000000000)


def _connectivity(edges, n):
    stop: Optional[Exception] = None
    if isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.shape[1:] == (2,):
        pairs = e = edges
    else:
        pairs = list(edges)
        try:
            e = np.array(pairs, dtype=np.int64)
            if e.shape != (len(pairs), 2):
                raise ValueError("not a list of pairs")
        except (TypeError, ValueError, OverflowError):
            rows = []
            try:
                for u, v in pairs:
                    rows.append(
                        [x if _INT64.min <= x <= _INT64.max else -1 for x in (int(u), int(v))]
                    )
            except (TypeError, ValueError, OverflowError) as exc:
                stop = exc
            e = np.array(rows, dtype=np.int64).reshape(-1, 2)
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    uniq, first = np.unique(lo * n + hi, return_index=True)
    repeat = np.ones(len(e), dtype=bool)
    repeat[first] = False
    bad |= repeat
    if bad.any():
        u, v = pairs[int(np.argmax(bad))]
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceFormatError(f"connectivity edge ({u}, {v}) out of range")
        if u == v:
            raise InstanceFormatError(f"connectivity self-loop at {u}")
        raise InstanceFormatError(f"duplicate connectivity edge ({min(u, v)}, {max(u, v)})")
    if stop is not None:
        raise stop
    a, b = np.divmod(uniq, n)
    arcs = np.sort(np.concatenate((uniq, b * n + a)))
    ends = np.cumsum(np.bincount(arcs // n, minlength=n)).tolist()
    nbrs = (arcs % n).tolist()
    adj = tuple(tuple(nbrs[s:t]) for s, t in zip([0] + ends, ends))
    return adj, tuple(zip(a.tolist(), b.tolist()))


def _make_instance(m, edges, k, labels, coords, p):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InstanceFormatError("distance matrix must be square")
    n = m.shape[0]
    if n == 0:
        raise InstanceFormatError("instance needs at least one point")
    if not (1 <= k <= n):
        raise InstanceFormatError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    kept = bool(m.view(np.uint64).max() < _SIGN_OR_HUGE) and np.array_equal(m, m.T)
    if not kept:
        with np.errstate(over="ignore"):
            sym = (m + m.T) / 2.0
            if not np.isfinite(sym).all():
                raise InstanceFormatError("distance matrix has non-finite entries")
            if not (np.array_equal(m, m.T) or np.allclose(m, m.T, rtol=REL_TOL, atol=REL_TOL)):
                raise InstanceFormatError("distance matrix is not symmetric")
    if np.any(np.diag(m) != 0.0):
        raise InstanceFormatError("distance matrix has nonzero diagonal")
    if not kept:
        if np.any(m < 0.0):
            raise InstanceFormatError("distance matrix has negative entries")
        m = sym
    if coords is not None:
        _reject_underflow(m, coords)
    adj, edge_list = _connectivity(edges, n)
    if labels is not None and len(labels) != n:
        raise InstanceFormatError("labels length must equal n")
    m.setflags(write=False)
    if coords is not None:
        coords.setflags(write=False)
    return Instance(
        n=n,
        k=int(k),
        dist=m,
        adj=adj,
        edges=edge_list,
        labels=tuple(labels) if labels is not None else None,
        coords=coords,
        p=p,
    )


def _reject_underflow(dist, coords):
    zero = dist == 0.0
    np.fill_diagonal(zero, False)
    for i in np.flatnonzero(zero.any(axis=1)):
        j = np.flatnonzero(zero[i])
        distinct = (coords[j] != coords[i]).any(axis=1)
        if distinct.any():
            raise InstanceFormatError(
                f"lp distance between points {i} and {j[np.argmax(distinct)]} underflows to 0"
            )


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _require_ids(values: Iterable) -> None:
    for x in values:
        if type(x) is not int and not _is_int(x):
            raise TypeError(f"point id {x!r} is not an integer")


def _edge_array(edges):
    try:
        if set(map(len, edges)) - {2}:
            return None
        flat = list(itertools.chain.from_iterable(edges))
        if set(map(type, flat)) - {int}:
            return None
        return np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2)
    except (TypeError, OverflowError):
        return None


def _numbers(value, what, bools):
    try:
        arr = np.array(value, dtype=float)
        if arr.ndim == 2:
            sum(map(sum, value, itertools.repeat(0.0)))
            if bools and bool in set(map(type, itertools.chain.from_iterable(value))):
                raise TypeError("a boolean is not a number")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"{what} must be numbers") from exc
    return arr


def _scalar(x) -> float:
    if isinstance(x, (str, bool)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _metric_from_doc(doc, bools):
    if not isinstance(doc, dict) or "type" not in doc:
        raise InstanceFormatError('"metric" must be an object with a "type"')
    kind = doc["type"]
    if kind == "explicit":
        if "matrix" not in doc:
            raise InstanceFormatError('explicit metric needs a "matrix"')
        return ExplicitMetric(_numbers(doc["matrix"], "explicit metric matrix entries", bools))
    if kind == "lp":
        if "coords" not in doc or "p" not in doc:
            raise InstanceFormatError('lp metric needs "coords" and "p"')
        p = doc["p"]
        try:
            p = math.inf if p in ("inf", "infinity") else _scalar(p)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceFormatError('lp metric "p" must be a number or "inf"') from exc
        return LpMetric(_numbers(doc["coords"], "lp metric coords", bools), p)
    if kind == "graph":
        if "edges" not in doc:
            raise InstanceFormatError('graph metric needs weighted "edges"')
        try:
            if not isinstance(doc["edges"], list):
                raise TypeError("metric-graph edges are not a JSON array")
            edges = tuple((u, v, _scalar(w)) for u, v, w in doc["edges"])
            _require_ids([x for u, v, _ in edges for x in (u, v)])
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceFormatError("graph metric edges must be [u, v, weight] triples") from exc
        return GraphMetric(edges)
    raise InstanceFormatError(f"unknown metric type {kind!r}")


def _realize(spec, n):
    """``spec.realize(n)`` with the checks ``LpMetric.realize`` made first."""
    if isinstance(spec, LpMetric):
        c = np.asarray(spec.coords, dtype=float)
        if c.ndim != 2 or c.shape[0] != n:
            raise InstanceFormatError(f"coordinate list must have {n} rows")
        p = spec.p
        if not (p == math.inf or (p >= 1 and float(p).is_integer())):
            raise InstanceFormatError("norm exponent p must be a positive integer or inf")
    return spec.realize(n)


def instance_from_doc(doc, *, bools=True):
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    for key in ("n", "k", "metric", "edges"):
        if key not in doc:
            raise InstanceFormatError(f'instance document missing "{key}"')
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise InstanceFormatError('"n" must be a positive integer')
    if not _is_int(doc["k"]):
        raise InstanceFormatError('"k" must be an integer')
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise InstanceFormatError('"labels" must be a list of strings')
    try:
        "".join(labels or ()).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InstanceFormatError('"labels" must be valid Unicode') from exc
    spec = _metric_from_doc(doc["metric"], bools)
    matrix = _realize(spec, n)
    if not isinstance(doc["edges"], list):
        raise InstanceFormatError("connectivity edges must be [u, v] pairs")
    edges = _edge_array(doc["edges"])
    if edges is None:
        try:
            edges = [(u, v) for u, v in doc["edges"]]
            _require_ids(itertools.chain.from_iterable(edges))
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError("connectivity edges must be [u, v] pairs") from exc
    coords = spec.coords if isinstance(spec, LpMetric) else None
    p = spec.p if isinstance(spec, LpMetric) else None
    return _make_instance(matrix, edges, doc["k"], labels, coords, p)


_JSON_ERRORS = (ValueError, RecursionError)
_DOC_KEYS = frozenset(("n", "k", "metric", "edges", "labels"))
_METRIC_KEYS = {
    "explicit": frozenset(("type", "matrix")),
    "lp": frozenset(("type", "coords", "p")),
    "graph": frozenset(("type", "edges")),
}


def _orjson_instance(data):
    u, f = ("u", "f") if isinstance(data, str) else (b"u", b"f")
    bools = u in data or f in data
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = orjson.loads(data)
            inst = instance_from_doc(doc, bools=bools)
        except Exception:
            return None
        metric = doc["metric"]
        unread = itertools.chain(
            (v for key, v in doc.items() if key not in _DOC_KEYS),
            (v for key, v in metric.items() if key not in _METRIC_KEYS[metric["type"]]),
        )
        if any(isinstance(v, (list, dict)) for v in unread):
            inst = None
    finally:
        if enabled:
            gc.enable()
    return inst


def load_instance(source):
    if not isinstance(source, (str, bytes)):
        return instance_from_doc(source)
    inst = _orjson_instance(source)
    if inst is not None:
        return inst
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        doc = json.loads(source)
    except _JSON_ERRORS as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return instance_from_doc(doc)


def read_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except _JSON_ERRORS as exc:
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc


def load_instance_file(path):
    try:
        with open(path, "rb") as fh:
            inst = _orjson_instance(fh.read())
    except OSError:
        inst = None
    return inst if inst is not None else instance_from_doc(read_json_file(path))


def outcome(load, arg):
    """What ``load(arg)`` gives: the instance's fields, ``dist`` and
    ``coords`` as bytes, or the exception's type and message."""
    try:
        inst = load(arg)
    except Exception as exc:
        return type(exc), str(exc)
    coords = None if inst.coords is None else (inst.coords.shape, inst.coords.tobytes())
    return (
        inst.n,
        inst.k,
        inst.dist.dtype,
        inst.dist.shape,
        inst.dist.tobytes(),
        inst.adj,
        inst.edges,
        inst.labels,
        coords,
        repr(inst.p),
    )
