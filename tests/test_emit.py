"""Pins for the CLI's document encoder.

``cli._emit`` writes ``json.dumps(doc, indent=2, sort_keys=True)`` and a
newline.  It hands the documents ``cli._orjson_safe`` passes to orjson,
which writes them faster; the bytes must stay ``json``'s for every
document, on either side of the guard.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conncluster import cli


def _emitted(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, None)
    return out.getvalue()


def _reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _ulps(x: float, steps: int) -> float:
    """``x`` moved ``steps`` floats up (down when negative)."""
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        x = math.nextafter(x, toward)
    return x


#: Floats a few ulps around both edges of the range orjson writes as
#: ``repr`` does, and the values outside it
EDGE_FLOATS = st.builds(
    lambda edge, steps, sign: sign * _ulps(edge, steps),
    st.sampled_from([1e-4, 1e16]),
    st.integers(-3, 3),
    st.sampled_from([1.0, -1.0]),
)
SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf]
)
FLOATS = st.one_of(EDGE_FLOATS, SPECIAL_FLOATS, st.floats())

#: Ints at and past the int64 and uint64 edges
EDGE_INTS = st.sampled_from(
    [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, 2**64 + 1, 10**30, -(10**30)]
)
INTS = st.one_of(EDGE_INTS, st.integers())

#: ASCII, escaped characters (controls, quotes, backslashes, DEL), and
#: text outside ASCII, a lone surrogate included
STRINGS = st.one_of(
    st.text(st.characters(max_codepoint=127)),
    st.text(st.sampled_from('\x00\x1f\n\t"\\/\x7f\x80é \U0001f600\ud800ab')),
    st.text(),
)

SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, STRINGS)

DOCS = st.dictionaries(
    STRINGS,
    st.recursive(
        SCALARS,
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(STRINGS, children, max_size=5),
        max_leaves=20,
    ),
    max_size=6,
)

#: Documents inside the guard, so orjson writes them: ASCII keys,
#: printable strings, int64 ints and floats at 0 or in [1e-4, 1e16)
SAFE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
)
SAFE_STRINGS = st.text(st.characters(min_codepoint=0, max_codepoint=126))
SAFE_DOCS = st.dictionaries(
    SAFE_STRINGS,
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**63), 2**63 - 1),
            SAFE_FLOATS,
            SAFE_STRINGS,
        ),
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(SAFE_STRINGS, children, max_size=5),
        max_leaves=20,
    ),
    max_size=6,
)


@settings(max_examples=200)
@given(DOCS)
def test_emit_writes_json_bytes(doc):
    assert _emitted(doc) == _reference(doc)


@settings(max_examples=150)
@given(SAFE_DOCS)
def test_emit_writes_json_bytes_inside_the_guard(doc):
    assert cli._orjson_safe(doc)
    assert _emitted(doc) == _reference(doc)


def test_emit_writes_json_bytes_for_lists_of_one_kind():
    """Clusters and matrix rows: lists of ints only or of floats only."""
    safe = {
        "clusters": [[0, 3, 1], [2**63 - 1, -(2**63)], []],
        "matrix": [[0.0, 1.5, 1e-4], [-0.0, 9999999999999998.0, -2.5]],
    }
    assert cli._orjson_safe(safe)
    assert _emitted(safe) == _reference(safe)


def test_each_fallback_writes_json_bytes():
    """One document per value the guard sends to ``json``."""
    unsafe = [
        {"label": "é"},
        {"label": "\x7f"},
        {"é": 1},
        {1: "a non-str key"},
        {"n": 2**63},
        {"ids": [0, 2**63]},
        {"ids": [-(2**63) - 1, 0]},
        {"value": 1e-5},
        {"value": 1e16},
        {"row": [0.0, 3.008264692815159e-05]},
        {"row": [math.nan, 1.0]},
        {"value": math.inf},
        {"pair": (1, 2)},
        {"mixed": [1, "é"]},
    ]
    for doc in unsafe:
        assert not cli._orjson_safe(doc), doc
        assert _emitted(doc) == _reference(doc)
