"""JSON rendering of exact values past Python's integer-string digit limit,
and the one-pass writer against ``json.dumps`` of the rendered value."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonewt.euclid import Estimate
from clonewt.render import fraction_text, json_text, jsonable


def _str_without_limit(q: Fraction) -> str:
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:  # Python 3.10 has no limit
        return str(q)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return str(q)
    finally:
        set_limit(limit)


@pytest.mark.parametrize(
    "q",
    [
        Fraction(1, 3**11000),
        Fraction(-(7**6000) - 1, 2**17000),
        Fraction(10**5000),
        Fraction(-(10**1200), 10**599 + 1),
        Fraction(10**1200 - 1),
        Fraction(10**1200),
        Fraction(10**2400 + 1),
        Fraction(-3 * 10**4800),
        Fraction(3, 7),
        Fraction(-5),
        Fraction(0),
    ],
)
def test_fraction_text_matches_str_at_any_size(q):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert fraction_text(q) == _str_without_limit(q)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_long_denominator_round_trips_in_a_document():
    q = Fraction(2**16001 + 1, 3**11000)
    assert q.denominator > 10**5000
    doc = jsonable({"w": [q, Fraction(1, 2), 1, 0.5, None]})
    assert doc == {"w": [_str_without_limit(q), "1/2", 1, 0.5, None]}


def _dumps(doc) -> str:
    return json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"


def _outcome(write, doc):
    """The text ``write`` gives for ``doc``, or the type of what it raised."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-300, math.inf, -math.inf, math.nan]),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=6),
    st.sampled_from(["\ud800", "a\udfffb", "\u00e9\u20ac\U0001f600", "\"\\\n\t\x00"]),
    _floats,
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.fractions(),
    st.integers(4300, 5000).map(lambda k: Fraction(-(10**k) - 7, 3 * 2**k)),
    st.builds(Estimate, _floats, _floats, st.integers(0, 10**6), st.integers(0, 99),
              st.integers(1, 64)),
)
# int and str keys that collide once rendered: the later one wins
_keys = st.one_of(st.integers(-3, 3), st.sampled_from(["0", "1", "-1", "", "a", "\u00e9"]))
_documents = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_keys, kids, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_json_text_is_json_dumps_of_jsonable(doc):
    assert _outcome(json_text, doc) == _outcome(_dumps, doc)


@settings(max_examples=60, deadline=None)
@given(_documents, st.sampled_from([10**5000, -(10**4301), object(), {1, 2}, 1j, np.bool_(True)]))
def test_json_text_raises_where_json_dumps_does(doc, bad):
    doc = {"doc": doc, "bad": [bad]}
    want = _outcome(_dumps, doc)
    assert isinstance(want, type) and _outcome(json_text, doc) is want


def test_json_text_layout():
    doc = {2: (), "1": {}, 1: [Fraction(1, 3), 0.5, None], "e": Estimate(0.25, 0.01, 10, 1, 4)}
    assert json_text(doc) == (
        '{\n  "1": [\n    "1/3",\n    0.5,\n    null\n  ],\n  "2": [],\n'
        '  "e": {\n    "half_width": 0.01,\n    "value": 0.25\n  }\n}\n'
    )
    assert json_text(np.float64(0.1)) == "0.1\n"
