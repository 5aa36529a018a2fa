"""JSON rendering of exact values past Python's integer-string digit limit."""

import sys
from fractions import Fraction

import pytest

from clonewt.render import fraction_text, jsonable


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
