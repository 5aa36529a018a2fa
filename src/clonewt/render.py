"""JSON rendering of results: exact rationals become ``p/q`` strings.

Exact weights can outgrow Python's integer-string digit limit (4300 digits
by default; ``mccp`` sweeps reach thousands of digits), so numerators and
denominators are converted in chunks that ``str()`` accepts under any
limit, without changing the limit for the process.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .euclid import Estimate

__all__ = ["fraction_text", "jsonable"]

#: Digits per chunk: fewer than 640, the least limit Python accepts, so
#: ``str()`` converts a chunk whatever limit is in force.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _digits(n: int) -> str:
    """Decimal digits of n >= 0, split at powers of ten until each part is
    below one chunk."""
    if n < _CHUNK:
        return str(n)
    power, width = _CHUNK, _CHUNK_DIGITS
    while power * power <= n:
        power, width = power * power, 2 * width
    high, low = divmod(n, power)
    return _digits(high) + _digits(low).zfill(width)


def fraction_text(value: Rational) -> str:
    """``str(Fraction(value))`` ('p/q', or 'p' for integers) at any size."""
    q = value if isinstance(value, Fraction) else Fraction(value)
    p, d = q.numerator, q.denominator
    if -_CHUNK < p < _CHUNK and d < _CHUNK:
        return str(q)
    text = ("-" if p < 0 else "") + _digits(abs(p))
    return text if d == 1 else f"{text}/{_digits(d)}"


def jsonable(value):
    """JSON-able rendering of a result: exact rationals become 'p/q'
    strings, Monte-Carlo estimates value/half-width pairs, containers are
    rendered element by element."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Estimate):
        return {"value": value.value, "half_width": value.half_width}
    if isinstance(value, Rational):
        return fraction_text(value)
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialise {type(value).__name__}")
