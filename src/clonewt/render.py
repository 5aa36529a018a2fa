"""JSON rendering of results: exact rationals become ``p/q`` strings.

``json_text`` writes a command's document as sorted-key, two-space-indented
JSON in one walk, the text ``json.dumps(jsonable(doc), indent=2,
sort_keys=True)`` gives (with ``indent`` set, ``json`` runs its pure-Python
encoder, several times slower).  ``jsonable`` gives the same rendering as a
value, for callers that build on it.

Exact weights can outgrow Python's integer-string digit limit (4300 digits
by default; ``mccp`` sweeps reach thousands of digits), so numerators and
denominators are converted in chunks that ``str()`` accepts under any
limit, without changing the limit for the process.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from numbers import Rational

from .euclid import Estimate

__all__ = ["fraction_text", "json_text", "jsonable"]

#: Digits per chunk: fewer than 640, the least limit Python accepts, so
#: ``str()`` converts a chunk whatever limit is in force.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


@functools.cache
def _power(width: int) -> int:
    """10**width, computed once per width (the split widths are 600 * 2**k)."""
    return 10**width


def _digits(n: int) -> str:
    """Decimal digits of n >= 0, split at the largest power 10**(600 * 2**k)
    whose square is at most n, until each part is below one chunk."""
    if n < _CHUNK:
        return str(n)
    width = _CHUNK_DIGITS
    while _power(2 * width) <= n:
        width *= 2
    high, low = divmod(n, _power(width))
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


#: ``json``'s spelling of the floats that ``float.__repr__`` spells otherwise
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(doc) -> str:
    """``json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\\n"``,
    byte for byte, written in one walk over ``doc``; it raises where that
    does (``TypeError`` for an unknown type, ``ValueError`` for an int past
    the digit limit)."""
    out: list[str] = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, out: list[str], newline: str) -> None:
    """Append ``value``'s text to ``out``; ``newline`` starts a line at the
    value's depth.  Leaves are checked in ``jsonable``'s order (no container
    is also one of its leaf types)."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted({str(k): v for k, v in value.items()}.items()):
            out += (sep, _quote(key), ": ")
            _write(item, out, inner)
            sep = comma
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = comma
        out.append(newline + "]")
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, Estimate):
        _write({"half_width": value.half_width, "value": value.value}, out, newline)
    elif isinstance(value, Rational):
        out.append(_quote(fraction_text(value)))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    else:
        raise TypeError(f"cannot serialise {type(value).__name__}")
