"""Exact scalar carriers: arbitrary-precision rationals extended with two infinities.

Every numeric quantity in this package is a ``fractions.Fraction``.  The only
floats allowed anywhere are the two IEEE infinities, used as endpoints of the
extended real line; ``Fraction`` compares exactly against them, so ordering and
equality on extended scalars are decidable with tolerance zero.

The kernels read and return extended scalars as integer pairs in one format:
a/b as ``(a, b)`` with b > 0 (a :data:`Ratio`), -inf and +inf as ``(-1, 0)``
and ``(1, 0)``, which a compare ``n b - a d`` with a key n/d puts below and
above every key.  :func:`as_pairs` encodes and :func:`pair_value` decodes.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import ValidationError

Scalar = Fraction
ExtScalar = Union[Fraction, float]
# an exact value as (numerator, denominator): the denominator is positive, the pair not reduced
Ratio = tuple[int, int]

NEG_INF: float = float("-inf")
POS_INF: float = float("inf")
NEG_PAIR: Ratio = (-1, 0)
POS_PAIR: Ratio = (1, 0)


def as_scalar(value) -> Fraction:
    """Coerce an int or Fraction to Fraction.  Floats are rejected: they are inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ValidationError(f"expected an exact rational, got {value!r}")


def as_ext(value) -> ExtScalar:
    """Coerce to an extended scalar; the only floats admitted are +-inf."""
    if isinstance(value, float):
        if value == NEG_INF or value == POS_INF:
            return value
        raise ValidationError(f"finite floats are not exact; got {value!r}")
    return as_scalar(value)


def as_pairs(xs: Iterable) -> list[Ratio]:
    """Each extended scalar as its pair: a/b as its integer ratio, -inf and +inf as (-1, 0) and (1, 0)."""
    ext = map(as_ext, xs)
    return [(POS_PAIR if x > 0 else NEG_PAIR) if x.__class__ is float else x.as_integer_ratio() for x in ext]


def pair_value(pair: Ratio) -> ExtScalar:
    """A pair as its extended scalar: (a, b) as ``Fraction(a, b)``, (-1, 0) and (1, 0) as -inf and +inf."""
    a, b = pair
    return Fraction(a, b) if b else POS_INF if a > 0 else NEG_INF


def _max_str_digits() -> int:
    """int's digit limit for str conversion, else its default (4300 before Python 3.10.7)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or getattr(sys.int_info, "default_max_str_digits", 4300)


# the one scalar grammar, ASCII whatever this Python's Fraction takes: [+-]p/q, or [+-]decimal[e[+-]n]
_SCALAR = re.compile(r"([+-]?\d+)/(\d+)|([+-]?(?:\d+\.?\d*|\.\d+))(?:e([+-]?\d+))?", re.ASCII | re.I)


def parse_scalar(text: str) -> Fraction:
    """Parse ``"p/q"`` or an exact decimal string (``"0.3"`` -> 3/10)."""
    match = _SCALAR.fullmatch(text.strip())
    if match is None:
        raise ValidationError(f"cannot parse exact rational from {text!r}")
    # the value is built with 10 ** exponent, so bound the digits on the text first: the
    # value has at most the mantissa's length plus the exponent's magnitude in digits
    p, q, mantissa, exponent = match.groups()
    if exponent:
        limit = _max_str_digits()
        digits = exponent.lstrip("+-0")
        if len(digits) > len(str(limit)) or len(mantissa) + int(digits or 0) > limit:
            raise ValidationError(
                f"exponent too large in {text.strip()!r}: the value would need more than {limit} digits"
            )
    try:
        if mantissa is None:
            return Fraction(int(p), int(q))
        # whole and decimal digits are read apart, as Fraction(str) reads them, so
        # int's digit limit holds for each part alone
        whole, _, decimals = mantissa.lstrip("+-").partition(".")
        n = int(whole or 0) * 10 ** len(decimals) + int(decimals or 0)
        shift = int(exponent or 0) - len(decimals)
        n = -n if mantissa[0] == "-" else n
        return Fraction(n * 10**shift) if shift >= 0 else Fraction(n, 10**-shift)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse exact rational from {text!r}") from exc


def parse_ext(text: str) -> ExtScalar:
    """Like :func:`parse_scalar` but also accepts ``-inf`` / ``+inf`` / ``inf``."""
    lowered = text.strip().lower()
    if lowered in ("-inf", "-infinity"):
        return NEG_INF
    if lowered in ("inf", "+inf", "infinity", "+infinity"):
        return POS_INF
    return parse_scalar(text)


def fmt(x: ExtScalar) -> str:
    """Canonical emission: ``p/q`` (integers as plain ``n``), ``-inf`` or ``+inf``."""
    if isinstance(x, Fraction):
        try:
            return str(x)
        except ValueError as exc:  # int's digit limit, refused as parse_scalar refuses it
            raise ValidationError(f"value too large to print: over {_max_str_digits()} digits") from exc
    if x == NEG_INF:
        return "-inf"
    if x == POS_INF:
        return "+inf"
    raise ValidationError(f"not an extended scalar: {x!r}")
