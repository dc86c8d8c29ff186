"""Exact rational scalars and symbolic log-domain values.

Every comparison made anywhere in this package is exact.  A plain
coefficient is a :class:`fractions.Fraction`; a value ``e^(coeff *
alpha_n)`` is a :class:`LogTerm`, ordered by its exponent, which the
sequence's integer kernel ``ExponentSequence.compare`` decides.  Floats
appear only in display/export paths and are flagged as non-authoritative
there.
"""
from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .sequences import ExponentSequence

# Rational values are stdlib Fractions: arbitrary precision, kept in lowest
# terms with a positive denominator, exact ordering.  The alias keeps call
# sites honest about which quantities are part of the exact domain.
Rational = Fraction

# integer arithmetic on Decimals is exact here: no precision or exponent
# bound binds, and a result that would round raises instead
EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)

# ints of at most this many bits (617 digits) are printed by str, inside
# the least int-to-str digit limit that Python admits (640)
_STR_BITS = 2048


def parse_rational(text: str) -> Rational:
    """Parse ``"p/q"`` or a plain integer/decimal string into a Fraction.

    Malformed text and a zero denominator both raise ``ValueError``.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text.strip()!r}") from None


def int_text(n: int) -> str:
    """``str(n)`` at any size, in subquadratic time and past Python's
    int-to-str digit limit.  A long int is split into halves by bits, each
    half converted to an exact Decimal and the two recombined as ``hi *
    2**w + lo`` (the method of CPython 3.12's ``_pylong``); ``str`` of the
    Decimal is linear in its digits, where ``str`` of an int is quadratic
    on CPython 3.11.  Only ints of at most _STR_BITS bits go through ``str``."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:  # 2**w, each width computed once
        if (p := powers.get(w)) is None:
            p = powers[w] = (Decimal(1 << w) if w <= _STR_BITS else
                             EXACT_DECIMAL.multiply(power(w >> 1), power(w - (w >> 1))))
        return p

    def exact(m: int, w: int) -> Decimal:  # m >= 0 of at most w bits
        if w <= _STR_BITS:
            return Decimal(str(m))
        half = w >> 1
        return EXACT_DECIMAL.fma(exact(m >> half, w - half), power(half),
                                 exact(m & ((1 << half) - 1), half))

    digits = str(exact(abs(n), n.bit_length()))
    return f"-{digits}" if n < 0 else digits


def format_rational(x: Rational | int) -> str:
    """Serialize as ``"p/q"``, or ``"p"`` when the denominator is 1; an int
    has a numerator and a denominator of 1 too, so it is not copied.  Both
    are printed by :func:`int_text`: in subquadratic time, with no digit
    limit."""
    if x.denominator == 1:
        return int_text(x.numerator)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


@dataclass(frozen=True, slots=True, init=False)
class LogTerm:
    """The real number ``e^(coeff * alpha_index)``, kept symbolic.

    ``coeff`` is dimensionless and exact; ``alpha_index`` indexes into an
    exponent sequence.  The denoted value is only ever materialized as a
    float for display.  The ``__init__``, which takes the fields in field
    order, is written by hand: a store through each slot costs about half
    the generated frozen one's ``object.__setattr__`` per field.
    """

    coeff: Rational
    alpha_index: int

    def __init__(self, coeff: Rational, alpha_index: int) -> None:
        _set_coeff(self, coeff)
        _set_alpha_index(self, alpha_index)

    def log_value(self, seq: "ExponentSequence") -> Rational:
        """Exact exponent ``coeff * alpha_{alpha_index}``: ``ExponentSequence.exponent``."""
        return seq.exponent(self.coeff, self.alpha_index)


_set_coeff = LogTerm.coeff.__set__
_set_alpha_index = LogTerm.alpha_index.__set__


def logterm_cmp(x: LogTerm, y: LogTerm, seq: "ExponentSequence") -> int:
    """Exact order of the denoted reals: -1, 0 or 1.

    ``e^a < e^b`` iff ``a < b``: ``seq.compare`` decides the exponents with
    the coefficients cross-multiplied to one positive denominator.  Ties,
    which genuinely occur (e.g. ``e^(-3/2*a_1) = e^(-1/2*a_3)`` for linear
    alpha), are detected exactly.
    """
    a, b = x.coeff, y.coeff
    return seq.compare(a.numerator * b.denominator, x.alpha_index,
                       b.numerator * a.denominator, y.alpha_index)


def scaled_numerator(coeff: Rational, denom: int) -> int:
    """The integer ``coeff * denom``; ``denom`` must be a multiple of
    ``coeff``'s denominator, else ``ValueError``."""
    numerator, rest = divmod(coeff.numerator * denom, coeff.denominator)
    if rest:
        raise ValueError(
            f"coefficient {format_rational(coeff)} has no denominator "
            f"dividing {denom}"
        )
    return numerator


def cancel(k: int, v: int, d: int) -> tuple[int, int | None, int]:
    """``(g, q, r)`` for ints k, v and d >= 1: ``g = gcd(k * v, d)``, the
    factor that cancels from ``k * v / d``, is ``gcd(k * r, d)`` on small
    ints, with ``r = v mod d``.  A power-of-two d, 1 included, takes a mask
    and leaves the quotient ``q`` None; any other d takes one ``divmod``
    pass over v, which yields ``q = v // d`` as well."""
    if d & (d - 1):
        q, r = divmod(v, d)
    else:
        q, r = None, v & (d - 1)
    return math.gcd(k * r, d), q, r


def fraction_to_float(x: Rational) -> tuple[float, bool]:
    """Double conversion with overflow clamped to +-inf; flag set when clamped."""
    try:
        return float(x), False
    except OverflowError:
        # the sign decides the clamp; float(x.numerator) would overflow too
        return (math.inf if x > 0 else -math.inf), True
