"""Exact rational scalars and symbolic log-domain values.

Every comparison made anywhere in this package is exact.  A plain
coefficient is a :class:`fractions.Fraction`; a value ``e^(coeff *
alpha_n)`` is a :class:`LogTerm`, ordered by its exponent, which the
sequence's integer kernel ``ExponentSequence.compare`` decides.  Floats
appear only in display/export paths and are flagged as non-authoritative
there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .sequences import ExponentSequence

# Rational values are stdlib Fractions: arbitrary precision, kept in lowest
# terms with a positive denominator, exact ordering.  The alias keeps call
# sites honest about which quantities are part of the exact domain.
Rational = Fraction

def parse_rational(text: str) -> Rational:
    """Parse ``"p/q"`` or a plain integer/decimal string into a Fraction.

    Malformed text and a zero denominator both raise ``ValueError``.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text.strip()!r}") from None


def format_rational(x: Rational | int) -> str:
    """Serialize as ``"p/q"``, or ``"p"`` when the denominator is 1; an int
    has a numerator and a denominator of 1 too, so it is not copied."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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


def fraction_to_float(x: Rational) -> tuple[float, bool]:
    """Double conversion with overflow clamped to +-inf; flag set when clamped."""
    try:
        return float(x), False
    except OverflowError:
        # the sign decides the clamp; float(x.numerator) would overflow too
        return (math.inf if x > 0 else -math.inf), True
