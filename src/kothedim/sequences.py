"""Exponent sequences: generators, exact reads, finite-prefix classification.

A finite prefix can never decide a ``sup`` or a ``lim``, so each sequence
carries a *declared* analytic class (stable / unstable / unspecified) and the
classification routines only verify necessary conditions, reporting
"consistent" or "inconsistent" with the declaration -- never "proved".
"""
from __future__ import annotations

import decimal
import math
import numbers
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, count, repeat
from pathlib import Path

from .exact import Rational, cancel, format_rational, parse_rational

STABLE = "stable"
UNSTABLE = "unstable"
UNSPECIFIED = "unspecified"

# the unstable kinds, whose successive ratios alpha_i / alpha_{i-1} are ints
_RATIO_KINDS = ("factorial", "superproduct")

# integer arithmetic on Decimals is exact here: no precision or exponent
# bound binds, and a result that would round raises instead
EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


class SequenceError(ValueError):
    """Invalid sequence definition or violated monotonicity invariant."""


class PrefixExhaustedError(SequenceError):
    """A file-backed sequence was asked beyond its prefix."""


class _LowestTerms:
    """A numerator and a positive denominator already in lowest terms.  It
    is registered as a :class:`numbers.Rational`, so the one-argument
    ``Fraction(x)`` copies both as they are, with no gcd."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int) -> None:
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_LowestTerms)


@dataclass
class ExponentSequence:
    """The parameter sequence alpha: exact, positive, strictly increasing.

    ``memo`` holds alpha_1 = 1 for every generated kind, or a ``file``'s
    prefix as the integers ``alpha_n * scale``; it never grows.  ``linear``
    and ``poly:d`` are the closed forms n and n**d (``degree`` is 1 for
    ``linear``).  ``factorial`` and ``superproduct`` read alpha_n from one
    cursor ``_last = (i, alpha_i)``.  The cursor is one tuple, replaced in a
    single assignment, and a read works from the snapshot it took, so a
    sequence shared between threads stays correct.

    ``scale`` is a positive integer with ``alpha_n * scale`` an integer for
    every n: 1 for the generated kinds, whose values are integers, and the
    least common denominator of the prefix's rationals for ``file`` alphas.
    A ``file`` memo is given as rationals ``alpha_n * scale`` (scale 1 by
    default); ``__post_init__`` folds their denominators into ``scale``, so
    ``dataclasses.replace`` of a sequence gives an equal one back.
    """

    name: str
    kind: str
    declared_class: str
    degree: int | None = None
    memo: list[int | Rational] = field(default_factory=list)
    scale: int = 1
    _last: tuple[int, int] = field(init=False, default=(1, 1), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.declared_class not in (STABLE, UNSTABLE, UNSPECIFIED):
            raise SequenceError(f"unknown declared class {self.declared_class!r}")
        if type(self.scale) is not int or self.scale < 1 or self.scale > 1 and self.kind != "file":
            raise SequenceError(f"{self.name}: scale must be a positive int, 1 off a file alpha")
        # linear reads n**1 and poly:d n**d; no other kind has a degree
        closed = self.kind == "linear" and self.degree == 1 or self.kind == "polynomial"
        if not (type(self.degree) is int and self.degree >= 1 if closed
                else self.degree is None and self.kind in ("file", *_RATIO_KINDS)):
            raise SequenceError("polynomial degree must be >= 1" if self.kind == "polynomial" else
                                f"{self.name}: no {self.kind!r} alpha has degree {self.degree!r}")
        for i, v in enumerate(self.memo):
            prev = self.memo[i - 1] if i else Fraction(0)
            if v <= prev:
                raise SequenceError(
                    f"{self.name}: alpha_{i + 1}={format_rational(Fraction(v, self.scale))} "
                    "breaks strict positive increase"
                )
        if self.kind == "file":  # least scale: fold the denominators in, cancel a common factor
            lcd = math.lcm(*(v.denominator for v in self.memo))
            memo = [v.numerator * (lcd // v.denominator) for v in self.memo]
            g = math.gcd(self.scale * lcd, *memo)
            self.scale = self.scale * lcd // g
            self.memo = [v // g for v in memo] if g > 1 else memo
        elif not self.memo:
            self.memo.append(1)  # alpha_1; a ratio kind's later values come from the cursor

    # -- construction ----------------------------------------------------

    @classmethod
    def linear(cls) -> "ExponentSequence":
        return cls(name="linear", kind="linear", declared_class=STABLE, degree=1)

    @classmethod
    def factorial(cls) -> "ExponentSequence":
        return cls(name="factorial", kind="factorial", declared_class=UNSTABLE)

    @classmethod
    def superproduct(cls) -> "ExponentSequence":
        """alpha_n = prod_{i=0}^{n-1} (1 + i*(i+1)); this is the regular kind."""
        return cls(name="superproduct", kind="superproduct", declared_class=UNSTABLE)

    @classmethod
    def polynomial(cls, degree: int) -> "ExponentSequence":
        return cls(
            name=f"poly:{degree}",
            kind="polynomial",
            declared_class=STABLE,
            degree=degree,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExponentSequence":
        """Load one rational per line ("p/q" or integer); '#' starts a comment."""
        values: list[Rational] = []
        if not path:  # Path("") is the directory "."
            raise SequenceError("alpha file path is empty")
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise SequenceError(f"cannot read alpha file {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                v = parse_rational(line)
            except (ValueError, ZeroDivisionError) as exc:
                raise SequenceError(f"{path}:{lineno}: bad rational {line!r}") from exc
            values.append(v)
        if not values:
            raise SequenceError(f"{path}: empty sequence")
        return cls(
            name=f"file:{path}",
            kind="file",
            declared_class=UNSPECIFIED,
            memo=values,
        )

    @classmethod
    def from_spec(cls, spec: str) -> "ExponentSequence":
        """Parse the CLI grammar linear|factorial|superproduct|poly:<d>|file:<path>."""
        spec = spec.strip()
        if spec == "linear":
            return cls.linear()
        if spec == "factorial":
            return cls.factorial()
        if spec == "superproduct":
            return cls.superproduct()
        if spec.startswith("poly:"):
            try:
                degree = int(spec.split(":", 1)[1])
            except ValueError as exc:
                raise SequenceError(f"bad polynomial degree in {spec!r}") from exc
            return cls.polynomial(degree)
        if spec.startswith("file:"):
            return cls.from_file(spec.split(":", 1)[1])
        raise SequenceError(f"unknown alpha spec {spec!r}")

    # -- evaluation -------------------------------------------------------

    def _ratio(self, i: int) -> int:
        """``alpha_i / alpha_{i-1}`` for i >= 2 of a ratio kind: i for
        ``factorial``, 1 + (i-1)i for ``superproduct``; always >= 2."""
        return i if self.kind == "factorial" else 1 + (i - 1) * i

    def scaled(self, n: int) -> int:
        """The exact integer ``alpha_n * scale`` (1-based): n**d, a
        ``file``'s memo entry, or for a ratio kind one :meth:`_ratio` step
        per index from the cursor (forward, or back by exact division), or
        from alpha_1 when that is nearer."""
        if n < 1:
            raise SequenceError(f"alpha index must be >= 1, got {n}")
        if self.degree is not None:
            return n**self.degree
        if self.kind == "file":
            self.prefill(n)
            return self.memo[n - 1]
        i, v = self._last
        if n < i - n:
            i, v = 1, 1
        for j in range(i + 1, n + 1):
            v *= self._ratio(j)
        for j in range(i, n, -1):
            v //= self._ratio(j)
        self._last = (n, v)
        return v

    def value(self, n: int) -> Rational:
        """Exact alpha_n (1-based) as a Fraction."""
        return Fraction(self.scaled(n), self.scale)

    def scaled_values(self) -> Iterator[int]:
        """:meth:`scaled` at 1, 2, 3, ... in order, never moving the cursor; a
        ``file`` alpha raises :class:`PrefixExhaustedError` past its prefix."""
        if self.kind in _RATIO_KINDS:
            return accumulate(map(self._ratio, count(2)), operator.mul, initial=1)
        return map(pow, count(1), repeat(e)) if (e := self.degree) else map(self.scaled, count(1))

    def scaled_decimals(self) -> Iterator[Decimal]:
        """:meth:`scaled_values` as exact Decimals, for printing: ``str`` of
        a Decimal is linear in its digits, of an int quadratic on CPython
        3.11.  A ratio kind takes each :meth:`_ratio` step on the Decimal
        itself (:data:`EXACT_DECIMAL`, one short multiplication); the other
        kinds convert each value, which is small unless a ``file`` holds it."""
        if self.kind in _RATIO_KINDS:
            return accumulate(map(self._ratio, count(2)), EXACT_DECIMAL.multiply,
                              initial=Decimal(1))
        return map(Decimal, self.scaled_values())

    def compare(self, a: int, m: int, b: int, n: int) -> int:
        """The sign (-1, 0 or 1) of ``a * alpha_m - b * alpha_n``, exactly.

        ``a`` and ``b`` are integers, typically coefficient numerators over
        one shared positive denominator.  After the index check, the other
        kinds cross-multiply their :meth:`scaled` integers.  For the ratio
        kinds, once both integers have one sign, the smaller index's alpha
        divides out and the running product of the ratios between the two
        indices is compared with the other integer's magnitude; it is at
        least 2**steps, so the walk stops after about log2 of the integers'
        quotient.  That sign then orients the answer.
        """
        if m < 1 or n < 1:
            raise SequenceError(f"alpha index must be >= 1, got {min(m, n)}")
        if self.kind not in _RATIO_KINDS:
            d = a * self.scaled(m) - b * self.scaled(n)
            return (d > 0) - (d < 0)
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa != sb or sa == 0:
            return (sa > sb) - (sa < sb)  # alpha > 0: the signs decide
        a, b = a * sa, b * sa  # |a| and |b|; sa orients the result
        # m <= n: sign(a - b * R) with R = r_{m+1}...r_n, which only grows;
        # m > n: sign(a * R - b) with R = r_{n+1}...r_m.
        lo, hi, x, y = (m, n, b, a) if m <= n else (n, m, a, b)
        for i in range(lo + 1, hi + 1):
            x *= self._ratio(i)
            if x > y:
                break
        s = (x > y) - (x < y)
        return sa * (-s if m <= n else s)

    def quotient(self, m: int, n: int) -> Rational:
        """The exact ``alpha_m / alpha_n``: a ratio kind multiplies the
        :meth:`_ratio` steps between the two indices and never reads a
        value; the other kinds divide :meth:`scaled` integers."""
        if self.kind not in _RATIO_KINDS:
            return Fraction(self.scaled(m), self.scaled(n))
        if m < 1 or n < 1:
            raise SequenceError(f"alpha index must be >= 1, got {min(m, n)}")
        r = math.prod(map(self._ratio, range(min(m, n) + 1, max(m, n) + 1)))
        return Fraction(r) if m >= n else Fraction(1, r)

    def compare_to(self, a: int, m: int, c: int) -> int:
        """The sign (-1, 0 or 1) of ``a * alpha_m - c``, exactly, for integers
        a and c.  A ratio kind has alpha_1 = 1, so this is :meth:`compare`
        against ``c * alpha_1``, which reads no alpha; the other kinds
        cross-multiply by ``scale``."""
        if self.kind in _RATIO_KINDS:
            return self.compare(a, m, c, 1)
        d = a * self.scaled(m) - c * self.scale
        return (d > 0) - (d < 0)

    def exponent(self, coeff: Rational, m: int) -> Rational:
        """The exact ``coeff * alpha_m`` in lowest terms.  On ``linear`` and
        ``poly:d`` it is one Fraction of ``num * m**d``.  Otherwise, with
        ``v = alpha_m * scale`` and ``D = den * scale``, :func:`cancel` reads
        ``r = v mod D`` (by a mask when D is a power of two, else by one
        ``divmod`` pass over the big v, which yields ``q = v // D`` too) and
        the common factor ``g = gcd(num * r, D)`` on small ints.  The
        coprime pair ``(num * v // g, D // g)`` then takes one big product:
        ``num * v`` when g is 1; that product shifted when D is a power of
        two; else ``q * (num * D // g)``, plus the small ``num * r // g``
        when r is not 0."""
        num, den = coeff.numerator, coeff.denominator
        v = self.scaled(m)
        if self.degree is not None:
            return Fraction(num * v, den)
        den *= self.scale
        g, q, r = cancel(num, v, den)
        if g == 1:
            top = num * v
        elif q is None:  # g divides the power of two den
            top = (num * v) >> (g.bit_length() - 1)
        else:  # num * v // g = q * (num * den // g) + num * r // g, both terms exact
            top = q * (num * den // g)
            if r:
                top += num * r // g
        # the one-argument Fraction takes an int directly, ahead of its slower Rational check
        return Fraction(top) if g == den else Fraction(_LowestTerms(top, den // g))

    def exp_float(self, coeff: Rational, m: int) -> tuple[float, bool]:
        """Best-effort ``e^(coeff * alpha_m)`` as a double, display-only;
        the flag is set when the value clamps to inf (an exponent >= 710, or
        one past the double range) or to 0.0 (<= -746).  On the ratio kinds
        :meth:`compare_to` settles both, so alpha_m is materialised only for
        an unclamped exponent; elsewhere each clamp is one int comparison of
        ``num * alpha_m * scale``.  The value is then the correctly rounded
        quotient ``num * alpha_m * scale / (den * scale)``."""
        num, den = coeff.numerator, coeff.denominator
        if self.kind in _RATIO_KINDS:  # alpha_m > 0: the sign of coeff leaves at most one clamp
            if num > 0 and self.compare_to(num, m, 710 * den) >= 0:
                return math.inf, True
            if num < 0 and self.compare_to(num, m, -746 * den) <= 0:
                return 0.0, True
        x = num * self.scaled(m)  # exact; off the ratio kinds the int that settles both clamps
        den *= self.scale
        if not -746 * den < x < 710 * den:
            return (math.inf if x > 0 else 0.0), True
        try:
            return math.exp(x / den), False
        except OverflowError:  # e^x passes the double range from x ~ 709.78 on
            return math.inf, True

    def prefill(self, n: int) -> None:
        """Check that alpha_1..alpha_n can be read: a ``file`` prefix shorter
        than n raises :class:`PrefixExhaustedError`; a no-op for the generated
        kinds, which store only alpha_1 and read at the cost :meth:`scaled` gives."""
        if self.kind == "file" and (m := len(self.memo)) < n:
            raise PrefixExhaustedError(f"{self.name}: prefix of length {m} exhausted at n={m + 1}")

    def __len__(self) -> int:
        """The number of values in ``memo``: a ``file``'s prefix length, else 1
        (alpha_1); a generated kind's reads store only the cursor."""
        return len(self.memo)


@dataclass(frozen=True)
class ClassifyReport:
    """Exact prefix extrema plus a consistency verdict against the declaration."""

    name: str
    declared_class: str
    horizon: int
    max_doubling_ratio: Rational       # max alpha_{2n}/alpha_n, n <= N/2
    max_successive_ratio: Rational     # max alpha_{n+1}/alpha_n, n < N
    min_successive_ratio_tail: Rational  # min over the last decade of the prefix
    consistent_with_declared: bool
    note: str


def _decade_blocks(limit: int) -> list[tuple[int, int]]:
    """[1,10], (10,100], (100,1000], ... intersected with [1, limit]."""
    blocks = []
    lo, hi = 1, 10
    while lo <= limit:
        blocks.append((lo, min(hi, limit)))
        lo, hi = hi + 1, hi * 10
    return blocks


def classify_prefix(seq: ExponentSequence, horizon: int) -> ClassifyReport:
    """Exact stability statistics over alpha_1..alpha_horizon.

    Consistency is a necessary-condition check: a declared-stable sequence
    must not show exploding doubling ratios across prefix decades, a
    declared-unstable one must show strictly increasing successive ratios
    beyond some reported index.
    """
    if horizon < 4:
        raise SequenceError("classification horizon must be >= 4")
    # alpha_2n / alpha_n from its predecessor: two steps up, one divided out
    half = range(2, horizon // 2 + 1)
    steps = (seq.quotient(2 * n, 2 * n - 2) / seq.quotient(n, n - 1) for n in half)
    doubling = list(accumulate(steps, operator.mul, initial=seq.quotient(2, 1)))
    successive = [seq.quotient(n + 1, n) for n in range(1, horizon)]
    max_doubling = max(doubling)
    max_successive = max(successive)
    tail_lo = max(1, (9 * horizon) // 10)
    tail = successive[tail_lo - 1 :]
    min_tail = min(tail)

    if seq.declared_class == STABLE:
        blocks = _decade_blocks(horizon // 2)
        per_block = [
            max(doubling[lo - 1 : hi]) for lo, hi in blocks if lo <= len(doubling)
        ]
        if len(per_block) < 2:
            consistent, note = True, "prefix too short for a decade trend; accepted"
        else:
            consistent = per_block[-1] <= max(per_block[:-1])
            note = (
                "doubling ratio non-exploding across decades"
                if consistent
                else "doubling ratio grows into the last decade"
            )
    elif seq.declared_class == UNSTABLE:
        rise_from = len(successive) - 1
        while rise_from > 0 and successive[rise_from] > successive[rise_from - 1]:
            rise_from -= 1
        # successive is strictly increasing on [rise_from, end)
        consistent = rise_from <= max(1, horizon // 2)
        note = (
            f"successive ratio strictly increasing from n={rise_from + 1}"
            if consistent
            else "no strictly increasing tail of successive ratios found"
        )
    else:
        consistent, note = True, "no declared class; statistics only"

    return ClassifyReport(
        name=seq.name,
        declared_class=seq.declared_class,
        horizon=horizon,
        max_doubling_ratio=max_doubling,
        max_successive_ratio=max_successive,
        min_successive_ratio_tail=min_tail,
        consistent_with_declared=consistent,
        note=note,
    )
