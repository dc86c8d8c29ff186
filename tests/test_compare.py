"""``ExponentSequence.compare`` against a naive Fraction reference.

The reference values are computed here from the closed forms (``n``,
``n**3``, ``n!``, the superproduct), not from the sequence's memo, so a
wrong ratio in the kernel cannot hide behind the same ratio in the memo.
"""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kothedim.diameters import closedform_diameters
from kothedim.kothe import KotheFamily, check_regularity
from kothedim.sequences import (
    STABLE,
    UNSPECIFIED,
    ExponentSequence,
    PrefixExhaustedError,
    SequenceError,
    _decade_blocks,
    classify_prefix,
)
from kothedim.verify import edd_tail_check, verify_sandwich

# strictly increasing, denominators 1..7 (scale 420)
RATIONAL_VALUES = [Fraction(n * n, 3) + Fraction(1, 1 + n % 7) for n in range(1, 81)]
SPECS = ("linear", "poly:3", "factorial", "superproduct", "rational")
RATIO_SPECS = ("factorial", "superproduct")


def make_seq(spec):
    if spec == "rational":
        return ExponentSequence(
            name="rational", kind="file", declared_class=UNSPECIFIED,
            memo=list(RATIONAL_VALUES),
        )
    return ExponentSequence.from_spec(spec)


def alpha(spec, n):
    if spec == "linear":
        return Fraction(n)
    if spec == "poly:2":
        return Fraction(n**2)
    if spec == "poly:3":
        return Fraction(n**3)
    if spec == "factorial":
        return Fraction(math.factorial(n))
    if spec == "superproduct":
        return Fraction(math.prod(1 + i * (i + 1) for i in range(n)))
    return RATIONAL_VALUES[n - 1]


def sign(x):
    return (x > 0) - (x < 0)


coefficients = st.integers(min_value=-10**6, max_value=10**6)
indices = st.integers(min_value=1, max_value=len(RATIONAL_VALUES))


@settings(max_examples=500, deadline=None)
@given(spec=st.sampled_from(SPECS), a=coefficients, m=indices, b=coefficients, n=indices)
@example(spec="factorial", a=2, m=1, b=1, n=2)
@example(spec="superproduct", a=3, m=1, b=1, n=2)
@example(spec="factorial", a=0, m=5, b=0, n=9)
@example(spec="superproduct", a=-7, m=2, b=-1, n=3)
@example(spec="linear", a=-3, m=1, b=-1, n=3)
@example(spec="factorial", a=10**6, m=3, b=1, n=12)
def test_compare_matches_the_fraction_reference(spec, a, m, b, n):
    seq = make_seq(spec)
    assert seq.compare(a, m, b, n) == sign(a * alpha(spec, m) - b * alpha(spec, n))
    if spec != "rational":
        assert len(seq) == 1  # no generated kind grows its memo to compare


@pytest.mark.parametrize("spec", SPECS)
def test_compare_decides_exact_ties(spec):
    """a * alpha_m = b * alpha_n with a/b = alpha_n/alpha_m in lowest terms,
    for every index pair up to 9 and both signs; a one-unit nudge of a moves
    the sign by the sign of alpha_m > 0."""
    seq = make_seq(spec)
    for m in range(1, 10):
        for n in range(1, 10):
            r = alpha(spec, n) / alpha(spec, m)
            for k in (1, -1, 3):
                a, b = k * r.numerator, k * r.denominator
                assert seq.compare(a, m, b, n) == 0
                assert seq.compare(a + 1, m, b, n) == 1
                assert seq.compare(a - 1, m, b, n) == -1


def test_compare_named_ties():
    assert ExponentSequence.factorial().compare(2, 1, 1, 2) == 0
    assert ExponentSequence.superproduct().compare(3, 1, 1, 2) == 0
    assert ExponentSequence.superproduct().compare(1, 3, 7, 2) == 0  # 21 = 7 * 3


# (a, b) with every sign pair: both negative, mixed, a zero, both positive;
# the 6/-6 pairs tie with alpha_m = alpha_n, the others straddle a ratio
SIGN_PAIRS = [(-6, -6), (-7, -3), (-1, -40), (-5, 4), (4, -5), (0, 3), (0, -3),
              (0, 0), (3, 0), (-3, 0), (6, 6), (7, 3), (1, 40)]


@pytest.mark.parametrize("spec", RATIO_SPECS)
@pytest.mark.parametrize("a,b", SIGN_PAIRS)
def test_ratio_compare_every_sign_pair_matches_stored(spec, a, b):
    """m below, equal to and above n, against the product of ``scaled``
    values (the cursor's route, not the ratio walk)."""
    seq = make_seq(spec)
    for m, n in [(2, 5), (4, 4), (6, 3), (1, 2), (3, 1)]:
        want = sign(a * seq.scaled(m) - b * seq.scaled(n))
        assert seq.compare(a, m, b, n) == want, (m, n)


@pytest.mark.parametrize("spec", RATIO_SPECS)
def test_ratio_compare_of_two_negatives_is_one_call(spec, monkeypatch):
    calls = []
    compare = ExponentSequence.compare

    def spy(self, *args):
        calls.append(args)
        return compare(self, *args)

    monkeypatch.setattr(ExponentSequence, "compare", spy)
    seq = make_seq(spec)
    assert seq.compare(-7, 3, -2, 5) == 1
    assert seq.compare(-2, 5, -7, 3) == -1
    assert len(calls) == 2


@pytest.mark.parametrize("spec", SPECS)
def test_compare_rejects_index_zero(spec):
    with pytest.raises(SequenceError):
        make_seq(spec).compare(1, 0, 1, 1)
    with pytest.raises(SequenceError):
        make_seq(spec).compare(1, 1, 1, 0)
    with pytest.raises(SequenceError):
        make_seq(spec).quotient(0, 1)
    with pytest.raises(SequenceError):
        make_seq(spec).quotient(1, 0)


# -- the closed-form kernel path: m**d with no call per alpha value ----------

CLOSED_SPECS = ("linear", "poly:2", "poly:3")
# zero, both signs, and a pair of large integers
KERNEL_INTEGERS = (-10**30, -7, -1, 0, 1, 3, 10**30 + 1)
KERNEL_INDICES = (1, 2, 3, 8, 1000, 10**9)


@pytest.mark.parametrize("spec", CLOSED_SPECS)
def test_closed_form_compare_matches_the_fraction_reference(spec):
    seq = make_seq(spec)
    for a in KERNEL_INTEGERS:
        for m in KERNEL_INDICES:
            assert seq.compare_to(a, m, 0) == sign(a)
            for b in KERNEL_INTEGERS:
                want_to = sign(a * alpha(spec, m) - b)
                assert seq.compare_to(a, m, b) == want_to, (a, m, b)
                for n in KERNEL_INDICES:
                    want = sign(a * alpha(spec, m) - b * alpha(spec, n))
                    assert seq.compare(a, m, b, n) == want, (a, m, b, n)
    assert seq.memo == [1]


@pytest.mark.parametrize("spec", CLOSED_SPECS)
def test_closed_form_compare_rejects_index_zero_on_either_side(spec):
    seq = make_seq(spec)
    for a, b in ((1, 1), (0, 0), (-1, 2)):
        for m, n in ((0, 1), (1, 0), (0, 0), (-1, 3)):
            with pytest.raises(SequenceError):
                seq.compare(a, m, b, n)
        with pytest.raises(SequenceError):
            seq.compare_to(a, 0, b)


@pytest.mark.parametrize("spec", CLOSED_SPECS)
def test_closed_form_scaled_values_match_scaled(spec):
    seq = make_seq(spec)
    got = list(itertools.islice(seq.scaled_values(), 1000))
    assert got == [seq.scaled(n) for n in range(1, 1001)]
    assert got == [alpha(spec, n) for n in range(1, 1001)]


# m < n, m = n and m > n, near and far apart
QUOTIENT_INDICES = [
    (m, n) for m in (1, 2, 3, 7, 40, 80) for n in (1, 2, 5, 7, 41, 80)
]


@pytest.mark.parametrize("spec", SPECS)
def test_quotient_matches_the_closed_forms(spec):
    seq = make_seq(spec)
    for m, n in QUOTIENT_INDICES:
        assert seq.quotient(m, n) == alpha(spec, m) / alpha(spec, n), (m, n)
    if spec in RATIO_SPECS:
        assert len(seq) == 1  # the ratio steps read no memo
    if spec == "rational":
        with pytest.raises(PrefixExhaustedError) as by_value:
            seq.value(81)
        for m, n in ((81, 1), (1, 81)):
            with pytest.raises(PrefixExhaustedError) as info:
                seq.quotient(m, n)
            assert str(info.value) == str(by_value.value)


@pytest.mark.parametrize("spec", SPECS + ("rational file",))
def test_classify_prefix_doubling_matches_the_per_n_quotient(spec):
    """classify_prefix steps alpha_2n / alpha_n from alpha_2(n-1) /
    alpha_(n-1); its report matches one read from quotient(2n, n) per n.
    The file alpha is declared stable, so its decade blocks are read too."""
    if spec == "rational file":
        values = [Fraction(n * n, 3) + Fraction(1, 1 + n % 7) for n in range(1, 1201)]
        seq = ExponentSequence(
            name="rational", kind="file", declared_class=STABLE, memo=values
        )
    else:
        seq = make_seq(spec)
    horizons = (4, 5, 21, 80) if spec == "rational" else (4, 5, 21, 80, 201, 1200)
    for horizon in horizons:
        report = classify_prefix(seq, horizon)
        doubling = [seq.quotient(2 * n, n) for n in range(1, horizon // 2 + 1)]
        assert report.max_doubling_ratio == max(doubling), horizon
        if seq.declared_class == STABLE:
            per_block = [max(doubling[lo - 1 : hi]) for lo, hi in _decade_blocks(len(doubling))]
            consistent = len(per_block) < 2 or per_block[-1] <= max(per_block[:-1])
            assert report.consistent_with_declared == consistent, horizon


def test_compare_on_a_file_prefix_raises_where_scaled_does():
    seq = make_seq("rational")
    with pytest.raises(PrefixExhaustedError) as info:
        seq.compare(1, 1, 1, 81)
    assert str(info.value) == "rational: prefix of length 80 exhausted at n=81"


@pytest.mark.parametrize("spec", RATIO_SPECS)
def test_closed_form_and_verify_keep_the_memo_at_count(spec):
    family = KotheFamily(ExponentSequence.from_spec(spec))
    count = 4000
    table = closedform_diameters(family, 1, 2, count)
    verify_sandwich(family, 1, 2, table)
    edd_tail_check(family, 1, 2, table)
    assert len(family.seq) == 1


def test_regularity_check_keeps_the_superproduct_memo_small():
    family = KotheFamily(ExponentSequence.superproduct())
    assert check_regularity(family, 5000).passed
    assert len(family.seq) == 1


# -- drawn file prefixes -------------------------------------------------------

# strictly increasing rationals with denominators 1 to 12
file_prefixes = st.sets(
    st.builds(Fraction, st.integers(1, 10**5), st.integers(1, 12)), min_size=1, max_size=40
).map(sorted)
# exponents at and next to both clamps of exp_float, and the double range's end
CLAMP_EXPONENTS = [Fraction(e) + d for e in (710, -746, 709, -745)
                   for d in (0, Fraction(1, 10**9), Fraction(-1, 10**9))]


def exp_reference(x):
    """``exp_float`` of the exact exponent x, from its Fraction."""
    if x >= 710:
        return math.inf, True
    if x <= -746:
        return 0.0, True
    try:
        return math.exp(float(x)), False
    except OverflowError:
        return math.inf, True


@settings(max_examples=300, deadline=None)
@given(values=file_prefixes, data=st.data())
def test_file_prefix_reads_match_the_fraction_reference(values, data):
    seq = ExponentSequence(name="drawn", kind="file", declared_class=UNSPECIFIED,
                           memo=list(values))
    assert all(type(v) is int for v in seq.memo) and len(seq) == len(values)
    index = st.integers(1, len(values))
    m, n = data.draw(index), data.draw(index)
    a, b, c = data.draw(coefficients), data.draw(coefficients), data.draw(coefficients)
    coeff = data.draw(st.one_of(
        st.fractions(-1000, 1000, max_denominator=60),
        st.sampled_from(CLAMP_EXPONENTS).map(lambda e: e / values[m - 1]),
    ))
    want = coeff * values[m - 1]
    got = seq.exponent(coeff, m)
    assert type(got) is Fraction and (got.numerator, got.denominator) == (
        want.numerator, want.denominator)
    assert seq.value(m) == values[m - 1]
    assert seq.exp_float(coeff, m) == exp_reference(want)
    assert seq.compare(a, m, b, n) == sign(a * values[m - 1] - b * values[n - 1])
    assert seq.compare_to(a, m, c) == sign(a * values[m - 1] - c)
    assert seq.quotient(m, n) == values[m - 1] / values[n - 1]
    past = len(values) + 1
    for read in (lambda: seq.exponent(coeff, past), lambda: seq.exp_float(coeff, past),
                 lambda: seq.compare(a, past, b, n), lambda: seq.compare(a, m, b, past),
                 lambda: seq.compare_to(a, past, c), lambda: seq.quotient(past, n),
                 lambda: seq.value(past)):
        with pytest.raises(PrefixExhaustedError, match=f"exhausted at n={past}"):
            read()
