import dataclasses
import inspect
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kothedim.diameters import (
    DiameterEntry,
    closedform_diameters,
    oracle_diameters,
)
from kothedim.exact import (
    LogTerm,
    format_rational,
    fraction_to_float,
    logterm_cmp,
    parse_rational,
    scaled_numerator,
)
from kothedim.kothe import KotheFamily
from kothedim.sequences import UNSPECIFIED, ExponentSequence

rationals = st.fractions(
    min_value=Fraction(-10**30), max_value=Fraction(10**30), max_denominator=10**15
)

LESS, EQUAL, GREATER = -1, 0, 1


def rational_cmp(a, b):
    """Reference order of two Fractions, from Fraction's own comparisons."""
    return (a > b) - (a < b)


def test_rational_cmp_examples():
    assert rational_cmp(Fraction(-1, 2), Fraction(-3, 2)) == GREATER
    assert rational_cmp(Fraction(2, 4), Fraction(1, 2)) == EQUAL
    assert rational_cmp(Fraction(1, 3), Fraction(1, 6) + Fraction(1, 6)) == EQUAL
    assert rational_cmp(Fraction(0), Fraction(1)) == LESS


@given(rationals, rationals)
def test_rational_addition_round_trip(a, b):
    assert (a + b) - b == a


@given(rationals, rationals)
def test_rational_multiplication_round_trip(a, b):
    if b != 0:
        assert (a * b) / b == a


def test_parse_and_format():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-6, 3)) == "-2"


def fraction_logterm_cmp(x, y, seq):
    """Reference order of two LogTerms: the sign of the difference of their
    exact exponents, each built as a Fraction from alpha."""
    diff = x.log_value(seq) - y.log_value(seq)
    return (diff > 0) - (diff < 0)


def test_logterm_cmp_cross_multiplication_tie():
    # e^(-1/2 * a_3) = e^(-3/2 * a_1) for linear alpha
    seq = ExponentSequence.linear()
    x = LogTerm(Fraction(-1, 2), 3)
    y = LogTerm(Fraction(-3, 2), 1)
    assert logterm_cmp(x, y, seq) == EQUAL


def test_logterm_cmp_same_negative_coeff():
    seq = ExponentSequence.linear()
    x = LogTerm(Fraction(-1, 2), 2)
    y = LogTerm(Fraction(-1, 2), 5)
    assert logterm_cmp(x, y, seq) == GREATER


def test_logterm_cmp_unit_term():
    seq = ExponentSequence.linear()
    assert logterm_cmp(LogTerm(Fraction(0), 1), LogTerm(Fraction(-1), 1), seq) == GREATER


def test_logterm_cmp_matches_rational_cmp_at_equal_index():
    seq = ExponentSequence.linear()
    for a, b in [(Fraction(1, 3), Fraction(1, 2)), (Fraction(-2), Fraction(-2)), (Fraction(5, 7), Fraction(-5, 7))]:
        assert logterm_cmp(LogTerm(a, 4), LogTerm(b, 4), seq) == rational_cmp(a, b)


coeffs = st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=50)
indices = st.integers(min_value=1, max_value=60)


@settings(max_examples=200)
@given(
    st.tuples(coeffs, indices),
    st.tuples(coeffs, indices),
    st.tuples(coeffs, indices),
)
def test_logterm_cmp_total_order(t1, t2, t3):
    seq = ExponentSequence.factorial()
    x, y, z = (LogTerm(c, i) for c, i in (t1, t2, t3))
    cxy = logterm_cmp(x, y, seq)
    # antisymmetry
    assert logterm_cmp(y, x, seq) == -cxy
    # transitivity on <=
    if cxy <= 0 and logterm_cmp(y, z, seq) <= 0:
        assert logterm_cmp(x, z, seq) <= 0


def test_logterm_to_float_examples():
    seq = ExponentSequence.linear()
    value, clamped = seq.exp_float(Fraction(-3, 2), 1)
    assert not clamped
    assert value == pytest.approx(math.exp(-1.5), rel=1e-12)
    assert seq.exp_float(Fraction(0), 7) == (1.0, False)


def test_logterm_to_float_underflow_flag():
    seq = ExponentSequence.factorial()
    assert seq.exp_float(Fraction(-1, 2), 100) == (0.0, True)


def test_fraction_to_float_clamps_by_sign():
    assert fraction_to_float(Fraction(3, 4)) == (0.75, False)
    huge = Fraction(10**400, 7)
    assert fraction_to_float(huge) == (math.inf, True)
    assert fraction_to_float(-huge) == (-math.inf, True)
    # a huge numerator over a huge denominator is still an ordinary double
    assert fraction_to_float(Fraction(10**400 + 1, 2 * 10**400)) == (0.5, False)


# a rational file alpha: strictly increasing, denominators 1..12
RATIONAL_FILE = ExponentSequence(
    name="rational",
    kind="file",
    declared_class=UNSPECIFIED,
    memo=[Fraction(n * (n + 1), 2) + Fraction(1, 1 + n % 12) for n in range(1, 61)],
)


def test_scale_is_the_prefix_lcd():
    assert ExponentSequence.linear().scale == 1
    assert RATIONAL_FILE.scale == math.lcm(*range(1, 13))
    for n in (1, 7, 60):
        assert RATIONAL_FILE.scaled(n) == RATIONAL_FILE.value(n) * RATIONAL_FILE.scale
    assert ExponentSequence.factorial().scaled(6) == 720


def halves():
    """A ``file`` alpha of halves, long enough for the large indices below."""
    memo = [Fraction(2 * n - 1, 2) for n in range(1, 4001)]
    return ExponentSequence(name="halves", kind="file", declared_class=UNSPECIFIED, memo=memo)


def quarters():
    """A dyadic ``file`` alpha, (4n - 1)/4, held with scale 4."""
    memo = [Fraction(4 * n - 1, 4) for n in range(1, 4001)]
    return ExponentSequence(name="quarters", kind="file", declared_class=UNSPECIFIED, memo=memo)


# file alphas are never written after construction, so one instance serves every example
FILE_ALPHAS = {"rational": RATIONAL_FILE, "halves": halves(), "quarters": quarters()}


def make_seq(spec):
    return FILE_ALPHAS[spec] if spec in FILE_ALPHAS else ExponentSequence.from_spec(spec)


# coefficients drawn one by one, so their denominators share no pq
@settings(max_examples=300, deadline=None)
@given(
    spec=st.sampled_from(["linear", "poly:3", "factorial", "superproduct", "rational"]),
    x=st.tuples(coeffs, indices),
    y=st.tuples(coeffs, indices),
)
@example(spec="linear", x=(Fraction(-3, 2), 1), y=(Fraction(-1, 2), 3))
@example(spec="rational", x=(Fraction(-3, 7), 5), y=(Fraction(2, 11), 60))
def test_logterm_cmp_matches_the_fraction_reference(spec, x, y):
    seq = make_seq(spec)
    x, y = LogTerm(*x), LogTerm(*y)
    want = fraction_logterm_cmp(x, y, seq)
    assert logterm_cmp(x, y, make_seq(spec)) == want
    assert logterm_cmp(y, x, make_seq(spec)) == -want


def test_logterm_cmp_named_ties_on_the_ratio_kinds():
    # alpha_3 = 6 alpha_1 on factorial, 21 alpha_1 on superproduct
    assert logterm_cmp(LogTerm(Fraction(-6, 5), 1), LogTerm(Fraction(-1, 5), 3),
                       ExponentSequence.factorial()) == EQUAL
    assert logterm_cmp(LogTerm(Fraction(7, 3), 2), LogTerm(Fraction(1, 3), 3),
                       ExponentSequence.superproduct()) == EQUAL


def test_diameter_entries_of_both_engines_are_logterms():
    family = KotheFamily(ExponentSequence.linear())
    tables = [
        closedform_diameters(family, 1, 2, 30),
        oracle_diameters(family, 1, 2, 30),
        oracle_diameters(family, 1, 2, 40, horizon=40),
    ]
    for table in tables:
        assert table.entries
        assert all(isinstance(e, LogTerm) for e in table.entries)
        assert all(e.term() is e for e in table.entries)


def test_log_terms_and_diameter_entries_are_slotted_and_frozen():
    """No per-instance __dict__; fields cannot be assigned, and replace and
    pickle round trips give equal entries with equal hashes."""
    family = KotheFamily(ExponentSequence.linear())
    closed = closedform_diameters(family, 2, 5, 12).entries
    oracle = oracle_diameters(family, 2, 5, 12).entries
    terms = [LogTerm(Fraction(-3, 10), 4), closed[0], closed[-1], oracle[5]]
    for term in terms:
        assert not hasattr(term, "__dict__")
        for field in dataclasses.fields(term):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(term, field.name, 1)
        with pytest.raises((AttributeError, TypeError)):
            term.extra = 1  # no slot to hold it
        for copy in (dataclasses.replace(term), pickle.loads(pickle.dumps(term))):
            assert type(copy) is type(term)
            assert copy == term and hash(copy) == hash(term)
    moved = dataclasses.replace(closed[3], alpha_index=closed[3].alpha_index + 1)
    assert moved != closed[3]
    assert (moved.n, moved.segment, moved.coeff) == (3, closed[3].segment, closed[3].coeff)


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceLogTerm:
    """LogTerm as the generated dataclass __init__ builds it."""

    coeff: Fraction
    alpha_index: int


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceDiameterEntry(ReferenceLogTerm):
    n: int
    segment: str
    certified: bool


HAND_WRITTEN_INITS = [
    (LogTerm, ReferenceLogTerm, (Fraction(-3, 10), 4)),
    (DiameterEntry, ReferenceDiameterEntry, (Fraction(-7, 10), 9, 5, "K", True)),
]


@pytest.mark.parametrize("cls", [LogTerm, DiameterEntry], ids=lambda cls: cls.__name__)
def test_hand_written_init_takes_every_field_in_field_order(cls):
    """A field added later and left out of the __init__ would leave its slot unset."""
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    assert cls.__match_args__ == tuple(names)


@pytest.mark.parametrize("cls, reference, args", HAND_WRITTEN_INITS, ids=["LogTerm", "DiameterEntry"])
def test_hand_written_init_builds_what_the_generated_one_builds(cls, reference, args):
    names = [f.name for f in dataclasses.fields(cls)]
    positional, keyword = cls(*args), cls(**dict(zip(names, args)))
    want = reference(*args)
    for term in (positional, keyword):
        assert term == positional and hash(term) == hash(positional) == hash(want)
        assert dataclasses.astuple(term) == dataclasses.astuple(want)
        assert repr(term) == repr(want).replace(reference.__name__, cls.__name__, 1)
        assert [getattr(term, name) for name in names] == list(args)
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls(*args, extra=0)


@settings(max_examples=300, deadline=None)
@given(
    spec=st.sampled_from(["linear", "poly:2", "poly:3", "factorial", "superproduct", "rational",
                          "halves", "quarters"]),
    num=st.integers(min_value=-10**12, max_value=10**12),
    den=st.integers(min_value=1, max_value=10**12),
    m=indices,
)
@example(spec="linear", num=0, den=7, m=3)
@example(spec="poly:2", num=-6, den=4, m=2)
@example(spec="rational", num=-3, den=7, m=60)
def test_log_value_is_the_exact_exponent_in_lowest_terms(spec, num, den, m):
    seq = make_seq(spec)
    coeff = Fraction(num, den)
    value = LogTerm(coeff, m).log_value(seq)
    assert value == coeff * make_seq(spec).value(m)
    assert type(value) is Fraction
    assert value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1


@pytest.mark.parametrize("m", [2000, 3999])
@pytest.mark.parametrize(
    "spec, coeff, want_den",
    [
        ("factorial", Fraction(-3), 1),  # den 1: no division
        ("superproduct", Fraction(-4), 1),
        ("factorial", Fraction(-5, 21), 1),  # 21 divides alpha_m: integral
        ("superproduct", Fraction(-7, 6), 2),  # alpha_m = 3 mod 6: partly reduced
        ("superproduct", Fraction(-1, 2), 2),  # alpha_m odd: coprime
        ("superproduct", Fraction(-3, 10), 10),
        ("halves", Fraction(-3, 7), 14),
        ("halves", Fraction(-3), 2),
        # power-of-two divisors above 2 take the shift and the mask
        ("factorial", Fraction(-3, 4), 1),  # 4 divides alpha_m: remainder 0
        ("superproduct", Fraction(-3, 4), 4),  # alpha_m odd: remainder 1 or 3
        ("factorial", Fraction(-1, 8), 1),
        ("superproduct", Fraction(-1, 8), 8),
        ("quarters", Fraction(-1, 2), 8),  # den * scale = 8
        ("quarters", Fraction(-3, 4), 16),  # den * scale = 16
        ("quarters", Fraction(-4), 1),  # den * scale = 4, remainder 3: integral
        # num shares a factor with the scale (4 or 2), which r alone does not show
        ("quarters", Fraction(-2, 3), 6),  # den * scale = 12, common factor 2
        ("quarters", Fraction(-2), 2),  # den * scale = 4, common factor 2
        ("quarters", Fraction(-6, 11), 22),  # den * scale = 44, common factor 2
        ("halves", Fraction(-4, 5), 5),  # den * scale = 10, common factor 2
    ],
)
def test_exponent_at_large_indices_is_the_fraction_product(spec, coeff, want_den, m):
    """Every branch of ``exponent`` on values of 20k-90k bits, checked
    against the product of two Fractions, alpha read from a fresh sequence."""
    files = {"halves": halves, "quarters": quarters}
    make = files.get(spec, lambda: ExponentSequence.from_spec(spec))
    seq = make()
    value = seq.exponent(coeff, m)
    want = coeff * make().value(m)
    assert type(value) is Fraction
    assert value == want and value.denominator == want_den
    assert (value.numerator, value.denominator) == (want.numerator, want.denominator)
    assert len(seq) == len(make())  # 1 on the ratio kinds: no memo grew


def test_scaled_numerator_needs_a_dividing_denominator():
    assert scaled_numerator(Fraction(-3, 4), 12) == -9
    with pytest.raises(ValueError, match="coefficient -3/4 has no denominator dividing 6"):
        scaled_numerator(Fraction(-3, 4), 6)
