"""Metamorphic laws: a route to the tables that neither engine shares.

Every comparison the engines and the sandwich check make is between
``c1 * alpha_m`` and ``c2 * alpha_n``, so multiplying alpha by a rational
lambda > 0 changes no order, and nothing they report may move.  A ``file``
alpha holding lambda times a generated kind's values crosses kernel routes:
the file cross-multiplies its integers ``alpha_n * scale`` (lambda = 3/7
gives scale 7), while ``factorial`` and ``superproduct`` walk their ratios;
lambda = 1 compares the two routes on the same values.  The same holds for
the criterion checks: an exact exponent scales by lambda, the (d2) witness
for the bound lambda * B is the one for B, and the regularity criterion
compares alpha_n with alpha_(n+1) only.
"""
import functools
from fractions import Fraction

import pytest

from kothedim.diameters import closedform_diameters, oracle_diameters
from kothedim.kothe import KotheFamily, check_d2_failure, check_regularity
from kothedim.sequences import UNSPECIFIED, ExponentSequence
from kothedim.verify import verify_sandwich

PAIRS = [(1, 2), (2, 5), (3, 7), (1, 4)]
LAMBDAS = [Fraction(3, 7), Fraction(5, 2), Fraction(1)]
# the closed forms at count 2000, the ratio kinds at 150
COUNTS = {"linear": 2000, "poly:2": 2000, "factorial": 150, "superproduct": 150}


def report(family: KotheFamily, p: int, q: int, count: int) -> dict:
    """What the closed form and the sandwich check say about one pair."""
    table = closedform_diameters(family, p, q, count)
    entries = table.entries
    sandwich = verify_sandwich(family, p, q, table)
    return {
        "codes": [code for _, code, _ in entries.rows()],
        "alpha_index": [m for _, _, m in entries.rows()],
        "segments": [seg for _, length, _, _, seg in entries.runs() for _ in range(length)],
        "certified": entries.certified,
        "plan": table.plan,
        "a0": table.a0,
        "tail_start": table.tail_start,
        "upper_violations": sandwich.upper_violations,
        "lower_violations": sandwich.lower_violations,
        "n_found": sandwich.n_found,
    }


@functools.cache
def generated(spec: str, p: int, q: int) -> dict:
    return report(KotheFamily(ExponentSequence.from_spec(spec)), p, q, COUNTS[spec])


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("pq", PAIRS, ids=lambda pq: f"{pq[0]}:{pq[1]}")
@pytest.mark.parametrize("spec", sorted(COUNTS))
def test_scaling_alpha_moves_nothing(spec, pq, lam):
    p, q = pq
    count = COUNTS[spec]
    seq = ExponentSequence.from_spec(spec)
    # the sandwich's lower bound reads alpha up to 4 * (count - 1)
    memo = [lam * seq.value(n) for n in range(1, 4 * count + 1)]
    scaled = ExponentSequence(name=f"{lam}*{spec}", kind="file", declared_class=UNSPECIFIED,
                              memo=memo)
    assert report(KotheFamily(scaled), p, q, count) == generated(spec, p, q)


@pytest.mark.parametrize("pq", PAIRS, ids=lambda pq: f"{pq[0]}:{pq[1]}")
def test_poly_1_gives_the_tables_of_linear(pq):
    p, q = pq
    linear, poly = (KotheFamily(ExponentSequence.from_spec(s)) for s in ("linear", "poly:1"))
    for engine in (closedform_diameters, oracle_diameters):
        assert engine(poly, p, q, 2000) == engine(linear, p, q, 2000)


@functools.cache
def scaled_alpha(spec: str, lam: Fraction) -> ExponentSequence:
    """A file of lambda * alpha_n for n <= 600: past the regularity horizon
    below and every (d2) witness of the bounds below."""
    seq = ExponentSequence.from_spec(spec)
    memo = [lam * seq.value(n) for n in range(1, 601)]
    return ExponentSequence(name=f"{lam}*{spec}", kind="file", declared_class=UNSPECIFIED,
                            memo=memo)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("spec", sorted(COUNTS))
def test_scaling_alpha_scales_every_exact_exponent(spec, lam):
    seq, scaled = ExponentSequence.from_spec(spec), scaled_alpha(spec, lam)
    for coeff in (Fraction(-3, 10), Fraction(-1), Fraction(7, 12), Fraction(5, 2)):
        for m in range(1, 61):
            assert scaled.exponent(coeff, m) == lam * seq.exponent(coeff, m)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("spec", sorted(COUNTS))
def test_scaling_alpha_and_the_d2_bound_keeps_the_witness(spec, lam):
    seq, scaled = ExponentSequence.from_spec(spec), scaled_alpha(spec, lam)
    for j in (1, 2, 3):
        for bound in (Fraction(7, 3), Fraction(100)):
            want = check_d2_failure(KotheFamily(seq), j, bound)
            got = check_d2_failure(KotheFamily(scaled), j, lam * bound)
            [want_witness], [got_witness] = want.witnesses, got.witnesses
            assert got_witness["n"] == want_witness["n"] < len(scaled)
            assert got_witness["exponent_value"] == lam * want_witness["exponent_value"]
            assert got.details == want.details  # scanned_column_elements


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("spec", sorted(COUNTS))
def test_scaling_alpha_keeps_the_regularity_report(spec, lam):
    want = check_regularity(KotheFamily(ExponentSequence.from_spec(spec)), 400)
    got = check_regularity(KotheFamily(scaled_alpha(spec, lam)), 400)
    assert got.verdict == want.verdict
    assert [w["n"] for w in got.witnesses] == [w["n"] for w in want.witnesses]
    assert got.witnesses == want.witnesses  # the required and actual ratios too
    assert got.details == want.details
