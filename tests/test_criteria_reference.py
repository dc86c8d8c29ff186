"""The criterion checks against naive references written here.

``check_regularity``, ``check_d2_failure`` and ``check_nuclearity`` decide
every n on scaled integers.  The references below decide the same
inequalities the direct way: each exponent is a Fraction ``coeff *
alpha_n`` built from ``seq.value``, and the display terms go through
``math.exp`` of that Fraction.  Reports must agree exactly, floats included.
``check_dn`` and ``check_omega`` decide each column region once and count
its failures in closed form; their reference scans n = 1..N one by one.
"""
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kothedim.grid import column_of, pair_index
from kothedim.kothe import (
    KotheFamily,
    SearchCapExceeded,
    check_d2_failure,
    check_dn,
    check_nuclearity,
    check_omega,
    check_regularity,
    dn_lambda_bound,
    omega_j_bound,
)
from kothedim.report import CheckReport
from kothedim.sequences import UNSPECIFIED, ExponentSequence, PrefixExhaustedError


def coeff(k, n):
    """Entry coefficient of row k at position n: -1/k, plus 1 when k > s."""
    return Fraction(-1, k) + (1 if k > column_of(n) else 0)


def ref_regularity(seq, horizon, definition_k=12):
    def crit(s, n):
        return (1 + s * (s + 1)) * seq.value(n) <= seq.value(n + 1)

    def defn(k, n):
        lhs = (coeff(k + 1, n) - coeff(k, n)) * seq.value(n)
        rhs = (coeff(k + 1, n + 1) - coeff(k, n + 1)) * seq.value(n + 1)
        return lhs <= rhs

    witnesses = []
    for n in range(1, horizon + 1):
        s = column_of(n)
        if not crit(s, n):
            witnesses.append(
                {
                    "n": n,
                    "column": s,
                    "required_ratio": Fraction(1 + s * (s + 1)),
                    "actual_ratio": seq.value(n + 1) / seq.value(n),
                }
            )
            if len(witnesses) >= 5:
                break
    definition_n = min(horizon, 300)
    agrees, witness = True, None
    for n in range(1, definition_n + 1):
        s = column_of(n)
        for k in range(1, definition_k + 1):
            expected = crit(s, n) if (k == s and n >= 2) else True
            if defn(k, n) != expected:
                agrees, witness = False, {"k": k, "n": n}
                break
        if not agrees:
            break
    return witnesses, {
        "definition_window": {"K": definition_k, "N": definition_n},
        "definition_agrees_with_criterion": agrees,
        "definition_witness": witness,
    }


def ref_d2(seq, j, bound, search_cap):
    coefficient = Fraction(j + 2, j * (j + 1))
    for y in range(search_cap):
        n = pair_index(j - 1, y)
        value = coefficient * seq.value(n)
        if value > bound:
            return n, value, y + 1
    return None


def ref_exp(exponent):
    if exponent >= 710:
        return math.inf
    if exponent <= -746:
        return 0.0
    try:
        return math.exp(exponent)
    except OverflowError:  # e^x passes the double range from x ~ 709.78 on
        return math.inf


def ref_nuclearity(seq, k, horizon):
    bound = Fraction(-1, k) + Fraction(1, k + 1)
    witnesses, partial_sum, dominates = [], 0.0, True
    for n in range(1, horizon + 1):
        diff = coeff(k, n) - coeff(k + 1, n)
        if diff > bound:
            witnesses.append({"n": n, "coeff_diff": diff, "bound": bound})
        partial_sum += ref_exp(diff * seq.value(n))
        if seq.value(n) < n:
            dominates = False
    return witnesses, partial_sum, dominates


def rational_file(values, name="rational"):
    return ExponentSequence(name=name, kind="file", declared_class=UNSPECIFIED, memo=values)


# strictly increasing, denominators 1..12 (scale = lcm(1..12) = 27720);
# alpha_n < n for the first terms, so alpha does not dominate the index
RATIONAL_VALUES = [
    Fraction(n * (n + 1), 6) + Fraction(1, 1 + n % 12) for n in range(1, 801)
]
SPECS = ("linear", "poly:3", "factorial", "superproduct", "rational")


def make_seq(spec):
    if spec == "rational":
        return rational_file(RATIONAL_VALUES)
    return ExponentSequence.from_spec(spec)


def test_rational_alpha_has_a_scale():
    seq = make_seq("rational")
    assert seq.scale == 27720
    assert seq.value(1) < 1  # the nuclearity index-domination branch fails


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("horizon", [1, 2, 40, 400])
def test_regularity_matches_reference(spec, horizon):
    seq = make_seq(spec)
    report = check_regularity(KotheFamily(seq), horizon)
    witnesses, details = ref_regularity(make_seq(spec), horizon)
    assert report.witnesses == witnesses
    assert report.details == details
    assert report.passed == (not witnesses)


def test_regularity_reference_sees_pass_and_fail():
    # the comparison above covers both verdicts
    assert check_regularity(KotheFamily(make_seq("superproduct")), 400).passed
    for spec in ("linear", "poly:3", "factorial", "rational"):
        assert not check_regularity(KotheFamily(make_seq(spec)), 400).passed


BOUNDS = [Fraction(-5), Fraction(0), Fraction(7, 3), Fraction(1000), Fraction(10**6, 7)]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("bound", BOUNDS, ids=str)
def test_d2_matches_reference(spec, j, bound):
    cap = 35  # column elements; pair_index(2, 34) = 669 stays in the file prefix
    want = ref_d2(make_seq(spec), j, bound, cap)
    family = KotheFamily(make_seq(spec))
    if want is None:
        with pytest.raises(SearchCapExceeded):
            check_d2_failure(family, j, bound, search_cap=cap)
        return
    n, value, scanned = want
    report = check_d2_failure(family, j, bound, search_cap=cap)
    assert report.witnesses == [
        {
            "n": n,
            "column": j,
            "exponent_coeff": Fraction(j + 2, j * (j + 1)),
            "exponent_value": value,
        }
    ]
    assert report.details == {"scanned_column_elements": scanned}


def test_d2_reference_sees_a_rational_tie():
    # (3/2) * alpha_n == bound is not a witness; the next column element is
    seq = make_seq("rational")
    n = pair_index(0, 5)
    bound = Fraction(3, 2) * seq.value(n)
    report = check_d2_failure(KotheFamily(seq), 1, bound, search_cap=35)
    assert report.witnesses[0]["n"] == pair_index(0, 6)
    assert ref_d2(seq, 1, bound, 35)[0] == pair_index(0, 6)


def d2_outcome(run):
    """A d2 result, or the exhausted prefix's message, or "cap"."""
    try:
        got = run()
    except PrefixExhaustedError as exc:
        return "exhausted", str(exc)
    except SearchCapExceeded:
        return "cap"
    if isinstance(got, CheckReport):
        w = got.witnesses[0]
        return w["n"], w["exponent_value"], got.details["scanned_column_elements"]
    return "cap" if got is None else got


@pytest.mark.parametrize("length", [1, 2, 3, 5, 6, 10, 11, 50])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_d2_on_a_short_file_prefix_raises_where_the_scan_raises(length, j):
    # bounds at each stored column element's own exponent (a tie, so the
    # witness is the next element) and just below it: the witness is the
    # last stored column element, or the first one past the prefix
    seq = rational_file(RATIONAL_VALUES[:length])
    coefficient = Fraction(j + 2, j * (j + 1))
    stored = [pair_index(j - 1, y) for y in range(length) if pair_index(j - 1, y) <= length]
    bounds = [Fraction(-1)] + [coefficient * seq.value(n) - e for n in stored for e in (0, Fraction(1, 10**6))]
    last_stored_found = False
    for bound in bounds:
        for cap in sorted({1, len(stored), len(stored) + 1, 100} - {0}):
            want = d2_outcome(lambda: ref_d2(seq, j, bound, cap))
            assert d2_outcome(lambda: check_d2_failure(KotheFamily(seq), j, bound, cap)) == want
            last_stored_found |= bool(stored) and want[0] == stored[-1]
    assert last_stored_found or not stored


def test_d2_makes_logarithmically_many_kernel_calls():
    seq = ExponentSequence.linear()
    calls = []
    compare_to = seq.compare_to

    def counting_compare_to(a, m, c):
        calls.append(m)
        return compare_to(a, m, c)

    seq.compare_to = counting_compare_to
    report = check_d2_failure(KotheFamily(seq), 1, Fraction(10**12), search_cap=10**7)
    y = report.details["scanned_column_elements"] - 1
    # (3/2) alpha_n > 10^12 first holds at column 1's element y
    assert Fraction(3, 2) * pair_index(0, y - 1) <= 10**12 < Fraction(3, 2) * pair_index(0, y)
    assert report.witnesses[0]["n"] == pair_index(0, y)
    assert len(calls) <= 2 * (y + 1).bit_length() + 2
    assert seq.memo == [1]


@pytest.mark.parametrize("spec", SPECS)
def test_exp_float_matches_the_fraction_reference(spec):
    seq = make_seq(spec)
    for m in (1, 2, 3, 7, 20, 60):
        alpha = make_seq(spec).value(m)
        coeffs = [Fraction(-1, 2), Fraction(3, 7), Fraction(-3, 2), Fraction(0), Fraction(-1, 10**9)]
        # exactly at each clamp, and one step inside and outside it
        for edge in (710, -746):
            coeffs += [(edge + e) / alpha for e in (0, Fraction(-1, 10**9), Fraction(1, 10**9))]
        for c in coeffs:
            exponent = c * alpha
            value = ref_exp(exponent)
            clamped = value == math.inf or exponent <= -746
            assert seq.exp_float(c, m) == (value, clamped), (c, m)


@pytest.mark.parametrize("spec", ["factorial", "superproduct"])
def test_clamped_exp_float_reads_no_memo(spec):
    seq = make_seq(spec)
    assert seq.exp_float(Fraction(-1, 2), 10**4) == (0.0, True)
    assert seq.exp_float(Fraction(1, 10**6), 10**4) == (math.inf, True)
    assert len(seq) == 1


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_nuclearity_matches_reference(spec, k):
    horizon = 800 if spec in ("rational", "factorial", "superproduct") else 3000
    report = check_nuclearity(KotheFamily(make_seq(spec)), k, horizon)
    witnesses, partial_sum, dominates = ref_nuclearity(make_seq(spec), k, horizon)
    assert report.witnesses == witnesses
    assert report.details["partial_sum_float"] == partial_sum
    assert report.details["alpha_dominates_index"] == dominates
    assert ("geometric_tail_bound_float" in report.details) == dominates


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_nuclearity_matches_reference_around_the_clamp(k):
    # linear: the bound's term e^(-n / (k(k+1))) clamps to 0.0 from
    # n0 = 746 k(k+1) on (8952 for k = 3); the sum stops well before n0, at
    # the first n whose bound term is below half an ulp of the sum
    n0 = 746 * k * (k + 1)
    stop = {1: 75, 2: 213, 3: 416, 8: 2346}[k]
    for horizon in (stop - 1, stop, stop + 1, n0 - 1, n0, n0 + 1, n0 + 40):
        report = check_nuclearity(KotheFamily(make_seq("linear")), k, horizon)
        witnesses, partial_sum, dominates = ref_nuclearity(make_seq("linear"), k, horizon)
        assert report.witnesses == witnesses == []
        assert report.details["partial_sum_float"] == partial_sum
        assert report.details["alpha_dominates_index"] == dominates
    # n0 is the first n whose exponent reaches the clamp
    bound = Fraction(-1, k * (k + 1))
    assert not make_seq("linear").exp_float(bound, n0 - 1)[1]
    assert make_seq("linear").exp_float(bound, n0) == (0.0, True)


def test_nuclearity_sum_keeps_every_term_before_the_bound_clamps():
    # alpha_n = n + 999/2, k = 1: column 1 carries bound - 1 = -3/2, whose
    # terms clamp from n = 1 on; column 2 on carries bound = -1/2, whose
    # terms do not clamp before alpha_n reaches 1492, so they make the sum;
    # a sum that stopped on the bound - 1 terms would stop at n = 1
    seq = rational_file([Fraction(2 * n + 999, 2) for n in range(1, 1201)])
    report = check_nuclearity(KotheFamily(seq), 1, 1200)
    _, partial_sum, _ = ref_nuclearity(seq, 1, 1200)
    assert report.details["partial_sum_float"] == partial_sum > 0
    assert ref_exp(Fraction(-3 * 1001, 4)) == 0.0
    assert seq.exp_float(Fraction(-3, 2), 1) == (0.0, True)


def triangular(t):
    return t * (t + 1) // 2


@pytest.mark.parametrize("spec", ["superproduct", "factorial"])
@pytest.mark.parametrize("t", [1, 2, 3, 4, 20, 40])
def test_regularity_matches_reference_across_diagonals(spec, t):
    # horizons at T_t, at T_t + 1 and mid-diagonal t: the ratio kinds settle
    # a passing diagonal with one comparison and scan any other n by n
    for horizon in (triangular(t), triangular(t) + 1, triangular(t) + (t + 1) // 2 + 1):
        report = check_regularity(KotheFamily(make_seq(spec)), horizon)
        witnesses, details = ref_regularity(make_seq(spec), horizon)
        assert report.witnesses == witnesses
        assert report.details == details
        assert report.passed == (spec == "superproduct")


def test_checks_read_alpha_only_as_far_as_the_answer_needs():
    factorial = ExponentSequence.factorial()
    assert check_nuclearity(KotheFamily(factorial), 1, 10**12).passed
    assert len(factorial) < 100
    superproduct = ExponentSequence.superproduct()
    assert check_regularity(KotheFamily(superproduct), 10**8).passed
    assert len(superproduct) == 1
    linear = ExponentSequence.linear()
    report = check_d2_failure(KotheFamily(linear), 1, Fraction(10**8))
    assert report.witnesses[0]["n"] == pair_index(0, 11547)
    assert check_nuclearity(KotheFamily(linear), 3, 10**12).passed
    assert linear.memo == [1]  # alpha_1 only: linear is a closed form


def test_nuclearity_covers_both_exp_branches():
    # linear k = 1: exponents -n/2 (or -3n/2 on column 1) cross -746 at n ~ 1492
    seq = make_seq("linear")
    exps = [(coeff(1, n) - coeff(2, n)) * seq.value(n) for n in range(1, 3001)]
    assert any(e <= -746 for e in exps)
    assert any(-746 < e < 710 and e.denominator > 1 for e in exps)
    assert not check_nuclearity(KotheFamily(make_seq("rational")), 1, 50).details[
        "alpha_dominates_index"
    ]


@pytest.mark.parametrize(
    "num,den",
    [
        (710, 1), (709, 1), (1420, 2), (1419, 2), (10**400, 3),
        (-746, 1), (-745, 1), (-1492, 2), (-1491, 2), (-(10**400), 7),
        (3, 4), (-3, 4), (0, 5), (6, 8),
        (2**1100 + 1, 2**1100),  # operands past the double range, a quotient within it
    ],
)
def test_exp_quotient_matches_exp_of_the_fraction(num, den):
    # e^(num/den) as e^(coeff * alpha_1): coeff = num/den where alpha_1 = 1,
    # and coeff = (num/den) * 3/2 on a file alpha whose alpha_1 is 2/3
    exponent = Fraction(num, den)
    want = (ref_exp(exponent), exponent >= 710 or exponent <= -746)
    for spec in ("linear", "poly:3", "factorial", "superproduct"):
        assert make_seq(spec).exp_float(exponent, 1) == want
    assert rational_file([Fraction(2, 3)]).exp_float(exponent * Fraction(3, 2), 1) == want


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=4),
    j=st.integers(min_value=1, max_value=3),
    bound=st.fractions(min_value=-10, max_value=10**4, max_denominator=50),
)
def test_random_rational_alpha_matches_reference(seed, k, j, bound):
    rng = random.Random(seed)
    values, cur = [], Fraction(rng.randint(1, 9), rng.randint(1, 9))
    for _ in range(120):
        values.append(cur)
        cur += Fraction(rng.randint(1, 40), rng.randint(1, 12))
    seq = rational_file(values)
    family = KotheFamily(seq)
    regularity = check_regularity(family, 100)
    assert (regularity.witnesses, regularity.details) == ref_regularity(seq, 100)
    nuclearity = check_nuclearity(family, k, 120)
    witnesses, partial_sum, dominates = ref_nuclearity(seq, k, 120)
    assert nuclearity.details["partial_sum_float"] == partial_sum
    assert nuclearity.details["alpha_dominates_index"] == dominates
    want = ref_d2(seq, j, bound, 10)
    if want is None:
        with pytest.raises(SearchCapExceeded):
            check_d2_failure(family, j, bound, search_cap=10)
    else:
        witness = check_d2_failure(family, j, bound, search_cap=10).witnesses[0]
        assert (witness["n"], witness["exponent_value"]) == want[:2]


@pytest.mark.parametrize("spec", ["linear", "poly:3", "factorial", "superproduct"])
def test_generated_memo_equals_the_recurrence(spec):
    seq = ExponentSequence.from_spec(spec)
    want, prev = [], None
    for n in range(1, 601):
        if spec == "linear":
            v = n
        elif spec == "poly:3":
            v = n**3
        elif spec == "factorial":
            v = 1 if n == 1 else prev * n
        else:
            v = 1 if n == 1 else prev * (1 + (n - 1) * n)
        want.append(v)
        prev = v
    # prefill and read in uneven steps, as callers do
    for n in (1, 2, 7, 8, 150, 600):
        seq.prefill(n)
        assert seq.stored(n) == want[n - 1]
    values = [seq.scaled(n) for n in range(1, 601)]
    assert values == want
    assert all(type(v) is int for v in values)
    # no generated kind grows its memo past alpha_1
    assert seq.memo == [1]
    value = seq.value(600)
    assert type(value) is Fraction and value == want[-1]
    assert seq.scaled(600) == want[-1]


def test_file_memo_stays_rational_and_bounded():
    seq = make_seq("rational")
    assert seq.value(3) is seq.memo[2]
    assert seq.scaled(3) == seq.value(3) * seq.scale
    with pytest.raises(PrefixExhaustedError) as info:
        seq.value(801)
    assert str(info.value) == "rational: prefix of length 800 exhausted at n=801"


# -- DN and Omega: every n scanned -------------------------------------------

HORIZONS = [1, 2, 3, 4, 5, 9, 10, 37, 50, 100, 1000]
COLUMNS = [None] + [column_of(n) for n in range(1, max(HORIZONS) + 1)]


def ref_region_check(criterion, params, details, rows, holds, regions, horizon):
    """Scan n = 1..horizon; ``rows`` names the matrix rows of the inequality,
    ``holds(above)`` decides it divided by alpha_n, each row in ``above``
    taking the +1 of a column left of it, and ``regions`` maps each region
    name to the rows above its columns and to the test for a column s."""
    cases = [("p<=s", details["case_p_le_s"]), ("s<p", details["case_s_lt_p"])]
    witnesses = [{"type": "case", "case": case} for case, ok in cases if not ok]
    verdicts = {name: holds(above) for name, above, _ in regions}
    failures, seen, at_column = 0, set(), {}
    for n in range(1, horizon + 1):
        s = COLUMNS[n]
        if s not in at_column:  # n's entries depend on n only through s
            name = next(name for name, _, contains in regions if contains(s))
            ok = holds({role for role, r in rows.items() if r > s})
            assert ok == verdicts[name]
            at_column[s] = name, ok
        name, ok = at_column[s]
        if not ok:
            failures += 1
            if name not in seen:
                seen.add(name)
                witnesses.append({"type": "n", "n": n, "region": name})
    passed = all(ok for _, ok in cases) and failures == 0
    details = {**details, "region_verdicts": verdicts, "per_n_failures": failures}
    return CheckReport(criterion, params, "pass" if passed else "fail", witnesses, details)


def coeffs(rows, above):
    return {role: Fraction(-1, r) + (role in above) for role, r in rows.items()}


def ref_dn(p, lam, horizon):
    rows = {"p": p, "1": 1, "p+1": p + 1}

    def holds(above):
        c = coeffs(rows, above)
        return c["p"] <= lam * c["1"] + (1 - lam) * c["p+1"]

    params = {"p": p, "p0": 1, "q": p + 1, "C": 1, "lambda": lam, "N": horizon,
              "alpha": "linear"}
    details = {"lambda_bound": dn_lambda_bound(p), "case_p_le_s": holds(set()),
               "case_s_lt_p": holds({"p", "p+1"})}
    regions = [
        ("s>=p+1", set(), lambda s: s >= p + 1),
        ("s=p", {"p+1"}, lambda s: s == p),
        ("s<p", {"p", "p+1"}, lambda s: s < p),
    ]
    return ref_region_check("dn", params, details, rows, holds, regions, horizon)


def ref_omega(p, k, j, horizon):
    rows = {"p": p, "k": k, "p+1": p + 1}

    def holds(above):
        c = coeffs(rows, above)
        return j * c["p"] + c["k"] <= (j + 1) * c["p+1"]

    params = {"p": p, "q": p + 1, "k": k, "C": 1, "j": j, "N": horizon, "alpha": "linear"}
    details = {"j_bound": omega_j_bound(p, k), "case_p_le_s": holds({"k"}),
               "case_s_lt_p": holds({"p", "k", "p+1"})}
    regions = [
        ("s>=k", set(), lambda s: s >= k),
        ("p+1<=s<k", {"k"}, lambda s: p + 1 <= s < k),
        ("s=p", {"k", "p+1"}, lambda s: s == p),
        ("s<p", {"p", "k", "p+1"}, lambda s: s < p),
    ]
    return ref_region_check("omega", params, details, rows, holds, regions, horizon)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_dn_matches_per_n_reference(p):
    family = KotheFamily(make_seq("linear"))
    bound = dn_lambda_bound(p)
    failing = 0
    for lam in [Fraction(a, 12) for a in range(1, 12)] + [bound, bound / 2]:
        for horizon in HORIZONS:
            want = ref_dn(p, lam, horizon).to_json()
            assert check_dn(family, p, lam, horizon).to_json() == want, (lam, horizon)
            failing += want["details"]["per_n_failures"] > 0
    # the grid reaches the per-n counts; p = 1 has no column s < p and
    # fails only symbolically
    assert failing or p == 1


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_omega_matches_per_n_reference(p):
    family = KotheFamily(make_seq("linear"))
    failing = 0
    for k in range(p + 1, p + 6):  # k = p+1: the region p+1 <= s < k is empty
        for j in [Fraction(a, 3) for a in range(40)]:
            for horizon in HORIZONS:
                want = ref_omega(p, k, j, horizon).to_json()
                assert check_omega(family, p, k, j, horizon).to_json() == want, (k, j, horizon)
                failing += want["details"]["per_n_failures"] > 0
    assert failing


def test_omega_failure_count_does_not_scan_the_horizon():
    horizon = 10**12
    start = time.perf_counter()
    report = check_omega(KotheFamily(make_seq("linear")), 1, 3, 1, horizon)
    assert time.perf_counter() - start < 1.0
    # only column 2 (the region 2 <= s < 3) fails: count its elements <= 10^12
    lo, hi = 0, horizon
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if pair_index(1, mid) <= horizon else (lo, mid)
    assert report.details["per_n_failures"] == lo + 1 == 1414213
    assert report.witnesses[-1] == {"type": "n", "n": 3, "region": "p+1<=s<k"}
