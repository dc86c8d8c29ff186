"""Acceptance suite: every criterion at its stated tolerance.

All comparisons are exact (zero tolerance) unless a criterion states a
bound; each test prints one PASS/FAIL line.  Expensive artifacts (the
diameter tables over the full alpha/pair grid) are computed once per
session and shared.
"""
import math
import time
from fractions import Fraction

import pytest

from kothedim.diameters import closedform_diameters, oracle_diameters
from kothedim.grid import BandIndexing, column_start, pair_index, unpair
from kothedim.kothe import (
    KotheFamily,
    check_d2_failure,
    check_dn,
    check_omega,
    check_regularity,
    dn_lambda_bound,
    omega_j_bound,
)
from kothedim.sequences import ExponentSequence, classify_prefix
from kothedim.verify import delta_membership_probe, eadd_ratio, verify_sandwich

from ratio_terms import ratio_coeff

ALPHAS = ["linear", "factorial", "superproduct"]
PAIRS = [(1, 2), (1, 3), (2, 3), (2, 5), (3, 7)]
COUNT = 1000


def report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def grid_tables():
    """(alpha, p, q) -> (family, oracle table, closed-form table), plus timing."""
    t0 = time.time()
    tables = {}
    for spec in ALPHAS:
        family = KotheFamily(ExponentSequence.from_spec(spec))
        for p, q in PAIRS:
            oracle = oracle_diameters(family, p, q, COUNT)
            closed = closedform_diameters(family, p, q, COUNT)
            tables[(spec, p, q)] = (family, oracle, closed)
    return tables, time.time() - t0


def test_criterion_1_oracle_closedform_equivalence(grid_tables):
    tables, elapsed = grid_tables
    mismatches = 0
    for (spec, p, q), (family, oracle, closed) in tables.items():
        seq = family.seq
        assert oracle.certified_horizon >= COUNT - 1
        for n in range(COUNT):
            if oracle.entry(n).log_value(seq) != closed.entry(n).log_value(seq):
                mismatches += 1
                break
    ok = mismatches == 0 and elapsed < 60
    report(
        1,
        ok,
        f"oracle vs closed form identical on first {COUNT} certified diameters "
        f"for {len(tables)} (alpha, p, q) combinations, built in {elapsed:.1f}s "
        "(zero tolerance, limit 60s)",
    )


def test_criterion_2_regular_case_law(grid_tables):
    tables, _ = grid_tables
    family = KotheFamily(ExponentSequence.superproduct())
    regularity = check_regularity(family, 5000)
    shifted = True
    for p, q in PAIRS:
        fam, _, closed = tables[("superproduct", p, q)]
        seq = fam.seq
        for n in range(closed.certified_horizon + 1):
            want = ratio_coeff(p, q, n + 1) * seq.value(n + 1)
            if closed.entry(n).log_value(seq) != want:
                shifted = False
                break
    ok = regularity.passed and shifted
    report(
        2,
        ok,
        "superproduct passes the regularity criterion for n <= 5000 and every "
        "certified d_n equals the ratio term at n+1 exactly",
    )


def test_criterion_3_sandwich(grid_tables):
    tables, _ = grid_tables
    ok = True
    worst = None
    for (spec, p, q), (family, _, closed) in tables.items():
        rep = verify_sandwich(family, p, q, closed)
        if rep.upper_violations or not rep.conclusive or rep.n_found > 5000:
            ok = False
            worst = (spec, p, q, rep.n_found, len(rep.upper_violations))
            break
    report(
        3,
        ok,
        "upper bound e^(c_pq*a_n) holds at every certified index and a "
        "threshold N <= 5000 exists for the lower bound e^(c_pq*a_4n) on the "
        f"full grid{'' if ok else f'; first failure {worst}'}",
    )


def test_criterion_4_eadd_exact_ratio(grid_tables):
    tables, _ = grid_tables
    fam12, _, closed12 = tables[("factorial", 1, 2)]
    fam23, _, closed23 = tables[("factorial", 2, 3)]
    r12 = eadd_ratio(fam12, 1, 2, closed12)
    r23 = eadd_ratio(fam23, 2, 3, closed23)
    ok = (
        bool(r12)
        and bool(r23)
        and all(r["ratio"] == Fraction(3, 2) for r in r12)
        and all(r["ratio"] == Fraction(7, 6) for r in r23)
    )
    report(
        4,
        ok,
        f"factorial tail ratios exactly 3/2 for (1,2) over {len(r12)} band "
        f"terms and 7/6 for (2,3) over {len(r23)} (rational equality)",
    )


def test_criterion_5_dn_omega_constants():
    family = KotheFamily(ExponentSequence.linear())
    horizon = 10_000
    ok = True
    for p in range(1, 6):
        if not check_dn(family, p, dn_lambda_bound(p) / 2, horizon).passed:
            ok = False
    omega_runs = 0
    for p in range(1, 6):
        for k in range(p + 1, 9):
            j = Fraction(math.ceil(omega_j_bound(p, k)))
            if not check_omega(family, p, k, j, horizon).passed:
                ok = False
            down = check_omega(family, p, k, j - 1, horizon)
            if down.passed or not down.witnesses:
                ok = False
            omega_runs += 1
    report(
        5,
        ok,
        "DN passes at half the admissible weight for p <= 5 and Omega passes "
        f"at the ceiled power for {omega_runs} (p, k) pairs over n <= 10^4; "
        "decrementing the power always produces a witness failure",
    )


def test_criterion_6_d2_witnesses():
    bound = Fraction(10**6)
    ok = True
    for spec in ("linear", "factorial"):
        family = KotheFamily(ExponentSequence.from_spec(spec))
        for j in (1, 2, 3):
            rep = check_d2_failure(family, j, bound)
            w = rep.witnesses[0]
            coeff = Fraction(j + 2, j * (j + 1))
            if w["column"] != j or coeff * family.seq.value(w["n"]) <= bound:
                ok = False
    report(
        6,
        ok,
        "quotient-exponent witnesses past B = 10^6 found in column j for "
        "j in {1,2,3}, linear and factorial alpha, within the bounded search",
    )


def test_criterion_7_grid_laws():
    ok = all(pair_index(*unpair(n)) == n for n in range(1, 10**6 + 1))
    for s in range(1, 1001):
        if column_start(s) != s * (s + 1) // 2:
            ok = False
    for p, q in PAIRS:
        b = BandIndexing(p=p, q=q)
        for k in range(1001):
            if b.s_k(k + 1) - b.s_k(k) != q - p:
                ok = False
    report(
        7,
        ok,
        "pairing bijective on [1, 10^6]; min of column s is s(s+1)/2 for "
        "s <= 10^3; marker gaps equal q - p for k <= 10^3 on the pair grid",
    )


def test_criterion_8_delta_probe_coincidence(grid_tables):
    tables, _ = grid_tables
    thetas = [Fraction(t) for t in ("-1", "-1/2", "0", "1/100", "1/2")]
    ok = True
    for spec in ("factorial", "superproduct"):
        family = tables[(spec, 1, 2)][0]
        probe_tables = {(p, q): tables[(spec, p, q)][2] for p, q in PAIRS}
        for theta in thetas:
            probe = delta_membership_probe(family, theta, probe_tables)
            if not probe.verdicts_coincide:
                ok = False
        if not delta_membership_probe(family, Fraction(0), probe_tables).kothe_member:
            ok = False
        if delta_membership_probe(family, Fraction(1, 100), probe_tables).kothe_member:
            ok = False
    report(
        8,
        ok,
        "membership verdicts for the two dimension sets coincide on the "
        "theta grid {-1, -1/2, 0, 1/100, 1/2} for factorial and superproduct; "
        "theta = 0 in, theta = 1/100 out",
    )


def test_criterion_9_stability_and_regularity_witnesses():
    linear = classify_prefix(ExponentSequence.linear(), 1000)
    factorial = classify_prefix(ExponentSequence.factorial(), 50)
    superproduct = classify_prefix(ExponentSequence.superproduct(), 30)
    ok = (
        linear.max_doubling_ratio == 2
        and linear.consistent_with_declared
        and factorial.consistent_with_declared
        and superproduct.consistent_with_declared
    )
    fac_reg = check_regularity(KotheFamily(ExponentSequence.factorial()), 20)
    lin_reg = check_regularity(KotheFamily(ExponentSequence.linear()), 20)
    fac_w = {w["n"]: w for w in fac_reg.witnesses}
    ok = ok and not fac_reg.passed and 3 in fac_w
    ok = ok and fac_w[3]["actual_ratio"] == 4 and fac_w[3]["required_ratio"] == 7
    lin_first = lin_reg.witnesses[0]
    ok = ok and not lin_reg.passed and lin_first["n"] == 1
    ok = ok and lin_first["actual_ratio"] == 2 and lin_first["required_ratio"] == 3
    report(
        9,
        ok,
        "linear doubling ratio exactly 2 (stable-consistent); factorial and "
        "superproduct successive ratios strictly grow (unstable-consistent); "
        "regularity fails for factorial at n=3 with 4 < 7 and for linear at "
        "n=1 with 2 < 3",
    )
