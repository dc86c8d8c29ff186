import math
from fractions import Fraction

import pytest

from kothedim import kothe
from kothedim.grid import column_of
from kothedim.kothe import (
    KotheFamily,
    SearchCapExceeded,
    a_pq,
    c_pq,
    check_d2_failure,
    check_dn,
    check_nuclearity,
    check_omega,
    check_regularity,
    dn_lambda_bound,
    omega_j_bound,
    ratio_numerators,
    regularity_criterion,
)
from kothedim.sequences import ExponentSequence


def definition_regular_at(family, k, n):
    """Matrix-level regularity a_{k+1,n}/a_{k,n} <= a_{k+1,n+1}/a_{k,n+1}:
    one kernel call on the row steps, as the definition window makes it."""
    return family.seq.compare(kothe._row_step(k, column_of(n)), n,
                              kothe._row_step(k, column_of(n + 1)), n + 1) <= 0


@pytest.fixture
def linear_family():
    return KotheFamily(ExponentSequence.linear())


def test_c_and_a_constants():
    assert c_pq(1, 2) == Fraction(-1, 2)
    assert c_pq(2, 5) == Fraction(-3, 10)
    assert a_pq(1, 2) == 3
    assert a_pq(2, 5) == 1 + Fraction(10, 3)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 1), (0, 1)])
def test_ratio_numerators_validate_as_c_pq(p, q):
    for helper in (ratio_numerators, c_pq):
        with pytest.raises(ValueError, match="need q > p >= 1"):
            helper(p, q)


def test_log_entry_cases(linear_family, tmp_path):
    seq = linear_family.seq
    # n=3 lies in column 2
    assert linear_family.log_entry(1, 3).log_value(seq) == -3
    assert linear_family.log_entry(3, 3).log_value(seq) == 2
    assert linear_family.log_entry(2, 1).log_value(seq) == Fraction(1, 2)
    # the same three entries on every kind: coeffs -1, 2/3 and 1/2 times
    # alpha_3 and alpha_1, always an exact Fraction
    path = tmp_path / "alpha.txt"
    path.write_text("1/2\n3/4\n5/3\n")
    kinds = [("linear", 1, 3), ("poly:2", 1, 9), ("factorial", 1, 6), ("superproduct", 1, 21),
             (f"file:{path}", Fraction(1, 2), Fraction(5, 3))]
    for spec, alpha_1, alpha_3 in kinds:
        family = KotheFamily(ExponentSequence.from_spec(spec))
        cases = [(1, 3, -alpha_3), (3, 3, Fraction(2, 3) * alpha_3), (2, 1, Fraction(1, 2) * alpha_1)]
        for k, n, want in cases:
            value = family.log_entry(k, n).log_value(family.seq)
            assert type(value) is Fraction and value == want, (spec, k, n)


def test_entry_monotone_in_k(linear_family):
    from kothedim.grid import column_of

    for n in range(1, 10_001):
        s = column_of(n)
        coeffs = [
            Fraction(-1, k) if k <= s else Fraction(-1, k) + 1 for k in range(1, 21)
        ]
        for k in range(1, 21):
            assert linear_family.entry_coeff(k, n) == coeffs[k - 1]
        assert all(a <= b for a, b in zip(coeffs, coeffs[1:]))


def test_nuclearity_linear(linear_family):
    report = check_nuclearity(linear_family, 1, 1000)
    assert report.passed
    assert report.details["alpha_dominates_index"]
    assert report.details["geometric_tail_bound_float"] < 1e-200


def test_nuclearity_factorial():
    family = KotheFamily(ExponentSequence.factorial())
    assert check_nuclearity(family, 2, 50).passed


def test_nuclearity_first_term_is_column_case(linear_family):
    # a_{1,1}/a_{2,1} = e^(-3/2 * a_1), below the e^(-1/2 * a_1) bound
    diff = linear_family.entry_coeff(1, 1) - linear_family.entry_coeff(2, 1)
    assert diff == Fraction(-3, 2)
    assert diff <= Fraction(-1, 2)


def test_dn_bound_value():
    assert dn_lambda_bound(1) == Fraction(1, 3)


def test_dn_passes_below_bound(linear_family):
    report = check_dn(linear_family, 1, Fraction(1, 6), 10_000)
    assert report.passed
    assert report.details["per_n_failures"] == 0


def test_dn_fails_above_bound(linear_family):
    report = check_dn(linear_family, 1, Fraction(1, 2), 10_000)
    assert not report.passed
    # p=1 has no column with s < p, so the failure is the symbolic case
    assert {"type": "case", "case": "s<p"} in report.witnesses
    assert report.details["per_n_failures"] == 0


def test_dn_halved_bound_passes_for_p3(linear_family):
    report = check_dn(linear_family, 3, dn_lambda_bound(3) / 2, 5000)
    assert report.passed


def test_dn_rejects_bad_lambda(linear_family):
    with pytest.raises(ValueError):
        check_dn(linear_family, 1, Fraction(1), 10)


def test_omega_bound_value():
    assert omega_j_bound(1, 2) == 2
    assert omega_j_bound(2, 8) == Fraction(29, 4)


def test_omega_passes_at_bound(linear_family):
    assert check_omega(linear_family, 1, 2, Fraction(2), 10_000).passed


def test_omega_fails_below_bound(linear_family):
    report = check_omega(linear_family, 1, 2, Fraction(1), 10_000)
    assert not report.passed
    assert {"type": "case", "case": "p<=s"} in report.witnesses


def test_omega_witness_n_when_middle_region_realized(linear_family):
    # k >= p+2 realizes the binding region p+1 <= s < k, so a per-n witness exists
    report = check_omega(linear_family, 1, 3, Fraction(1), 1000)
    assert not report.passed
    assert any(w.get("type") == "n" for w in report.witnesses)


def test_omega_ceiled_bound_passes(linear_family):
    j = Fraction(math.ceil(omega_j_bound(2, 8)))
    assert check_omega(linear_family, 2, 8, j, 5000).passed


def test_d2_exponent_coefficient(linear_family):
    report = check_d2_failure(linear_family, 1, Fraction(10), search_cap=100)
    assert report.witnesses[0]["exponent_coeff"] == Fraction(3, 2)


def test_d2_linear_witness(linear_family):
    report = check_d2_failure(linear_family, 1, Fraction(10**6))
    n = report.witnesses[0]["n"]
    seq = linear_family.seq
    assert Fraction(3, 2) * seq.value(n) > 10**6
    # least such element of the column: its predecessor fails the bound
    from kothedim.grid import column_of, unpair

    assert column_of(n) == 1
    x, y = unpair(n)
    from kothedim.grid import pair_index

    prev = pair_index(x, y - 1)
    assert Fraction(3, 2) * seq.value(prev) <= 10**6


def test_d2_factorial_small_witness():
    family = KotheFamily(ExponentSequence.factorial())
    report = check_d2_failure(family, 2, Fraction(1000), search_cap=50)
    assert report.witnesses[0]["n"] == 8  # first column-2 element with (2/3) n! > 1000


def test_d2_search_cap():
    family = KotheFamily(ExponentSequence.linear())
    with pytest.raises(SearchCapExceeded):
        check_d2_failure(family, 1, Fraction(10**9), search_cap=10)


def test_regularity_superproduct_passes():
    family = KotheFamily(ExponentSequence.superproduct())
    report = check_regularity(family, 2000)
    assert report.passed
    assert report.details["definition_agrees_with_criterion"]


def test_regularity_factorial_fails_at_3():
    family = KotheFamily(ExponentSequence.factorial())
    report = check_regularity(family, 50)
    assert not report.passed
    by_n = {w["n"]: w for w in report.witnesses}
    assert 3 in by_n
    assert by_n[3]["actual_ratio"] == 4
    assert by_n[3]["required_ratio"] == 7
    assert report.details["definition_agrees_with_criterion"]


def test_regularity_linear_fails_at_1():
    family = KotheFamily(ExponentSequence.linear())
    report = check_regularity(family, 50)
    assert not report.passed
    first = report.witnesses[0]
    assert first["n"] == 1
    assert first["actual_ratio"] == 2
    assert first["required_ratio"] == 3


def test_regularity_criterion_equals_definition_at_column():
    for spec in ("linear", "factorial", "superproduct"):
        family = KotheFamily(ExponentSequence.from_spec(spec))
        from kothedim.grid import column_of

        for n in range(2, 120):
            s = column_of(n)
            assert regularity_criterion(family, s, n) == definition_regular_at(family, s, n)


def test_regularity_definition_is_vacuous_at_n1():
    # n = 1 and n = 2 share column 1, so the matrix inequality at (k=1, n=1)
    # collapses to alpha_1 <= alpha_2 even when the column criterion fails
    family = KotheFamily(ExponentSequence.factorial())
    assert definition_regular_at(family, 1, 1)
    assert not regularity_criterion(family, 1, 1)


# -- the regularity definition window --------------------------------------


def spied(spec, lie=None):
    """A sequence whose kernel records each call and, when ``lie`` is an
    argument tuple, returns the opposite sign for that tuple alone."""
    seq = ExponentSequence.from_spec(spec)
    real, calls = seq.compare, []

    def compare(*args):
        calls.append(args)
        sign = real(*args)
        return -sign if args == lie else sign

    seq.compare = compare
    return seq, calls


def reference_definition_witness(family, horizon):
    """The matrix definition checked with one kernel call per (k, n)."""
    for n in range(1, min(horizon, kothe.DEFINITION_N) + 1):
        s = column_of(n)
        crit = regularity_criterion(family, s, n)
        for k in range(1, kothe.DEFINITION_K + 1):
            expected = crit if (k == s and n >= 2) else True
            if definition_regular_at(family, k, n) != expected:
                return {"k": k, "n": n}
    return None


@pytest.mark.parametrize("horizon", [300, 1000])
def test_regularity_definition_window_decides_each_row_step_pair_once(monkeypatch, horizon):
    seq, calls = spied("superproduct")
    check_regularity(KotheFamily(seq), horizon)
    total = len(calls)
    monkeypatch.setattr(kothe, "DEFINITION_N", 0)  # the scan alone
    calls.clear()
    check_regularity(KotheFamily(seq), horizon)
    window = total - len(calls) - 300  # less one criterion call per n
    pairs = sum(
        len({(kothe._row_step(k, column_of(n)), kothe._row_step(k, column_of(n + 1)))
             for k in range(1, 13)})
        for n in range(1, 301)
    )
    assert window == pairs == 743  # one call per (k, n) made 3,600


@pytest.mark.parametrize("spec", ["linear", "factorial", "superproduct"])
def test_regularity_definition_witness_under_a_lying_kernel(spec):
    """A kernel that lies on one argument tuple gives the witness that one
    kernel call per (k, n) gives."""
    horizon = 60
    seq, calls = spied(spec)
    check_regularity(KotheFamily(seq), horizon)
    window = sorted({c for c in calls if c[3] == c[1] + 1 and c[1] <= horizon})
    witnesses = set()
    for lie in window[::3]:
        report = check_regularity(KotheFamily(spied(spec, lie)[0]), horizon)
        want = reference_definition_witness(KotheFamily(spied(spec, lie)[0]), horizon)
        assert report.details["definition_witness"] == want, lie
        assert report.details["definition_agrees_with_criterion"] == (want is None)
        witnesses.add(None if want is None else tuple(want.values()))
    assert len(witnesses) > 5  # the lies reach the window
