import dataclasses
import math
from fractions import Fraction

import pytest

from kothedim.diameters import closedform_diameters
from kothedim.grid import in_band
from kothedim.kothe import KotheFamily, c_pq, ratio_numerators
from kothedim.sequences import UNSPECIFIED, ExponentSequence, PrefixExhaustedError
from kothedim.verify import (
    aa_statistic,
    delta_membership_probe,
    eadd_ratio,
    edd_tail_check,
    verify_sandwich,
)

from ratio_terms import ratio_coeff


def family(spec: str) -> KotheFamily:
    return KotheFamily(ExponentSequence.from_spec(spec))


def table_for(fam, p, q, count=300):
    return closedform_diameters(fam, p, q, count)


def test_sandwich_linear_1_2():
    fam = family("linear")
    table = table_for(fam, 1, 2)
    report = verify_sandwich(fam, 1, 2, table)
    assert report.upper_violations == []
    assert report.conclusive
    assert report.n_found is not None


def test_sandwich_factorial_and_superproduct():
    for spec in ("factorial", "superproduct"):
        fam = family(spec)
        for p, q in [(1, 2), (2, 3)]:
            report = verify_sandwich(fam, p, q, table_for(fam, p, q, 200))
            assert report.upper_violations == []
            assert report.conclusive


def test_sandwich_threshold_reported_when_early_violations():
    # a wide band pushes early diameters far right of 4n
    fam = family("linear")
    table = table_for(fam, 1, 9, 400)
    report = verify_sandwich(fam, 1, 9, table)
    assert report.upper_violations == []
    assert report.conclusive
    if report.lower_violations:
        n0 = report.n_found
        assert n0 == report.lower_violations[-1] + 1
        seq = fam.seq
        c = c_pq(1, 9)
        for n in range(n0, table.certified_horizon + 1):
            assert table.entry(n).log_value(seq) >= c * seq.value(4 * n)


def sandwich_reference(fam, p, q, table):
    """Both bound scans in Fraction arithmetic, from log_value."""
    seq, c = fam.seq, c_pq(p, q)
    upper, lower = [], []
    for n in range(1, table.certified_horizon + 1):
        log_d = table.entry(n).log_value(seq)
        if log_d > c * seq.value(n):
            upper.append(n)
        if log_d < c * seq.value(4 * n):
            lower.append(n)
    return upper, lower


def test_sandwich_numerators_per_coefficient_match_the_fraction_reference():
    """Entries given the pair's other coefficient, or an equal coefficient in
    another Fraction object at a lower alpha index, are scanned as the
    Fraction reference scans them; a third coefficient is refused."""
    fam = family("linear")
    table = table_for(fam, 2, 5, 200)
    coeffs, entries = table.entries.coeffs, list(table.entries)
    for n in range(3, 200, 7):
        e = entries[n]
        if n % 2:
            entries[n] = dataclasses.replace(e, coeff=coeffs[1 - coeffs.index(e.coeff)])
        else:
            coeff = Fraction(e.coeff.numerator, e.coeff.denominator)
            entries[n] = dataclasses.replace(e, coeff=coeff, alpha_index=max(1, e.alpha_index - 5))
    third = entries[:3] + [dataclasses.replace(entries[3], coeff=Fraction(-1, 10))]
    with pytest.raises(ValueError, match="-1/10 is neither -3/10 nor -13/10"):
        dataclasses.replace(table, entries=third)
    table = dataclasses.replace(table, entries=entries)
    assert table.entries.coeffs == coeffs
    report = verify_sandwich(fam, 2, 5, table)
    assert report.upper_violations and report.lower_violations
    assert (report.upper_violations, report.lower_violations) == sandwich_reference(fam, 2, 5, table)


def sandwich_by_kernel(fam, p, q, table):
    """Both bound scans entry by entry, each bound one ``seq.compare``."""
    seq, nums = fam.seq, ratio_numerators(p, q)
    upper, lower = [], []
    for n, code, m in table.entries.rows(1, table.certified_horizon + 1):
        if seq.compare(nums[code], m, nums[0], n) > 0:
            upper.append(n)
        if seq.compare(nums[code], m, nums[0], 4 * n) < 0:
            lower.append(n)
    return upper, lower


def shifted(table, step, shifts):
    """The table with every ``step``-th entry's alpha index moved by the next
    shift of ``shifts`` (at least 1), band and off-band entries alike."""
    entries = list(table.entries)
    for k, n in enumerate(range(1, len(entries), step)):
        e = entries[n]
        entries[n] = dataclasses.replace(
            e, alpha_index=max(1, e.alpha_index + shifts[k % len(shifts)]))
    return dataclasses.replace(table, entries=entries)


@pytest.mark.parametrize("spec", ["linear", "poly:2", "factorial", "superproduct"])
def test_sandwich_matches_the_entry_wise_kernel_reference(spec):
    """Alpha indices moved down past n and up past 4n on both codes: the
    index rule off the band gives the kernel's violation lists."""
    fam = family(spec)
    for p, q in [(1, 2), (2, 5), (1, 9)]:
        table = table_for(fam, p, q, 300)
        for step, shifts in [(1, (0,)), (3, (-7, 1)), (5, (2, -1, 9)), (4, (-60, 700, 3))]:
            moved = shifted(table, step, shifts)
            assert {0, 1} <= set(moved.entries.codes[1:])
            report = verify_sandwich(fam, p, q, moved)
            assert (report.upper_violations, report.lower_violations) == sandwich_by_kernel(
                fam, p, q, moved), (spec, p, q, step, shifts)
    assert report.upper_violations and report.lower_violations


def test_sandwich_on_a_file_alpha_raises_where_the_kernel_reference_does(tmp_path):
    """alpha_n = n from a file of 1000 values: a table reads alpha up to 4 *
    its horizon and its largest alpha index.  Both scans raise the same
    PrefixExhaustedError once either passes the prefix, and agree inside it."""
    path = tmp_path / "linear.txt"
    path.write_text("\n".join(map(str, range(1, 1001))) + "\n")
    fam = KotheFamily(ExponentSequence.from_file(path))
    tables = {count: table_for(family("linear"), 2, 5, count) for count in (200, 251, 252, 300)}
    for code in (0, 1):  # d_199 moved past the prefix, off the band and on it
        moved = dataclasses.replace(tables[200].entries[199], alpha_index=1001,
                                    coeff=tables[200].entries.coeffs[code])
        tables["moved", code] = dataclasses.replace(tables[200], entries=tables[200].entries[:199] + [moved])
    outcomes = {}
    for key, table in tables.items():
        for scan in (verify_sandwich, sandwich_by_kernel):
            try:
                report = scan(fam, 2, 5, table)
            except PrefixExhaustedError as exc:
                outcomes.setdefault(key, []).append(str(exc))
            else:
                lists = (report if scan is sandwich_by_kernel else
                         (report.upper_violations, report.lower_violations))
                outcomes.setdefault(key, []).append(lists)
        assert outcomes[key][0] == outcomes[key][1], key
    assert all(isinstance(outcomes[key][0], tuple) for key in (200, 251))
    assert all(outcomes[key][0] == "file:{}: prefix of length 1000 exhausted at n=1001".format(
        path) for key in (252, 300, ("moved", 0), ("moved", 1)))


def test_sandwich_calls_the_kernel_twice_per_band_entry(monkeypatch):
    """Off the band the indices decide both bounds; each band entry costs two
    ``seq.compare`` calls.  The closed form's own count does not change."""
    for spec, count, closed_calls, sandwich_calls in [
        ("linear", 16000, 6172, 510), ("superproduct", 4000, 440, 522)
    ]:
        fam = family(spec)
        calls = []
        compare = fam.seq.compare
        monkeypatch.setattr(fam.seq, "compare", lambda *args: calls.append(1) or compare(*args))
        table = table_for(fam, 2, 5, count)
        assert len(calls) == closed_calls
        del calls[:]
        verify_sandwich(fam, 2, 5, table)
        assert len(calls) == sandwich_calls == 2 * sum(table.entries.codes[1:])


def test_sandwich_rejects_a_coefficient_off_pq():
    fam = family("linear")
    table = table_for(fam, 1, 2, 50)
    entries = list(table.entries)
    entries[30] = dataclasses.replace(entries[30], coeff=Fraction(-1, 7))
    with pytest.raises(ValueError, match="-1/7 is neither -1/2 nor -3/2"):
        dataclasses.replace(table, entries=entries)


def test_sandwich_rejects_a_table_of_another_pair():
    """A linear 1:2 table named as 2:5 would be read with 2:5's bounds."""
    fam = family("linear")
    with pytest.raises(ValueError, match="table is for the pair 1:2, not 2:5"):
        verify_sandwich(fam, 2, 5, table_for(fam, 1, 2, 100))


def test_eadd_rejects_a_table_of_another_pair():
    fam = family("factorial")
    with pytest.raises(ValueError, match="table is for the pair 1:2, not 2:5"):
        eadd_ratio(fam, 2, 5, table_for(fam, 1, 2, 100))


def test_eadd_factorial_1_2():
    fam = family("factorial")
    ratios = eadd_ratio(fam, 1, 2, table_for(fam, 1, 2, 100))
    assert ratios, "tail regime should produce band terms"
    assert all(r["ratio"] == Fraction(3, 2) for r in ratios)


def test_eadd_factorial_2_3():
    fam = family("factorial")
    ratios = eadd_ratio(fam, 2, 3, table_for(fam, 2, 3, 100))
    assert all(r["ratio"] == Fraction(7, 6) for r in ratios)
    # the law starts at a0, not before
    assert ratios[0]["a"] == 3


def test_eadd_superproduct_1_2():
    fam = family("superproduct")
    ratios = eadd_ratio(fam, 1, 2, table_for(fam, 1, 2, 100))
    assert all(r["ratio"] == Fraction(3, 2) for r in ratios)


def test_eadd_refuses_stable():
    fam = family("linear")
    with pytest.raises(ValueError, match="unstable"):
        eadd_ratio(fam, 1, 2, table_for(fam, 1, 2, 50))


def test_aa_statistic_factorial_pairs():
    fam = family("factorial")
    pairs = [(1, 2), (1, 3), (2, 3)]
    tables = {pq: table_for(fam, *pq, 150) for pq in pairs}
    stat = aa_statistic(fam, tables, tail_window=60)
    floor = 1 + min(Fraction(1, p) - Fraction(1, q) for p, q in pairs)
    for record in stat.per_pair:
        assert record["band_points_in_window"] > 0
        assert record["band_subsequence_sup"] == 1 - c_pq(record["p"], record["q"])
        assert record["sup_ratio"] >= floor > 1
    assert stat.proxy_inf_sup >= floor


def test_aa_statistic_linear_bounded():
    fam = family("linear")
    tables = {(1, 2): table_for(fam, 1, 2, 400)}
    stat = aa_statistic(fam, tables, tail_window=100)
    record = stat.per_pair[0]
    # ratios are -c * alpha_{m}/alpha_{n+1} with m within the 4n window
    assert record["sup_ratio"] <= 1
    assert record["band_subsequence_sup"] is None


def test_aa_statistic_empty_window():
    fam = family("linear")
    stat = aa_statistic(fam, {}, tail_window=0)
    assert stat.per_pair == []
    assert stat.proxy_inf_sup is None


def rational_file() -> ExponentSequence:
    """A file alpha with scale != 1: n(n+1)/2 + 1/(1 + n % 12), n <= 400."""
    values = [Fraction(n * (n + 1), 2) + Fraction(1, 1 + n % 12) for n in range(1, 401)]
    return ExponentSequence(
        name="rational", kind="file", declared_class=UNSPECIFIED, memo=values
    )


def family_of(spec: str) -> KotheFamily:
    return KotheFamily(rational_file()) if spec == "rational" else family(spec)


def fraction_decay_ratio(seq, table, n):
    """Reference -log(d_n) / alpha_{n+1}, dividing two alpha Fractions."""
    return -table.entry(n).log_value(seq) / seq.value(n + 1)


# superproduct is left to the count-20000 test below: each of its d_n has
# alpha index n + 1, so every ratio there is -coeff
@pytest.mark.parametrize("spec", ["linear", "poly:2", "factorial", "rational"])
def test_aa_statistic_matches_the_fraction_reference(spec):
    fam = family_of(spec)
    pairs = [(1, 2), (2, 5), (2, 3)]
    tables = {pq: table_for(fam, *pq, 150) for pq in pairs}
    records = [r for w in (40, 150) for r in aa_statistic(fam, tables, w).per_pair]
    ref_seq = family_of(spec).seq
    for record in records:
        table = tables[(record["p"], record["q"])]
        lo, horizon = record["window"]
        ratios = {n: fraction_decay_ratio(ref_seq, table, n) for n in range(lo, horizon + 1)}
        band = set()
        if table.a0 is not None:
            band = {row.n_a - 1 for row in table.plan[table.a0 - 1 :]}
        band_ratios = [r for n, r in ratios.items() if n in band]
        assert record["sup_ratio"] == max(ratios.values())
        assert record["band_subsequence_sup"] == max(band_ratios, default=None)
        assert record["band_points_in_window"] == len(band_ratios)


def test_eadd_and_aa_read_no_memo_at_count_20000():
    count, p, q = 20000, 2, 5
    expected = 1 - c_pq(p, q)
    for spec in ("factorial", "superproduct"):
        fam = family(spec)
        table = table_for(fam, p, q, count)
        ratios = eadd_ratio(fam, p, q, table)
        assert ratios and all(r["ratio"] == expected for r in ratios)
        assert len(fam.seq) == 1
        # the whole table: the sup is the band law's, also before the tail
        record = aa_statistic(fam, {(p, q): table}, count).per_pair[0]
        assert record["sup_ratio"] == record["band_subsequence_sup"] == expected
        assert len(fam.seq) == 1


def test_edd_tail_factorial():
    fam = family("factorial")
    for p, q in [(1, 2), (1, 3)]:
        report = edd_tail_check(fam, p, q, table_for(fam, p, q, 120))
        assert report.verdict == "pass"
        assert not report.witnesses


def test_edd_tail_rejects_a_table_of_another_pair():
    """A correct factorial 1:2 table named as 2:5 would fail its check."""
    fam = family("factorial")
    with pytest.raises(ValueError, match="table is for the pair 1:2, not 2:5"):
        edd_tail_check(fam, 2, 5, table_for(fam, 1, 2, 120))


@pytest.mark.parametrize("pq", [(1, 2), (2, 5), (1, 4)])
def test_edd_tail_ratio_numerator_is_ratio_coeff_over_pq(pq):
    p, q = pq
    nums = ratio_numerators(p, q)
    assert Fraction(nums[0], p * q) == c_pq(p, q) and nums[1] == nums[0] - p * q
    for m in range(1, 501):
        assert Fraction(nums[in_band(p, q, m)], p * q) == ratio_coeff(p, q, m)


def test_edd_tail_reports_a_ratio_sequence_out_of_order():
    """On linear alpha the ratio terms are not descending from index 1: a
    threshold moved to 0 gives a ratio-order witness."""
    fam = family("linear")
    table = table_for(fam, 1, 2, 100)
    assert table.tail_start is None
    report = edd_tail_check(fam, 1, 2, dataclasses.replace(table, tail_start=0))
    assert report.verdict == "fail"
    assert report.witnesses[0] == {"type": "ratio-order", "m": 2}


@pytest.mark.parametrize("spec", ["factorial", "superproduct"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_edd_tail_finds_a_tail_entry_off_its_ratio_term(spec, shift):
    fam = family(spec)
    table = table_for(fam, 1, 2, 200)
    assert edd_tail_check(fam, 1, 2, table).verdict == "pass"
    n = (table.tail_start + table.certified_horizon) // 2
    entries = list(table.entries)
    entries[n] = dataclasses.replace(entries[n], alpha_index=entries[n].alpha_index + shift)
    report = edd_tail_check(fam, 1, 2, dataclasses.replace(table, entries=entries))
    assert report.verdict == "fail"
    assert report.witnesses == [{"type": "value", "n": n}]


def test_edd_tail_on_a_file_of_factorials_reads_alpha_to_horizon_plus_one(tmp_path):
    """A file of the first 300 factorials has the factorial tail.  With
    alpha_(horizon+1) inside the prefix the report is factorial's own; one
    past it raises PrefixExhaustedError, as when every ratio pair was
    compared, although pairs with one numerator are no longer compared."""
    path = tmp_path / "factorials.txt"
    path.write_text("\n".join(str(math.factorial(n)) for n in range(1, 301)) + "\n")
    fam = KotheFamily(ExponentSequence.from_file(path))
    generated = family("factorial")
    for p, q in [(1, 2), (2, 5)]:
        inside = table_for(generated, p, q, 300)
        report = edd_tail_check(fam, p, q, inside)
        assert report.verdict == "pass"
        assert report.details == edd_tail_check(generated, p, q, inside).details
        with pytest.raises(PrefixExhaustedError, match="prefix of length 300 exhausted"):
            edd_tail_check(fam, p, q, table_for(generated, p, q, 301))


def test_edd_tail_ratio_witness_comes_before_a_short_prefix(tmp_path):
    """On alpha_n = n the ratio terms of 1:2 are out of order at m = 2; with
    the threshold moved to 0 that witness is found, and the short prefix
    never read, as before."""
    path = tmp_path / "linear.txt"
    path.write_text("\n".join(map(str, range(1, 51))) + "\n")
    fam = KotheFamily(ExponentSequence.from_file(path))
    table = dataclasses.replace(table_for(family("linear"), 1, 2, 100), tail_start=0)
    report = edd_tail_check(fam, 1, 2, table)
    assert report.witnesses[0] == {"type": "ratio-order", "m": 2}


def test_edd_tail_linear_inconclusive():
    fam = family("linear")
    report = edd_tail_check(fam, 1, 2, table_for(fam, 1, 2, 120))
    assert report.verdict == "inconclusive"
    assert "threshold not found" in report.details["note"]


THETA_GRID = ["-1", "-1/2", "0", "1/100", "1/2"]


@pytest.mark.parametrize("spec", ["factorial", "superproduct"])
def test_delta_probe_verdicts_coincide(spec):
    fam = family(spec)
    pairs = [(1, 2), (2, 3)]
    tables = {pq: table_for(fam, *pq, 120) for pq in pairs}
    for theta_str in THETA_GRID:
        theta = Fraction(theta_str)
        probe = delta_membership_probe(fam, theta, tables)
        assert probe.verdicts_coincide
        assert probe.kothe_member == (theta <= 0)


def test_delta_probe_membership_boundary():
    fam = family("factorial")
    tables = {(1, 2): table_for(fam, 1, 2, 120)}
    assert delta_membership_probe(fam, Fraction(0), tables).kothe_member
    assert delta_membership_probe(fam, Fraction(-1, 2), tables).kothe_member
    out = delta_membership_probe(fam, Fraction(1, 100), tables)
    assert not out.kothe_member
    assert out.kothe_witness_p == 100
    assert not out.lambda1_member


def test_delta_probe_per_pair_sign_analysis():
    fam = family("factorial")
    tables = {(1, 2): table_for(fam, 1, 2, 120)}
    probe = delta_membership_probe(fam, Fraction(1, 3), tables)
    record = probe.per_pair[0]
    assert record["mode"] == "tail-sign-analysis"
    # theta = 1/3 <= 1/2 = -c_12, so this single pair is bounded
    assert record["bounded"] is True
    probe = delta_membership_probe(fam, Fraction(2, 3), tables)
    assert probe.per_pair[0]["bounded"] is False


def test_delta_probe_stable_is_empirical():
    fam = family("linear")
    tables = {(1, 2): table_for(fam, 1, 2, 80)}
    probe = delta_membership_probe(fam, Fraction(0), tables)
    record = probe.per_pair[0]
    assert record["mode"] == "empirical-prefix"
    assert record["bounded"] is None
    assert record["prefix_sup_exponent"] is not None


@pytest.mark.parametrize("spec", ["linear", "rational"])
@pytest.mark.parametrize("theta", ["0", "-1/2", "1/3", "2/7"])
def test_delta_probe_empirical_sup_matches_the_fraction_reference(spec, theta):
    fam = family_of(spec)
    theta = Fraction(theta)
    tables = {pq: table_for(fam, *pq, 120) for pq in [(1, 2), (2, 5)]}
    probe = delta_membership_probe(fam, theta, tables)
    seq = family_of(spec).seq
    for record in probe.per_pair:
        table = tables[(record["p"], record["q"])]
        want = max(
            theta * seq.value(n + 1) + table.entry(n).log_value(seq)
            for n in range(table.certified_horizon + 1)
        )
        assert record["mode"] == "empirical-prefix"
        assert record["prefix_sup_exponent"] == want
