import dataclasses
import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kothedim import diameters as dm
from kothedim.diameters import (
    CoverageError,
    DiameterEntry,
    UncertifiableError,
    _find_i,
    closedform_diameters,
    oracle_diameters,
)
from kothedim.grid import BandIndexing, in_band
from kothedim.kothe import KotheFamily, a_pq, c_pq
from kothedim.sequences import UNSPECIFIED, ExponentSequence, PrefixExhaustedError

from ratio_terms import ratio_coeff


def family(spec: str) -> KotheFamily:
    return KotheFamily(ExponentSequence.from_spec(spec))


def log_values(table, seq, count=None):
    entries = table.entries if count is None else table.entries[:count]
    return [e.log_value(seq) for e in entries]


# frozen by an independent brute-force sort of the exact ratio terms
FROZEN = {
    ("linear", 1, 2): ["-3/2", "-3/2", "-5/2", "-3", "-3", "-4", "-9/2", "-5", "-6", "-6", "-13/2", "-7", "-15/2"],
    ("linear", 2, 5): ["-3/10", "-3/5", "-6/5", "-21/10", "-33/10", "-39/10", "-9/2", "-24/5", "-6", "-63/10", "-13/2", "-33/5"],
    ("factorial", 2, 3): ["-1/6", "-1/3", "-4", "-7", "-120", "-140", "-840", "-47040", "-60480"],
    ("factorial", 1, 2): ["-3/2", "-3", "-3", "-36", "-60", "-360", "-7560", "-20160"],
    ("superproduct", 1, 2): ["-3/2", "-9/2", "-21/2", "-819/2", "-5733/2", "-177723/2", "-22926267/2", "-435599073/2"],
}


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_oracle_matches_frozen_values(key):
    spec, p, q = key
    fam = family(spec)
    expected = [Fraction(v) for v in FROZEN[key]]
    table = oracle_diameters(fam, p, q, len(expected))
    assert log_values(table, fam.seq, len(expected)) == expected


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_closedform_matches_frozen_values(key):
    spec, p, q = key
    fam = family(spec)
    expected = [Fraction(v) for v in FROZEN[key]]
    table = closedform_diameters(fam, p, q, len(expected))
    assert log_values(table, fam.seq) == expected


def test_oracle_tie_at_the_top_linear_1_2():
    fam = family("linear")
    table = oracle_diameters(fam, 1, 2, 50, horizon=50)
    # two distinct source terms share the top value e^(-3/2)
    first, second = table.entries[0], table.entries[1]
    assert first.log_value(fam.seq) == second.log_value(fam.seq) == Fraction(-3, 2)
    assert {first.alpha_index, second.alpha_index} == {1, 3}
    # ties are broken by the smaller ratio index
    assert first.alpha_index == 1


def test_closedform_plan_linear_1_2():
    fam = family("linear")
    table = closedform_diameters(fam, 1, 2, 40)
    rows = [(r.a, r.n_a, r.i_a, r.k_a, r.j_a) for r in table.plan[:5]]
    assert rows == [
        (1, 1, 3, 1, 1),
        (2, 2, 6, 2, 4),
        (3, 4, 12, 4, 9),
        (4, 7, 21, 5, 18),
        (5, 11, 33, 7, 29),
    ]
    # the first entry is the M segment value e^(c * a_3)
    assert table.entries[0].segment == "M"
    assert table.entries[0].alpha_index == 3
    assert table.entries[1].segment == "J"


def test_closedform_plan_linear_2_5():
    fam = family("linear")
    table = closedform_diameters(fam, 2, 5, 30)
    a1 = table.plan[0]
    assert (a1.n_a, a1.i_a, a1.k_a, a1.j_a) == (3, 11, 0, 5)


def test_closedform_factorial_2_3_mixed_regime():
    fam = family("factorial")
    table = closedform_diameters(fam, 2, 3, 30)
    assert table.a0 == 3
    assert table.tail_start == 6
    by_a = {r.a: r for r in table.plan}
    assert by_a[1].i_a == 4 and by_a[1].j_a == 3
    assert by_a[2].i_a == 6 and by_a[2].j_a == 5
    assert by_a[3].i_a is None and by_a[3].j_a == 7


def test_unstable_tail_values_factorial_1_2():
    fam = family("factorial")
    seq = fam.seq
    table = closedform_diameters(fam, 1, 2, 60)
    assert table.a0 is not None
    c = c_pq(1, 2)
    for row in table.plan:
        if row.a >= table.a0 and row.n_a - 1 < 60:
            entry = table.entry(row.n_a - 1)
            assert entry.coeff == c - 1
            assert entry.alpha_index == row.n_a


def test_monotone_non_increasing():
    for spec in ("linear", "factorial", "superproduct"):
        fam = family(spec)
        table = closedform_diameters(fam, 2, 3, 150)
        values = log_values(table, fam.seq)
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_regular_case_diameters_are_shifted_ratios():
    # superproduct is regular: d_n is the ratio term at index n+1
    fam = family("superproduct")
    seq = fam.seq
    for p, q in [(1, 2), (2, 5)]:
        table = closedform_diameters(fam, p, q, 120)
        for n in range(120):
            want = ratio_coeff(p, q, n + 1) * seq.value(n + 1)
            assert table.entry(n).log_value(seq) == want


def test_oracle_certification_bound_is_strict():
    fam = family("linear")
    # with only two terms nothing beats the bound e^(c*a_3) = e^(-3/2): the
    # first term ties it and stays uncertified
    with pytest.raises(UncertifiableError, match="prefix of 2 ratio terms certifies no diameter"):
        oracle_diameters(fam, 1, 2, 2, horizon=2)


def test_oracle_refuses_tiny_prefix():
    with pytest.raises(ValueError):
        oracle_diameters(family("linear"), 1, 2, 1, horizon=1)
    with pytest.raises(ValueError):
        oracle_diameters(family("linear"), 1, 2, 10, horizon=9)


def test_epsilon_values():
    # epsilon_n = 1/d_n has the exponent -coeff * alpha_{alpha_index}
    fam = family("linear")
    table = closedform_diameters(fam, 1, 2, 10)
    d_1 = table.entries[1]
    assert (-d_1.coeff, d_1.alpha_index) == (Fraction(3, 2), 1)
    assert len(table.entries) == 10


def test_epsilon_on_factorial_tail():
    fam = family("factorial")
    seq = fam.seq
    table = closedform_diameters(fam, 1, 2, 40)
    for row in table.plan:
        if row.a >= table.a0 and row.n_a - 1 < 40:
            # -log d_{n_a - 1} = 3/2 * alpha_{n_a}
            d = table.entries[row.n_a - 1]
            assert -d.log_value(seq) == Fraction(3, 2) * seq.value(row.n_a)


PAIRS = [(1, 2), (1, 3), (2, 3), (2, 5), (3, 7), (3, 4), (4, 9)]


@pytest.mark.parametrize("spec", ["linear", "factorial", "superproduct", "poly:2"])
@pytest.mark.parametrize("pq", PAIRS)
def test_oracle_equals_closedform(spec, pq):
    p, q = pq
    fam = family(spec)
    seq = fam.seq
    count = 130
    closed = closedform_diameters(fam, p, q, count)
    oracle = oracle_diameters(fam, p, q, count)
    assert log_values(oracle, seq, count) == log_values(closed, seq)


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=6),
    gap=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_oracle_equals_closedform_random_alpha(p, gap, seed):
    q = p + gap
    rng = random.Random(seed)
    values = []
    cur = Fraction(rng.randint(1, 4))
    for _ in range(400):
        values.append(cur)
        roll = rng.random()
        if roll < 0.5:
            cur = cur + rng.randint(1, 5)
        elif roll < 0.8:
            cur = cur * Fraction(rng.randint(5, 9), 4)
        else:
            cur = cur * rng.randint(2, 7)
    seq = ExponentSequence(
        name="random", kind="file", declared_class=UNSPECIFIED, memo=values
    )
    fam = KotheFamily(seq)
    count = 40
    closed = closedform_diameters(fam, p, q, count)
    oracle = oracle_diameters(fam, p, q, count)
    assert log_values(oracle, seq, count) == log_values(closed, seq)


def random_rational_alpha(rng: random.Random, length: int) -> list[Fraction]:
    values = []
    cur = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    for _ in range(length):
        values.append(cur)
        roll = rng.random()
        if roll < 0.5:
            cur = cur + Fraction(rng.randint(1, 5), rng.randint(1, 4))
        elif roll < 0.8:
            cur = cur * Fraction(rng.randint(5, 9), 4)
        else:
            cur = cur * rng.randint(2, 7)
    return values


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=5),
    gap=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
    lam=st.fractions(min_value=Fraction(1, 97), max_value=1000, max_denominator=97),
)
def test_scaling_alpha_leaves_both_tables_unchanged(p, gap, seed, lam):
    """Only the order of the c * alpha_m matters, so alpha -> lam * alpha
    (lam > 0 rational) keeps every (coeff, alpha_index, segment)."""
    q = p + gap
    values = random_rational_alpha(random.Random(seed), 400)
    tables = []
    for memo in (values, [lam * v for v in values]):
        fam = KotheFamily(
            ExponentSequence(name="file", kind="file", declared_class=UNSPECIFIED, memo=memo)
        )
        tables.append(
            (
                closedform_diameters(fam, p, q, 40).entries,
                oracle_diameters(fam, p, q, 40).entries,
            )
        )
    assert tables[0] == tables[1]


def linear_scan_find_i(seq, bnd, mult, n_a):
    """Reference: the one-step scan that _find_i replaces."""
    threshold = mult * seq.value(n_a)
    m = n_a
    while seq.value(m + 1) <= threshold:
        m += 1
    while m > n_a and bnd.contains(m):
        m -= 1
    return m if m > n_a else None


@pytest.mark.parametrize("spec", ["linear", "poly:2", "factorial", "superproduct"])
@pytest.mark.parametrize("pq", [(1, 2), (2, 5), (3, 7), (1, 9)])
def test_find_i_matches_linear_scan(spec, pq):
    p, q = pq
    seq = ExponentSequence.from_spec(spec)
    bnd = BandIndexing(p=p, q=q)
    mult = a_pq(p, q)
    for a in range(1, 60 if spec in ("linear", "poly:2") else 25):
        n_a = bnd.element(a)
        assert _find_i(seq, bnd, mult, n_a) == linear_scan_find_i(seq, bnd, mult, n_a)


@pytest.mark.parametrize("pq", [(1, 2), (2, 5), (3, 7)])
def test_find_i_on_file_prefixes_around_i_a(pq):
    """A prefix ending right after i_a succeeds; a shorter one raises the
    scan's own PrefixExhaustedError."""
    p, q = pq
    bnd = BandIndexing(p=p, q=q)
    mult = a_pq(p, q)
    for a in range(1, 8):
        n_a = bnd.element(a)
        # the scan reads alpha up to index `last + 1`, the first that fails
        threshold = mult * n_a
        last = n_a
        while last + 1 <= threshold:
            last += 1
        for length in range(n_a, last + 4):
            outcomes = []
            for find in (_find_i, linear_scan_find_i):
                seq = ExponentSequence(
                    name="prefix",
                    kind="file",
                    declared_class=UNSPECIFIED,
                    memo=[Fraction(n) for n in range(1, length + 1)],
                )
                try:
                    outcomes.append(find(seq, bnd, mult, n_a))
                except PrefixExhaustedError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            if length > last:
                assert not isinstance(outcomes[0], str)


@settings(max_examples=30, deadline=None)
@given(
    spec=st.sampled_from(["linear", "factorial", "superproduct", "poly:2", "poly:4"]),
    p=st.integers(min_value=1, max_value=5),
    gap=st.integers(min_value=1, max_value=4),
    count=st.integers(min_value=1, max_value=90),
)
def test_oracle_equals_closedform_hypothesis(spec, p, gap, count):
    q = p + gap
    fam = family(spec)
    seq = fam.seq
    closed = closedform_diameters(fam, p, q, count)
    oracle = oracle_diameters(fam, p, q, count)
    assert log_values(oracle, seq, count) == log_values(closed, seq)


def test_epsilon_respects_oracle_horizon():
    fam = family("linear")
    table = oracle_diameters(fam, 1, 2, 30, horizon=30)
    assert 0 <= table.certified_horizon < len(table.entries) - 1
    assert table.entries[table.certified_horizon].certified
    assert not table.entries[table.certified_horizon + 1].certified


def test_segment_coverage_partition():
    fam = family("linear")
    table = closedform_diameters(fam, 2, 5, 200)
    segments = {e.segment for e in table.entries}
    assert segments <= {"head", "J", "K", "L", "M", "tail"}
    # one J entry per plan row that landed in range
    reds = [r.j_a for r in table.plan if r.j_a < 200]
    assert [n for n, e in enumerate(table.entries) if e.segment == "J"] == reds


def test_terzioglu_bracket():
    # inf over any (n+1)-subset of ratios <= d_n <= sup over any n-exclusion
    fam = family("linear")
    seq = fam.seq
    table = oracle_diameters(fam, 2, 3, 60)
    prefix = table.oracle_prefix
    ratios = {
        m: ratio_coeff(2, 3, m) * seq.value(m) for m in range(1, prefix + 1)
    }
    rng = random.Random(11)
    for n in range(0, 40):
        d_n = table.entry(n).log_value(seq)
        subset = rng.sample(range(1, prefix + 1), n + 1)
        assert min(ratios[m] for m in subset) <= d_n
        excluded = set(rng.sample(range(1, prefix + 1), n))
        sup = max(v for m, v in ratios.items() if m not in excluded)
        assert d_n <= sup


def sequence(spec: str) -> ExponentSequence:
    if spec == "rational":
        return ExponentSequence(
            name="rational", kind="file", declared_class=UNSPECIFIED,
            memo=random_rational_alpha(random.Random(7), 400),
        )
    return ExponentSequence.from_spec(spec)


@pytest.mark.parametrize("spec", ["linear", "poly:2", "factorial", "superproduct", "rational"])
@pytest.mark.parametrize("pq", [(1, 2), (2, 5), (3, 7)])
def test_oracle_certification_is_monotone_in_the_prefix(spec, pq):
    """An entry certified at prefix P keeps its (coeff, alpha_index) and
    stays certified at prefix 2P: every unseen term lies strictly below it."""
    p, q = pq
    fam = KotheFamily(sequence(spec))
    certified = 0
    for prefix in (8, 30, 100, 190):
        small = oracle_diameters(fam, p, q, prefix, horizon=prefix)
        large = oracle_diameters(fam, p, q, 2 * prefix, horizon=2 * prefix)
        assert large.certified_horizon >= small.certified_horizon
        for e in small.entries[: small.certified_horizon + 1]:
            f = large.entries[e.n]
            assert (f.coeff, f.alpha_index, f.certified) == (e.coeff, e.alpha_index, True)
        certified += small.certified_horizon + 1
    assert certified > 0


def sorted_reference(spec, p, q, horizon):
    """Every ratio term with m <= horizon as (coeff, m, certified), and the
    values, by a literal sorted() in Fractions: descending, ties by the
    smaller m; a term is certified when it beats c_pq * alpha_(horizon + 1)."""
    seq = sequence(spec)
    coeffs = {m: ratio_coeff(p, q, m) for m in range(1, horizon + 1)}
    terms = sorted((-c * seq.value(m), m, c) for m, c in coeffs.items())
    bound = c_pq(p, q) * seq.value(horizon + 1)
    return [(coeff, m, -neg > bound) for neg, m, coeff in terms], [-neg for neg, _, _ in terms]


@pytest.mark.parametrize("spec", ["linear", "poly:2", "factorial", "superproduct", "rational"])
@pytest.mark.parametrize("pq", [(1, 2), (2, 5), (3, 7), (1, 4), (4, 5)])
def test_oracle_matches_sorted_reference(spec, pq):
    """The merge lists exactly what a sort of all the terms lists, tie rows
    included, with and without a fixed prefix, and in full or cut at
    count."""
    p, q = pq
    # linear 1:2 at 137: the band term -3/2 * 46 ties the bound -1/2 * 138
    horizon, count = 137, 60
    want, values = sorted_reference(spec, p, q, horizon)
    assert all(certified for _, _, certified in want[:count])
    fixed = oracle_diameters(KotheFamily(sequence(spec)), p, q, horizon, horizon=horizon)
    assert [(e.coeff, e.alpha_index, e.certified) for e in fixed.entries] == want
    assert fixed.oracle_prefix == horizon
    head = oracle_diameters(KotheFamily(sequence(spec)), p, q, count, horizon=horizon)
    assert [(e.coeff, e.alpha_index, e.certified) for e in head.entries] == want[:count]
    assert head.oracle_prefix <= horizon
    merged = oracle_diameters(KotheFamily(sequence(spec)), p, q, count)
    assert [(e.coeff, e.alpha_index, e.certified) for e in merged.entries] == want[:count]
    assert merged.certified_horizon == count - 1
    if (spec, pq) == ("linear", (1, 2)):
        # equal values from different terms, listed by the smaller m
        assert sum(a == b for a, b in zip(values, values[1:count])) > 0


def tied_rational_alpha(p: int, q: int, length: int, rng: random.Random) -> list[Fraction]:
    """Rational alpha in which about half the off-band alpha_m are A_pq
    alpha_n for an earlier band index n, so e^(c_pq alpha_m) ties
    e^((c_pq - 1) alpha_n) exactly."""
    mult = a_pq(p, q)
    values: list[Fraction] = []
    targets: list[Fraction] = []  # A_pq alpha_n of the band indices n so far
    for m in range(1, length + 1):
        prev = values[-1] if values else Fraction(0)
        ahead = [t for t in targets if t > prev]
        if not in_band(p, q, m) and ahead and rng.random() < 0.5:
            value = min(ahead)
        else:
            value = prev + Fraction(rng.randint(1, 5), rng.randint(1, 4))
        values.append(value)
        if in_band(p, q, m):
            targets.append(mult * value)
    return values


@pytest.mark.parametrize("pq", [(1, 2), (2, 5), (3, 7)])
def test_oracle_lists_a_band_term_before_the_off_band_term_it_ties(tmp_path, pq):
    """Where a band term and an off-band term are equal, the merge lists
    them as a sort does, the band term (the smaller index) first, with and
    without a fixed prefix."""
    p, q = pq
    path = tmp_path / "tied.txt"
    alpha = tied_rational_alpha(p, q, 200, random.Random(10 * p + q))
    path.write_text("".join(f"{v}\n" for v in alpha))
    spec = f"file:{path}"
    horizon, count = 137, 60
    want, values = sorted_reference(spec, p, q, horizon)
    assert all(certified for _, _, certified in want[:count])
    ties = [i for i in range(count - 1) if values[i] == values[i + 1]]
    assert len(ties) >= 3
    fam = KotheFamily(sequence(spec))
    for n, h in ((count, None), (count, horizon), (horizon, horizon)):
        table = oracle_diameters(fam, p, q, n, horizon=h)
        rows = [(e.coeff, e.alpha_index, e.certified) for e in table.entries]
        assert rows == want[:n]
        for i in ties:  # the band coefficient c_pq - 1 first, then c_pq
            assert (rows[i][0], rows[i + 1][0]) == (c_pq(p, q) - 1, c_pq(p, q))


@pytest.mark.parametrize("spec, count, horizon, limit", [
    ("linear", 20000, None, 800_000),
    ("linear", 20000, 40000, 800_000),
    ("superproduct", 3000, None, 350_000),
])
def test_oracle_merge_holds_only_the_pending_band_terms(spec, count, horizon, limit):
    """The merge keeps the band terms read but not yet listed, not a buffer
    between two runs: a tee of (m, column, alpha) for the two peaked at 2.2
    to 2.3 MB on linear and 0.93 MB on superproduct, the FIFO at 0.25 and
    0.1 MB, the table's columns included."""
    fam = family(spec)
    tracemalloc.start()
    try:
        table = oracle_diameters(fam, 2, 5, count, horizon=horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.entries) == count
    assert peak < limit


@pytest.mark.parametrize("spec", ["factorial", "superproduct"])
def test_oracle_grows_no_memo(spec):
    fam = family(spec)
    oracle_diameters(fam, 2, 5, 2000)
    oracle_diameters(fam, 2, 5, 300, horizon=300)
    assert len(fam.seq) == 1


# (coeff, alpha_index, segment) of every closed-form entry over the grid
# below; the grid reaches each labelling branch of closedform_diameters
# (row-1 tiling, tiling, transient miss, a row after a miss, two rows
# between the same markers, and the tail handover)
SEGMENT_LABEL_DIGEST = (
    "a197286438bc717ec1e19f1a0e9b21e72465a5c81b0bb4b602f1e4ec8e1150d2"
)


def test_segment_labels_match_frozen_digest():
    digest = hashlib.sha256()
    for spec in ("linear", "poly:2", "factorial", "superproduct"):
        fam = family(spec)
        for p in range(1, 5):
            for q in range(p + 1, p + 6):
                for count in (1, 2, 3, 5, 8, 40, 600):
                    table = closedform_diameters(fam, p, q, count)
                    digest.update(f"{spec} {p} {q} {count}\n".encode())
                    for e in table.entries:
                        digest.update(
                            f"{e.coeff} {e.alpha_index} {e.segment}\n".encode()
                        )
    assert digest.hexdigest() == SEGMENT_LABEL_DIGEST


# -- the coverage checks of the closed form, each reached by one fault ------
# (the exception type is asserted, not its message)


def test_skipped_band_index_raises_coverage_error(monkeypatch):
    """With n_5 = 11 of the pair 1:2 read as off-band, the fill lists it as
    a blue term: linear meets it in an M interval, factorial in the tail."""
    contains = BandIndexing.contains

    def skips_n_5(self, n):
        if (self.p, self.q) == (1, 2) and n == self.element(5):
            return False
        return contains(self, n)

    monkeypatch.setattr(BandIndexing, "contains", skips_n_5)
    for spec in ("linear", "factorial"):
        with pytest.raises(CoverageError):
            closedform_diameters(family(spec), 1, 2, 40)


def test_marker_index_off_by_one_raises_coverage_error(monkeypatch):
    s_k = BandIndexing.s_k
    monkeypatch.setattr(BandIndexing, "s_k", lambda self, k: s_k(self, k) + (k == 3))
    with pytest.raises(CoverageError):
        closedform_diameters(family("linear"), 1, 2, 40)


def test_placement_one_off_band_index_too_far_raises_coverage_error(monkeypatch):
    """i_3 moved to the next off-band index puts the third band term one
    slot late; only the monotonicity pass can tell."""
    find_i = dm._find_i

    def one_too_far(seq, bnd, mult, n_a):
        m = find_i(seq, bnd, mult, n_a)
        if m is not None and n_a == bnd.element(3):
            m += 1
            while bnd.contains(m):
                m += 1
        return m

    monkeypatch.setattr(dm, "_find_i", one_too_far)
    with pytest.raises(CoverageError):
        closedform_diameters(family("linear"), 1, 2, 40)


def test_marker_index_off_by_one_at_k_0_raises_coverage_error(monkeypatch):
    """s_0 one too large moves the K interval of linear 1:2 to start at
    diameter index -1, before the head's first entry."""
    s_k = BandIndexing.s_k
    monkeypatch.setattr(BandIndexing, "s_k", lambda self, k: s_k(self, k) + (k == 0))
    with pytest.raises(CoverageError):
        closedform_diameters(family("linear"), 1, 2, 40)


@pytest.mark.parametrize("p, q, t", [(1, 2, 4), (1, 2, 7), (2, 5, 2), (2, 5, 10)])
def test_marker_one_too_large_between_rows_raises_at_its_shift(monkeypatch, p, q, t):
    """marker(t) one too large, at a K boundary that no plan row's k_a + 1
    names: s_t grows by one with it, so the piece ends where it did but its
    shift is one too large.  The fill still lists the right values; only the
    shift check of the off-band run can tell."""
    marker = BandIndexing.marker
    monkeypatch.setattr(BandIndexing, "marker", lambda self, k: marker(self, k) + (k == t))
    with pytest.raises(CoverageError, match="segment K expects alpha index"):
        closedform_diameters(family("linear"), p, q, 200)


def test_plan_one_row_short_raises_coverage_error(monkeypatch):
    """Without its last row the plan stops before the table is full."""
    build_plan = dm._build_plan
    monkeypatch.setattr(dm, "_build_plan", lambda *args: build_plan(*args)[:-1])
    with pytest.raises(CoverageError):
        closedform_diameters(family("linear"), 1, 2, 40)


# -- the check across the end of the table -----------------------------------


def fault(kind: str, t: int):
    """(owner, name, replacement) for one fault at n_t or at s_t: n_t read
    as off-band, n_t one too large, s_t one too large, or i_a one off-band
    index too far."""
    if kind == "contains":
        contains = BandIndexing.contains
        return BandIndexing, "contains", lambda self, n: n != self.element(t) and contains(self, n)
    if kind == "element":
        element = BandIndexing.element
        return BandIndexing, "element", lambda self, i: element(self, i) + (i == t)
    if kind == "s_k":
        s_k = BandIndexing.s_k
        return BandIndexing, "s_k", lambda self, k: s_k(self, k) + (k == t)
    find_i = dm._find_i

    def one_too_far(seq, bnd, mult, n_a):
        m = find_i(seq, bnd, mult, n_a)
        if m is not None and n_a == bnd.element(t):
            m += 1
            while bnd.contains(m):
                m += 1
        return m

    return dm, "_find_i", one_too_far


@pytest.mark.parametrize(
    "kind, t, spec, count", [("find_i", 1, "linear", 2), ("contains", 2, "factorial", 1)]
)
def test_term_out_of_place_past_the_table_raises_coverage_error(monkeypatch, kind, t, spec, count):
    """Each fault leaves a monotone table whose shifts all check: i_1 one
    off-band index too far places n_1 of linear 1:2 at index 2, so d_1
    would read e^(-5/2) where the oracle has e^(-3/2); n_2 of 1:2 read as
    off-band lists d_0 = e^(-alpha_2 / 2) on factorial, before the band
    term that beats it."""
    monkeypatch.setattr(*fault(kind, t))
    with pytest.raises(CoverageError):
        closedform_diameters(family(spec), 1, 2, count)


@pytest.mark.parametrize("kind", ["contains", "s_k", "find_i"])
def test_faulted_tables_raise_or_match_the_oracle(monkeypatch, kind):
    """Under each fault at t = 1..4, every closed-form table either raises
    CoverageError or lists the oracle's values (compared as values: tied
    entries may come in another order)."""
    for spec in ("linear", "factorial"):
        fam = family(spec)
        for p, q in [(1, 2), (1, 3), (2, 5)]:
            oracle = log_values(oracle_diameters(fam, p, q, 40), fam.seq)
            for t in range(1, 5):
                with monkeypatch.context() as patched:
                    patched.setattr(*fault(kind, t))
                    for count in range(1, 41):
                        try:
                            table = closedform_diameters(fam, p, q, count)
                        except CoverageError:
                            continue
                        assert log_values(table, fam.seq) == oracle[:count], (spec, p, q, t, count)


def test_faulted_band_elements_raise_or_match_the_oracle(monkeypatch):
    """n_t one too large, t = 1..4, feeds both the plan's band terms and the
    fill's off-band runs: the same sweep as for the other faults."""
    test_faulted_tables_raise_or_match_the_oracle(monkeypatch, "element")


def matches_values(table, oracle, oracle_values, seq) -> bool:
    """Value by value: an entry with the oracle's code and alpha index at its
    position matches; any other is compared by its exact log value."""
    theirs = oracle.entries
    return all(
        (code, m) == (theirs.codes[n], theirs.alpha_index[n])
        or table.entries[n].log_value(seq) == oracle_values[n]
        for n, code, m in table.entries.rows()
    )


SWEEP_COUNTS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 600)


@pytest.mark.parametrize("kind", ["contains", "element", "s_k", "find_i"])
def test_faulted_tables_at_count_600_raise_or_match_the_oracle(monkeypatch, kind):
    """The sweep of the faults above, wider: t = 1..20 on three kinds, so
    that long L, K and M runs and the tail's band terms are faulted too.
    Each table is built at the counts of SWEEP_COUNTS and around the
    faulted term's unfaulted place j_t (the check across the end), and
    either raises CoverageError or lists the oracle's values."""
    for spec in ("linear", "factorial", "superproduct"):
        fam = family(spec)
        for p, q in [(1, 2), (1, 3), (2, 5)]:
            oracle = oracle_diameters(fam, p, q, 600)
            oracle_values = log_values(oracle, fam.seq)
            plan = closedform_diameters(fam, p, q, 600).plan
            for t in range(1, 21):
                near = range(plan[t - 1].j_a - 1, plan[t - 1].j_a + 3) if t <= len(plan) else ()
                counts = sorted({c for c in (*SWEEP_COUNTS, *near) if 1 <= c <= 600})
                with monkeypatch.context() as patched:
                    patched.setattr(*fault(kind, t))
                    for count in counts:
                        try:
                            table = closedform_diameters(fam, p, q, count)
                        except CoverageError:
                            continue
                        assert matches_values(table, oracle, oracle_values, fam.seq), (
                            spec, p, q, t, count)


@pytest.mark.parametrize("p, q, t", [(1, 2, 2), (2, 5, 1), (2, 5, 3)])
def test_band_element_off_the_band_raises_at_its_run(monkeypatch, p, q, t):
    """n_t + 1 is off the band here: the fill checks each band element it
    reads, so the table raises however the plan places the faulted term."""
    monkeypatch.setattr(*fault("element", t))
    with pytest.raises(CoverageError, match=f"band element n_{t} "):
        closedform_diameters(family("linear"), p, q, 40)


# -- the entries view -------------------------------------------------------


def test_entries_view_reads_like_a_list_of_entries():
    fam = family("linear")
    table = closedform_diameters(fam, 2, 5, 30)
    entries = table.entries
    listed = list(entries)
    assert len(entries) == len(listed) == 30
    assert all(type(e) is DiameterEntry for e in listed)
    assert [e.n for e in listed] == list(range(30))
    assert listed == [entries[n] for n in range(30)] == [table.entry(n) for n in range(30)]
    assert entries[-1] == listed[29] and entries[-30] == listed[0]
    for n in (30, -31):
        with pytest.raises(IndexError):
            entries[n]
    assert entries[3:7] == listed[3:7] and [e.n for e in entries[3:7]] == [3, 4, 5, 6]
    assert entries[::-4] == listed[::-4] and entries[7:3] == [] and entries[:] == listed
    assert list(reversed(entries)) == listed[::-1]
    # the columns hold what the entries show
    assert [entries.coeffs[c] for c in entries.codes] == [e.coeff for e in listed]
    assert list(entries.alpha_index) == [e.alpha_index for e in listed]
    assert [dm.SEGMENTS[s] for s in entries.segments] == [e.segment for e in listed]
    assert list(map(bool, entries.certified)) == [e.certified for e in listed]


def test_entries_view_equality():
    fam = family("linear")
    entries = closedform_diameters(fam, 1, 2, 20).entries
    listed = list(entries)
    assert entries == listed and listed == entries
    assert entries == closedform_diameters(fam, 1, 2, 20).entries
    assert entries != listed[:-1] and entries != listed[1:] + listed[:1]
    assert entries != tuple(listed) and entries != closedform_diameters(fam, 1, 2, 21).entries
    assert dm.DiameterEntries.for_pair(1, 2) == []
    with pytest.raises(UncertifiableError):
        oracle_diameters(fam, 1, 2, 2, horizon=2)
    moved = listed[:-1] + [dataclasses.replace(listed[-1], certified=False)]
    assert entries != moved


def test_entries_view_item_assignment():
    fam = family("linear")
    table = closedform_diameters(fam, 2, 5, 40)
    entries = table.entries
    before = list(entries)
    entries[-1] = dataclasses.replace(entries[-1], alpha_index=entries[-1].alpha_index + 1)
    assert entries[39].alpha_index == before[39].alpha_index + 1
    assert entries[:39] == before[:39]
    # a coefficient equal to one of the pair takes its code; any other raises
    entries[5] = dataclasses.replace(entries[5], coeff=Fraction(before[5].coeff.numerator,
                                                                before[5].coeff.denominator))
    assert entries[5] == before[5]
    other = entries.coeffs[1 - entries.codes[6]]
    entries[6] = dataclasses.replace(entries[6], coeff=other, segment="tail", certified=False)
    assert entries.codes[6] == 1 - entries.coeffs.index(before[6].coeff)
    assert entries[6] == DiameterEntry(other, before[6].alpha_index, 6, "tail", False)
    assert list(entries)[6] == entries[6]
    with pytest.raises(ValueError, match="-1/10 is neither -3/10 nor -13/10"):
        entries[7] = dataclasses.replace(entries[7], coeff=Fraction(-1, 10))
    assert entries.coeffs == (Fraction(-3, 10), Fraction(-13, 10)) and entries[7] == before[7]
    with pytest.raises(ValueError, match="position 7"):
        entries[7] = entries[8]
    with pytest.raises(IndexError):
        entries[40] = dataclasses.replace(before[0], n=40)


def test_replacing_entries_with_a_list_gives_a_view():
    fam = family("factorial")
    table = closedform_diameters(fam, 1, 2, 30)
    listed = list(table.entries)
    listed[12] = dataclasses.replace(listed[12], alpha_index=listed[12].alpha_index + 1)
    changed = dataclasses.replace(table, entries=listed)
    assert isinstance(changed.entries, dm.DiameterEntries)
    assert changed.entries == listed and changed.entries != table.entries
    assert (changed.plan, changed.a0, changed.certified_horizon) == (
        table.plan, table.a0, table.certified_horizon)
    assert dataclasses.replace(table, entries=[]).entries == []


# sha256 of every table of the sweep below, entry by entry, as the engines
# gave them when they built one DiameterEntry per index
ENTRY_DIGESTS = {
    "linear": "fa3f1d0df70d3e752eb6f6f9415007efba01a191400e15c251dc476ca70345ab",
    "poly:2": "a97078306dd03c6178df7f922633e7af38e4893ad734da87fd498451cbbd5a10",
    "factorial": "909a9e35a69bd3535637cc054e4d987a2c9812ea3e74fb497d5f692516eb3051",
    "superproduct": "d413213b8a090dc7433345f06d78cfe1c2f74fa4f8e35baec7cbb7d5ea7022f2",
    "rational": "15df135730aff1d1a3e9932561167428dad72f597188ae3cd86dbd6f258d8ab2",
}


@pytest.mark.parametrize("spec", sorted(ENTRY_DIGESTS))
def test_both_engines_match_the_per_entry_reference(spec):
    """(coeff, alpha_index, n, segment, certified) of every entry, with the
    plan, a0, tail_start and certified horizon, over p <= 4, q <= p + 6 and
    counts 1..60; iteration, indexing and slicing give the same entries."""
    fam = KotheFamily(sequence(spec))
    digest = hashlib.sha256()
    for p in range(1, 5):
        for q in range(p + 1, p + 7):
            for count in range(1, 61):
                for table in (closedform_diameters(fam, p, q, count),
                              oracle_diameters(fam, p, q, count)):
                    digest.update(f"{p} {q} {count} {table.method} {table.certified_horizon} "
                                  f"{table.a0} {table.tail_start} {table.plan}\n".encode())
                    listed = list(table.entries)
                    for e in listed:
                        digest.update(f"{e.coeff} {e.alpha_index} {e.n} {e.segment} "
                                      f"{e.certified}\n".encode())
                    if count in (1, 7, 60):
                        assert listed == [table.entry(n) for n in range(count)] == table.entries[:]
    assert digest.hexdigest() == ENTRY_DIGESTS[spec]


def test_closed_form_table_at_count_100000_holds_columns_not_entries():
    fam = family("linear")
    tracemalloc.start()
    try:
        table = closedform_diameters(fam, 2, 5, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.entries) == 10**5
    # at most 30 bytes an entry; one DiameterEntry object each took about 145
    assert peak < 30 * 10**5
