import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kothedim.grid import (
    BandIndexing,
    band_count_below,
    column_of,
    column_start,
    gallop,
    in_band,
    pair_index,
    unpair,
)

# the first ten labels of the enumeration, row (x, y) -> n
DIAGRAM = [
    ((0, 0), 1),
    ((0, 1), 2),
    ((1, 0), 3),
    ((0, 2), 4),
    ((1, 1), 5),
    ((2, 0), 6),
    ((0, 3), 7),
    ((1, 2), 8),
    ((2, 1), 9),
    ((3, 0), 10),
]


@pytest.mark.parametrize("xy,n", DIAGRAM)
def test_pairing_matches_diagram(xy, n):
    assert pair_index(*xy) == n
    assert unpair(n) == xy


@pytest.mark.parametrize(
    "ts", [range(1, 2001), range(10**9 - 3, 10**9 + 4)], ids=["small", "near-1e9"]
)
def test_unpair_at_diagonal_ends(ts):
    """T_t closes diagonal t-1 at (t-1, 0) and T_t + 1 opens diagonal t at
    (0, t), where the isqrt form sits closest to a wrong diagonal."""
    for t in ts:
        tri = t * (t + 1) // 2
        assert unpair(tri) == (t - 1, 0)
        assert unpair(tri + 1) == (0, t)


def test_unpair_large_round_trip():
    assert pair_index(*unpair(10**6)) == 10**6


@given(st.integers(min_value=1, max_value=10**12))
def test_unpair_round_trip(n):
    x, y = unpair(n)
    assert pair_index(x, y) == n


@given(st.integers(min_value=0, max_value=10**5), st.integers(min_value=0, max_value=10**5))
def test_pair_round_trip(x, y):
    assert unpair(pair_index(x, y)) == (x, y)


def test_column_of_examples():
    assert column_of(3) == 2
    assert column_of(6) == 3
    assert column_of(10) == 4


def test_column_start_triangular():
    for s in range(1, 1001):
        assert column_start(s) == s * (s + 1) // 2
        assert column_of(column_start(s)) == s


def band_reference(p, q, below):
    """The band elements below ``below``, by scanning every grid position."""
    return [n for n in range(1, below) if in_band(p, q, n)]


def test_band_prefix_column_one():
    b = BandIndexing(p=1, q=2)
    assert [b.element(i) for i in range(1, 7)] == [1, 2, 4, 7, 11, 16]


@pytest.mark.parametrize("p,q", [(1, 2), (3, 4), (2, 3), (2, 5), (3, 7), (1, 9)])
def test_element_matches_enumeration(p, q):
    b = BandIndexing(p=p, q=q)
    reference = band_reference(p, q, 3000)
    # indices up to and past the truncated triangle (q-p-1)(q-p)/2
    triangle = (q - p - 1) * (q - p) // 2
    assert len(reference) > triangle + 2 * (q - p)
    assert [b.element(i) for i in range(1, len(reference) + 1)] == reference


def test_element_is_one_based_and_closed_form():
    b = BandIndexing(p=2, q=5)
    with pytest.raises(ValueError):
        b.element(0)
    n = b.element(10**12)  # no enumeration: returns at once
    assert b.contains(n)
    assert b.count_below(n) + 1 == 10**12


def test_band_markers_for_1_2():
    b = BandIndexing(p=1, q=2)
    # element (0, k) is the (k+1)-th of the single-column band
    for k in range(0, 8):
        assert b.s_k(k) == k + 1


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (2, 5), (3, 7), (1, 9)])
def test_marker_gaps_equal_band_width(p, q):
    b = BandIndexing(p=p, q=q)
    for k in range(0, 1000):
        assert b.s_k(k + 1) - b.s_k(k) == q - p


def test_negative_markers_cover_truncated_diagonals():
    b = BandIndexing(p=2, q=5)
    assert b.k_min == -2
    assert b.marker(-2) == pair_index(1, 0)
    assert b.s_k(-2) == 1
    assert b.s_k(0) == 4  # (q-p-1)(q-p)/2 + 1


def test_band_count_below_matches_enumeration():
    members = set(band_reference(2, 5, 2000))
    count = 0
    for m in range(1, 2000):
        assert band_count_below(2, 5, m) == count
        if m in members:
            count += 1


def test_in_band_matches_columns():
    for n in range(1, 500):
        assert in_band(2, 5, n) == (2 <= column_of(n) < 5)


def test_locate_k_brackets():
    b = BandIndexing(p=1, q=2)
    for m in [3, 5, 6, 12, 21, 33]:
        k = b.locate_k(m)
        assert b.marker(k) < m < b.marker(k + 1)
    with pytest.raises(ValueError):
        b.locate_k(4)  # band element


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (2, 5), (3, 7), (1, 9)])
def test_locate_k_matches_linear_reference(p, q):
    b = BandIndexing(p=p, q=q)
    k = b.k_min  # the linear reference walks the markers alongside m
    for m in range(b.marker(b.k_min) + 1, 3000):
        if b.contains(m):
            continue
        while b.marker(k + 1) < m:
            k += 1
        assert b.locate_k(m) == k


@pytest.mark.parametrize("p,q", [(1, 2), (3, 7)])
def test_locate_k_makes_logarithmically_many_marker_calls(p, q):
    b = BandIndexing(p=p, q=q)
    calls = []

    def counting_marker(k):
        calls.append(k)
        return BandIndexing.marker(b, k)

    b.marker = counting_marker
    for m in (10**4 + 1, 10**6 + 1, 10**9 + 1):
        while b.contains(m):
            m += 1
        calls.clear()
        k = b.locate_k(m)
        assert BandIndexing.marker(b, k) < m < BandIndexing.marker(b, k + 1)
        assert len(calls) <= 2 * (k - b.k_min + 2).bit_length() + 2


def linear_scan(holds, lo):
    """Reference: step one index at a time from lo while holds stays true."""
    while holds(lo + 1):
        lo += 1
    return lo


@settings(max_examples=400)
@given(
    lo=st.integers(min_value=-3, max_value=40),
    length=st.integers(min_value=0, max_value=300),
    stop=st.integers(min_value=-5, max_value=400),
)
def test_gallop_matches_a_linear_scan(lo, length, stop):
    # holds is true on lo..lo+length and false after it
    calls = []

    def holds(x):
        calls.append(x)
        return x <= lo + length

    want = linear_scan(holds, lo)
    calls.clear()
    assert gallop(holds, lo, stop) == want == lo + length
    assert lo not in calls  # holds(lo) is taken as true, never called
    assert len(calls) <= 2 * (length + 1).bit_length() + 3
    if lo < stop:
        # a probe past stop comes only after stop itself was probed
        past = [i for i, x in enumerate(calls) if x > stop]
        assert not past or stop in calls[: past[0]]
