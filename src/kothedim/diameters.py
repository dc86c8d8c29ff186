"""Kolmogorov diameter sequences by two independent routes.

Route one (the oracle) merges the exact ratio terms ``a_{p,n}/a_{q,n}``
into descending order and reads the (n+1)-th term: it walks the diagonals
of the grid for each index's column, so the off-band terms e^(c alpha_m)
and the band terms e^((c-1) alpha_n) form two strictly decreasing runs,
and a two-way merge of them is final entry by entry.  It shares no band
index code with route two.  Route two never merges: it places each on-band
term by an index formula (how many off-band terms beat it) and fills the
remaining positions with the off-band terms in increasing order,
attributing every position to one of the segment families head/J/K/L/M or
to the eventually-decreasing tail that takes over when the placement
search stops finding qualifying off-band terms.  The two routes agreeing
exactly, value by value, is the central invariant of the package.

Throughout, "red" refers to a term e^((c-1) alpha_{n_a}) coming from a band
element n_a, and "blue" to a term e^(c alpha_m) with m off the band.
"""
from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .exact import LogTerm, Rational, scaled_numerator
from .grid import BandIndexing, gallop
from .kothe import KotheFamily, a_pq, c_pq

HEAD = "head"
SEG_J = "J"
SEG_K = "K"
SEG_L = "L"
SEG_M = "M"
TAIL = "tail"
ORACLE = "oracle"


class CoverageError(RuntimeError):
    """The closed-form segment families failed to tile the index range."""


@dataclass(frozen=True, slots=True)
class DiameterEntry(LogTerm):
    """One diameter d_n = e^(coeff * alpha_{alpha_index})."""

    n: int
    segment: str
    certified: bool

    def term(self) -> LogTerm:
        return self


@dataclass(frozen=True)
class PlanRow:
    """Placement record for the a-th band term.

    ``i_a`` is the largest off-band m with alpha_m <= A_pq * alpha_{n_a}
    beyond n_a, or None when no such m exists (the tail trigger); ``k_a``
    locates i_a between consecutive column-p markers; ``j_a`` is the
    diameter index where the band term lands.
    """

    a: int
    n_a: int
    i_a: int | None
    k_a: int | None
    j_a: int


@dataclass
class DiameterTable:
    p: int
    q: int
    method: str
    entries: list[DiameterEntry]
    certified_horizon: int
    plan: list[PlanRow] | None = None
    a0: int | None = None
    tail_start: int | None = None
    oracle_prefix: int | None = None  # the largest ratio index the oracle's merge read
    diagnostic: str | None = None

    def entry(self, n: int) -> DiameterEntry:
        return self.entries[n]


# -- route one: the merging oracle -------------------------------------------


def _merged_entries(
    family: KotheFamily, p: int, q: int, indices: Iterator[int], bound: int | None
) -> Iterator[DiameterEntry]:
    """The ratio terms at ``indices`` (1, 2, 3, ...), descending by value,
    ties by the smaller ratio index m; certified when the key beats
    ``bound``, always when ``bound`` is None.

    Each index's column comes from a walk of the diagonals (1; 1, 2; 1, 2,
    3; ...), so m is on the band when that column s has p <= s < q.  A key
    is the exponent ``coeff * alpha_m`` times ``pq * seq.scale``.  Off the
    band (c_pq) and on it (c_pq - 1) the coefficient is one negative
    constant, so each run strictly decreases and :func:`heapq.merge` of
    ``(-key, m)`` orders the two as sorting all the terms would.  Both runs
    share one pass of ``seq.scaled_values()``.
    """
    pq = p * q
    blue = c_pq(p, q)
    red = blue - 1
    blue_num = scaled_numerator(blue, pq)
    columns = itertools.chain.from_iterable(range(1, t + 1) for t in itertools.count(1))
    blues, reds = itertools.tee(zip(indices, columns, family.seq.scaled_values()))
    merged = heapq.merge(
        ((-blue_num * alpha, m, blue) for m, s, alpha in blues if not p <= s < q),
        ((-(blue_num - pq) * alpha, m, red) for m, s, alpha in reds if p <= s < q),
    )
    for n, (neg_key, m, coeff) in enumerate(merged):
        yield DiameterEntry(coeff, m, n, ORACLE, bound is None or -neg_key > bound)


def oracle_diameters(
    family: KotheFamily, p: int, q: int, count: int, horizon: int | None = None
) -> DiameterTable:
    """The first ``count`` entries of one merge of the exact ratio terms in
    descending order: d_n is the (n+1)-th merged term.

    With ``horizon`` None the merge covers every ratio term and each entry
    is final: every term not yet merged comes after the heads of the two
    runs.  With ``horizon`` H it covers m <= H, and an entry is certified
    final when it is strictly greater than e^(c_pq alpha_{H+1}), which
    dominates every unseen term; ties with that bound stay uncertified
    because an unseen term could equal them.  Such a table that certifies
    nothing lists no entries.  ``oracle_prefix`` is the largest ratio index
    the merge read.
    """
    bound = None
    if horizon is not None:
        if horizon < 2:
            raise ValueError("oracle prefix must have at least 2 terms")
        if horizon < count:
            raise ValueError("oracle prefix must hold at least count terms")
        # alpha_{H+1} from a pass of its own, so that no key is kept
        alpha_next = next(itertools.islice(family.seq.scaled_values(), horizon, None))
        bound = scaled_numerator(c_pq(p, q), p * q) * alpha_next
    indices = itertools.count(1)
    merged = _merged_entries(family, p, q, itertools.islice(indices, horizon), bound)
    entries = list(itertools.islice(merged, count))
    certified = sum(e.certified for e in entries)  # a prefix: the keys decrease
    empty = horizon is not None and not certified
    return DiameterTable(
        p, q, "oracle", [] if empty else entries, certified - 1,
        oracle_prefix=next(indices) - 1,
        diagnostic=(
            f"prefix of {horizon} ratio terms certifies no diameter; "
            "increase the prefix length"
        ) if empty else None,
    )


# perfbench/ calls the oracle by this name; the alias goes when perfbench/ is
# next edited (ROADMAP item 1)
oracle_diameters_certified = oracle_diameters


# -- route two: index formulas ------------------------------------------------


def _find_i(seq, bnd: BandIndexing, threshold_mult: Rational, n_a: int) -> int | None:
    """Greatest off-band m with alpha_m <= A_pq alpha_{n_a}, None if none > n_a.

    alpha is strictly increasing, so the qualifying set is a prefix, and
    n_a is in it (A_pq > 1).  :func:`~kothedim.grid.gallop` finds its last
    element from n_a, one ``seq.compare`` per probe.  With ``stop`` at the
    stored length, a probe never passes the stored values while a stored
    one can still decide, so a file prefix is read past, raising
    PrefixExhaustedError, exactly when every stored index from n_a on
    qualifies.  Then step down over the (at most q-p wide) band block to
    the nearest off-band index.
    """
    num, den = threshold_mult.numerator, threshold_mult.denominator
    m = gallop(lambda x: seq.compare(den, x, num, n_a) <= 0, n_a, len(seq))
    while m > n_a and bnd.contains(m):
        m -= 1
    return m if m > n_a else None


def _build_plan(
    family: KotheFamily, bnd: BandIndexing, count: int
) -> list[PlanRow]:
    """Placement rows until the band terms leave the requested range."""
    seq = family.seq
    mult = a_pq(bnd.p, bnd.q)
    rows: list[PlanRow] = []
    a = 0
    while True:
        a += 1
        n_a = bnd.element(a)
        i_a = _find_i(seq, bnd, mult, n_a)
        if i_a is None:
            k_a = None
            j_a = n_a - 1
        else:
            k_a = bnd.locate_k(i_a)
            j_a = i_a - bnd.count_below(i_a) + a - 1
            # the count form above must coincide with the marker form
            if j_a != i_a - bnd.s_k(k_a + 1) + a:
                raise CoverageError(
                    f"marker index s_({k_a + 1}) disagrees with the off-band "
                    f"count at a={a}"
                )
        if rows and j_a <= rows[-1].j_a:
            raise CoverageError(
                f"band term placements not strictly increasing at a={a}"
            )
        rows.append(PlanRow(a=a, n_a=n_a, i_a=i_a, k_a=k_a, j_a=j_a))
        if j_a > count - 1:
            return rows


def closedform_diameters(
    family: KotheFamily, p: int, q: int, count: int
) -> DiameterTable:
    """Diameters d_0..d_{count-1} from the segment index formulas.

    Band terms are placed by the plan; off-band terms fill the remaining
    positions in increasing order of their ratio index, read as the runs
    between consecutive band elements n_i, each n_i checked to lie on the
    band (CoverageError if not).  One rule labels
    the stretch after row a's band term (a virtual row 0 ends with the
    head): it is cut before marker k + 1 for k = k_a..k_(a+1), each piece
    ending at marker(k+1) - s_(k+1) + a - 1 (the last one just before band
    term a+1) with shift s_(k+1) - a, and labelled L first, K between and
    M last; next to a miss the stretch is one unshifted M.  The last row
    with a qualifying i_a ends in its L piece alone, and the tail (shift 1)
    follows.  Each entry is checked against its piece's shift and against
    the entry before it; a piece that does not start at the next index, a
    value mismatch, an increase, a table short of ``count`` entries, or a
    next band or off-band term that beats d_(count-1) or an off-band index
    skipped by the fill raises CoverageError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    seq = family.seq
    pq = p * q
    blue = c_pq(p, q)
    red = blue - 1
    blue_num = scaled_numerator(blue, pq)
    red_num = blue_num - pq
    bnd = BandIndexing(p=p, q=q)
    rows = _build_plan(family, bnd, count)
    n_1 = bnd.element(1)

    # the tail takes over at a0, the first a of the maximal suffix of rows
    # with no qualifying i_a
    a0 = None
    for row in reversed(rows):
        if row.i_a is not None:
            break
        a0 = row.a
    if a0 is None:
        tail_start: int | None = None
    else:
        tail_start = 0 if a0 == 1 else rows[a0 - 2].j_a + 1

    # values: reds by plan position, blues run by run; a coefficient is kept
    # as its integer numerator over pq
    def off_band_runs() -> Iterator[range]:
        n_prev = 0
        for i in itertools.count(1):
            if not bnd.contains(n_i := bnd.element(i)):
                raise CoverageError(f"band element n_{i} = {n_i} is off the band")
            yield range(n_prev + 1, n_i)
            n_prev = n_i

    reds = {row.j_a: row.n_a for row in rows}
    blues = itertools.chain.from_iterable(off_band_runs())
    entries: list[DiameterEntry] = []
    last_num = last_index = 0

    def mark(start: int, end: int, label: str, shift: int | None) -> None:
        """Emit [start, end] up to count - 1, each value checked against the
        formula and the entry before it."""
        nonlocal last_num, last_index
        end = min(end, count - 1)
        if start <= end and start != len(entries):
            raise CoverageError(
                f"segment {label} starts at diameter index {start}, "
                f"expected {len(entries)}"
            )
        for n in range(start, end + 1):
            num, coeff, m = (red_num, red, reds[n]) if n in reds else (blue_num, blue, next(blues))
            if shift is not None and m != n + shift:
                raise CoverageError(
                    f"segment {label} expects alpha index {n + shift} at "
                    f"diameter index {n}, fill has {m}"
                )
            # one negative coefficient: the value decreases iff the index increases
            if (m <= last_index if num == last_num
                    else n and seq.compare(last_num, last_index, num, m) < 0):
                raise CoverageError(f"diameters not non-increasing at index {n}")
            last_num, last_index = num, m
            entries.append(DiameterEntry(coeff, m, n, label, True))

    def stretch(row: PlanRow, k_last: int | None, end: int, last: str) -> None:
        """The positions from one past ``row``'s band term to ``end``, cut
        before marker k + 1 for k = row.k_a..k_last (L, then K, then
        ``last``); next to a miss, one ``last`` piece with no shift."""
        start = row.j_a + 1
        if row.k_a is None or k_last is None:
            return mark(start, end, last, None)
        for k in range(row.k_a, k_last + 1):
            s_next = bnd.s_k(k + 1)
            stop = end if k == k_last else bnd.marker(k + 1) - s_next + row.a - 1
            label = last if k == k_last else SEG_K if k > row.k_a else SEG_L
            mark(start, stop, label, s_next - row.a)
            start = stop + 1

    mark(0, n_1 - 2, HEAD, 1)
    # a virtual row 0 ends with the head: its L is empty and its K pieces
    # start at k_min, so row 1 follows the general tiling
    prev = PlanRow(a=0, n_a=0, i_a=0, k_a=bnd.k_min - 1, j_a=n_1 - 2)
    for row in rows if a0 is None else rows[: a0 - 1]:
        stretch(prev, row.k_a, row.j_a - 1, SEG_M)
        mark(row.j_a, row.j_a, SEG_J, None)
        prev = row

    if a0 is not None:
        # the last row before the tail (row 0 when a0 = 1) ends in an L of
        # shift s - (a0 - 1) = 1, the tail's own; a tail band term n_a lands
        # at n_a - 1, so one shift checks reds and blues alike
        s_last = bnd.s_k(prev.k_a + 1)
        if s_last != a0:
            raise CoverageError(
                f"tail handover expects marker index {a0}, got {s_last}"
            )
        l_end = bnd.marker(prev.k_a + 1) - s_last + prev.a - 1
        stretch(prev, prev.k_a, l_end, SEG_L)
        mark(l_end + 1, count - 1, TAIL, 1)

    if len(entries) != count:
        raise CoverageError(
            f"segment families leave a gap at index {len(entries)}"
        )
    # across the end: the first band term and the first off-band term past
    # the table do not beat d_(count-1), and the fill listed exactly the
    # off-band indices below the next one
    m = next(blues)
    if (
        seq.compare(last_num, last_index, red_num, rows[-1].n_a) < 0
        or seq.compare(last_num, last_index, blue_num, m) < 0
        or m - 1 - bnd.count_below(m) != count - (len(rows) - 1)
    ):
        raise CoverageError(f"a term past diameter index {count - 1} is out of place")
    return DiameterTable(
        p=p,
        q=q,
        method="closed",
        entries=entries,
        certified_horizon=count - 1,
        plan=rows,
        a0=a0,
        tail_start=tail_start,
    )


def entry_to_json(entry: DiameterEntry, seq) -> dict:
    value, clamped = seq.exp_float(entry.coeff, entry.alpha_index)
    payload = {
        "n": entry.n,
        "coeff": entry.coeff,
        "alpha_index": entry.alpha_index,
        "segment": entry.segment,
        # the ratio term behind d_n is alpha's own index in both engines
        "source_ratio_index": entry.alpha_index,
        "certified": entry.certified,
        "approx_value": value,
    }
    if clamped:
        payload["approx_clamped"] = True
    return payload
