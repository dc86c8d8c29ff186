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

import bisect
import functools
import itertools
import operator
from array import array
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields

from .exact import LogTerm, Rational
from .grid import BandIndexing, gallop
from .kothe import KotheFamily, a_pq, ratio_numerators

HEAD = "head"
SEG_J = "J"
SEG_K = "K"
SEG_L = "L"
SEG_M = "M"
TAIL = "tail"
ORACLE = "oracle"
SEGMENTS = (HEAD, SEG_J, SEG_K, SEG_L, SEG_M, TAIL, ORACLE)  # a segment code indexes this


class CoverageError(RuntimeError):
    """The closed-form segment families failed to tile the index range."""


class UncertifiableError(ValueError):
    """An oracle prefix too short to certify any diameter."""


@dataclass(frozen=True, slots=True, init=False)
class DiameterEntry(LogTerm):
    """One diameter d_n = e^(coeff * alpha_{alpha_index}).  Tables build
    entries on demand, so the ``__init__`` stores each slot, as
    :class:`LogTerm`'s does, at about half the generated one's cost."""

    n: int
    segment: str
    certified: bool

    def __init__(self, coeff: Rational, alpha_index: int, n: int, segment: str,
                 certified: bool) -> None:
        _set_coeff(self, coeff)
        _set_alpha_index(self, alpha_index)
        _set_n(self, n)
        _set_segment(self, segment)
        _set_certified(self, certified)

    def term(self) -> LogTerm:
        return self


_set_coeff, _set_alpha_index, _set_n, _set_segment, _set_certified = (
    getattr(DiameterEntry, f.name).__set__ for f in fields(DiameterEntry))


@dataclass(eq=False)
class DiameterEntries(Sequence):
    """A table's entries as columns, entry n at position n: the pair's two
    coefficients in ``coeffs``, c_pq off the band (code 0) and c_pq - 1 on
    it (code 1), and per entry its code, alpha index, code into
    :data:`SEGMENTS` and certified flag.  Readers that scan a table read the
    columns (:meth:`rows`).  Otherwise it works as a list of
    :class:`DiameterEntry`, each built on demand (iteration maps over the
    columns at C level); an assigned entry with any other coefficient
    raises ValueError.
    """

    coeffs: tuple[Rational, Rational]
    alpha_index: array = field(default_factory=lambda: array("q"))
    codes: bytearray = field(default_factory=bytearray)
    segments: bytearray = field(default_factory=bytearray)
    certified: bytearray = field(default_factory=bytearray)

    @classmethod
    def for_pair(cls, p: int, q: int, *columns) -> DiameterEntries:
        """The columns given, empty by default, with the pair (p, q)'s coefficients."""
        return cls(tuple(Rational(num, p * q) for num in ratio_numerators(p, q)), *columns)

    @classmethod
    def of(cls, p: int, q: int, entries: list[DiameterEntry]) -> DiameterEntries:
        """The columns of ``entries``, each checked as item assignment checks it."""
        view = cls.for_pair(p, q)
        fields = zip(*[view._fields(n, entry) for n, entry in enumerate(entries)])
        for column, values in zip((view.codes, view.alpha_index, view.segments,
                                   view.certified), fields):
            column.extend(values)
        return view

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, int, int]]:
        """(n, code, alpha index) at the positions start..stop-1."""
        return itertools.islice(zip(itertools.count(), self.codes, self.alpha_index), start, stop)

    def __len__(self) -> int:
        return len(self.alpha_index)

    def _build(self, codes, alpha_index, ns, segments, certified) -> Iterator[DiameterEntry]:
        """Entries from (slices of) the columns, built at C level."""
        return map(DiameterEntry, map(self.coeffs.__getitem__, codes), alpha_index, ns,
                   map(SEGMENTS.__getitem__, segments), map(bool, certified))

    def __iter__(self) -> Iterator[DiameterEntry]:
        return self._build(self.codes, self.alpha_index, itertools.count(), self.segments,
                           self.certified)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(self._build(self.codes[key], self.alpha_index[key], range(len(self))[key],
                                    self.segments[key], self.certified[key]))
        n = range(len(self))[key]  # an int, negative ones from the end
        return DiameterEntry(self.coeffs[self.codes[n]], self.alpha_index[n], n,
                             SEGMENTS[self.segments[n]], bool(self.certified[n]))

    @functools.cached_property
    def _codes_by_terms(self) -> dict[tuple[int, int], int]:
        """Each code by its coefficient's numerator and denominator: two
        rationals in lowest terms are equal iff these are."""
        return {(c.numerator, c.denominator): code for code, c in enumerate(self.coeffs)}

    def _fields(self, n: int, entry: DiameterEntry) -> tuple[int, int, int, bool]:
        """(code, alpha index, segment code, certified) of ``entry`` at
        position n; ValueError if it belongs elsewhere or has neither of
        the pair's coefficients."""
        if entry.n != n:
            raise ValueError(f"entry d_{entry.n} cannot sit at position {n}")
        c = entry.coeff
        code = self._codes_by_terms.get((getattr(c, "numerator", None),
                                         getattr(c, "denominator", None)))
        if code is None:
            raise ValueError("coefficient {} is neither {} nor {}".format(c, *self.coeffs))
        return code, entry.alpha_index, SEGMENTS.index(entry.segment), entry.certified

    def __setitem__(self, key: int, entry: DiameterEntry) -> None:
        n = range(len(self))[key]
        (self.codes[n], self.alpha_index[n], self.segments[n],
         self.certified[n]) = self._fields(n, entry)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, DiameterEntries)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


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
    """d_0, d_1, ... of one pair (p, q) from one engine, final up to
    ``certified_horizon``.  ``entries`` is a :class:`DiameterEntries`; a
    list of entries given in its place, as by ``dataclasses.replace(table,
    entries=[...])``, is turned into one, and an entry with neither of the
    pair's coefficients raises ValueError."""

    p: int
    q: int
    method: str
    entries: DiameterEntries
    certified_horizon: int
    plan: list[PlanRow] | None = None
    a0: int | None = None
    tail_start: int | None = None
    oracle_prefix: int | None = None  # the largest ratio index the oracle's merge read

    def __post_init__(self) -> None:
        if not isinstance(self.entries, DiameterEntries):
            self.entries = DiameterEntries.of(self.p, self.q, self.entries)

    def entry(self, n: int) -> DiameterEntry:
        return self.entries[n]


# -- route one: the merging oracle -------------------------------------------


def _merged_entries(
    family: KotheFamily, p: int, q: int, indices: Iterator[int], bound: int | None, count: int
) -> DiameterEntries:
    """The first ``count`` ratio terms at ``indices`` (1, 2, 3, ...),
    descending by value, ties by the smaller ratio index m; certified when
    the key beats ``bound``, always when ``bound`` is None.

    Each index's column comes from a walk of the diagonals (1; 1, 2; 1, 2,
    3; ...), so m is on the band when that column s has p <= s < q.  A key
    is the exponent ``coeff * alpha_m`` times ``pq * seq.scale``.  Off the
    band (c_pq, code 0) and on it (c_pq - 1, code 1) the coefficient is one
    negative constant, so each run strictly decreases.  One pass of
    ``seq.scaled_values()`` reads the indices in order; the band terms read
    but not yet listed wait in a FIFO.  Before each off-band term it lists
    every pending band term whose key is at least that term's: on a tie the
    band term goes first, its index being the smaller.  This orders the
    terms as sorting them all would: a band term (c - 1) alpha_n lies
    strictly below c alpha_n, and so below every off-band term c alpha_m
    with m < n; a band term therefore only ever precedes off-band terms not
    yet read, and none not yet read reaches the off-band term at hand.  The
    FIFO is flushed when the indices run out.  It holds the band indices n
    with A_pq alpha_n > alpha_m for the last m read, O(sqrt(m)) of them on
    ``linear`` and ``poly:d`` and a few on the ratio kinds.
    """
    blue_num, red_num = ratio_numerators(p, q)
    columns = itertools.chain.from_iterable(range(1, t + 1) for t in itertools.count(1))

    def merged() -> Iterator[tuple[int, int, int]]:
        """(key, m, code) in descending order of the key."""
        pending: deque[tuple[int, int]] = deque()  # (key, n) of the band terms to list
        for m, s, alpha in zip(indices, columns, family.seq.scaled_values()):
            if p <= s < q:
                pending.append((red_num * alpha, m))
                continue
            key = blue_num * alpha
            while pending and pending[0][0] >= key:
                yield *pending.popleft(), 1
            yield key, m, 0
        for key, n in pending:
            yield key, n, 1

    entries = DiameterEntries.for_pair(p, q)
    for key, m, code in itertools.islice(merged(), count):
        entries.alpha_index.append(m)
        entries.codes.append(code)
        entries.certified.append(bound is None or key > bound)
    entries.segments = bytearray([SEGMENTS.index(ORACLE)]) * len(entries)
    return entries


def oracle_diameters(
    family: KotheFamily, p: int, q: int, count: int, horizon: int | None = None
) -> DiameterTable:
    """The first ``count`` entries of one merge of the exact ratio terms in
    descending order: d_n is the (n+1)-th merged term.

    With ``horizon`` None the merge covers every ratio term and each entry
    is final: every term not yet listed comes after it (see
    :func:`_merged_entries`).  With ``horizon`` H it covers m <= H, and an
    entry is certified final when it is strictly greater than
    e^(c_pq alpha_{H+1}), which dominates every unseen term; ties with that
    bound stay uncertified because an unseen term could equal them, and a
    prefix that certifies nothing raises UncertifiableError.
    ``oracle_prefix`` is the largest ratio index the merge read: ``count``
    plus the terms it read but did not list, about ``count`` on the ratio
    kinds.
    """
    bound = None
    if horizon is not None:
        if horizon < 2:
            raise ValueError("oracle prefix must have at least 2 terms")
        if horizon < count:
            raise ValueError("oracle prefix must hold at least count terms")
        # alpha_{H+1} from a pass of its own, so that no key is kept
        alpha_next = next(itertools.islice(family.seq.scaled_values(), horizon, None))
        bound = ratio_numerators(p, q)[0] * alpha_next
    indices = itertools.count(1)
    entries = _merged_entries(family, p, q, itertools.islice(indices, horizon), bound, count)
    certified = sum(entries.certified)  # a prefix: the keys decrease
    if horizon is not None and not certified:
        raise UncertifiableError(
            f"prefix of {horizon} ratio terms certifies no diameter; increase the prefix length"
        )
    return DiameterTable(p, q, "oracle", entries, certified - 1, oracle_prefix=next(indices) - 1)


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
    follows.  A piece is listed run by run: each band term placed in it
    (only the tail's interleave), and between them the off-band terms, one
    contiguous slice lo..hi of an off-band run at a time, put in with one
    ``extend``.  The shift is checked at each run's first index (and so
    for all of it: the slice is contiguous) and at each band term.  Inside
    a run the values strictly decrease (one negative coefficient, rising
    indices), so monotonicity is checked only where a run meets the entry
    before it: an int test of the indices when the coefficient is the
    same, ``seq.compare`` only when it differs.  A piece that does not
    start at the next index, a value mismatch, an increase, a table short
    of ``count`` entries, or a next band or off-band term that beats
    d_(count-1) or an off-band index skipped by the fill raises
    CoverageError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    seq = family.seq
    nums = blue_num, red_num = ratio_numerators(p, q)
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

    runs = off_band_runs()
    rest = range(0)  # the off-band indices of the current run not yet listed

    def blues(length: int) -> Iterator[range]:
        """The next ``length`` off-band indices, as slices of the runs; a run
        is read (and its band element checked) only when a slice needs it."""
        nonlocal rest
        while length:
            while not rest:
                rest = next(runs)
            part = rest[:length]
            rest = rest[len(part):]
            length -= len(part)
            yield part

    red_at = [row.j_a for row in rows]  # strictly increasing: the plan checks it
    entries = DiameterEntries.for_pair(p, q)
    last_num = last_index = 0

    def place(n: int, code: int, run: range, label: str, shift: int | None) -> None:
        """List ``run``, increasing alpha indices of one code, from d_n on.
        The values strictly decrease inside it (one negative coefficient,
        rising indices), so only its first entry is checked: against the
        piece's shift, which then holds for all of it, and against the entry
        before it."""
        nonlocal last_num, last_index
        num, m = nums[code], run[0]
        if shift is not None and m != n + shift:
            raise CoverageError(
                f"segment {label} expects alpha index {n + shift} at "
                f"diameter index {n}, fill has {m}"
            )
        # one negative coefficient: the value decreases iff the index increases
        if (m <= last_index if num == last_num
                else n and seq.compare(last_num, last_index, num, m) < 0):
            raise CoverageError(f"diameters not non-increasing at index {n}")
        last_num, last_index = num, run[-1]
        entries.alpha_index.extend(run)
        entries.codes.extend(bytes([code]) * len(run))

    def mark(start: int, end: int, label: str, shift: int | None) -> None:
        """Emit [start, end] up to count - 1 run by run: each band term placed
        there, and between them the off-band terms, one contiguous slice of
        an off-band run at a time."""
        end = min(end, count - 1)
        if start <= end and start != len(entries):
            raise CoverageError(
                f"segment {label} starts at diameter index {start}, "
                f"expected {len(entries)}"
            )
        r = bisect.bisect_left(red_at, start)
        n = start
        while n <= end:
            j = red_at[r] if r < len(red_at) and red_at[r] <= end else end + 1
            for part in blues(j - n):
                place(n, 0, part, label, shift)
                n += len(part)
            if j <= end:
                n_a = rows[r].n_a
                place(j, 1, range(n_a, n_a + 1), label, shift)
                r, n = r + 1, j + 1
        entries.segments.extend(itertools.repeat(SEGMENTS.index(label), end + 1 - start))

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
    [m] = next(blues(1))
    if (
        seq.compare(last_num, last_index, red_num, rows[-1].n_a) < 0
        or seq.compare(last_num, last_index, blue_num, m) < 0
        or m - 1 - bnd.count_below(m) != count - (len(rows) - 1)
    ):
        raise CoverageError(f"a term past diameter index {count - 1} is out of place")
    entries.certified = bytearray(b"\x01") * count
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

