"""Kolmogorov diameter sequences by two independent routes.

Route one (the oracle) merges the exact ratio terms ``a_{p,n}/a_{q,n}``
into descending order and reads the (n+1)-th term.  It shares no band
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
import itertools
import numbers
import operator
from array import array
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields

from .exact import LogTerm, Rational
from .grid import BandIndexing, column_of, gallop
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
    """An engine's table breaks its construction: the closed-form segment
    families failed to tile the index range, or the oracle listed too few."""


class UncertifiableError(ValueError):
    """An oracle prefix too short to certify any diameter."""


@dataclass(frozen=True, slots=True, init=False)
class DiameterEntry(LogTerm):
    """One diameter d_n = e^(coeff * alpha_{alpha_index}).  Tables build
    entries on demand, with an ``__init__`` written as :class:`LogTerm`'s."""

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
    """A table's entries as runs.  A run is a stretch of entries of one
    coefficient code and one segment whose alpha indices rise by one with
    n, so d_n = e^(c alpha_(n + s)) for one coefficient c and one shift s
    all along it; band terms are the only breaks, and a table of ``count``
    entries holds O(sqrt(count)) runs.  The pair's two coefficients sit in
    ``coeffs``, c_pq off the band (code 0) and c_pq - 1 on it (code 1), and
    each run is one record: its start n, length, code, first alpha index
    and code into :data:`SEGMENTS`.  ``certified`` is the length of the
    certified prefix: d_n is final exactly when n < ``certified``.

    The engines write with :meth:`append`.  Readers that work run by run
    read :meth:`runs`, readers that scan entries :meth:`rows`.  Otherwise
    it works as a list of :class:`DiameterEntry`, each built on demand, an
    index found by bisecting the run starts.  Item assignment splits the
    run it hits into at most three: an entry not at its own position, with
    any other coefficient, or with a certified flag that disagrees with its
    position raises ValueError.
    """

    coeffs: tuple[Rational, Rational]
    certified: int = 0
    # one record per run, over five columns
    _start: array = field(default_factory=lambda: array("q"))
    _length: array = field(default_factory=lambda: array("q"))
    _code: array = field(default_factory=lambda: array("B"))
    _first: array = field(default_factory=lambda: array("q"))
    _segment: array = field(default_factory=lambda: array("B"))

    @classmethod
    def for_pair(cls, p: int, q: int) -> DiameterEntries:
        """No entries, with the pair (p, q)'s coefficients."""
        return cls(tuple(Rational(num, p * q) for num in ratio_numerators(p, q)))

    def append(self, code: int, first: int, length: int, segment: int) -> None:
        """List ``length`` entries of one code and segment code after the
        last, with alpha indices first, first + 1, ...: they extend the last
        run when they continue it, and start a run otherwise."""
        if (self._code and self._code[-1] == code and self._segment[-1] == segment
                and self._first[-1] + self._length[-1] == first):
            self._length[-1] += length
            return
        self._start.append(len(self))
        self._length.append(length)
        self._code.append(code)
        self._first.append(first)
        self._segment.append(segment)

    def runs(self, start: int = 0, stop: int | None = None
             ) -> Iterator[tuple[int, int, int, int, int]]:
        """(start n, length, code, first alpha index, segment code) of each
        run, cut to the positions start..stop-1."""
        if start < 0:
            raise ValueError(f"positions start at 0, not {start}")
        stop = len(self) if stop is None else min(stop, len(self))
        r = self._run_at(start)
        while start < stop:
            s = self._start[r]
            end = min(s + self._length[r], stop)
            yield start, end - start, self._code[r], self._first[r] + start - s, self._segment[r]
            start, r = end, r + 1

    def rows(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, int, int]]:
        """(n, code, alpha index) at the positions start..stop-1."""
        return itertools.chain.from_iterable(
            zip(range(n, n + length), itertools.repeat(code, length), range(m, m + length))
            for n, length, code, m, _ in self.runs(start, stop))

    def __len__(self) -> int:
        return self._start[-1] + self._length[-1] if self._start else 0

    def __iter__(self) -> Iterator[DiameterEntry]:
        coeffs, final = self.coeffs, self.certified.__gt__
        return itertools.chain.from_iterable(
            map(DiameterEntry, itertools.repeat(coeffs[code], length), range(m, m + length),
                range(n, n + length), itertools.repeat(SEGMENTS[seg], length),
                map(final, range(n, n + length)))
            for n, length, code, m, seg in self.runs())

    def _run_at(self, n: int) -> int:
        return bisect.bisect_right(self._start, n) - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[n] for n in range(len(self))[key]]
        n = range(len(self))[key]  # an int, negative ones from the end
        r = self._run_at(n)
        return DiameterEntry(self.coeffs[self._code[r]], self._first[r] + n - self._start[r], n,
                             SEGMENTS[self._segment[r]], n < self.certified)

    def __setitem__(self, key: int, entry: DiameterEntry) -> None:
        n = range(len(self))[key]
        if entry.n != n:
            raise ValueError(f"entry d_{entry.n} cannot sit at position {n}")
        c = entry.coeff
        if not isinstance(c, numbers.Rational) or c not in self.coeffs:
            raise ValueError("coefficient {} is neither {} nor {}".format(c, *self.coeffs))
        if entry.certified != (n < self.certified):
            raise ValueError(f"certified={entry.certified} at d_{n} with a certified prefix of "
                             f"{self.certified}")
        r = self._run_at(n)
        columns = self._start, self._length, self._code, self._first, self._segment
        s, length, code, m, seg = (column[r] for column in columns)
        pieces = [run for run in (
            (s, n - s, code, m, seg),
            (n, 1, self.coeffs.index(c), entry.alpha_index, SEGMENTS.index(entry.segment)),
            (n + 1, s + length - n - 1, code, m + n + 1 - s, seg),
        ) if run[1]]
        spliced = [array(column.typecode, values) for column, values in zip(columns, zip(*pieces))]
        for column, values in zip(columns, spliced):
            column[r : r + 1] = values

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


@dataclass(frozen=True)
class DiameterTable:
    """d_0, d_1, ... of one pair (p, q) from one engine, final up to
    ``certified_horizon``.  Only :func:`oracle_diameters` and
    :func:`closedform_diameters` build one.  ``entries`` is a
    :class:`DiameterEntries`; anything else, a list of entries too, raises
    TypeError."""

    p: int
    q: int
    method: str
    entries: DiameterEntries
    plan: list[PlanRow] | None = None
    a0: int | None = None
    tail_start: int | None = None
    oracle_prefix: int | None = None  # the largest ratio index the oracle's merge read

    def __post_init__(self) -> None:
        if not isinstance(self.entries, DiameterEntries):
            raise TypeError(f"entries must be DiameterEntries, not {type(self.entries).__name__}")

    @property
    def certified_horizon(self) -> int:
        """The last n with d_n final: one less than the certified prefix."""
        return self.entries.certified - 1


# -- route one: the merging oracle -------------------------------------------


def oracle_diameters(
    family: KotheFamily, p: int, q: int, count: int, horizon: int | None = None
) -> DiameterTable:
    """The first ``count`` ratio terms in descending order, ties by the
    smaller ratio index m: d_n is the (n+1)-th of them.

    One pass of ``seq.scaled_values()`` reads the indices 1, 2, 3, ... in
    order, the column s of each from a walk of the diagonals (1; 1, 2; 1,
    2, 3; ...), so m is on the band when p <= s < q.  A term's key is its
    exponent ``coeff * alpha_m`` times ``pq * seq.scale``.  Off the band
    (c_pq, code 0) and on it (c_pq - 1, code 1) the coefficient is one
    negative constant, so each run strictly decreases.  A band term waits
    in a FIFO.  The one listing rule: before it reads index m, the merge
    lists every waiting band term whose key is at least ``blue_num *
    alpha_m``, and then m itself if it is off the band.  No term at an
    index >= m has a larger key (a band term's (c_pq - 1) alpha_n lies
    below c_pq alpha_n), and on a tie the band term has the smaller index,
    so this orders the terms as sorting them all would.  The FIFO holds the
    band indices n with A_pq alpha_n > alpha_m for the last m read,
    O(sqrt(m)) of them on ``linear`` and ``poly:d`` and a few on the ratio
    kinds, and the merge stops as soon as ``count`` terms are listed.  The
    listed terms are coalesced into runs as they come: a term extends the
    run being listed when it has its code and the next ratio index, and
    starts a run otherwise.

    With ``horizon`` None every entry is final.  With ``horizon`` H the
    merge reads only m <= H and then lists the FIFO; an entry is certified
    final when it is strictly greater than e^(c_pq alpha_{H+1}), which
    dominates every unread term.  Ties with that bound stay uncertified,
    because an unread term could equal them, and a prefix that certifies
    nothing raises UncertifiableError.  ``oracle_prefix`` is the largest
    index read.  A merge that lists fewer than ``count`` terms raises
    CoverageError.
    """
    seq = family.seq
    blue_num, red_num = ratio_numerators(p, q)
    bound = None
    if horizon is not None:
        if horizon < 2:
            raise ValueError("oracle prefix must have at least 2 terms")
        if horizon < count:
            raise ValueError("oracle prefix must hold at least count terms")
        bound = blue_num * seq.scaled(horizon + 1)
    indices = itertools.count(1) if horizon is None else range(1, horizon + 1)
    columns = itertools.chain.from_iterable(range(1, t + 1) for t in itertools.count(1))

    def merged() -> Iterator[tuple[int, int, int, int]]:
        """(key, ratio index, code, largest index read) by descending key."""
        pending: deque[tuple[int, int]] = deque()  # (key, n) of the band terms to list
        for m, s, alpha in zip(indices, columns, seq.scaled_values()):
            key = blue_num * alpha
            while pending and pending[0][0] >= key:
                yield *pending.popleft(), 1, m
            if p <= s < q:
                pending.append((red_num * alpha, m))
            else:
                yield key, m, 0, m
        for key, n in pending:
            yield key, n, 1, m

    entries = DiameterEntries.for_pair(p, q)
    segment, read = SEGMENTS.index(ORACLE), 0
    run_code = first = length = certified = 0  # the run being listed
    for key, n, code, read in itertools.islice(merged(), count):
        if code == run_code and n == first + length:
            length += 1  # the term extends the run
        else:
            if length:
                entries.append(run_code, first, length, segment)
            run_code, first, length = code, n, 1
        certified += bound is None or key > bound  # a prefix: the keys decrease
    if length:
        entries.append(run_code, first, length, segment)
    entries.certified = certified
    if len(entries) < count:
        raise CoverageError(f"the oracle's merge listed {len(entries)} of {count} terms")
    if horizon is not None and not entries.certified:
        raise UncertifiableError(
            f"prefix of {horizon} ratio terms certifies no diameter; increase the prefix length"
        )
    return DiameterTable(p, q, "oracle", entries, oracle_prefix=read)


# perfbench/ calls the oracle by this name; the alias goes when perfbench/ is
# next edited (ROADMAP item 1)
oracle_diameters_certified = oracle_diameters


# -- route two: index formulas ------------------------------------------------


def _find_i(seq, bnd: BandIndexing, threshold_mult: Rational, n_a: int) -> int | None:
    """Greatest off-band m with alpha_m <= A_pq alpha_{n_a}, None if none > n_a.

    alpha is strictly increasing, so the qualifying set is a prefix, and
    n_a is in it (A_pq > 1).  :func:`~kothedim.grid.gallop` finds its last
    element from n_a, one ``seq.compare`` per probe.  Every generated kind
    has alpha_m / alpha_n >= m / n for m >= n (a ratio kind's steps are at
    least 2), so no m past A_pq n_a qualifies.  A file's ``alpha_m * scale``
    are increasing ints, rising by at least 1 per index, so no m past n_a +
    (A_pq - 1) alpha_{n_a} scale qualifies.  ``stop`` is one past the bound,
    no probe passes it, and a probe there that qualifies is a kernel fault
    (CoverageError).  A file prefix that ends first stops the search at its
    length: a probe never passes the memo's values while one of them can
    still decide, so the prefix is read past, raising PrefixExhaustedError,
    exactly when every index of it from n_a on qualifies.  A last m on the
    band steps over its diagonal's band block (columns p..s, s its own) in
    one move, to column p - 1.  For p = 1 that is the last index of the
    diagonal before, and None when it is on the band too (every index
    below it then is).
    """
    num, den = threshold_mult.numerator, threshold_mult.denominator
    on_file = seq.kind == "file"
    bound = n_a + (num - den) * seq.scaled(n_a) // den if on_file else num * n_a // den
    rule = "n_a + floor((A_pq - 1) alpha_n_a scale)" if on_file else "floor(A_pq n_a)"

    def qualifies(x: int) -> bool:
        if seq.compare(den, x, num, n_a) > 0:
            return False
        if x > bound:
            raise CoverageError(f"alpha_{x} <= A_pq alpha_{n_a} past the bound {rule} = {bound}")
        return True

    m = gallop(qualifies, n_a, min(bound + 1, len(seq)) if on_file else bound + 1)
    if bnd.p <= (s := column_of(m)) < bnd.q:
        m -= s - bnd.p + 1
    return m if m > n_a and not bnd.contains(m) else None


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
        if not bnd.contains(n_a):
            raise CoverageError(f"band element n_{a} = {n_a} is off the band")
        if (below := bnd.count_below(n_a)) != a - 1:
            raise CoverageError(f"band element n_{a} = {n_a} has {below} band elements below "
                                f"it, expected {a - 1}")
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

    Band terms are placed by the plan, which checks each band element n_a
    once: on the band, with a - 1 band elements below it.  Off-band terms
    fill the remaining positions in increasing order of their ratio index,
    read as one run per diagonal, up to its column-p marker.  After the
    head, each plan row's stretch (L, K and M pieces) precedes its band term
    (J), and the tail follows the last row with a qualifying i_a.  Each
    piece, a slice of off-band indices or one band term, is appended to the
    table as one run, which extends the run before it when it continues it;
    no per-entry record is made.  A band element that fails its check, a
    piece that does not start at the next
    index, a wrong shift, an increase, a table short of ``count`` entries,
    or a next band or off-band term that beats d_(count-1) or an off-band
    index skipped by the fill raises CoverageError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    seq = family.seq
    nums = blue_num, red_num = ratio_numerators(p, q)
    bnd = BandIndexing(p=p, q=q)
    rows = _build_plan(family, bnd, count)
    n_1 = rows[0].n_a

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

    def off_band_runs() -> Iterator[range]:
        """The run before each band block: the one from marker(k) holds its
        diagonal's q - p + min(k, 0) band elements, in a row."""
        end = 0
        for k in itertools.count(bnd.k_min):
            yield range(end + 1, start := bnd.marker(k))
            end = start + q - p + min(k, 0) - 1

    runs = off_band_runs()
    rest = range(0)  # the off-band indices of the current run not yet listed

    def blues(length: int) -> Iterator[range]:
        """The next ``length`` off-band indices, as slices of the runs (one
        per diagonal, between markers; the plan checks the band elements)."""
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
        """Append ``run``, increasing alpha indices of one code, from d_n on,
        as one run of the table.  The values strictly decrease inside it
        (one negative coefficient, rising indices), so only its first entry
        is checked: against the piece's shift, which then holds for all of
        it, and against the entry before it."""
        nonlocal last_num, last_index
        num, m = nums[code], run[0]
        if shift is not None and m != n + shift:
            raise CoverageError(
                f"segment {label} expects alpha index {n + shift} at "
                f"diameter index {n}, fill has {m}"
            )
        if (m <= last_index if num == last_num
                else n and seq.compare(last_num, last_index, num, m) < 0):
            raise CoverageError(f"diameters not non-increasing at index {n}")
        last_num, last_index = num, run[-1]
        entries.append(code, m, len(run), SEGMENTS.index(label))

    def mark(start: int, end: int, label: str, shift: int | None) -> None:
        """Emit [start, end] up to count - 1 run by run: each band term placed
        there, and between them the off-band terms, one contiguous slice of
        an off-band run at a time."""
        end = min(end, count - 1)
        if start > end:
            return
        if start != len(entries):
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

    def stretch(row: PlanRow, k_last: int | None, end: int, last: str) -> None:
        """The positions from one past ``row``'s band term to ``end``, cut
        before marker k + 1 for k = row.k_a..k_last (L, then K, then
        ``last``); next to a miss, one ``last`` piece with no shift.  It
        stops at the first piece that starts past the table's end."""
        start = row.j_a + 1
        if row.k_a is None or k_last is None:
            return mark(start, end, last, None)
        for k in range(row.k_a, k_last + 1):
            if start >= count:
                return
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
    entries.certified = count
    return DiameterTable(p, q, "closed", entries, plan=rows, a0=a0, tail_start=tail_start)

