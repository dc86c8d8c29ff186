"""The diagonal enumeration of N^2 and the column/band index machinery.

``n = (x+1)(x+2)/2 + y(x+1) + y(y-1)/2`` walks the grid anti-diagonal by
anti-diagonal (each diagonal x+y = t is the contiguous block of t+1
integers ending at the triangular number T_{t+1}).  Column s holds the
points with x = s-1; the band of a pair (p, q) is the union of columns
p..q-1.  Every band index (``element``, ``s_k``, ``locate_k``) is a closed
form; :func:`gallop` is the one monotone index search of the package, and
serves the two searches over alpha (the placement search and the (d2)
witness).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass


def pair_index(x: int, y: int) -> int:
    """Position (1-based) of (x, y) in the diagonal enumeration."""
    if x < 0 or y < 0:
        raise ValueError("grid coordinates must be non-negative")
    return (x + 1) * (x + 2) // 2 + y * (x + 1) + y * (y - 1) // 2


def unpair(n: int) -> tuple[int, int]:
    """Inverse of pair_index: the (x, y) with pair_index(x, y) = n."""
    if n < 1:
        raise ValueError("grid positions are 1-based")
    # diagonal t is the block (T_t, T_{t+1}] of triangular numbers, on which
    # (2t+1)^2 <= 8n-7 < (2t+3)^2, so the isqrt form needs no correction
    t = (math.isqrt(8 * n - 7) - 1) // 2
    x = n - 1 - t * (t + 1) // 2
    return x, t - x


def column_of(n: int) -> int:
    """The s with n in column I_s (columns are 1-based: I_s is x = s-1)."""
    return unpair(n)[0] + 1


def column_start(s: int) -> int:
    """min I_s = s(s+1)/2 ... the first element of column s is (s-1, 0)."""
    return pair_index(s - 1, 0)


def in_band(p: int, q: int, n: int) -> bool:
    """Whether n lies in a column s with p <= s < q."""
    return p <= column_of(n) < q


def band_count_below(p: int, q: int, m: int) -> int:
    """Number of band elements strictly below m, in closed form.

    Diagonal t contributes min(t-p+2, q-p) band elements once t >= p-1;
    on m's own diagonal only the columns left of m count.
    """
    x, y = unpair(m)
    t = x + y
    width = q - p
    u = t - (p - 1)  # completed diagonals carrying band elements
    if u <= 0:
        full = 0
    elif u <= width - 1:
        full = u * (u + 1) // 2
    else:
        full = (width - 1) * width // 2 + (u - (width - 1)) * width
    partial = min(x - 1, q - 2) - (p - 1) + 1
    return full + max(0, partial)


@dataclass
class BandIndexing:
    """The band I = union of columns p..q-1 with its diagonal markers.

    n_i is the i-th smallest band element.  ``s_k`` is the i with n_i the
    column-p element on the diagonal x+y = q+k-2; markers exist from k_min
    = p-q+1 (truncated diagonals) and satisfy s_{k+1} - s_k = q-p for
    k >= 0.  Every index is a closed form in (p, q); nothing is stored.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (self.q > self.p >= 1):
            raise ValueError("band requires q > p >= 1")

    @property
    def k_min(self) -> int:
        return self.p - self.q + 1

    def element(self, i: int) -> int:
        """n_i (1-based): diagonals carry 1, ..., w-1, then w consecutive band
        elements (w = q-p); on that triangle i is unpaired (by isqrt) like a
        grid position, past it a division finds the diagonal."""
        if i < 1:
            raise ValueError("band elements are 1-based")
        width = self.q - self.p
        triangle = (width - 1) * width // 2
        if i <= triangle:
            offset, rest = unpair(i)
            d = offset + rest
        else:
            full, offset = divmod(i - 1 - triangle, width)
            d = width - 1 + full
        return pair_index(self.p - 1, d) + offset

    def contains(self, n: int) -> bool:
        return in_band(self.p, self.q, n)

    def marker(self, k: int) -> int:
        """The element of column p on the diagonal x+y = q+k-2."""
        if k < self.k_min:
            raise ValueError(f"diagonal marker k={k} below k_min={self.k_min}")
        return pair_index(self.p - 1, self.q - self.p - 1 + k)

    def s_k(self, k: int) -> int:
        """The i with n_i = marker(k) (closed form, no scan)."""
        return band_count_below(self.p, self.q, self.marker(k)) + 1

    def count_below(self, m: int) -> int:
        return band_count_below(self.p, self.q, m)

    def locate_k(self, m: int) -> int:
        """The k with n_{s_k} < m < n_{s_(k+1)} for a non-band m > n_1.

        marker(k) lies on the diagonal q+k-2, in column p.  On m's diagonal
        x+y that is marker k+1 when m is left of the band (x < p-1) and
        marker k when m is right of it (x >= q-1 >= p).
        """
        if self.contains(m):
            raise ValueError(f"{m} is a band element")
        if m <= self.marker(self.k_min):
            raise ValueError(f"{m} precedes the first column-{self.p} marker")
        x, y = unpair(m)
        return x + y - self.q + 1 + (x >= self.p)


def gallop(holds: Callable[[int], bool], lo: int, stop: int) -> int:
    """The greatest x >= lo with ``holds(x)``, for a ``holds`` that is true
    up to some x and false after it; ``holds(lo)`` is taken as true and
    never called.

    The step from lo doubles while the probe still holds, then the last
    step is bisected (unbounded search, Bentley and Yao 1976): O(log(x - lo))
    calls.  A probe never jumps over ``stop``: from below it, the probe is
    clamped to ``stop`` first.
    """
    step = 1
    while True:
        probe = lo + step
        if lo < stop < probe:
            probe = stop
        if not holds(probe):
            break
        lo, step = probe, 2 * step
    hi = probe
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo

