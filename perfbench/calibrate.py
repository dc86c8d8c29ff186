"""The machine's speed, measured by a fixed reference computation.

On a shared host the CPU's speed drifts by up to 2x within seconds (see
README, Noise), and a deterministic single-threaded pass of the same
inputs slows with it, though not always by the same factor.  The timed
metrics are therefore reported at a fixed reference speed: a stretch of
work that took ``dt`` seconds while the reference took ``r`` seconds is
counted as ``dt * REF_NOMINAL_S / r`` seconds, or less where the work is
known to slow less than the reference (``Pacer``).  The reference runs
between operations, outside the timed work, so that it samples the speed
at which the work around it ran.

The reference mixes what the package spends its time on: bytecode over
small ints, products of large ints and ``Fraction`` arithmetic.  It uses
only the standard library and never changes with the package under test.

An import is slowed less than that by a slow CPU, since part of it waits
on the file system, so the set-up time has a reference of its own: a fresh
interpreter importing a fixed set of standard-library modules, run before
and after each timed import of kothedim.
"""
from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

from tracing import span_or_nothing

# the reference's time at full speed on the machine the README names; it
# only sets the scale of the reported seconds
REF_NOMINAL_S = 0.002

REF_IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import argparse, asyncio, email.parser, http.client, logging, unittest, "
    "xml.dom.minidom; print(repr(time.perf_counter() - t))"
)
# its time on the same machine, as REF_NOMINAL_S is for the reference
REF_IMPORT_NOMINAL_S = 0.08

_rng = random.Random(20221024)
_SMALL = [_rng.getrandbits(30) for _ in range(12000)]
_BIG = _rng.getrandbits(20000) | 1
_FRACTIONS = [Fraction(_rng.getrandbits(40), _rng.getrandbits(40) | 1) for _ in range(120)]


def _reference() -> int:
    s = 0
    for x in _SMALL:
        s += x % 1009
    y = _BIG
    for _ in range(4):
        y = (y * _BIG) >> 20000
    return s + y + int(sum(_FRACTIONS))


def reference_s(repeats: int = 2) -> float:
    """The fastest of ``repeats`` timings of the reference, garbage
    collection held off so that the heap of the work around it is never
    scanned inside the timing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = perf_counter()
            _reference()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Splits a pass into segments at ``mark()`` and measures the speed at
    each mark, so that each segment is scaled by the speed around it.

    ``raw_s`` is the pass's own wall time (reference runs excluded) and
    ``calibrated_s`` the same work at the reference speed.  ``sensitivity``
    is how far the work follows the reference's speed: a stretch of ``dt``
    seconds at reference time ``r`` counts as
    ``dt * (REF_NOMINAL_S / r) ** sensitivity``.  In a traced pass each
    reference run is a ``calibrate`` span, so that it counts in no layer's
    time.
    """

    def __init__(self, tracer=None, sensitivity: float = 1.0) -> None:
        self.tracer = tracer
        self.sensitivity = sensitivity
        self.segments: list[float] = []  # seconds of work between marks
        self.refs: list[float] = []  # reference seconds at each mark
        self._since = None

    def mark(self) -> None:
        now = perf_counter()
        if self._since is not None:
            self.segments.append(now - self._since)
        with span_or_nothing(self.tracer, "calibrate"):
            self.refs.append(reference_s())
        self._since = perf_counter()

    @property
    def raw_s(self) -> float:
        return sum(self.segments)

    @property
    def calibrated_s(self) -> float:
        return sum(
            dt * (REF_NOMINAL_S / ((before + after) / 2)) ** self.sensitivity
            for dt, before, after in zip(self.segments, self.refs, self.refs[1:])
        )
