"""Machine-speed drift correction for timings on a shared VM.

On a shared 2-core VM the same code runs up to ~40% slower for minutes at a
time, so the spread of raw timings between runs is set by the machine, not
by the program.  A fixed pure-Python reference task, which never touches
``threeway``, is timed every ``every_s`` seconds during a run.  A timing
taken at time t is then scaled by ``REFERENCE_S / median(reference times
within WINDOW_S of t)``: the result reads as seconds on a machine where the
reference takes ``REFERENCE_S``.  A change to the program moves the op
timings but not the reference, so the correction cancels machine drift and
keeps program changes.  Raw timings stay in the run record.

The reference runs twice per sample and only the second run is timed, with
the garbage collector off, so that neither the caches the last op left
behind nor the size of the program's heap change its time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

#: Reference time the corrected timings are expressed against (median on the VM above).
REFERENCE_S = 0.002
WINDOW_S = 3.0
MIN_SAMPLES = 15

_WORDS = tuple(f"w{i:05d}" for i in range(3000))
_PROBE = frozenset(_WORDS[::3])


def _reference() -> int:
    """Set, dict and Fraction work in the proportions the workloads use them."""
    members = set()
    for word in _WORDS:
        members.add(word)
    shares = {word: Fraction(i, 7) for i, word in enumerate(_WORDS[:300])}
    return len(_PROBE & frozenset(members)) + sum(shares.values()).numerator


class DriftClock:
    def __init__(self, every_s: float = 0.1) -> None:
        self.every_s = every_s
        self.times: list[float] = []  # sample midpoints, perf_counter seconds, increasing
        self.seconds: list[float] = []
        self._last = float("-inf")

    def sample(self, count: int = 1, force: bool = False) -> None:
        """Time the reference task ``count`` times, unless the last sample is recent."""
        if not force and perf_counter() - self._last < self.every_s:
            return
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            _reference()
            for _ in range(count):
                start = perf_counter()
                _reference()
                end = perf_counter()
                self.times.append((start + end) / 2)
                self.seconds.append(end - start)
        finally:
            if was_enabled:
                gc.enable()
        self._last = end

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median reference time near ``at`` (at least MIN_SAMPLES)."""
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(self.times)):
            if lo > 0 and (hi == len(self.times) or at - self.times[lo - 1] < self.times[hi] - at):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.seconds)
