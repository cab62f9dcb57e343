"""Host-speed probe: timings rescaled to a fixed reference speed.

On a shared host the same pure-Python work can take twice as long from one
minute to the next: other tenants contend for the core, and the guest sees no
steal time.  While a timed region runs, a SIGALRM handler times a fixed
reference chunk every INTERVAL_S seconds, with the garbage collector off so
that no collection of the program's heap lands in a sample.  A timing minus
the handler's own time, times NOMINAL_CHUNK_S over the mean chunk time, is
the timing at the reference speed (the speed at which one chunk takes
NOMINAL_CHUNK_S).  A slower host slows the chunk as much as the program, so
it cancels; a slower program does not.  The mean, not the median:
contention arrives as bursts that stall a few samples, and the median would
ignore them (on 60 markov passes, median-based times spread 0.21 quartile
distance over median, mean-based ones 0.08).
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
NOMINAL_CHUNK_S = 0.002


def reference_chunk() -> Fraction:
    """Fixed interpreter work of the kinds thmc does: rationals and dicts."""
    total = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        key = (i % 13, i % 11)
        table[key] = table.get(key, 0) + i
    return total


class SpeedProbe:
    """Context manager sampling the host speed; `spent` is the time the
    samples taken inside the region cost."""

    def __init__(self, tracer=None, interval: float = INTERVAL_S):
        self.tracer = tracer
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_chunk()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.samples.append(took)
        return took

    def _tick(self, signum, frame) -> None:
        if self.tracer is None or self.tracer.busy:
            self.spent += self._sample()
            return
        with self.tracer.span("probe"):
            self.spent += self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()  # at least two samples, however short the region
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def factor(self) -> float:
        """Reference seconds per measured second."""
        return NOMINAL_CHUNK_S * len(self.samples) / sum(self.samples)

    def rescale(self, seconds: float, spent: float) -> float:
        """A timing that included `spent` seconds of samples, at reference speed."""
        return (seconds - spent) * self.factor
