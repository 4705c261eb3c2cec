"""Reference clock: timings normalised to the speed of a fixed CPU kernel.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by 30% and more over seconds to minutes.  Every
timing is therefore taken together with the time of a fixed pure-Python
kernel measured right next to it, and reported as

    raw time * REF_MS / kernel time

that is, in milliseconds (or seconds) on a machine where one kernel run
takes REF_MS.  The kernel does not touch lrcommute, so a change to the
program moves these numbers exactly as it moves the raw times; only the
machine's drift cancels.  The raw times are kept in every report too.
"""

from __future__ import annotations

import signal
import time

TICK_S = 0.05

# One kernel run on the 2-core Xeon VM the baseline was recorded on,
# in its fast state.  Only the ratio matters; the constant sets the scale.
REF_MS = 0.42


def kernel() -> int:
    """Dict and integer work, as in lrcommute's inner loops.  It allocates
    one container only, so it does not set off a cycle collection on behalf
    of garbage the program left behind."""
    d: dict[int, int] = {}
    for i in range(3000):
        k = i % 37 * 11 + i % 11
        d[k] = d.get(k, 0) + i
    return sum(d.values())


def sample(runs: int = 3) -> float:
    """Best time of ``runs`` kernel runs, in seconds."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(raw_s: float, *refs: float) -> float:
    """``raw_s`` in reference seconds, given kernel times taken around it."""
    return raw_s * (REF_MS / 1000) / (sum(refs) / len(refs))


class Ticker:
    """While active, take a kernel sample every TICK_S from a timer signal,
    so a long stretch of work can be scaled by the machine's speed while it
    ran.  ``seconds`` is the time the samples themselves took, to be taken
    out of the stretch; ``mean`` is the samples' mean."""

    def __init__(self):
        self.samples: list[float] = []
        self.seconds = 0.0

    def _tick(self, _signum, _frame):
        t = time.perf_counter()
        self.samples.append(sample())
        self.seconds += time.perf_counter() - t

    def __enter__(self) -> "Ticker":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.samples:  # a stretch shorter than one tick
            self.samples.append(sample())

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)
