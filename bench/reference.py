"""Host-speed reference: a fixed kernel, timed at regular moments during
the run, that scales every reported time to one nominal host speed.

On a shared host other tenants slow a run down for tens of seconds at a
time, by 15-25%, whatever statistic the run reports. The kernel runs from a
wall-clock timer signal, every ``PERIOD_S``, inside the operations as well
as between them, so it sees the same slowdowns as the work around it. A time
is reported as ``raw * NOMINAL_S / mean kernel time``, the mean taken over
the kernel calls made while it ran (widened to at least ``MIN_CALLS``
calls): the time it would have taken at the kernel's nominal speed. The
kernel uses no toxiclass code, so a change to the package moves the raw
times and leaves the scale alone.
Time spent in the kernel is counted in ``spent``, and the benchmark takes it
out of the operation it interrupted.

The kernel mixes the three kinds of work the package does: word counting
over a fixed text (pure Python, like preprocessing and tokenizing), a
128-unit LSTM stepped at batch 1 (many small numpy calls, bound by
interpreter overhead) and one mid-sized matrix product (bound by BLAS
throughput).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# About the kernel's mean time on the shared 2-vCPU x86-64 VM the benchmark
# was written on, with one BLAS thread. It only fixes the unit: scaled times
# read as times on that host.
NOMINAL_S = 0.003
# one kernel call per period, about 5% of the run
PERIOD_S = 0.05
# kernel calls behind each scale factor: 1 s of the run, centred on the work
MIN_CALLS = 20
WARMUP_CALLS = 3


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class Reference:
    """Times the kernel on every tick of a wall-clock timer while started."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w_x = rng.standard_normal((100, 512)) * 0.1
        self.w_h = rng.standard_normal((128, 512)) * 0.1
        self.steps = rng.standard_normal((40, 100))
        self.a = rng.standard_normal((600, 300))
        self.b = rng.standard_normal((300, 128))
        self.text = " ".join(f"w{i % 97}x{i % 13}" for i in range(2000))
        self.times: list[float] = []
        self.stamps: list[float] = []  # when each call ended
        self.spent = 0.0
        for _ in range(WARMUP_CALLS):
            self.kernel()

    def kernel(self) -> float:
        counts: dict[str, int] = {}
        for word in self.text.upper().split():
            counts[word] = counts.get(word, 0) + 1
        h, c = np.zeros(128), np.zeros(128)
        for x in self.steps:
            z = x @ self.w_x + h @ self.w_h
            c = _sigmoid(z[128:256]) * c + _sigmoid(z[:128]) * np.tanh(z[256:384])
            h = _sigmoid(z[384:]) * np.tanh(c)
        return float(h.sum() + (self.a @ self.b)[0, 0] + len(counts))

    def _tick(self, signum, frame) -> None:
        # Python runs the handler in the main thread between bytecodes, so
        # the interrupted numpy call has already returned.
        t0 = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append(end - t0)
        self.stamps.append(end)
        self.spent += end - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_s(self) -> float:
        return statistics.fmean(self.times)

    def scaled(self, raw: float, start: float, end: float) -> float:
        """``raw``, timed from ``start`` to ``end``, at the nominal speed."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < MIN_CALLS and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.stamps))
        return raw * NOMINAL_S / statistics.fmean(self.times[lo:hi])
