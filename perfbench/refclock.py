"""Reference kernel and the host-speed-corrected clock of the benchmark.

The host this benchmark runs on changes speed by up to a factor of two
within seconds, so raw wall time of identical work is not repeatable.
Every timed figure is therefore reported in reference units: the time of
the work divided by the time of a fixed reference kernel measured at the
same moment in the same process.

The reference kernel is the hot-path call mix of krauscape on one 8x2
complex frame, written with numpy and the standard library alone, so no
change to krauscape can move it: a thin QR, a 2x8 by 8x2 product and a
norm, plus a validated frozen dataclass built from the frame's blocks
(the per-iterate validation), which makes the kernel follow the
interpreter-bound part of the workloads as well as the numpy calls.  An
interval timer runs a short fixed chunk of it every ``PERIOD_S`` seconds
while the workload runs, which samples the host speed uniformly over
exactly the time the workload was measured.  The time spent in those chunks is
subtracted from :meth:`RefClock.now`, so it never counts as workload time.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

# One reference unit is the time of this many kernel iterations.
REF_ITERS = 1000
# Iterations per sample (about 1 ms) and the sampling period: the
# sampling costs about 8% of the run and follows host-speed changes
# on the scale of tens of milliseconds.
CHUNK = 25
PERIOD_S = 0.01
# Seconds per reference unit at the nominal host speed, about what a
# calm 2-core x86 host of the kind this benchmark was tuned on gives.
# Set-up time is reported in seconds at this speed, so that it stays
# comparable between runs that met the host in different states.
NOMINAL_UNIT_S = 0.03


def _frame() -> np.ndarray:
    rng = np.random.default_rng(20070)
    return rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))


_FRAME = _frame()


@dataclass(frozen=True)
class _Blocks:
    top: np.ndarray
    bottom: np.ndarray

    def __post_init__(self):
        for name in ("top", "bottom"):
            v = np.array(getattr(self, name), dtype=complex).reshape(-1)
            if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
                raise ValueError("non-finite block")
            object.__setattr__(self, name, v)


def reference_kernel(iters: int) -> float:
    """The fixed reference work: ``iters`` rounds of the call mix."""
    s = 0.0
    for _ in range(iters):
        q, _r = np.linalg.qr(_FRAME)
        blocks = _Blocks(q[:4, 0], q[4:, 1])
        s = float(np.linalg.norm(q.conj().T @ q)) + float(np.sum(blocks.top.real))
    return s


class RefClock:
    """Clock that excludes reference sampling, plus the samples it took.

    ``samples[i]`` is the duration of the i-th reference chunk.  The unit
    for a stretch of the run is the mean chunk time over the samples taken
    in that stretch, scaled to ``REF_ITERS`` iterations.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._paused = 0.0
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        """Run one chunk of the reference kernel and record its time."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel(CHUNK)
        d = time.perf_counter() - t0
        self.samples.append(d)
        self._paused += d
        self._busy = False

    def _handler(self, signum, frame):
        self.sample()

    def now(self) -> float:
        """Seconds on a clock that stands still while a sample runs."""
        while True:
            before = self._paused
            t = time.perf_counter()
            if self._paused == before:
                return t - before

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def unit(self, lo: int, hi: int) -> float:
        """Seconds per reference unit over samples ``lo:hi`` (whole run if empty)."""
        chunk = self.samples[lo:hi] or self.samples
        if not chunk:
            raise RuntimeError("no reference samples were taken")
        return float(np.mean(chunk)) * (REF_ITERS / CHUNK)
