"""
Host-speed sampling during a pass.

The benchmark shares a host whose speed changes by up to 2x within seconds
(other tenants' load on the same cores), so a pass's raw wall time says as
much about the host as about the program. `Sampler` measures the host while
the pass runs: a SIGALRM timer interrupts the pass every INTERVAL_S seconds
of real time, and the handler times one run of the workload's reference
kernels, fixed pieces of work that resemble the workload's own. The
program's work between two handlers is scaled by the kernels' nominal time
over their local time, which gives it in seconds of a host that runs the
kernels in their nominal time. The local time is the median of the SPAN
nearest samples, so one preempted sample does not rescale a stretch on its
own. Time spent in the handler is taken out of the pass.

The handler runs between bytecodes of the main thread, so a long C call (a
numpy kernel, a huge integer product) delays the next sample; that stretch
is longer and is weighted like any other.
"""
from __future__ import annotations

import functools
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.03
SPAN = 5

_A = [7 ** (60 + 17 * i) for i in range(24)]
_B = [5 ** (80 + 19 * i) for i in range(24)]


def _bigint() -> int:
    """576 products of 300- to 1300-bit integers, as in the exact series engines."""
    s = 0
    for a in _A:
        for b in _B:
            s += a * b
    return s


def _python() -> float:
    """Interpreter-bound scalar work: float and int arithmetic, dict and list traffic."""
    counts: dict[int, int] = {}
    items = []
    x = 0.5
    for i in range(800):
        x = x * 1.0000001 + (i & 7)
        counts[i & 63] = counts.get(i & 63, 0) + 1
        items.append(i ^ 5)
    items.sort(reverse=True)
    return x


@functools.cache
def _numpy_inputs() -> tuple:
    import numpy as np  # imported on first use, so that importing this module leaves set-up alone

    rng = np.random.default_rng(1)
    return np, rng.random((150, 150)), rng.random(150)


def _numpy() -> float:
    """Small vectorized work: matrix-vector products, a cumulative sum and a sort."""
    np, m, v = _numpy_inputs()
    for _ in range(20):
        v = m @ v
        v /= v.sum()
    return float(np.sort(np.cumsum(m[:50].ravel()))[0])


# name -> (kernel, nominal seconds). The nominal times are constants, about
# the kernels' median times on the 2-vCPU Xeon host the benchmark was sized
# on, so that reference seconds read close to wall seconds there.
KERNELS = {
    "bigint": (_bigint, 0.0006),
    "python": (_python, 0.00024),
    "numpy": (_numpy, 0.00033),
}


class Sampler:
    """Samples the named kernels' time while started; `scaled` turns real time into reference seconds."""

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = [KERNELS[name][0] for name in kernels]
        self.nominal_s = sum(KERNELS[name][1] for name in kernels)
        self.samples: list[tuple[float, float]] = []  # (handler start, handler end)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        for kernel in self.kernels:
            kernel()
        self.samples.append((t0, perf_counter()))

    def start(self) -> None:
        for kernel in self.kernels:  # warm
            kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def handler_s(self, start: float, end: float) -> float:
        """Seconds spent in the handler within [start, end]."""
        return sum(t1 - t0 for t0, t1 in self.samples if start <= t0 and t1 <= end)

    def scaled(self, start: float, end: float) -> float:
        """
        Reference seconds of the program's work in [start, end]: each
        stretch of work between handlers times the nominal kernel time over
        the local one. The stretch after the last handler uses the last
        local time. Without samples the real time is returned.
        """
        inside = [(t0, t1) for t0, t1 in self.samples if start <= t0 and t1 <= end]
        if not inside:
            return end - start
        took = [t1 - t0 for t0, t1 in inside]
        half = SPAN // 2
        total, prev = 0.0, start
        for i, (t0, t1) in enumerate(inside):
            local = statistics.median(took[max(0, i - half):i + half + 1])
            total += (t0 - prev) * self.nominal_s / local
            prev = t1
        return total + (end - prev) * self.nominal_s / local
