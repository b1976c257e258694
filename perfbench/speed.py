"""Machine-speed sampling, to take the host's speed swings out of the timings.

On a shared virtual machine the same CPU-bound code can run at two speeds
about 1.8x apart, switching within milliseconds, with the share of slow time
drifting over seconds and minutes (measured on a 2-vCPU x86-64 guest with
Python 3.11: raw pass times of one workload spread 6.1-9.4 s across runs).
A run therefore samples machine speed while it measures: every
``INTERVAL_S`` of wall time a SIGALRM handler times one fixed exact
elimination written here, so that no change to carnot can change it.  The
handler's own time is left out of the measured intervals by the caller.  A
time divided by ``SpeedSampler.slowdown`` over its interval is in seconds at
``REFERENCE_PROBE_S``, the probe's cost when the machine runs at full speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
WINDOW_S = 0.02  # probes this far around an interval also describe it
# Probe cost at full speed (Python 3.11, x86-64); it only sets the scale.
REFERENCE_PROBE_S = 0.00016
# A probe slower than this many reference costs was interrupted, not slowed.
CLIP = 4.0


def _rows(n: int) -> list[list[Fraction]]:
    x, rows = 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (1103515245 * x + 12345) % 2**31
            row.append(Fraction(x % 19 - 9, x % 7 + 1))
        rows.append(row)
    return rows


_ROWS = _rows(4)


def probe_s() -> float:
    """Seconds for one Gauss-Jordan elimination of a fixed 4x4 rational matrix."""
    rows = [list(row) for row in _ROWS]
    enabled = gc.isenabled()
    gc.disable()  # the cost must not depend on what the measured code left alive
    start = time.perf_counter()
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [inv * e for e in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def sample_slowdown(probes: int) -> float:
    """Slowdown relative to REFERENCE_PROBE_S, from probes run back to back."""
    costs = [min(probe_s(), CLIP * REFERENCE_PROBE_S) for _ in range(probes)]
    return statistics.fmean(costs) / REFERENCE_PROBE_S


class SpeedSampler:
    """Context manager that probes machine speed every ``INTERVAL_S``.

    ``spent`` is the total time taken by the handler; callers subtract the
    part that fell inside a timed interval.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        cost = probe_s()
        self.times.append(start)
        self.costs.append(min(cost, CLIP * REFERENCE_PROBE_S))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Mean probe cost over [start - WINDOW_S, end + WINDOW_S] (the whole
        sample when no interval is given), relative to REFERENCE_PROBE_S."""
        costs = self.costs
        if start is not None:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            costs = costs[lo:hi] or costs
        return statistics.fmean(costs) / REFERENCE_PROBE_S
