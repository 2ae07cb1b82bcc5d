"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the CPU speed seen by one process
drifts by up to 1.6x, switching within seconds and wandering over
minutes.  That is far more than any bound worth setting, and no run
length within the benchmark's budget averages it out.  So a fixed exact
computation, independent of the package under test, is timed right
before and right after every op, and the op's time is reported at
nominal speed:

    scaled = measured * NOMINAL_S / mean(calibration before, calibration after)

NOMINAL_S is what ``calibrate()`` takes at the reference speed.  Keep the
kernel and NOMINAL_S unchanged, or results stop being comparable across
commits.  Unscaled figures are printed alongside for reference.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.0065

_N = 7
_HILBERT = [[Fraction(1, i + j + 1) for j in range(_N)] for i in range(_N)]
_RHS = [Fraction(k + 1) for k in range(_N)]


def _solve() -> tuple[Fraction, ...]:
    """Gauss-Jordan elimination on the 7x7 Hilbert system."""
    a = [row[:] + [b] for row, b in zip(_HILBERT, _RHS)]
    for c in range(_N):
        for r in range(_N):
            if r != c:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return tuple(a[i][_N] / a[i][i] for i in range(_N))


def calibrate() -> float:
    """Seconds taken by four fixed exact solves, about NOMINAL_S."""
    t0 = time.perf_counter()
    for _ in range(4):
        _solve()
    return time.perf_counter() - t0


def scaled(seconds: float, calibration: float) -> float:
    return seconds * NOMINAL_S / calibration
