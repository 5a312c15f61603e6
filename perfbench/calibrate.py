"""Machine-speed calibration: a fixed slice of work timed before each operation.

On a shared host the speed of one core drifts by up to 1.5x over tens of
seconds as other tenants come and go, and the whole of a 30 s run can fall
in a slow spell, so neither medians nor best-of-k passes make run-to-run
figures steady.  The runner therefore times a fixed slice of NumPy work just
before each operation and scales the operation's seconds by
NOMINAL_SLICE_S / slice seconds.  Drift that slows the slice and the
operation alike cancels; a change to clustercov does not touch the slice,
so it shows in full.  A NumPy slice tracked the drift of the pure-Python
analytic sweeps better than a pure-Python slice did: over three minutes of
analytic-presets operations cut into 30 s runs, it left a 6 % spread of
run medians, against 24 % for a Python slice and 42 % raw.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The slice's time on the reference host (2-core Xeon VM, Python 3.11,
# NumPy 2.4) in its usual state.  It only fixes the unit: calibrated
# seconds are seconds on that host.
NOMINAL_SLICE_S = 0.0026
MAX_SHARE = 0.1  # calibration time per operation, as a share of its own time
MAX_SECONDS = 0.1
MIN_SLICES = 3

_X = np.random.default_rng(0).uniform(0.5, 1.5, size=100_000)
_IDX = np.arange(_X.size) % 97


def slice_seconds() -> float:
    """Time one fixed slice of NumPy work."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.bincount(_IDX, weights=_X**-1.75, minlength=97)
    return time.perf_counter() - t0


class Calibrator:
    """Speed factors for operations, from slices timed just before each one."""

    def __init__(self) -> None:
        self._last: dict[str, float] = {}

    def factor(self, label: str) -> float:
        """Run slices for up to a tenth of the operation's last time; return
        the factor that turns its raw seconds into calibrated seconds."""
        budget = min(MAX_SHARE * self._last.get(label, 0.0), MAX_SECONDS)
        times = [slice_seconds() for _ in range(MIN_SLICES)]
        while sum(times) < budget:
            times.append(slice_seconds())
        return NOMINAL_SLICE_S / statistics.median(times)

    def note(self, label: str, seconds: float) -> None:
        self._last[label] = seconds
