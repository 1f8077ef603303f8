"""A fixed computation, unrelated to cipm, that gauges the core's current speed.

The benchmark shares its cores with other tenants, and the same work can take
twice as long from one few-second stretch to the next. Timing this kernel
right before and after each operation and dividing gives the operation's
cost in reference units ("ref"), which does not move with the machine's load
the way wall time does. The kernel mixes what the cipm code does: interpreted
Python, small LAPACK solves and bulk element-wise array work.
"""

import time

import numpy as np

_rng = np.random.default_rng(12345)
_ROWS = _rng.standard_normal((4, 8))
_RHS = _rng.standard_normal(4)
_BULK = _rng.standard_normal(20_000) + 1j * _rng.standard_normal(20_000)


def _kernel():
    acc = 0.0
    for i in range(100):
        rows = np.vstack([_ROWS, -_ROWS[:2]])
        u = np.linalg.lstsq(rows[:4], _RHS, rcond=1e-12)[0]
        kept = [j for j in range(6) if j != i % 6]
        acc += float(np.linalg.norm(rows[:4] @ u - _RHS)) + len(kept)
        acc += float(np.max(np.abs(u)))
    for _ in range(8):
        q = np.clip(2 * np.ceil(_BULK.real / 2.0) - 1, -3, 3)
        acc += float(np.abs(_BULK - q).sum())
    return acc


# Typical kernel time on the 2-core 2.0 GHz Xeon the benchmark was tuned on.
# Set-up cost must be reported in seconds; it is scaled to this speed.
NOMINAL_SECONDS = 0.006


def reference_seconds():
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
