"""Host-speed calibration of measured times.

On a shared host the core this process runs on is slowed by other tenants
for stretches of seconds to a minute, by up to 2 times, and the two cores of
a small VM are slowed independently.  Pass times then move with the host's
load, not with the program.  To separate the two, a fixed reference kernel
is timed right before and right after each measured interval, and the
interval is rescaled::

    calibrated = measured * REF_SECONDS / mean(reference before, after)

The kernel is the mix the norm computations are made of: a Python loop over
tiny numpy solves (the scalar polish of ``delay-jump``), a batched 8x8 SVD
(the torus grid) and a batched 40x40 SVD (the ``dense-mimo`` scan).
``REF_SECONDS`` is its time on an uncontended core of the host the bounds
were set on (Intel Xeon, 2.1 GHz, numpy 2.4 with OpenBLAS, one thread), so a
calibrated time reads as seconds on such a core.  The kernel does not call
``ddaenorm``, so a change to the program moves a calibrated time by the same
factor as the measured one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one reference kernel run on an uncontended core (see above).
REF_SECONDS = 0.0067
# Kernel runs per probe; the probe reports their median.
PROBE_REPS = 5

_rng = np.random.default_rng(12345)
_STACK = _rng.standard_normal((400, 8, 8)) + 1j * _rng.standard_normal((400, 8, 8))
_SMALL = _rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2))
_RHS = np.array([1.0, 2.0 + 0.5j])
_EYE = np.eye(2)
_DENSE = _rng.standard_normal((12, 40, 40)) + 1j * _rng.standard_normal((12, 40, 40))


def kernel():
    """The reference work: 150 tiny solves and two batched SVDs."""
    acc = float(np.linalg.svd(_STACK, compute_uv=False)[:, 0].sum())
    acc += float(np.linalg.svd(_DENSE, compute_uv=False)[:, 0].sum())
    for k in range(150):
        x = np.linalg.solve(_SMALL * np.exp(-1j * (0.01 * k)) + _EYE, _RHS)
        acc += abs(x[0]) + float(np.abs(x).max())
    return acc


def probe(reps=PROBE_REPS):
    """Median wall time of ``reps`` kernel runs, in seconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before, after):
    """Factor that turns a time measured between two probes into calibrated seconds."""
    return REF_SECONDS / (0.5 * (before + after))


kernel()  # first-call costs (LAPACK workspace, ufunc caches) stay out of every probe
