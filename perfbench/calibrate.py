"""A fixed reference kernel that gauges the machine's speed next to each timed call.

On a shared virtual machine the CPU time of the same work changes between
runs, and within a run, by more than the benchmark's bounds: the host's
clock speed and the load that other guests put on the same cores come and
go.  So every timed call runs between two runs of this kernel, and its CPU
time is scaled by ``NOMINAL_S`` over the mean of the two kernel times.  A
reported time is thus the time the call takes on a machine that runs the
kernel in ``NOMINAL_S``.

The kernel mixes the kinds of work pcgn does (small matrix-vector products
and gates stepped from Python, a dense outer-product accumulation, and a
sort of scored candidates) and calls no pcgn code, so a change to pcgn
moves a scaled time exactly as much as the raw time.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Timed calls read the process's CPU time.  The loop is single-threaded
# (BLAS is pinned to one thread) and does no I/O, so on an idle machine
# this equals wall time; on a shared virtual machine it leaves out the
# time the hypervisor gives to other guests.
busy = time.process_time

# Close to the kernel's CPU time on a quiet 2-vCPU Xeon virtual machine.  It
# only sets the unit of the scaled times, so it must never change.
NOMINAL_S = 0.0035
STEPS = 48

_rng = np.random.default_rng(20190723)
_W = _rng.standard_normal((128, 64)) * 0.2
_H0 = _rng.standard_normal(64)
_U = _rng.standard_normal((STEPS, 96))
_CANDIDATES = [(float(s), i) for i, s in enumerate(_rng.standard_normal(160))]
# Preallocated, so that the kernel's time does not depend on the state of
# the allocator that the timed calls leave behind.
_ACC = np.zeros((96, 96))
_OUTER = np.zeros((96, 96))

# A kernel time measured right after a timed call serves as the "before"
# of the next one, if that starts within FRESH_S.
FRESH_S = 0.005
_last = (-math.inf, 0.0)   # (time.perf_counter() when measured, kernel CPU seconds)

# Speed factor (NOMINAL_S over the measured kernel time) of every timed call
# in this process, for the report.
factors: list[float] = []


def kernel() -> float:
    h = _H0
    _ACC.fill(0.0)
    best = []
    for step in range(STEPS):
        g = _W @ h
        h = np.tanh(g[:64]) * (1.0 / (1.0 + np.exp(-g[64:])))
        np.multiply.outer(_U[step], _U[-1 - step], out=_OUTER)
        np.add(_ACC, _OUTER, out=_ACC)
        scale = float(h[step])
        best = sorted(_CANDIDATES, key=lambda c: (-c[0] * scale, c[1]))[:10]
    return float(h.sum() + _ACC[0, 0] + best[0][0])


def kernel_s() -> float:
    """CPU time of one kernel run, after a first run that refills the caches the last call evicted."""
    kernel()
    start = busy()
    kernel()
    return busy() - start


def timed(fn, *args):
    """``fn(*args)`` and its CPU time scaled to the nominal machine speed, in seconds."""
    global _last
    measured_at, before = _last
    if time.perf_counter() - measured_at > FRESH_S:
        before = kernel_s()
    start = busy()
    out = fn(*args)
    spent = busy() - start
    after = kernel_s()
    _last = (time.perf_counter(), after)
    factor = NOMINAL_S / (0.5 * (before + after))
    factors.append(factor)
    return out, spent * factor
