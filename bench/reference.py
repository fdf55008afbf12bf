"""A fixed reference kernel that measures how fast the machine runs right now.

The host this benchmark was written on changes speed by up to 1.5x between
stretches of a few seconds (see bench/README.md, "Why times are scaled").
`run.py` times this kernel between the workload's calls, about every
REF_EVERY_S seconds of timed calls, and scales each call's time by how slow
the kernel ran around it: a call's scaled time is its wall time times
NOMINAL_S / (median kernel time nearby).  The kernel imports nothing from
pstlab and never changes, so on a steady machine a scaled time equals the
wall time the call would take when the kernel takes NOMINAL_S.

The kernel mixes the three kinds of work the workloads do: interpreted
Python, a small LAPACK eigensolve through scipy, and complex exponentials
of an outer product summed against a vector (the fidelity grid).  It makes
no BLAS call that could start BLAS threads, so it measures the speed of the
core it runs on, and it writes into preallocated arrays.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.linalg

NOMINAL_S = 0.85e-3      # about the kernel's median time on the reference machine
REF_EVERY_S = 0.05       # timed-call seconds between two kernel samples
WINDOW = 5               # kernel samples on each side of a call
SETTLE_S = 0.25          # idle time before the samples that scale set-up

_rng = np.random.default_rng(12345)
_DIAG = _rng.uniform(-1.0, 1.0, 24)
_OFF = _rng.uniform(0.5, 1.5, 23)
_TIMES = np.linspace(0.0, 10.0, 768)
_LAM = np.sort(_rng.uniform(-3.0, 3.0, 16))
_COEFF = _rng.uniform(0.0, 1.0, 16) + 0j
_PHASE = np.empty((_TIMES.size, _LAM.size), dtype=complex)
_AMP = np.empty(_TIMES.size, dtype=complex)


def kernel() -> float:
    total = 0
    for i in range(3000):
        total += (i * i) % 7
    lam = scipy.linalg.eigvalsh_tridiagonal(_DIAG, _OFF)
    np.multiply.outer(-1j * _TIMES, _LAM, out=_PHASE)
    np.exp(_PHASE, out=_PHASE)
    np.multiply(_PHASE, _COEFF, out=_PHASE)
    np.sum(_PHASE, axis=1, out=_AMP)
    return total + float(lam[0]) + float(np.abs(_AMP).max())


def sample() -> float:
    """Seconds one call of the kernel takes now.  An untimed call goes
    first: right after a workload call the kernel runs up to 30% slower
    while it refills the caches that call used, and that depends on the
    program, not the machine."""
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale_now(count: int = 9) -> float:
    """NOMINAL_S over the median of `count` kernel samples taken now.

    It waits SETTLE_S first: for a while after a multithreaded BLAS call
    the library's worker threads keep spinning, and right after set-up
    that took one core from the kernel in some samples (5 to 10 ms instead
    of 0.85)."""
    time.sleep(SETTLE_S)
    return NOMINAL_S / float(np.median([sample() for _ in range(count)]))


def scale_factors(samples: list[float], positions: list[int]) -> np.ndarray:
    """NOMINAL_S over the median of the kernel samples around each call.

    `positions[j]` is the number of kernel samples taken before call j, so
    call j lies between samples positions[j] - 1 and positions[j]; the
    median is taken over up to WINDOW samples on each side of it."""
    medians = np.array([
        np.median(samples[max(0, p - WINDOW):p + WINDOW])
        for p in range(len(samples) + 1)
    ])
    return NOMINAL_S / medians[np.asarray(positions)]
