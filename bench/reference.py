"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to 1.6 times slower for tens of
seconds at a time while other tenants load the core; CPU time grows with
wall time, so the slowdown is not time spent waiting.  The benchmark times
this kernel between passes and scales each pass by the kernel's time around
it, which cancels that drift:

    scaled = pass time * REFERENCE_S / reference time around the pass

The kernel does the kinds of work `edmp` does, on fixed inputs: an integer
loop, building and formatting small Python objects, small NumPy operations
around 8 x 8 eigendecompositions, and LAPACK eigendecompositions at 128.
A mix tracks the workloads better than any one part: each workload slows
with the host by a different share in each kind of work.  The kernel is
part of the benchmark, so a change to `edmp` never changes it.
REFERENCE_S is the kernel's fastest wall time seen on the 2-vCPU x86-64
VM the benchmark was defined on (the median there was 0.019 s); it only
turns the ratio back into seconds, so a scaled time reads as the plain wall
time at the fastest speed that VM showed.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.013

_RNG = np.random.default_rng(20190318)
_SMALL = _RNG.standard_normal((8, 8))
_SMALL = _SMALL + _SMALL.T
_MID = _RNG.standard_normal((128, 128))
_MID = _MID + _MID.T


def _kernel() -> int:
    total = 0
    for i in range(30000):
        total += i * i % 7
    for i in range(1500):
        row = {"t": i, "cells": [i, i + 1, (i, str(i))]}
        total += len(f"{i:.3f},{sorted(row['cells'][:2], reverse=True)[0]}")
    for _ in range(150):
        w, v = np.linalg.eigh(_SMALL)
        total += int(np.sum(w > 1e-9)) + int(np.abs(v @ np.diag(w) @ v.T - _SMALL).max() < 1.0)
    for _ in range(3):
        np.linalg.eigh(_MID)
    return total


def reference_time() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the reference kernel."""
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - wall0, time.process_time() - cpu0
