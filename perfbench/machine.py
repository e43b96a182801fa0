"""Machine-speed reference for the benchmark's timings.

On a 2-CPU virtual machine (Intel Xeon, 2.0 GHz) the speed changed by up to
1.7x within minutes, as other tenants came and went, and no hardware
counters were exposed that could count work instead of time.  Raw
run-to-run spreads of steps/s reached 0.28-0.33 (quartile distance over
median, ten runs), wider than any bound worth having.  A fixed kernel in
the benchmark's own code, timed next to each unit of work, tracks that
speed: scaling each unit's rate by the kernel's time brought the same
spreads down to 0.05-0.06.  The kernel never touches combopt, so no change
to the program can move it.

The end-to-end rates are reported at the nominal speed, at which the kernel
takes ``NOMINAL_S``: each unit's rate is multiplied by ``speed_factor()``
measured around it.  The raw rates are printed and kept in the result file.
"""

from __future__ import annotations

import threading
import time

import numpy as np

NOMINAL_S = 0.008
_MATRIX = np.random.default_rng(0).random((128, 128))


def _kernel() -> float:
    """Small numpy ops and dict and integer work, like combopt's hot loops."""
    t0 = time.perf_counter()
    field = np.zeros(128)
    for _ in range(20):
        for i in range(128):
            field += _MATRIX[:, i]
    terms: dict = {}
    x = 0
    for i in range(10_000):
        terms[(i, i + 1)] = terms.get((i, i + 1), 0.0) + 1.0
        x += i * 3 % 7
    return time.perf_counter() - t0


def speed_factor() -> float:
    """Kernel time over its nominal time; above 1 when the machine is slow.

    Waits first for the solver's leftover QM pool threads (a deadline solve
    returns without joining them), so they cannot slow the kernel.
    """
    for thread in threading.enumerate():
        if thread.name.startswith("qm"):
            thread.join(timeout=30)
    return min(_kernel(), _kernel()) / NOMINAL_S
