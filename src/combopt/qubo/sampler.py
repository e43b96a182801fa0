"""Simulated-annealing sampler for QUBOs.

Each read is an independent restart of single-bit-flip Metropolis with a
geometric inverse-temperature schedule; within a read, every sweep visits all
variables in index order.  Results are deterministic per seed and identical
between the numba and numpy backends (see ``_kernels``).
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, SizeError
from . import _kernels
from .core import Qubo

MAX_DENSE_VARIABLES = 4096


def default_backend() -> str:
    return "numba" if _kernels.NUMBA_AVAILABLE else "numpy"


def beta_schedule(h: np.ndarray, s: np.ndarray, sweeps: int) -> np.ndarray:
    """Geometric schedule from the magnitudes of the fields ``Qubo.fields()``.

    beta ranges from ln(2)/dE_max (half the worst uphill move accepted) to
    ln(100)/dE_min (the smallest uphill move accepted 1% of the time), where
    dE_min is the smallest nonzero coefficient magnitude.
    """
    if sweeps < 1:
        raise DomainError(f"sweeps must be >= 1, got {sweeps}")
    abs_h, abs_s = np.abs(h), np.abs(s)
    per_var = abs_h + abs_s.sum(axis=1)
    de_max = float(per_var.max()) if per_var.size else 0.0
    # s is symmetric, so its nonzero entries are the off-diagonal terms
    magnitudes = np.concatenate([abs_h[abs_h > 0], abs_s[abs_s > 0]])
    de_min = float(magnitudes.min()) if magnitudes.size else 1.0
    if de_max <= 0.0:
        return np.full(sweeps, 1.0)
    beta_start = np.log(2.0) / de_max
    beta_end = np.log(100.0) / de_min
    if beta_end <= beta_start:
        beta_end = beta_start * 2.0
    if sweeps == 1:
        return np.array([beta_end])
    ratio = beta_end / beta_start
    return beta_start * ratio ** (np.arange(sweeps) / (sweeps - 1))


def sa_sample(
    qubo: Qubo,
    reads: int = 32,
    sweeps: int = 256,
    seed: int = 0,
    backend: str | None = None,
) -> list[tuple[np.ndarray, float]]:
    """``reads`` restarts of annealing; returns per-read (bits, exact energy).

    The reported bits are the best configuration visited within the read, and
    the energy is recomputed exactly from the QUBO, never the incremental
    accumulator.
    """
    if reads < 1:
        raise DomainError(f"reads must be >= 1, got {reads}")
    if qubo.n > MAX_DENSE_VARIABLES:
        raise SizeError(
            f"dense annealing capped at {MAX_DENSE_VARIABLES} variables, got {qubo.n}"
        )
    if backend is None:
        backend = default_backend()
    if backend not in ("numba", "numpy"):
        raise DomainError(f"unknown backend {backend!r}")
    if backend == "numba" and not _kernels.NUMBA_AVAILABLE:
        raise DomainError("numba backend requested but numba is unavailable/disabled")

    if qubo.n == 0:
        return [(np.zeros(0, dtype=np.int8), qubo.offset) for _ in range(reads)]

    h, s = qubo.fields()
    betas = beta_schedule(h, s, sweeps)
    key_init = _kernels.stream_key(seed, 0x1234)
    key_flip = _kernels.stream_key(seed, 0x5678)
    kernel = _kernels.anneal_numba if backend == "numba" else _kernels.anneal_numpy
    bits, _ = kernel(h, s, betas, reads, key_init, key_flip)
    exact = qubo.energies(bits)
    return [(bits[r].copy(), float(exact[r])) for r in range(reads)]
