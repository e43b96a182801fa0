"""Metropolis sweep kernels for the QUBO annealer.

Two interchangeable implementations of the same algorithm: a numba-compiled
kernel for speed and a pure-numpy twin used when numba is unavailable or
disabled via ``COMBOPT_NO_NUMBA=1``.  Both consume a counter-based splitmix64
random stream, so for a given seed they produce bit-identical trajectories;
``tests`` and ``benchmarks/sampler_bench.py`` rely on that equivalence.

All randomness is addressed, never stateful: uniform ``u(k)`` is a pure
function of (key, counter k), so the numba kernel computes them one at a
time while the numpy twin draws a block of whole sweeps with one vectorized
``uniforms`` call (at most ``_UNIFORM_BLOCK`` counters, at least one sweep).
"""

from __future__ import annotations

import math
import os

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / float(1 << 53)

_DISABLED = os.environ.get("COMBOPT_NO_NUMBA", "").lower() in ("1", "true", "yes")

if not _DISABLED:
    try:
        import numba
        from numba import njit

        NUMBA_AVAILABLE = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        NUMBA_AVAILABLE = False
else:
    NUMBA_AVAILABLE = False


def mix64(z: np.uint64) -> np.uint64:
    """splitmix64 finalizer; also vectorizes over uint64 arrays.

    Wraparound is intended; numpy only warns for scalar overflow, so the
    scalar path is wrapped in errstate.
    """
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        return z ^ (z >> np.uint64(31))


def stream_key(seed: int, stream: int) -> np.uint64:
    """Derive an independent 64-bit key for (seed, stream)."""
    with np.errstate(over="ignore"):
        z = mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        return mix64(z ^ np.uint64(stream))


def _counter_hash(key: np.uint64, start: int, count: int) -> np.ndarray:
    """64-bit hashes of counters start..start+count-1 of stream ``key``."""
    counters = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(key + (counters + np.uint64(1)) * _GOLDEN)


def uniforms(key: np.uint64, start: int, count: int) -> np.ndarray:
    """Vector of uniforms in [0, 1) for counters start..start+count-1."""
    return (_counter_hash(key, start, count) >> np.uint64(11)).astype(np.float64) * _INV53


def random_bits(key: np.uint64, start: int, count: int) -> np.ndarray:
    return (_counter_hash(key, start, count) & np.uint64(1)).astype(np.int8)


# Counters per uniforms() call in anneal_numpy: whole sweeps, at least one.
# Bounds the block's memory (a few MB) on a 4096-variable, many-sweep run.
_UNIFORM_BLOCK = 1 << 16


def anneal_numpy(
    h: np.ndarray,
    s: np.ndarray,
    betas: np.ndarray,
    reads: int,
    key_init: np.uint64,
    key_flip: np.uint64,
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-numpy twin of :func:`anneal_numba`; same trajectories per key.

    The per-visit work is plain Python on Python scalars, because indexing a
    numpy array returns a numpy scalar, which costs several times more to
    make and to do arithmetic on.  The field is read through a ``memoryview``
    of the numpy ``field`` array: each read is a Python float, and the
    in-place ``field += col`` of a flip is visible through it.  The columns
    come from a transposed contiguous copy of ``s``, so a flip adds a
    contiguous row instead of the strided ``s[:, i]``.  The floating-point
    operations and their order are those of the numba kernel.
    """
    n = h.shape[0]
    sweeps = betas.shape[0]
    best_bits = np.zeros((reads, n), dtype=np.int8)
    best_energy = np.zeros(reads)
    cols = list(np.ascontiguousarray(s.T))
    neg_betas = [-float(b) for b in betas]
    block = max(1, _UNIFORM_BLOCK // n)
    exp = math.exp
    visit = range(n)
    for r in range(reads):
        bits = [0] * n
        field = h.copy()
        fv = memoryview(field)
        energy = 0.0
        init = random_bits(key_init, r * n, n).tolist()
        for i in visit:
            if init[i]:
                de = fv[i]  # bit 0 -> 1
                bits[i] = 1
                energy += de
                field += cols[i]
        best_e = energy
        best_b = bits[:]
        for sw0 in range(0, sweeps, block):
            count = min(block, sweeps - sw0)
            us = iter(uniforms(key_flip, (r * sweeps + sw0) * n, count * n).tolist())
            for nb in neg_betas[sw0 : sw0 + count]:
                # zip stops on the exhausted range before it pulls from us,
                # so each sweep takes exactly the next n uniforms
                for i, u in zip(visit, us):
                    de = -fv[i] if bits[i] else fv[i]
                    if de <= 0.0 or u < exp(nb * de):
                        if bits[i]:
                            bits[i] = 0
                            field -= cols[i]
                        else:
                            bits[i] = 1
                            field += cols[i]
                        energy += de
                        if energy < best_e:
                            best_e = energy
                            best_b = bits[:]
        best_bits[r] = best_b
        best_energy[r] = best_e
    return best_bits, best_energy


if NUMBA_AVAILABLE:

    @njit(cache=True, nogil=True)
    def _mix64_nb(z):
        z = (z ^ (z >> numba.uint64(30))) * numba.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> numba.uint64(27)
        z *= numba.uint64(0x94D049BB133111EB)
        return z ^ (z >> numba.uint64(31))

    @njit(cache=True, nogil=True)
    def _uniform_nb(key, counter):
        z = _mix64_nb(key + (counter + numba.uint64(1)) * numba.uint64(0x9E3779B97F4A7C15))
        return (z >> numba.uint64(11)) * (1.0 / 9007199254740992.0)

    @njit(cache=True, nogil=True)
    def _bit_nb(key, counter):
        z = _mix64_nb(key + (counter + numba.uint64(1)) * numba.uint64(0x9E3779B97F4A7C15))
        return numba.uint64(z & numba.uint64(1))

    @njit(cache=True, nogil=True)
    def anneal_numba(h, s, betas, reads, key_init, key_flip):
        n = h.shape[0]
        sweeps = betas.shape[0]
        best_bits = np.zeros((reads, n), dtype=np.int8)
        best_energy = np.zeros(reads)
        bits = np.zeros(n, dtype=np.int8)
        field = np.zeros(n)
        best_b = np.zeros(n, dtype=np.int8)
        for r in range(reads):
            for i in range(n):
                bits[i] = 0
                field[i] = h[i]
            energy = 0.0
            for i in range(n):
                if _bit_nb(key_init, numba.uint64(r * n + i)):
                    de = field[i]
                    bits[i] = 1
                    energy += de
                    for j in range(n):
                        field[j] += s[j, i]
            best_e = energy
            for i in range(n):
                best_b[i] = bits[i]
            for sw in range(sweeps):
                beta = betas[sw]
                base = numba.uint64((r * sweeps + sw) * n)
                for i in range(n):
                    if bits[i] == 0:
                        de = field[i]
                    else:
                        de = -field[i]
                    if de <= 0.0 or _uniform_nb(key_flip, base + numba.uint64(i)) < math.exp(-beta * de):
                        if bits[i] == 0:
                            bits[i] = 1
                            for j in range(n):
                                field[j] += s[j, i]
                        else:
                            bits[i] = 0
                            for j in range(n):
                                field[j] -= s[j, i]
                        energy += de
                        if energy < best_e:
                            best_e = energy
                            for j in range(n):
                                best_b[j] = bits[j]
            for j in range(n):
                best_bits[r, j] = best_b[j]
            best_energy[r] = best_e
        return best_bits, best_energy

else:
    anneal_numba = None
