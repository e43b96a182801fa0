"""Benchmark the annealing kernel: ns per variable visit of ``sa_sample``.

It times the pure-numpy kernel (what ``COMBOPT_NO_NUMBA=1`` selects) on three
generated maxcuts, a knapsack with slack bits and a one-hot 12-city tour, at
READS x SWEEPS, and on one of the solver's disc52 windows at its 4 reads x 64
sweeps: the wall time of ``sa_sample`` divided by reads x sweeps x variables,
the median of REPEATS calls.  Where numba is present it times the numba kernel
too and checks that both give identical samples, as their shared
counter-based random stream promises; a run where they differ exits non-zero.

    PYTHONPATH=src python3 benchmarks/sampler_bench.py [--base OTHER/src] [--pairs 5]

It merges every run into ``BENCH_sampler.json`` (see ``benchfile``).
"""

import statistics
import time

import numpy as np

import benchfile

BENCH_FILE = benchfile.ROOT / "BENCH_sampler.json"
READS, SWEEPS = 16, 128
REPEATS = 3


def cases():
    """(name, qubo, reads, sweeps) of each case."""
    from combopt.problems import KpInstance, TspInstance, generate_random_maxcut
    from combopt.qubo import kp_to_qubo, mcp_to_qubo, tsp_to_qubo
    from combopt.qubo.encode import tour_qubo

    rng = np.random.default_rng(0)
    for n in (30, 80, 160):
        inst = generate_random_maxcut(n, 0.5, (1, 10), seed=n)
        yield f"maxcut n={n}", mcp_to_qubo(inst)[0], READS, SWEEPS
    w = rng.integers(50, 400, 40)
    kp = KpInstance("kp40", 40, w + rng.integers(0, 100, 40), w, int(w.sum() // 2))
    yield "knapsack n=40 (+slack)", kp_to_qubo(kp)[0], READS, SWEEPS
    c = rng.integers(1, 100, (12, 12)).astype(float)
    c = np.triu(c, 1)
    tsp = TspInstance("t12", 12, c + c.T)
    yield "tsp n=12 (one-hot 144)", tsp_to_qubo(tsp)[0], READS, SWEEPS
    # cities 5..20 between 4 and 21
    c = benchfile.load_instance("disc52")[1].cost_matrix
    cities = np.arange(5, 21)
    window = tour_qubo(c[np.ix_(cities, cities)], ends=(c[4, cities], c[cities, 21]))
    yield "disc52 window 16 cities", window, 4, 64


def run(qubo, backend, reads, sweeps):
    """Median ns per variable visit over REPEATS calls, and the last samples."""
    from combopt.qubo import sa_sample

    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = sa_sample(qubo, reads=reads, sweeps=sweeps, seed=42, backend=backend)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e9 / (reads * sweeps * qubo.n), out


def measure() -> dict[str, float]:
    """Every figure of one run, for the ``combopt`` on the import path."""
    from combopt.qubo import NUMBA_AVAILABLE

    out = {}
    for name, qubo, reads, sweeps in cases():
        out[f"{name} numpy"], samples = run(qubo, "numpy", reads, sweeps)
        if NUMBA_AVAILABLE:
            run(qubo, "numba", 1, 1)  # exclude JIT compile
            out[f"{name} numba"], numba_samples = run(qubo, "numba", reads, sweeps)
            if not all(np.array_equal(a[0], b[0]) and a[1] == b[1]
                       for a, b in zip(samples, numba_samples)):
                raise SystemExit(f"{name}: the numba and numpy kernels diverged")
    return out


if __name__ == "__main__":
    benchfile.main(measure, BENCH_FILE, "ns_per_visit", "ns")
