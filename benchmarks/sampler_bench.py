"""Benchmark the annealing kernel: numba backend vs the pure-numpy fallback.

Both backends consume the same counter-based random stream, so they must
produce identical samples; this script verifies that on every case while
timing them.  The numpy path is what you get with COMBOPT_NO_NUMBA=1.

    python3 benchmarks/sampler_bench.py [--reads 16] [--sweeps 128]

It prints ns per variable visit (wall time of ``sa_sample`` divided by
reads x sweeps x variables, median of three runs) and merges the numbers into
``BENCH_sampler.json`` at the repository root under the short hash of the
checked-out commit, so runs at two commits leave both sets side by side.
"""

import argparse
import statistics
import time

import numpy as np

from benchfile import ROOT, save
from combopt.problems import generate_random_maxcut, KpInstance, TspInstance, parse_tsplib
from combopt.qubo import NUMBA_AVAILABLE, kp_to_qubo, mcp_to_qubo, sa_sample, tsp_to_qubo
from combopt.qubo.encode import tour_qubo

BENCH_FILE = ROOT / "BENCH_sampler.json"
REPEATS = 3


def cases(reads, sweeps):
    """(name, qubo, reads, sweeps) of each case."""
    rng = np.random.default_rng(0)
    for n in (30, 80, 160):
        inst = generate_random_maxcut(n, 0.5, (1, 10), seed=n)
        yield f"maxcut n={n}", mcp_to_qubo(inst)[0], reads, sweeps
    w = rng.integers(50, 400, 40)
    kp = KpInstance("kp40", 40, w + rng.integers(0, 100, 40), w, int(w.sum() // 2))
    yield "knapsack n=40 (+slack)", kp_to_qubo(kp)[0], reads, sweeps
    c = rng.integers(1, 100, (12, 12)).astype(float)
    c = np.triu(c, 1)
    tsp = TspInstance("t12", 12, c + c.T)
    yield "tsp n=12 (one-hot 144)", tsp_to_qubo(tsp)[0], reads, sweeps
    # a QM window of the solver on disc52, cities 5..20 between 4 and 21, at
    # the solver's 4 reads x 64 sweeps
    c = parse_tsplib((ROOT / "data" / "disc52.tsp").read_text(), "disc52").cost_matrix
    cities = np.arange(5, 21)
    window = tour_qubo(c[np.ix_(cities, cities)], ends=(c[4, cities], c[cities, 21]))
    yield "disc52 window 16 cities", window, 4, 64


def run(qubo, backend, reads, sweeps):
    """Median ns per variable visit over REPEATS runs, and the last samples."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = sa_sample(qubo, reads=reads, sweeps=sweeps, seed=42, backend=backend)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e9 / (reads * sweeps * qubo.n), out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reads", type=int, default=16)
    parser.add_argument("--sweeps", type=int, default=128)
    args = parser.parse_args()

    if not NUMBA_AVAILABLE:
        print("numba unavailable or disabled: timing the numpy path only\n")

    header = (
        f"{'case':<26} {'vars':>6} {'numpy ns/visit':>15} {'numba ns/visit':>15} "
        f"{'speedup':>8}  identical"
    )
    print(header)
    print("-" * len(header))
    results = {}
    for name, qubo, reads, sweeps in cases(args.reads, args.sweeps):
        ns_np, out_np = run(qubo, "numpy", reads, sweeps)
        entry = {"n": qubo.n, "reads": reads, "sweeps": sweeps, "numpy": round(ns_np, 1)}
        if NUMBA_AVAILABLE:
            run(qubo, "numba", 1, 1)  # exclude JIT compile
            ns_nb, out_nb = run(qubo, "numba", reads, sweeps)
            entry["numba"] = round(ns_nb, 1)
            same = all(
                np.array_equal(a[0], b[0]) and a[1] == b[1]
                for a, b in zip(out_np, out_nb)
            )
            print(
                f"{name:<26} {qubo.n:>6} {ns_np:>15.0f} {ns_nb:>15.0f} "
                f"{ns_np / ns_nb:>7.1f}x  {same}"
            )
            if not same:
                raise SystemExit("backends diverged; the RNG contract is broken")
        else:
            print(f"{name:<26} {qubo.n:>6} {ns_np:>15.0f} {'-':>15} {'-':>8}")
        results[name] = entry
    key = save(BENCH_FILE, "ns_per_visit", results)
    print(f"\nwrote {BENCH_FILE.name} entry {key}")


if __name__ == "__main__":
    main()
