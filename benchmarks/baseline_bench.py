"""Benchmark the qubo-sa baseline: wall time of its reads and of the smoke plan.

It times ``qubo_sa_reads`` at 16 reads x 128 sweeps under a time limit that
never binds, as a bench cell runs it, on kp50, a generated 200-node maxcut,
tsp7 and mc10 (the last two show what the forked workers cost on a tiny cell),
then one ``combopt bench --plan data/plan_smoke.json``.  It also records the
peak RSS of the measuring process and of its largest child process, after the
reads and after the plan: the forked workers' memory does not show in the
first.

    PYTHONPATH=src python3 benchmarks/baseline_bench.py [--base OTHER/src] [--pairs 5]

It merges every run into ``BENCH_baseline.json`` (see ``benchfile``).
"""

import contextlib
import io
import resource
import statistics
import tempfile
import time

import benchfile

BENCH_FILE = benchfile.ROOT / "BENCH_baseline.json"
READS, SWEEPS = 16, 128
NEVER = 600.0  # a time limit the reads never reach
REPEATS = 7  # timed calls per instance and run


def peak_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure() -> dict[str, float]:
    """Every figure of one run, for the ``combopt`` on the import path."""
    from combopt.benchstats import qubo_sa_reads
    from combopt.cli import main as cli

    out = {}
    for name in ("kp50", "mc200", "tsp7", "mc10"):
        family, model = benchfile.load(name)
        qubo_sa_reads(model, family, READS, SWEEPS, seed=0, time_limit=NEVER)  # warm-up
        times = []
        for seed in range(REPEATS):
            t0 = time.perf_counter()
            qubo_sa_reads(model, family, READS, SWEEPS, seed=seed, time_limit=NEVER)
            times.append(time.perf_counter() - t0)
        out[f"{name} reads ms"] = statistics.median(times) * 1e3
    out["reads self peak MB"] = peak_mb(resource.RUSAGE_SELF)
    out["reads child peak MB"] = peak_mb(resource.RUSAGE_CHILDREN)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli(["bench", "--plan", str(benchfile.DATA / "plan_smoke.json"), "--out-dir", tmp])
        wall = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"combopt bench exited {code}")
    out["smoke plan s"] = wall
    out["plan self peak MB"] = peak_mb(resource.RUSAGE_SELF)
    out["plan child peak MB"] = peak_mb(resource.RUSAGE_CHILDREN)
    return out


if __name__ == "__main__":
    benchfile.main(measure, BENCH_FILE, "baseline", "")
