"""Benchmark the qubo-sa baseline: wall time of its reads and of the smoke plan.

It times ``qubo_sa_reads`` at 16 reads x 128 sweeps under a time limit that
never binds, as a bench cell runs it, on kp50, a generated 200-node maxcut,
tsp7 and mc10 (the last two show what the forked workers cost on a tiny cell),
then one ``combopt bench --plan data/plan_smoke.json``.  It also records the
peak RSS of the measuring process and of its largest child process, after the
reads and after the plan: the forked workers' memory does not show in the
first.

    PYTHONPATH=src python3 benchmarks/baseline_bench.py [--base OTHER/src] [--pairs 5]

Every run happens in a fresh process.  With ``--base`` the runs alternate
between that source tree and this checkout's ``src``, and the side that starts
a pair alternates too.  The script prints the median of each side and merges
every run into ``BENCH_baseline.json`` at the repository root under the short
hash of the checked-out commit.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import tempfile
import time
from pathlib import Path

from benchfile import ROOT, compare, save

BENCH_FILE = ROOT / "BENCH_baseline.json"
DATA = ROOT / "data"
READS, SWEEPS = 16, 128
NEVER = 600.0  # a time limit the reads never reach
REPEATS = 7  # timed calls per instance and run


def models():
    from combopt.problems import (build_kp_model, build_mcp_model, build_tsp_model,
                                  generate_random_maxcut, parse_kplib, parse_maxcut,
                                  parse_tsplib)

    yield "kp50", "kp", build_kp_model(parse_kplib((DATA / "kp50.kp").read_text(), "kp50"))
    yield "mc200", "mc", build_mcp_model(
        generate_random_maxcut(200, 0.1, seed=0, name="mc200"))
    yield "tsp7", "tsp", build_tsp_model(parse_tsplib((DATA / "tsp7.tsp").read_text(), "tsp7"))
    yield "mc10", "mc", build_mcp_model(parse_maxcut((DATA / "mc10.mc").read_text(), "mc10"))


def peak_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure() -> dict[str, float]:
    """Every figure of one run, for the ``combopt`` on the import path."""
    from combopt.benchstats import qubo_sa_reads
    from combopt.cli import main as cli

    out = {}
    for name, family, model in models():
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
        code = cli(["bench", "--plan", str(DATA / "plan_smoke.json"), "--out-dir", tmp])
        wall = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"combopt bench exited {code}")
    out["smoke plan s"] = wall
    out["plan self peak MB"] = peak_mb(resource.RUSAGE_SELF)
    out["plan child peak MB"] = peak_mb(resource.RUSAGE_CHILDREN)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="source tree to compare against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure()))
        return

    results = compare(__file__, args.base, args.pairs, "")
    key = save(BENCH_FILE, "baseline", {"pairs": args.pairs, **results})
    print(f"\nwrote {BENCH_FILE.name} entry {key}")


if __name__ == "__main__":
    main()
