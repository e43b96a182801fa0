"""Benchmark model evaluation: full DAG evaluation against delta evaluation.

For each workload family and move kind it proposes candidates around one
random state and times ``Model.evaluate_unchecked`` on them, once in full and
once with ``base=(state, evaluation, move)``, which takes the delta path of
the frozen model.  Every delta result is checked bit for bit against the full
one before anything is timed.

    PYTHONPATH=src python3 benchmarks/eval_bench.py

It prints µs per evaluation (the best of REPEATS passes over the candidates
of one kind, full and delta passes alternating) and whether the frozen model
has a delta plan at all; a model without one takes the full path on both
sides.  It merges the numbers into ``BENCH_eval.json`` at the repository root
under the short hash of the checked-out commit.  With the ``src`` of a commit
that has no delta path on ``PYTHONPATH``, only the full evaluation is timed,
so the same script measures the parent of the change.
"""

import inspect
import json
import os
import platform
import struct
import subprocess
import time
from pathlib import Path

import numpy as np

from combopt.modeling import Model
from combopt.problems import (
    build_kp_model,
    build_mcp_model,
    build_tsp_model,
    generate_random_maxcut,
    parse_kplib,
    parse_tsplib,
)
from combopt.qubo import NUMBA_AVAILABLE
from combopt.solver import initial_state, propose_state

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_eval.json"
DATA = ROOT / "data"
CANDIDATES = 3000
REPEATS = 9
HAS_DELTA = "base" in inspect.signature(Model.evaluate_unchecked).parameters


def models():
    yield "disc52", build_tsp_model(parse_tsplib((DATA / "disc52.tsp").read_text(), "disc52"))
    yield "kp50", build_kp_model(parse_kplib((DATA / "kp50.kp").read_text(), "kp50"))
    yield "mc200", build_mcp_model(generate_random_maxcut(200, 0.1, seed=0, name="mc200"))


def candidates(model):
    """One random state, its evaluation, and candidates grouped by move kind."""
    rng = np.random.default_rng(0)
    state = initial_state(model, rng)
    ev = model.evaluate_unchecked(state)
    kinds: dict[str, list] = {}
    for _ in range(CANDIDATES):
        cand, move = propose_state(model, state, rng)
        kinds.setdefault(move[1][0], []).append((cand, (state, ev, move)))
    return kinds


def check(model, group) -> None:
    for cand, base in group:
        full, delta = model.evaluate_unchecked(cand), model.evaluate_unchecked(cand, base)
        same = (struct.pack("<d", full.objective) == struct.pack("<d", delta.objective)
                and full.violations == delta.violations and full.state_key == delta.state_key)
        if not same:
            raise SystemExit(f"delta evaluation differs from full at move {base[2]}")


def us_per_eval(model, group) -> tuple[float, float | None]:
    """Best-of-REPEATS µs per evaluation, full and delta, timed alternately
    so that a change of machine speed during the run hits both alike."""
    evaluate = model.evaluate_unchecked
    full = delta = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for cand, _ in group:
            evaluate(cand)
        full = min(full, time.perf_counter() - t0)
        if HAS_DELTA:
            t0 = time.perf_counter()
            for cand, base in group:
                evaluate(cand, base)
            delta = min(delta, time.perf_counter() - t0)
    scale = 1e6 / len(group)
    return full * scale, delta * scale if HAS_DELTA else None


def commit() -> str:
    done = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def save(results: dict) -> str:
    """Merge this run into BENCH_eval.json under the current commit."""
    key = commit()
    bench = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else {}
    bench[key] = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "numba": NUMBA_AVAILABLE,
        },
        "us_per_eval": results,
    }
    BENCH_FILE.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return key


def main():
    if not HAS_DELTA:
        print("evaluate_unchecked has no base argument: timing the full evaluation only\n")
    header = (f"{'case':<14} {'plan':>5} {'candidates':>10} {'full us':>9} {'delta us':>9} "
              f"{'speedup':>8}")
    print(header)
    print("-" * len(header))
    results = {}
    for name, model in models():
        model.freeze()
        plan = getattr(model, "_plan", None) is not None
        for kind, group in sorted(candidates(model).items()):
            if HAS_DELTA:
                check(model, group)
            full, delta = us_per_eval(model, group)
            entry = {"candidates": len(group), "full": round(full, 2), "plan": plan}
            row = f"{name + ' ' + kind:<14} {'yes' if plan else 'no':>5} {len(group):>10} "
            if HAS_DELTA:
                entry["delta"] = round(delta, 2)
                print(f"{row}{entry['full']:>9.2f} {entry['delta']:>9.2f} "
                      f"{entry['full'] / entry['delta']:>7.2f}x")
            else:
                print(f"{row}{entry['full']:>9.2f} {'-':>9} {'-':>8}")
            results[f"{name} {kind}"] = entry
    key = save(results)
    print(f"\nwrote {BENCH_FILE.name} entry {key}")


if __name__ == "__main__":
    main()
