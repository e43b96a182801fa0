"""Benchmark model evaluation: full DAG evaluation against delta evaluation.

For each workload family and move kind it proposes candidates around one
random state and times their evaluation, once in full with
``Model.evaluate_unchecked`` and once from the move's tag with
``Model.score_move(state, evaluation, move)``, which takes the delta path
of the frozen model, or the full evaluation when the model has no plan.
Every delta result is checked bit for bit against the full one before
anything is timed.

    PYTHONPATH=src python3 benchmarks/eval_bench.py

It prints µs per evaluation (the best of REPEATS passes over the candidates
of one kind, full and delta passes alternating) and whether the frozen model
has a delta plan at all; a model without one takes the full path on both
sides.  It merges the numbers into ``BENCH_eval.json`` at the repository root
under the short hash of the checked-out commit.
"""

import struct
import time

import numpy as np

from benchfile import ROOT, save
from combopt.problems import (
    TspInstance,
    build_kp_model,
    build_mcp_model,
    build_tsp_model,
    euc2d_matrix,
    generate_random_maxcut,
    parse_kplib,
    parse_tsplib,
)
from combopt.solver import initial_state, propose_state

BENCH_FILE = ROOT / "BENCH_eval.json"
DATA = ROOT / "data"
CANDIDATES = 3000
REPEATS = 9


def models():
    yield "disc52", build_tsp_model(parse_tsplib((DATA / "disc52.tsp").read_text(), "disc52"))
    yield "kp50", build_kp_model(parse_kplib((DATA / "kp50.kp").read_text(), "kp50"))
    yield "mc200", build_mcp_model(generate_random_maxcut(200, 0.1, seed=0, name="mc200"))
    # a random EUC_2D tour: symmetric and integral, like disc52
    coords = np.random.default_rng(1000).uniform(0, 10_000, (1000, 2))
    yield "tsp1000", build_tsp_model(TspInstance("tsp1000", 1000, euc2d_matrix(coords)))


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
        full, delta = model.evaluate_unchecked(cand), model.score_move(*base).build()[1]
        same = (struct.pack("<d", full.objective) == struct.pack("<d", delta.objective)
                and full.violations == delta.violations and full.state_key == delta.state_key)
        if not same:
            raise SystemExit(f"delta evaluation differs from full at move {base[2]}")


def us_per_eval(model, group) -> tuple[float, float]:
    """Best-of-REPEATS µs per evaluation, full and delta, timed alternately
    so that a change of machine speed during the run hits both alike."""
    evaluate, score = model.evaluate_unchecked, model.score_move
    full = delta = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for cand, _ in group:
            evaluate(cand)
        full = min(full, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _, base in group:
            score(*base)
        delta = min(delta, time.perf_counter() - t0)
    scale = 1e6 / len(group)
    return full * scale, delta * scale


def main():
    header = (f"{'case':<14} {'plan':>5} {'candidates':>10} {'full us':>9} {'delta us':>9} "
              f"{'speedup':>8}")
    print(header)
    print("-" * len(header))
    results = {}
    for name, model in models():
        model.freeze()
        plan = model._plan is not None
        for kind, group in sorted(candidates(model).items()):
            check(model, group)
            full, delta = us_per_eval(model, group)
            entry = {"candidates": len(group), "full": round(full, 2), "plan": plan,
                     "delta": round(delta, 2)}
            print(f"{name + ' ' + kind:<14} {'yes' if plan else 'no':>5} {len(group):>10} "
                  f"{entry['full']:>9.2f} {entry['delta']:>9.2f} "
                  f"{entry['full'] / entry['delta']:>7.2f}x")
            results[f"{name} {kind}"] = entry
    key = save(BENCH_FILE, "us_per_eval", results)
    print(f"\nwrote {BENCH_FILE.name} entry {key}")


if __name__ == "__main__":
    main()
