"""Benchmark proposals: µs per draw and evaluation of each move kind, and per SA step.

On kp50, a generated 200-node maxcut and disc52 it draws candidates around one
random state and times each draw together with its evaluation, grouped by the
kind of move drawn.  As in a branch, ``Model.score_move`` answers it and
builds a candidate only where the model's delta plan cannot score it from its
tag.
It also times the SA steps of one kp50 branch, the SA steps of one mc200
branch (one flip scored and, when taken, built) and the tabu steps (12
candidates each) of one mc200 branch, with subproblem queries off.  Both sides
of a comparison make the same random calls, so they time the same moves.

    PYTHONPATH=src python3 benchmarks/moves_bench.py [--base OTHER/src] [--pairs 5]

Every run happens in a fresh process.  With ``--base`` the runs alternate
between that source tree and this checkout's ``src``, and the side that starts
a pair alternates too: single runs on a shared machine are not comparable.
The script prints the median µs of each side and merges every run into
``BENCH_moves.json`` at the repository root under the short hash of the
checked-out commit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from benchfile import ROOT, save

BENCH_FILE = ROOT / "BENCH_moves.json"
DATA = ROOT / "data"
DRAWS = 20_000
STEPS = {"sa": 10_000, "tabu": 2_000}  # per timed block
STEP_REPEATS = 3


def models():
    from combopt.problems import (build_kp_model, build_mcp_model, build_tsp_model,
                                  generate_random_maxcut, parse_kplib, parse_tsplib)

    yield "kp50", build_kp_model(parse_kplib((DATA / "kp50.kp").read_text(), "kp50"))
    yield "mc200", build_mcp_model(generate_random_maxcut(200, 0.1, seed=0, name="mc200"))
    yield "disc52", build_tsp_model(parse_tsplib((DATA / "disc52.tsp").read_text(), "disc52"))


def draw_and_evaluate(model) -> dict[str, float]:
    """Median µs of a draw plus its evaluation, by move kind."""
    from combopt.solver import draw_state_move, initial_state

    rng = np.random.default_rng(0)
    state = initial_state(model, rng)
    ev = model.evaluate_unchecked(state)
    times: dict[str, list[float]] = {}
    clock = time.perf_counter
    for _ in range(DRAWS):
        t0 = clock()
        move = draw_state_move(model, state, rng)
        model.score_move(state, ev, move)
        times.setdefault(move[1][0], []).append(clock() - t0)
    return {kind: statistics.median(ts) * 1e6 for kind, ts in times.items()}


def step_us(model, kind: str) -> float:
    """Median over STEP_REPEATS blocks of the µs per ``kind`` step of one branch."""
    from combopt.solver import SolverConfig
    from combopt.solver.branch import Branch

    steps = STEPS[kind]
    config = SolverConfig(seed=0, n_branches=1, max_steps=STEP_REPEATS * steps,
                          qm_enabled=False, cm_kind=kind, tabu_candidates=12)
    br = Branch(0, model, config, lambda: 0.0, 1.0)
    br.calibrate(model)
    blocks = []
    for _ in range(STEP_REPEATS):
        t0 = time.perf_counter()
        for _ in range(steps):
            br.cm_step(model)
        blocks.append(time.perf_counter() - t0)
    return statistics.median(blocks) * 1e6 / steps


def measure() -> dict[str, float]:
    """Every figure of one run, for the ``combopt`` on the import path."""
    out = {}
    for name, model in models():
        model.freeze()
        for kind, us in sorted(draw_and_evaluate(model).items()):
            out[f"{name} {kind}"] = us
        if name == "kp50":
            out["kp50 sa step"] = step_us(model, "sa")
        if name == "mc200":
            out["mc200 sa step"] = step_us(model, "sa")
            out["mc200 tabu step"] = step_us(model, "tabu")
    return out


def run(src: Path) -> dict[str, float]:
    """One run in a fresh process importing ``combopt`` from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--worker"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="source tree to compare against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure()))
        return

    sides = {"this": ROOT / "src"}
    if args.base is not None:
        sides["base"] = args.base.resolve()
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for p in range(args.pairs):
        order = list(sides) if p % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(run(sides[side]))
            print(f"pair {p + 1}/{args.pairs}: {side} done", file=sys.stderr)

    cases = list(runs["this"][0])
    results = {side: {case: {"median": round(statistics.median(r[case] for r in rs), 2),
                             "runs": [round(r[case], 2) for r in rs]}
                      for case in cases if all(case in r for r in rs)}
               for side, rs in runs.items()}
    header = f"{'case':<16} {'this us':>9}"
    if "base" in results:
        header += f" {'base us':>9} {'base/this':>9}"
    print(header)
    print("-" * len(header))
    for case in cases:
        this = results["this"][case]["median"]
        row = f"{case:<16} {this:>9.2f}"
        if "base" in results and case in results["base"]:
            base = results["base"][case]["median"]
            row += f" {base:>9.2f} {base / this:>8.2f}x"
        print(row)
    key = save(BENCH_FILE, "us_per_move", {"pairs": args.pairs, **results})
    print(f"\nwrote {BENCH_FILE.name} entry {key}")


if __name__ == "__main__":
    main()
