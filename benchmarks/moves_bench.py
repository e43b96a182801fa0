"""Benchmark moves: µs per draw, score, build and full evaluation of each move kind.

On kp50, disc52, a generated 200-node maxcut and a random 1000-city EUC_2D
tour it draws DRAWS moves around one random state with ``draw_state_move``
and groups them by kind.  For each kind it times the draw (the median of the
single calls), ``Model.score_move`` ("score"), ``score_move(...).build()``
("score+build") and ``Model.evaluate_unchecked`` of the moved state ("full"),
the last three as the best of REPEATS passes over the kind's moves, taken in
turn so that a change of machine speed hits them alike.  Before it times a
score, it checks every built candidate of every model against the full
evaluation of its state bit for bit, flip fields included, and exits
non-zero at the first that differs.
On a set it also times ``Model.score_block`` of each move alone ("block1"),
where the tree has it, against its ``score_move``.
It times the SA steps of one branch of kp50, mc200 and disc52 from 25%, 50%
and 75% of a 30000-step ``max_steps`` anneal on, through the solver's own
step loop (``portfolio._interleave``), and the tabu steps of one mc200 branch
and one kp50 branch (``tabu_candidates=12``), with subproblem queries off.
On disc52, a list, both trees take the same SA steps; on kp50 and mc200 a
tree that steps in blocks takes other ones, from the same stream.  A tabu
step on mc200 scores all 200 flips where the tree scans the whole
neighbourhood of a bit array, and 12 drawn flips where it does not; a kp50
tabu step draws and scores 12 set moves in every tree, a control for the
rest of the step loop.
Last, it times ``validate_state`` on one random state of each model, of
criterion 4's six-decision model and of a 4096-bit array.

    PYTHONPATH=src python3 benchmarks/moves_bench.py [--base OTHER/src] [--pairs 5]

It merges every run into ``BENCH_moves.json`` (see ``benchfile``).
"""

import copy
import dataclasses
import math
import statistics
import struct
import threading
import time

import numpy as np

import benchfile

BENCH_FILE = benchfile.ROOT / "BENCH_moves.json"
MODELS = ("kp50", "disc52", "mc200", "tsp1000")
DRAWS = 6_000
REPEATS = 5
TABU_STEPS = 2_000  # per timed block
STEP_REPEATS = 3
ANNEAL = 30_000  # the max_steps of the timed SA branches
SA_STEPS = 2_000  # per timed block, from each percent of the anneal in SA_AT
SA_AT = (25, 50, 75)
SA_MODELS = ("kp50", "mc200", "disc52")
VALIDATES = 2_000  # per timed block
VALIDATE_REPEATS = 5
clock = time.perf_counter


def _bits(ev) -> tuple:
    floats = [ev.objective, *ev.violations, *(ev.sums or ())]
    return struct.pack(f"<{len(floats)}d", *floats), ev.state_key


def _field_bytes(ev) -> list:
    return [f.tobytes() for f in ev.fields]


def check(name: str, model, state, ev, moves) -> None:
    """Exit at the first move whose built evaluation, flip fields included,
    differs from the full one."""
    for move in moves:
        moved, built = model.score_move(state, ev, move).build()
        full = model.evaluate_unchecked(moved)
        # a full evaluation of a tree that made the fields at the first flip has none
        if _bits(built) != _bits(full) or (
                full.fields is not None and _field_bytes(built) != _field_bytes(full)):
            raise SystemExit(f"{name}: the built evaluation of move {move} differs from "
                             f"the full evaluation of its state")


def kind_us(model, state, ev, moves) -> dict[str, float]:
    """Best-of-REPEATS µs per score, score and build, and full evaluation of ``moves``."""
    score, evaluate = model.score_move, model.evaluate_unchecked
    candidates = [state.moved(move) for move in moves]

    def scores():
        for move in moves:
            score(state, ev, move)

    def builds():
        for move in moves:
            score(state, ev, move).build()

    def fulls():
        for cand in candidates:
            evaluate(cand)

    passes = {"score": scores, "score+build": builds, "full": fulls}
    if hasattr(model, "score_block") and moves[0][1][0] in ("add", "drop", "exch"):
        from combopt.state import MoveBlock

        n = model.decisions[0].n  # names no element: an add drops it, a drop adds it
        blocks = [MoveBlock(0, np.array([n if tag[0] == "drop" else tag[-1]]),
                            np.array([n if tag[0] == "add" else tag[1]]), n)
                  for _, tag in moves]

        def block1():
            for block in blocks:
                model.score_block(state, ev, block)

        passes["block1"] = block1
    best = dict.fromkeys(passes, float("inf"))
    for _ in range(REPEATS):
        for case, run in passes.items():
            t0 = clock()
            run()
            best[case] = min(best[case], clock() - t0)
    return {case: t * 1e6 / len(moves) for case, t in best.items()}


def draw(model):
    """One random state of ``model``, its evaluation, and DRAWS moves around it
    with the seconds each draw took, both by move kind."""
    from combopt.solver import draw_state_move, initial_state

    rng = np.random.default_rng(0)
    state = initial_state(model, rng)
    moves: dict[str, list] = {}
    seconds: dict[str, list[float]] = {}
    for _ in range(DRAWS):
        t0 = clock()
        move = draw_state_move(model, state, rng)
        t = clock() - t0
        moves.setdefault(move[1][0], []).append(move)
        seconds.setdefault(move[1][0], []).append(t)
    return state, model.evaluate_unchecked(state), moves, seconds


def tabu_step_us(model) -> float:
    """Median over STEP_REPEATS blocks of the µs per tabu step of one branch."""
    from combopt.solver import SolverConfig
    from combopt.solver.branch import Branch

    config = SolverConfig(seed=0, n_branches=1, max_steps=STEP_REPEATS * TABU_STEPS,
                          qm_enabled=False, cm_kind="tabu", tabu_candidates=12)
    br = Branch(0, model, config, lambda: 0.0, 1.0)
    br.calibrate(model)
    blocks = []
    for _ in range(STEP_REPEATS):
        t0 = clock()
        for _ in range(TABU_STEPS):
            br.cm_step(model)
        blocks.append(clock() - t0)
    return statistics.median(blocks) * 1e6 / TABU_STEPS


def sa_step_us(model) -> dict[int, float]:
    """By percent in SA_AT, the median over STEP_REPEATS copies of one SA
    branch of the µs per step of its next SA_STEPS steps from that percent of
    an ANNEAL-step anneal on, taken by ``portfolio._interleave``."""
    from combopt.solver import SolverConfig
    from combopt.solver.branch import Branch
    from combopt.solver.portfolio import _interleave

    config = SolverConfig(seed=0, n_branches=1, max_steps=ANNEAL, qm_enabled=False)
    br = Branch(0, model, config, lambda: 0.0, 1.0)
    br.calibrate(model)

    def run_to(branch, step: int) -> None:
        # the branch cools over ANNEAL steps; the loop stops at `step`
        _interleave([branch], model, dataclasses.replace(config, max_steps=step), math.inf,
                    threading.Event())

    out = {}
    for percent in SA_AT:
        start = ANNEAL * percent // 100
        run_to(br, start)
        blocks = []
        for _ in range(STEP_REPEATS):
            timed = copy.deepcopy(br)
            t0 = clock()
            run_to(timed, start + SA_STEPS)
            blocks.append(clock() - t0)
        out[percent] = statistics.median(blocks) * 1e6 / SA_STEPS
    return out


def validate_models():
    """Criterion 4's six-decision model and one 4096-bit array."""
    from combopt import Model

    crit4 = Model()
    crit4.list(12)
    crit4.set(10)
    crit4.binary(8)
    crit4.disjoint_lists(9, 3)
    crit4.disjoint_bit_sets(8, 2)
    crit4.integer(5, lo=-2, hi=4)
    yield "crit4", crit4
    bits = Model()
    bits.binary(4096)
    yield "bits4096", bits


def validate_us(model) -> float:
    """Median over VALIDATE_REPEATS blocks of the µs per ``validate_state`` call."""
    from combopt.solver import initial_state

    state = initial_state(model, np.random.default_rng(0))
    assert model.validate_state(state) == []
    blocks = []
    for _ in range(VALIDATE_REPEATS):
        t0 = clock()
        for _ in range(VALIDATES):
            model.validate_state(state)
        blocks.append(clock() - t0)
    return statistics.median(blocks) * 1e6 / VALIDATES


def measure() -> dict[str, float]:
    """Every figure of one run, for the ``combopt`` on the import path."""
    drawn = {}
    for name in MODELS:
        model = benchfile.load(name)[1].freeze()
        drawn[name] = model, *draw(model)
    for name, (model, state, ev, moves, _) in drawn.items():
        for kind_moves in moves.values():
            check(name, model, state, ev, kind_moves)
    out = {}
    for name, (model, state, ev, moves, seconds) in drawn.items():
        for kind in sorted(moves):
            out[f"{name} {kind} draw"] = statistics.median(seconds[kind]) * 1e6
            for case, us in kind_us(model, state, ev, moves[kind]).items():
                out[f"{name} {kind} {case}"] = us
        if name in SA_MODELS:
            for percent, us in sa_step_us(model).items():
                out[f"{name} sa step {percent}%"] = us
        if name in ("kp50", "mc200"):
            out[f"{name} tabu step"] = tabu_step_us(model)
        out[f"{name} validate"] = validate_us(model)
    for name, model in validate_models():
        out[f"{name} validate"] = validate_us(model)
    return out


if __name__ == "__main__":
    benchfile.main(measure, BENCH_FILE, "us_per_move", "us")
