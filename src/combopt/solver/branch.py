"""One solver branch: a local-search loop with an attached subproblem sampler.

Each branch owns an independent RNG stream and an incumbent; the heuristic
loop (simulated annealing by default, tabu search optionally) explores the
encoding-feasible neighborhood, while every ``qm_period`` steps a QUBO window
subproblem is sampled and its decoded solutions compete with the incumbent.
A query runs inline, on the stepping thread, within one ``Branch.step``: the
window is sampled before the heuristic step and its decoded samples are offered
after it, so a fixed step budget (``max_steps``) alone makes a branch's
trajectory reproducible.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from ..modeling import Evaluation, Model, Score
from ..qubo.sampler import sa_sample
from ..state import State
from .config import SolverConfig
from .moves import (draw_state_move, draw_state_moves, initial_state, propose_state,
                    reverse_move, tabu_key)
from .sampleset import Sample, make_sample
from .subproblem import qm_query

_T_FLOOR = 1e-3  # final SA temperature as a fraction of T0
_RESTART_AFTER = 10_000  # steps without improvement before re-centring on the incumbent
_TABU_TENURE = 32  # steps a reversed move stays tabu
_QM_READS = 4  # annealing reads per subproblem query
_QM_SWEEPS = 64  # sweeps per read


def metropolis_delta(key: tuple, cur: tuple) -> float:
    """Uphill magnitude on the violation-then-objective scale, from the keys of
    a candidate and of the current state (their first three entries suffice)."""
    dv = key[1] - cur[1]
    if dv != 0.0:
        return dv
    return key[2] - cur[2]


def _before(score: Score, ev: Evaluation) -> bool:
    """Whether the candidate of ``score`` orders before ``ev``.  The first three
    key entries decide unless they tie; then the digests do, and the candidate
    is built for its digest."""
    key, prefix = score.key, ev.key[:3]
    if key == prefix:
        return score.build()[1].key < ev.key
    return key < prefix


def _walk_order(keys: list):
    """Candidate indices by key, ties in draw order (the sort is stable).  Keys
    with a NaN are not ordered, so then the draw order is kept (a sum of
    infinities of both signs keeps it too, which is slower but as right)."""
    total = sum(chain.from_iterable(keys))
    if total != total:
        return range(len(keys))
    return sorted(range(len(keys)), key=keys.__getitem__)


class Branch:
    """State of one branch; stepped by the portfolio front end."""

    def __init__(self, index: int, model: Model, config: SolverConfig, clock,
                 time_limit: float):
        self.index = index
        self.config = config
        self.clock = clock  # seconds since the solve started
        self.time_limit = time_limit
        self.rng = np.random.default_rng([config.seed & 0xFFFFFFFFFFFFFFFF, index])
        self.steps = 0
        self.stagnation = 0
        self.samples: list[Sample] = []
        self.warnings: list[str] = []
        self.tabu: dict = {}
        self.qm_failed = False
        n_max = max(spec.n for spec in model.decisions)
        if config.qm_enabled and config.qm_window > n_max:
            self.warnings.append(f"branch {index}: window {config.qm_window} clamped to {n_max}")

        self.current = initial_state(model, self.rng)
        self.current_eval = model.evaluate_unchecked(self.current)
        self.incumbent = self.current
        self.incumbent_eval = self.current_eval
        self.record_improvement("init")

        self.t0 = 1.0
        self.temp = 1.0

    # -- schedule calibration ---------------------------------------------------

    def calibrate(self, model: Model) -> None:
        """Initial temperature from neighbor probes; cooling to 1e-3 * T0.

        T0 is the mean uphill magnitude over 100 random neighbors.  Each SA
        step then sets ``T = T0 * 1e-3^min(1, progress)``.  Under a wall-clock
        limit ``progress`` is ``elapsed / time_limit``, so the temperature
        reaches its floor at the deadline however many steps the branch gets.
        Under ``max_steps`` it is ``steps / max(1000, max_steps)``, counting
        the step being taken, which keeps fixed-work runs deterministic.
        """
        deltas = []
        for _ in range(100):
            _, move = propose_state(model, self.current, self.rng)
            score = model.score_move(self.current, self.current_eval, move)
            d = abs(metropolis_delta(score.key, self.current_eval.key))
            if d > 0:
                deltas.append(d)
        self.t0 = float(np.mean(deltas)) if deltas else 1.0
        self.temp = self.t0

    def _cool(self) -> None:
        if self.config.max_steps is None:
            progress = self.clock() / self.time_limit
        else:
            progress = (self.steps + 1) / max(1000, self.config.max_steps)
        self.temp = self.t0 * _T_FLOOR ** min(1.0, progress)

    # -- sampling hooks -----------------------------------------------------------

    def record_improvement(self, source: str) -> None:
        """Deposit the incumbent as a sample from ``source``."""
        self.samples.append(
            make_sample(self.incumbent, self.incumbent_eval, self.index,
                        self.steps, source, self.clock())
        )

    def offer(self, state: State, ev: Evaluation, source: str) -> bool:
        """Replace the incumbent when strictly better; True when it improved."""
        if ev.key < self.incumbent_eval.key:
            self.incumbent = state
            self.incumbent_eval = ev
            self.stagnation = 0
            self.record_improvement(source)
            return True
        return False

    # -- the classical heuristic step ----------------------------------------------

    def cm_step(self, model: Model) -> None:
        if self.config.cm_kind == "tabu":
            self._tabu_step(model)
        else:
            self._sa_step(model)
        self.steps += 1
        self.stagnation += 1
        if self.stagnation >= _RESTART_AFTER:
            # re-center the walk on the incumbent; the cooling schedule keeps
            # its course (resetting it would keep the search hot forever)
            self.current = self.incumbent
            self.current_eval = self.incumbent_eval
            self.stagnation = 0

    def _sa_step(self, model: Model) -> None:
        score = model.score_move(self.current, self.current_eval,
                                 draw_state_move(model, self.current, self.rng))
        accept = _before(score, self.current_eval)
        if not accept:
            delta = metropolis_delta(score.key, self.current_eval.key)
            if delta <= 0.0:
                accept = True
            elif self.temp > 0.0:
                accept = self.rng.random() < math.exp(-delta / self.temp)
        if accept:
            self.current, self.current_eval = score.build()
            self.offer(self.current, self.current_eval, "cm")
        self._cool()

    def _tabu_step(self, model: Model) -> None:
        # a score draws nothing, so drawing every candidate first keeps the stream
        moves = draw_state_moves(model, self.current, self.rng, self.config.tabu_candidates)
        keys, score = model.score_moves(self.current, self.current_eval, moves)
        best = None  # the score of the best admissible candidate
        for i in _walk_order(keys):
            if best is not None and not keys[i] <= best.key:
                continue  # it cannot win
            cand = score(i)
            if (self.tabu.get(tabu_key(cand.move), -1) > self.steps
                    and not _before(cand, self.incumbent_eval)):
                continue  # tabu unless it beats the incumbent (aspiration)
            if best is not None and cand.key == best.key and not _before(cand, best.build()[1]):
                continue  # a tie that the digests give to the best so far
            best = cand
        if best is None:
            return
        self.tabu[reverse_move(best.move)] = self.steps + _TABU_TENURE
        if len(self.tabu) > 4 * _TABU_TENURE * self.config.tabu_candidates:
            self.tabu = {k: v for k, v in self.tabu.items() if v > self.steps}
        self.current, self.current_eval = best.build()
        self.offer(self.current, self.current_eval, "cm")

    # -- one step -------------------------------------------------------------------

    def step(self, model: Model) -> None:
        """One heuristic step.  When a query is due, its window is sampled before
        the step and its decoded, feasible samples are offered after it."""
        reads = ()
        if (self.config.qm_enabled and not self.qm_failed and self.steps > 0
                and self.steps % self.config.qm_period == 0):
            query = qm_query(model, self.incumbent, self.config.qm_window, self.rng)
            if query is None:
                self.qm_failed = True
                self.warnings.append(f"branch {self.index}: model has no problem-family tag; "
                                     "subproblem sampling disabled")
            else:
                seed = int(self.rng.integers(0, 2**63 - 1))
                try:
                    reads = sa_sample(query.qubo, reads=_QM_READS, sweeps=_QM_SWEEPS, seed=seed)
                except Exception as exc:  # sampler failure must not kill the branch
                    self.qm_failed = True
                    self.warnings.append(
                        f"branch {self.index}: subproblem sampling failed: {exc}")
        self.cm_step(model)
        for bits, _ in reads:
            state = query.decode(bits)
            if state is None:
                continue
            ev = model.evaluate_unchecked(state)
            if ev.feasible and self.offer(state, ev, "qm"):
                self.current = state
                self.current_eval = ev

    def finalize(self) -> None:
        self.record_improvement("final")

