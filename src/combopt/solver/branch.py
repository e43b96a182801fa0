"""One solver branch: a local-search loop with an attached subproblem sampler.

Each branch owns an independent RNG stream and an incumbent; the heuristic
loop (simulated annealing by default, tabu search optionally) explores the
encoding-feasible neighborhood, while a QUBO window subproblem is sampled
every ``qm_period`` units of local-search work and its decoded solutions
compete with the incumbent.  The unit is one per-step step: a list SA step,
or a tabu step.  An SA branch that steps in blocks (``Branch.blocks``) takes
``_BLOCK_STEPS_PER_STEP`` = 8 steps for the cost of one per-step step, so it
queries every ``8 * qm_period`` steps.  The 8 is measured against the
per-step SA that blocks replaced.  ``moves_bench.py`` read a block step, from
25, 50 and 75% of a 30000-step anneal on, at 0.47-0.71x, 0.12-0.20x and
0.07-0.12x a per-step one on kp50, and at 0.16x, 0.08-0.11x and 0.08-0.09x on
the generated 200-node maxcut: 5 to 14 block steps per step from half the
anneal on, where most steps fall.  One kp50 branch with queries off took about
9x the steps in a 1 s deadline (426-680k against 64-75k).  8 sits at the low
end of both, so a block-stepping branch does not query less than its work
says.
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
from ..state import BINARY, MoveBlock, State
from .config import SolverConfig
from .moves import (BLOCK_UNIFORMS, block_pool, draw_block, draw_state_move, initial_state,
                    propose_state, reverse_move, set_block, tabu_key)
from .sampleset import Sample, make_sample
from .subproblem import qm_query

_T_FLOOR = 1e-3  # final SA temperature as a fraction of T0
_RESTART_AFTER = 10_000  # steps without improvement before re-centring on the incumbent
_TABU_TENURE = 32  # steps a reversed move stays tabu
_QM_READS = 4  # annealing reads per subproblem query
_QM_SWEEPS = 64  # sweeps per read
_MAX_BLOCK = 64  # most SA candidates drawn and scored together
_BLOCK_STEPS_PER_STEP = 8  # block SA steps that cost one per-step step (module docstring)
_UNIFORMS = 4096  # uniforms per refill of a block-stepping branch's buffer
# margin on a block's bound -log(u): a candidate whose delta exceeds T times
# the bound fails u < math.exp(-delta / T) however the logarithm, the
# exponential and the temperature round, as they do to a few ulps
_EXP_SLACK = 1.0 + 1e-9


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


def _least(violation: np.ndarray, objective: np.ndarray, feasible: bool, free=None):
    """The index of the least ``(violation[i], objective[i])``, with NaN
    after every number in each and ties to the lowest index, over the ``i``
    where the mask ``free`` holds, or over all when it is None; None when it
    holds nowhere.  ``feasible`` says that every violation is 0.0, as on a
    model without constraints: then one ``argmin`` of the objectives decides,
    unless it meets a NaN (``argmin`` returns the first) or a masked entry.
    """
    if feasible:
        masked = objective if free is None else np.where(free, objective, np.inf)
        i = int(masked.argmin())
        least = masked.item(i)
        if least == least and (free is None or free.item(i)):
            return i
    among = np.arange(violation.size) if free is None else np.flatnonzero(free)
    if not among.size:
        return None
    return int(among[np.lexsort((objective[among], violation[among]))[0]])


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
        self.budget = 1  # the steps a cm_step call may take
        # whether the one decision is a set or bit array that the plan scores
        # as arrays; SA on it steps in blocks, from a buffer of uniforms: each
        # step reads `_width` of them
        self.arrays = len(model.decisions) == 1 and model.scores_blocks(0)
        self.blocks = config.cm_kind == "sa" and self.arrays
        if self.blocks:  # a move's uniforms and one for the accept test
            self._width = BLOCK_UNIFORMS[model.decisions[0].kind] + 1
            self._uniforms = self._accept = self._bounds = np.empty(0)
            self._used = 0
            self._run = 1.0  # recent steps per accepted candidate
            self._pool_of = self._pool = None  # a state and its draw_block pool
        # the steps between queries: qm_period units of local-search work
        self.qm_period = config.qm_period * (_BLOCK_STEPS_PER_STEP if self.blocks else 1)
        # tabu on such a bit array takes each step over all its flips, with a
        # tabu list of expiry steps per bit
        self.flips = None
        if config.cm_kind == "tabu" and self.arrays and model.decisions[0].kind == BINARY:
            self.flips = MoveBlock(0, np.arange(model.decisions[0].n))
            self.expiry = np.zeros(model.decisions[0].n, dtype=np.int64)

    # -- schedule calibration ---------------------------------------------------

    def calibrate(self, model: Model) -> None:
        """Initial temperature from neighbor probes; cooling to 1e-3 * T0.

        T0 is the mean of ``|delta|`` over the 100 random neighbors whose
        violation-then-objective change ``delta`` is not zero, downhill ones
        included (:func:`metropolis_delta`).  Each SA
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
        """One heuristic step, or up to ``budget`` of them on a block-stepping
        branch (:meth:`_sa_block`), short of a restart.  :meth:`step` sets the
        budget for its call; it is 1 otherwise."""
        if self.blocks:
            self._sa_block(model, min(self.budget, _RESTART_AFTER - self.stagnation))
        elif self.flips is not None:
            self._tabu_flips(model)
        elif self.config.cm_kind == "tabu":
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

    def _sa_block(self, model: Model, budget: int) -> None:
        """SA steps until one is accepted, at most ``budget`` of them and none
        at which a query is due, counting all but the last in ``steps``
        (:meth:`cm_step` counts that one).

        It draws ``k`` candidates from the current state at once, scores them
        as arrays (:meth:`Model.score_block`) and takes the first that the
        accept test of :meth:`_sa_step` passes; the later ones are dropped
        unread.  Step ``s`` reads the uniforms of row ``s`` of the buffer
        since its refill, which happens at the steps where the buffer runs
        out, so the chain does not depend on ``k``.  Under ``max_steps`` each
        candidate has the temperature of its own step; under a deadline all
        have the current one, and the clock is read once, after the block.
        ``k`` is four times the recent steps per accepted candidate, at most
        ``_MAX_BLOCK``, so that few blocks end without one.
        """
        if self._used == len(self._uniforms):
            us = self.rng.random((_UNIFORMS // self._width, self._width))
            self._uniforms, self._accept = us[:, :-1], us[:, -1]
            with np.errstate(divide="ignore"):
                # a candidate whose delta is above T * bound fails the accept test
                self._bounds = -np.log(self._accept) * _EXP_SLACK
            self._used = 0
        if self.config.qm_enabled and not self.qm_failed:  # stop short of the next query
            budget = min(budget, self.qm_period - self.steps % self.qm_period)
        used = self._used
        k = min(budget, _MAX_BLOCK, max(1, int(4 * self._run)), len(self._uniforms) - used)
        cur, cur_key = self.current_eval, self.current_eval.key
        spec, value = model.decisions[0], self.current.values[0]
        if self._pool_of is not self.current:  # states are read-only: one pool each
            self._pool_of, self._pool = self.current, block_pool(spec, value)
        block = draw_block(spec, value, self._uniforms[used:used + k], self._pool)
        violation, objective, score = model.score_block(self.current, cur, block)
        horizon = self.config.max_steps and max(1000, self.config.max_steps)
        # the temperature falls over a block, so the first one bounds the rest
        top = self.t0 * _T_FLOOR ** min(1.0, self.steps / horizon) if horizon else self.temp
        taken, accepted = k, None
        for i, (v, o, bound) in enumerate(zip(violation.tolist(), objective.tolist(),
                                               self._bounds[used:used + k].tolist())):
            delta = v - cur_key[1]  # metropolis_delta
            if delta == 0.0:
                delta = o - cur_key[2]
            if delta > top * bound:
                continue  # math.exp would reject it too
            temp = (self.t0 * _T_FLOOR ** min(1.0, (self.steps + i) / horizon) if horizon
                    else top)
            cand = score(i)
            if (delta <= 0.0 or _before(cand, cur)
                    or temp > 0.0 and self._accept.item(used + i) < math.exp(-delta / temp)):
                taken, accepted = i + 1, cand
                break
        self._used += taken
        self.steps += taken - 1
        self.stagnation += taken - 1
        if accepted is not None:
            self._run += (taken - self._run) / 4
            self.current, self.current_eval = accepted.build()
            self.offer(self.current, self.current_eval, "cm")
        else:
            self._run = max(self._run, taken)
        self._cool()

    def _tabu_step(self, model: Model) -> None:
        """One tabu step over ``tabu_candidates`` drawn moves: those of a set
        that the plan scores as arrays in one block, any others one by one."""
        # a score draws nothing, so drawing every candidate first keeps the stream
        cur, cur_eval = self.current, self.current_eval
        moves = [draw_state_move(model, cur, self.rng) for _ in range(self.config.tabu_candidates)]
        if self.arrays:  # a set: a tabu branch on a bit array steps in _tabu_flips
            violation, objective, score = model.score_block(
                cur, cur_eval, set_block(moves, model.decisions[0].n))
            keys = list(zip(np.where(violation == 0.0, 0, 1).tolist(), violation.tolist(),
                            objective.tolist()))
        else:
            scores = [model.score_move(cur, cur_eval, move) for move in moves]
            keys, score = [s.key for s in scores], scores.__getitem__
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

    def _tabu_flips(self, model: Model) -> None:
        """One tabu step over every flip of the bit array, which it scores as
        one block (:meth:`Model.score_block`) and draws nothing for.

        It takes the least flip on (total violation, objective)
        (:func:`_least`) if that is strictly below the incumbent's (the
        aspiration), and otherwise the least flip whose bit is not tabu; when
        every bit is tabu it takes none.  Only the flip it takes is built.  A
        flip is its own reverse, so its bit is tabu for ``_TABU_TENURE``
        steps: ``expiry`` holds the step at which each bit is free again.
        """
        violation, objective, score = model.score_block(self.current, self.current_eval,
                                                        self.flips)
        feasible = not model.constraints or not np.count_nonzero(violation)
        i = _least(violation, objective, feasible)
        if (self.expiry.item(i) > self.steps and
                not (violation.item(i), objective.item(i)) < self.incumbent_eval.key[1:3]):
            i = _least(violation, objective, feasible, self.expiry <= self.steps)
            if i is None:
                return
        self.expiry[i] = self.steps + _TABU_TENURE
        self.current, self.current_eval = score(i).build()
        self.offer(self.current, self.current_eval, "cm")

    # -- one step -------------------------------------------------------------------

    def step(self, model: Model, budget: int = 1) -> int:
        """Up to ``budget`` heuristic steps, one unless the branch steps in
        blocks; returns how many it took.  When a query is due, its window is
        sampled before the step, the call takes that one step, and the
        decoded, feasible samples are offered after it.  No call passes a
        step at which a query is due."""
        reads = ()
        if (self.config.qm_enabled and not self.qm_failed and self.steps > 0
                and self.steps % self.qm_period == 0):
            budget = 1
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
        start = self.steps
        self.budget = budget
        self.cm_step(model)
        self.budget = 1
        for bits, _ in reads:
            state = query.decode(bits)
            if state is None:
                continue
            ev = model.evaluate_unchecked(state)
            if ev.feasible and self.offer(state, ev, "qm"):
                self.current = state
                self.current_eval = ev
        return self.steps - start

    def finalize(self) -> None:
        self.record_improvement("final")

