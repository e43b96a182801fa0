"""Portfolio front end: equally structured branches with merged results.

``solve`` runs ``n_branches`` identical branch workflows that differ only in
their RNG streams until the wall-clock limit (or the optional deterministic
step budget) is exhausted, then merges every branch's deposited samples, in
branch order, into one best-first :class:`SampleSet`.

With more than one branch, each runs in its own forked process where ``fork``
exists, through the package's one fork helper, ``forking.run_forked``: the
frozen model is inherited, not pickled, every child cools by the same
``time.monotonic`` clock, a ``target`` stop is the event the helper shares
with every child, and a child's error is re-raised in the parent with its own
type.
Otherwise the branches step round-robin, ``_CHUNK`` step calls at a time, here.

Each branch samples its subproblem queries inline, inside its own steps
(``Branch.step``), so ``max_steps`` alone makes a solve byte-reproducible.
Queries make the step rate uneven and unknown in advance, so each branch cools
by elapsed time under a wall-clock limit, by steps under ``max_steps``
(``Branch.calibrate``).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import asdict

from .. import forking
from ..errors import StateError
from ..modeling import Model
from .branch import Branch
from .config import SolverConfig
from .sampleset import SampleSet

_CHUNK = 32


def solve(model: Model, config: SolverConfig | None = None) -> SampleSet:
    """Run the portfolio on a model with exactly one objective."""
    config = config or SolverConfig()
    model.freeze()
    if model.objective is None:
        raise StateError("solve requires a model with an objective")

    n_elements = sum(spec.n for spec in model.decisions)
    time_limit = config.resolved_time_limit(n_elements)
    n_branches = config.resolved_branches()

    t_start = time.monotonic()
    deadline = t_start + time_limit

    def clock() -> float:
        return time.monotonic() - t_start

    def run(indices, stop) -> list[tuple[list, list[str]]]:
        """Run the branches ``indices`` in this process; their samples and warnings."""
        branches = [Branch(b, model, config, clock, time_limit) for b in indices]
        for br in branches:
            br.calibrate(model)
        _interleave(branches, model, config, deadline, stop)
        for br in branches:
            br.finalize()
        return [(br.samples, br.warnings) for br in branches]

    if n_branches > 1 and forking.fork_available():
        results = forking.run_forked(lambda b, stop: run([b], stop)[0], n_branches, "branch")
    else:
        results = run(range(n_branches), threading.Event())

    return SampleSet(
        samples=[s for samples, _ in results for s in samples],
        config=asdict(config),
        wall_time=clock(),
        warnings=[w for _, warnings in results for w in warnings],
    )


def _interleave(branches, model: Model, config: SolverConfig, deadline: float, stop) -> None:
    """Step the branches round-robin, ``_CHUNK`` step calls at a time, until
    one stop condition holds: every branch has taken ``max_steps`` steps, the
    deadline has passed, or an incumbent has reached ``target``.  A call may
    take several steps (:meth:`Branch.step`), up to the branch's last.  The
    branch that reaches the target sets ``stop``, which every branch checks
    between chunks."""
    max_steps = math.inf if config.max_steps is None else config.max_steps
    goal = None if config.target is None else config.target + 1e-9
    while any(br.steps < max_steps for br in branches):
        for br in branches:
            if stop.is_set():
                return
            for _ in range(_CHUNK):
                if br.steps >= max_steps:
                    break
                if time.monotonic() >= deadline:
                    return
                br.step(model, max_steps - br.steps)
                if (goal is not None and br.incumbent_eval.feasible
                        and br.incumbent_eval.objective <= goal):
                    stop.set()
                    return
