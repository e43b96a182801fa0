"""Portfolio front end: equally structured branches with merged results.

``solve`` spawns ``n_branches`` identical branch workflows that differ only
in their RNG streams, interleaves them round-robin until the wall-clock limit
(or the optional deterministic step budget) is exhausted, then merges every
branch's deposited samples into one best-first :class:`SampleSet`.

Subproblem sampling runs on a small thread pool, with mailbox delivery at step
boundaries, only for the numba kernel, which releases the GIL.  The numpy
fallback holds it, so pool threads would take it from the branches at moments
that vary from run to run: its queries run inline, as with ``qm_inline``.  So
the step rate is not known in advance, and each branch cools by elapsed time
under a wall-clock limit, by steps under ``max_steps`` (``Branch.calibrate``).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

from ..errors import StateError
from ..modeling import Model
from ..qubo.sampler import default_backend
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

    branches = [Branch(b, model, config, clock, time_limit) for b in range(n_branches)]
    for br in branches:
        br.calibrate(model)

    executor = None
    if config.qm_enabled and not config.qm_inline and default_backend() == "numba":
        executor = ThreadPoolExecutor(max_workers=min(n_branches, 4), thread_name_prefix="qm")

    try:
        _interleave(branches, model, config, deadline, executor)
        for br in branches:
            br.consume_mailbox(model)
            br.finalize()
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    samples = [s for br in branches for s in br.samples]
    warnings = [w for br in branches for w in br.warnings]
    return SampleSet(
        samples=samples,
        config=asdict(config),
        wall_time=clock(),
        warnings=warnings,
    )


def _interleave(branches, model: Model, config: SolverConfig, deadline: float,
                executor) -> None:
    """Step the branches round-robin, ``_CHUNK`` steps at a time, until one
    stop condition holds: every branch has taken ``max_steps`` steps, the
    deadline has passed, or an incumbent has reached ``target``."""
    max_steps = math.inf if config.max_steps is None else config.max_steps
    goal = None if config.target is None else config.target + 1e-9
    while any(br.steps < max_steps for br in branches):
        for br in branches:
            for _ in range(min(_CHUNK, max_steps - br.steps)):
                if time.monotonic() >= deadline:
                    return
                br.consume_mailbox(model)
                if br.want_query():
                    br.launch_query(model, executor)
                br.cm_step(model)
                if (goal is not None and br.incumbent_eval.feasible
                        and br.incumbent_eval.objective <= goal):
                    return
