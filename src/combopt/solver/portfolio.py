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

import time
from concurrent.futures import ThreadPoolExecutor

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
        workers = min(n_branches, 4, config.threads or 4)
        executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="qm")

    hit_target = False
    try:
        while not hit_target:
            alive = False
            for br in branches:
                if config.max_steps is not None and br.steps >= config.max_steps:
                    continue
                alive = True
                for _ in range(_CHUNK):
                    if config.max_steps is not None and br.steps >= config.max_steps:
                        break
                    if time.monotonic() >= deadline:
                        alive = False
                        break
                    br.consume_mailbox(model)
                    if br.want_query():
                        br.launch_query(model, executor)
                    br.cm_step(model)
                    if (
                        config.target is not None
                        and br.incumbent_eval.feasible
                        and br.incumbent_eval.objective <= config.target + 1e-9
                    ):
                        hit_target = True
                        break
                if hit_target or time.monotonic() >= deadline:
                    break
            if time.monotonic() >= deadline or not alive:
                break
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
        config=config.echo(),
        wall_time=clock(),
        warnings=warnings,
    )
