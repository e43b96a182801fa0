"""Solver configuration."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .. import forking
from ..errors import DomainError


@dataclass
class SolverConfig:
    """Portfolio solver knobs.

    ``time_limit`` is the wall-clock stop in seconds, finite and > 0 (``None``
    scales with problem size as ``max(5, elements / 20)``).  ``max_steps``
    optionally adds a deterministic per-branch iteration stop: wall-clock
    cutoffs cannot be byte-reproducible, so reproducibility-sensitive runs set
    ``max_steps`` (see README), with any ``n_branches``.  ``target`` stops the
    whole solve once a feasible incumbent reaches the given objective value, a
    finite int or float; with forked branches, the step at which the others
    stop depends on timing.  ``seed`` is an int.
    ``qm_enabled`` and ``qm_inline`` must be bools.  ``qm_inline`` selects
    nothing, as every query runs inline; it stays while the perfbench workloads
    pass it and goes with perfbench's Housekeeping change (ROADMAP).

    The SA branches cool from T0 to 1e-3 * T0 by elapsed wall time over
    ``time_limit`` when ``max_steps`` is None, and by steps over
    ``max(1000, max_steps)`` when it is set.

    A tabu branch whose model has one decision, a bit array that the delta
    plan scores as arrays (no one-term root such as ``x[2]`` reads it), takes
    each step over all of its flips and draws nothing.  ``tabu_candidates`` is
    the number of moves that every other tabu step draws: on a set, a list, a
    partition, an integer array, a bit array that a one-term root reads, or a
    model with more than one decision or without a plan.

    ``qm_period`` is the local-search work between two subproblem queries,
    counted in per-step steps: a list SA branch and every tabu branch query
    every ``qm_period`` steps.  An SA branch that steps in blocks (one set or
    bit array that the plan scores as arrays) takes 8 steps for the cost of
    one, so it queries every ``8 * qm_period`` steps.  The 8 is
    ``_BLOCK_STEPS_PER_STEP`` in ``solver/branch.py``, where its measurements
    are given; the README's section on subproblem queries has the effect.

    The restart interval, the tabu tenure and the reads and sweeps of a query
    are constants in ``solver/branch.py``: the solver keeps its search settings
    internal, and ``n_branches`` is its one parallelism setting: with more
    than one branch each runs in its own forked process where ``fork`` exists.
    """

    time_limit: float | None = None
    n_branches: int | None = None
    seed: int = 0
    cm_kind: str = "sa"  # "sa" or "tabu"
    qm_enabled: bool = True
    qm_period: int = 500
    qm_window: int = 16
    qm_inline: bool = False
    max_steps: int | None = None
    target: float | None = None
    tabu_candidates: int = 12

    def __post_init__(self):
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise DomainError("time_limit must be a finite number > 0")
        for name in ("n_branches", "qm_period", "qm_window", "tabu_candidates", "max_steps"):
            value = getattr(self, name)
            if value is None and name in ("n_branches", "max_steps"):
                continue  # unset: one branch per CPU up to 8, no step stop
            if type(value) is not int:  # bools too: the counts bound slices and loops
                raise DomainError(f"{name} must be an integer")
            if value < 1:
                raise DomainError(f"{name} must be >= 1")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise DomainError("seed must be an integer")
        if self.target is not None and (
                not isinstance(self.target, numbers.Real) or isinstance(self.target, bool)
                or not math.isfinite(self.target)):
            raise DomainError("target must be a finite number")
        for name in ("qm_enabled", "qm_inline"):
            if type(getattr(self, name)) is not bool:
                raise DomainError(f"{name} must be true or false")
        if self.cm_kind not in ("sa", "tabu"):
            raise DomainError(f"unknown cm_kind {self.cm_kind!r}")

    def resolved_branches(self) -> int:
        return self.n_branches or forking.default_workers()

    def resolved_time_limit(self, n_elements: int) -> float:
        if self.time_limit is not None:
            return float(self.time_limit)
        return max(5.0, n_elements / 20.0)
