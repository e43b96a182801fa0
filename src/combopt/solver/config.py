"""Solver configuration."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

from ..errors import DomainError


def default_branch_count() -> int:
    return min(os.cpu_count() or 1, 8)


@dataclass
class SolverConfig:
    """Portfolio solver knobs.

    ``time_limit`` is the wall-clock stop in seconds (``None`` scales with
    problem size as ``max(5, elements / 20)``).  ``max_steps`` optionally adds
    a deterministic per-branch iteration stop: wall-clock cutoffs cannot be
    byte-reproducible, so reproducibility-sensitive runs set ``max_steps`` and
    ``qm_inline`` (see README).  ``target`` stops the whole solve as soon as a
    feasible incumbent reaches the given objective value.

    The SA branches cool from T0 to 1e-3 * T0 by elapsed wall time over
    ``time_limit`` when ``max_steps`` is None, and geometrically by steps over
    ``max(1000, max_steps)`` when it is set.
    """

    time_limit: float | None = None
    n_branches: int | None = None
    seed: int = 0
    cm_kind: str = "sa"  # "sa" or "tabu"
    qm_enabled: bool = True
    qm_period: int = 500
    qm_window: int = 16
    qm_inline: bool = False
    qm_reads: int = 4
    qm_sweeps: int = 64
    max_steps: int | None = None
    target: float | None = None
    restart_after: int = 10_000
    tabu_tenure: int = 32
    tabu_candidates: int = 12
    threads: int | None = None  # caps branch count and the query worker pool

    def __post_init__(self):
        if self.time_limit is not None and not self.time_limit > 0:
            raise DomainError("time_limit must be > 0")
        if self.n_branches is not None and self.n_branches < 1:
            raise DomainError("n_branches must be >= 1")
        for name in ("qm_period", "qm_window", "qm_reads", "qm_sweeps", "tabu_candidates"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        if self.cm_kind not in ("sa", "tabu"):
            raise DomainError(f"unknown cm_kind {self.cm_kind!r}")
        if self.max_steps is not None and self.max_steps < 1:
            raise DomainError("max_steps must be >= 1")
        if self.threads is not None and self.threads < 1:
            raise DomainError("threads must be >= 1")

    def resolved_branches(self) -> int:
        n = self.n_branches if self.n_branches is not None else default_branch_count()
        return min(n, self.threads) if self.threads is not None else n

    def resolved_time_limit(self, n_elements: int) -> float:
        if self.time_limit is not None:
            return float(self.time_limit)
        return max(5.0, n_elements / 20.0)

    def echo(self) -> dict:
        return asdict(self)
