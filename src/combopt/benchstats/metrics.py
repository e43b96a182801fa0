"""Solution-quality metrics relative to reference optima."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MetricError


def _raw_ratio(value: float, optimum: float, sense: str) -> float:
    """optimum/value when minimizing, value/optimum otherwise; not clamped."""
    if sense == "min":
        return optimum / value if value > 0 else (1.0 if value == optimum else 0.0)
    return value / optimum if optimum else 0.0


def approximation_ratio(value, optimum, sense: str, feasible: bool = True) -> float:
    """Quality in [0, 1]; 1 means optimal, infeasible solutions score 0.

    Minimization uses optimum/value, maximization value/optimum.  Ratios are
    clamped into [0, 1] to guard against stale reference optima; callers that
    need to report clamping can check :func:`is_clamped` first.
    """
    if optimum is None:
        raise MetricError("reference optimum is missing")
    if sense not in ("min", "max"):
        raise MetricError(f"sense must be 'min' or 'max', got {sense!r}")
    if not feasible:
        return 0.0
    optimum = float(optimum)
    value = float(value)
    if sense == "min" and optimum <= 0:
        raise MetricError("minimization ratios require optimum > 0")
    if sense == "max" and optimum == 0:
        raise MetricError("maximization ratios require optimum != 0")
    return min(1.0, max(0.0, _raw_ratio(value, optimum, sense)))


def is_clamped(value, optimum, sense: str, feasible: bool = True) -> bool:
    """True when the raw ratio falls outside [0, 1] (stale-optimum guard)."""
    if not feasible or optimum is None:
        return False
    raw = _raw_ratio(float(value), float(optimum), sense)
    return raw > 1.0 or raw < 0.0


@dataclass(frozen=True)
class SamplesetMetrics:
    best_ratio: float
    mean_ratio: float
    feasible_fraction: float


def sampleset_metrics(samples, optimum, sense: str) -> SamplesetMetrics:
    """Best and unweighted mean ratio over (value, feasible) pairs.

    Duplicates count as many times as they appear; infeasible samples
    contribute 0 to the mean and never to the best.
    """
    samples = list(samples)
    if not samples:
        raise MetricError("cannot compute metrics of an empty sample collection")
    ratios = []
    feasible_count = 0
    for value, feasible in samples:
        ratios.append(approximation_ratio(value, optimum, sense, feasible))
        feasible_count += bool(feasible)
    return SamplesetMetrics(
        best_ratio=max(ratios),
        mean_ratio=sum(ratios) / len(ratios),
        feasible_fraction=feasible_count / len(samples),
    )
