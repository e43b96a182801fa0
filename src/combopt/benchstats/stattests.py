"""Nonparametric comparison statistics over benchmark score tables.

The workflow mirrors the usual k-algorithms-over-N-instances protocol:
average ranks per algorithm, the Friedman chi-square statistic on those
ranks, Holm step-down adjusted p-values against a control, and the Wilcoxon
rank-sum test for head-to-head comparisons.

``scipy.stats`` is imported inside the functions that use it: importing it
takes over a second, and every ``combopt`` command imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import MetricError


def normal_cdf(z: float) -> float:
    """Standard normal CDF through the complementary error function.

    math.erfc is the C library implementation, accurate to a few ulp, which
    comfortably meets the 1e-10 absolute-error requirement for |z| <= 8.
    """
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass
class RankSummary:
    """Average ranks of k algorithms over N instance blocks (1 = best)."""

    algorithms: list[str]
    avg_ranks: np.ndarray
    rank_rows: np.ndarray  # (N, k), average-rank tie rule per row

    @property
    def k(self) -> int:
        return len(self.algorithms)

    @property
    def n_blocks(self) -> int:
        return self.rank_rows.shape[0]

    @property
    def best(self) -> str:
        """The algorithm with the lowest average rank; the first of a tie."""
        return self.algorithms[int(np.argmin(self.avg_ranks))]


def average_ranks(scores, algorithms=None, direction: str = "max") -> RankSummary:
    """Rank algorithms per instance row; ties share the mean of tied positions.

    ``direction="max"`` means higher scores are better and receive rank 1.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 2:
        raise MetricError(f"need an N x k score matrix with k >= 2, got {scores.shape}")
    if direction not in ("max", "min"):
        raise MetricError(f"direction must be 'max' or 'min', got {direction!r}")
    n, k = scores.shape
    if algorithms is None:
        algorithms = [f"alg{i}" for i in range(k)]
    if len(algorithms) != k:
        raise MetricError("algorithm names must match the score columns")
    from scipy.stats import rankdata

    oriented = -scores if direction == "max" else scores
    rows = np.vstack([rankdata(row, method="average") for row in oriented])
    return RankSummary(list(algorithms), rows.mean(axis=0), rows)


def friedman_statistic(summary: RankSummary) -> tuple[float, int]:
    """Friedman chi-square over average ranks; degrees of freedom k - 1."""
    k, n = summary.k, summary.n_blocks
    centered = summary.avg_ranks - (k + 1) / 2.0
    chi = 12.0 * n / (k * (k + 1)) * float((centered**2).sum())
    return chi, k - 1


def friedman_critical_value(df: int, confidence: float = 0.99) -> float:
    """Chi-square critical value (9.21 at df=2, 99%)."""
    from scipy.stats import chi2

    return float(chi2.ppf(confidence, df))


def friedman_significant(summary: RankSummary, confidence: float = 0.99) -> bool:
    chi, df = friedman_statistic(summary)
    return chi > friedman_critical_value(df, confidence)


@dataclass
class HolmEntry:
    algorithm: str
    z: float
    p: float
    p_adjusted: float


def holm_posthoc(summary: RankSummary, control: str | None = None) -> list[HolmEntry]:
    """Step-down adjusted p-values of every non-control algorithm vs control.

    The control defaults to ``summary.best``.  z = (rank_j - rank_control) /
    sqrt(k (k+1) / (6 N)); two-sided normal p; adjusted p_(i) = max over
    j <= i of min(1, (m - j + 1) p_(j)) after sorting ascending.
    """
    if control is None:
        control = summary.best
    if control not in summary.algorithms:
        raise MetricError(f"control algorithm {control!r} not in summary")
    k, n = summary.k, summary.n_blocks
    se = math.sqrt(k * (k + 1) / (6.0 * n))
    ci = summary.algorithms.index(control)
    entries = []
    for j, name in enumerate(summary.algorithms):
        if j == ci:
            continue
        z = (summary.avg_ranks[j] - summary.avg_ranks[ci]) / se
        p = 2.0 * (1.0 - normal_cdf(abs(z)))
        entries.append(HolmEntry(name, z, p, p))
    entries.sort(key=lambda e: e.p)
    m = len(entries)
    running = 0.0
    for i, e in enumerate(entries):
        running = max(running, min(1.0, (m - i) * e.p))
        e.p_adjusted = running
    return entries


@dataclass
class WilcoxonResult:
    p: float
    z: float
    u: float  # Mann-Whitney U of the first sample
    symbol: str  # "win" / "loss" / "tie" for the first sample at 99%


def wilcoxon_rank_sum(a, b, confidence: float = 0.99) -> WilcoxonResult:
    """Two-sided rank-sum test with tie correction and continuity correction.

    The symbol says whether the first sample is statistically larger ("win"),
    smaller ("loss"), or not distinguishable ("tie") at the given confidence.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = a.size, b.size
    if n1 < 1 or n2 < 1:
        raise MetricError("both samples must be nonempty")
    from scipy.stats import rankdata

    combined = np.concatenate([a, b])
    ranks = rankdata(combined, method="average")
    r1 = float(ranks[:n1].sum())
    u = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    _, counts = np.unique(combined, return_counts=True)
    tie_term = float(((counts**3 - counts)).sum())
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0:  # all values identical
        return WilcoxonResult(p=1.0, z=0.0, u=u, symbol="tie")
    diff = u - mu
    cc = 0.5 if diff > 0 else (-0.5 if diff < 0 else 0.0)
    z = (diff - cc) / math.sqrt(sigma2)
    p = 2.0 * (1.0 - normal_cdf(abs(z)))
    p = min(1.0, p)
    symbol = "tie"
    if p < 1.0 - confidence:
        symbol = "win" if diff > 0 else "loss"
    return WilcoxonResult(p=p, z=z, u=u, symbol=symbol)
