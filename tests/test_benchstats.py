import itertools
import math

import numpy as np
import pytest

from combopt.benchstats import (
    approximation_ratio,
    average_ranks,
    friedman_critical_value,
    friedman_significant,
    friedman_statistic,
    holm_posthoc,
    normal_cdf,
    sampleset_metrics,
    wilcoxon_rank_sum,
)
from combopt.errors import MetricError


def rank_matrix(pattern, n_rows=15):
    """Score matrix whose per-row ranks follow `pattern` rows of rank tuples."""
    score_of_rank = {1: 0.95, 2: 0.80, 3: 0.40}
    rows = []
    for ranks in pattern:
        rows.append([score_of_rank[r] for r in ranks])
    assert len(rows) == n_rows
    return np.array(rows)


# --- approximation ratio -----------------------------------------------------


def test_ratio_basics():
    assert approximation_ratio(100, 100, "min") == 1.0
    assert approximation_ratio(200, 100, "min") == 0.5
    assert approximation_ratio(50, 100, "max") == 0.5
    assert approximation_ratio(100, 100, "max") == 1.0


def test_ratio_infeasible_scores_zero():
    assert approximation_ratio(100, 100, "min", feasible=False) == 0.0


def test_ratio_clamped_to_unit_interval():
    assert approximation_ratio(50, 100, "min") == 1.0  # better than stale optimum
    assert approximation_ratio(150, 100, "max") == 1.0


def test_ratio_errors():
    with pytest.raises(MetricError):
        approximation_ratio(10, None, "min")
    with pytest.raises(MetricError):
        approximation_ratio(10, 0, "max")
    with pytest.raises(MetricError):
        approximation_ratio(10, -5, "min")
    with pytest.raises(MetricError):
        approximation_ratio(10, 5, "upward")


def test_ratio_equals_one_iff_optimal():
    for value in (101, 150, 999):
        assert approximation_ratio(value, 100, "min") < 1.0
    for value in (1, 50, 99):
        assert approximation_ratio(value, 100, "max") < 1.0


def test_sampleset_metrics_hand_computed():
    # oracle: manual arithmetic over a 5-sample synthetic set (max sense)
    samples = [(100, True), (50, True), (100, True), (0, True), (80, False)]
    m = sampleset_metrics(samples, 100, "max")
    assert m.best_ratio == 1.0
    assert m.mean_ratio == pytest.approx((1.0 + 0.5 + 1.0 + 0.0 + 0.0) / 5)
    assert m.feasible_fraction == pytest.approx(4 / 5)


def test_sampleset_metrics_trivial_cases():
    all_opt = [(100, True)] * 4
    m = sampleset_metrics(all_opt, 100, "max")
    assert (m.best_ratio, m.mean_ratio) == (1.0, 1.0)
    one_opt_one_bad = [(100, True), (100, False)]
    m = sampleset_metrics(one_opt_one_bad, 100, "max")
    assert (m.best_ratio, m.mean_ratio) == (1.0, 0.5)


# --- ranks and Friedman ---------------------------------------------------------


def test_identical_columns_all_mid_rank():
    scores = np.ones((6, 3))
    summary = average_ranks(scores)
    assert np.allclose(summary.avg_ranks, 2.0)


def test_dominant_algorithm_rank_one():
    scores = np.column_stack([np.full(8, 0.9), np.full(8, 0.5), np.full(8, 0.3)])
    summary = average_ranks(scores)
    assert summary.avg_ranks[0] == 1.0


def test_hand_built_matrix_with_tie():
    # oracle: manual ranking of a 3-row matrix, higher is better
    scores = np.array(
        [
            [0.9, 0.9, 0.1],  # tie for first: ranks 1.5, 1.5, 3
            [0.8, 0.5, 0.2],  # ranks 1, 2, 3
            [0.1, 0.5, 0.9],  # ranks 3, 2, 1
        ]
    )
    summary = average_ranks(scores)
    assert np.allclose(summary.rank_rows[0], [1.5, 1.5, 3])
    assert np.allclose(summary.avg_ranks, [(1.5 + 1 + 3) / 3, (1.5 + 2 + 2) / 3, 3 - 2 / 3])


def test_rank_sums_are_conserved():
    rng = np.random.default_rng(1)
    for _ in range(20):
        scores = rng.random((rng.integers(2, 12), rng.integers(2, 6)))
        summary = average_ranks(scores)
        k = summary.k
        assert summary.avg_ranks.sum() == pytest.approx(k * (k + 1) / 2)


def test_friedman_pinned_values():
    # 15 blocks, 3 algorithms; patterns chosen to reproduce published rank
    # tables exactly
    pat_2813 = [(1, 2, 3)] * 14 + [(1, 3, 2)]
    summary = average_ranks(rank_matrix(pat_2813))
    assert np.allclose(summary.avg_ranks, [1.0, 31 / 15, 44 / 15])
    chi, df = friedman_statistic(summary)
    assert chi == pytest.approx(28.13, abs=0.01)
    assert df == 2

    pat_2653 = [(1, 2, 3)] * 13 + [(2, 1, 3)] * 2
    summary = average_ranks(rank_matrix(pat_2653))
    chi, _ = friedman_statistic(summary)
    assert chi == pytest.approx(26.53, abs=0.01)

    pat_30 = [(1, 2, 3)] * 15
    summary = average_ranks(rank_matrix(pat_30))
    chi, _ = friedman_statistic(summary)
    assert chi == pytest.approx(30.00, abs=0.01)


def test_friedman_critical_value_df2():
    assert friedman_critical_value(2, 0.99) == pytest.approx(9.21, abs=0.005)


def test_friedman_significance_paths():
    pat = [(1, 2, 3)] * 15
    assert friedman_significant(average_ranks(rank_matrix(pat)))
    flat = average_ranks(np.ones((15, 3)))
    assert not friedman_significant(flat)


def test_friedman_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    scores = rng.random((10, 4))
    chi_a, _ = friedman_statistic(average_ranks(scores))
    chi_b, _ = friedman_statistic(average_ranks(np.exp(3 * scores)))
    assert chi_a == pytest.approx(chi_b, abs=1e-12)


# --- Holm -----------------------------------------------------------------------


def holm_by_name(summary, control):
    return {e.algorithm: e.p_adjusted for e in holm_posthoc(summary, control)}


def test_holm_pinned_values():
    pat = [(1, 2, 3)] * 13 + [(2, 1, 3)] * 2  # avg ranks 1.1333, 1.8667, 3
    summary = average_ranks(rank_matrix(pat), algorithms=["ctl", "mid", "low"])
    adj = holm_by_name(summary, "ctl")
    assert adj["mid"] == pytest.approx(0.04461, abs=5e-4)
    assert adj["low"] <= 1e-5

    pat = [(1, 2, 3)] * 14 + [(1, 3, 2)]  # avg ranks 1, 2.0667, 2.9333
    summary = average_ranks(rank_matrix(pat), algorithms=["ctl", "mid", "low"])
    adj = holm_by_name(summary, "ctl")
    assert adj["mid"] == pytest.approx(0.003487, abs=1e-4)

    pat = [(1, 2, 3)] * 15  # avg ranks 1, 2, 3
    summary = average_ranks(rank_matrix(pat), algorithms=["ctl", "mid", "low"])
    adj = holm_by_name(summary, "ctl")
    assert adj["mid"] == pytest.approx(0.00617, abs=5e-4)

    # without a control, the best-ranked algorithm is the control
    pat = [(2, 1, 3)] * 13 + [(1, 2, 3)] * 2  # "mid" ranks best
    summary = average_ranks(rank_matrix(pat), algorithms=["ctl", "mid", "low"])
    assert summary.best == "mid"
    assert holm_posthoc(summary) == holm_posthoc(summary, "mid")


def test_holm_monotone_and_above_unadjusted():
    rng = np.random.default_rng(7)
    scores = rng.random((12, 5))
    summary = average_ranks(scores)
    entries = holm_posthoc(summary, summary.algorithms[0])
    adjusted = [e.p_adjusted for e in entries]
    assert adjusted == sorted(adjusted)
    assert all(e.p_adjusted >= e.p for e in entries)


def test_holm_unknown_control():
    summary = average_ranks(np.random.default_rng(0).random((5, 3)))
    with pytest.raises(MetricError):
        holm_posthoc(summary, "nope")


# --- normal CDF -------------------------------------------------------------------


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == 0.5
    for z in np.linspace(-8, 8, 33):
        assert normal_cdf(-z) == pytest.approx(1 - normal_cdf(z), abs=1e-12)


def test_normal_cdf_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for z in [-8, -3.7, -1.96, -0.5, 0.1, 1.0, 1.96, 2.575, 4.2, 8]:
        want = float(mpmath.ncdf(z))
        assert normal_cdf(z) == pytest.approx(want, abs=1e-10)


# --- Wilcoxon ----------------------------------------------------------------------


def exact_rank_sum_p(a, b):
    """Exact two-sided p by enumerating all labelings of the pooled sample."""
    from scipy.stats import rankdata

    a, b = list(a), list(b)
    pooled = np.array(a + b, dtype=float)
    n1 = len(a)
    ranks = rankdata(pooled, method="average")
    mu = n1 * (len(pooled) - n1) / 2 + n1 * (n1 + 1) / 2
    observed = abs(ranks[:n1].sum() - mu)
    count = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        total += 1
        if abs(ranks[list(combo)].sum() - mu) >= observed - 1e-12:
            count += 1
    return count / total


def test_wilcoxon_identical_samples():
    r = wilcoxon_rank_sum([1, 2, 3], [1, 2, 3])
    assert r.p == 1.0
    assert r.z == 0.0
    assert r.symbol == "tie"


def test_wilcoxon_symmetry():
    a = [0.3, 0.9, 0.6, 0.2, 0.8]
    b = [0.1, 0.4, 0.5, 0.7, 0.35]
    assert wilcoxon_rank_sum(a, b).p == pytest.approx(wilcoxon_rank_sum(b, a).p)


def test_wilcoxon_disjoint_5v5_close_to_exact():
    a, b = [1, 2, 3, 4, 5], [11, 12, 13, 14, 15]
    r = wilcoxon_rank_sum(a, b)
    exact = exact_rank_sum_p(a, b)
    assert abs(r.p - exact) <= 0.05
    # at 5v5 the approximate two-sided p bottoms out near 0.012, above the
    # 99% bar, so maximal separation still reads as a tie at this size
    assert r.symbol == "tie" and r.z < 0


def test_wilcoxon_symbols_at_99():
    a = list(range(16, 31))
    b = list(range(15))
    r = wilcoxon_rank_sum(a, b)
    assert r.p < 0.01
    assert r.symbol == "win"
    assert wilcoxon_rank_sum(b, a).symbol == "loss"


def test_wilcoxon_normal_vs_exact_over_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.random(5).tolist()
        b = rng.random(5).tolist()
        r = wilcoxon_rank_sum(a, b)
        assert abs(r.p - exact_rank_sum_p(a, b)) <= 0.05


def test_wilcoxon_with_ties_stays_reasonable():
    # heavy ties stress the tie-corrected variance; at n=5 the exact
    # distribution is so lumpy that the normal approximation can drift by
    # ~0.2, which is inherent, not a defect -- just require sane output
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = rng.integers(0, 5, 5).tolist()
        b = rng.integers(0, 5, 5).tolist()
        r = wilcoxon_rank_sum(a, b)
        assert 0.0 <= r.p <= 1.0
        assert abs(r.p - exact_rank_sum_p(a, b)) <= 0.25
