"""CSV reports and plot-ready series from a results table.

Four artifacts, all RFC-4180 CSVs with a header row and deterministic
formatting: raw per-run records, per-(instance, algorithm) aggregates, a
rank/statistics summary per metric, and one plot matrix per metric (rows =
instances, columns = algorithms) matching the bar-chart layout of typical
benchmark figures.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .runner import RECORD_FIELDS, ResultsTable
from .stattests import (
    average_ranks,
    friedman_critical_value,
    friedman_statistic,
    holm_posthoc,
)

PLOT_METRICS = ("best_ratio", "mean_ratio")


def format_sig(x: float, digits: int = 4) -> str:
    """Fixed significant figures, plain decimal notation."""
    if x == 0:
        return "0"
    return np.format_float_positional(
        float(x), precision=digits, unique=False, fractional=False, trim="k"
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def emit_report(table: ResultsTable, out_dir: str | Path,
                control: str | None = None) -> dict[str, Path]:
    """Write records/aggregates/statistics/plot CSVs; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    instances = sorted({r["instance"] for r in table.records})
    algorithms = sorted({r["algorithm"] for r in table.records})

    records_csv = out / "records.csv"
    with open(records_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        ordered = sorted(
            table.records, key=lambda r: (r["instance"], r["algorithm"], r["run"])
        )
        for r in ordered:
            writer.writerow(_fmt(r.get(f)) for f in RECORD_FIELDS)
    paths["records"] = records_csv

    aggregates_csv = out / "aggregates.csv"
    with open(aggregates_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance", "algorithm", "runs", "best_ratio_mean", "mean_ratio_mean",
             "feasible_fraction_mean", "wall_time_mean"]
        )
        for inst in instances:
            for alg in algorithms:
                rows = table.runs_of(inst, alg)
                if not rows:
                    continue
                writer.writerow(
                    [
                        inst,
                        alg,
                        len(rows),
                        _fmt(_mean(rows, "best_ratio")),
                        _fmt(_mean(rows, "mean_ratio")),
                        _fmt(_mean(rows, "feasible_fraction")),
                        _fmt(_mean(rows, "wall_time")),
                    ]
                )
    paths["aggregates"] = aggregates_csv

    for metric in PLOT_METRICS:
        plot_csv = out / f"plot_{metric}.csv"
        with open(plot_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance"] + algorithms)
            for inst in instances:
                row = [inst]
                for alg in algorithms:
                    rows = table.runs_of(inst, alg)
                    row.append(_fmt(_mean(rows, metric)) if rows else "")
                writer.writerow(row)
        paths[f"plot_{metric}"] = plot_csv

    stats_csv = out / "stats.csv"
    with open(stats_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["metric", "algorithm", "avg_rank", "friedman_chi2", "df",
             "critical_99", "significant", "holm_adjusted_p_vs_control"]
        )
        if len(algorithms) >= 2:
            for metric in PLOT_METRICS:
                try:
                    scores = table.score_matrix(instances, algorithms, metric)
                except Exception:
                    continue
                summary = average_ranks(scores, algorithms, direction="max")
                chi, df = friedman_statistic(summary)
                crit = friedman_critical_value(df)
                ctrl = control or summary.algorithms[int(np.argmin(summary.avg_ranks))]
                holm = {e.algorithm: e.p_adjusted for e in holm_posthoc(summary, ctrl)}
                for alg, rank in zip(summary.algorithms, summary.avg_ranks):
                    writer.writerow(
                        [
                            metric,
                            alg,
                            format_sig(rank),
                            format_sig(chi),
                            df,
                            format_sig(crit),
                            str(chi > crit).lower(),
                            format_sig(holm[alg]) if alg in holm else "control",
                        ]
                    )
    paths["stats"] = stats_csv
    return paths


def _mean(rows: list[dict], field: str):
    values = [r[field] for r in rows if r.get(field) is not None]
    return float(np.mean(values)) if values else None
