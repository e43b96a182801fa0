"""CSV reports and plot-ready series from a results table.

Four artifacts, all RFC-4180 CSVs with a header row and deterministic
formatting: raw per-run records, per-(instance, algorithm) aggregates, a
rank/statistics summary per metric, and one plot matrix per metric (rows =
instances, columns = algorithms) matching the bar-chart layout of typical
benchmark figures.  The aggregates, plots and statistics share one mean
per (instance, algorithm) cell and metric, computed once.
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
MEAN_FIELDS = ("best_ratio", "mean_ratio", "feasible_fraction", "wall_time")


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


def _write(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(table: ResultsTable, out_dir: str | Path,
                control: str | None = None) -> dict[str, Path]:
    """Write records/aggregates/statistics/plot CSVs; returns their paths.

    ``control`` is the Holm control; by default the best-ranked algorithm.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in
             ("records", "aggregates", *(f"plot_{m}" for m in PLOT_METRICS), "stats")}

    records = sorted(table.records, key=lambda r: (r["instance"], r["algorithm"], r["run"]))
    runs: dict[tuple[str, str], list[dict]] = {}
    for r in records:
        runs.setdefault((r["instance"], r["algorithm"]), []).append(r)
    # cell -> run count and the mean of each of MEAN_FIELDS, in sorted cell order
    cells = {key: {"runs": len(rows), **{f: _mean(rows, f) for f in MEAN_FIELDS}}
             for key, rows in runs.items()}
    instances = sorted({inst for inst, _ in cells})
    algorithms = sorted({alg for _, alg in cells})

    _write(paths["records"], RECORD_FIELDS,
           ([_fmt(r.get(f)) for f in RECORD_FIELDS] for r in records))
    _write(paths["aggregates"],
           ["instance", "algorithm", "runs", *(f"{f}_mean" for f in MEAN_FIELDS)],
           ([inst, alg, *(_fmt(cell[f]) for f in ("runs", *MEAN_FIELDS))]
            for (inst, alg), cell in cells.items()))

    stats_rows = []
    for metric in PLOT_METRICS:
        matrix = [[cells.get((inst, alg), {}).get(metric) for alg in algorithms]
                  for inst in instances]
        _write(paths[f"plot_{metric}"], ["instance", *algorithms],
               ([inst, *map(_fmt, row)] for inst, row in zip(instances, matrix)))
        if len(algorithms) < 2 or any(v is None for row in matrix for v in row):
            continue
        summary = average_ranks(matrix, algorithms, direction="max")
        chi, df = friedman_statistic(summary)
        crit = friedman_critical_value(df)
        holm = {e.algorithm: e.p_adjusted for e in holm_posthoc(summary, control)}
        stats_rows += [
            [metric, alg, format_sig(rank), format_sig(chi), df, format_sig(crit),
             str(chi > crit).lower(), format_sig(holm[alg]) if alg in holm else "control"]
            for alg, rank in zip(summary.algorithms, summary.avg_ranks)
        ]
    _write(paths["stats"],
           ["metric", "algorithm", "avg_rank", "friedman_chi2", "df",
            "critical_99", "significant", "holm_adjusted_p_vs_control"],
           stats_rows)
    return paths


def _mean(rows: list[dict], field: str):
    values = [r[field] for r in rows if r.get(field) is not None]
    return float(np.mean(values)) if values else None
