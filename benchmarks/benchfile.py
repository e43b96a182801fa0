"""Shared writer of the ``BENCH_<topic>.json`` files at the repository root,
and the paired fresh-process runs of the scripts that compare two trees.

Each file maps the short hash of the commit a run measured to the run's
environment and results, so runs at two commits sit side by side.  The
benchmark scripts in this directory import it; run them from the repository
root with ``PYTHONPATH=src``.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from combopt.qubo import NUMBA_AVAILABLE

ROOT = Path(__file__).resolve().parent.parent


def commit() -> str:
    """Short hash of the checked-out commit, with ``-dirty`` when tracked files
    differ from it, so a run of uncommitted code is not filed under its parent."""
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=7", "--exclude=*"], cwd=ROOT,
        capture_output=True, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def save(path: Path, name: str, results: dict) -> str:
    """Merge this run's ``results`` into ``path`` as ``name`` under the current
    commit, with the environment; returns the commit key."""
    key = commit()
    bench = json.loads(path.read_text()) if path.exists() else {}
    bench[key] = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "numba": NUMBA_AVAILABLE,
        },
        name: results,
    }
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return key


def fresh_run(script: str, src: Path) -> dict[str, float]:
    """One ``script --worker`` run in a fresh process importing ``combopt`` from
    ``src``: the JSON object on the last line of its output."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, script, "--worker"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def compare(script: str, base: Path | None, pairs: int, unit: str) -> dict:
    """``pairs`` fresh runs of ``script`` on this checkout's ``src`` and, with
    ``base``, as many on that tree, alternating the side that starts a pair:
    single runs on a shared machine are not comparable.  Prints each case's
    median per side and returns the medians and runs of every case."""
    sides = {"this": ROOT / "src"}
    if base is not None:
        sides["base"] = base.resolve()
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for p in range(pairs):
        order = list(sides) if p % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(fresh_run(script, sides[side]))
            print(f"pair {p + 1}/{pairs}: {side} done", file=sys.stderr)

    cases = list(runs["this"][0])
    results = {side: {case: {"median": round(statistics.median(r[case] for r in rs), 2),
                             "runs": [round(r[case], 2) for r in rs]}
                      for case in cases if all(case in r for r in rs)}
               for side, rs in runs.items()}
    width = max(16, *map(len, cases))
    header = f"{'case':<{width}} {'this ' + unit:>9}"
    if "base" in results:
        header += f" {'base ' + unit:>9} {'base/this':>9}"
    print(header)
    print("-" * len(header))
    for case in cases:
        this = results["this"][case]["median"]
        row = f"{case:<{width}} {this:>9.2f}"
        if "base" in results and case in results["base"]:
            base_median = results["base"][case]["median"]
            ratio = f"{base_median / this:>8.2f}x" if this else f"{'-':>9}"
            row += f" {base_median:>9.2f} {ratio}"
        print(row)
    return results
