"""Shared writer of the ``BENCH_<topic>.json`` files at the repository root.

Each file maps the short hash of the commit a run measured to the run's
environment and results, so runs at two commits sit side by side.  The
benchmark scripts in this directory import it; run them from the repository
root with ``PYTHONPATH=src``.
"""

import json
import os
import platform
import subprocess
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
