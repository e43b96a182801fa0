"""The one harness of the benchmark scripts in this directory: paired
fresh-process runs against another source tree, the instances they time, and
the ``BENCH_<topic>.json`` files at the repository root.

A script defines ``measure()``, which returns every figure of one run as a
``{case: value}`` dict for the ``combopt`` on the import path, and calls
:func:`main`:

    PYTHONPATH=src python3 benchmarks/<script>.py [--base OTHER/src] [--pairs 5]

Every run happens in a fresh process.  With ``--base`` the runs alternate
between that source tree and this checkout's ``src``, and the side that starts
a pair alternates too: single runs on a shared machine are not comparable.
The script prints each case's median per side, with the spread of the base's
runs and the pairs this side won, and merges every run into its
``BENCH_<topic>.json`` under the short hash of the checked-out commit, so
runs at two commits sit side by side.  ``ttt_bench.py``, which runs solves
rather than timing calls, has its own command line and uses
:func:`fresh_run` and :func:`save` alone.
"""

import argparse
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
DATA = ROOT / "data"


def load(name: str):
    """The family key and model of ``name``: a file ``data/<name>.<family>``, the
    generated 200-node maxcut ``mc200`` or the random 1000-city EUC_2D tour
    ``tsp1000``."""
    from combopt.problems import BUILDERS

    family, instance = load_instance(name)
    return family, BUILDERS[family](instance)


def load_instance(name: str):
    """The family key and instance of ``name``, as :func:`load` reads it."""
    from combopt.families import PARSERS
    from combopt.problems import TspInstance, euc2d_matrix, generate_random_maxcut

    if name == "mc200":
        return "mc", generate_random_maxcut(200, 0.1, seed=0, name="mc200")
    if name == "tsp1000":  # symmetric and integral, like disc52
        coords = np.random.default_rng(1000).uniform(0, 10_000, (1000, 2))
        return "tsp", TspInstance("tsp1000", 1000, euc2d_matrix(coords))
    (path,) = DATA.glob(f"{name}.*")
    family = path.suffix[1:]
    return family, PARSERS[family](path.read_text(), name)


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


def fresh_run(script: str, src: Path, *args: str) -> dict:
    """One ``script --worker [args]`` run in a fresh process importing
    ``combopt`` from ``src``: the JSON object on the last line of its output.
    A run that fails, as one whose correctness check rejects ``src``, stops the
    comparison."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, script, "--worker", *args], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{Path(script).name} on {src} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def compare(script: str, base: Path | None, pairs: int, unit: str) -> dict:
    """``pairs`` fresh runs of ``script`` on this checkout's ``src`` and, with
    ``base``, as many on that tree, alternating the side that starts a pair.
    Prints each case's median per side, the distance between the quartiles of
    the base's runs and the number of pairs in which this side read less, and
    returns the medians and runs of every case."""
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
        header += f" {'base ' + unit:>9} {'base/this':>9} {'base IQR':>9} {'this less':>9}"
    print(header)
    print("-" * len(header))
    for case in cases:
        this = results["this"][case]["median"]
        row = f"{case:<{width}} {this:>9.2f}"
        if "base" in results and case in results["base"]:
            base, this_runs = results["base"][case], results["this"][case]["runs"]
            ratio = f"{base['median'] / this:>8.2f}x" if this else f"{'-':>9}"
            q1, q3 = np.percentile(base["runs"], [25, 75])
            less = sum(t < b for t, b in zip(this_runs, base["runs"]))
            row += (f" {base['median']:>9.2f} {ratio} {q3 - q1:>9.2f} "
                    f"{f'{less}/{pairs}':>9}")
        print(row)
    return results


def main(measure, bench_file: Path, name: str, unit: str) -> None:
    """The command line of the script that defines ``measure``: ``--worker``
    prints one run's figures as a JSON line; otherwise :func:`compare` runs the
    pairs and :func:`save` merges them into ``bench_file`` as ``name``."""
    script = sys.modules[measure.__module__]
    parser = argparse.ArgumentParser(description=script.__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="source tree to compare against")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure()))
        return

    results = compare(script.__file__, args.base, args.pairs, unit)
    key = save(bench_file, name, {"pairs": args.pairs, **results})
    print(f"\nwrote {bench_file.name} entry {key}")
