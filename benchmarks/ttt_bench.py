"""Benchmark quality: what one branch reaches in a fixed wall time.

Each cell is an instance and a local search: kp50 with SA, the generated
200-node maxcut ``mc200`` with SA and with tabu, and disc52 with SA.  Every
cell runs one branch for 1 s and for 5 s (``time_limit``, no ``max_steps``)
on seeds 0-9, three ways: with this checkout's default settings, with the
``--base`` tree's default settings, and with subproblem queries off
(``qm_enabled=False``, on this checkout).  A cell's value is its approximation
ratio against ``data/optima.txt``; mc200 has no proven optimum, so its value
is the cut.  The script prints, per cell, time and way, the median, min and
max of the ten values and the median of the final sample's step, and merges
every value into ``BENCH_ttt.json`` (see ``benchfile``).

    PYTHONPATH=src python3 benchmarks/ttt_bench.py [--base OTHER/src]

Each cell, time and way runs its ten seeds in one fresh process, and the ways
of one cell and time run one after another, the way that starts alternating,
so a change of machine speed hits them alike.  It takes about 14 minutes with
``--base`` on a 2-CPU machine, and about 9 without.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import benchfile

BENCH_FILE = benchfile.ROOT / "BENCH_ttt.json"
CELLS = {  # name: (instance, cm_kind)
    "kp50 sa": ("kp50", "sa"),
    "mc200 sa": ("mc200", "sa"),
    "mc200 tabu": ("mc200", "tabu"),
    "disc52 sa": ("disc52", "sa"),
}
SECONDS = (1.0, 5.0)
SEEDS = range(10)
OPTIMA = {name: float(opt) for name, opt in
          (line.split() for line in (benchfile.DATA / "optima.txt").read_text().splitlines())}


def value(name: str, objective: float) -> float:
    """What a best sample of ``name`` with the minimized ``objective`` scores:
    the cut on mc200, the tour's optimum over its length on disc52, and the
    profit, ``-objective``, over the optimum on kp50."""
    if name == "mc200":
        return -objective
    optimum = OPTIMA[name]
    return optimum / objective if name == "disc52" else -objective / optimum


def run_seeds(cell: str, seconds: float, qm: bool) -> dict[str, list]:
    """The value and the final step of one branch of ``cell`` per seed."""
    from combopt.solver import SolverConfig, solve

    name, kind = CELLS[cell]
    model = benchfile.load(name)[1]
    values, steps = [], []
    for seed in SEEDS:
        result = solve(model, SolverConfig(time_limit=seconds, n_branches=1, seed=seed,
                                           cm_kind=kind, qm_enabled=qm))
        best = result.best()
        values.append(value(name, best.objective) if best.feasible else 0.0)
        steps.append(next(s.step for s in result if s.source == "final"))
    return {"values": values, "steps": steps}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="source tree to compare against")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        cell, seconds, qm = args.worker
        print(json.dumps(run_seeds(cell, float(seconds), qm == "on")))
        return

    this = benchfile.ROOT / "src"
    ways = {"default": (this, "on"), "qm off": (this, "off")}
    if args.base is not None:
        ways["base default"] = (args.base.resolve(), "on")
    results: dict = {}
    print(f"{'cell':<11} {'s':>2} {'way':<12} {'median':>10} {'min':>10} {'max':>10} "
          f"{'steps':>9}")
    for g, (cell, seconds) in enumerate((c, s) for s in SECONDS for c in CELLS):
        order = list(ways) if g % 2 == 0 else list(ways)[::-1]
        runs = {way: benchfile.fresh_run(__file__, ways[way][0], cell, str(seconds),
                                         ways[way][1]) for way in order}
        for way in ways:
            run = runs[way]
            vs = run["values"]
            summary = {"median": statistics.median(vs), "min": min(vs), "max": max(vs),
                       "median_steps": statistics.median(run["steps"]), **run}
            results.setdefault(f"{cell} {seconds:g}s", {})[way] = summary
            print(f"{cell:<11} {seconds:>2g} {way:<12} {summary['median']:>10.5g} "
                  f"{min(vs):>10.5g} {max(vs):>10.5g} {summary['median_steps']:>9.0f}")
        sys.stdout.flush()
    key = benchfile.save(BENCH_FILE, "value_at_time",
                         {"seeds": len(SEEDS), "base": str(args.base), **results})
    print(f"\nwrote {BENCH_FILE.name} entry {key}")


if __name__ == "__main__":
    main()
