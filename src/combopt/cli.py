"""Command-line entry point.

Subcommands: ``solve`` (portfolio or binary-baseline solve of one instance),
``bench`` (run a plan of instances x algorithms x runs and emit reports),
``gen-maxcut`` (random instance generation), ``exact`` (reference optima for
small instances), ``stats`` (Friedman / Holm / Wilcoxon over a score matrix
CSV), and ``export-qubo`` (write the penalty encoding of an instance).

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success, 2 input
or parse error, 3 solver error, 4 instance over an exact-method size cap.

File formats (all UTF-8 text):

* TSP: TSPLIB, EUC_2D or EXPLICIT/FULL_MATRIX.
* Knapsack: item count, capacity, blank line, then "profit weight" lines
  (upstream knapsack suites vary in layout; convert to this canonical one).
* MaxCut: "n m" header, then m lines "u v w" (1-indexed endpoints).
* Optima: lines of "instance_id optimum".
* Score matrix: CSV, header "instance,<alg>,<alg>,..."; one row per instance.
* Plan: JSON with instances, algorithms, runs, master_seed, time_limit,
  optima (see data/plan_smoke.json for a working example).  An "nl" config
  sets SolverConfig fields other than time_limit and seed; a "qubo-sa" config
  sets reads and sweeps (integers >= 1).  Other keys are rejected (exit 2).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .benchstats import (
    Plan,
    average_ranks,
    emit_report,
    format_sig,
    friedman_critical_value,
    friedman_statistic,
    holm_posthoc,
    load_optima,
    qubo_sa_reads,
    run_experiment,
    wilcoxon_rank_sum,
)
from .errors import ComboptError, MetricError, ParseError, SizeError
from .families import ENCODERS, EXACT, PARSERS, family, native
from .problems import BUILDERS, emit_maxcut, generate_random_maxcut
from .solver import SampleSet, SolverConfig, make_sample, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_SIZE = 4

WIN_SYMBOL = {"win": "▲", "loss": "▽", "tie": "="}


def _load_instance(key: str, path: str):
    p = Path(path)
    if not p.exists():
        raise ParseError(f"instance file not found: {path}")
    return PARSERS[key](p.read_text(), p.stem)


def cmd_solve(args) -> int:
    key = family(args.problem)
    instance = _load_instance(key, args.instance)
    model = BUILDERS[key](instance)
    sense = model.tags["sense"]

    if args.solver == "nl":
        config = SolverConfig(
            time_limit=args.time_limit,
            n_branches=args.branches,
            seed=args.seed,
        )
        result = solve(model, config)
    else:
        entries = qubo_sa_reads(model, key, args.reads, args.sweeps, args.seed)
        samples = [
            make_sample(e[0], e[1], branch=read, step=0, source="sa-read", elapsed=0.0)
            for read, e in enumerate(entries)
            if e is not None
        ]
        if not samples:
            print("no sample decoded to a problem state", file=sys.stderr)
            return EXIT_SOLVER
        undecodable = len(entries) - len(samples)
        warnings = (
            [f"{undecodable} of {args.reads} reads did not decode to a state"]
            if undecodable
            else []
        )
        result = SampleSet(
            samples=samples,
            config={"solver": "qubo-sa", "reads": args.reads,
                    "sweeps": args.sweeps, "seed": args.seed},
            wall_time=0.0,
            warnings=warnings,
        )
    best = result.best()
    best_native = native(sense, best.objective)
    feasible = best.feasible
    out_doc = result.to_json(indent=2)
    n_samples = len(result)

    if args.out:
        Path(args.out).write_text(out_doc)
    line = (
        f"instance={instance.name} solver={args.solver} "
        f"best={best_native:g} feasible={str(feasible).lower()} samples={n_samples}"
    )
    if args.optima:
        optima = load_optima(args.optima)
        if instance.name in optima:
            from .benchstats import approximation_ratio

            ratio = approximation_ratio(best_native, optima[instance.name], sense, feasible)
            line += f" ratio={ratio:.2f}"
    print(line)
    return EXIT_OK


def cmd_bench(args) -> int:
    plan = Plan.load(args.plan)
    names = [alg.name for alg in plan.algorithms]
    if args.control is not None and args.control not in names:
        raise MetricError(f"control algorithm {args.control!r} is not in the plan: {names}")
    table = run_experiment(
        plan,
        args.out_dir,
        resume=args.resume,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    paths = emit_report(table, args.out_dir, control=args.control)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return EXIT_OK


def cmd_gen_maxcut(args) -> int:
    instance = generate_random_maxcut(
        args.nodes, args.density, (args.min_w, args.max_w), seed=args.seed
    )
    text = emit_maxcut(instance)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: n={instance.n} m={instance.m}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_exact(args) -> int:
    key = family(args.problem)
    instance = _load_instance(key, args.instance)
    value, certificate = EXACT[key](instance)
    print(f"instance={instance.name} optimum={value:g}")
    print(f"certificate={certificate}")
    return EXIT_OK


def _read_matrix(path: str) -> tuple[list[str], list[str], np.ndarray]:
    p = Path(path)
    if not p.exists():
        raise ParseError(f"results file not found: {path}")
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) < 3:
        raise ParseError("score matrix needs a header and at least 2 algorithm columns")
    for line, r in enumerate(rows[1:], start=2):
        if len(r) != len(rows[0]):
            raise ParseError(f"row {line} of {path} has {len(r)} fields, its header "
                             f"{len(rows[0])}")
    algorithms = rows[0][1:]
    instances = [r[0] for r in rows[1:]]
    try:
        scores = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    except ValueError as e:
        raise ParseError(f"non-numeric score in {path}") from e
    if not np.isfinite(scores).all():
        raise ParseError(f"non-finite score in {path}")
    return instances, algorithms, scores


def cmd_stats(args) -> int:
    instances, algorithms, scores = _read_matrix(args.results)
    summary = average_ranks(scores, algorithms, direction=args.direction)
    out_rows = []

    if args.test == "friedman":
        chi, df = friedman_statistic(summary)
        crit = friedman_critical_value(df)
        print("Algorithm          Average Ranking")
        for name, rank in zip(summary.algorithms, summary.avg_ranks):
            print(f"{name:<18} {format_sig(rank)}")
            out_rows.append(["friedman_rank", name, format_sig(rank)])
        verdict = (
            "significant differences"
            if chi > crit
            else "no significant differences"
        )
        print(
            f"Friedman statistic {format_sig(chi)} (df {df}, "
            f"critical {format_sig(crit)} at 99%): {verdict}"
        )
        out_rows.append(["friedman_chi2", "", format_sig(chi)])
    elif args.test == "holm":
        control = args.control or summary.best
        entries = holm_posthoc(summary, control)
        print(f"Holm post-hoc, control = {control}")
        print("Algorithm          Adjusted p")
        for e in entries:
            print(f"{e.algorithm:<18} {format_sig(e.p_adjusted)}")
            out_rows.append(["holm_adjusted_p", e.algorithm, format_sig(e.p_adjusted)])
    else:  # wilcoxon
        if args.algorithms:
            names = args.algorithms.split(",")
            if len(names) != 2 or any(n not in algorithms for n in names):
                raise MetricError(
                    f"--algorithms needs two column names out of {algorithms}"
                )
            ia, ib = algorithms.index(names[0]), algorithms.index(names[1])
        elif len(algorithms) == 2:
            names = algorithms
            ia, ib = 0, 1
        else:
            raise MetricError("wilcoxon needs --algorithms A,B with >2 columns")
        r = wilcoxon_rank_sum(scores[:, ia], scores[:, ib])
        print(
            f"{names[0]} vs {names[1]}: p={format_sig(r.p)} z={format_sig(r.z)} "
            f"{WIN_SYMBOL[r.symbol]} ({r.symbol} for {names[0]} at 99%)"
        )
        out_rows.append(["wilcoxon_p", f"{names[0]} vs {names[1]}", format_sig(r.p)])

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["measure", "subject", "value"])
            writer.writerows(out_rows)
    return EXIT_OK


def cmd_export_qubo(args) -> int:
    key = family(args.problem)
    penalty = None
    if args.penalty != "auto":
        try:
            penalty = float(args.penalty)
        except ValueError:
            penalty = math.nan
        if not 0 < penalty < math.inf:
            raise ParseError(f"--penalty must be 'auto' or a number > 0, got {args.penalty!r}")
    instance = _load_instance(key, args.instance)
    if key == "mc":  # no constraint, so no penalty
        qubo, _ = ENCODERS[key](instance)
    else:
        qubo, _ = ENCODERS[key](instance, penalty)
    text = qubo.save_text()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: n={qubo.n} m={qubo.m}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combopt",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"combopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("--problem", required=True, choices=("tsp", "kp", "maxcut"))
    p.add_argument("--instance", required=True, help="instance file path")
    p.add_argument("--solver", default="nl", choices=("nl", "qubo-sa"))
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--branches", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reads", type=int, default=64, help="qubo-sa restarts")
    p.add_argument("--sweeps", type=int, default=512, help="qubo-sa sweeps per read")
    p.add_argument("--optima", default=None, help="reference optima file for the ratio")
    p.add_argument("--out", default=None, help="write the sample set JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run an experiment plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--control", default=None, help="Holm control algorithm")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-maxcut", help="generate a random maxcut instance")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--min-w", type=int, default=1)
    p.add_argument("--max-w", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_maxcut)

    p = sub.add_parser("exact", help="reference optimum of a small instance")
    p.add_argument("--problem", required=True, choices=("tsp", "kp", "maxcut"))
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("stats", help="statistics over a score matrix CSV")
    p.add_argument("--results", required=True, help="CSV: instance,<alg>,<alg>,...")
    p.add_argument("--test", required=True, choices=("friedman", "holm", "wilcoxon"))
    p.add_argument("--control", default=None)
    p.add_argument("--algorithms", default=None, help="two columns for wilcoxon: A,B")
    p.add_argument("--direction", default="max", choices=("max", "min"))
    p.add_argument("--out", default=None, help="machine-readable CSV output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-qubo", help="write the penalty QUBO of an instance")
    p.add_argument("--problem", required=True, choices=("tsp", "kp", "maxcut"))
    p.add_argument("--instance", required=True)
    p.add_argument("--penalty", default="auto", help="'auto' or a positive number")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_qubo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SIZE
    except (ParseError, MetricError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ComboptError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
