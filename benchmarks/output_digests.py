"""Digest every deterministic output of combopt, one line per case.

Run it on two checkouts and diff the results to show that a refactoring
leaves the outputs byte-identical:

    PYTHONPATH=src python3 benchmarks/output_digests.py > digests.txt

or let it run both: with ``--base OTHER/src`` it runs itself once more, in a
fresh process importing ``combopt`` from that tree, prints each line that
differs, with the base's line first, and exits 1 if any does.

    PYTHONPATH=src python3 benchmarks/output_digests.py --base OTHER/src

Covered: the deterministic README command lines, qubo-sa ``solve`` JSON
(including reads that do not decode), ``export-qubo``, ``exact`` and
``--help`` output, qubo-sa plan records apart from ``wall_time``, every CSV of
``emit_report`` on six synthetic results tables, TSP, kp and
maxcut window subproblems and their decodes, annealer reads, the delta plans
of tsp9, disc52, kp50, mc10 and a generated mc200 (roots, tail, and each
rule's class and tables), and the ``max_steps``
sample-set JSON of the perfbench fixed-work configurations plus a kp50 SA solve
(set moves, the set delta rule and the kp window), each with one branch and,
through the forked portfolio, with two or three; the two-branch kp50 solve runs
once more without ``qm_inline``; an SA maxcut solve whose last step has a query
due runs with one branch and with two.  That branch steps in blocks, so it
queries every ``qm_period * 8`` steps: its ``qm_period`` of 2 makes one due at
step 2000 of 2001, as at every 16th step, and that last query improves the
incumbent.  The mc200 tabu solves scan every flip
of their bit array in each step, so ``tabu_candidates`` does not reach them;
an SA and a tabu solve of ``float9``, whose model has no delta plan, draw
their candidates and evaluate every one in full.  Each solve
gives two lines, ``samples`` (the JSON without its ``config`` block) and
``config``, so a change to the config echo alone shows up as such.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from combopt.benchstats import ResultsTable, emit_report
from combopt.cli import main as cli
from combopt.problems import (
    BUILDERS,
    McInstance,
    TspInstance,
    generate_random_maxcut,
    parse_kplib,
    parse_maxcut,
    parse_tsplib,
)
from combopt.qubo import kp_to_qubo, mcp_to_qubo, sa_sample, tsp_to_qubo
from combopt.solver import SolverConfig, solve
from combopt.solver.subproblem import qm_query
from combopt.state import State

DATA = Path(__file__).resolve().parent.parent / "data"


def emit(name: str, payload) -> None:
    if isinstance(payload, str):
        payload = payload.encode()
    print(f"{hashlib.sha256(payload).hexdigest()[:16]}  {name}")


def run_cli(name: str, args: list[str], out: Path | None = None) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli(args)
        except SystemExit as e:  # argparse --help
            code = e.code
    text = f"exit={code}\n{stdout.getvalue()}\n--stderr--\n{stderr.getvalue()}"
    if out is not None:
        text = text.replace(str(out.parent), "<tmp>")
        if out.exists():
            text += "\n--file--\n" + out.read_text()
    emit(name, text)


def cli_cases(tmp: Path) -> None:
    d = str(DATA)
    run_cli("readme solve qubo-sa mc10",
            ["solve", "--problem", "maxcut", "--instance", f"{d}/mc10.mc",
             "--solver", "qubo-sa", "--reads", "64"])
    out = tmp / "mc90.mc"
    run_cli("readme gen-maxcut", ["gen-maxcut", "--nodes", "90", "--density", "0.8",
                                  "--seed", "3", "--out", str(out)], out)
    run_cli("readme stats friedman",
            ["stats", "--results", f"{d}/fixtures/scores_case2.csv", "--test", "friedman"])
    for case in ("scores_case1", "scores_case3"):
        for test in ("friedman", "holm"):
            run_cli(f"stats {test} {case}",
                    ["stats", "--results", f"{d}/fixtures/{case}.csv", "--test", test])
    for problem, inst, extra in [
        ("maxcut", "mc10.mc", []), ("kp", "kp50.kp", []), ("tsp", "tsp7.tsp", []),
        ("tsp", "tsp8.tsp", ["--sweeps", "4", "--reads", "12"]),
        ("kp", "kp50.kp", ["--sweeps", "4", "--seed", "5"]),
    ]:
        out = tmp / f"solve-{problem}-{inst}-{len(extra)}.json"
        run_cli(f"solve qubo-sa {inst} {' '.join(extra)}",
                ["solve", "--problem", problem, "--instance", f"{d}/{inst}",
                 "--solver", "qubo-sa", "--optima", f"{d}/optima.txt",
                 "--out", str(out), *extra], out)
    for problem, inst in [("tsp", "tsp7.tsp"), ("kp", "kp50.kp"), ("maxcut", "mc10.mc")]:
        run_cli(f"exact {inst}", ["exact", "--problem", problem, "--instance", f"{d}/{inst}"])
        out = tmp / f"{inst}.qubo"
        run_cli(f"export-qubo {inst}", ["export-qubo", "--problem", problem,
                                        "--instance", f"{d}/{inst}", "--out", str(out)], out)
        run_cli(f"export-qubo {inst} penalty 7.5",
                ["export-qubo", "--problem", problem, "--instance", f"{d}/{inst}",
                 "--penalty", "7.5"])
    run_cli("exact disc51 oversize", ["exact", "--problem", "tsp",
                                      "--instance", f"{d}/disc51.tsp"])
    run_cli("solve missing file", ["solve", "--problem", "kp", "--instance", "nope.kp"])
    run_cli("--help", ["--help"])
    for sub in ("solve", "bench", "gen-maxcut", "exact", "stats", "export-qubo"):
        run_cli(f"{sub} --help", [sub, "--help"])


def plan_cases(tmp: Path) -> None:
    for time_limit in (600.0, 1e-9):
        plan = {
            "optima": str(DATA / "optima.txt"), "runs": 2, "master_seed": 3,
            "time_limit": time_limit,
            "algorithms": [
                {"name": "qubo-sa", "kind": "qubo-sa", "config": {"reads": 16, "sweeps": 128}},
                {"name": "cold", "kind": "qubo-sa", "config": {"reads": 12, "sweeps": 3}},
            ],
            "instances": [
                {"id": "tsp7", "problem": "tsp", "path": str(DATA / "tsp7.tsp")},
                {"id": "kp50", "problem": "kp", "path": str(DATA / "kp50.kp")},
                {"id": "mc10", "problem": "maxcut", "path": str(DATA / "mc10.mc")},
            ],
        }
        plan_path = tmp / f"plan-{time_limit}.json"
        plan_path.write_text(json.dumps(plan))
        out = tmp / f"bench-{time_limit}"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli(["bench", "--plan", str(plan_path), "--out-dir", str(out)])
        rows = [json.loads(ln) for ln in (out / "records.jsonl").read_text().splitlines()]
        for r in rows:
            r.pop("wall_time")
        emit(f"plan records time_limit={time_limit}", json.dumps(rows, sort_keys=True))


def _plan_bytes(value) -> bytes:
    """Exact bytes of a delta rule's attribute: arrays by dtype, shape and
    data, numbers by repr, containers item by item."""
    if isinstance(value, np.ndarray):
        return repr((value.dtype.str, value.shape)).encode() + value.tobytes()
    if isinstance(value, dict):
        value = sorted(value.items())
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_plan_bytes(v) for v in value) + b"]"
    return repr(value).encode()


def delta_plan_cases() -> None:
    models = [
        (name, BUILDERS[kind](parse((DATA / file).read_text(), name)))
        for name, kind, parse, file in [
            ("tsp9", "tsp", parse_tsplib, "tsp9.tsp"),
            ("disc52", "tsp", parse_tsplib, "disc52.tsp"),
            ("kp50", "kp", parse_kplib, "kp50.kp"),
            ("mc10", "mc", parse_maxcut, "mc10.mc"),
        ]
    ]
    models.append(("mc200", BUILDERS["mc"](generate_random_maxcut(200, 0.1, seed=0))))
    for name, model in models:
        plan = model.freeze()._plan
        parts = [_plan_bytes(plan.roots), _plan_bytes([entry[0] for entry in plan.tail])]
        for did, rules in sorted(plan.rules.items()):
            parts += [f"{did} {type(rule).__name__} ".encode() + _plan_bytes(vars(rule))
                      for rule in rules]
        emit(f"delta plan {name}", b"\n".join(parts))


def synthetic_table(rng: random.Random, n_instances: int, algorithms: str, runs: int,
                    ratios=None, missing=()) -> ResultsTable:
    """Shuffled records of every (instance, algorithm) cell outside ``missing``;
    ``ratios`` draws each best_ratio from a few values, so cell means tie."""
    table = ResultsTable()
    for i, alg, run in itertools.product(range(n_instances), algorithms, range(runs)):
        if (f"i{i}", alg) in missing:
            continue
        best = rng.choice(ratios) if ratios else rng.uniform(0.3, 1.0)
        table.add({"instance": f"i{i}", "algorithm": alg, "run": run,
                   "best_value": None if best < 0.4 else round(100 * best, 2),
                   "best_ratio": best, "mean_ratio": best * rng.random(),
                   "feasible_fraction": rng.randint(0, 8) / 8, "n_samples": 8,
                   "wall_time": round(rng.uniform(0.01, 2.0), 4)})
    rng.shuffle(table.records)
    return table


def report_cases(tmp: Path) -> None:
    rng = random.Random(2024)
    cases = [
        ("empty", ResultsTable(), None),
        ("one algorithm", synthetic_table(rng, 4, "a", 3), None),
        ("two algorithms", synthetic_table(rng, 6, "ab", 3), None),
        ("three algorithms tied", synthetic_table(rng, 8, "abc", 1, (0.5, 0.75, 1.0)), None),
        ("missing cell", synthetic_table(rng, 5, "abc", 2, missing={("i2", "b")}), None),
        ("control c", synthetic_table(rng, 7, "abc", 3), "c"),
    ]
    for k, (name, table, control) in enumerate(cases):
        paths = emit_report(table, tmp / f"report-{k}", control=control)
        for key, path in paths.items():
            emit(f"report {name} {key}", path.read_bytes())


def float9() -> TspInstance:
    """Nine cities with asymmetric float distances: a model with no delta plan."""
    c = np.random.default_rng(11).uniform(0.5, 30.0, (9, 9))
    np.fill_diagonal(c, 0.0)
    return TspInstance("float9", 9, c)


def window_cases() -> None:
    instances = [
        parse_tsplib((DATA / "tsp9.tsp").read_text(), "tsp9"),
        parse_tsplib((DATA / "disc52.tsp").read_text(), "disc52"),
        float9(),
    ]
    for inst in instances:
        model = BUILDERS["tsp"](inst)
        tour = np.random.default_rng(inst.n).permutation(inst.n)
        for window, seed in itertools.product((1, 2, 5, 16, inst.n), range(3)):
            if window > inst.n:
                continue
            q = qm_query(model, State([tour]), window, np.random.default_rng(seed))
            parts = [q.label, q.qubo.save_text()]
            for bits, _ in sa_sample(q.qubo, reads=4, sweeps=16, seed=seed):
                state = q.decode(bits)
                parts.append("None" if state is None else repr(state.values[0].tolist()))
            w = int(round(q.qubo.n ** 0.5))
            for perm in itertools.islice(itertools.permutations(range(w)), 6):
                grid = np.zeros((w, w), dtype=np.int8)
                grid[list(perm), range(w)] = 1
                parts.append(repr(q.decode(grid.reshape(-1)).values[0].tolist()))
            emit(f"window {inst.name} w={window} seed={seed}", "\n".join(parts))
        for penalty in (None, 3.25):
            emit(f"tsp_to_qubo {inst.name} penalty={penalty}",
                 tsp_to_qubo(inst, penalty)[0].save_text())


def kp_mc_window_cases() -> None:
    kp = parse_kplib((DATA / "kp50.kp").read_text(), "kp50")
    order = np.random.default_rng(kp.n).permutation(kp.n)
    kp_in = np.sort(order[np.cumsum(kp.weights[order]) <= kp.capacity])
    rng = np.random.default_rng(40)
    float40 = McInstance("float40", 40, [
        (u, v, float(rng.uniform(-3.0, 9.0)))
        for u, v in itertools.combinations(range(40), 2) if rng.random() < 0.3
    ])
    cases = [(kp, State([kp_in]))] + [
        (inst, State([np.random.default_rng(inst.n).integers(0, 2, inst.n)]))
        for inst in (generate_random_maxcut(200, 0.1, seed=0, name="mc200"), float40)
    ]
    for inst, incumbent in cases:
        model = BUILDERS["kp" if inst is kp else "mc"](inst)
        for window, seed in itertools.product((1, 2, 16, inst.n), range(3)):
            q = qm_query(model, incumbent, window, np.random.default_rng(seed))
            parts = [q.label, q.qubo.save_text()]
            for bits, _ in sa_sample(q.qubo, reads=4, sweeps=16, seed=seed):
                state = q.decode(bits)
                parts.append("None" if state is None else repr(state.values[0].tolist()))
            emit(f"window {inst.name} w={window} seed={seed}", "\n".join(parts))


def sampler_cases() -> None:
    qubos = [
        ("mc60", mcp_to_qubo(generate_random_maxcut(60, 0.3, seed=2))[0]),
        ("tsp7", tsp_to_qubo(parse_tsplib((DATA / "tsp7.tsp").read_text(), "tsp7"))[0]),
        ("kp50", kp_to_qubo(parse_kplib((DATA / "kp50.kp").read_text(), "kp50"))[0]),
    ]
    for name, q in qubos:
        for sweeps in (1, 2, 64):
            out = sa_sample(q, reads=3, sweeps=sweeps, seed=9, backend="numpy")
            emit(f"sa_sample {name} sweeps={sweeps}",
                 b"".join(bits.tobytes() + repr(e).encode() for bits, e in out))


def emit_solve(name: str, model, cfg: SolverConfig) -> None:
    """Two lines per solve: the samples and warnings, then the config echo."""
    doc = json.loads(solve(model, cfg).to_json())
    config = doc.pop("config")
    emit(f"{name} samples", json.dumps(doc, sort_keys=True))
    emit(f"{name} config", json.dumps(config, sort_keys=True))


def solver_cases() -> None:
    disc52 = BUILDERS["tsp"](parse_tsplib((DATA / "disc52.tsp").read_text(), "disc52"))
    kp50 = BUILDERS["kp"](parse_kplib((DATA / "kp50.kp").read_text(), "kp50"))
    for seed in (0, 1):
        cfg = SolverConfig(seed=seed, n_branches=1, qm_inline=True, max_steps=5_000,
                           time_limit=600.0)
        emit_solve(f"tsp52-window seed={seed}", disc52, cfg)
    for seed in (0, 1):
        mc = BUILDERS["mc"](generate_random_maxcut(200, 0.1, seed=seed, name="mc200"))
        cfg = SolverConfig(seed=seed, n_branches=1, qm_inline=True, max_steps=2_000,
                           time_limit=600.0, cm_kind="tabu", tabu_candidates=12)
        emit_solve(f"mc200-tabu seed={seed}", mc, cfg)
    for seed in (0, 1):
        cfg = SolverConfig(seed=seed, n_branches=1, qm_inline=True, max_steps=3_000,
                           time_limit=600.0)
        emit_solve(f"kp50-sa seed={seed}", kp50, cfg)
    for n_branches in (2, 3):
        cfg = SolverConfig(seed=0, n_branches=n_branches, qm_inline=True, max_steps=3_000,
                           time_limit=600.0)
        emit_solve(f"kp50-sa branches={n_branches}", kp50, cfg)
    # qm_inline selects nothing, so this samples line equals "kp50-sa branches=2"
    emit_solve("kp50-sa default branches=2", kp50,
               SolverConfig(seed=0, n_branches=2, max_steps=3_000, time_limit=600.0))
    mc = BUILDERS["mc"](generate_random_maxcut(200, 0.1, seed=0, name="mc200"))
    cfg = SolverConfig(seed=0, n_branches=2, qm_inline=True, max_steps=2_000,
                       time_limit=600.0, cm_kind="tabu", tabu_candidates=12)
    emit_solve("mc200-tabu branches=2", mc, cfg)
    # a query is due before the last step, so its samples are offered after it,
    # just before the branch finalizes: a block-stepping branch queries every
    # qm_period * 8 = 16 steps, step 2000 among them
    mc = BUILDERS["mc"](generate_random_maxcut(200, 0.2, (1, 10), seed=7, name="mc200"))
    for n_branches in (1, 2):
        cfg = SolverConfig(seed=3, n_branches=n_branches, max_steps=2_001, time_limit=600.0,
                           qm_period=2)
        emit_solve(f"mc200-sa max_steps=2001 branches={n_branches}", mc, cfg)
    # every candidate of a model without a delta plan is evaluated in full
    model = BUILDERS["tsp"](float9())
    if model.freeze()._plan is not None:
        raise SystemExit("float9 has a delta plan: its solves no longer evaluate in full")
    for kind in ("sa", "tabu"):
        cfg = SolverConfig(seed=2, n_branches=1, max_steps=2_000, time_limit=600.0,
                           cm_kind=kind)
        emit_solve(f"float9-{kind} no plan", model, cfg)


def all_cases() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cli_cases(Path(tmp))
        plan_cases(Path(tmp))
        report_cases(Path(tmp))
    delta_plan_cases()
    window_cases()
    kp_mc_window_cases()
    sampler_cases()
    solver_cases()


def compare(base: Path) -> int:
    """Print the lines that differ from a run on ``base``; the exit status."""
    env = {**os.environ, "PYTHONPATH": str(base.resolve())}
    with subprocess.Popen([sys.executable, __file__], env=env, stdout=subprocess.PIPE,
                          text=True) as other:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            all_cases()
        theirs = other.communicate()[0]
    if other.returncode:
        raise SystemExit(f"the run on {base} failed with exit status {other.returncode}")
    ours, theirs = out.getvalue().splitlines(), theirs.splitlines()
    differ = 0
    for old, new in itertools.zip_longest(theirs, ours, fillvalue="(no line)"):
        if old != new:
            differ += 1
            print(f"base {old}\nthis {new}")
    print(f"{differ} of {max(len(ours), len(theirs))} lines differ")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="source tree to compare against")
    args = parser.parse_args()
    if args.base is None:
        all_cases()
    else:
        sys.exit(compare(args.base))
