"""The benchmark's workloads and the measurements taken over them.

Every workload builds its inputs from the workload seed, runs its unit of
work (one ``solve`` or one baseline round of ``run_experiment`` plus
``emit_report``) repeatedly until the run's time is up, checks each output,
and reduces the units to the end-to-end metrics.  A traced run alternates an
untraced and a traced unit on the same seed: the pair gives the tracing
overhead and, for deterministic units, a repeat check.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import combopt.benchstats as bs
from combopt.benchstats import approximation_ratio, is_clamped
from combopt.problems import emit_maxcut
from combopt.solver import SolverConfig, branch, solve

from inputs import DATA, SUFFIX, Instance, prepare
from machine import speed_factor
from tracing import ROUND, SOLVE, Tracer, layer_metrics, layer_shares

OUT = Path(__file__).resolve().parent / "out"

# a time limit no run can reach: the contract ends every run within 180 s
NEVER = 600.0
# every run does at least this many units, and best_ratio averages exactly
# these first units, so it never depends on how many more fit in the time
QUALITY_UNITS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict = field(default_factory=dict)  # SolverConfig fields, seed excluded
    # solver seeds 0, 1, 2, ... whatever the workload seed: the instance is
    # fixed too, so every run repeats exactly the same work
    fixed_panel: bool = False

    @property
    def fixed_work(self) -> bool:
        return "max_steps" in self.config

    @property
    def baseline(self) -> bool:
        return not self.config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tsp52-window",
            "disc52, inline QM on 256-variable one-hot windows: subproblem, qubo and "
            "sampler dominate, moves and modeling are the small part",
            dict(n_branches=1, qm_inline=True, max_steps=5_000, time_limit=NEVER),
            fixed_panel=True,
        ),
        Workload(
            "mc200-tabu",
            "generated 200-node maxcut, tabu with 12 candidates per step: moves and "
            "modeling dominate, QM windows are 16 variables",
            dict(n_branches=1, qm_inline=True, max_steps=2_000, time_limit=NEVER,
                 cm_kind="tabu", tabu_candidates=12),
        ),
        Workload(
            "kp50-deadline",
            "kp50 on the default path: wall-clock limit, one branch per CPU, "
            "asynchronous QM pool and mailbox, calibration probe",
            dict(time_limit=1.0),
        ),
        Workload(
            "qubo-sa-baseline",
            "kp50 and the generated mc200 through run_experiment and emit_report: the "
            "only workload on full-instance encoders and the benchstats layer",
        ),
    )
}

# baseline plan: reads fixed, time limit never binds
BASELINE_READS = 16
BASELINE_SWEEPS = 128


def _fail(message: str) -> None:
    print(f"FAIL {message}", file=sys.stderr)


def unit_seed(seed: int, unit: int) -> int:
    return (seed * 1_000_003 + unit) & 0x7FFFFFFFFFFFFFFF


# -- one unit of work -------------------------------------------------------------------


class ReadCounter:
    """Counts annealing reads completed inside one solve.

    Used as a context manager around the solve, it wraps
    ``combopt.solver.branch.sa_sample`` (one call per QM query).  Reads that
    complete after :meth:`stop` are not counted.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.reads = 0
        self._open = True
        self._original = None

    def __enter__(self):
        self._original = original = branch.sa_sample

        def counted(qubo, *args, **kwargs):
            result = original(qubo, *args, **kwargs)
            with self._lock:
                if self._open:
                    self.reads += len(result)
            return result

        branch.sa_sample = counted
        return self

    def stop(self) -> int:
        with self._lock:
            self._open = False
            return self.reads

    def __exit__(self, *exc):
        branch.sa_sample = self._original


@dataclass
class Unit:
    wall: float
    steps: float  # local-search steps (solver) or single-flip visits (baseline)
    reads: int
    ratios: dict[str, float]  # instance id -> ratio of the best feasible sample
    digest: str
    errors: list[str]
    speed: float = 1.0  # machine speed factor measured around the unit


def run_solve(wl: Workload, inst: Instance, seed: int, tracer: Tracer | None,
              overrides: dict) -> Unit:
    cfg = SolverConfig(seed=seed, **{**wl.config, **overrides})
    with ReadCounter() as counter:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer.span(SOLVE):
                    result = solve(inst.model, cfg)
            else:
                result = solve(inst.model, cfg)
            wall = time.perf_counter() - t0
            reads = counter.stop()
            text = result.to_json()
        finally:
            if tracer is not None:
                tracer.uninstall()

    errors = []
    finals = [s for s in result if s.source == "final"]
    if len(finals) != cfg.resolved_branches():
        errors.append(f"{len(finals)} final samples for {cfg.resolved_branches()} branches")
    if cfg.max_steps is not None:
        short = [s.step for s in finals if s.step != cfg.max_steps]
        if short:
            errors.append(f"fixed-work solve truncated: final steps {short} != {cfg.max_steps}")
    ratio, more = check_best(inst, result.best())
    errors += more
    return Unit(wall, float(sum(s.step for s in finals)), reads, {inst.id: ratio},
                hashlib.sha256(text.encode()).hexdigest(), errors)


def check_best(inst: Instance, best) -> tuple[float, list[str]]:
    """Structural validity, objective agreement and ratio of a best sample."""
    model, sense = inst.model, inst.model.tags["sense"]
    problems_found = model.validate_state(best.state)
    if problems_found:
        return 0.0, [f"{inst.id}: invalid best state: {problems_found}"]
    ev = model.evaluate(best.state)
    errors = []
    if not math.isclose(ev.objective, best.objective, rel_tol=1e-9, abs_tol=1e-9):
        errors.append(f"{inst.id}: objective {best.objective} != evaluate {ev.objective}")
    if not (best.feasible and ev.feasible):
        errors.append(f"{inst.id}: best sample is infeasible")
    value = -ev.objective if sense == "max" else ev.objective
    if is_clamped(value, inst.reference, sense):
        errors.append(f"{inst.id}: value {value} beats the reference {inst.reference}")
    return approximation_ratio(value, inst.reference, sense, ev.feasible), errors


def write_plan(instances: list[Instance]) -> tuple[Path, dict]:
    """Instance files and optima for the baseline under ``out/``, and the plan."""
    base = OUT / "baseline"
    base.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        if inst.family == "mc":
            text = emit_maxcut(inst.model.tags["instance"])
        else:
            text = (DATA / f"{inst.id}{SUFFIX[inst.family]}").read_text()
        (base / f"{inst.id}{SUFFIX[inst.family]}").write_text(text)
    (base / "optima.txt").write_text(
        "".join(f"{inst.id} {inst.reference!r}\n" for inst in instances))
    plan = {
        "optima": "optima.txt",
        "runs": 1,
        "time_limit": NEVER,
        "algorithms": [{"name": "qubo-sa", "kind": "qubo-sa",
                        "config": {"reads": BASELINE_READS, "sweeps": BASELINE_SWEEPS}}],
        "instances": [{"id": inst.id, "problem": inst.family,
                       "path": f"{inst.id}{SUFFIX[inst.family]}"} for inst in instances],
    }
    return base, plan


def run_round(instances: list[Instance], plan_dir: Path, plan_doc: dict, seed: int,
              tracer: Tracer | None, n_vars: dict[str, int]) -> Unit:
    plan = bs.Plan.from_json(json.dumps({**plan_doc, "master_seed": seed}), base_dir=plan_dir)
    cells = plan_dir / "cells"
    (cells / "records.jsonl").unlink(missing_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span(ROUND):
                table = bs.run_experiment(plan, cells, resume=False)
                with tracer.span("report.emit"):
                    paths = bs.emit_report(table, cells)
        else:
            table = bs.run_experiment(plan, cells, resume=False)
            paths = bs.emit_report(table, cells)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    errors, ratios = [], {}
    by_id = {inst.id: inst for inst in instances}
    for rec in table.records:
        inst = by_id[rec["instance"]]
        if rec["n_samples"] != BASELINE_READS:
            errors.append(f"{inst.id}: {rec['n_samples']} decoded+undecodable reads "
                          f"!= {BASELINE_READS} requested")
        if rec["best_value"] is None:
            errors.append(f"{inst.id}: no feasible read")
        elif is_clamped(rec["best_value"], inst.reference, inst.model.tags["sense"]):
            errors.append(f"{inst.id}: value {rec['best_value']} beats the reference")
        ratios[inst.id] = rec["best_ratio"] or 0.0
    if sorted(ratios) != sorted(by_id):
        errors.append(f"cells {sorted(ratios)} != instances {sorted(by_id)}")
    rows = paths["records"].read_text().strip().splitlines()
    if len(rows) != len(table.records) + 1:
        errors.append("records.csv row count does not match the records")
    deterministic = [{k: v for k, v in rec.items() if k != "wall_time"}
                     for rec in table.records]
    digest = hashlib.sha256(json.dumps(deterministic, sort_keys=True).encode()).hexdigest()
    reads = sum(rec["n_samples"] for rec in table.records)
    visits = sum(rec["n_samples"] * BASELINE_SWEEPS * n_vars[rec["instance"]]
                 for rec in table.records)
    return Unit(wall, float(visits), reads, ratios, digest, errors)


# -- a whole run --------------------------------------------------------------------------


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: dict
    tracers: list[Tracer] = field(default_factory=list)


def run(name: str, seed: int, seconds: float, trace: bool, setup_s: float | None = None,
        max_units: int | None = None, overrides: dict | None = None) -> RunResult:
    """Measure one workload for ``seconds`` and reduce it to its metrics.

    ``max_units`` and ``overrides`` (SolverConfig fields) shrink the run for
    tests; the benchmark itself never sets them.
    """
    wl = WORKLOADS[name]
    overrides = overrides or {}
    stages: dict[str, float] = {"parse": 0.0, "build": 0.0, "freeze": 0.0}

    @contextmanager
    def timer(stage):
        t0 = time.perf_counter()
        yield
        stages[stage] += time.perf_counter() - t0

    instances = prepare(name, seed, timer)
    if wl.baseline:
        plan_dir, plan_doc = write_plan(instances)
        n_vars = {inst.id: bs.runner.ENCODERS[inst.family](inst.model.tags["instance"])[0].n
                  for inst in instances}

        def unit(i, tracer):
            return run_round(instances, plan_dir, plan_doc, unit_seed(seed, i), tracer, n_vars)
    else:
        def unit(i, tracer):
            s = i if wl.fixed_panel else unit_seed(seed, i)
            return run_solve(wl, instances[0], s, tracer, overrides)

    attempted = failed = 0
    plain: list[Unit] = []
    traced: list[Unit] = []
    tracers: list[Tracer] = []

    def attempt(i, tracer, what) -> Unit | None:
        nonlocal attempted, failed
        attempted += 1
        before = speed_factor()
        try:
            u = unit(i, tracer)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            failed += 1
            _fail(f"{what}: {type(exc).__name__}: {exc}")
            return None
        u.speed = (before + speed_factor()) / 2
        failed += bool(u.errors)
        for e in u.errors:
            _fail(f"{what}: {e}")
        return u

    deterministic = wl.fixed_work or wl.baseline
    quality: list[Unit] = []
    t_end = time.perf_counter() + seconds
    i = 0
    while i < QUALITY_UNITS or time.perf_counter() < t_end:
        if max_units is not None and i >= max_units:
            break
        u = attempt(i, None, f"unit {i}")
        if u is not None:
            plain.append(u)
            if i < QUALITY_UNITS:
                quality.append(u)
        if trace:
            tracer = Tracer()
            t = attempt(i, tracer, f"traced unit {i}")
            if t is not None:
                traced.append(t)
                tracers.append(tracer)
                if deterministic and u is not None and t.digest != u.digest:
                    failed += 1
                    _fail(f"unit {i}: traced repeat changed the output digest")
        elif deterministic and i == 0 and u is not None:
            # the repeat is timed like any other unit
            again = attempt(0, None, "repeat of unit 0")
            if again is not None:
                plain.append(again)
                if again.digest != u.digest:
                    failed += 1
                    _fail("repeat of unit 0: output digest changed")
        i += 1

    notes = {"units": len(plain), "traced_units": len(traced),
             "unit_raw_steps_per_s": [u.steps / u.wall for u in plain],
             "unit_speed": [u.speed for u in plain]}
    if not quality or (trace and not traced):
        return RunResult(max(attempted, 1), max(failed, 1), {}, notes)

    def rate(units, attr, speed=True):
        return statistics.median(getattr(u, attr) / u.wall * (u.speed if speed else 1.0)
                                 for u in units)

    # printed but unbounded: reads are a fixed multiple of steps on every
    # workload but the deadline one, where GIL scheduling makes them noisy
    notes["extra"] = {
        "reads_per_s": (rate(plain, "reads"), "reads/s"),
        "steps_per_s.raw": (rate(plain, "steps", False), "steps/s"),
        "reads_per_s.raw": (rate(plain, "reads", False), "reads/s"),
    }
    if not trace:
        ids = list(quality[0].ratios)
        metrics = {
            "steps_per_s": (rate(plain, "steps"), "steps/s"),
            "best_ratio": (statistics.fmean(
                statistics.fmean(u.ratios[k] for u in quality) for k in ids), "ratio"),
            "setup_s": (setup_s if setup_s is not None else sum(stages.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        return RunResult(attempted, failed, metrics, notes)

    layers = layer_metrics(tracers, None if deterministic else wl.config["time_limit"],
                           stages)
    untraced, with_trace = rate(plain, "steps"), rate(traced, "steps")
    layers["trace.steps_per_s_delta"] = with_trace - untraced
    layers["trace.overhead_frac"] = 1.0 - with_trace / untraced
    layers["sampler.reads_per_s"] = rate(plain, "reads")
    metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
    notes["layer_shares"] = layer_shares(tracers)
    return RunResult(attempted, failed, metrics, notes, tracers)


PER_LAYER_UNITS = {
    "problems.parse_ms": "ms",
    "problems.build_ms": "ms",
    "modeling.freeze_ms": "ms",
    "modeling.evaluate_us.p50": "us",
    "modeling.evaluate_us.p99": "us",
    "modeling.evaluate_calls": "count",
    "moves.propose_us.p50": "us",
    "moves.propose_us.p99": "us",
    "moves.propose_calls": "count",
    "branch.step_self_us": "us",
    "branch.step_calls": "count",
    "branch.accept_rate": "fraction",
    "branch.calibrate_ms": "ms",
    "branch.final_temp_ratio": "ratio",
    "subproblem.build_ms.p50": "ms",
    "subproblem.build_ms.p99": "ms",
    "qubo.add_calls_per_query": "calls/query",
    "subproblem.launched": "count",
    "subproblem.decoded": "count",
    "subproblem.feasible": "count",
    "subproblem.improved": "count",
    "subproblem.improved_per_launch": "ratio",
    "qubo.fields_ms": "ms",
    "qubo.fields_calls_per_sample": "calls/sample",
    "qubo.energies_ms": "ms",
    "sampler.sample_ms.p50": "ms",
    "sampler.sample_ms.p99": "ms",
    "sampler.sample_calls": "count",
    "sampler.ns_per_visit": "ns",
    "sampler.busy_frac": "fraction",
    "sampler.reads_per_s": "reads/s",
    "portfolio.self_ms": "ms",
    "portfolio.mailbox_lag_ms": "ms",
    "portfolio.overrun_ms": "ms",
    "sampleset.merge_ms": "ms",
    "sampleset.to_json_ms": "ms",
    "encode.build_ms": "ms",
    "runner.cell_self_ms": "ms",
    "report.emit_ms": "ms",
    "trace.steps_per_s_delta": "steps/s",
    "trace.overhead_frac": "fraction",
}
