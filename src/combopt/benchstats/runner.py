"""Experiment runner: instances x algorithms x repeated runs.

A plan is a single JSON document naming instance files, algorithms (the
portfolio solver and/or the binary annealing baseline), the run count, time
limits, and a reference-optima file.  Cells run with a seed derived from
(master seed, instance, algorithm, run), results go to a JSONL log, and a
resumed run skips the cells already in it, so interrupted experiments resume.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from .. import forking
from ..errors import DomainError, MetricError, ParseError
from ..families import ENCODERS, PARSERS, family, native
from ..problems import BUILDERS
from ..qubo import sa_sample
from ..solver import SolverConfig, solve
from .metrics import sampleset_metrics

RECORD_FIELDS = [
    "instance",
    "algorithm",
    "run",
    "best_value",
    "best_ratio",
    "mean_ratio",
    "feasible_fraction",
    "n_samples",
    "wall_time",
]


@dataclass(frozen=True)
class PlanInstance:
    id: str
    problem: str  # "tsp", "kp", or "mc"
    path: str


@dataclass(frozen=True)
class PlanAlgorithm:
    name: str
    kind: str  # "nl" (portfolio) or "qubo-sa" (binary baseline)
    config: dict = field(default_factory=dict)


# config keys per algorithm kind; the plan sets time_limit, each cell its seed
PLAN_KEYS = {
    "nl": {f.name for f in fields(SolverConfig)} - {"time_limit", "seed"},
    "qubo-sa": {"reads", "sweeps"},
}


@dataclass
class Plan:
    instances: list[PlanInstance]
    algorithms: list[PlanAlgorithm]
    runs: int
    master_seed: int
    time_limit: float
    optima_path: str | None = None
    base_dir: Path = Path(".")

    @classmethod
    def from_json(cls, text: str, base_dir: Path = Path(".")) -> "Plan":
        """Parse a plan and check it before any cell runs: a malformed plan or a
        key outside ``PLAN_KEYS`` raises ``ParseError``, a bad nl value ``DomainError``."""
        try:
            doc = json.loads(text)
            plan = cls(
                instances=[PlanInstance(d["id"], family(d["problem"]), d["path"])
                           for d in doc["instances"]],
                algorithms=[PlanAlgorithm(d["name"], d.get("kind", d["name"]),
                                          d.get("config", {})) for d in doc["algorithms"]],
                runs=doc.get("runs", 10),
                master_seed=doc.get("master_seed", 0),
                time_limit=doc.get("time_limit", 5.0),
                optima_path=doc.get("optima"),
                base_dir=base_dir,
            )
            if not (type(plan.runs) is int and plan.runs >= 1):
                raise ParseError("plan runs must be an integer >= 1")
            if type(plan.master_seed) is not int:
                raise ParseError("plan master_seed must be an integer")
            if type(plan.time_limit) not in (int, float) or not 0 < plan.time_limit < math.inf:
                raise ParseError("plan time_limit must be a finite number > 0")
            for alg in plan.algorithms:
                if alg.kind not in PLAN_KEYS:
                    raise ParseError(f"unknown algorithm kind {alg.kind!r} in plan")
                for key, value in alg.config.items():
                    if key not in PLAN_KEYS[alg.kind]:
                        raise ParseError(f"algorithm {alg.name!r}: unknown key {key!r}")
                    if alg.kind == "qubo-sa" and not (type(value) is int and value >= 1):
                        raise ParseError(f"algorithm {alg.name!r}: {key} must be int >= 1")
                if alg.kind == "nl":
                    SolverConfig(time_limit=plan.time_limit, **alg.config)
        except KeyError as e:
            raise ParseError(f"plan entry lacks the key {e}") from e
        except (AttributeError, TypeError, ValueError) as e:  # JSONDecodeError too
            raise ParseError(f"malformed plan: {e}") from e
        return plan

    @classmethod
    def load(cls, path: str | Path) -> "Plan":
        p = Path(path)
        return cls.from_json(p.read_text(), base_dir=p.parent)


def cell_seed(master_seed: int, instance: str, algorithm: str, run: int) -> int:
    """Stable 63-bit seed for one experiment cell."""
    text = f"{master_seed}|{instance}|{algorithm}|{run}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def load_optima(path: str | Path) -> dict[str, float]:
    """Reference-optima file: lines of ``instance_id optimum``."""
    out: dict[str, float] = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            name, value = ln.split()
            out[name] = float(value)
        except ValueError:
            raise ParseError(f"bad optima line: {ln!r}") from None
    return out


@dataclass
class ResultsTable:
    """Flat per-run records of an experiment."""

    records: list[dict] = field(default_factory=list)

    def add(self, record: dict) -> None:
        self.records.append(record)

    def completed(self) -> set[tuple[str, str, int]]:
        return {(r["instance"], r["algorithm"], r["run"]) for r in self.records}

    def runs_of(self, instance: str, algorithm: str) -> list[dict]:
        return [
            r
            for r in self.records
            if r["instance"] == instance and r["algorithm"] == algorithm
        ]

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "ResultsTable":
        table = cls()
        for ln in Path(path).read_text().splitlines():
            if ln.strip():
                table.add(json.loads(ln))
        return table


def qubo_sa_reads(model, family: str, reads: int, sweeps: int, seed: int,
                  time_limit: float | None = None) -> list:
    """The qubo-sa baseline: anneal the full-instance encoding of ``model``.

    Returns one entry per completed read, in read order: ``(state,
    evaluation)``, or ``None`` when the read does not decode to a state.
    Without a time limit the reads run as one batch, in this process.  Under
    ``time_limit`` they run in batches of ``reads // 8``, each seeded ``seed``
    plus its first read, and where ``fork`` exists the batches go to one forked
    worker per CPU (``forking.default_workers``, as the solver's branches do):
    worker ``w`` of ``W`` runs batches ``w``, ``w + W``, ...  A batch starts
    only while time is left, except the first, which always runs.  This process
    decodes and evaluates the bits in read order, so unless the limit binds the
    entries do not depend on the number of workers.
    """
    if reads < 1:
        raise DomainError(f"reads must be >= 1, got {reads}")
    t0 = time.monotonic()
    qubo, decode = ENCODERS[family](model.tags["instance"])
    size = reads if time_limit is None else max(1, reads // 8)
    firsts = range(0, reads, size)

    def anneal(w: int, n_workers: int) -> list[tuple[int, list]]:
        """``(first read, bits of each read)`` of batches ``w``, ``w + n_workers``, ..."""
        out = []
        for first in firsts[w::n_workers]:
            if first and time.monotonic() - t0 >= time_limit:
                break
            samples = sa_sample(qubo, reads=min(size, reads - first), sweeps=sweeps,
                                seed=seed + first)
            out.append((first, [bits for bits, _ in samples]))
        return out

    n_workers = min(forking.default_workers(), len(firsts))
    if n_workers > 1 and forking.fork_available():
        per_worker = forking.run_forked(lambda w, _stop: anneal(w, n_workers), n_workers,
                                        "qubo-sa worker")
    else:
        per_worker = [anneal(0, 1)]
    batches = dict(batch for done in per_worker for batch in done)
    entries = []
    for first in sorted(batches):
        for bits in batches[first]:
            state = decode(bits)
            entries.append(None if state is None else (state, model.evaluate(state)))
    return entries


def run_cell(model, family: str, algorithm: PlanAlgorithm, seed: int,
             time_limit: float, optimum: float) -> dict:
    """One (instance, algorithm, run) execution, reduced to metric values."""
    sense = model.tags["sense"]
    t0 = time.monotonic()
    if algorithm.kind == "nl":
        cfg = SolverConfig(time_limit=time_limit, seed=seed, **algorithm.config)
        result = solve(model, cfg)
        pairs = [(native(sense, s.objective), s.feasible) for s in result]
    else:
        reads = int(algorithm.config.get("reads", 32))
        sweeps = int(algorithm.config.get("sweeps", 512))
        entries = qubo_sa_reads(model, family, reads, sweeps, seed, time_limit)
        pairs = [
            (0.0, False) if e is None else (native(sense, e[1].objective), e[1].feasible)
            for e in entries
        ]
    wall = time.monotonic() - t0

    feasible_values = [v for v, ok in pairs if ok]
    best_value = (max if sense == "max" else min)(feasible_values, default=None)
    metrics = sampleset_metrics(pairs, optimum, sense)
    return {
        "best_value": best_value,
        "best_ratio": metrics.best_ratio,
        "mean_ratio": metrics.mean_ratio,
        "feasible_fraction": metrics.feasible_fraction,
        "n_samples": len(pairs),
        "wall_time": round(wall, 4),
    }


def run_experiment(plan: Plan, out_dir: str | Path, resume: bool = True,
                   log=None) -> ResultsTable:
    """Execute every cell of the plan, writing each record to ``records.jsonl``.

    Every instance needs a reference optimum in the plan's optima file, since
    each record carries ratio metrics; a missing one raises ``MetricError``
    before any cell runs.  With ``resume=True`` the log is appended to and the
    cells already in it are skipped, so re-running a completed plan is a
    no-op; with ``resume=False`` the log starts empty.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.jsonl"

    optima = load_optima(plan.base_dir / plan.optima_path) if plan.optima_path else {}
    missing = [i.id for i in plan.instances if i.id not in optima]
    if missing:
        raise MetricError("reference optima missing for instances: " + ", ".join(missing))

    table = ResultsTable()
    if resume and records_path.exists():
        table = ResultsTable.load_jsonl(records_path)
    done = table.completed()

    models = {}
    for inst in plan.instances:
        text = (plan.base_dir / inst.path).read_text()
        parsed = PARSERS[inst.problem](text, Path(inst.path).stem)
        models[inst.id] = (inst.problem, BUILDERS[inst.problem](parsed))

    with open(records_path, "a" if resume else "w") as fh:
        for inst in plan.instances:
            family, model = models[inst.id]
            for alg in plan.algorithms:
                for run in range(plan.runs):
                    key = (inst.id, alg.name, run)
                    if key in done:
                        continue
                    seed = cell_seed(plan.master_seed, inst.id, alg.name, run)
                    cell = run_cell(model, family, alg, seed, plan.time_limit,
                                    optima[inst.id])
                    record = {"instance": inst.id, "algorithm": alg.name, "run": run}
                    record.update(cell)
                    table.add(record)
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                    fh.flush()
                    if log:
                        log(
                            f"{inst.id} x {alg.name} run {run}: "
                            f"best={record['best_value']} ratio={record['best_ratio']}"
                        )
    return table
