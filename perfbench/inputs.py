"""Workload inputs: parse or generate, build and freeze.

Kept apart from the measuring code so that the fresh-process set-up probe
imports only what a user of combopt imports before calling ``solve`` or
``run_experiment``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import combopt.problems as problems

DATA = Path(__file__).resolve().parent.parent / "data"

# the instances behind each workload; mc200 is generated from the seed
INSTANCES = {
    "tsp52-window": ["disc52"],
    "mc200-tabu": ["mc200"],
    "kp50-deadline": ["kp50"],
    "qubo-sa-baseline": ["kp50", "mc200"],
}
SUFFIX = {"tsp": ".tsp", "kp": ".kp", "mc": ".mc"}


@dataclass
class Instance:
    id: str
    family: str
    model: object
    reference: float  # certified optimum, or an upper bound for maxcut


def prepare(name: str, seed: int, timer=None) -> list[Instance]:
    """Parse or generate, build and freeze the workload's instances.

    ``timer(stage)`` returns a context manager around each stage
    ("parse", "build", "freeze") when the caller wants them timed.
    """
    timer = timer or (lambda stage: nullcontext())
    optima_text = (DATA / "optima.txt").read_text()
    out = []
    for inst_id in INSTANCES[name]:
        with timer("parse"):
            if inst_id == "mc200":
                parsed = problems.generate_random_maxcut(200, 0.1, seed=seed, name="mc200")
                family = "mc"
                reference = float(sum(w for _, _, w in parsed.edges))
            else:
                family = "tsp" if inst_id.startswith("disc") else "kp"
                text = (DATA / f"{inst_id}{SUFFIX[family]}").read_text()
                parse = problems.parse_tsplib if family == "tsp" else problems.parse_kplib
                parsed = parse(text, inst_id)
                reference = _optimum(optima_text, inst_id)
        with timer("build"):
            model = problems.BUILDERS[family](parsed)
        with timer("freeze"):
            model.freeze()
        out.append(Instance(inst_id, family, model, reference))
    return out


def _optimum(optima_text: str, inst_id: str) -> float:
    # benchstats.load_optima would pull scipy into the timed set-up
    for ln in optima_text.splitlines():
        parts = ln.split()
        if len(parts) == 2 and parts[0] == inst_id:
            return float(parts[1])
    raise KeyError(f"no certified optimum for {inst_id}")
