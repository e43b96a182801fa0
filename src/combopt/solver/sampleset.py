"""Solve results: an ordered multiset of solutions with provenance."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import DomainError
from ..modeling import Evaluation, order_key
from ..state import State


@dataclass
class Sample:
    """One deposited solution: where it came from and how good it is."""

    state: State
    objective: float
    feasible: bool
    violation: float
    branch: int
    step: int
    source: str  # "init", "cm", "qm", or "final"
    elapsed: float

    def sort_key(self):
        return order_key(self.feasible, self.violation, self.objective, self.state.digest())

    def to_jsonable(self) -> dict:
        # wall-clock timings deliberately stay out of the serialized form so
        # that equal-seed runs serialize byte-identically
        return {
            "state": self.state.to_jsonable(),
            "objective": self.objective,
            "feasible": self.feasible,
            "violation": self.violation,
            "branch": self.branch,
            "step": self.step,
            "source": self.source,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "Sample":
        return cls(
            state=State.from_jsonable(data["state"]),
            objective=float(data["objective"]),
            feasible=bool(data["feasible"]),
            violation=float(data["violation"]),
            branch=int(data["branch"]),
            step=int(data["step"]),
            source=str(data["source"]),
            elapsed=float(data.get("elapsed", 0.0)),
        )


@dataclass
class SampleSet:
    """All samples of one solve call, best first; duplicates are permitted."""

    samples: list[Sample]
    config: dict
    wall_time: float
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.samples:
            raise DomainError("a sample set is never empty after a successful solve")
        self.samples.sort(key=Sample.sort_key)

    def best(self) -> Sample:
        return self.samples[0]

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def to_json(self, indent: int | None = None) -> str:
        doc = {
            "samples": [s.to_jsonable() for s in self.samples],
            "config": self.config,
            "warnings": self.warnings,
        }
        return json.dumps(doc, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SampleSet":
        doc = json.loads(text)
        return cls(
            samples=[Sample.from_jsonable(s) for s in doc["samples"]],
            config=doc["config"],
            wall_time=float(doc.get("wall_time", 0.0)),
            warnings=list(doc.get("warnings", [])),
        )


def make_sample(state: State, ev: Evaluation, branch: int, step: int,
                source: str, elapsed: float) -> Sample:
    return Sample(
        state=state,
        objective=ev.objective,
        feasible=ev.feasible,
        violation=ev.total_violation,
        branch=branch,
        step=step,
        source=source,
        elapsed=elapsed,
    )
