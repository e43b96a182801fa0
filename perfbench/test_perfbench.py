"""The benchmark's own check: traced counts repeat exactly under fixed work.

With ``max_steps`` and ``qm_inline`` a solve is deterministic, so two traced
runs of a fixed-work workload must report identical call counts and
subproblem funnels.  The runs are shortened to keep the test quick.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from combopt.solver import SolverConfig  # noqa: E402


def _counts(name: str, max_steps: int) -> dict[str, float]:
    result = workloads.run(name, seed=5, seconds=0, trace=True, max_units=1,
                           overrides={"max_steps": max_steps})
    assert result.failed == 0
    return {
        k: v for k, (v, _) in result.metrics.items()
        if k.endswith("_calls") or k == "qubo.add_calls_per_query"
        or (k.startswith("subproblem.") and "_ms" not in k)
    }


@pytest.mark.parametrize("name, max_steps", [("tsp52-window", 1500), ("mc200-tabu", 600)])
def test_traced_counts_repeat_exactly(name, max_steps):
    first, second = _counts(name, max_steps), _counts(name, max_steps)
    assert first == second
    period = SolverConfig().qm_period
    assert first["subproblem.launched"] == (max_steps - 1) // period
    assert first["branch.step_calls"] == max_steps
    assert first["modeling.evaluate_calls"] > 0 and first["moves.propose_calls"] > 0
