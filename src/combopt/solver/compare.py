"""Total ordering of evaluations: feasibility, then violation, then objective.

A feasible evaluation always beats an infeasible one; among infeasible ones,
lower total violation wins; ties fall through to the objective and finally to
a deterministic state digest, making the order total and reproducible.
"""

from __future__ import annotations

from ..modeling import Evaluation


def evaluation_key(e: Evaluation) -> tuple[int, float, float, int]:
    return e.key


def compare(a: Evaluation, b: Evaluation) -> int:
    """-1 when ``a`` is strictly better, +1 when worse, 0 when identical."""
    ka, kb = a.key, b.key
    return -1 if ka < kb else (1 if ka > kb else 0)


def is_better(a: Evaluation, b: Evaluation) -> bool:
    return a.key < b.key
