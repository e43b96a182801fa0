"""Combinatorial optimization toolkit.

Structured decision variables (permutations, subsets, partitions, bit and
integer arrays) over an expression-graph model, a portfolio heuristic solver
that pairs local search with an inline QUBO subproblem sampler, QUBO
penalty encodings with a simulated-annealing sampler, and a benchmark harness
with Friedman / Holm / Wilcoxon statistics.
"""

from .errors import (
    ComboptError,
    DomainError,
    MetricError,
    ParseError,
    ShapeError,
    SizeError,
    StateError,
    TypeErrorDomain,
)
from .modeling import Evaluation, ExprRef, Model, new_model
from .state import DecisionSpec, State

__version__ = "0.1.0"

__all__ = [
    "ComboptError",
    "DecisionSpec",
    "DomainError",
    "Evaluation",
    "ExprRef",
    "MetricError",
    "Model",
    "ParseError",
    "ShapeError",
    "SizeError",
    "State",
    "StateError",
    "TypeErrorDomain",
    "new_model",
    "__version__",
]
