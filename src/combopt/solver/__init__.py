from .branch import Branch, metropolis_delta
from .config import SolverConfig
from .moves import initial_state, propose, propose_state, reverse_move
from .portfolio import solve
from .sampleset import Sample, SampleSet, make_sample
from .subproblem import QmQuery, qm_query

__all__ = [
    "Branch",
    "QmQuery",
    "Sample",
    "SampleSet",
    "SolverConfig",
    "initial_state",
    "make_sample",
    "metropolis_delta",
    "propose",
    "propose_state",
    "qm_query",
    "reverse_move",
    "solve",
]
