from ..state import apply_move
from .branch import Branch, metropolis_delta
from .config import SolverConfig
from .moves import (draw_move, draw_state_move, draw_state_moves, initial_state, propose_state,
                    reverse_move)
from .portfolio import solve
from .sampleset import Sample, SampleSet, make_sample
from .subproblem import QmQuery, qm_query

__all__ = [
    "Branch",
    "QmQuery",
    "Sample",
    "SampleSet",
    "SolverConfig",
    "apply_move",
    "draw_move",
    "draw_state_move",
    "draw_state_moves",
    "initial_state",
    "make_sample",
    "metropolis_delta",
    "propose_state",
    "qm_query",
    "reverse_move",
    "solve",
]
