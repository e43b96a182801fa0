"""The problem families, keyed ``"tsp"``, ``"kp"`` and ``"mc"``.

Each table maps a family to its text parser, its full-instance QUBO encoder
(``(instance) -> (qubo, decode)``) and its exact reference oracle.  Model
builders stay in :data:`combopt.problems.BUILDERS`.  ``"maxcut"`` is accepted
as another name for ``"mc"``.
"""

from __future__ import annotations

from .errors import ParseError
from .problems import (
    exact_kp,
    exact_maxcut,
    exact_tsp,
    parse_kplib,
    parse_maxcut,
    parse_tsplib,
)
from .qubo import kp_to_qubo, mcp_to_qubo, tsp_to_qubo

PARSERS = {"tsp": parse_tsplib, "kp": parse_kplib, "mc": parse_maxcut}
ENCODERS = {"tsp": tsp_to_qubo, "kp": kp_to_qubo, "mc": mcp_to_qubo}
EXACT = {"tsp": exact_tsp, "kp": exact_kp, "mc": exact_maxcut}
ALIASES = {"maxcut": "mc"}


def family(name: str) -> str:
    """The family key for a problem name or alias."""
    key = ALIASES.get(name, name)
    if key not in PARSERS:
        raise ParseError(f"unknown problem {name!r}")
    return key


def native(sense: str, objective: float) -> float:
    """A model objective (always minimized) in the problem's own sense."""
    return -objective if sense == "max" else objective
