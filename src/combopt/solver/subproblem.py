"""QUBO subproblems induced by freezing all but a window of the incumbent.

The sampler module plays the role of an attached annealing backend: the main
loop formulates a small binary subproblem around the incumbent, samples it,
and merges decoded solutions back.  Subproblems are derived from the model's
problem-family tag (set by the builders); models without a recognized tag get
no subproblem queries, since translating arbitrary expression graphs to QUBO
is out of scope.

Window semantics per decision kind:

* permutations: a contiguous segment of tour positions is re-sequenced, with
  one-hot (city x position) bits;
* subsets: a pool of candidate items is re-chosen against the remaining
  capacity, with item + slack bits;
* bit arrays: a subset of nodes is re-assigned, with one bit per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..modeling import Model
from ..problems.instances import KpInstance
from ..qubo.core import Qubo
from ..qubo.encode import kp_to_qubo, mc_qubo, mcp_to_qubo, tour_order, tour_qubo, tsp_to_qubo
from ..state import State
from .moves import set_complement


@dataclass
class QmQuery:
    """A QUBO subproblem plus the mapping back to full states."""

    qubo: Qubo
    decode: Callable[[np.ndarray], State | None]
    label: str


def qm_query(model: Model, incumbent: State, window: int,
             rng: np.random.Generator) -> QmQuery | None:
    """Subproblem around ``incumbent`` with at most ``window`` free elements.

    Returns ``None`` for models without a recognized problem-family tag.  A
    window larger than the decision is clamped to the decision's size here;
    the branch warns of the clamp when it starts.
    """
    build = _WINDOWS.get(model.tags.get("family"))
    instance = model.tags.get("instance")
    if build is None or instance is None:
        return None
    return build(instance, incumbent, window, rng)


def _tsp_window(instance, incumbent: State, window: int, rng) -> QmQuery:
    n = instance.n
    w = min(window, n)
    tour = incumbent.values[0]
    if w == n:
        qubo, decode = tsp_to_qubo(instance)
        return QmQuery(qubo, decode, f"tsp-full-{n}")

    p0 = int(rng.integers(0, n - w + 1))
    cities = tour[p0 : p0 + w]
    prev = int(tour[p0 - 1])  # wraps to the last city when p0 == 0
    nxt = int(tour[(p0 + w) % n])
    c = instance.cost_matrix
    qubo = tour_qubo(c[np.ix_(cities, cities)], ends=(c[prev, cities], c[cities, nxt]))

    def decode(bits) -> State | None:
        order = tour_order(bits, w)
        if order is None:
            return None
        new_tour = tour.copy()
        new_tour[p0 : p0 + w] = cities[order]
        return State([new_tour])

    return QmQuery(qubo, decode, f"tsp-seg-{p0}-{w}")


def _kp_window(instance, incumbent: State, window: int, rng) -> QmQuery:
    n = instance.n
    w = min(window, n)
    inside = incumbent.values[0]
    outside = set_complement(inside, n)
    # bias the pool toward a mix of current in/out items
    take_in = min(inside.size, w // 2)
    take_out = min(outside.size, w - take_in)
    take_in = min(inside.size, w - take_out)
    pool_in = rng.choice(inside, take_in, replace=False) if take_in else np.empty(0, np.int64)
    pool_out = rng.choice(outside, take_out, replace=False) if take_out else np.empty(0, np.int64)
    pool = np.sort(np.concatenate([pool_in, pool_out]).astype(np.int64))

    frozen_in = np.setdiff1d(inside, pool, assume_unique=False)
    remaining = max(0, int(instance.capacity) - int(instance.weights[frozen_in].sum()))
    sub = KpInstance(
        f"{instance.name}-window",
        pool.size,
        instance.profits[pool],
        instance.weights[pool],
        remaining,
    )
    qubo, sub_decode = kp_to_qubo(sub)
    cap = int(instance.capacity)
    weights = instance.weights

    def decode(bits) -> State | None:
        sub_state = sub_decode(bits)
        if sub_state is None:
            return None
        chosen = np.sort(np.concatenate([frozen_in, pool[sub_state.values[0]]]))
        if int(weights[chosen].sum()) > cap:
            return None
        return State([chosen])

    return QmQuery(qubo, decode, f"kp-pool-{pool.size}")


def _mc_window(instance, incumbent: State, window: int, rng) -> QmQuery:
    n = instance.n
    w = min(window, n)
    bits_full = incumbent.values[0]
    if w == n:
        qubo, decode = mcp_to_qubo(instance)
        return QmQuery(qubo, decode, f"mc-full-{n}")

    free = np.sort(rng.choice(n, w, replace=False))
    qubo = mc_qubo(instance, free, bits_full)

    def decode(bits) -> State:
        new_bits = bits_full.copy()
        new_bits[free] = np.asarray(bits, dtype=np.int64)
        return State([new_bits])

    return QmQuery(qubo, decode, f"mc-free-{w}")


_WINDOWS = {"tsp": _tsp_window, "kp": _kp_window, "mc": _mc_window}
