"""Penalty-model QUBO encodings for the three problem families.

Constraints are relaxed into quadratic penalties whose coefficient defaults
to the automatic estimate of :func:`auto_penalty`; each encoder also returns
a decoder mapping bitstrings back to problem states (``None`` when the
bitstring does not decode to a feasible assignment).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError
from ..state import State
from ..problems.instances import KpInstance, McInstance, TspInstance
from .core import Qubo


def auto_penalty(objective_coeffs) -> float:
    """1 + the total magnitude of all objective coefficients.

    Any unit constraint violation then costs more than the largest possible
    objective swing, so penalized optima are always feasible.
    """
    return 1.0 + float(sum(abs(c) for c in objective_coeffs))


def _resolve_penalty(penalty: float | None, objective_coeffs) -> float:
    if penalty is None:
        return auto_penalty(objective_coeffs)
    if not penalty > 0:
        raise DomainError(f"fixed penalty must be > 0, got {penalty}")
    return float(penalty)


def _add_one_hot_penalty(qubo: Qubo, indices: list[int], a: float) -> None:
    """Add a * (sum of bits - 1)^2, expanded into linear/quadratic terms."""
    qubo.offset += a
    for t, i in enumerate(indices):
        qubo.add(i, i, -a)
        for j in indices[t + 1 :]:
            qubo.add(i, j, 2.0 * a)


def tour_qubo(c, penalty: float | None = None, ends=None) -> Qubo:
    """One-hot position encoding of a tour over the cost matrix ``c``.

    Bit ``v * n + p`` means city v at position p; each city and each position
    is one-hot by penalty.  Without ``ends`` the tour is closed.  With
    ``ends = (first, last)`` it is an open path whose city v costs ``first[v]``
    at the first position and ``last[v]`` at the last one.  The automatic
    penalty sums the coefficients in the order they are added.
    """
    n = c.shape[0]
    qubo = Qubo(n * n)
    coeffs: list[float] = []

    def term(i: int, j: int, cost) -> None:
        if cost:
            qubo.add(i, j, cost)
            coeffs.append(cost)

    if ends is not None:
        first, last = ends
        for v in range(n):
            term(v * n, v * n, first[v])
            term(v * n + n - 1, v * n + n - 1, last[v])
    for p in range(n if ends is None else n - 1):
        q = (p + 1) % n
        for u in range(n):
            for v in range(n):
                if u != v:
                    term(u * n + p, v * n + q, c[u, v])
    a = _resolve_penalty(penalty, coeffs)
    for v in range(n):
        _add_one_hot_penalty(qubo, [v * n + p for p in range(n)], a)
    for p in range(n):
        _add_one_hot_penalty(qubo, [v * n + p for v in range(n)], a)
    return qubo


def tour_order(bits, n: int) -> np.ndarray | None:
    """City at each position of a :func:`tour_qubo` bitstring; None unless one-hot."""
    grid = np.asarray(bits).reshape(n, n)
    if (grid.sum(axis=1) != 1).any() or (grid.sum(axis=0) != 1).any():
        return None
    return np.argmax(grid, axis=0)


def tsp_to_qubo(instance: TspInstance, penalty: float | None = None):
    """Closed-tour :func:`tour_qubo` of the instance.

    Returns (qubo, decoder); the decoder yields a permutation state iff every
    row (city) and column (position) is exactly one-hot.
    """
    n = instance.n

    def decode(bits) -> State | None:
        perm = tour_order(bits, n)
        return None if perm is None else State([perm])

    return tour_qubo(instance.cost_matrix, penalty), decode


def slack_coefficients(capacity: int) -> list[int]:
    """Binary expansion with a capped top coefficient: range exactly 0..capacity."""
    if capacity <= 0:
        return []
    k = int(math.floor(math.log2(capacity))) + 1
    coeffs = [1 << b for b in range(k - 1)]
    coeffs.append(capacity - ((1 << (k - 1)) - 1))
    return coeffs


def kp_to_qubo(instance: KpInstance, penalty: float | None = None):
    """Item bits plus slack bits encoding the capacity as an equality.

    Energy is -profit + A * (weight + slack - capacity)^2.  The decoder
    ignores the slack bits and checks the capacity directly.
    """
    n = instance.n
    cap = int(instance.capacity)
    v = instance.profits.astype(float)
    w = instance.weights.astype(float)
    a = _resolve_penalty(penalty, v[v != 0])

    slack = slack_coefficients(cap)
    total = n + len(slack)
    coeff = np.concatenate([w, np.asarray(slack, dtype=float)])

    qubo = Qubo(total)
    for i in range(n):
        if v[i]:
            qubo.add(i, i, -float(v[i]))
    # (coeff . x - cap)^2 = sum_i ci^2 xi + 2 sum_{i<j} ci cj xi xj - 2 cap sum ci xi + cap^2
    qubo.offset += a * cap * cap
    for i in range(total):
        qubo.add(i, i, a * (coeff[i] ** 2 - 2.0 * cap * coeff[i]))
        for j in range(i + 1, total):
            qubo.add(i, j, 2.0 * a * coeff[i] * coeff[j])

    def decode(bits) -> State | None:
        arr = np.asarray(bits).reshape(-1)
        chosen = np.flatnonzero(arr[:n] == 1)
        if w[chosen].sum() > cap:
            return None
        return State([chosen])

    return qubo, decode


def mcp_to_qubo(instance: McInstance):
    """Cut maximization as minimization of -sum w * (x_u + x_v - 2 x_u x_v)."""
    qubo = Qubo(instance.n)
    for u, v, w in instance.edges:
        qubo.add(u, u, -w)
        qubo.add(v, v, -w)
        qubo.add(u, v, 2.0 * w)

    def decode(bits) -> State:
        return State([np.asarray(bits, dtype=np.int64)])

    return qubo, decode
