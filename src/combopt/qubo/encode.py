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
from .core import Qubo, fold_sum


def auto_penalty(objective_coeffs) -> float:
    """1 + the total magnitude of all objective coefficients.

    Any unit constraint violation then costs more than the largest possible
    objective swing, so penalized optima are always feasible.  The magnitudes
    are summed in the order given.
    """
    return 1.0 + fold_sum(0.0, np.abs(np.asarray(objective_coeffs, dtype=np.float64)))


def _resolve_penalty(penalty: float | None, objective_coeffs) -> float:
    if penalty is None:
        return auto_penalty(objective_coeffs)
    if not penalty > 0:
        raise DomainError(f"fixed penalty must be > 0, got {penalty}")
    return float(penalty)


def tour_qubo(c, penalty: float | None = None, ends=None) -> Qubo:
    """One-hot position encoding of a tour over the cost matrix ``c``.

    Bit ``v * n + p`` means city v at position p; the bits of each city and
    of each position are one-hot by the penalty a * (sum of bits - 1)^2.
    Without ``ends`` the tour is closed; with ``ends = (first, last)`` it is
    an open path whose city v costs ``first[v]`` at the first position and
    ``last[v]`` at the last one.  The costs are added, then the penalty terms;
    costs and the automatic penalty's sum go in the order (first, last) per
    city, then position, from-city, to-city, zeros (u == v too) changing no sum.
    """
    n = c.shape[0]
    bit = np.arange(n * n).reshape(n, n)  # bit[city, position]
    p = np.arange(n if ends is None else n - 1)[:, None, None]
    u, v = np.arange(n)[:, None], np.arange(n)[None, :]
    shape = (p.size, n, n)
    rows = np.broadcast_to(bit[u, p], shape).ravel()
    cols = np.broadcast_to(bit[v, (p + 1) % n], shape).ravel()
    costs = np.broadcast_to(np.where(u != v, c, 0.0), shape).ravel()
    if ends is not None:
        ends_bits = np.stack([bit[:, 0], bit[:, -1]], axis=1).ravel()
        rows, cols = np.concatenate([ends_bits, rows]), np.concatenate([ends_bits, cols])
        costs = np.concatenate([np.stack(ends, axis=1).ravel(), costs])
    a = _resolve_penalty(penalty, costs)
    groups = np.concatenate([bit, bit.T])
    t, s = np.triu_indices(n, 1)
    qubo = Qubo(n * n, offset=fold_sum(0.0, np.full(len(groups), a)))
    qubo.add(np.concatenate([rows, groups.ravel(), groups[:, t].ravel()]),
             np.concatenate([cols, groups.ravel(), groups[:, s].ravel()]),
             np.concatenate([costs, np.full(groups.size, -a), np.full(t.size * len(groups), 2.0 * a)]))
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

    # (coeff . x - cap)^2 = sum_i ci^2 xi + 2 sum_{i<j} ci cj xi xj - 2 cap sum ci xi + cap^2
    diag = np.arange(total)
    iu, ju = np.triu_indices(total, 1)
    qubo = Qubo(total, offset=a * cap * cap)
    qubo.add(np.concatenate([diag[:n], diag, iu]), np.concatenate([diag[:n], diag, ju]),
             np.concatenate([-v, a * (coeff ** 2 - 2.0 * cap * coeff),
                             2.0 * a * coeff[iu] * coeff[ju]]))

    def decode(bits) -> State | None:
        arr = np.asarray(bits).reshape(-1)
        chosen = np.flatnonzero(arr[:n] == 1)
        if w[chosen].sum() > cap:
            return None
        return State([chosen])

    return qubo, decode


def mc_qubo(instance: McInstance, free: np.ndarray, bits: np.ndarray) -> Qubo:
    """Cut maximization as minimization of -sum w * (x_u + x_v - 2 x_u x_v)
    over the sorted nodes ``free``, bit ``k`` for node ``free[k]``, with
    every other node fixed at its value in ``bits``.

    An edge with one end free and the fixed end 1 is cut unless the free end
    is 1, so it adds -w + w * x; a cut edge with both ends fixed adds -w to
    the offset.  The terms go in per edge: the free end (u when both are),
    then v and the coupling.
    """
    n, w = instance.n, free.size
    pos = np.full(n, -1)
    pos[free] = np.arange(w)
    u, v, wt = instance.edge_arrays
    pu, pv = pos[u], pos[v]
    fu, fv = pu >= 0, pv >= 0
    both, end = fu & fv, np.where(fu, pu, pv)
    fixed_one = (fu != fv) & (np.where(fu, bits[v], bits[u]) != 0)
    cut_fixed = ~fu & ~fv & (bits[u] != bits[v])
    qubo = Qubo(w, offset=fold_sum(0.0, -wt[fixed_one | cut_fixed]))
    slots = np.stack([fu | fv, both, both], axis=1)
    qubo.add(np.stack([end, pv, pu], axis=1)[slots],
             np.stack([end, pv, pv], axis=1)[slots],
             np.stack([np.where(fixed_one, wt, -wt), -wt, 2.0 * wt], axis=1)[slots])
    return qubo


def mcp_to_qubo(instance: McInstance):
    """Cut maximization over every node: :func:`mc_qubo` with none fixed."""
    n = instance.n
    qubo = mc_qubo(instance, np.arange(n), np.zeros(n, dtype=np.int64))

    def decode(bits) -> State:
        return State([np.asarray(bits, dtype=np.int64)])

    return qubo, decode
