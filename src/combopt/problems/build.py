"""Model builders for the three problem families.

Each builder returns an unfrozen :class:`~combopt.modeling.Model` tagged with
the problem family, the source instance, and the objective sense.  The tags
let the solver derive QUBO subproblems and let the benchmark harness convert
objectives back to problem-native values (profit, cut weight).
"""

from __future__ import annotations


from ..modeling import Model
from .instances import KpInstance, McInstance, TspInstance


def build_tsp_model(instance: TspInstance) -> Model:
    """Tour-length minimization over one permutation decision, no constraints."""
    m = Model()
    route = m.list(instance.n)
    cost = m.constant(instance.cost_matrix)
    total = cost[route[:-1], route[1:]].sum() + cost[route[-1], route[0]]
    m.minimize(total)
    m.tags.update(family="tsp", instance=instance, sense="min")
    return m


def build_kp_model(instance: KpInstance) -> Model:
    """Profit maximization (as negated minimization) over one subset decision."""
    m = Model()
    items = m.set(instance.n)
    weights = m.constant(instance.weights)
    profits = m.constant(instance.profits)
    capacity = m.constant(instance.capacity)
    m.add_constraint(weights[items].sum() <= capacity)
    m.minimize(-(profits[items].sum()))
    m.tags.update(family="kp", instance=instance, sense="max")
    return m


def build_mcp_model(instance: McInstance) -> Model:
    """Cut-weight maximization (negated) over one bit-array decision.

    The objective is the directed double sum of |x_i - x_j| * W[i, j] over the
    stored weight matrix, gathered edge-wise so the DAG stays small.
    """
    m = Model()
    x = m.binary(instance.n)
    if instance.m:
        us, vs, ws = (m.constant(col) for col in instance.edge_arrays)
        cut = (abs(x[us] - x[vs]) * ws).sum()
    else:
        cut = m.constant(0.0)
    m.minimize(-cut)
    m.tags.update(family="mc", instance=instance, sense="max")
    return m


BUILDERS = {
    "tsp": build_tsp_model,
    "kp": build_kp_model,
    "mc": build_mcp_model,
}
