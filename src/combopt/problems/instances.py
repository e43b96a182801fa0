"""Parsed problem data for the three shipped problem families."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import DomainError


@dataclass(frozen=True)
class TspInstance:
    """Complete graph with an n x n cost matrix (zero diagonal)."""

    name: str
    n: int
    cost_matrix: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cost_matrix, dtype=np.float64)
        object.__setattr__(self, "cost_matrix", c)
        if c.shape != (self.n, self.n):
            raise DomainError(f"cost matrix shape {c.shape} does not match n={self.n}")
        if not np.all(np.isfinite(c)) or (c < 0).any():
            raise DomainError("cost matrix entries must be finite and >= 0")
        if np.diagonal(c).any():
            raise DomainError("cost matrix diagonal must be 0")


@dataclass(frozen=True)
class KpInstance:
    """Items with integer profits/weights and a knapsack capacity."""

    name: str
    n: int
    profits: np.ndarray
    weights: np.ndarray
    capacity: int

    def __post_init__(self):
        p = np.asarray(self.profits, dtype=np.int64)
        w = np.asarray(self.weights, dtype=np.int64)
        object.__setattr__(self, "profits", p)
        object.__setattr__(self, "weights", w)
        if p.shape != (self.n,) or w.shape != (self.n,):
            raise DomainError("profits/weights must have length n")
        if (p < 0).any():
            raise DomainError("profits must be >= 0")
        if (w < 1).any():
            raise DomainError("weights must be >= 1")
        if self.capacity < 0:
            raise DomainError("capacity must be >= 0")


@dataclass(frozen=True)
class McInstance:
    """Weighted graph for maximum cut; each edge is stored once as (u, v, w)."""

    name: str
    n: int
    edges: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DomainError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise DomainError(f"self-loop at node {u}")
            if not np.isfinite(w):
                raise DomainError("edge weights must be finite")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DomainError(f"duplicate edge between {u} and {v}")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (u, v, w) columns of ``edges``: int64, int64, float64."""
        e = np.array(self.edges, dtype=np.float64).reshape(-1, 3).T.copy()
        uv = e[:2].astype(np.int64)
        uv.flags.writeable = e.flags.writeable = False
        return uv[0], uv[1], e[2]

    def weight_matrix(self) -> np.ndarray:
        """Each edge contributes a single directed entry W[u, v]."""
        u, v, wt = self.edge_arrays
        w = np.zeros((self.n, self.n))
        w[u, v] = wt
        return w

    def cut_value(self, bits) -> float:
        """Total weight of edges whose endpoints fall on different sides."""
        bits = np.asarray(bits)
        return float(sum(w for u, v, w in self.edges if bits[u] != bits[v]))
