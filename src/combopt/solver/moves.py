"""Random initial states and validity-preserving neighborhood moves.

Every move maps a structurally valid state to a structurally valid state;
feasibility with respect to the variable encoding is never at risk, only the
model's explicit constraints can be violated.  Impossible draws (dropping
from an empty set, 2-opt on a one-element list) are resampled as a possible
move of the same kind.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..modeling import Model
from ..state import (
    BINARY,
    DISJOINT_BIT_SETS,
    DISJOINT_LISTS,
    INTEGER,
    LIST,
    SET,
    DecisionSpec,
    State,
)

Move = tuple  # (kind tag, *details); reversible via reverse_move


def initial_value(spec: DecisionSpec, rng: np.random.Generator):
    if spec.kind == LIST:
        return rng.permutation(spec.n)
    if spec.kind == SET:
        return np.flatnonzero(rng.random(spec.n) < 0.5)
    if spec.kind == BINARY:
        return rng.integers(0, 2, spec.n)
    if spec.kind == INTEGER:
        return rng.integers(spec.lo, spec.hi + 1, spec.n)
    # balanced random partition: shuffle then split as evenly as possible
    perm = rng.permutation(spec.n)
    parts = [np.array(chunk, dtype=np.int64) for chunk in np.array_split(perm, spec.n_parts)]
    if spec.kind == DISJOINT_BIT_SETS:
        parts = [np.sort(p) for p in parts]
    return parts


def initial_state(model: Model, rng: np.random.Generator) -> State:
    """Uniformly random structurally valid assignment for every decision."""
    return State([initial_value(spec, rng) for spec in model.decisions])


def _list_move(value: np.ndarray, rng: np.random.Generator):
    n = value.size
    if n < 2:
        return value.copy(), ("noop",)
    new = value.copy()
    r = rng.random()
    if r < 0.50:  # 2-opt segment reversal
        i, j = sorted(rng.choice(n, 2, replace=False))
        new[i : j + 1] = new[i : j + 1][::-1]
        return new, ("2opt", int(i), int(j))
    if r < 0.70:  # single-element insertion
        i, j = rng.choice(n, 2, replace=False)
        elem = new[i]
        new = np.delete(new, i)
        new = np.insert(new, j, elem)
        return new, ("ins", int(i), int(j))
    if r < 0.85:  # arbitrary swap
        i, j = rng.choice(n, 2, replace=False)
        new[i], new[j] = new[j], new[i]
        return new, ("swap", int(min(i, j)), int(max(i, j)))
    i = int(rng.integers(0, n - 1))  # adjacent swap
    new[i], new[i + 1] = new[i + 1], new[i]
    return new, ("swap", i, i + 1)


def set_complement(inside: np.ndarray, n: int) -> np.ndarray:
    """The elements of ``range(n)`` missing from the set ``inside``, sorted, as int64."""
    mask = np.ones(n, dtype=bool)
    mask[inside] = False
    return np.flatnonzero(mask)


def _set_move(value: np.ndarray, n: int, rng: np.random.Generator):
    inside = value
    outside = set_complement(inside, n)
    r = rng.random()
    if inside.size == 0 or (r < 0.34 and outside.size):
        e = int(outside[rng.integers(outside.size)])
        return np.sort(np.append(inside, e)), ("add", e)
    if outside.size == 0 or r < 0.67:
        e = int(inside[rng.integers(inside.size)])
        return inside[inside != e], ("drop", e)
    e_in = int(inside[rng.integers(inside.size)])
    e_out = int(outside[rng.integers(outside.size)])
    new = np.sort(np.append(inside[inside != e_in], e_out))
    return new, ("exch", e_in, e_out)


def _partition_move(parts: list, spec: DecisionSpec, rng: np.random.Generator):
    k = len(parts)
    new = [p.copy() for p in parts]
    ordered = spec.kind == DISJOINT_LISTS
    for _ in range(16):
        r = rng.random()
        if r < 0.45 and k >= 2:  # move one element to another part
            a = int(rng.integers(k))
            if new[a].size == 0:
                continue
            b = int((a + 1 + rng.integers(k - 1)) % k)
            i = int(rng.integers(new[a].size))
            elem = new[a][i]
            new[a] = np.delete(new[a], i)
            if ordered:
                j = int(rng.integers(new[b].size + 1))
                new[b] = np.insert(new[b], j, elem)
            else:
                new[b] = np.sort(np.append(new[b], elem))
            return new, ("moveel", int(elem), a, b)
        if r < 0.80 and k >= 2:  # swap two elements across parts
            a, b = rng.choice(k, 2, replace=False)
            if new[a].size == 0 or new[b].size == 0:
                continue
            i = int(rng.integers(new[a].size))
            j = int(rng.integers(new[b].size))
            ea, eb = new[a][i], new[b][j]
            new[a][i], new[b][j] = eb, ea
            if not ordered:
                new[a] = np.sort(new[a])
                new[b] = np.sort(new[b])
            return new, ("swapel", int(min(ea, eb)), int(max(ea, eb)))
        if ordered:  # in-part 2-opt
            a = int(rng.integers(k))
            if new[a].size < 2:
                continue
            i, j = sorted(rng.choice(new[a].size, 2, replace=False))
            new[a][i : j + 1] = new[a][i : j + 1][::-1]
            return new, ("p2opt", a, int(i), int(j))
    return new, ("noop",)


def propose(spec: DecisionSpec, value, rng: np.random.Generator):
    """One random neighbor of ``value``; returns (new_value, move tag)."""
    if spec.kind == LIST:
        return _list_move(value, rng)
    if spec.kind == SET:
        return _set_move(value, spec.n, rng)
    if spec.kind == BINARY:
        i = int(rng.integers(spec.n))
        new = value.copy()
        new[i] = 1 - new[i]
        return new, ("flip", i)
    if spec.kind == INTEGER:
        i = int(rng.integers(spec.n))
        new = value.copy()
        if spec.lo == spec.hi:
            return new, ("noop",)
        shift = int(rng.integers(1, spec.hi - spec.lo + 1))
        new[i] = spec.lo + (int(new[i]) - spec.lo + shift) % (spec.hi - spec.lo + 1)
        return new, ("seti", i, int(new[i]))
    if spec.kind in (DISJOINT_LISTS, DISJOINT_BIT_SETS):
        return _partition_move(value, spec, rng)
    raise DomainError(f"no moves for decision kind {spec.kind!r}")


def reverse_move(tag: Move) -> Move:
    """Tabu key of the move undoing ``tag``."""
    if tag and isinstance(tag[0], int):  # (decision index, inner move)
        return (tag[0], reverse_move(tag[1]))
    if tag and tag[0] == "add":
        return ("drop", tag[1])
    if tag and tag[0] == "drop":
        return ("add", tag[1])
    if tag and tag[0] == "exch":
        return ("exch", tag[2], tag[1])
    if tag and tag[0] == "ins":
        return ("ins", tag[2], tag[1])
    if tag and tag[0] == "moveel":
        return ("moveel", tag[1], tag[3], tag[2])
    return tag  # swaps, 2-opt, flips, and noop are self-inverse


def propose_state(model: Model, state: State, rng: np.random.Generator):
    """Neighbor of a full state: one move on one uniformly chosen decision."""
    d = int(rng.integers(len(model.decisions))) if len(model.decisions) > 1 else 0
    spec = model.decisions[d]
    new_value, tag = propose(spec, state.values[d], rng)
    new_state = state.copy()
    new_state.values[d] = new_value
    return new_state, (d, tag)
