"""Random initial states and validity-preserving neighborhood moves.

A move is drawn as a tag (:func:`draw_move`) and made only when wanted
(:func:`~combopt.state.apply_move`): the solver evaluates most candidates from
their tags and builds only the ones it keeps.  Every move maps a structurally
valid state to a structurally valid state; feasibility with respect to the
variable encoding is never at risk, only the model's explicit constraints can
be violated.  Impossible draws (dropping from an empty set, 2-opt on a
one-element list) are resampled as a possible move of the same kind.
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
    MoveBlock,
    State,
)

Move = tuple  # (kind tag, *details), or (decision index, tag); reversible via reverse_move


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


def _two_distinct(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """``rng.choice(n, 2, replace=False)`` as two ints, from the same draws.

    numpy draws the pair by Floyd's algorithm and then shuffles it; these three
    ``integers`` calls repeat that without the overhead of ``choice``.
    ``test_two_distinct_matches_rng_choice`` checks the match against the
    installed numpy.
    """
    a = int(rng.integers(0, n - 1))
    b = int(rng.integers(0, n))
    if b == a:
        b = n - 1
    return (b, a) if int(rng.integers(0, 2)) == 0 else (a, b)


def _list_draw(n: int, rng: np.random.Generator) -> Move:
    if n < 2:
        return ("noop",)
    r = rng.random()
    if r < 0.50:  # 2-opt segment reversal
        i, j = _two_distinct(n, rng)
        return ("2opt", min(i, j), max(i, j))
    if r < 0.70:  # single-element insertion
        return ("ins", *_two_distinct(n, rng))
    if r < 0.85:  # arbitrary swap
        i, j = _two_distinct(n, rng)
        return ("swap", min(i, j), max(i, j))
    i = int(rng.integers(0, n - 1))  # adjacent swap
    return ("swap", i, i + 1)


def set_complement(inside: np.ndarray, n: int) -> np.ndarray:
    """The elements of ``range(n)`` missing from the set ``inside``, sorted, as int64."""
    mask = np.zeros(n, dtype=bool)
    mask[inside] = True
    return (~mask).nonzero()[0]


def _missing(inside: np.ndarray, k: int) -> int:
    """The ``k``-th smallest element missing from the sorted set ``inside``.

    ``inside[t] - t`` elements are missing below ``inside[t]``.
    """
    return k + int(np.searchsorted(inside - np.arange(inside.size), k, "right"))


def _set_draw(inside: np.ndarray, n: int, rng: np.random.Generator) -> Move:
    m = inside.size
    r = rng.random()
    if m == 0 or (r < 0.34 and m < n):
        return ("add", _missing(inside, int(rng.integers(n - m))))
    if m == n or r < 0.67:
        return ("drop", int(inside[rng.integers(m)]))
    e_in = int(inside[rng.integers(m)])
    return ("exch", e_in, _missing(inside, int(rng.integers(n - m))))


def _landing(part: np.ndarray, i: int, e: int) -> int:
    """Where ``e`` lands in the sorted ``part`` once its entry at ``i`` is removed."""
    q = int(np.searchsorted(part, e))
    return q - (q > i)


def _partition_draw(parts: list, ordered: bool, rng: np.random.Generator) -> Move:
    k = len(parts)
    for _ in range(16):
        r = rng.random()
        if r < 0.45 and k >= 2:  # move one element to another part
            a = int(rng.integers(k))
            if parts[a].size == 0:
                continue
            b = int((a + 1 + rng.integers(k - 1)) % k)
            i = int(rng.integers(parts[a].size))
            elem = int(parts[a][i])
            if ordered:
                j = int(rng.integers(parts[b].size + 1))
            else:
                j = int(np.searchsorted(parts[b], elem))
            return ("moveel", elem, a, b, i, j)
        if r < 0.80 and k >= 2:  # swap two elements across parts
            a, b = _two_distinct(k, rng)
            if parts[a].size == 0 or parts[b].size == 0:
                continue
            i = int(rng.integers(parts[a].size))
            j = int(rng.integers(parts[b].size))
            ea, eb = int(parts[a][i]), int(parts[b][j])
            p, q = (i, j) if ordered else (_landing(parts[a], i, eb), _landing(parts[b], j, ea))
            return ("swapel", min(ea, eb), max(ea, eb), a, i, p, b, j, q)
        if ordered:  # in-part 2-opt
            a = int(rng.integers(k))
            if parts[a].size < 2:
                continue
            i, j = _two_distinct(parts[a].size, rng)
            return ("p2opt", a, min(i, j), max(i, j))
    return ("noop",)


def draw_move(spec: DecisionSpec, value, rng: np.random.Generator) -> Move:
    """The tag of one random move of ``value``; :func:`~combopt.state.apply_move` makes it."""
    kind = spec.kind
    if kind == BINARY:
        return ("flip", int(rng.integers(spec.n)))
    if kind == SET:
        return _set_draw(value, spec.n, rng)
    if kind == LIST:
        return _list_draw(value.size, rng)
    if kind == INTEGER:
        i = int(rng.integers(spec.n))
        if spec.lo == spec.hi:
            return ("noop",)
        width = spec.hi - spec.lo + 1
        shift = int(rng.integers(1, width))
        return ("seti", i, spec.lo + (int(value[i]) - spec.lo + shift) % width)
    if kind in (DISJOINT_LISTS, DISJOINT_BIT_SETS):
        return _partition_draw(value, kind == DISJOINT_LISTS, rng)
    raise DomainError(f"no moves for decision kind {kind!r}")


# how many leading entries of a partition tag name its move: the positions
# after them are for apply_move, and tabu names leave them out
_NAME_LENGTH = {"moveel": 4, "swapel": 3}


def _name(tag: Move) -> Move:
    """``tag`` as a tabu list names it."""
    length = _NAME_LENGTH.get(tag[0])
    return tag if length is None else tag[:length]


def reverse_move(tag: Move) -> Move:
    """Tabu key of the move undoing ``tag``."""
    if isinstance(tag[0], int):  # (decision index, inner move)
        return (tag[0], reverse_move(tag[1]))
    tag = _name(tag)
    kind = tag[0]
    if kind == "add":
        return ("drop", tag[1])
    if kind == "drop":
        return ("add", tag[1])
    if kind in ("exch", "ins"):
        return (kind, tag[2], tag[1])
    if kind == "moveel":
        return ("moveel", tag[1], tag[3], tag[2])
    return tag  # swaps, element swaps, 2-opt, flips, and noop are self-inverse


def tabu_key(move: Move) -> Move:
    """The name of ``move`` in a tabu list, as :func:`reverse_move` names its reverse."""
    name = _name(move[1])
    return move if name is move[1] else (move[0], name)


def draw_state_move(model: Model, state: State, rng: np.random.Generator) -> Move:
    """One move of a full state, ``(decision index, tag)``, on one uniformly
    chosen decision; :meth:`State.moved` makes it."""
    d = int(rng.integers(len(model.decisions))) if len(model.decisions) > 1 else 0
    return d, draw_move(model.decisions[d], state.values[d], rng)


def draw_state_moves(model: Model, state: State, rng: np.random.Generator,
                     k: int) -> list[Move]:
    """The ``k`` moves of ``k`` calls of :func:`draw_state_move`.  A model whose
    one decision is a bit array draws them with one ``integers`` call, which
    numpy answers with the positions of ``k`` scalar calls
    (``test_draw_state_moves_matches_single_draws`` checks it).  A tabu step
    draws such flips only when a one-term root reads the array; otherwise it
    scores every flip and draws none."""
    decisions = model.decisions
    if len(decisions) == 1 and decisions[0].kind == BINARY:
        return [(0, ("flip", p)) for p in rng.integers(0, decisions[0].n, k).tolist()]
    return [draw_state_move(model, state, rng) for _ in range(k)]


# the uniforms that draw_block reads per move, by decision kind
BLOCK_UNIFORMS = {BINARY: 1, SET: 3}
_SET_KIND_AT = np.array([0.34, 0.67])  # r below each picks add, then drop, as in _set_draw


def draw_block(spec: DecisionSpec, value: np.ndarray, us: np.ndarray) -> MoveBlock:
    """The moves of decision 0, a bit array or a set, that the rows of the
    uniforms ``us`` name, all from ``value``: row ``i`` names move ``i``.

    An integer below ``m`` is ``int(u * m)``, which is below ``m`` for every
    ``u < 1``.  A flip reads one uniform, its bit.  A set move reads three,
    ``(r, a, b)``, and picks its kind by ``r`` as :func:`draw_move` does: it
    drops the element ``a`` names, adds the missing element ``b`` names, or
    does both, an exchange.
    """
    n = spec.n
    if spec.kind == BINARY:
        return MoveBlock(0, (us[:, 0] * float(n)).astype(np.int64))
    m = value.size
    r, a, b = us.T
    if 0 < m < n:
        kinds = _SET_KIND_AT.searchsorted(r, "right")  # 0 add, 1 drop, 2 exchange
    else:
        kinds = np.full(r.size, 0 if m == 0 else 1)
    # the elements inside, then the missing ones, then n: no element
    pool = np.concatenate((value, set_complement(value, n), [n]))
    drop = (a * float(m)).astype(np.int64)
    drop[kinds == 0] = n
    add = (b * float(n - m)).astype(np.int64) + m
    add[kinds == 1] = n
    return MoveBlock(0, pool[add], pool[drop], n)


def propose_state(model: Model, state: State, rng: np.random.Generator):
    """Neighbor of a full state: ``(new state, move)`` for one drawn move."""
    move = draw_state_move(model, state, rng)
    return state.moved(move), move
