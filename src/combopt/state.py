"""Decision variable kinds, concrete assignments, and structural validation.

A :class:`State` assigns one value to every decision of a model:

* ``list`` decisions take a permutation of ``0..n-1``,
* ``set`` decisions a strictly increasing subset of ``0..n-1``,
* ``disjoint_lists`` / ``disjoint_bit_sets`` decisions an exact partition of
  ``0..n_vars-1`` into the declared number of parts,
* ``binary`` / ``integer`` decisions an array of bits / bounded integers.

A move is a ``(decision index, tag)`` pair; :func:`apply_move` makes the edit
a tag names, and :meth:`State.moved` the edit of a whole state.

Validation is diagnostic: it returns human-readable violation strings rather
than raising, so callers can decide whether a broken state is an error.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import DomainError

LIST = "list"
SET = "set"
DISJOINT_LISTS = "disjoint_lists"
DISJOINT_BIT_SETS = "disjoint_bit_sets"
BINARY = "binary"
INTEGER = "integer"

_PARTITION_KINDS = (DISJOINT_LISTS, DISJOINT_BIT_SETS)


@dataclass(frozen=True)
class DecisionSpec:
    """Declaration of one decision variable.

    ``n`` is the element count (``n_vars`` for partition kinds). ``n_parts``
    is only meaningful for partition kinds; ``lo``/``hi`` only for integers.
    """

    kind: str
    n: int
    n_parts: int = 0
    lo: int = 0
    hi: int = 0

    def __post_init__(self):
        if self.kind not in (LIST, SET, BINARY, INTEGER) + _PARTITION_KINDS:
            raise DomainError(f"unknown decision kind {self.kind!r}")
        if self.n < 1:
            raise DomainError(f"{self.kind} needs n >= 1, got {self.n}")
        if self.kind in _PARTITION_KINDS:
            if not 1 <= self.n_parts <= self.n:
                raise DomainError(
                    f"{self.kind} needs 1 <= n_parts <= n_vars, got "
                    f"n_parts={self.n_parts}, n_vars={self.n}"
                )
        if self.kind == INTEGER and self.lo > self.hi:
            raise DomainError(f"integer bounds need lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def is_partition(self) -> bool:
        return self.kind in _PARTITION_KINDS


def _as_index_array(value) -> np.ndarray:
    """A read-only 1-D int64 copy of ``value``."""
    a = np.array(value, dtype=np.int64).reshape(-1)
    a.setflags(False)  # write=False
    return a


class State:
    """A concrete assignment: one value per decision, in declaration order.

    Flat kinds are stored as 1-D C-contiguous int64 arrays; partition kinds as
    a list of such arrays (one per part).  A state's arrays are read-only: the
    constructor copies what it is given, so no caller can write a state, and
    states share their arrays instead of copying them.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        converted = []
        for v in values:
            # A list of sequences is a partition value; anything else is flat.
            if isinstance(v, (list, tuple)) and len(v) and isinstance(v[0], (list, tuple, np.ndarray)):
                converted.append([_as_index_array(part) for part in v])
            else:
                converted.append(_as_index_array(v))
        self.values = converted

    def moved(self, move) -> "State":
        """This state after ``move``, a ``(decision index, tag)`` pair.

        The values the move leaves alone are shared with this state, and the
        arrays it makes are read-only too.
        """
        d, tag = move
        value = apply_move(self.values[d], tag)
        # write=False, by position: the keyword, or a loop over (value,), costs more
        if type(value) is list:
            for a in value:
                a.setflags(False)
        else:
            value.setflags(False)
        out = State.__new__(State)
        out.values = self.values.copy()
        out.values[d] = value
        return out

    def digest(self) -> int:
        """Deterministic 32-bit content hash, used as an ordering tie-breaker."""
        crc = 0
        for v in self.values:
            parts = v if isinstance(v, list) else [v]
            for p in parts:
                crc = zlib.crc32(p, crc)  # the array's own buffer: values are contiguous
            crc = zlib.crc32(b"|", crc)
        return crc

    def to_jsonable(self):
        return [
            [[int(x) for x in part] for part in v] if isinstance(v, list) else [int(x) for x in v]
            for v in self.values
        ]

    @classmethod
    def from_jsonable(cls, data) -> "State":
        return cls(data)

    def __eq__(self, other):
        if not isinstance(other, State) or len(self.values) != len(other.values):
            return NotImplemented
        for a, b in zip(self.values, other.values):
            if isinstance(a, list) != isinstance(b, list):
                return False
            if isinstance(a, list):
                if len(a) != len(b) or any(not np.array_equal(x, y) for x, y in zip(a, b)):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True

    def __repr__(self):
        return f"State({self.to_jsonable()})"


def _insert(a: np.ndarray, q: int, e) -> np.ndarray:
    """``a`` with ``e`` inserted at position ``q``."""
    new = np.empty(a.size + 1, dtype=np.int64)
    new[:q] = a[:q]
    new[q] = e
    new[q + 1:] = a[q:]
    return new


def _shift(a: np.ndarray, i: int, q: int, e) -> np.ndarray:
    """``a`` with its entry at ``i`` removed and ``e`` inserted at position ``q``."""
    new = a.copy()
    if i < q:
        new[i:q] = a[i + 1:q + 1]
    elif q < i:
        new[q + 1:i + 1] = a[q:i]
    new[q] = e
    return new


def apply_move(value, tag):
    """The value of one decision after the move ``tag``; ``value`` is left unchanged.

    Tags, by decision kind (``i``, ``j``, ``p`` and ``q`` are positions):

    * list: ``("2opt", i, j)`` reverses ``value[i..j]``, ``("ins", i, j)`` moves
      the entry at ``i`` to ``j``, ``("swap", i, j)`` swaps two entries;
    * set: ``("add", e)``, ``("drop", e)``, ``("exch", e_in, e_out)``;
    * binary: ``("flip", i)``; integer: ``("seti", i, v)``;
    * partition: ``("moveel", e, a, b, i, j)`` moves ``e`` from position ``i`` of
      part ``a`` to position ``j`` of part ``b``; ``("swapel", lo, hi, a, i, p,
      b, j, q)`` swaps the entries at ``i`` of part ``a`` and ``j`` of part
      ``b``, which land at ``p`` and ``q``; ``("p2opt", a, i, j)`` reverses
      ``i..j`` of part ``a``;
    * ``("noop",)`` on any kind.

    A partition value is a new list whose untouched parts are shared.
    """
    kind = tag[0]
    if kind == "flip":
        new = value.copy()
        new[tag[1]] = 1 - value[tag[1]]
        return new
    if kind == "add":
        return _insert(value, int(np.searchsorted(value, tag[1])), tag[1])
    if kind == "drop":
        return value[value != tag[1]]
    if kind == "exch":
        _, e_in, e_out = tag
        i, q = int(np.searchsorted(value, e_in)), int(np.searchsorted(value, e_out))
        return _shift(value, i, q - (q > i), e_out)
    if kind == "2opt":
        _, i, j = tag
        new = value.copy()
        new[i:j + 1] = value[i:j + 1][::-1]
        return new
    if kind == "ins":
        _, i, j = tag
        return _shift(value, i, j, value[i])
    if kind == "swap":
        _, i, j = tag
        new = value.copy()
        new[i], new[j] = value[j], value[i]
        return new
    if kind == "seti":
        new = value.copy()
        new[tag[1]] = tag[2]
        return new
    if kind == "noop":
        return value
    parts = list(value)
    if kind == "moveel":
        _, e, a, b, i, j = tag
        parts[a] = np.concatenate((value[a][:i], value[a][i + 1:]))
        parts[b] = _insert(value[b], j, e)
    elif kind == "swapel":
        _, _, _, a, i, p, b, j, q = tag
        parts[a] = _shift(value[a], i, p, value[b][j])
        parts[b] = _shift(value[b], j, q, value[a][i])
    elif kind == "p2opt":
        _, a, i, j = tag
        parts[a] = apply_move(value[a], ("2opt", i, j))
    else:
        raise DomainError(f"unknown move {tag!r}")
    return parts


def _smallest_repeat(xs: list) -> int:
    return min(x for x, count in Counter(xs).items() if count > 1)


def _increasing(xs: list) -> bool:
    return all(a < b for a, b in pairwise(xs))


def validate_value(spec: DecisionSpec, value) -> list[str]:
    """Structural violations of one decision's value; empty list when valid.

    The checks run on Python ints (``tolist``), which on a model's short
    arrays costs less than numpy's overhead per call.
    """
    out: list[str] = []
    if spec.is_partition:
        if not isinstance(value, list):
            return [f"{spec.kind} value must be a list of {spec.n_parts} parts"]
        if len(value) != spec.n_parts:
            return [f"expected {spec.n_parts} parts, got {len(value)}"]
        parts = [p.tolist() for p in value]
        seen = [e for p in parts for e in p]
        if len(seen) != spec.n:
            out.append(f"partition not exhaustive: covers {len(seen)} of {spec.n} elements")
        if seen:
            if min(seen) < 0 or max(seen) >= spec.n:
                out.append(f"partition element out of range 0..{spec.n - 1}")
            elif len(set(seen)) != len(seen):
                dup = _smallest_repeat(seen)
                out.append(f"partition parts not disjoint: element {dup} repeated")
        if spec.kind == DISJOINT_BIT_SETS:
            out.extend(f"bit-set part {k} elements must be strictly increasing (unique)"
                       for k, p in enumerate(parts) if not _increasing(p))
        return out

    if isinstance(value, list):
        return [f"{spec.kind} value must be one array, not a list of {len(value)} parts"]
    xs = value.tolist()
    if spec.kind == SET:  # any cardinality 0..n
        if xs:
            if min(xs) < 0 or max(xs) >= spec.n:
                out.append(f"set element out of range 0..{spec.n - 1}")
            elif not _increasing(xs):
                out.append("set elements must be strictly increasing (unique)")
        if len(xs) > spec.n:
            out.append(f"set has {len(xs)} elements, more than n={spec.n}")
        return out
    if len(xs) != spec.n:
        return [f"{spec.kind} value has length {len(xs)}, expected {spec.n}"]
    if spec.kind == LIST:
        if min(xs) < 0 or max(xs) >= spec.n:
            out.append(f"index out of range 0..{spec.n - 1}")
        elif len(set(xs)) != spec.n:
            out.append(f"duplicate index {_smallest_repeat(xs)}: not a permutation")
    elif spec.kind == BINARY:
        if not set(xs) <= {0, 1}:
            out.append("binary value outside {0, 1}")
    elif spec.kind == INTEGER:
        if min(xs) < spec.lo or max(xs) > spec.hi:
            out.append(f"integer value outside [{spec.lo}, {spec.hi}]")
    return out


def validate_state(specs: list[DecisionSpec], state: State) -> list[str]:
    """All structural violations of ``state`` against ``specs``."""
    if len(state.values) != len(specs):
        return [f"state has {len(state.values)} assignments, model has {len(specs)} decisions"]
    out: list[str] = []
    for i, (spec, value) in enumerate(zip(specs, state.values)):
        out.extend(f"decision {i}: {e}" for e in validate_value(spec, value))
    return out
