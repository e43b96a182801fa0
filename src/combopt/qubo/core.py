"""Sparse QUBO container and its line-oriented text format."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, ParseError


def fold_sum(start: float, values) -> float:
    """``start + values[0] + values[1] + ...`` added one at a time, in order, so the
    bits equal those of a Python loop (``len(values) * x`` can round differently)."""
    return float(np.cumsum(np.concatenate([[start], np.asarray(values, dtype=np.float64)]))[-1])


class Qubo:
    """Upper-triangular quadratic binary objective plus a constant offset.

    ``rows``, ``cols``, ``vals`` hold each nonzero coefficient once, with
    ``rows <= cols``, sorted by (row, col); diagonal entries are the linear
    part.  Minimizing ``sum vals * x[rows] * x[cols] + offset`` over
    bitstrings is the contract.
    """

    __slots__ = ("n", "rows", "cols", "vals", "offset")

    def __init__(self, n: int, offset: float = 0.0):
        if n < 0:
            raise DomainError(f"variable count must be >= 0, got {n}")
        self.n = n
        self.rows = self.cols = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0)
        self.offset = float(offset)

    def add(self, i, j, coeff) -> None:
        """Accumulate coefficients at (i, j): scalars or arrays that broadcast together.

        Each entry sums its stored value, then its contributions in C order, so
        the bits equal those of scalar adds one by one; zero sums are dropped.
        A bad index or a non-finite coefficient raises ``DomainError`` and
        changes nothing."""
        i, j, coeff = (a.ravel() for a in np.broadcast_arrays(
            np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64),
            np.asarray(coeff, dtype=np.float64)))
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        bad = (lo < 0) | (hi >= self.n)
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(f"index ({i[k]}, {j[k]}) out of range for n={self.n}")
        if not np.isfinite(coeff).all():
            raise DomainError("QUBO coefficients must be finite")
        keys, slot = np.unique(np.concatenate([self.rows * self.n + self.cols, lo * self.n + hi]),
                               return_inverse=True)
        sums = np.zeros(keys.size)
        np.add.at(sums, slot, np.concatenate([self.vals, coeff]))
        keep = sums != 0.0
        self.rows, self.cols = np.divmod(keys[keep], self.n)
        self.vals = sums[keep]

    @property
    def m(self) -> int:
        return self.vals.size

    @property
    def terms(self) -> dict[tuple[int, int], float]:
        """The coefficients as a new ``{(i, j): coeff}`` dict, in key order."""
        return dict(zip(zip(self.rows.tolist(), self.cols.tolist()), self.vals.tolist()))

    def to_dense(self) -> np.ndarray:
        """Upper-triangular coefficient matrix (diagonal holds linear terms)."""
        q = np.zeros((self.n, self.n))
        q[self.rows, self.cols] = self.vals
        return q

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """(linear h, symmetric zero-diagonal coupling S) for samplers."""
        q = self.to_dense()
        s = q + q.T  # one of q[i, j] and q[j, i] is 0.0, so each sum is exact
        np.fill_diagonal(s, 0.0)
        return q.diagonal().copy(), s

    def energy(self, bits) -> float:
        b = np.asarray(bits, dtype=np.float64).reshape(-1)
        if b.size != self.n:
            raise DomainError(f"bitstring length {b.size} != n={self.n}")
        return float(self.energies(b[None, :])[0])

    def energies(self, batch: np.ndarray) -> np.ndarray:
        """Energies of a (reads, n) bit matrix."""
        b = np.asarray(batch, dtype=np.float64)
        return np.einsum("ri,ij,rj->r", b, self.to_dense(), b) + self.offset

    def __eq__(self, other):
        return (
            isinstance(other, Qubo)
            and self.n == other.n
            and self.offset == other.offset
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Qubo(n={self.n}, m={self.m}, offset={self.offset})"

    # -- text format: "p qubo n m" header, then "i j coeff" lines (0-indexed) --

    def save_text(self) -> str:
        lines = [f"c offset {self.offset!r}", f"p qubo {self.n} {self.m}"]
        lines += (f"{i} {j} {c!r}" for (i, j), c in self.terms.items())
        return "\n".join(lines) + "\n"

    @classmethod
    def load_text(cls, text: str) -> "Qubo":
        offset = 0.0
        n = None
        expected = 0
        entries: list[tuple[int, int, float]] = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln:
                continue
            if ln.startswith("c"):
                parts = ln.split()
                if len(parts) == 3 and parts[1] == "offset":
                    offset = float(parts[2])
                continue
            if ln.startswith("p"):
                parts = ln.split()
                if len(parts) != 4 or parts[1] != "qubo":
                    raise ParseError(f"bad problem line: {ln!r}")
                n, expected = int(parts[2]), int(parts[3])
                continue
            parts = ln.split()
            if len(parts) != 3:
                raise ParseError(f"bad entry line: {ln!r}")
            entries.append((int(parts[0]), int(parts[1]), float(parts[2])))
        if n is None:
            raise ParseError("missing 'p qubo n m' line")
        if len(entries) != expected:
            raise ParseError(f"expected {expected} entries, got {len(entries)}")
        q = cls(n, offset=offset)
        q.add(*(zip(*entries) if entries else ((), (), ())))
        return q
