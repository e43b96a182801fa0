"""Instance file parsing, emission, and random generation.

Three text formats are supported, all UTF-8 with LF or CRLF line endings:

* TSP files follow the public TSPLIB convention, restricted to
  ``EDGE_WEIGHT_TYPE: EUC_2D`` (node coordinates, distances rounded to the
  nearest integer, half away from zero) and ``EXPLICIT`` with
  ``EDGE_WEIGHT_FORMAT: FULL_MATRIX``.
* Knapsack files: line 1 item count, line 2 capacity, a blank line, then one
  ``profit weight`` pair per line.
* MaxCut files: header ``n m``, then m lines ``u v w`` with 1-indexed
  endpoints.

Instance names default to the file name stem when the caller passes one.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import DomainError, ParseError
from .instances import KpInstance, McInstance, TspInstance


def euc2d_matrix(coords: np.ndarray) -> np.ndarray:
    """Rounded Euclidean distance matrix for an array of (x, y) rows."""
    coords = np.asarray(coords, dtype=np.float64)
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    out = np.floor(d + 0.5)
    np.fill_diagonal(out, 0.0)
    return out


def triangle_violations(matrix: np.ndarray, cap: int = 120) -> int:
    """Count c[i,k] > c[i,j] + c[j,k] triples (0 for most planar instances).

    Nearest-integer rounding can break the triangle inequality by 1 even for
    planar coordinates, so this is diagnostic, never an error.  Instances
    larger than ``cap`` are skipped (the check is cubic).
    """
    n = matrix.shape[0]
    if n > cap:
        return 0
    count = 0
    for j in range(n):
        through = matrix[:, j, None] + matrix[None, j, :]
        count += int((matrix > through + 1e-9).sum())
    return count


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.replace("\r\n", "\n").split("\n")]


def parse_tsplib(text: str, name: str = "") -> TspInstance:
    """Parse a TSPLIB-style file (EUC_2D or EXPLICIT/FULL_MATRIX)."""
    lines = _lines(text)
    header: dict[str, str] = {}
    body_start = None
    section = None
    for i, ln in enumerate(lines):
        if not ln or ln == "EOF":
            continue
        up = ln.upper()
        if up.startswith(("NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION")):
            section = up.split()[0]
            body_start = i + 1
            break
        if ":" in ln:
            key, _, value = ln.partition(":")
            header[key.strip().upper()] = value.strip()
        else:
            header[up] = ""
    if "DIMENSION" not in header:
        raise ParseError("missing DIMENSION")
    try:
        n = int(header["DIMENSION"])
    except ValueError as e:
        raise ParseError(f"bad DIMENSION: {header['DIMENSION']!r}") from e
    if n < 1:
        raise ParseError(f"DIMENSION must be >= 1, got {n}")
    name = name or header.get("NAME", "") or "tsp"
    wtype = header.get("EDGE_WEIGHT_TYPE", "").upper()

    if body_start is None:
        raise ParseError("missing NODE_COORD_SECTION or EDGE_WEIGHT_SECTION")
    body = [ln for ln in lines[body_start:] if ln and ln != "EOF"]

    if wtype == "EUC_2D":
        if section != "NODE_COORD_SECTION":
            raise ParseError("EUC_2D requires NODE_COORD_SECTION")
        if len(body) != n:
            raise ParseError(f"expected {n} coordinate lines, got {len(body)}")
        coords = np.empty((n, 2))
        for ln in body:
            parts = ln.split()
            if len(parts) != 3:
                raise ParseError(f"bad coordinate line: {ln!r}")
            try:
                idx, x, y = int(parts[0]), float(parts[1]), float(parts[2])
            except ValueError as e:
                raise ParseError(f"bad coordinate line: {ln!r}") from e
            if not 1 <= idx <= n:
                raise ParseError(f"node id {idx} out of range 1..{n}")
            coords[idx - 1] = (x, y)
        matrix = euc2d_matrix(coords)
        bad = triangle_violations(matrix)
        if bad:
            warnings.warn(
                f"{name}: {bad} rounded distances violate the triangle inequality",
                stacklevel=2,
            )
        return TspInstance(name, n, matrix)

    if wtype == "EXPLICIT":
        fmt = header.get("EDGE_WEIGHT_FORMAT", "FULL_MATRIX").upper()
        if fmt != "FULL_MATRIX":
            raise ParseError(f"unsupported EDGE_WEIGHT_FORMAT {fmt!r}")
        if section != "EDGE_WEIGHT_SECTION":
            raise ParseError("EXPLICIT requires EDGE_WEIGHT_SECTION")
        values: list[float] = []
        for ln in body:
            try:
                values.extend(float(tok) for tok in ln.split())
            except ValueError as e:
                raise ParseError(f"bad matrix line: {ln!r}") from e
        if len(values) != n * n:
            raise ParseError(f"expected {n * n} matrix entries, got {len(values)}")
        matrix = np.asarray(values).reshape(n, n)
        if not np.allclose(matrix, matrix.T):
            raise ParseError("explicit cost matrix must be symmetric")
        try:
            return TspInstance(name, n, matrix)
        except DomainError as e:
            raise ParseError(str(e)) from e

    raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {wtype!r}")


def emit_tsplib(instance: TspInstance) -> str:
    """Serialize as an EXPLICIT/FULL_MATRIX file (coordinates are not kept)."""
    rows = "\n".join(
        " ".join(format(v, "g") for v in row) for row in instance.cost_matrix
    )
    return (
        f"NAME: {instance.name}\n"
        "TYPE: TSP\n"
        f"DIMENSION: {instance.n}\n"
        "EDGE_WEIGHT_TYPE: EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX\n"
        "EDGE_WEIGHT_SECTION\n"
        f"{rows}\n"
        "EOF\n"
    )


def emit_tsplib_euc2d(name: str, coords: np.ndarray) -> str:
    coord_lines = "\n".join(
        f"{i + 1} {format(x, 'g')} {format(y, 'g')}" for i, (x, y) in enumerate(coords)
    )
    return (
        f"NAME: {name}\n"
        "TYPE: TSP\n"
        f"DIMENSION: {len(coords)}\n"
        "EDGE_WEIGHT_TYPE: EUC_2D\n"
        "NODE_COORD_SECTION\n"
        f"{coord_lines}\n"
        "EOF\n"
    )


def parse_kplib(text: str, name: str = "kp") -> KpInstance:
    """Parse the canonical knapsack layout (count, capacity, blank, pairs)."""
    lines = _lines(text)
    content = [ln for ln in lines if ln]
    if len(content) < 2:
        raise ParseError("knapsack file needs at least an item count and a capacity")
    try:
        n = int(content[0])
        capacity = int(content[1])
    except ValueError as e:
        raise ParseError(f"bad count/capacity header: {content[:2]}") from e
    pairs = content[2:]
    if len(pairs) != n:
        raise ParseError(f"expected {n} item lines, got {len(pairs)}")
    profits = np.empty(n, dtype=np.int64)
    weights = np.empty(n, dtype=np.int64)
    for i, ln in enumerate(pairs):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad item line: {ln!r}")
        try:
            profits[i], weights[i] = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise ParseError(f"bad item line: {ln!r}") from e
    try:
        return KpInstance(name, n, profits, weights, capacity)
    except DomainError as e:
        raise ParseError(str(e)) from e


def emit_kplib(instance: KpInstance) -> str:
    items = "\n".join(
        f"{int(p)} {int(w)}" for p, w in zip(instance.profits, instance.weights)
    )
    return f"{instance.n}\n{instance.capacity}\n\n{items}\n"


def parse_maxcut(text: str, name: str = "maxcut") -> McInstance:
    """Parse the 1-indexed ``n m`` edge-list format."""
    lines = [ln for ln in _lines(text) if ln]
    if not lines:
        raise ParseError("empty maxcut file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as e:
        raise ParseError(f"bad header line: {lines[0]!r}") from e
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError(f"bad edge line: {ln!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as e:
            raise ParseError(f"bad edge line: {ln!r}") from e
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"edge endpoint out of range 1..{n}: {ln!r}")
        edges.append((u - 1, v - 1, w))
    try:
        return McInstance(name, n, edges)
    except DomainError as e:
        raise ParseError(str(e)) from e


def emit_maxcut(instance: McInstance) -> str:
    lines = [f"{instance.n} {instance.m}"]
    lines.extend(f"{u + 1} {v + 1} {format(w, 'g')}" for u, v, w in instance.edges)
    return "\n".join(lines) + "\n"


def generate_random_maxcut(
    n: int,
    density: float,
    weight_range: tuple[int, int] = (1, 10),
    seed: int = 0,
    name: str = "",
) -> McInstance:
    """Random graph: each unordered pair kept with probability ``density``,
    integer weights uniform in ``weight_range``; deterministic per seed."""
    if n < 2:
        raise DomainError(f"maxcut generation needs n >= 2, got {n}")
    if not 0 < density <= 1:
        raise DomainError(f"density must be in (0, 1], got {density}")
    lo, hi = weight_range
    if lo > hi:
        raise DomainError(f"weight range needs lo <= hi, got ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    weights = rng.integers(lo, hi + 1, iu.size)
    edges = [
        (int(u), int(v), float(w))
        for u, v, w, k in zip(iu, ju, weights, keep)
        if k
    ]
    return McInstance(name or f"mc_{n}", n, edges)
