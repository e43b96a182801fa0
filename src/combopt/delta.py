"""Delta rules: update a frozen model's sums from the terms a move touches.

:meth:`Model.freeze <combopt.modeling.Model.freeze>` compiles every ``sum``
node whose summand is an elementwise tree (``add``/``sub``/``mul``/``neg``/
``abs``) over constants and gathers of one bit-array or set decision, such as
``x[us]`` or ``weights[items]``.  A scalar tree of the same kind, such as
``x[2]``, is a one-term sum.  These nodes are the plan's *roots*; every node
above them must be scalar arithmetic or a comparison, the plan's *tail*.

For a flip, a root over a bit array uses the pairwise form of its terms.  A
term that reads bits ``a <= b`` equals ``c + alpha*x_a + beta*x_b +
gamma*x_a*x_b`` on {0, 1}², and ``freeze`` evaluates every term once at the
four corners to find these coefficients.  It folds them into tables keyed by
the positions the terms read.  A flip of ``p`` then changes a sum by
``±(h[p] + J[p] @ x[nbrs[p]])``, one gather and one dot, and sets a one-term
root to its value at the new corner.  A sum over a set adds the terms of
added elements and subtracts those of dropped ones.  A sum over a list gets
no rule: a random 2-opt, insertion or swap spans about a third of the list,
and a rule over the positions it changes cost as much as the full evaluation
on tours of 52 to 3000 cities.

The result must equal the full evaluation bit for bit.  That holds because a
root is compiled only when it is ``integral`` and its partial sums stay below
2**53, so every float64 sum is exact in any order.  A model with any other
node above a decision (a non-integral sum, a list, ``integer`` or partition
decision, a sum of sums, a sum over a tree deeper than ``_MAX_DEPTH``, a sum
whose terms read three or more distinct bits) gets no plan and always
evaluates in full.
"""

from __future__ import annotations

import numpy as np

from .modeling import ARITH_OPS, COMPARE_OPS, UNARY_OPS
from .state import BINARY, SET

_TERM_OPS = (*ARITH_OPS, *UNARY_OPS)
_TAIL_OPS = ("const", *_TERM_OPS, *COMPARE_OPS)
_EXACT = 2.0**53
# deepest term tree compiled: deeper trees (a long chain of Python-level
# additions) stay in the tail, so neither compiling nor evaluating a rule
# nests more than this many calls
_MAX_DEPTH = 32


class _NotDelta(Exception):
    """The subtree fits no delta rule."""


class _Terms:
    """Compiles one root's summand into a term function.

    ``fn(x, leaves)`` evaluates the summand term by term.  ``leaves`` are
    per-term arrays (decision positions for reads, constants otherwise), and
    reads index ``x``.  The rules call it only when they are built.  Each
    node compiles to a closure over its operands' closures.
    """

    def __init__(self, nodes, decisions, n_terms):
        self.nodes = nodes
        self.decisions = decisions
        self.n_terms = n_terms  # None until a set read fixes it
        self.decision = None
        self.leaves: list[np.ndarray] = []
        self.reads: list[int] = []  # leaf slots holding decision positions
        self.memo: dict = {}
        self.depth = 0

    def _leaf(self, values: np.ndarray) -> int:
        self.leaves.append(values)
        return len(self.leaves) - 1

    def _decision(self, did: int):
        if self.decision is None:
            self.decision = did
        elif self.decision != did:
            raise _NotDelta("terms read more than one decision")
        return self.decisions[did]

    def _read(self, did: int, positions):
        spec = self._decision(did)
        if spec.kind != BINARY or self.n_terms is None:
            raise _NotDelta(f"no delta rule for {spec.kind} reads")
        pos = np.array(np.broadcast_to(positions, (self.n_terms,)), dtype=np.int64)
        if pos.size and (pos.min() < 0 or pos.max() >= spec.n):
            raise _NotDelta("positions outside the decision")
        slot = self._leaf(pos)
        self.reads.append(slot)
        return (lambda x, lv: x[lv[slot]]), 1.0, True

    def _per_term(self, arr: np.ndarray, bound: float, is_int: bool):
        if arr.ndim == 0:
            return (lambda x, lv: arr), bound, is_int
        if arr.ndim == 1 and arr.size == self.n_terms:
            slot = self._leaf(arr)
            return (lambda x, lv: lv[slot]), bound, is_int
        raise _NotDelta("constant is not per-term")

    def compile(self, nid: int):
        """(term function, magnitude bound, integer dtype) of node ``nid``."""
        if nid not in self.memo:
            if self.depth == _MAX_DEPTH:
                raise _NotDelta("term tree too deep")
            self.depth += 1
            self.memo[nid] = self._compile(nid)
            self.depth -= 1
        return self.memo[nid]

    def _compile(self, nid: int):
        node = self.nodes[nid]
        op = node.op
        if op == "const":
            arr = node.payload
            return self._per_term(arr, float(np.abs(arr).max()) if arr.size else 0.0, False)
        if op in ARITH_OPS:
            f = ARITH_OPS[op]
            fa, ba, ia = self.compile(node.operands[0])
            fb, bb, ib = self.compile(node.operands[1])
            # over |a| <= ba and |b| <= bb, |a + b|, |a - b| and |a * b| peak at a corner
            bound = max(abs(f(ba, bb)), abs(f(ba, -bb)))
            return (lambda x, lv: f(fa(x, lv), fb(x, lv))), bound, ia and ib
        if op in UNARY_OPS:
            f = UNARY_OPS[op]
            fa, ba, ia = self.compile(node.operands[0])
            return (lambda x, lv: f(fa(x, lv))), ba, ia
        if op == "decision":
            spec = self.decisions[node.payload]
            if spec.kind != SET:
                return self._read(node.payload, np.arange(spec.n))
            self._decision(node.payload)
            if self.n_terms not in (None, spec.n):
                raise _NotDelta("set read in a static-length tree")
            self.n_terms = spec.n  # one term per element; its value is the element
            return self._per_term(np.arange(spec.n), spec.n - 1.0, True)
        if op == "slice":
            base = self.nodes[node.operands[0]]
            if base.op != "decision":
                raise _NotDelta("slice of a non-decision")
            start, stop = node.payload
            return self._read(base.payload, np.arange(start, stop))
        if op == "index":
            base = self.nodes[node.operands[0]]
            keys = node.operands[1:]
            if base.op == "decision" and len(keys) == 1:
                key = self.nodes[keys[0]]
                if key.op != "const":
                    raise _NotDelta("decision gathered by a non-constant key")
                return self._read(base.payload, key.payload)
            if base.op == "const":
                table = base.payload
                fks = [self._key(k) for k in keys]
                bound = float(np.abs(table).max()) if table.size else 0.0
                return (lambda x, lv: table[tuple([f(x, lv) for f in fks])]), bound, False
        raise _NotDelta(f"no delta rule for {op!r}")

    def _key(self, nid: int):
        node = self.nodes[nid]
        if node.op == "const":  # the full evaluation casts constant keys the same way
            return self._per_term(np.asarray(node.payload, dtype=np.int64), 0.0, True)[0]
        fn, _, is_int = self.compile(nid)
        if not is_int:
            raise _NotDelta("gather key is not integer-typed")
        return fn


def _corners(compiled: _Terms):
    """The positions ``a <= b`` that each term reads, and its 4 corner values.

    Row ``k`` holds every term's value at corner ``k`` of ``(x_a, x_b)``:
    (0, 0), (1, 0), (0, 1), (1, 1).  One call of the term function computes
    them: each read becomes a 0/1 leaf into ``[0, 1]``.  A term that reads
    one position has ``a == b`` and reads ``x_a`` at every corner.
    """
    m = compiled.n_terms
    reads = np.array([compiled.leaves[s] for s in compiled.reads])
    a, b = reads.min(0), reads.max(0)
    if not ((reads == a) | (reads == b)).all():
        raise _NotDelta("a term reads more than two bits")
    corner = np.array([[0, 1, 0, 1], [0, 0, 1, 1]])[:, :, None]  # x_a, x_b
    leaves = [
        np.where(leaf == a, corner[0], corner[1]).ravel() if s in compiled.reads
        else np.tile(leaf, 4)
        for s, leaf in enumerate(compiled.leaves)
    ]
    return a, b, compiled.fn(np.array([0, 1]), leaves).reshape(4, m)


class _FlipSumRule:
    """Delta rule of a sum over a bit array, from the pairwise form of its terms.

    On {0, 1}² a term that reads bits ``a <= b`` equals ``c + alpha*x_a +
    beta*x_b + gamma*x_a*x_b``.  Flipping bit ``p`` changes the sum by
    ``±(h[p] + J[p] @ x[nbrs[p]])``: ``h[p]`` adds up the linear coefficients
    of ``p`` and ``J[p]`` its couplings with the bits ``nbrs[p]``.
    ``touched[p]`` holds ``(h[p], nbrs[p], J[p])`` for each position the terms
    read, so the tables grow with the terms, not with the decision.
    """

    def __init__(self, slot: int, compiled: _Terms, n: int, bound: float):
        self.slot = slot
        a, b, (v00, v10, v01, v11) = _corners(compiled)
        alpha, beta, gamma = v10 - v00, v01 - v00, (v11 - v10) - (v01 - v00)
        # every partial sum of the cached value plus a change stays below 2**53
        if compiled.n_terms * bound + sum(np.abs(c).sum() for c in (alpha, beta, gamma)) >= _EXACT:
            raise _NotDelta("coefficients too large for exact sums")
        # every term under each of its ends, sorted by (end, other end)
        key = np.array([a * n + b, b * n + a]).ravel()
        order = np.argsort(key)
        key, linear = key[order], np.array([alpha, beta]).ravel()[order]
        firsts = np.flatnonzero(np.diff(key // n, prepend=-1))  # each end's first
        pos, h = key[firsts] // n, np.add.reduceat(linear, firsts, dtype=float)
        firsts = np.flatnonzero(np.diff(key, prepend=-1))  # each pair's first
        key = key[firsts]
        coupling = np.add.reduceat(np.tile(gamma, 2)[order], firsts, dtype=float)
        # a term with a == b, or a pair whose couplings cancel, couples nothing
        key, coupling = key[coupling != 0], coupling[coupling != 0]
        owner, nbrs = key // n, key % n
        first, stop = np.searchsorted(owner, pos), np.searchsorted(owner, pos, "right")
        self.touched = {
            p: (hp, nbrs[i:j], coupling[i:j])
            for p, hp, i, j in zip(pos.tolist(), h.tolist(), first.tolist(), stop.tolist())
        }

    def update(self, cached, old, p: int):
        """New value of the sum after a flip of position ``p`` of ``old``;
        None when it reaches zero, whose sign only the full sum knows."""
        touched = self.touched.get(p)
        if touched is None:
            return cached
        h, nbrs, coupling = touched
        change = h + coupling @ old[nbrs]
        value = float(cached - change if old[p] else cached + change)
        return value if value != 0.0 else None


class _FlipTermRule:
    """Delta rule of a one-term root over a bit array, such as ``x[2]``.

    ``corners`` holds the term's value at each corner of the bits ``a <= b``
    it reads, as the full evaluation computes it, so a zero keeps its sign.
    """

    def __init__(self, slot: int, compiled: _Terms):
        self.slot = slot
        a, b, values = _corners(compiled)
        self.a, self.b = int(a[0]), int(b[0])
        self.corners = list(values[:, 0])

    def update(self, cached, old, p: int):
        """New value of the term after a flip of position ``p`` of ``old``."""
        a, b = self.a, self.b
        if p != a and p != b:
            return cached
        return self.corners[(old[a] ^ (p == a)) + 2 * (old[b] ^ (p == b))]


class _SetRule:
    """Delta rule of a sum over a set: ``table[e]`` is element ``e``'s term."""

    def __init__(self, slot: int, compiled: _Terms):
        self.slot = slot
        self.table = compiled.fn(None, compiled.leaves).tolist()

    def update(self, cached, tag):
        """New value of the sum after a set move; None for a zero sum or another tag."""
        kind = tag[0]
        if kind == "add":
            value = cached + self.table[tag[1]]
        elif kind == "drop":
            value = cached - self.table[tag[1]]
        elif kind == "exch":
            value = cached - self.table[tag[1]] + self.table[tag[2]]
        else:
            return None
        return value if value != 0.0 else None


def _root(nodes, decisions, nid: int, slot: int):
    """The delta rule of node ``nid``, or None when it is not a root."""
    node = nodes[nid]
    if node.op == "sum":
        body = node.operands[0]
        shape = nodes[body].shape
        n_terms = shape[0] if isinstance(shape, tuple) and len(shape) == 1 else None
        if shape == ():
            n_terms = 1
    elif node.shape == () and node.op in ("index", *_TERM_OPS):
        body, n_terms = nid, 1
    else:
        return None
    compiled = _Terms(nodes, decisions, n_terms)
    try:
        compiled.fn, bound, _ = compiled.compile(body)
    except _NotDelta:
        return None
    if compiled.decision is None or not node.integral:
        return None
    if 3.0 * compiled.n_terms * bound >= _EXACT:
        return None
    spec = decisions[compiled.decision]
    try:
        if spec.kind == SET:
            rule = _SetRule(slot, compiled)
        elif node.op == "sum":
            rule = _FlipSumRule(slot, compiled, spec.n, bound)
        else:
            rule = _FlipTermRule(slot, compiled)
    except _NotDelta:
        return None
    except IndexError:  # a constant too short for some elements or bits: let the
        return None     # states that reach past its end raise in the full evaluation
    return compiled.decision, rule


class DeltaPlan:
    """Roots, their rules per decision, and the tail schedule above them."""

    def __init__(self, roots: list[int], rules: dict, tail: list):
        self.roots = roots  # node ids, in the order of Evaluation.sums
        self.rules = rules  # decision id -> rules of the roots reading it
        self.tail = tail

    def update(self, prev_state, prev_eval, move):
        """The roots' values at ``prev_state`` after ``move``, from the move's tag,
        or None when they need the full evaluation."""
        cached = prev_eval.sums
        if cached is None:
            return None
        d, tag = move
        kind = tag[0]
        if kind == "noop":
            return cached
        rules = self.rules.get(d)
        if not rules:
            return cached
        # a flip rule reads the bits before the flip, a set rule only the tag
        args = (prev_state.values[d], tag[1]) if kind == "flip" else (tag,)
        sums = list(cached)
        for rule in rules:
            value = rule.update(cached[rule.slot], *args)
            if value is None:
                return None
            sums[rule.slot] = value
        return sums


def compile_plan(nodes, decisions, schedule, tops) -> DeltaPlan | None:
    """Delta plan of the nodes below ``tops``, or None when one does not fit."""
    roots: list[int] = []
    rules: dict = {}
    tail_ids: set = set()
    seen: set = set()
    stack = list(tops)
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        found = _root(nodes, decisions, nid, len(roots))
        if found is not None:
            roots.append(nid)
            rules.setdefault(found[0], []).append(found[1])
        elif nodes[nid].op in _TAIL_OPS and nodes[nid].shape == ():
            tail_ids.add(nid)
            stack.extend(nodes[nid].operands)
        else:
            return None
    return DeltaPlan(roots, rules, [e for e in schedule if e[0] in tail_ids])
