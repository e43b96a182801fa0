"""Delta rules: update a frozen model's sums from the terms a move touches.

:meth:`Model.freeze <combopt.modeling.Model.freeze>` compiles every ``sum``
node whose summand is an elementwise tree (``add``/``sub``/``mul``/``neg``/
``abs``) over constants and gathers of one bit-array or set decision, such as
``x[us]`` or ``weights[items]``.  A scalar tree of the same kind, such as
``x[2]``, is a one-term sum.  These nodes are the plan's *roots*; every node
above them must be scalar arithmetic or a comparison, the plan's *tail*.

For a flip, a root re-evaluates only the terms that read the flipped bit, at
its old and at its new value, and adds the difference to its cached value.
A sum over a set adds the terms of added elements and subtracts those of
dropped ones.  A sum over a list gets no rule: a random 2-opt, insertion or
swap spans about a third of the list, and a rule over the positions it
changes cost as much as the full evaluation on tours of 52 to 3000 cities.

The result must equal the full evaluation bit for bit.  That holds because a
root is compiled only when it is ``integral`` and its partial sums stay below
2**53, so every float64 sum is exact in any order.  A model with any other
node above a decision (a non-integral sum, a list, ``integer`` or partition
decision, a sum of sums, a sum over a tree deeper than ``_MAX_DEPTH``) gets
no plan and always evaluates in full.
"""

from __future__ import annotations

import numpy as np

from .state import BINARY, SET

_TERM_OPS = ("add", "sub", "mul", "neg", "abs")
_TAIL_OPS = ("const", "add", "sub", "mul", "neg", "abs", "le", "ge", "eq")
_EXACT = 2.0**53
# deepest term tree compiled: deeper trees (a long chain of Python-level
# additions) stay in the tail, so neither compiling nor evaluating a rule
# nests more than this many calls
_MAX_DEPTH = 32


class _NotDelta(Exception):
    """The subtree fits no delta rule."""


class _Terms:
    """Compiles one root's summand into a term function.

    ``fn(both, leaves)`` evaluates the summand term by term.  ``leaves`` are
    per-term arrays (decision positions for reads, constants otherwise),
    already gathered to the terms wanted; reads index ``both``, the old and
    the new value of the decision concatenated.  Each node compiles to a
    closure over its operands' closures, which costs less per call than
    interpreting a list of steps.
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
        return (lambda both, lv: both[lv[slot]]), 1.0, True

    def _per_term(self, arr: np.ndarray, bound: float, is_int: bool):
        if arr.ndim == 0:
            return (lambda both, lv: arr), bound, is_int
        if arr.ndim == 1 and arr.size == self.n_terms:
            slot = self._leaf(arr)
            return (lambda both, lv: lv[slot]), bound, is_int
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
        if op in ("add", "sub", "mul"):
            fa, ba, ia = self.compile(node.operands[0])
            fb, bb, ib = self.compile(node.operands[1])
            if op == "add":
                fn = lambda both, lv: fa(both, lv) + fb(both, lv)  # noqa: E731
            elif op == "sub":
                fn = lambda both, lv: fa(both, lv) - fb(both, lv)  # noqa: E731
            else:
                fn = lambda both, lv: fa(both, lv) * fb(both, lv)  # noqa: E731
            return fn, ba * bb if op == "mul" else ba + bb, ia and ib
        if op in ("neg", "abs"):
            fa, ba, ia = self.compile(node.operands[0])
            if op == "neg":
                return (lambda both, lv: -fa(both, lv)), ba, ia
            return (lambda both, lv: np.abs(fa(both, lv))), ba, ia
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
                return (lambda both, lv: table[tuple([f(both, lv) for f in fks])]), bound, False
        raise _NotDelta(f"no delta rule for {op!r}")

    def _key(self, nid: int):
        node = self.nodes[nid]
        if node.op == "const":  # the full evaluation casts constant keys the same way
            return self._per_term(np.asarray(node.payload, dtype=np.int64), 0.0, True)[0]
        fn, _, is_int = self.compile(nid)
        if not is_int:
            raise _NotDelta("gather key is not integer-typed")
        return fn


class _FlipRule:
    """Delta rule of a root over a bit array.

    One pass evaluates the terms that read the flipped position at the old
    and at the new value: reads gather from the old and new values of the
    decision concatenated, and ``sign`` weighs each term's old copy by -1 and
    its new copy by +1.  ``touched[p]`` holds, for the terms that read
    position ``p``, their old copies and then their new copies, with every
    leaf gathered in that order in advance.  The tables grow with the terms,
    not with the decision, so a model with many one-term roots stays cheap.
    """

    def __init__(self, slot: int, is_sum: bool, compiled: _Terms, spec):
        self.slot = slot
        self.is_sum = is_sum
        self.terms_fn = compiled.fn
        m, n = compiled.n_terms, spec.n
        leaves = [
            np.concatenate((leaf, leaf + n if s in compiled.reads else leaf))
            for s, leaf in enumerate(compiled.leaves)
        ]  # indexed by the term, or by the term + m for its new copy
        # (position, term) pairs sorted by position, without repeats
        pos = np.concatenate([compiled.leaves[s] for s in compiled.reads])
        key = np.sort(pos * m + np.tile(np.arange(m), len(compiled.reads)))
        key = key[np.diff(key, prepend=-1) != 0]
        pos, terms = (key // m, key % m) if m else (key, key)
        firsts = np.flatnonzero(np.diff(pos, prepend=-1))  # each position's first pair
        # position p's old copies, then its new copies
        counts = np.diff(firsts, append=pos.size)
        block, size = np.repeat(firsts, counts), np.repeat(counts, counts)
        old = block + np.arange(pos.size)
        doubled = np.empty(2 * pos.size, dtype=np.int64)
        doubled[old], doubled[old + size] = terms, terms + m
        sign = np.where(doubled < m, -1.0, 1.0)
        gathered = [leaf[doubled] for leaf in leaves]
        self.touched = {
            p: (sign[2 * a:2 * (a + c)], [g[2 * a:2 * (a + c)] for g in gathered])
            for p, a, c in zip(pos[firsts].tolist(), firsts.tolist(), counts.tolist())
        }

    def update(self, cached, both, p: int):
        """New value of the root after a flip of position ``p``.

        ``both`` is the decision's old value followed by its new value.
        Returns None when the root needs the full evaluation.
        """
        touched = self.touched.get(p)
        if touched is None:
            return cached
        sign, leaves = touched
        values = self.terms_fn(both, leaves)
        if not self.is_sum:
            return values[-1]
        value = float(cached + values @ sign)
        # only the full sum knows the sign of a zero result
        return value if value != 0.0 else None


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
    if spec.kind == SET:
        try:
            return compiled.decision, _SetRule(slot, compiled)
        except IndexError:  # a constant shorter than the set: let the sets that
            return None     # reach past its end raise in the full evaluation
    return compiled.decision, _FlipRule(slot, node.op == "sum", compiled, spec)


class DeltaPlan:
    """Roots, their rules per decision, and the tail schedule above them."""

    def __init__(self, roots: list[int], rules: dict, tail: list, bits: set):
        self.roots = roots  # node ids, in the order of Evaluation.sums
        self.rules = rules  # decision id -> rules of the roots reading it
        self.tail = tail
        self.bits = bits  # bit-array decision ids, whose rules read their old and new values

    def update(self, state, prev_state, prev_eval, move):
        """The roots' values at ``state``, or None when it needs the full evaluation."""
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
        if d not in self.bits:
            args = (tag,)
        elif kind == "flip":
            args = (np.concatenate((prev_state.values[d], state.values[d])), tag[1])
        else:
            return None
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
    bits = {d for d in rules if decisions[d].kind == BINARY}
    return DeltaPlan(roots, rules, [e for e in schedule if e[0] in tail_ids], bits)
