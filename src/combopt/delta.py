"""Delta rules: update a frozen model's sums from the terms a move touches.

:meth:`Model.freeze <combopt.modeling.Model.freeze>` gives a rule to every
``sum`` node whose summand is elementwise (``add``/``sub``/``mul``/``neg``/
``abs``) over constants, gathers from constant tables and reads of one
bit-array or set decision, such as ``x[us]`` or ``weights[items]``.  A scalar
summand of the same kind, such as ``x[2]``, is a one-term sum.  These nodes
are the plan's *roots*; every node above them must be scalar arithmetic or a
comparison, or a subtree that reads no decision, such as a sum of constants:
the plan's *tail*.

The rules' tables are the model's own evaluation of the summand
(:func:`~combopt.modeling.run_schedule`), with every read set to its values
in all terms at once.  A sum over a set reads the set as ``range(n)``, so its
table holds each element's term; a set move adds the terms of added elements
and subtracts those of dropped ones.  For a flip, a root over a bit array
uses the pairwise form of its terms.  A term that reads bits ``a <= b``
equals ``c + alpha*x_a + beta*x_b + gamma*x_a*x_b`` on {0, 1}², and
``freeze`` evaluates the summand at the four corners of ``(x_a, x_b)`` to
find these coefficients.  It folds them into tables keyed by the positions
the terms read.  A flip of ``p`` then changes a sum by ``±F[p]``, where ``F =
h + J·x`` is the sum's *field*, and sets each one-term root that reads ``p``
to its value at the new corner; the other roots are not called.  The field
is made with the evaluation (:attr:`Evaluation.fields
<combopt.modeling.Evaluation.fields>`), so a flip reads it.  An evaluation
made in full computes it with one ``bincount`` over the couplings; one built
from a flip's score derives it from its parent's (``±J[p]`` at ``nbrs[p]``),
and a candidate is built only when it is kept or its digest breaks a tie.
A tabu step's flips of one bit array are scored as a batch
(:meth:`DeltaPlan.flips`): each sum becomes the array ``cached ± field[ps]``
over the drawn positions ``ps``, the same float operation as one flip, and
the tail runs once over those arrays.  A batch in which a one-term root
reads a drawn bit is scored flip by flip.

A list decision ``L`` has two roots, the two parts of a tour length: the path
``C[L[:-1], L[1:]].sum()`` over a symmetric table ``C`` and a one-term entry
such as the closing edge ``C[L[-1], L[0]]``.  A 2-opt, swap or insertion
changes at most six edges of the path; the rest keep their lengths, reversed
or shifted along the list, because ``C`` is symmetric (Johnson and McGeoch's
O(1) 2-opt gain).  The rule reads those edges from the tag, at positions of
the list before the move.  A one-term entry reads the table at the entries
that the move brings to its positions.

A plan answers every move, and its answer equals the full evaluation bit for
bit.  That holds because a sum gets a rule only when it is ``integral`` and
its partial sums stay below 2**53, a bound taken from its terms' values, so
every float64 sum, a field included, is exact in any order; a one-term root
takes the corner value that the full evaluation's code computed.  The sign of
a zero holds too: a sum that comes to zero is +0.0
(:func:`~combopt.modeling.run_schedule`), and under round-to-nearest ``x + y``
and ``x - y`` give -0.0 only when ``x`` is -0.0 (IEEE 754, 6.3), so no rule,
which adds to or subtracts from a cached sum, makes one.  A model with any
other node above a decision (a non-integral sum, a path over an asymmetric
table, any other sum over a list, an ``integer`` or partition decision, a sum
of sums, a summand deeper than ``_MAX_DEPTH``, a sum whose terms read three
or more distinct bits) gets no plan and always evaluates in full.
"""

from __future__ import annotations

import numpy as np

from .modeling import ARITH_OPS, COMPARE_OPS, UNARY_OPS, run_schedule
from .state import BINARY, LIST, SET

_TERM_OPS = (*ARITH_OPS, *UNARY_OPS)
_TAIL_OPS = ("const", *_TERM_OPS, *COMPARE_OPS)
_EXACT = 2.0**53
_FLIP_SIGNS = np.array([1.0, -1.0])  # by the bit before a flip: what its field adds
# deepest summand given a rule: a deeper one (a long chain of Python-level
# additions) stays in the tail, so the walk from each node of such a chain
# stops after this many levels and freezing stays linear in its length
_MAX_DEPTH = 32


class _NotDelta(Exception):
    """The subtree fits no delta rule."""


def _summand(nodes, body: int):
    """The decision that the summand ``body`` reads, its read nodes, and its
    other nodes.

    A read is a decision, a slice of one or its gather by a constant key;
    every other node must be a constant, an elementwise op or a gather from a
    constant table.  The walk visits operand 0 first and each node once, at
    the depth it is first reached.
    """
    decision = None
    reads: list[int] = []
    inner: list[int] = []
    seen: set = set()
    stack = [(body, 1)]
    while stack:
        nid, depth = stack.pop()
        if nid in seen:
            continue
        if depth > _MAX_DEPTH:
            raise _NotDelta("summand too deep")
        seen.add(nid)
        node = nodes[nid]
        base = nodes[node.operands[0]] if node.op in ("slice", "index") else node
        if base.op == "decision" and (node.op != "index" or nodes[node.operands[1]].op == "const"):
            if decision not in (None, base.payload):
                raise _NotDelta("summand reads more than one decision")
            decision = base.payload
            reads.append(nid)
            continue
        if node.op not in ("const", *_TERM_OPS) and not (node.op == "index" and base.op == "const"):
            raise _NotDelta(f"no delta rule for {node.op!r}")
        inner.append(nid)
        stack.extend((k, depth + 1) for k in reversed(node.operands))
    if decision is None:
        raise _NotDelta("summand reads no decision")
    return decision, reads, inner


def _read_positions(nodes, reads: list[int], n_terms: int, n: int) -> np.ndarray:
    """Row ``k`` holds the bit that read ``k`` takes in each term."""
    pos = np.empty((len(reads), n_terms), dtype=np.int64)
    for row, nid in zip(pos, reads):
        node = nodes[nid]
        if node.op == "decision":
            row[:] = np.arange(n)
        elif node.op == "slice":
            row[:] = np.arange(*node.payload)
        else:
            row[:] = nodes[node.operands[1]].payload  # a constant key, cast as evaluated
    if pos.size and (pos.min() < 0 or pos.max() >= n):
        raise _NotDelta("positions outside the decision")
    return pos


def _terms(schedule, body: int, reads: list[int], values) -> np.ndarray:
    """The summand's terms, from the model's own evaluation of ``schedule``
    with read ``k`` set to ``values[k]``."""
    vals = dict(zip(reads, values))
    run_schedule(schedule, vals, None)
    return vals[body]


def _corners(schedule, body: int, reads: list[int], pos: np.ndarray):
    """The positions ``a <= b`` that each term reads, and its 4 corner values.

    Row ``k`` holds every term's value at corner ``k`` of ``(x_a, x_b)``:
    (0, 0), (1, 0), (0, 1), (1, 1).  One evaluation computes them: each read
    takes the corner's bits, one row per corner.  A term that reads one
    position has ``a == b`` and reads ``x_a`` at every corner.
    """
    a, b = pos.min(0), pos.max(0)
    if not ((pos == a) | (pos == b)).all():
        raise _NotDelta("a term reads more than two bits")
    corner = np.array([[0, 1, 0, 1], [0, 0, 1, 1]])[:, :, None]  # x_a, x_b
    return a, b, _terms(schedule, body, reads, [np.where(p == a, *corner) for p in pos])


class _FlipSumRule:
    """Delta rule of a sum over a bit array, from the pairwise form of its terms.

    On {0, 1}² a term that reads bits ``a <= b`` equals ``c + alpha*x_a +
    beta*x_b + gamma*x_a*x_b``.  Flipping bit ``p`` changes the sum by
    ``±F[p]``, where the field ``F = h + J·x`` adds up the linear coefficients
    ``h[p]`` of ``p`` and its couplings ``J[p]`` with the bits ``nbrs[p]``.
    The couplings are kept as ``(owner, nbrs, coupling)`` triples, sorted by
    owner; ``touched[p]`` holds the slices ``(nbrs[p], J[p])`` for each
    position the terms read.
    """

    def __init__(self, slot: int, a: np.ndarray, b: np.ndarray, values: np.ndarray, n: int):
        self.slot = slot
        v00, v10, v01, v11 = values
        alpha, beta, gamma = v10 - v00, v01 - v00, (v11 - v10) - (v01 - v00)
        # every partial sum of the cached value plus a change, and so every
        # field value, stays below 2**53
        size = np.abs(values).max(0).sum() + sum(np.abs(c).sum() for c in (alpha, beta, gamma))
        if size >= _EXACT:
            raise _NotDelta("terms too large for exact sums")
        # every term under each of its ends, sorted by (end, other end)
        key = np.array([a * n + b, b * n + a]).ravel()
        order = np.argsort(key)
        key, linear = key[order], np.array([alpha, beta]).ravel()[order]
        firsts = np.flatnonzero(np.diff(key // n, prepend=-1))  # each end's first
        pos = key[firsts] // n
        self.h = np.zeros(n)
        self.h[pos] = np.add.reduceat(linear, firsts, dtype=float)
        firsts = np.flatnonzero(np.diff(key, prepend=-1))  # each pair's first
        key = key[firsts]
        coupling = np.add.reduceat(np.tile(gamma, 2)[order], firsts, dtype=float)
        # a term with a == b, or a pair whose couplings cancel, couples nothing
        key, self.coupling = key[coupling != 0], coupling[coupling != 0]
        self.owner, self.nbrs = key // n, key % n
        first = np.searchsorted(self.owner, pos)
        stop = np.searchsorted(self.owner, pos, "right")
        self.touched = {p: (self.nbrs[i:j], self.coupling[i:j])
                        for p, i, j in zip(pos.tolist(), first.tolist(), stop.tolist())}

    def field(self, bits: np.ndarray) -> np.ndarray:
        """The field ``h + J·x`` at the bits ``x``, from scratch."""
        return self.h + np.bincount(self.owner, self.coupling * bits[self.nbrs], self.h.size)

    def flipped(self, field: np.ndarray, p: int, bit: int) -> np.ndarray:
        """The field after bit ``p`` flips from ``bit``; ``field`` is not written."""
        touched = self.touched.get(p)
        if touched is None or not touched[0].size:
            return field
        nbrs, coupling = touched
        field = field.copy()
        if bit:
            field[nbrs] -= coupling
        else:
            field[nbrs] += coupling
        return field


class _FlipTermRule:
    """Delta rule of a one-term root over a bit array, such as ``x[2]``.

    ``corners`` holds the term's value at each corner of the bits ``a <= b``
    it reads, as the full evaluation computes it, so a zero keeps its sign.
    """

    def __init__(self, slot: int, a: np.ndarray, b: np.ndarray, values: np.ndarray):
        self.slot = slot
        self.a, self.b = int(a[0]), int(b[0])
        self.corners = list(values[:, 0])

    def update(self, cached, old, tag):
        """New value of the term after the flip ``tag`` of one of its bits in ``old``."""
        p, a, b = tag[1], self.a, self.b
        return self.corners[(old[a] ^ (p == a)) + 2 * (old[b] ^ (p == b))]


class _SetRule:
    """Delta rule of a sum over a set: ``table[e]`` is element ``e``'s term."""

    def __init__(self, slot: int, table: np.ndarray):
        self.slot = slot
        # every partial sum of the cached value plus a change stays below 2**53
        if np.abs(table).sum() >= _EXACT:
            raise _NotDelta("terms too large for exact sums")
        self.table = table.tolist()

    def update(self, cached, old, tag):
        """New value of the sum after the set move ``tag``."""
        kind = tag[0]
        if kind == "add":
            return cached + self.table[tag[1]]
        if kind == "drop":
            return cached - self.table[tag[1]]
        return cached - self.table[tag[1]] + self.table[tag[2]]  # an exchange


def _moved_from(tag, p: int) -> int:
    """The position, before the list move ``tag``, of the entry it brings to ``p``."""
    kind, i, j = tag
    if kind == "2opt":
        return i + j - p if i <= p <= j else p
    if kind == "swap":
        return j if p == i else i if p == j else p
    # an insertion takes the entry at i to j and shifts the ones between by one
    if p == j:
        return i
    if i <= p < j:
        return p + 1
    if j < p <= i:
        return p - 1
    return p


class _PathRule:
    """Delta rule of a path ``C[L[:-1], L[1:]].sum()`` over a symmetric table.

    A move cuts a few edges of the path and joins as many; every other edge
    keeps its length, reversed or shifted along the list.  ``update`` names
    both as pairs of positions of the list before the move, with ``i < j``
    for a 2-opt or swap as :func:`~combopt.solver.moves.draw_move` makes
    them.  A pair with an end outside the list stands for no edge on either
    side, as the edge before a 2-opt from position 0.
    """

    def __init__(self, slot: int, table: np.ndarray, n: int):
        self.slot = slot
        self.table = table
        self.n = n

    def update(self, cached, old, tag):
        """New value of the path after the list move ``tag`` of ``old``."""
        kind, i, j = tag
        if kind == "2opt" or kind == "swap" and j == i + 1:
            cut, join = ((i - 1, i), (j, j + 1)), ((i - 1, j), (i, j + 1))
        elif kind == "swap":
            cut = ((i - 1, i), (i, i + 1), (j - 1, j), (j, j + 1))
            join = ((i - 1, j), (j, i + 1), (j - 1, i), (i, j + 1))
        elif i < j:  # an insertion forward
            cut = ((i - 1, i), (i, i + 1), (j, j + 1))
            join = ((i - 1, i + 1), (j, i), (i, j + 1))
        else:
            cut = ((j - 1, j), (i - 1, i), (i, i + 1))
            join = ((j - 1, i), (i, j), (i - 1, i + 1))
        return cached - self._length(old, cut) + self._length(old, join)

    def _length(self, old, edges) -> float:
        n, edge, at = self.n, self.table.item, old.item
        total = 0.0
        for p, q in edges:
            if p >= 0 and q < n:  # every pair above has p >= -1 and q <= n
                total += edge(at(p), at(q))
        return total


class _EntryRule:
    """Delta rule of a one-term root that reads a table at constant positions
    of a list, such as the closing edge ``C[L[-1], L[0]]``.  It reads the
    table as the full evaluation does, so any table is exact."""

    def __init__(self, slot: int, table: np.ndarray, positions: list[int]):
        self.slot = slot
        self.table = table
        self.positions = positions

    def update(self, cached, old, tag):
        """The table entry at the entries that the list move ``tag`` of ``old``
        brings to the positions."""
        return self.table.item(*[old.item(_moved_from(tag, p)) for p in self.positions])


def _list_read(nodes, decisions, nid: int):
    """``(decision, node)`` when node ``nid`` gathers or slices a list decision."""
    node = nodes[nid]
    base = nodes[node.operands[0]] if node.op in ("index", "slice") else None
    if base is None or base.op != "decision" or decisions[base.payload].kind != LIST:
        return None
    return base.payload, node


def _list_root(nodes, decisions, node, slot: int):
    """The list decision and rule of a path or a one-term entry over a list,
    or None when ``node`` is neither."""
    if node.op == "sum":
        node = nodes[node.operands[0]]
        path = True
    elif node.op == "index" and node.shape == ():
        path = False
    else:
        return None
    if node.op != "index" or nodes[node.operands[0]].op != "const":
        return None
    table = nodes[node.operands[0]].payload
    reads = [_list_read(nodes, decisions, k) for k in node.operands[1:]]
    if table.ndim != len(reads) or None in reads or len({d for d, _ in reads}) != 1:
        return None
    did = reads[0][0]
    n = decisions[did].n
    if min(table.shape) < n:  # states past its end raise in the full evaluation
        return None
    if path:
        if [key.payload for _, key in reads] != [(0, n - 1), (1, n)]:
            return None
        if not (node.integral and np.array_equal(table, table.T)):
            return None
        if (n + 8) * float(np.abs(table).max()) >= _EXACT:
            return None
        return did, _PathRule(slot, table, n)
    positions = []
    for _, key in reads:
        pos = nodes[key.operands[1]] if key.op == "index" else None
        if pos is None or pos.op != "const" or pos.payload.ndim:
            return None
        positions.append(int(pos.payload))
    if not all(0 <= p < n for p in positions):
        return None
    return did, _EntryRule(slot, table, positions)


def _root(nodes, decisions, by_id: dict, nid: int, slot: int):
    """The delta rule of node ``nid``, or None when it is not a root.
    ``by_id`` maps a node id to its entry of the model's schedule."""
    node = nodes[nid]
    found = _list_root(nodes, decisions, node, slot)
    if found is not None:
        return found
    if node.op == "sum":
        body = node.operands[0]
    elif node.shape == () and node.op in ("index", *_TERM_OPS):
        body = nid
    else:
        return None
    if not node.integral:
        return None
    try:
        did, reads, inner = _summand(nodes, body)
        spec, shape = decisions[did], nodes[body].shape
        schedule = [by_id[k] for k in sorted(inner)]
        if spec.kind == SET:  # a set is read only whole: term e reads element e
            rule = _SetRule(slot, _terms(schedule, body, reads, [np.arange(spec.n)]))
        elif spec.kind == BINARY and len(shape) <= 1:
            pos = _read_positions(nodes, reads, shape[0] if shape else 1, spec.n)
            corners = _corners(schedule, body, reads, pos)
            rule = (_FlipSumRule(slot, *corners, spec.n) if node.op == "sum"
                    else _FlipTermRule(slot, *corners))
        else:
            raise _NotDelta(f"no delta rule for {spec.kind} reads")
    except _NotDelta:
        return None
    except IndexError:  # a constant too short for some elements or bits: let the
        return None     # states that reach past its end raise in the full evaluation
    return did, rule


class DeltaPlan:
    """Roots, their rules per decision, and the tail schedule above them."""

    def __init__(self, roots: list[int], rules: dict, tail: list):
        self.roots = roots  # node ids, in the order of Evaluation.sums
        self.rules = rules  # decision id -> rules of the roots reading it
        self.tail = tail
        # a flip calls the sum rules of its decision and the one-term rules that
        # read its bit; field_rules orders the fields of Evaluation.fields
        self.field_rules: list = []  # (decision id, _FlipSumRule)
        self.flip_sums: dict = {}  # decision id -> [(index in fields, _FlipSumRule)]
        self.flip_terms: dict = {}  # decision id -> {position: [_FlipTermRule]}
        for d, decision_rules in rules.items():
            for rule in decision_rules:
                if isinstance(rule, _FlipSumRule):
                    self.flip_sums.setdefault(d, []).append((len(self.field_rules), rule))
                    self.field_rules.append((d, rule))
                elif isinstance(rule, _FlipTermRule):
                    at = self.flip_terms.setdefault(d, {})
                    for p in {rule.a, rule.b}:
                        at.setdefault(p, []).append(rule)

    def update(self, prev_state, prev_eval, move) -> list:
        """The roots' values at ``prev_state`` after ``move``, from the move's
        tag: a flip adds a sum's field at its bit, subtracted where it was 1."""
        d, tag = move
        cached = prev_eval.sums
        rules = self.rules.get(d)
        if tag[0] == "noop" or not rules:
            return cached
        old = prev_state.values[d]
        sums = list(cached)
        if tag[0] == "flip":
            p = tag[1]
            sum_rules = self.flip_sums.get(d)
            if sum_rules:
                bit = old.item(p)
                for k, rule in sum_rules:
                    f = prev_eval.fields[k].item(p)
                    sums[rule.slot] = cached[rule.slot] - f if bit else cached[rule.slot] + f
            terms = self.flip_terms.get(d)
            rules = terms.get(p, ()) if terms else ()
        for rule in rules:
            sums[rule.slot] = rule.update(cached[rule.slot], old, tag)
        return sums

    def flips(self, prev_state, prev_eval, d: int, ps: list):
        """The roots' values at ``prev_state`` after the flip of each bit ``ps[i]``
        of decision ``d``, one at a time; None when a one-term root reads a
        drawn bit, whose flips :meth:`update` answers one by one.

        Each sum over ``d`` becomes an array over the flips, ``cached +
        sign * field[ps]`` with the sign -1.0 where the bit was 1: the same
        float operation as :meth:`update`'s ``cached - f``, because ``x - y``
        is ``x + (-y)``.  Every other root keeps its cached value.
        """
        cached = prev_eval.sums
        terms = self.flip_terms.get(d)
        if terms and not terms.keys().isdisjoint(ps):
            return None
        sum_rules = self.flip_sums.get(d)
        if not sum_rules:
            return cached
        ps = np.array(ps)
        sign = _FLIP_SIGNS[prev_state.values[d][ps]]
        sums = list(cached)
        for k, rule in sum_rules:
            sums[rule.slot] = cached[rule.slot] + sign * prev_eval.fields[k][ps]
        return sums

    def moved_fields(self, state, fields, move):
        """The fields after ``move`` from ``state``, whose fields are ``fields``:
        a flip derives those of its bit array's sums as new arrays, every other
        field is shared, and no array of ``fields`` is written."""
        d, tag = move
        sum_rules = self.flip_sums.get(d)
        if tag[0] != "flip" or not sum_rules:
            return fields
        p = tag[1]
        bit = state.values[d].item(p)
        moved = list(fields)
        for k, rule in sum_rules:
            moved[k] = rule.flipped(fields[k], p, bit)
        return moved


def compile_plan(nodes, decisions, schedule, tops) -> DeltaPlan | None:
    """Delta plan of the nodes below ``tops``, or None when one does not fit."""
    roots: list[int] = []
    rules: dict = {}
    tail_ids: set = set()
    seen: set = set()
    by_id = {entry[0]: entry for entry in schedule}
    stack = list(tops)
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        found = _root(nodes, decisions, by_id, nid, len(roots))
        if found is not None:
            roots.append(nid)
            rules.setdefault(found[0], []).append(found[1])
        elif nodes[nid].op in _TAIL_OPS and nodes[nid].shape == ():
            tail_ids.add(nid)
            stack.extend(nodes[nid].operands)
        else:
            constant = _constant_subtree(nodes, nid)
            if constant is None:
                return None
            tail_ids |= constant
            seen |= constant
    return DeltaPlan(roots, rules, [e for e in schedule if e[0] in tail_ids])


def _constant_subtree(nodes, nid: int) -> set | None:
    """The nodes of the subtree at ``nid``, such as a sum of constants, or None
    when one of them reads a decision."""
    found: set = set()
    stack = [nid]
    while stack:
        k = stack.pop()
        if k in found:
            continue
        if nodes[k].op in ("decision", "part"):
            return None
        found.add(k)
        stack.extend(nodes[k].operands)
    return found
