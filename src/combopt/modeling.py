"""Expression-graph models over structured decision variables.

A :class:`Model` is an append-only DAG of nodes: decision variables
(permutations, subsets, partitions, bit and integer arrays), constants,
arithmetic, gathers/slices, reductions, and comparisons.  Constraints are
comparison roots, and exactly one scalar node may be declared as the
minimization objective.  Any structurally valid :class:`~combopt.state.State`
can then be evaluated against the frozen DAG.

Expressions are built through :class:`ExprRef` operator overloading::

    m = Model()
    route = m.list(n)
    cost = m.constant(c)
    m.minimize(cost[route[:-1], route[1:]].sum() + cost[route[-1], route[0]])

Subset-valued expressions have a runtime-dependent length and are marked with
the dynamic-shape sentinel; reducing an empty one yields the identity (0).
A sum that comes to zero is +0.0, even when every term is -0.0, so a sum
updated by adding and subtracting terms gets the same bits (:mod:`combopt.delta`).
"""

from __future__ import annotations

import operator
from itertools import repeat
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, StateError, TypeErrorDomain
from .state import (
    BINARY,
    DISJOINT_BIT_SETS,
    DISJOINT_LISTS,
    INTEGER,
    LIST,
    SET,
    DecisionSpec,
    State,
    validate_state,
)


class _Dynamic:
    """Shape sentinel: rank-1 vector whose length is only known at evaluation."""

    def __repr__(self):
        return "DYNAMIC"


DYNAMIC = _Dynamic()

# The operators of arithmetic and comparison nodes, by node op.  :func:`run_schedule`
# applies them; :mod:`combopt.delta` takes from them which ops act elementwise.
ARITH_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
UNARY_OPS = {"neg": operator.neg, "abs": np.abs}


def _positive_part(x):
    """``max(0.0, x)`` for a float, elementwise for an array.  Both give 0.0
    for -0.0 and for NaN, where ``np.maximum(0.0, x)`` gives -0.0 and NaN."""
    return np.where(x > 0.0, x, 0.0) if type(x) is np.ndarray else max(0.0, x)


# a comparison's violation magnitude at its operand values, 0.0 where it holds:
# at floats, or elementwise at arrays of the values of several candidates
COMPARE_OPS = {
    "le": lambda a, b: _positive_part(a - b),
    "ge": lambda a, b: _positive_part(b - a),
    "eq": lambda a, b: abs(a - b),
}


@dataclass
class ExprNode:
    op: str
    operands: tuple[int, ...] = ()
    shape: object = ()          # tuple for static shapes, DYNAMIC for set-derived
    integral: bool = False      # True when every value is integer-valued
    payload: object = None      # constants, decision ids, slice bounds, part index


def order_key(feasible: bool, violation: float, objective: float, *digest: int) -> tuple:
    """The solution order: feasible first, then lower total violation, then
    lower objective, and the state digest last, which makes it total and
    reproducible.  Without the digest it is a :class:`Score`'s key."""
    return (0 if feasible else 1, violation, objective, *digest)


@dataclass
class Evaluation:
    """Result of evaluating a model at a state.

    ``violations`` holds each constraint's violation magnitude, 0.0 where it
    holds.  ``feasible``, ``total_violation`` and ``key`` are derived from them
    once.  ``key`` is the solution order (:func:`order_key`); a lower key is a
    better evaluation.  ``state_key`` is the state's digest.  The solver builds
    an evaluation only for a candidate it keeps or whose digest breaks a tie;
    it compares the others by their :class:`Score`.  ``sums`` and ``fields``
    hold the values of the model's delta roots and the flip fields of its sums
    at this state (:mod:`combopt.delta`), both made with the evaluation;
    ``fields`` is None for a model whose plan has no sum over a bit array."""

    objective: float
    violations: list[float]
    state_key: int = 0
    sums: list | None = field(default=None, compare=False, repr=False)
    fields: list | None = field(default=None, compare=False, repr=False)
    feasible: bool = field(init=False, compare=False, repr=False)
    total_violation: float = field(init=False, compare=False, repr=False)
    key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.feasible = not any(self.violations)  # -0.0 holds, NaN does not
        self.total_violation = float(sum(self.violations))
        self.key = order_key(self.feasible, self.total_violation, self.objective,
                             self.state_key)


@dataclass(slots=True, eq=False)
class Score:
    """The answer to ``move`` from ``state``, before the moved state is built.

    ``key`` is the first three entries of the moved state's
    :attr:`Evaluation.key`: infeasibility, total violation and objective.
    ``violations`` and ``sums`` are those of its evaluation, ``fields`` those
    of ``state``'s.  :meth:`build` makes the moved state and its evaluation,
    digest included and fields derived by ``plan``, at most once; the score
    of a model without a delta plan, which evaluates every move in full,
    holds both already.
    """

    key: tuple
    violations: list
    sums: list | None
    fields: list | None
    state: State
    move: tuple
    plan: "DeltaPlan | None" = None
    built: tuple | None = None

    def build(self) -> tuple[State, Evaluation]:
        """The moved state and its evaluation, equal bit for bit to the full
        evaluation of that state."""
        if self.built is None:
            moved = self.state.moved(self.move)
            fields = self.plan.moved_fields(self.state, self.fields, self.move)
            self.built = moved, Evaluation(self.key[2], self.violations, moved.digest(),
                                           self.sums, fields)
        return self.built


def _is_scalar(shape) -> bool:
    return shape == ()


class ExprRef:
    """Handle to a node of a model, supporting operator-based construction."""

    __slots__ = ("model", "node_id")

    def __init__(self, model: "Model", node_id: int):
        self.model = model
        self.node_id = node_id

    @property
    def node(self) -> ExprNode:
        return self.model.nodes[self.node_id]

    @property
    def shape(self):
        return self.node.shape

    def sum(self) -> "ExprRef":
        return self.model._build("sum", (self,))

    def __add__(self, other):
        return self.model._build("add", (self, other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.model._build("sub", (self, other))

    def __rsub__(self, other):
        return self.model._build("sub", (other, self))

    def __mul__(self, other):
        return self.model._build("mul", (self, other))

    __rmul__ = __mul__

    def __neg__(self):
        return self.model._build("neg", (self,))

    def __abs__(self):
        return self.model._build("abs", (self,))

    def __le__(self, other):
        return self.model._build("le", (self, other))

    def __ge__(self, other):
        return self.model._build("ge", (self, other))

    def __eq__(self, other):  # noqa: D105 - comparison builds a constraint node
        return self.model._build("eq", (self, other))

    def __hash__(self):
        return object.__hash__(self)

    def __getitem__(self, key):
        if isinstance(key, tuple):
            return self.model._index(self, list(key))
        return self.model._index(self, [key])

    def __repr__(self):
        n = self.node
        return f"ExprRef(#{self.node_id} {n.op} shape={n.shape})"


class _PartitionRef:
    """Handle to a partition decision; index it to obtain one part."""

    __slots__ = ("model", "decision_id")

    def __init__(self, model: "Model", decision_id: int):
        self.model = model
        self.decision_id = decision_id

    @property
    def n_parts(self) -> int:
        return self.model.decisions[self.decision_id].n_parts

    def __getitem__(self, k: int) -> ExprRef:
        spec = self.model.decisions[self.decision_id]
        if not 0 <= k < spec.n_parts:
            raise DomainError(f"part index {k} out of range 0..{spec.n_parts - 1}")
        return self.model._append(
            ExprNode("part", shape=DYNAMIC, integral=True, payload=(self.decision_id, k))
        )

    def __iter__(self):
        return (self[k] for k in range(self.n_parts))


class Model:
    """Append-only expression DAG with decisions, constraints, and an objective."""

    def __init__(self):
        self.nodes: list[ExprNode] = []
        self.decisions: list[DecisionSpec] = []
        self.constraints: list[int] = []
        self.objective: int | None = None
        self.tags: dict = {}
        self._frozen = False
        self._schedule: list[int] = []
        self._plan = None

    # -- decision constructors -------------------------------------------------

    def add_decision(self, spec: DecisionSpec):
        """Register a decision; returns its expression handle.

        Partition kinds return a :class:`_PartitionRef` whose parts are
        individual dynamic-length expressions.
        """
        self._mutable()
        self.decisions.append(spec)
        did = len(self.decisions) - 1
        if spec.is_partition:
            return _PartitionRef(self, did)
        shape = DYNAMIC if spec.kind == SET else (spec.n,)
        return self._append(ExprNode("decision", shape=shape, integral=True, payload=did))

    def list(self, n: int) -> ExprRef:
        """Permutation decision over ``0..n-1``."""
        return self.add_decision(DecisionSpec(LIST, n))

    def set(self, n: int) -> ExprRef:
        """Subset decision over ``0..n-1`` (any cardinality)."""
        return self.add_decision(DecisionSpec(SET, n))

    def binary(self, n: int) -> ExprRef:
        """Array of n bits."""
        return self.add_decision(DecisionSpec(BINARY, n))

    def integer(self, n: int, lo: int, hi: int) -> ExprRef:
        """Array of n integers in ``[lo, hi]``."""
        return self.add_decision(DecisionSpec(INTEGER, n, lo=lo, hi=hi))

    def disjoint_lists(self, n_vars: int, n_lists: int) -> _PartitionRef:
        """Partition of ``0..n_vars-1`` into ordered lists."""
        return self.add_decision(DecisionSpec(DISJOINT_LISTS, n_vars, n_parts=n_lists))

    def disjoint_bit_sets(self, n_vars: int, n_sets: int) -> _PartitionRef:
        """Partition of ``0..n_vars-1`` into unordered sets."""
        return self.add_decision(DecisionSpec(DISJOINT_BIT_SETS, n_vars, n_parts=n_sets))

    # -- node construction -----------------------------------------------------

    def constant(self, array) -> ExprRef:
        """Constant scalar, vector, or matrix of finite numbers."""
        self._mutable()
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"constants must have rank <= 2, got rank {arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("constants must be finite (no NaN/inf)")
        integral = bool(np.all(arr == np.trunc(arr)))
        return self._append(
            ExprNode("const", shape=arr.shape, integral=integral, payload=arr)
        )

    def _append(self, node: ExprNode) -> ExprRef:
        self._mutable()
        self.nodes.append(node)
        return ExprRef(self, len(self.nodes) - 1)

    def _coerce(self, value) -> ExprRef:
        if isinstance(value, ExprRef):
            if value.model is not self:
                raise DomainError("cannot mix expressions from different models")
            return value
        if isinstance(value, _PartitionRef):
            raise TypeErrorDomain("a partition decision cannot be used directly; index a part")
        return self.constant(value)

    def _build(self, op: str, operands: tuple) -> ExprRef:
        refs = [self._coerce(o) for o in operands]
        for r in refs:
            if r.node.op in COMPARE_OPS:
                raise TypeErrorDomain(f"comparison nodes cannot be operands of {op!r}")

        if op == "sum":
            (a,) = refs
            return self._append(
                ExprNode("sum", (a.node_id,), shape=(), integral=a.node.integral)
            )
        if op in UNARY_OPS:
            (a,) = refs
            return self._append(
                ExprNode(op, (a.node_id,), shape=a.node.shape, integral=a.node.integral)
            )
        if op in ARITH_OPS:
            a, b = refs
            shape = self._broadcast(a.node.shape, b.node.shape, op)
            return self._append(
                ExprNode(op, (a.node_id, b.node_id), shape=shape,
                         integral=a.node.integral and b.node.integral)
            )
        if op in COMPARE_OPS:
            a, b = refs
            if not (_is_scalar(a.node.shape) and _is_scalar(b.node.shape)):
                raise ShapeError(f"comparisons require scalar operands, got "
                                 f"{a.node.shape} {op} {b.node.shape}")
            return self._append(ExprNode(op, (a.node_id, b.node_id), shape=()))
        raise DomainError(f"unknown operation {op!r}")

    @staticmethod
    def _broadcast(sa, sb, op: str):
        if sa is DYNAMIC and sb is DYNAMIC:
            # Runtime lengths are checked at evaluation; equal lengths required.
            return DYNAMIC
        if sa is DYNAMIC or sb is DYNAMIC:
            other = sb if sa is DYNAMIC else sa
            if _is_scalar(other):
                return DYNAMIC
            raise ShapeError(f"cannot combine dynamic-length and static shape {other} in {op!r}")
        try:
            return np.broadcast_shapes(sa, sb)
        except ValueError:
            raise ShapeError(f"shapes {sa} and {sb} are incompatible in {op!r}") from None

    def _index(self, base: ExprRef, keys: list) -> ExprRef:
        """Gather / slice.  Integer keys and slices resolve against static shapes;
        expression keys gather elementwise (two keys index a matrix pointwise)."""
        node = base.node
        if node.op in COMPARE_OPS:
            raise TypeErrorDomain("comparison nodes cannot be indexed")
        if node.shape is DYNAMIC:
            raise ShapeError("dynamic-length expressions cannot be indexed")
        if not isinstance(node.shape, tuple) or len(node.shape) == 0:
            raise ShapeError(f"cannot index a node of shape {node.shape}")
        if len(keys) > len(node.shape):
            raise ShapeError(f"{len(keys)} indexers for rank-{len(node.shape)} expression")

        # A single basic key (int or slice) on a vector stays a cheap special case.
        if len(keys) == 1 and isinstance(keys[0], slice):
            sl = keys[0]
            if len(node.shape) != 1:
                raise ShapeError("slicing is only supported on vectors")
            if sl.step not in (None, 1):
                raise ShapeError("slicing with a step is not supported")
            start, stop, _ = sl.indices(node.shape[0])
            length = max(0, stop - start)
            return self._append(
                ExprNode("slice", (base.node_id,), shape=(length,),
                         integral=node.integral, payload=(start, stop))
            )

        idx_refs = []
        for key in keys:
            if isinstance(key, slice):
                raise ShapeError("mixed slice/gather indexing is not supported")
            if isinstance(key, (int, np.integer)):
                axis = len(idx_refs)
                n_axis = node.shape[axis]
                k = int(key)
                if k < 0:
                    k += n_axis
                if not 0 <= k < n_axis:
                    raise DomainError(f"index {key} out of range for axis of length {n_axis}")
                idx_refs.append(self.constant(k))
            else:
                ref = self._coerce(key)
                if not ref.node.integral:
                    raise ShapeError("indexers must be integer-valued expressions")
                if ref.node.shape is not DYNAMIC and len(ref.node.shape) > 1:
                    raise ShapeError("indexers must be scalars or vectors")
                idx_refs.append(ref)
        if len(idx_refs) != len(node.shape):
            raise ShapeError(f"rank-{len(node.shape)} expression needs {len(node.shape)} indexers")

        shape: object = ()
        for r in idx_refs:
            shape = self._broadcast(shape, r.node.shape, "index")
        return self._append(
            ExprNode("index", (base.node_id, *[r.node_id for r in idx_refs]),
                     shape=shape, integral=node.integral)
        )

    # -- constraints and objective ----------------------------------------------

    def add_constraint(self, expr: ExprRef) -> int:
        """Register a comparison node as a constraint; returns its index."""
        self._mutable()
        expr = self._coerce(expr)
        if expr.node.op not in COMPARE_OPS:
            raise TypeErrorDomain("constraints must be comparison expressions (<=, >=, ==)")
        self.constraints.append(expr.node_id)
        return len(self.constraints) - 1

    def minimize(self, expr: ExprRef) -> None:
        """Set the scalar objective; call at most once."""
        self._mutable()
        expr = self._coerce(expr)
        if self.objective is not None:
            raise StateError("objective already set; a model has at most one")
        if expr.node.op in COMPARE_OPS:
            raise TypeErrorDomain("the objective must be arithmetic, not a comparison")
        if not _is_scalar(expr.node.shape):
            raise ShapeError(f"the objective must be scalar, got shape {expr.node.shape}")
        self.objective = expr.node_id

    def _mutable(self):
        if self._frozen:
            raise StateError("model is frozen and can no longer be modified")

    # -- freezing and evaluation --------------------------------------------------

    def freeze(self) -> "Model":
        """Make the model immutable; precompute the evaluation schedule and delta plan."""
        if self._frozen:
            return self
        needed = set(self.constraints)
        if self.objective is not None:
            needed.add(self.objective)
        stack = list(needed)
        while stack:
            nid = stack.pop()
            for op in self.nodes[nid].operands:
                if op not in needed:
                    needed.add(op)
                    stack.append(op)
        # Compact (id, op, operands, payload, dynamic) tuples, in topological
        # order (operand ids are always smaller than the node id).
        self._schedule = [
            (nid, self.nodes[nid].op, self.nodes[nid].operands,
             self.nodes[nid].payload, self.nodes[nid].shape is DYNAMIC)
            for nid in sorted(needed)
        ]
        self._frozen = True
        if self.objective is not None:
            from .delta import compile_plan  # delta imports the operator tables from here

            self._plan = compile_plan(self.nodes, self.decisions, self._schedule,
                                      [self.objective, *self.constraints])
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def validate_state(self, state: State) -> list[str]:
        """Structural violations of ``state``; empty when valid."""
        return validate_state(self.decisions, state)

    def evaluate(self, state: State) -> Evaluation:
        """Evaluate objective and constraints at a structurally valid state."""
        problems = self.validate_state(state)
        if problems:
            raise StateError("; ".join(problems))
        return self.evaluate_unchecked(state)

    def evaluate_unchecked(self, state: State) -> Evaluation:
        """Evaluate without the structural pre-check.

        For hot loops whose moves provably map valid states to valid states;
        behaviour on invalid states is undefined.
        """
        if not self._frozen:
            self.freeze()
        if self.objective is None:
            raise StateError("model has no objective; nothing to evaluate")
        vals: list = [None] * len(self.nodes)
        run_schedule(self._schedule, vals, state)
        plan = self._plan
        sums = fields = None
        if plan is not None:
            sums = [vals[nid] for nid in plan.roots]
            if plan.field_rules:
                fields = [rule.field(state.values[d]) for d, rule in plan.field_rules]
        return Evaluation(float(vals[self.objective]), self._violations(vals),
                          state.digest(), sums, fields)

    def score_move(self, state: State, ev: Evaluation, move) -> Score:
        """The :class:`Score` of ``state`` after ``move``; its :meth:`Score.build`
        equals the full evaluation of the moved state bit for bit.

        ``ev`` is the evaluation of ``state`` and ``move`` a ``(decision,
        tag)`` pair (:func:`~combopt.solver.moves.draw_state_move`).  The delta
        plan (:mod:`combopt.delta`) evaluates again only the terms the move
        touches, from the tag, without the moved state.  A model without a
        plan, as one with a sum over float data, builds the moved state and
        evaluates it in full, and the score holds both.
        """
        plan = self._plan
        if plan is None:
            moved = state.moved(move)
            full = self.evaluate_unchecked(moved)
            return Score(full.key[:3], full.violations, full.sums, None, state, move,
                         built=(moved, full))
        sums = plan.update(state, ev, move)
        vals = self._tail(plan, sums)
        violations = self._violations(vals)
        key = order_key(not any(violations), float(sum(violations)), float(vals[self.objective]))
        return Score(key, violations, sums, ev.fields, state, move, plan)

    def score_moves(self, state: State, ev: Evaluation, moves: list):
        """The scores of several moves from ``state``, as :meth:`score_move`
        gives them: a list of their keys, and a function that makes the
        :class:`Score` of move ``i``.

        Flips of one bit array are scored together where the plan can
        (:meth:`combopt.delta.DeltaPlan.flips`): each sum over the array is
        ``cached ± field[ps]`` over the drawn positions ``ps``, and the tail and
        the comparisons run once over those arrays.  Every other batch, as one
        with a drawn bit that a one-term root such as ``x[2]`` reads, or one
        of a model without a plan, is scored move by move.
        """
        plan = self._plan
        d = moves[0][0]
        ps = [tag[1] for e, tag in moves if e == d and tag[0] == "flip"]
        sums = None
        if plan is not None and len(ps) == len(moves):
            sums = plan.flips(state, ev, d, ps)
        if sums is None:
            scores = [self.score_move(state, ev, move) for move in moves]
            return [score.key for score in scores], scores.__getitem__
        k = len(moves)
        vals = self._tail(plan, sums)
        objectives = _column(vals[self.objective], k)
        if self.constraints:
            rows = list(zip(*[_column(COMPARE_OPS[self.nodes[cid].op](*vals[cid]), k)
                              for cid in self.constraints]))
            keys = [order_key(not any(row), float(sum(row)), objective)
                    for row, objective in zip(rows, objectives)]
        else:  # every candidate is feasible
            rows = [()] * k
            infeasible, violation, _ = order_key(True, 0.0, None)
            keys = list(zip(repeat(infeasible, k), repeat(violation, k), objectives))

        def score(i: int) -> Score:
            return Score(keys[i], list(rows[i]),
                         [s.item(i) if type(s) is np.ndarray else s for s in sums],
                         ev.fields, state, moves[i], plan)

        return keys, score

    def _tail(self, plan, sums: list) -> list:
        """Node values with the plan's roots at ``sums`` and its tail run above them."""
        vals: list = [None] * len(self.nodes)
        for nid, value in zip(plan.roots, sums):
            vals[nid] = value
        run_schedule(plan.tail, vals, None)  # the tail reads no decision
        return vals

    def _violations(self, vals: list) -> list[float]:
        violations = []  # a loop: before Python 3.12 a comprehension is one more call
        for cid in self.constraints:
            a, b = vals[cid]
            violations.append(COMPARE_OPS[self.nodes[cid].op](float(a), float(b)))
        return violations


def _column(value, k: int) -> list:
    """The ``k`` floats of an array over candidates, or ``k`` copies of a value
    that no candidate changes."""
    if type(value) is np.ndarray and value.ndim:
        return value.tolist()
    return [float(value)] * k


def run_schedule(schedule, vals, state: State | None) -> None:
    """Evaluate the nodes of ``schedule`` in order into ``vals``, a list or a
    dict by node id that holds the operands outside ``schedule``; ``state``
    may be None when ``schedule`` reads no decision."""
    for nid, op, operands, payload, dynamic in schedule:
        if op == "const":
            vals[nid] = payload
        elif op == "decision":
            vals[nid] = state.values[payload]
        elif op == "part":
            vals[nid] = state.values[payload[0]][payload[1]]
        elif op == "slice":
            vals[nid] = vals[operands[0]][payload[0]:payload[1]]
        elif op == "index":
            base = vals[operands[0]]
            if len(operands) == 3:
                a = np.asarray(vals[operands[1]], dtype=np.int64)
                b = np.asarray(vals[operands[2]], dtype=np.int64)
                if dynamic:
                    _check_dyn(a, b)
                vals[nid] = base[a, b]
            else:
                vals[nid] = base[np.asarray(vals[operands[1]], dtype=np.int64)]
        elif op in ARITH_OPS:
            a, b = vals[operands[0]], vals[operands[1]]
            if dynamic:
                _check_dyn(a, b)
            vals[nid] = ARITH_OPS[op](a, b)
        elif op in UNARY_OPS:
            vals[nid] = UNARY_OPS[op](vals[operands[0]])
        elif op == "sum":
            vals[nid] = float(np.sum(vals[operands[0]])) + 0.0  # a zero is +0.0
        elif op in COMPARE_OPS:  # the caller takes the violation (floats or arrays)
            vals[nid] = (vals[operands[0]], vals[operands[1]])
        else:  # pragma: no cover - construction forbids unknown ops
            raise DomainError(f"unknown node op {op!r}")


def _check_dyn(a, b):
    if np.ndim(a) and np.ndim(b) and np.shape(a)[0] != np.shape(b)[0]:
        raise ShapeError(
            f"dynamic-length operands have different runtime lengths "
            f"{np.shape(a)[0]} and {np.shape(b)[0]}"
        )


def new_model() -> Model:
    """Fresh empty model."""
    return Model()
