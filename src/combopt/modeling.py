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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .delta import compile_plan
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

_COMPARISONS = ("le", "ge", "eq")


@dataclass
class ExprNode:
    op: str
    operands: tuple[int, ...] = ()
    shape: object = ()          # tuple for static shapes, DYNAMIC for set-derived
    integral: bool = False      # True when every value is integer-valued
    payload: object = None      # constants, decision ids, slice bounds, part index


@dataclass
class Evaluation:
    """Result of evaluating a model at a state.

    ``feasible``, ``total_violation`` and ``key``, the order of
    :mod:`combopt.solver.compare`, are derived once: the solver compares
    every candidate it evaluates."""

    objective: float
    constraint_results: list[bool]
    violations: list[float]
    state_key: int = 0
    # values of the frozen model's delta roots at this state, when it has a plan
    sums: list | None = field(default=None, compare=False, repr=False)
    feasible: bool = field(init=False, compare=False, repr=False)
    total_violation: float = field(init=False, compare=False, repr=False)
    key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.feasible = all(self.constraint_results)
        self.total_violation = float(sum(self.violations))
        self.key = (0 if self.feasible else 1, self.total_violation, self.objective,
                    self.state_key)


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
            if r.node.op in _COMPARISONS:
                raise TypeErrorDomain(f"comparison nodes cannot be operands of {op!r}")

        if op == "sum":
            (a,) = refs
            return self._append(
                ExprNode("sum", (a.node_id,), shape=(), integral=a.node.integral)
            )
        if op in ("neg", "abs"):
            (a,) = refs
            return self._append(
                ExprNode(op, (a.node_id,), shape=a.node.shape, integral=a.node.integral)
            )
        if op in ("add", "sub", "mul"):
            a, b = refs
            shape = self._broadcast(a.node.shape, b.node.shape, op)
            return self._append(
                ExprNode(op, (a.node_id, b.node_id), shape=shape,
                         integral=a.node.integral and b.node.integral)
            )
        if op in _COMPARISONS:
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
        if node.op in _COMPARISONS:
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
        if expr.node.op not in _COMPARISONS:
            raise TypeErrorDomain("constraints must be comparison expressions (<=, >=, ==)")
        self.constraints.append(expr.node_id)
        return len(self.constraints) - 1

    def minimize(self, expr: ExprRef) -> None:
        """Set the scalar objective; call at most once."""
        self._mutable()
        expr = self._coerce(expr)
        if self.objective is not None:
            raise StateError("objective already set; a model has at most one")
        if expr.node.op in _COMPARISONS:
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
        self._plan = self._compile_plan()
        return self

    def _compile_plan(self):
        if not self._frozen or self.objective is None:
            return None
        return compile_plan(self.nodes, self.decisions, self._schedule,
                            [self.objective, *self.constraints])

    def __getstate__(self):
        # the delta plan is made of closures, which do not pickle; it is
        # compiled again from the nodes when the model is unpickled
        return {**self.__dict__, "_plan": None}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._plan = self._compile_plan()

    @property
    def frozen(self) -> bool:
        return self._frozen

    def validate_state(self, state: State) -> list[str]:
        """Structural violations of ``state``; empty when valid."""
        return validate_state(self.decisions, state)

    def evaluate(self, state: State) -> Evaluation:
        """Evaluate objective and constraints at a structurally valid state."""
        if not self._frozen:
            self.freeze()
        if self.objective is None:
            raise StateError("model has no objective; nothing to evaluate")
        problems = self.validate_state(state)
        if problems:
            raise StateError("; ".join(problems))
        return self.evaluate_unchecked(state)

    def evaluate_unchecked(self, state: State, base=None) -> Evaluation:
        """Evaluate without the structural pre-check.

        For hot loops whose moves provably map valid states to valid states;
        behaviour on invalid states is undefined.

        ``base = (prev_state, prev_eval, move)`` says that ``state`` is
        ``prev_state`` after ``move``, the ``(decision, tag)`` pair that
        ``propose_state`` returns.  When the model has a delta plan
        (:mod:`combopt.delta`), only the terms the move touches are evaluated
        again; the result equals the full evaluation bit for bit.
        """
        if not self._frozen:
            self.freeze()
        if self.objective is None:
            raise StateError("model has no objective; nothing to evaluate")
        vals: list = [None] * len(self.nodes)
        plan = self._plan
        sums = None if base is None or plan is None else plan.update(state, *base)
        if sums is None:
            self._run(self._schedule, vals, state)
            if plan is not None:
                sums = [vals[nid] for nid in plan.roots]
        else:
            for nid, value in zip(plan.roots, sums):
                vals[nid] = value
            self._run(plan.tail, vals, state)

        objective = float(vals[self.objective])
        results: list[bool] = []
        violations: list[float] = []
        for cid in self.constraints:
            a, b = vals[cid]
            op = self.nodes[cid].op
            if op == "le":
                v = max(0.0, a - b)
            elif op == "ge":
                v = max(0.0, b - a)
            else:
                v = abs(a - b)
            violations.append(v)
            results.append(v == 0.0)
        return Evaluation(objective, results, violations, state_key=state.digest(), sums=sums)

    def _run(self, schedule, vals: list, state: State) -> None:
        """Evaluate the nodes of ``schedule`` in order, into ``vals``."""
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
                        self._check_dyn(a, b)
                    vals[nid] = base[a, b]
                else:
                    vals[nid] = base[np.asarray(vals[operands[1]], dtype=np.int64)]
            elif op == "add":
                a, b = vals[operands[0]], vals[operands[1]]
                if dynamic:
                    self._check_dyn(a, b)
                vals[nid] = a + b
            elif op == "sub":
                a, b = vals[operands[0]], vals[operands[1]]
                if dynamic:
                    self._check_dyn(a, b)
                vals[nid] = a - b
            elif op == "mul":
                a, b = vals[operands[0]], vals[operands[1]]
                if dynamic:
                    self._check_dyn(a, b)
                vals[nid] = a * b
            elif op == "neg":
                vals[nid] = -vals[operands[0]]
            elif op == "abs":
                vals[nid] = np.abs(vals[operands[0]])
            elif op == "sum":
                vals[nid] = float(np.sum(vals[operands[0]]))
            elif op in _COMPARISONS:
                vals[nid] = (float(vals[operands[0]]), float(vals[operands[1]]))
            else:  # pragma: no cover - construction forbids unknown ops
                raise DomainError(f"unknown node op {op!r}")

    @staticmethod
    def _check_dyn(a, b):
        if np.ndim(a) and np.ndim(b) and np.shape(a)[0] != np.shape(b)[0]:
            raise ShapeError(
                f"dynamic-length operands have different runtime lengths "
                f"{np.shape(a)[0]} and {np.shape(b)[0]}"
            )


def new_model() -> Model:
    """Fresh empty model."""
    return Model()
