import zlib

import numpy as np
import pytest

from combopt import (
    DecisionSpec,
    DomainError,
    Model,
    ShapeError,
    State,
    StateError,
    TypeErrorDomain,
    new_model,
)
from combopt.modeling import COMPARE_OPS
from combopt.state import (BINARY, DISJOINT_BIT_SETS, DISJOINT_LISTS, INTEGER, LIST, SET,
                           _as_index_array, validate_state)


def test_new_model_is_empty():
    m = new_model()
    assert len(m.nodes) == 0
    assert m.constraints == []
    assert m.objective is None


def test_freeze_without_objective_rejects_evaluate():
    m = Model()
    m.binary(2)
    m.freeze()
    with pytest.raises(StateError):
        m.evaluate(State([[0, 1]]))


def test_two_minimize_calls_error():
    m = Model()
    x = m.binary(2)
    m.minimize(x.sum())
    with pytest.raises(StateError):
        m.minimize(x.sum())


def test_decision_size_validation():
    with pytest.raises(DomainError):
        DecisionSpec("set", 0)
    with pytest.raises(DomainError):
        DecisionSpec("disjoint_lists", 5, n_parts=6)
    with pytest.raises(DomainError):
        DecisionSpec("integer", 3, lo=2, hi=1)
    m = Model()
    with pytest.raises(DomainError):
        m.set(0)
    with pytest.raises(DomainError):
        m.disjoint_lists(5, 6)


def test_constant_shapes_and_finiteness():
    m = Model()
    c = m.constant(np.arange(9).reshape(3, 3))
    assert c.shape == (3, 3)
    s = m.constant(11793)
    assert s.shape == ()
    with pytest.raises(DomainError):
        m.constant([1.0, np.nan])
    with pytest.raises(DomainError):
        m.constant([np.inf])
    with pytest.raises(ShapeError):
        m.constant(np.zeros((2, 2, 2)))


def test_gather_semantics():
    m = Model()
    c = m.constant([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    route = m.list(3)
    gathered = c[route[:-1], route[1:]]
    assert gathered.shape == (2,)
    m.minimize(gathered.sum())
    ev = m.evaluate(State([[0, 1, 2]]))
    assert ev.objective == 1 + 5


def test_sum_over_empty_set_gather_is_zero():
    m = Model()
    v = m.constant([5.0, 6.0, 7.0])
    items = m.set(3)
    m.minimize(v[items].sum())
    assert m.evaluate(State([[]])).objective == 0.0
    assert m.evaluate(State([[0, 1, 2]])).objective == 18.0


def test_constraint_node_type_checks():
    m = Model()
    w = m.constant([2.0, 3.0])
    items = m.set(2)
    cap = m.constant(4.0)
    check = w[items].sum() <= cap
    cid = m.add_constraint(check)
    assert cid == 0
    with pytest.raises(TypeErrorDomain):
        m.add_constraint(w[items].sum())
    # duplicates are allowed and counted twice
    assert m.add_constraint(check) == 1
    assert len(m.constraints) == 2


def test_comparison_nodes_are_terminal():
    m = Model()
    x = m.binary(2)
    c = x.sum() <= m.constant(1)
    with pytest.raises(TypeErrorDomain):
        _ = c + 1
    with pytest.raises(TypeErrorDomain):
        m.minimize(c)


def test_minimize_requires_scalar():
    m = Model()
    x = m.binary(3)
    with pytest.raises(ShapeError):
        m.minimize(x)


def test_vector_comparison_rejected():
    m = Model()
    x = m.binary(3)
    y = m.constant([1.0, 1.0, 1.0])
    with pytest.raises(ShapeError):
        _ = x <= y


def test_shape_mismatch_in_arithmetic():
    m = Model()
    a = m.constant([1.0, 2.0])
    b = m.constant([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        _ = a + b


def test_static_vector_with_dynamic_rejected():
    m = Model()
    items = m.set(3)
    w = m.constant([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        _ = w * w[items]


def test_dynamic_dynamic_equal_lengths_ok():
    m = Model()
    w = m.constant([1.0, 2.0, 3.0])
    v = m.constant([10.0, 20.0, 30.0])
    items = m.set(3)
    m.minimize((w[items] * v[items]).sum())
    assert m.evaluate(State([[0, 2]])).objective == 1 * 10 + 3 * 30


def test_dynamic_dynamic_unequal_runtime_lengths_raise():
    m = Model()
    w = m.constant([1.0, 2.0, 3.0])
    items = m.set(3)
    other = m.set(3)
    m.minimize((w[items] + w[other]).sum())
    with pytest.raises(ShapeError):
        m.evaluate(State([[0, 1], [2]]))


def test_indexing_non_array_rejected():
    m = Model()
    s = m.constant(3.0)
    with pytest.raises(ShapeError):
        _ = s[0]


def test_evaluate_rejects_invalid_state():
    m = Model()
    route = m.list(3)
    c = m.constant(np.ones((3, 3)))
    m.minimize(c[route[:-1], route[1:]].sum())
    with pytest.raises(StateError, match="duplicate index 0"):
        m.evaluate(State([[0, 0, 2]]))


def test_validate_state_messages():
    m = Model()
    m.list(3)
    assert m.validate_state(State([[2, 0, 1]])) == []
    assert any("duplicate index 0" in v for v in m.validate_state(State([[0, 0, 2]])))

    m2 = Model()
    m2.disjoint_lists(5, 2)
    assert m2.validate_state(State([[[0, 1], [2, 3, 4]]])) == []
    errs = m2.validate_state(State([[[0, 1], [2, 3]]]))
    assert any("not exhaustive" in v for v in errs)

    m3 = Model()
    m3.disjoint_bit_sets(4, 2)
    assert m3.validate_state(State([[[0, 1], [2, 3]]])) == []
    assert m3.validate_state(State([[[1, 0], [2, 3]]])) == [
        "decision 0: bit-set part 0 elements must be strictly increasing (unique)"]
    m4 = Model()
    m4.set(4)
    assert m4.validate_state(State([[1, 0]])) == [
        "decision 0: set elements must be strictly increasing (unique)"]

    # a flat decision given a partition-shaped value, even or ragged
    m5 = Model()
    m5.list(4)
    m5.set(4)
    for value, k in [([[0, 1], [2, 3]], 2), ([[0, 1], [2]], 2), ([[0, 1, 2, 3]], 1)]:
        assert m5.validate_state(State([value, value])) == [
            f"decision 0: list value must be one array, not a list of {k} parts",
            f"decision 1: set value must be one array, not a list of {k} parts"]


@pytest.mark.parametrize("family", ["kp", "tsp"])
def test_evaluate_rejects_a_partition_shaped_value(data_dir, family):
    from combopt.problems import build_kp_model, build_tsp_model, parse_kplib, parse_tsplib

    if family == "kp":
        model = build_kp_model(parse_kplib((data_dir / "kp50.kp").read_text(), "kp50"))
        value = [[0, 1], [2, 3]]
    else:
        model = build_tsp_model(parse_tsplib((data_dir / "tsp7.tsp").read_text(), "tsp7"))
        value = [[0, 1, 2], [3, 4, 5, 6]]
    with pytest.raises(StateError, match="value must be one array, not a list of 2 parts"):
        model.evaluate(State([value]))


# The numpy validator that the Python-int one in ``combopt.state`` replaced,
# kept verbatim as the reference for its messages.

def reference_validate_value(spec: DecisionSpec, value) -> list[str]:
    """Structural violations of one decision's value; empty list when valid."""
    out: list[str] = []
    if spec.is_partition:
        if not isinstance(value, list):
            return [f"{spec.kind} value must be a list of {spec.n_parts} parts"]
        if len(value) != spec.n_parts:
            return [f"expected {spec.n_parts} parts, got {len(value)}"]
        seen = np.concatenate([np.asarray(p, dtype=np.int64).reshape(-1) for p in value]) \
            if any(len(p) for p in value) else np.empty(0, dtype=np.int64)
        if seen.size != spec.n:
            out.append(f"partition not exhaustive: covers {seen.size} of {spec.n} elements")
        if seen.size:
            if seen.min() < 0 or seen.max() >= spec.n:
                out.append(f"partition element out of range 0..{spec.n - 1}")
            elif np.unique(seen).size != seen.size:
                counts = np.bincount(seen, minlength=spec.n)
                dup = int(np.argmax(counts > 1))
                out.append(f"partition parts not disjoint: element {dup} repeated")
        if spec.kind == DISJOINT_BIT_SETS:
            out.extend(f"bit-set part {k} elements must be strictly increasing (unique)"
                       for k, p in enumerate(value) if (np.diff(_as_index_array(p)) <= 0).any())
        return out

    arr = np.asarray(value, dtype=np.int64).reshape(-1)
    if arr.size != spec.n:
        return [f"{spec.kind} value has length {arr.size}, expected {spec.n}"]
    if spec.kind == LIST:
        counts = np.bincount(arr, minlength=spec.n) if arr.size and arr.min() >= 0 and arr.max() < spec.n else None
        if counts is None:
            out.append(f"index out of range 0..{spec.n - 1}")
        elif (counts != 1).any():
            dup = int(np.argmax(counts > 1))
            out.append(f"duplicate index {dup}: not a permutation")
    elif spec.kind == BINARY:
        if ((arr != 0) & (arr != 1)).any():
            out.append("binary value outside {0, 1}")
    elif spec.kind == INTEGER:
        if (arr < spec.lo).any() or (arr > spec.hi).any():
            out.append(f"integer value outside [{spec.lo}, {spec.hi}]")
    return out


def reference_validate_set_value(spec: DecisionSpec, value) -> list[str]:
    """Set values have their own arity: any cardinality 0..n is allowed."""
    arr = np.asarray(value, dtype=np.int64).reshape(-1)
    out: list[str] = []
    if arr.size:
        if arr.min() < 0 or arr.max() >= spec.n:
            out.append(f"set element out of range 0..{spec.n - 1}")
        elif (np.diff(arr) <= 0).any():
            out.append("set elements must be strictly increasing (unique)")
    if arr.size > spec.n:
        out.append(f"set has {arr.size} elements, more than n={spec.n}")
    return out


def reference_validate_state(specs: list[DecisionSpec], state: State) -> list[str]:
    """All structural violations of ``state`` against ``specs``."""
    if len(state.values) != len(specs):
        return [f"state has {len(state.values)} assignments, model has {len(specs)} decisions"]
    out: list[str] = []
    for i, (spec, value) in enumerate(zip(specs, state.values)):
        errs = reference_validate_set_value(spec, value) if spec.kind == SET else reference_validate_value(spec, value)
        out.extend(f"decision {i}: {e}" for e in errs)
    return out


LIST4, SET4, BIN3 = DecisionSpec(LIST, 4), DecisionSpec(SET, 4), DecisionSpec(BINARY, 3)
LISTS5, BITS5 = DecisionSpec(DISJOINT_LISTS, 5, 2), DecisionSpec(DISJOINT_BIT_SETS, 5, 2)
INT3 = DecisionSpec(INTEGER, 3, lo=-2, hi=4)
VALIDATE_CASES = {
    "list": (LIST4, [3, 0, 2, 1]),
    "list duplicate": (LIST4, [3, 0, 3, 1]),
    "list two duplicates": (LIST4, [2, 1, 2, 1]),
    "list out of range": (LIST4, [0, 1, 2, 4]),
    "list negative": (LIST4, [0, -1, 2, 3]),
    "list short": (LIST4, [0, 1, 2]),
    "list long": (LIST4, [0, 1, 2, 3, 0]),
    "list of one": (DecisionSpec(LIST, 1), [0]),
    "list empty": (DecisionSpec(LIST, 1), []),
    "set": (SET4, [0, 2, 3]),
    "set empty": (SET4, []),
    "set full": (SET4, [0, 1, 2, 3]),
    "set unsorted": (SET4, [2, 0]),
    "set repeated": (SET4, [1, 1]),
    "set out of range": (SET4, [1, 4]),
    "set negative": (SET4, [-1, 2]),
    "set larger than n": (SET4, [0, 1, 2, 3, 3]),
    "set larger and out of range": (SET4, [0, 1, 2, 3, 4]),
    "binary": (BIN3, [1, 0, 1]),
    "binary outside": (BIN3, [1, 2, 0]),
    "binary negative": (BIN3, [0, -1, 0]),
    "binary short": (BIN3, [1, 0]),
    "integer": (INT3, [-2, 0, 4]),
    "integer below": (INT3, [-3, 0, 0]),
    "integer above": (INT3, [0, 0, 5]),
    "integer long": (INT3, [0, 0, 0, 0]),
    "lists": (LISTS5, [[4, 0], [2, 3, 1]]),
    "lists empty part": (LISTS5, [[], [4, 0, 2, 3, 1]]),
    "lists overlapping": (LISTS5, [[4, 0, 2], [2, 3, 1]]),
    "lists missing": (LISTS5, [[4, 0], [3, 1]]),
    "lists all empty": (LISTS5, [[], []]),
    "lists out of range": (LISTS5, [[4, 0], [2, 3, 5]]),
    "lists negative": (LISTS5, [[4, 0], [2, -1, 1]]),
    "lists overlapping and missing": (LISTS5, [[1, 1], [2, 3]]),
    "lists wrong part count": (LISTS5, [[0, 1], [2], [3, 4]]),
    "lists flat value": (LISTS5, [0, 1, 2, 3, 4]),
    "bit sets": (BITS5, [[0, 4], [1, 2, 3]]),
    "bit sets unsorted part": (BITS5, [[4, 0], [1, 3, 2]]),
    "bit sets repeated in a part": (BITS5, [[0, 0, 4], [1, 2, 3]]),
    "bit sets out of range": (BITS5, [[0, 5], [1, 2, 3]]),
    "bit sets wrong part count": (BITS5, [[0, 1, 2, 3, 4]]),
    "bit sets flat value": (BITS5, [0, 1, 2, 3, 4]),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_state_matches_numpy_reference(case):
    spec, value = VALIDATE_CASES[case]
    state = State([value])
    assert validate_state([spec], state) == reference_validate_state([spec], state)
    valid = case in ("list", "list of one", "set", "set empty", "set full", "binary", "integer",
                     "lists", "lists empty part", "bit sets")
    assert (validate_state([spec], state) == []) == valid


def test_validate_state_matches_numpy_reference_on_a_walk():
    """Criterion 4's six-decision model: random states and the states of a
    walk, each also with one entry broken."""
    from combopt.solver import initial_state, propose_state

    m = Model()
    m.list(12)
    m.set(10)
    m.binary(8)
    m.disjoint_lists(9, 3)
    m.disjoint_bit_sets(8, 2)
    m.integer(5, lo=-2, hi=4)
    rng = np.random.default_rng(5)
    state = initial_state(m, rng)
    broken = 0
    for step in range(600):
        state = initial_state(m, rng) if step % 3 == 0 else propose_state(m, state, rng)[0]
        assert validate_state(m.decisions, state) == reference_validate_state(m.decisions, state) == []
        values = [[p.copy() for p in v] if isinstance(v, list) else v.copy()
                  for v in state.values]
        d = int(rng.integers(len(values)))
        target = values[d][int(rng.integers(len(values[d])))] if isinstance(values[d], list) \
            else values[d]
        if target.size:
            target[int(rng.integers(target.size))] += int(rng.integers(-3, 4))
        bad = State(values)
        assert validate_state(m.decisions, bad) == reference_validate_state(m.decisions, bad)
        broken += bool(validate_state(m.decisions, bad))
    assert broken > 200


def reference_digest(state):
    """``State.digest`` over ``tobytes()`` copies, the reference for the
    digest that reads each array's buffer in place."""
    crc = 0
    for v in state.values:
        for p in v if isinstance(v, list) else [v]:
            crc = zlib.crc32(p.tobytes(), crc)
        crc = zlib.crc32(b"|", crc)
    return crc


def test_digest_matches_tobytes_reference():
    rng = np.random.default_rng(8)
    perm = rng.permutation(12)
    states = [
        State([perm]),
        State([rng.integers(0, 2, 200)]),
        State([np.flatnonzero(rng.random(30) < 0.5)]),
        State([[]]),
        State([perm, rng.integers(0, 2, 5), [1, 4, 7]]),
        State([[np.array([3, 0]), np.array([2, 1, 4])]]),
        State([[perm[1::3], perm[::3]]]),  # strided parts
        State([perm[::-2]]),
    ]
    for state in states:
        for v in state.values:
            assert all(p.flags.c_contiguous for p in (v if isinstance(v, list) else [v]))
        assert state.digest() == reference_digest(state)
    assert len({state.digest() for state in states}) == len(states)


def test_a_state_keeps_its_own_read_only_arrays():
    """The constructor copies what it is given, so a caller that writes its
    own array afterwards leaves the state as it was, and no one can write a
    state's arrays, those a move makes included."""
    a = np.arange(3)
    parts = [np.array([0, 2]), np.array([1])]
    s = State([a, parts])
    a[0] = 5
    parts[0][0] = 7
    assert s.values[0].tolist() == [0, 1, 2]
    assert s.values[1][0].tolist() == [0, 2]
    t = s.moved((0, ("swap", 0, 1))).moved((1, ("p2opt", 0, 0, 1)))
    assert t.values[0].tolist() == [1, 0, 2] and t.values[1][0].tolist() == [2, 0]
    for v in (*s.values[:1], *s.values[1], *t.values[:1], *t.values[1]):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 9


def test_model_frozen_after_freeze():
    m = Model()
    x = m.binary(1)
    m.minimize(x.sum())
    m.freeze()
    with pytest.raises(StateError):
        m.binary(2)
    with pytest.raises(StateError):
        m.constant(1.0)


def test_evaluation_is_pure():
    rng = np.random.default_rng(5)
    m = Model()
    route = m.list(6)
    c = m.constant(rng.integers(1, 50, (6, 6)))
    m.minimize(c[route[:-1], route[1:]].sum() + c[route[-1], route[0]])
    s = State([rng.permutation(6)])
    e1, e2 = m.evaluate(s), m.evaluate(s)
    assert e1.objective == e2.objective
    assert e1.state_key == e2.state_key


def test_tsp3_unit_costs_every_tour_is_3():
    m = Model()
    route = m.list(3)
    c = m.constant(np.ones((3, 3)) - np.eye(3))
    m.minimize(c[route[:-1], route[1:]].sum() + c[route[-1], route[0]])
    from itertools import permutations

    for p in permutations(range(3)):
        assert m.evaluate(State([list(p)])).objective == 3.0


def test_kp_empty_set_feasible_zero_objective():
    m = Model()
    items = m.set(4)
    w = m.constant([3.0, 1.0, 4.0, 1.0])
    v = m.constant([5.0, 9.0, 2.0, 6.0])
    cap = m.constant(5.0)
    m.add_constraint(w[items].sum() <= cap)
    m.minimize(-(v[items].sum()))
    ev = m.evaluate(State([[]]))
    assert ev.feasible and ev.objective == 0.0


def test_violation_magnitudes():
    m = Model()
    items = m.set(2)
    w = m.constant([3.0, 4.0])
    m.add_constraint(w[items].sum() <= m.constant(5.0))
    m.add_constraint(w[items].sum() >= m.constant(1.0))
    m.add_constraint(w[items].sum() == m.constant(3.0))
    m.minimize(w[items].sum())
    ev = m.evaluate(State([[0, 1]]))  # weight 7
    assert ev.violations == [2.0, 0.0, 4.0]
    assert not ev.feasible
    ev = m.evaluate(State([[0]]))  # weight 3
    assert ev.violations == [0.0, 0.0, 0.0]
    assert ev.feasible


# --- derived-value oracles ---------------------------------------------------


def tour_cost_direct(c, perm):
    """Literal cycle-cost summation, independent of the DAG."""
    total = 0.0
    for i in range(len(perm) - 1):
        total += c[perm[i], perm[i + 1]]
    total += c[perm[-1], perm[0]]
    return total


def test_random_tsp_objective_matches_direct_summation():
    rng = np.random.default_rng(123)
    c = rng.integers(1, 100, (6, 6)).astype(float)
    np.fill_diagonal(c, 0.0)
    m = Model()
    route = m.list(6)
    cc = m.constant(c)
    m.minimize(cc[route[:-1], route[1:]].sum() + cc[route[-1], route[0]])
    for _ in range(200):
        perm = rng.permutation(6)
        assert m.evaluate(State([perm])).objective == pytest.approx(
            tour_cost_direct(c, perm), abs=1e-9
        )


def test_negation_duality_exact_for_integers():
    rng = np.random.default_rng(7)
    v = rng.integers(0, 500, 12).astype(float)
    m = Model()
    items = m.set(12)
    vv = m.constant(v)
    m.minimize(-(vv[items].sum()))
    for _ in range(100):
        mask = rng.random(12) < 0.5
        subset = np.flatnonzero(mask)
        direct = float(v[subset].sum())
        assert m.evaluate(State([subset])).objective == -direct


def test_full_set_equals_plain_sum():
    v = np.array([2.0, 4.0, 8.0])
    m = Model()
    items = m.set(3)
    m.minimize(m.constant(v)[items].sum())
    assert m.evaluate(State([[0, 1, 2]])).objective == v.sum()


def test_integer_decision_round_trip():
    m = Model()
    x = m.integer(3, lo=-2, hi=4)
    m.minimize(x.sum())
    assert m.evaluate(State([[-2, 0, 4]])).objective == 2.0
    assert m.validate_state(State([[-3, 0, 0]]))  # lo violated
    assert m.validate_state(State([[0, 0, 5]]))  # hi violated


def test_partition_parts_in_expressions():
    m = Model()
    parts = m.disjoint_lists(5, 2)
    w = m.constant([1.0, 2.0, 4.0, 8.0, 16.0])
    m.minimize(w[parts[0]].sum() - w[parts[1]].sum())
    ev = m.evaluate(State([[[0, 4], [1, 2, 3]]]))
    assert ev.objective == (1 + 16) - (2 + 4 + 8)


def test_permutation_histogram_property():
    # every structurally valid list state visits each index exactly once
    rng = np.random.default_rng(11)
    m = Model()
    m.list(8)
    for _ in range(100):
        perm = rng.permutation(8)
        assert m.validate_state(State([perm])) == []
        assert np.bincount(perm, minlength=8).tolist() == [1] * 8


@pytest.mark.parametrize("op", ["le", "ge", "eq"])
def test_compare_ops_give_the_same_bytes_at_floats_and_arrays(op):
    """A tabu step takes the violations of all its candidates as arrays; each
    must equal the violation at floats byte for byte, also where ``max``
    and ``np.maximum`` differ (-0.0, NaN)."""
    values = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1.5, -2.25, 3.0, 1e308]
    a, b = (np.array(column) for column in zip(*[(x, y) for x in values for y in values]))
    with np.errstate(invalid="ignore"):  # inf - inf
        at_arrays = COMPARE_OPS[op](a, b)
    assert type(at_arrays) is np.ndarray and at_arrays.dtype == np.float64
    at_floats = [COMPARE_OPS[op](x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert all(type(v) is float for v in at_floats)
    assert at_arrays.tobytes() == np.array(at_floats).tobytes()
