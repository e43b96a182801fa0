import functools
import gc
import itertools
import json
import multiprocessing
import operator
import os
import pickle
import struct
import threading
import time

import numpy as np
import pytest

from combopt import Model, State, StateError, delta, forking
from combopt.modeling import Evaluation
from combopt.problems import (
    KpInstance,
    TspInstance,
    build_kp_model,
    build_mcp_model,
    build_tsp_model,
    exact_kp,
    exact_tsp,
    generate_random_maxcut,
    parse_kplib,
    parse_maxcut,
    parse_tsplib,
)
from combopt.qubo import mcp_to_qubo, tsp_to_qubo
from combopt.solver import (
    SampleSet,
    SolverConfig,
    apply_move,
    draw_move,
    draw_state_move,
    draw_state_moves,
    initial_state,
    make_sample,
    propose_state,
    qm_query,
    reverse_move,
    solve,
)
from combopt.solver import branch
from combopt.solver.branch import Branch
from combopt.solver.moves import (BLOCK_UNIFORMS, _two_distinct, block_pool, draw_block,
                                  set_complement, tabu_key)
from combopt.state import DecisionSpec, move_arrays, validate_state, validate_value
from conftest import needs_fork


def random_tsp(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.integers(1, 100, (n, n)).astype(float)
    c = np.triu(c, 1)
    return TspInstance("t", n, c + c.T)


def random_kp(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 50, n)
    v = rng.integers(0, 100, n)
    return KpInstance("k", n, v, w, int(max(1, w.sum() // 2)))


# --- order -----------------------------------------------------------------------


def ev(objective, violations=(), key=0):
    return Evaluation(objective, list(violations), state_key=key)


def test_feasible_beats_infeasible():
    assert ev(10.0).key < ev(1.0, violations=[2.0]).key


def test_less_violation_wins_among_infeasible():
    assert ev(50.0, violations=[1.0]).key < ev(1.0, violations=[3.0]).key


def test_objective_breaks_feasible_ties():
    assert ev(1.0).key < ev(2.0).key


def test_hash_gives_total_order():
    a, b = ev(1.0, key=3), ev(1.0, key=7)
    assert a.key < b.key
    assert b.key > a.key
    assert a.key == ev(1.0, key=3).key
    assert sorted([b, a], key=lambda e: e.key) == [a, b]


def test_sample_order_is_the_evaluation_order():
    for bits, objective, violations in [([1, 0, 1], 1.0, ()), ([0, 1, 1], 50.0, [1.0]),
                                        ([1, 1, 0], 2.0, [0.0, 3.0])]:
        state = State([bits])
        e = Evaluation(objective, list(violations), state_key=state.digest())
        assert make_sample(state, e, 0, 0, "cm", 0.0).sort_key() == e.key


# --- initial states and moves ------------------------------------------------------


def test_initial_state_shapes():
    m = Model()
    m.list(1)
    m.binary(1)
    m.set(4)
    m.disjoint_lists(6, 2)
    m.integer(3, lo=-1, hi=2)
    rng = np.random.default_rng(0)
    s = initial_state(m, rng)
    assert m.validate_state(s) == []
    assert s.values[0].tolist() == [0]
    assert s.values[1].tolist()[0] in (0, 1)


def test_initial_permutations_uniform():
    # chi-square sanity over the 24 permutations of 4 elements
    from itertools import permutations

    rng = np.random.default_rng(42)
    spec = DecisionSpec("list", 4)
    from combopt.solver.moves import initial_value

    counts = {p: 0 for p in permutations(range(4))}
    draws = 100_000
    for _ in range(draws):
        counts[tuple(initial_value(spec, rng).tolist())] += 1
    expected = draws / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # df=23;ism critical value at alpha=0.001 is ~49.7
    assert chi2 < 49.7


def test_two_opt_reversal():
    spec = DecisionSpec("list", 4)
    value = np.array([0, 1, 2, 3])
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(500):
        tag = draw_move(spec, value, rng)
        new = apply_move(value, tag)
        if tag == ("2opt", 1, 2):
            assert new.tolist() == [0, 2, 1, 3]
            seen.add("hit")
    assert "hit" in seen


def test_drop_from_empty_set_resamples_as_add():
    spec = DecisionSpec("set", 3)
    rng = np.random.default_rng(2)
    for _ in range(50):
        tag = draw_move(spec, np.empty(0, dtype=np.int64), rng)
        new = apply_move(np.empty(0, dtype=np.int64), tag)
        assert tag[0] == "add"
        assert new.size == 1


def test_set_complement_matches_setdiff1d():
    rng = np.random.default_rng(4)
    for n in (0, 1, 50):
        sets = [np.empty(0, dtype=np.int64), np.arange(n)]
        sets += [np.flatnonzero(rng.random(n) < p) for p in (0.1, 0.5, 0.9)]
        for inside in sets:
            got = set_complement(inside, n)
            want = np.setdiff1d(np.arange(n), inside, assume_unique=True)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_moves_preserve_validity_all_kinds():
    m = _validity_model()
    rng = np.random.default_rng(3)
    state = initial_state(m, rng)
    for _ in range(20_000):
        state, _ = propose_state(m, state, rng)
        errs = m.validate_state(state)
        assert errs == [], errs


def _validity_model():
    m = Model()
    m.list(7)
    m.set(6)
    m.binary(5)
    m.integer(4, lo=0, hi=3)
    m.disjoint_lists(8, 3)
    m.disjoint_bit_sets(6, 2)
    return m


def test_apply_of_each_draw_keeps_every_kind_valid():
    """``apply_move(value, draw_move(spec, value, rng))`` on each decision
    alone, ordered ``moveel`` included; the drawn-from value never changes."""
    m = _validity_model()
    rng = np.random.default_rng(5)
    state = initial_state(m, rng)
    kinds = set()
    for _ in range(3000):
        for d, spec in enumerate(m.decisions):
            value = state.values[d]
            before = [p.copy() for p in value] if spec.is_partition else value.copy()
            tag = draw_move(spec, value, rng)
            new = apply_move(value, tag)
            assert State([*state.values[:d], before, *state.values[d + 1:]]) == state
            state.values[d] = new
            assert validate_state(m.decisions, state) == [], (spec.kind, tag)
            kinds.add((spec.kind, tag[0]))
    assert {("disjoint_lists", "moveel"), ("disjoint_lists", "swapel"),
            ("disjoint_lists", "p2opt"), ("disjoint_bit_sets", "moveel"),
            ("disjoint_bit_sets", "swapel"), ("list", "ins"), ("set", "exch"),
            ("integer", "seti"), ("binary", "flip")} <= kinds


def _reference_edit(spec, value, tag):
    """The edit a tag names, by the numpy calls that made it before the slice
    shifts: sort after append, delete then insert."""
    kind = tag[0]
    if kind == "add":
        return np.sort(np.append(value, tag[1]))
    if kind == "exch":
        return np.sort(np.append(value[value != tag[1]], tag[2]))
    if kind == "ins":
        _, i, j = tag
        return np.insert(np.delete(value, i), j, value[i])
    parts = [p.copy() for p in value]
    if kind == "moveel":
        _, e, a, b, i, j = tag
        assert parts[a][i] == e
        parts[a] = np.delete(parts[a], i)
        parts[b] = (np.insert(parts[b], j, e) if spec.kind == "disjoint_lists"
                    else np.sort(np.append(parts[b], e)))
    elif kind == "swapel":
        _, _, _, a, i, _, b, j, _ = tag
        parts[a][i], parts[b][j] = value[b][j], value[a][i]
        if spec.kind == "disjoint_bit_sets":
            parts[a], parts[b] = np.sort(parts[a]), np.sort(parts[b])
    else:
        return None
    return parts


@pytest.mark.parametrize("spec", [DecisionSpec("set", 30), DecisionSpec("list", 12),
                                  DecisionSpec("disjoint_lists", 12, n_parts=3),
                                  DecisionSpec("disjoint_bit_sets", 12, n_parts=3)])
def test_apply_move_matches_the_reference_edits(spec):
    rng = np.random.default_rng(8)
    m = Model()
    m.add_decision(spec)
    state = initial_state(m, rng)
    checked = 0
    for _ in range(3000):
        value = state.values[0]
        tag = draw_move(spec, value, rng)
        new = apply_move(value, tag)
        want = _reference_edit(spec, value, tag)
        if want is not None:
            checked += 1
            assert State([new]) == State([want]), tag
            assert State([new]).digest() == State([want]).digest(), tag
        state = State([new])
    assert checked > 500


@pytest.mark.parametrize("n", [2, 3, 9, 52, 200, 1000])
def test_two_distinct_matches_rng_choice(n):
    """The list, partition and 2-opt draws replace ``rng.choice(n, 2,
    replace=False)`` by three ``integers`` calls that repeat its stream.  That
    rests on numpy internals: a numpy whose ``choice`` draws otherwise fails
    here instead of changing every trajectory."""
    ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
    for t in range(5000):
        want = tuple(int(v) for v in theirs.choice(n, 2, replace=False))
        assert _two_distinct(n, ours) == want, t
        if t % 3 == 0:  # other draws between the pairs keep both streams in step
            assert ours.random() == theirs.random()
        if t % 5 == 0:
            assert ours.integers(0, 7) == theirs.integers(0, 7)


@pytest.mark.parametrize("decisions", [
    [DecisionSpec("list", 7)], [DecisionSpec("set", 9)], [DecisionSpec("binary", 12)],
    [DecisionSpec("integer", 5, lo=-2, hi=3)], [DecisionSpec("integer", 3, lo=4, hi=4)],
    [DecisionSpec("disjoint_lists", 8, n_parts=3)],
    [DecisionSpec("disjoint_bit_sets", 8, n_parts=3)],
    [DecisionSpec("binary", 6), DecisionSpec("set", 5)],
    [DecisionSpec("binary", 1)], [DecisionSpec("binary", 2)], [DecisionSpec("binary", 200)],
], ids=["list", "set", "binary12", "integer", "integer-fixed", "disjoint_lists",
        "disjoint_bit_sets", "binary+set", "binary1", "binary2", "binary200"])
def test_draw_state_moves_matches_single_draws(decisions):
    """A batch of draws equals as many single draws and leaves the stream where
    they leave it.  One vector ``integers`` call standing for scalar ones rests
    on numpy internals: a numpy that draws otherwise fails here instead of
    changing every tabu trajectory."""
    m = Model()
    for spec in decisions:
        m.add_decision(spec)
    state = initial_state(m, np.random.default_rng(1))
    for seed, k in itertools.product(range(20), (1, 2, 7, 12)):
        batch_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = draw_state_moves(m, state, batch_rng, k)
        assert batch == [draw_state_move(m, state, single_rng) for _ in range(k)]
        assert batch_rng.bit_generator.state == single_rng.bit_generator.state


@pytest.mark.parametrize("spec, value", [
    (DecisionSpec("binary", 7), [0, 1, 1, 0, 0, 1, 0]), (DecisionSpec("set", 9), [1, 4, 5]),
    (DecisionSpec("set", 5), []), (DecisionSpec("set", 5), [0, 1, 2, 3, 4]),
], ids=["binary", "set", "set-empty", "set-full"])
def test_block_draw_names_each_move_by_its_own_row(spec, value):
    """Row ``i`` of the uniforms names move ``i`` whatever the other rows, the
    ends of [0, 1) included, so a block draws the moves its rows would draw
    one at a time.  Every move is a possible move of the value: an empty set
    only adds and a full one only drops."""
    value = np.array(value, dtype=np.int64)
    us = np.random.default_rng(3).random((300, BLOCK_UNIFORMS[spec.kind]))
    us[:3], us[3:6] = 0.0, np.nextafter(1.0, 0.0)
    pool = block_pool(spec, value)
    block = draw_block(spec, value, us, pool)
    assert len(block) == len(us)
    kinds = set()
    for i in range(len(us)):
        d, tag = block.move(i)
        assert d == 0 and draw_block(spec, value, us[i:i + 1], pool).move(0) == (d, tag)
        moved = apply_move(value, tag)
        assert validate_value(spec, moved) == [] and not np.array_equal(moved, value)
        kinds.add(tag[0])
    m = value.size
    assert kinds == ({"flip"} if spec.kind == "binary" else {"add"} if m == 0
                     else {"drop"} if m == spec.n else {"add", "drop", "exch"})


def test_reverse_move_round_trip():
    assert reverse_move(("add", 3)) == ("drop", 3)
    assert reverse_move(("drop", 3)) == ("add", 3)
    assert reverse_move(("exch", 1, 2)) == ("exch", 2, 1)
    assert reverse_move(("ins", 4, 6)) == ("ins", 6, 4)
    assert reverse_move(("swap", 1, 2)) == ("swap", 1, 2)
    assert reverse_move((0, ("add", 1))) == (0, ("drop", 1))


def test_partition_tabu_keys_leave_out_the_positions():
    # the positions a partition tag carries for apply_move are not part of its
    # tabu name: a move and the reverse of its reverse look each other up
    moveel, swapel = (2, ("moveel", 5, 0, 1, 3, 4)), (2, ("swapel", 1, 6, 0, 2, 2, 1, 0, 1))
    assert tabu_key(moveel) == (2, ("moveel", 5, 0, 1))
    assert reverse_move(moveel) == (2, ("moveel", 5, 1, 0))
    assert tabu_key(swapel) == reverse_move(swapel) == (2, ("swapel", 1, 6))
    assert tabu_key((0, ("flip", 3))) == (0, ("flip", 3))


# --- sample sets ----------------------------------------------------------------


def test_sampleset_json_round_trip():
    m = build_tsp_model(random_tsp(5, seed=8))
    result = solve(m, SolverConfig(time_limit=2.0, n_branches=1, seed=1,
                                   max_steps=300, qm_inline=True))
    text = result.to_json()
    again = SampleSet.from_json(text)
    assert len(again) == len(result)
    assert again.best().objective == result.best().objective
    assert again.to_json() == text


def test_sampleset_never_empty_and_sorted():
    m = build_kp_model(random_kp(8, seed=3))
    result = solve(m, SolverConfig(time_limit=1.0, n_branches=2, seed=5,
                                   max_steps=200, qm_inline=True))
    assert len(result) >= 2
    keys = [s.sort_key() for s in result]
    assert keys == sorted(keys)


# --- solve ------------------------------------------------------------------------


def test_solve_requires_objective():
    m = Model()
    m.binary(3)
    with pytest.raises(StateError):
        solve(m, SolverConfig(time_limit=1.0))


def test_solve_tsp3_unit_costs():
    inst = TspInstance("u3", 3, np.ones((3, 3)) - np.eye(3))
    result = solve(build_tsp_model(inst), SolverConfig(time_limit=1.0, n_branches=1,
                                                       seed=0, max_steps=50))
    assert result.best().objective == 3.0
    assert result.best().feasible


def test_solve_kp_zero_capacity():
    inst = KpInstance("k0", 5, [5, 4, 3, 2, 1], [1, 1, 1, 1, 1], 0)
    result = solve(build_kp_model(inst), SolverConfig(time_limit=1.0, n_branches=1,
                                                      seed=2, max_steps=500,
                                                      qm_inline=True))
    best = result.best()
    assert best.feasible
    assert best.objective == 0.0
    assert best.state.values[0].size == 0


def test_solve_small_tsp_reaches_optimum():
    inst = random_tsp(8, seed=4)
    opt, _ = exact_tsp(inst)
    hits = 0
    for seed in range(10):
        result = solve(
            build_tsp_model(inst),
            SolverConfig(time_limit=10.0, n_branches=4, seed=seed, target=opt),
        )
        hits += result.best().objective == opt
    assert hits >= 9


def test_sa_reaches_kp_dp_optimum():
    inst = random_kp(20, seed=6)
    opt, _ = exact_kp(inst)
    hits = 0
    for seed in range(10):
        result = solve(
            build_kp_model(inst),
            SolverConfig(time_limit=5.0, n_branches=2, seed=seed, target=-opt),
        )
        hits += result.best().objective == -opt
    assert hits >= 8


def test_tabu_variant_solves_small_tsp():
    inst = random_tsp(7, seed=9)
    opt, _ = exact_tsp(inst)
    result = solve(
        build_tsp_model(inst),
        SolverConfig(time_limit=5.0, n_branches=2, seed=3, cm_kind="tabu", target=opt),
    )
    assert result.best().objective == opt


def test_every_sample_is_structurally_valid():
    inst = random_tsp(9, seed=10)
    model = build_tsp_model(inst)
    result = solve(model, SolverConfig(time_limit=2.0, n_branches=2, seed=7,
                                       max_steps=2000, qm_inline=True))
    for sample in result:
        assert model.validate_state(sample.state) == []


def test_single_branch_runs_are_byte_identical():
    inst = random_tsp(9, seed=11)
    for qm_inline in (True, False):  # the field is inert; the default is covered too
        config = SolverConfig(time_limit=30.0, n_branches=1, seed=13,
                              max_steps=1500, qm_inline=qm_inline)
        a = solve(build_tsp_model(inst), config).to_json()
        b = solve(build_tsp_model(inst), config).to_json()
        assert a == b


def test_different_seeds_differ():
    inst = random_tsp(9, seed=11)
    a = solve(build_tsp_model(inst),
              SolverConfig(time_limit=30.0, n_branches=1, seed=1,
                           max_steps=800, qm_inline=True)).to_json()
    b = solve(build_tsp_model(inst),
              SolverConfig(time_limit=30.0, n_branches=1, seed=2,
                           max_steps=800, qm_inline=True)).to_json()
    assert a != b


def test_anytime_improvements_nonincreasing():
    inst = random_tsp(9, seed=12)
    result = solve(build_tsp_model(inst),
                   SolverConfig(time_limit=5.0, n_branches=2, seed=3,
                                max_steps=3000, qm_inline=True))
    for b in range(2):
        # within a step, later improvements have lower objective, so the
        # (step, -objective) order is chronological
        series = [s.objective for s in sorted(
            (s for s in result if s.branch == b and s.source != "final"),
            key=lambda s: (s.step, -s.objective),
        )]
        assert all(x >= y for x, y in zip(series, series[1:]))


def test_portfolio_dominance_merge_takes_min():
    inst = random_tsp(9, seed=14)
    result = solve(build_tsp_model(inst),
                   SolverConfig(time_limit=5.0, n_branches=3, seed=4,
                                max_steps=500, qm_inline=True))
    best = result.best().objective
    per_branch_best = {}
    for s in result:
        per_branch_best[s.branch] = min(per_branch_best.get(s.branch, np.inf), s.objective)
    assert best == min(per_branch_best.values())
    assert best <= per_branch_best[0]


def test_time_budget_respected():
    inst = random_tsp(30, seed=15)
    t0 = time.monotonic()
    solve(build_tsp_model(inst), SolverConfig(time_limit=1.5, n_branches=2, seed=0))
    assert time.monotonic() - t0 < 2.5


@needs_fork
def test_branches_run_in_child_processes(monkeypatch):
    finalize = Branch.finalize

    def tagged(self):
        finalize(self)
        self.warnings.append(f"pid {os.getpid()}")

    monkeypatch.setattr(Branch, "finalize", tagged)
    result = solve(build_kp_model(random_kp(8, seed=3)),
                   SolverConfig(time_limit=60.0, n_branches=2, seed=5, max_steps=200,
                                qm_inline=True))
    pids = [w for w in result.warnings if w.startswith("pid ")]
    assert len(set(pids)) == 2 and f"pid {os.getpid()}" not in pids


def test_forked_and_serial_solves_are_byte_identical(monkeypatch):
    model = build_tsp_model(random_tsp(9, seed=11))
    config = SolverConfig(time_limit=60.0, n_branches=3, seed=13, max_steps=1500,
                          qm_inline=True, qm_period=100)
    forked = solve(model, config).to_json()
    monkeypatch.setattr(forking, "fork_available", lambda: False)
    assert solve(model, config).to_json() == forked


@needs_fork
def test_branch_error_is_reraised_and_every_child_ends(monkeypatch):
    step = Branch.cm_step

    def failing(self, model):
        if self.index == 1:
            raise StateError(f"branch {self.index} broke")
        step(self, model)

    monkeypatch.setattr(Branch, "cm_step", failing)
    t0 = time.monotonic()
    with pytest.raises(StateError, match="branch 1 broke"):
        # branch 0 would run for the whole minute: it is terminated
        solve(build_kp_model(random_kp(20, seed=6)),
              SolverConfig(time_limit=60.0, n_branches=2, seed=0))
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []


@needs_fork
def test_branch_that_dies_without_a_result_is_named(monkeypatch):
    monkeypatch.setattr(Branch, "cm_step", lambda self, model: os._exit(1))
    with pytest.raises(StateError, match=r"branch \d process exited without a result"):
        solve(build_kp_model(random_kp(8, seed=3)),
              SolverConfig(time_limit=60.0, n_branches=2, seed=0))
    assert multiprocessing.active_children() == []


def test_target_stops_every_branch(monkeypatch, data_dir):
    # branch 1 never improves, so only the target that branch 0 reaches stops it
    offer = Branch.offer
    monkeypatch.setattr(Branch, "offer",
                        lambda self, *args: self.index != 1 and offer(self, *args))
    inst = parse_tsplib((data_dir / "tsp8.tsp").read_text(), "tsp8")
    opt, _ = exact_tsp(inst)
    t0 = time.monotonic()
    result = solve(build_tsp_model(inst),
                   SolverConfig(time_limit=30.0, n_branches=2, seed=0, target=opt))
    assert time.monotonic() - t0 < 10
    assert result.best().objective == opt
    assert len([s for s in result if s.source == "final"]) == 2



def _sa_branch(max_steps, now):
    model = build_kp_model(random_kp(20, seed=16))
    config = SolverConfig(time_limit=10.0, n_branches=1, seed=0, qm_enabled=False,
                          max_steps=max_steps)
    branch = Branch(0, model, config, lambda: now[0], config.time_limit)
    branch.calibrate(model)
    return model, branch


def test_sa_cools_by_elapsed_time_under_wall_clock_limit():
    # the temperature must follow the clock, not a guessed step budget: a
    # branch slowed down by queries holding the GIL still ends cold
    now = [0.0]
    model, branch = _sa_branch(None, now)
    t0 = branch.t0
    assert t0 > 0 and branch.temp == t0
    for t in (0.0, 1.0, 2.5, 5.0, 9.0):
        now[0] = t
        branch.cm_step(model)
        assert branch.temp == pytest.approx(t0 * 1e-3 ** (t / 10.0), rel=1e-12)
    assert branch.steps == 5
    for t in (10.0, 25.0):
        now[0] = t
        branch.cm_step(model)
        assert branch.temp == pytest.approx(1e-3 * t0, rel=1e-12)


def test_sa_cools_by_steps_under_max_steps():
    now = [0.0]
    model, branch = _sa_branch(2000, now)
    t0 = branch.t0
    for k in range(1, 51):
        now[0] = 100.0 * k  # wall time plays no part in a fixed-work run
        branch.cm_step(model)
        assert branch.temp == pytest.approx(t0 * 1e-3 ** (k / 2000), rel=1e-9)


def test_restart_recentres_walk_on_incumbent(monkeypatch):
    monkeypatch.setattr(branch, "_RESTART_AFTER", 5)
    model = build_tsp_model(random_tsp(10, seed=30))
    config = SolverConfig(time_limit=10.0, n_branches=1, seed=2, qm_enabled=False,
                          max_steps=10_000)
    br = Branch(0, model, config, lambda: 0.0, config.time_limit)
    br.t0 = 1e9  # hot enough to accept every move, so the walk leaves the incumbent
    restarts = moved = 0
    for _ in range(200):
        away = not np.array_equal(br.current.values[0], br.incumbent.values[0])
        br.cm_step(model)
        assert br.stagnation < 5
        if br.stagnation == 0:  # an improvement leaves it at 1 after the step
            restarts += 1
            moved += away
            assert br.current is br.incumbent  # shared: no code writes a state's arrays
            assert np.array_equal(br.current.values[0], br.incumbent.values[0])
            assert br.current_eval.key == br.incumbent_eval.key
    assert restarts >= 20 and moved > 0


@pytest.mark.parametrize("n_branches", [1, pytest.param(2, marks=needs_fork)])
@pytest.mark.parametrize("name", ["kp50", "mc200"])
def test_sa_trajectory_does_not_depend_on_the_block_size(monkeypatch, data_dir, name,
                                                         n_branches):
    """An SA branch on one set or bit array steps in blocks, and takes the
    same steps whatever their size: blocks of one candidate give the sample
    set of blocks of up to 64 byte for byte, with queries, restarts and
    refills of the uniform buffer inside the run.  Queries come every
    ``qm_period * _BLOCK_STEPS_PER_STEP`` = 704 steps."""
    monkeypatch.setattr(branch, "_RESTART_AFTER", 400)
    model = _walk_model(data_dir, name)
    config = SolverConfig(time_limit=600.0, n_branches=n_branches, seed=5, max_steps=3000,
                          qm_period=88)
    assert Branch(0, model, config, lambda: 0.0, 600.0).qm_period == 704
    sizes, queries = [], []
    draw = branch.draw_block
    monkeypatch.setattr(branch, "draw_block", lambda spec, value, us, pool:
                        sizes.append(len(us)) or draw(spec, value, us, pool))
    monkeypatch.setattr(branch, "qm_query", lambda *args: queries.append(1) or qm_query(*args))
    texts = {}
    for size in (64, 1):
        monkeypatch.setattr(branch, "_MAX_BLOCK", size)
        sizes.clear()
        queries.clear()
        texts[size] = solve(model, config).to_json()
        if n_branches == 1:  # forked branches draw in their own processes
            assert max(sizes) == size and len(queries) == 4
    assert texts[64] == texts[1]


def test_a_step_call_takes_up_to_its_budget_and_stops_at_a_due_query(data_dir):
    """``step(model)`` and ``cm_step(model)`` take one step; ``step(model,
    budget)`` takes at most ``budget``, returns how many, and a call that
    samples a query takes that step alone, so no call passes a due query.
    A block-stepping branch queries every ``qm_period * 8`` = 320 steps."""
    model = _walk_model(data_dir, "mc200")
    config = SolverConfig(time_limit=600.0, n_branches=1, seed=2, max_steps=5000,
                          qm_period=40)
    br = Branch(0, model, config, lambda: 0.0, 600.0)
    br.calibrate(model)
    assert br.blocks and br.qm_period == 320
    assert br.step(model) == 1 and br.steps == 1
    br.cm_step(model)
    assert br.steps == 2
    taken = []
    while br.steps < 3000:
        start = br.steps
        taken.append(br.step(model, 50))
        assert 1 <= taken[-1] == br.steps - start <= 50
        if start % 320 == 0:
            assert taken[-1] == 1
        assert all(s % 320 for s in range(start + 1, br.steps))
    assert max(taken) == 50


@pytest.mark.parametrize("kind", ["sa", "tabu"])
@pytest.mark.parametrize("name", ["tsp7", "kp50", "mc10"])
def test_no_code_writes_a_state_array(monkeypatch, data_dir, name, kind):
    """States share their arrays: a moved state shares what the move leaves
    alone, and the incumbent, the current state and the samples are one object,
    not copies.  Every array of a state is read-only, as the constructor and
    ``State.moved`` make it, so a solve with queries and restarts that wrote
    one would raise.  An SA branch on kp50's set or mc10's bit array steps in
    blocks and queries every ``5 * 8`` steps, so it runs 8 times the steps
    for the same queries."""
    monkeypatch.setattr(branch, "_RESTART_AFTER", 40)
    queries = []
    monkeypatch.setattr(branch, "qm_query",
                        lambda *args: queries.append(1) or qm_query(*args))
    model = _walk_model(data_dir, name)
    blocks = kind == "sa" and name != "tsp7"
    config = SolverConfig(time_limit=10.0, n_branches=1, seed=4, cm_kind=kind, qm_period=5,
                          qm_window=5, max_steps=300 * (8 if blocks else 1))
    assert Branch(0, model, config, lambda: 0.0, 10.0).blocks == blocks
    result = solve(model, config)
    assert len(queries) == 59
    assert all(not a.flags.writeable for s in result for a in s.state.values)
    assert all(model.validate_state(s.state) == [] for s in result)


def test_tabu_table_is_pruned_to_live_entries(monkeypatch):
    monkeypatch.setattr(branch, "_TABU_TENURE", 2)
    model = build_tsp_model(random_tsp(12, seed=31))
    config = SolverConfig(time_limit=10.0, n_branches=1, seed=0, qm_enabled=False,
                          cm_kind="tabu", max_steps=1500)
    br = Branch(0, model, config, lambda: 0.0, config.time_limit)
    cap = 4 * 2 * config.tabu_candidates
    prunes = 0
    for _ in range(1500):
        table = br.tabu
        br.cm_step(model)
        assert len(br.tabu) <= cap
        if br.tabu is not table:  # pruning builds a new table
            prunes += 1
            assert br.tabu and all(until > br.steps - 1 for until in br.tabu.values())
    assert prunes >= 3


def _overflow_model(constrained: bool):
    """Two sums of bits scaled by 1e308 in the tail: beyond one set bit each
    product is inf, and their difference is NaN where both are.  The
    constrained one asks the difference to be 0, a NaN violation there."""
    m = Model()
    x = m.binary(16)
    big = m.constant(1e308)
    gap = big * (x[:8] * m.constant([1, 2, 1, 3, 1, 2, 1, 1])).sum() - big * x[8:].sum()
    m.minimize(gap)
    if constrained:
        m.add_constraint(gap == 0)
    return m.freeze()


def _nan_last(x: float) -> tuple:
    return (True, 0.0) if x != x else (False, x)


def _evaluation_bits(ev) -> tuple:
    floats = [ev.objective, *ev.violations, *ev.sums]
    return (struct.pack(f"<{len(floats)}d", *floats), ev.state_key,
            [f.tobytes() for f in ev.fields])


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("name, steps", [("mc200", 400), ("constrained", 400), ("mc10", 300),
                                         ("overflow", 300), ("overflow-eq", 300)])
def test_whole_neighbourhood_tabu_matches_a_slow_reference(data_dir, name, steps):
    """Each tabu step over every flip of a bit array takes the flip that a
    move-by-move reference takes: the least of ``score_move``'s keys, with NaN
    after every number in each entry and ties to the lowest bit, if it is
    strictly below the incumbent's, and otherwise the least flip whose bit is
    not tabu, or none when every bit is (mc10 has fewer bits than the tenure).
    The built winner equals the full evaluation of its state bit for bit,
    fields included.  On the overflow models ``np.argmin`` would often take a
    NaN over a number, and the step never does."""
    if name.startswith("overflow"):
        model = _overflow_model(name == "overflow-eq")
    else:
        model = _walk_model(data_dir, name)
    config = SolverConfig(seed=5, n_branches=1, qm_enabled=False, cm_kind="tabu",
                          max_steps=steps)
    br = Branch(0, model, config, lambda: 0.0, 10.0)
    assert br.flips is not None
    n = model.decisions[0].n
    expiry = [0] * n
    seen = {"aspired": 0, "tabu best": 0, "stalled": 0, "infeasible": 0, "argmin wrong": 0}
    for step in range(steps):
        state, ev = br.current, br.current_eval
        keys = [model.score_move(state, ev, (0, ("flip", p))).key for p in range(n)]

        def rank(p):
            return keys[p][0], _nan_last(keys[p][1]), _nan_last(keys[p][2]), p

        best = min(range(n), key=rank)
        aspired = keys[best][1:] < br.incumbent_eval.key[1:3]
        pool = range(n) if aspired else [p for p in range(n) if expiry[p] <= step]
        choice = min(pool, key=rank, default=None)
        seen["aspired"] += aspired and expiry[best] > step
        br.cm_step(model)
        assert br.steps == step + 1
        if choice is None:
            assert br.current is state and br.current_eval is ev
            seen["stalled"] += 1
            continue
        expiry[choice] = step + branch._TABU_TENURE
        assert br.expiry.tolist() == expiry
        assert br.current == state.moved((0, ("flip", choice)))
        assert _evaluation_bits(br.current_eval) == _evaluation_bits(
            model.evaluate_unchecked(br.current))
        # no flip with a number where the winner has a NaN is as good up to there
        won = keys[choice]
        for p in pool:
            if won[1] != won[1]:
                assert keys[p][1] != keys[p][1]
            elif won[2] != won[2] and keys[p][:2] == won[:2]:
                assert keys[p][2] != keys[p][2]
        objectives = np.array([keys[p][2] if keys[p][:2] == won[:2] else np.inf for p in pool])
        seen["argmin wrong"] += list(pool)[int(objectives.argmin())] != choice
        seen["tabu best"] += choice != best
        seen["infeasible"] += won[0]
    assert seen["tabu best"] > 0
    if name == "mc10":
        assert seen["stalled"] > 0
    if name == "mc200":
        assert seen["aspired"] > 0
    if name == "constrained":
        assert seen["infeasible"] > 0
    if name.startswith("overflow"):
        assert seen["argmin wrong"] > 0


# --- qm queries --------------------------------------------------------------------


def test_qm_full_window_equals_direct_mc_encoding():
    inst = generate_random_maxcut(10, 0.8, (1, 10), seed=20)
    model = build_mcp_model(inst)
    rng = np.random.default_rng(0)
    incumbent = initial_state(model, rng)
    query = qm_query(model, incumbent, window=10, rng=rng)
    direct, _ = mcp_to_qubo(inst)
    assert query.qubo == direct


def test_qm_full_window_equals_direct_tsp_encoding():
    inst = random_tsp(4, seed=21)
    model = build_tsp_model(inst)
    rng = np.random.default_rng(0)
    incumbent = initial_state(model, rng)
    query = qm_query(model, incumbent, window=4, rng=rng)
    direct, _ = tsp_to_qubo(inst)
    assert query.qubo == direct


def test_qm_window_one_on_list():
    inst = random_tsp(6, seed=22)
    model = build_tsp_model(inst)
    rng = np.random.default_rng(1)
    incumbent = initial_state(model, rng)
    query = qm_query(model, incumbent, window=1, rng=rng)
    assert query.qubo.n == 1
    decoded = query.decode(np.array([1]))
    assert decoded is not None
    assert model.validate_state(decoded) == []


def test_qm_decodes_preserve_frozen_part():
    inst = random_tsp(10, seed=23)
    model = build_tsp_model(inst)
    rng = np.random.default_rng(2)
    incumbent = initial_state(model, rng)
    query = qm_query(model, incumbent, window=4, rng=rng)
    # identity sub-assignment: city a at relative position a
    bits = np.eye(4, dtype=np.int8).reshape(-1)
    decoded = query.decode(bits)
    assert decoded is not None
    assert model.validate_state(decoded) == []
    assert sorted(decoded.values[0].tolist()) == list(range(10))


@pytest.mark.parametrize("name", ["tsp9", "disc51"])
def test_qm_tsp_window_energy_is_tour_length_plus_constant(data_dir, name):
    model = build_tsp_model(parse_tsplib((data_dir / f"{name}.tsp").read_text(), name))
    rng = np.random.default_rng(4)
    incumbent = initial_state(model, rng)
    for _ in range(3):
        query = qm_query(model, incumbent, window=5, rng=rng)
        gaps = []
        for order in itertools.permutations(range(5)):
            grid = np.zeros((5, 5), dtype=np.int8)
            grid[list(order), range(5)] = 1  # window city order[q] at position q
            state = query.decode(grid.reshape(-1))
            gaps.append(query.qubo.energy(grid) - model.evaluate(state).objective)
        assert max(gaps) - min(gaps) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("name", ["mc10", "gen40"])
def test_qm_mc_window_energy_equals_objective(data_dir, name):
    inst = (parse_maxcut((data_dir / "mc10.mc").read_text(), "mc10") if name == "mc10"
            else generate_random_maxcut(40, 0.3, (1, 9), seed=6))
    model = build_mcp_model(inst)
    rng = np.random.default_rng(7)
    for _ in range(3):
        incumbent = initial_state(model, rng)
        query = qm_query(model, incumbent, window=6, rng=rng)
        assert query.qubo.n == 6
        for code in range(1 << 6):
            bits = np.array([(code >> k) & 1 for k in range(6)])
            objective = model.evaluate(query.decode(bits)).objective
            assert query.qubo.energy(bits) == pytest.approx(objective)


def test_qm_untagged_model_returns_none():
    m = Model()
    x = m.binary(4)
    m.minimize(x.sum())
    rng = np.random.default_rng(0)
    assert qm_query(m, initial_state(m, rng), 4, rng) is None


def test_qm_improves_or_preserves_incumbent():
    inst = generate_random_maxcut(12, 0.7, (1, 9), seed=24)
    model = build_mcp_model(inst)
    result = solve(model, SolverConfig(time_limit=3.0, n_branches=1, seed=5,
                                        max_steps=1200, qm_inline=True,
                                        qm_period=200, qm_window=6))
    assert result.best().feasible


@pytest.mark.parametrize("inline", [True, False])  # qm_inline is inert; both must warn
def test_qm_sampler_failure_becomes_a_warning(monkeypatch, inline):
    def broken(*args, **kwargs):
        raise RuntimeError("sampler down")

    monkeypatch.setattr(branch, "sa_sample", broken)
    model = build_tsp_model(random_tsp(8, seed=25))
    result = solve(model, SolverConfig(time_limit=60.0, n_branches=1, seed=1,
                                        max_steps=2000, qm_inline=inline, qm_period=50))
    # the first failure disables the branch's queries: one warning, not one per period
    failed = [w for w in result.warnings if "subproblem sampling failed" in w]
    assert failed == ["branch 0: subproblem sampling failed: sampler down"]
    assert result.best().feasible


def _mc200_query_solve(**overrides):
    model = build_mcp_model(generate_random_maxcut(200, 0.2, (1, 10), seed=7))
    config = dict(time_limit=600.0, n_branches=1, seed=3, max_steps=2001)
    return solve(model, SolverConfig(**{**config, **overrides}))


def test_qm_samples_carry_the_step_after_their_query():
    # a query is sampled before step k * every + 1 and offered after it; this SA
    # branch steps in blocks, so it queries every qm_period * 8 steps
    for period, every in ((62, 496), (15, 120)):
        steps = {s.step for s in _mc200_query_solve(qm_period=period) if s.source == "qm"}
        assert steps and all(step % every == 1 for step in steps)


def test_query_due_at_the_last_step_is_offered_before_finalize():
    # the query sampled before step 2001, the last one, still competes: the
    # branch steps in blocks, so a qm_period of 2 makes a query due every 16
    # steps, 2000 included
    doc = json.loads(_mc200_query_solve(qm_period=2).to_json())
    assert ("qm", 2001) in {(s["source"], s["step"]) for s in doc["samples"]}


@pytest.mark.parametrize("name, kind, blocks", [
    ("tsp7", "sa", False), ("mc10", "tabu", False), ("kp50", "tabu", False),
    ("kp50", "sa", True), ("mc10", "sa", True),
])
def test_qm_period_counts_per_step_work(monkeypatch, data_dir, name, kind, blocks):
    """``qm_period`` counts one unit per per-step step: a list SA branch, a
    tabu branch over every flip (mc10) and a sampled tabu branch (kp50) query
    every ``qm_period`` steps, a branch that steps in blocks every
    ``qm_period * _BLOCK_STEPS_PER_STEP``."""
    queries = []
    monkeypatch.setattr(branch, "qm_query", lambda *args: queries.append(1) or qm_query(*args))
    model = _walk_model(data_dir, name)
    config = SolverConfig(time_limit=600.0, n_branches=1, seed=1, cm_kind=kind, qm_period=10,
                          qm_window=5, max_steps=1000)
    br = Branch(0, model, config, lambda: 0.0, 600.0)
    br.calibrate(model)
    assert br.blocks == blocks and (br.flips is not None) == (name == "mc10" and kind == "tabu")
    every = 10 * branch._BLOCK_STEPS_PER_STEP if blocks else 10
    assert br.qm_period == every
    due = []
    while br.steps < 1000:
        start, asked = br.steps, len(queries)
        br.step(model, 1000 - start)
        if len(queries) > asked:
            due.append(start)
    assert due == list(range(every, 1000, every))


def test_window_clamp_warns_once_per_branch():
    model = build_tsp_model(random_tsp(8, seed=25))
    result = solve(model, SolverConfig(time_limit=60.0, n_branches=2, seed=1, max_steps=400,
                                        qm_period=50, qm_window=20))
    clamped = [w for w in result.warnings if "clamped" in w]
    assert sorted(clamped) == [f"branch {b}: window 20 clamped to 8" for b in range(2)]


def test_untagged_model_warns_once_and_stops_querying(monkeypatch):
    calls = []
    real = branch.qm_query

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(branch, "qm_query", spy)
    m = Model()
    x = m.binary(16)
    m.minimize(x.sum())
    result = solve(m, SolverConfig(time_limit=60.0, n_branches=1, seed=0, max_steps=2000,
                                   qm_period=50))
    assert len(calls) == 1
    assert result.warnings == [
        "branch 0: model has no problem-family tag; subproblem sampling disabled"]


def test_qm_queries_run_on_the_stepping_thread(monkeypatch):
    threads = []
    real = branch.sa_sample

    def spy(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(branch, "sa_sample", spy)
    model = build_tsp_model(random_tsp(8, seed=25))
    solve(model, SolverConfig(time_limit=60.0, n_branches=1, seed=1, max_steps=2000,
                              qm_period=50))
    assert len(threads) == 39 and set(threads) == {threading.current_thread().name}


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("setting", ["qm_window", "tabu_candidates", "n_branches",
                                     "qm_period", "max_steps"])
def test_config_rejects_settings_below_one(setting, value):
    from combopt.errors import DomainError

    with pytest.raises(DomainError, match=f"{setting} must be >= 1"):
        SolverConfig(**{setting: value})


@pytest.mark.parametrize("value", [2.5, 1.5, 2.0, True])
@pytest.mark.parametrize("setting", ["qm_window", "tabu_candidates", "n_branches",
                                     "qm_period", "max_steps"])
def test_config_rejects_counts_that_are_not_integers(setting, value):
    from combopt.errors import DomainError

    with pytest.raises(DomainError, match=f"{setting} must be an integer"):
        SolverConfig(**{setting: value})


@pytest.mark.parametrize("value", ["no", 0, None])
@pytest.mark.parametrize("setting", ["qm_enabled", "qm_inline"])
def test_config_rejects_switches_that_are_not_bool(setting, value):
    from combopt.errors import DomainError

    with pytest.raises(DomainError, match=f"{setting} must be true or false"):
        SolverConfig(**{setting: value})


@pytest.mark.parametrize("setting, value, message", [
    ("seed", "x", "seed must be an integer"), ("seed", 1.5, "seed must be an integer"),
    ("seed", True, "seed must be an integer"), ("target", True, "target must be a finite number"),
    ("target", "3", "target must be a finite number"),
    ("target", float("nan"), "target must be a finite number"),
    ("target", float("-inf"), "target must be a finite number"),
    ("qm_period", "often", "qm_period must be an integer"),
])
def test_config_rejects_a_bad_seed_or_target(setting, value, message):
    from combopt.errors import DomainError

    with pytest.raises(DomainError, match=message):
        SolverConfig(**{setting: value})


def test_config_takes_numpy_numbers_as_target():
    assert SolverConfig(target=np.float64(-3.5)).target == -3.5
    assert SolverConfig(target=np.int64(7), seed=2**70).target == 7


@pytest.mark.parametrize("time_limit", [float("inf"), float("-inf"), float("nan"), 0])
def test_config_rejects_time_limit_that_is_not_finite_and_positive(time_limit):
    from combopt.errors import DomainError

    with pytest.raises(DomainError, match="time_limit must be a finite number > 0"):
        SolverConfig(time_limit=time_limit)


# --- delta evaluation -------------------------------------------------------------


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _assert_scored_as(key, score, full) -> None:
    """The key and the score of a candidate equal the full evaluation of its
    state bit for bit: the objective, every root (the sign of a zero
    included), every violation and the first three key entries."""
    assert score.key is key or score.key == key
    assert key[0] == full.key[0]
    assert [_bits(v) for v in key[1:]] == [_bits(v) for v in full.key[1:3]]
    assert [_bits(v) for v in score.sums or ()] == [_bits(v) for v in full.sums or ()]
    assert [_bits(v) for v in score.violations] == [_bits(v) for v in full.violations]


def _assert_built_as(score, cand, full) -> Evaluation:
    """The state and the evaluation that ``score`` builds equal ``cand`` and
    its full evaluation ``full``; returns the evaluation."""
    moved, fast = score.build()
    assert moved == cand and score.build()[0] is moved  # built once
    assert _bits(fast.objective) == _bits(full.objective)
    assert [_bits(v) for v in fast.violations] == [_bits(v) for v in full.violations]
    assert type(fast.state_key) is int and fast.key == full.key
    return fast


def delta_walk(model, steps: int, accept: float, seed: int,
               tags: list | None = None) -> list[bool]:
    """Random walk comparing ``score_move`` and the evaluation it builds with
    the full evaluation of the moved state bit for bit.

    A model with a delta plan must score every candidate from its tag, and
    one without must evaluate every candidate in full.  Returns the
    feasibility of every candidate; ``tags``, when given, collects their tags.
    """
    plan, rng = model._plan, np.random.default_rng(seed)
    current = initial_state(model, rng)
    current_eval = model.evaluate_unchecked(current)
    feasible = []
    for _ in range(steps):
        move = draw_state_move(model, current, rng)
        score = model.score_move(current, current_eval, move)
        assert (score.built is None) is (plan is not None), move
        cand = State([apply_move(v, move[1]) if d == move[0] else v
                       for d, v in enumerate(current.values)])
        full = model.evaluate_unchecked(cand)
        if tags is not None:
            tags.append(move[1])
        _assert_scored_as(score.key, score, full)
        fast = _assert_built_as(score, cand, full)
        feasible.append(full.feasible)
        if rng.random() < accept:
            current, current_eval = cand, fast
    return feasible


def score_walk(model, steps: int, k: int | None, seed: int) -> tuple[int, int]:
    """Random walk comparing every scored candidate with the full evaluation
    of its state bit for bit.

    Each step scores ``k`` candidates with ``score_moves``, as a tabu step
    or an SA block does, or with ``k=None`` one with ``score_move``, as a
    per-move SA step does.  It builds every candidate and walks on to a
    random one, so later steps read fields derived from a flip's tag.
    Returns how many steps the plan scored as arrays
    (:meth:`~combopt.delta.DeltaPlan.block`) and how many it scored move by
    move.
    """
    plan, rng = model._plan, np.random.default_rng(seed)
    current = initial_state(model, rng)
    current_eval = model.evaluate_unchecked(current)
    arrays = 0
    for _ in range(steps):
        if k is None:
            moves = [draw_state_move(model, current, rng)]
            score = model.score_move(current, current_eval, moves[0])
            keys, score_of = [score.key], [score].__getitem__
        else:
            moves = draw_state_moves(model, current, rng, k)
            d = moves[0][0]
            block = move_arrays(moves, model.decisions[d].n)
            if block is not None:
                arrays += plan.block(current, current_eval, d, *block) is not None
            keys, score_of = model.score_moves(current, current_eval, moves)
        built = []
        for i, (d, tag) in enumerate(moves):
            cand = State([apply_move(v, tag) if e == d else v
                          for e, v in enumerate(current.values)])
            full = model.evaluate_unchecked(cand)
            score = score_of(i)
            _assert_scored_as(keys[i], score, full)
            built.append((cand, _assert_built_as(score, cand, full)))
        current, current_eval = built[int(rng.integers(len(built)))]
    return arrays, steps - arrays


def _mixed_model():
    """Two bit arrays: a sum of table gathers keyed by neighbouring bits,
    scalar roots, a sum of a whole decision, a unary minus inside a summand,
    both constraint directions, and weights with zeros and negatives."""
    rng = np.random.default_rng(5)
    m = Model()
    y = m.binary(8)
    x = m.binary(6)
    c = m.constant(rng.integers(-5, 6, (2, 2)))
    w = m.constant([3, 0, -2, 0, 1, -4])
    chain = c[y[:-1], y[1:]].sum() + c[y[-1], y[0]]
    m.minimize(chain - (abs(x[[0, 1, 2]] - x[[3, 4, 5]]) * w[[0, 1, 2]]).sum()
               + 2 * x[2] - (x * w).sum() + (-x[[3, 4, 5]] * w[[3, 4, 5]]).sum())
    m.add_constraint(x.sum() >= 3)
    m.add_constraint(y[0] + 2 * y[7] <= 1)
    return m.freeze()


def _signed_model():
    """A cut over hand-built edges: a self-loop, both directions of one edge,
    repeated edges, zero and negative weights, and a one-term root that is
    -0.0 whenever its bit is 0."""
    rng = np.random.default_rng(7)
    us, vs = rng.integers(0, 16, 60), rng.integers(0, 16, 60)
    ws = rng.integers(1, 10, 60)
    ws[:6] = [0, 0, -3, -5, -1, -8]
    extra = np.array([[4, 4, 7], [0, 1, 5], [1, 0, -2], [2, 5, 3], [2, 5, 3], [2, 5, 0]])
    us, vs, ws = (np.append(col, e) for col, e in zip((us, vs, ws), extra.T))
    m = Model()
    x = m.binary(16)
    cut = (abs(x[m.constant(us)] - x[m.constant(vs)]) * m.constant(ws)).sum()
    m.minimize(-cut + -(1.0 * x[3]))
    return m.freeze()


def _chain_model():
    """An objective added up term by term in Python: a chain of 1100 scalar
    additions, deeper than the default recursion limit."""
    m = Model()
    y = m.binary(40)
    x = m.binary(1060)
    total = y[0] * 2
    for i in range(1, 40):
        total = total + y[i] * (i % 5 - 2)
    for i in range(1060):
        total = total + x[i] * (i % 7 - 3)
    m.minimize(total)
    return m.freeze()


def _cast_model():
    """Gather keys of float type and a one-element constant: the full
    evaluation casts the keys to integers and broadcasts the constant."""
    rng = np.random.default_rng(13)
    m = Model()
    x = m.binary(12)
    us, vs = (m.constant(rng.integers(0, 12, 30)) for _ in range(2))
    c = m.constant([[1, 2], [3, 4]])
    m.minimize(c[x[us] * 1.0, x[vs]].sum() + (x[us] * m.constant([2])).sum())
    return m.freeze()


def _constsum_model():
    """A sum of constants beside the root: a tail subtree that reads no decision."""
    m = Model()
    x = m.binary(5)
    m.minimize((x * m.constant([3, 1, 4, 1, 5])).sum() + m.constant([1, 2]).sum())
    return m.freeze()


def _constrained_model():
    """One bit array under all three comparisons over its sums (a capacity, a
    cover and an exact count, which flips take to zero often) and a
    comparison of two constants, which no flip changes."""
    rng = np.random.default_rng(17)
    m = Model()
    x = m.binary(30)
    us, vs = (m.constant(rng.integers(0, 30, 40)) for _ in range(2))
    m.minimize(-(x * m.constant(rng.integers(-5, 10, 30))).sum() + 2 * (x[us] * x[vs]).sum())
    m.add_constraint((x * m.constant(rng.integers(1, 9, 30))).sum() <= 60)
    m.add_constraint(x.sum() >= 8)
    m.add_constraint(x[[0, 3, 5, 7]].sum() == 2)
    m.add_constraint(m.constant(1) <= m.constant(2))
    return m.freeze()


def _term_model():
    """A sum over a bit array beside the one-term root ``3 * x[2]``."""
    m = Model()
    x = m.binary(40)
    m.minimize((x * m.constant(np.arange(40) % 7 + 1)).sum() - 3 * x[2])
    return m.freeze()


def _zero_model():
    """A sum of signed weights over six bits, which flips take to zero often."""
    m = Model()
    x = m.binary(6)
    m.minimize((x * m.constant([1, -1, 2, -2, 1, -1])).sum())
    return m.freeze()


def _negzero_model():
    """A sum of bits times negative weights under a constraint: at ``x = 0``
    every term is -0.0."""
    m = Model()
    x = m.binary(4)
    total = (x * m.constant([-1, -2, -3, -4])).sum()
    m.minimize(total)
    m.add_constraint(total >= -6)
    return m.freeze()


def _setzero_model():
    """A set under sums of signed terms that adds, drops and exchanges take
    to zero often, one of them with -0.0 terms (the negated zero weights)."""
    m = Model()
    s = m.set(6)
    m.minimize((m.constant([1, -1, 2, -2, 1, -1])[s]).sum())
    m.add_constraint((-m.constant([0, 1, 0, 2, -1, -2])[s]).sum() <= 1)
    return m.freeze()


def _walk_model(data_dir, name):
    files = {
        "tsp7": (parse_tsplib, build_tsp_model, "tsp7.tsp"),
        "tsp9": (parse_tsplib, build_tsp_model, "tsp9.tsp"),
        "disc52": (parse_tsplib, build_tsp_model, "disc52.tsp"),
        "kp50": (parse_kplib, build_kp_model, "kp50.kp"),
        "mc10": (parse_maxcut, build_mcp_model, "mc10.mc"),
    }
    if name in files:
        parse, build, file = files[name]
        return build(parse((data_dir / file).read_text(), name)).freeze()
    if name == "mixed":
        return _mixed_model()
    if name == "chain":
        return _chain_model()
    if name == "signed":
        return _signed_model()
    if name == "cast":
        return _cast_model()
    if name == "constsum":
        return _constsum_model()
    if name == "constrained":
        return _constrained_model()
    if name == "term":
        return _term_model()
    if name == "zero":
        return _zero_model()
    if name == "negzero":
        return _negzero_model()
    if name == "setzero":
        return _setzero_model()
    n, density, seed = {"mc200": (200, 0.1, 11), "mc3": (3, 1.0, 2)}[name]
    return build_mcp_model(generate_random_maxcut(n, density, seed=seed)).freeze()


@pytest.mark.parametrize("accept", [1.0, 0.5])
@pytest.mark.parametrize(
    "name", ["tsp9", "disc52", "kp50", "mc10", "mc200", "mc3", "mixed", "chain", "signed",
             "cast", "constsum", "negzero", "setzero"])
def test_delta_evaluation_matches_full_evaluation(data_dir, name, accept):
    """The plan answers every move (``delta_walk`` checks it), the sums of the
    small models that reach zero often included."""
    model = _walk_model(data_dir, name)
    assert model._plan is not None
    steps = {"mc3": 400, "chain": 300}.get(name, 3000)
    answered: list = []
    feasible = delta_walk(model, steps, accept, seed=len(name), tags=answered)
    if name == "kp50":  # the walk crosses the capacity constraint both ways
        assert any(feasible) and not all(feasible)
    if name == "tsp9":  # the tour's ends and adjacent insertions both ways
        n = 9
        assert ("2opt", 0, n - 1) in answered
        assert any(t[0] == "2opt" and t[1] == 0 and t[2] < n - 1 for t in answered)
        assert any(t[0] == "2opt" and t[1] > 0 and t[2] == n - 1 for t in answered)
        assert any(t[0] == "ins" and t[2] == t[1] + 1 for t in answered)
        assert any(t[0] == "ins" and t[1] == t[2] + 1 for t in answered)
        assert any(t[0] == "swap" and t[2] > t[1] + 1 for t in answered)


@pytest.mark.parametrize(
    "name, k", [("mc200", 12), ("signed", 12), ("constrained", 12), ("term", 12),
                ("zero", 12), ("negzero", 12), ("mixed", 12), ("kp50", 12),
                ("setzero", 12), ("kp50", None), ("disc52", None)])
def test_scores_match_the_full_evaluation(data_dir, name, k):
    """Every score equals the full evaluation, whether a block of flips or set
    moves is scored as arrays or move by move: a drawn bit that a one-term
    root reads (``signed``, ``term``) sends a step move by move, as do flips
    of two bit arrays (``mixed``); sums that flips or set moves take to zero
    (``constrained``, ``zero``, ``negzero``, ``setzero``) are scored as
    arrays, and so are kp50's set moves.  kp50 and disc52 are scored one move
    at a time too, as a per-move SA step scores them."""
    model = _walk_model(data_dir, name)
    steps = 200 if name == "mc200" else 600
    arrays, moves = score_walk(model, steps, k, seed=len(name))
    if k is None:
        assert arrays == 0
    elif name in ("signed", "term"):
        assert arrays > 0 and moves > 0
    elif name != "mixed":
        assert moves == 0


def test_a_sum_that_comes_to_zero_is_positive_zero(monkeypatch):
    """A sum whose terms are all -0.0 is +0.0 in the full evaluation, even
    where numpy's reduction keeps the sign of a zero, as a left fold from the
    first term does; the plan gives the same bits from every state and each
    of its flips, one flip at a time and as a batch: the sum reaches zero
    from -1.0, -2.0, -3.0 and -4.0, and leaves it."""
    model = _negzero_model()
    monkeypatch.setattr(np, "sum", lambda a: functools.reduce(operator.add, np.ravel(a)))
    zero = model.evaluate(State([np.zeros(4, dtype=np.int64)]))
    assert [_bits(v) for v in (zero.objective, *zero.sums)] == [_bits(0.0)] * 2
    moves = [(0, ("flip", p)) for p in range(4)]
    for bits in itertools.product((0, 1), repeat=4):
        state = State([np.array(bits, dtype=np.int64)])
        ev = model.evaluate(state)
        keys, score_of = model.score_moves(state, ev, moves)
        for i, move in enumerate(moves):
            full = model.evaluate(state.moved(move))
            _assert_scored_as(keys[i], score_of(i), full)
            score = model.score_move(state, ev, move)
            _assert_scored_as(score.key, score, full)


@pytest.mark.parametrize(
    "name", ["tsp9", "disc52", "kp50", "mc10", "mc200", "mc3", "mixed", "chain", "signed",
             "cast", "constsum", "constrained", "term", "zero", "negzero", "setzero"])
def test_a_plan_answers_every_move(data_dir, name, monkeypatch):
    """A model with a delta plan scores every candidate from its tag, as a
    tabu step and an SA step score them: no rule, no plan update and no
    field returns None, and neither ``score_move`` nor ``score_moves``
    evaluates a candidate in full or builds its state."""
    model = _walk_model(data_dir, name)
    assert model._plan is not None
    scoring = False

    def outside_scoring(original):
        def spy(*args):
            assert not scoring, "a candidate was built or evaluated in full"
            return original(*args)
        return spy

    def answering(original):
        def spy(*args):
            found = original(*args)
            assert found is not None
            return found
        return spy

    monkeypatch.setattr(Model, "evaluate_unchecked", outside_scoring(Model.evaluate_unchecked))
    monkeypatch.setattr(State, "moved", outside_scoring(State.moved))
    for cls, method in [(delta._FlipSumRule, "flipped"), (delta._FlipTermRule, "update"),
                        (delta._SetRule, "update"), (delta._PathRule, "update"),
                        (delta._EntryRule, "update"), (delta.DeltaPlan, "update"),
                        (delta._FlipSumRule, "field")]:
        monkeypatch.setattr(cls, method, answering(getattr(cls, method)))
    rng = np.random.default_rng(len(name))
    current = initial_state(model, rng)
    current_eval = model.evaluate_unchecked(current)
    for _ in range(100 if name == "chain" else 300):
        moves = draw_state_moves(model, current, rng, 12)
        scoring = True
        keys, score_of = model.score_moves(current, current_eval, moves)
        scores = [score_of(i) for i in range(len(moves))]
        scores.append(model.score_move(current, current_eval, moves[0]))
        scoring = False
        current, current_eval = scores[int(rng.integers(len(scores)))].build()


def test_a_flip_calls_only_the_rules_that_read_its_bit(monkeypatch):
    """On the chain of 1100 one-term roots a flip calls the one root that reads
    its bit, and its build derives the fields of the sum rules of its
    decision, of which there are none."""
    model = _chain_model()
    plan = model._plan
    calls = []
    for cls, name in ((delta._FlipTermRule, "update"), (delta._FlipSumRule, "flipped")):
        def spy(self, *args, _original=getattr(cls, name)):
            calls.append(self)
            return _original(self, *args)

        monkeypatch.setattr(cls, name, spy)
    rng = np.random.default_rng(4)
    state = initial_state(model, rng)
    ev = model.evaluate_unchecked(state)
    for _ in range(300):
        d, tag = move = draw_state_move(model, state, rng)
        reading = [r for r in plan.rules[d]
                   if isinstance(r, delta._FlipSumRule) or tag[1] in (r.a, r.b)]
        calls.clear()
        state, ev = model.score_move(state, ev, move).build()
        assert 1 <= len(calls) <= len(reading), tag
    assert _bits(ev.objective) == _bits(model.evaluate_unchecked(state).objective)


def _field_arrays(ev) -> list:
    fields = ev.fields
    assert type(fields) is list and all(type(f) is np.ndarray for f in fields)
    return fields


def _assert_fields_of(plan, state, fields) -> None:
    for (d, rule), f in zip(plan.field_rules, fields):
        assert f.tobytes() == rule.field(state.values[d]).tobytes()


@pytest.mark.parametrize("name", ["mc200", "mixed"])
def test_flip_fields_equal_the_fields_of_their_states(data_dir, name):
    """The field a flip reads, and the one a candidate holds as soon as it is
    built, before any move is scored from it, equal its rule's field
    computed from scratch at the state, and no field array is ever written,
    a parent's included.  The walk takes evaluations made in full, whose
    fields are computed from scratch, and re-centres on older candidates,
    taken or not."""
    model = _walk_model(data_dir, name)
    plan = model._plan
    assert len(plan.field_rules) == {"mc200": 1, "mixed": 5}[name]
    rng = np.random.default_rng(23)
    current = initial_state(model, rng)
    current_eval = model.evaluate_unchecked(current)
    bases, offered = [], [(current, current_eval)]  # bases: (evaluation, field copies)
    for _ in range(3000):
        move = draw_state_move(model, current, rng)
        cand, ev = model.score_move(current, current_eval, move).build()
        _assert_fields_of(plan, cand, _field_arrays(ev))
        fields = _field_arrays(current_eval)
        _assert_fields_of(plan, current, fields)
        bases.append((current_eval, [f.copy() for f in fields]))
        for base, copies in bases[-20:]:
            assert [f.tobytes() for f in _field_arrays(base)] == [c.tobytes() for c in copies]
        offered.append((cand, ev))
        r = rng.random()
        if r < 0.03:  # re-centre on an older candidate
            current, current_eval = offered[int(rng.integers(len(offered)))]
        elif r < 0.1:  # a state offered with its full evaluation
            current, current_eval = cand, model.evaluate_unchecked(cand)
        elif r < 0.8:
            current, current_eval = cand, ev
    for base, copies in bases:
        assert [f.tobytes() for f in _field_arrays(base)] == [c.tobytes() for c in copies]


def _reaches_an_evaluation(root) -> bool:
    """Whether an :class:`Evaluation` is reachable from ``root`` through
    containers and arrays."""
    stack, seen = [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Evaluation):
            return True
        if isinstance(obj, (list, tuple, dict, np.ndarray)):
            stack.extend(gc.get_referents(obj))
    return False


@pytest.mark.parametrize("name", ["mc200", "mixed", "kp50"])
def test_no_evaluation_is_reachable_from_a_field_cache(data_dir, name):
    """An evaluation's cache is None or a list of arrays, never a link to
    its parent: a chain of tag-made evaluations would keep every one before
    it alive.  A model without a flip sum caches nothing."""
    model = _walk_model(data_dir, name)
    rng = np.random.default_rng(31)
    current = initial_state(model, rng)
    current_eval = model.evaluate_unchecked(current)
    evaluations = [current_eval]
    for _ in range(500):
        move = draw_state_move(model, current, rng)
        current, current_eval = model.score_move(current, current_eval, move).build()
        evaluations.append(current_eval)
    caches = [ev.fields for ev in evaluations]
    if model._plan.field_rules:
        assert all(c is None or type(c) is list and all(type(f) is np.ndarray for f in c)
                   for c in caches)
        assert any(type(c) is list for c in caches)
    else:
        assert caches == [None] * len(caches)
    assert not any(_reaches_an_evaluation(c) for c in caches)


def _float_tsp_model():
    c = random_tsp(7, seed=3).cost_matrix + 0.5 * (1 - np.eye(7))
    return build_tsp_model(TspInstance("f", 7, c))


def _asymmetric_tsp_model():
    """Integral distances, but one direction of each pair costs one more."""
    c = random_tsp(7, seed=3).cost_matrix + np.triu(np.ones((7, 7)), 1)
    return build_tsp_model(TspInstance("a", 7, c))


def _integer_model():
    m = Model()
    y = m.integer(5, lo=-2, hi=3)
    m.minimize((y * m.constant([1, -2, 3, 0, 4])).sum())
    return m


def _disjoint_lists_model():
    m = Model()
    cost = m.constant(np.arange(36).reshape(6, 6))
    m.minimize(sum((cost[p, p].sum() for p in m.disjoint_lists(6, 2)), m.constant(0)))
    return m


def _three_bit_model():
    """A sum whose terms each read three distinct bits: no pairwise form."""
    m = Model()
    x = m.binary(9)
    us, vs, ws = (m.constant((np.arange(9) + k) % 9) for k in range(3))
    m.minimize((x[us] * x[vs] * x[ws]).sum())
    return m


def _deep_summand_model():
    """A summand of 40 chained additions over one bit array, deeper than
    ``delta._MAX_DEPTH``."""
    m = Model()
    x = m.binary(6)
    term = x
    for _ in range(40):
        term = term + x
    m.minimize(term.sum())
    return m


@pytest.mark.parametrize(
    "build", [_float_tsp_model, _asymmetric_tsp_model, _integer_model,
              _disjoint_lists_model, _three_bit_model, _deep_summand_model])
def test_models_outside_the_delta_rules_evaluate_in_full(build, monkeypatch):
    """``score_move`` evaluates each candidate in full, equal bit for bit to
    the full evaluation, and builds it once: ``build`` returns the state built
    for the evaluation (``delta_walk`` builds its own copy without ``moved``)."""
    model = build().freeze()
    assert model._plan is None
    built, moved = [], State.moved

    def counting_moved(self, move):
        built.append(move)
        return moved(self, move)

    monkeypatch.setattr(State, "moved", counting_moved)
    delta_walk(model, 500, 0.5, seed=1)
    assert len(built) == 500


def test_gather_that_fails_only_for_some_sets_still_freezes():
    m = Model()
    items = m.set(5)
    m.minimize(m.constant([4, 5, 6])[items].sum())  # elements 3 and 4 have no weight
    m.freeze()
    assert m._plan is None
    assert m.evaluate(State([[0, 2]])).objective == 10.0


@pytest.mark.parametrize("name, kind, steps", [("kp50", "sa", 4000), ("mc200", "tabu", 400)])
def test_candidates_are_built_only_when_kept_or_tied(data_dir, monkeypatch, name, kind, steps):
    """A branch scores its candidates.  In each SA step it builds a state and
    an evaluation only for an accepted step, or for a candidate whose first
    three key entries tie with the key it is compared with, and builds each at
    most once.  A tabu step over every flip of a bit array builds exactly one
    candidate, the winner, and nothing else."""
    if name == "kp50":
        model = build_kp_model(parse_kplib((data_dir / "kp50.kp").read_text(), "kp50"))
    else:
        model = build_mcp_model(generate_random_maxcut(200, 0.1, seed=0))
    model.freeze()
    config = SolverConfig(seed=3, n_branches=1, max_steps=steps, cm_kind=kind)
    br = Branch(0, model, config, lambda: 0.0, 10.0)
    br.calibrate(model)  # each of its 100 probes builds its candidate
    assert (br.flips is not None) is (kind == "tabu")
    counts = {"built": 0, "evaluations": 0, "kept": 0, "tied": 0}
    over = []  # steps that built more evaluations than they kept or tied
    built = []  # the states built in the current step
    moved, offer, post_init = State.moved, Branch.offer, Evaluation.__post_init__
    cm_step, score_move = Branch.cm_step, Model.score_move

    def counting_moved(self, move):
        counts["built"] += 1
        built.append(moved(self, move))
        return built[-1]

    def counting_post_init(self):
        counts["evaluations"] += 1
        return post_init(self)

    def counting_offer(self, state, ev, source):
        counts["kept"] += source == "cm"
        return offer(self, state, ev, source)

    def counting_score_move(self, state, ev, move):  # an SA step compares with its state
        score = score_move(self, state, ev, move)
        counts["tied"] += score.key == br.current_eval.key[:3]
        return score

    def counting_cm_step(self, model):
        before = dict(counts)
        built.clear()
        cm_step(self, model)
        new = {name: counts[name] - before[name] for name in counts}
        if kind == "tabu":
            assert new == {"built": 1, "evaluations": 1, "kept": 1, "tied": 0}
            assert len(built) == 1 and built[0] is self.current
        elif new["evaluations"] > new["kept"] + new["tied"]:
            over.append(new)

    monkeypatch.setattr(State, "moved", counting_moved)
    monkeypatch.setattr(Evaluation, "__post_init__", counting_post_init)
    monkeypatch.setattr(Branch, "offer", counting_offer)
    monkeypatch.setattr(Branch, "cm_step", counting_cm_step)
    monkeypatch.setattr(Model, "score_move", counting_score_move)
    for _ in range(steps):
        br.step(model)
    assert 0 < counts["kept"] <= steps
    assert over == []
    assert counts["built"] <= counts["kept"] + counts["tied"]
    if kind == "sa":
        assert counts["built"] < steps / 4
    else:
        assert counts["built"] == counts["kept"] == steps


def test_frozen_model_pickles_with_its_delta_plan(data_dir, monkeypatch):
    data = [pickle.dumps(_walk_model(data_dir, name)) for name in ("mc200", "disc52", "kp50")]

    def no_compile(*args):
        raise AssertionError("unpickling compiled the delta plan again")

    monkeypatch.setattr(delta, "compile_plan", no_compile)
    for blob in data:
        model = pickle.loads(blob)
        assert model._plan is not None
        delta_walk(model, 200, 0.5, seed=3)  # the plan answers every move
