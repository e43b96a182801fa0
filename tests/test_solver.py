import itertools
import multiprocessing
import os
import pickle
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from combopt import Model, State, StateError
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
    initial_state,
    make_sample,
    propose,
    propose_state,
    qm_query,
    reverse_move,
    solve,
)
from combopt.solver import branch, portfolio
from combopt.solver.branch import Branch
from combopt.solver.moves import set_complement
from combopt.state import DecisionSpec


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
    results = [v == 0 for v in violations]
    return Evaluation(objective, results, list(violations), state_key=key)


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
        e = Evaluation(objective, [v == 0 for v in violations], list(violations),
                       state_key=state.digest())
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
        new, tag = propose(spec, value, rng)
        if tag == ("2opt", 1, 2):
            assert new.tolist() == [0, 2, 1, 3]
            seen.add("hit")
    assert "hit" in seen


def test_drop_from_empty_set_resamples_as_add():
    spec = DecisionSpec("set", 3)
    rng = np.random.default_rng(2)
    for _ in range(50):
        new, tag = propose(spec, np.empty(0, dtype=np.int64), rng)
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
    m = Model()
    m.list(7)
    m.set(6)
    m.binary(5)
    m.integer(4, lo=0, hi=3)
    m.disjoint_lists(8, 3)
    m.disjoint_bit_sets(6, 2)
    rng = np.random.default_rng(3)
    state = initial_state(m, rng)
    for _ in range(20_000):
        state, _ = propose_state(m, state, rng)
        errs = m.validate_state(state)
        assert errs == [], errs


def test_reverse_move_round_trip():
    assert reverse_move(("add", 3)) == ("drop", 3)
    assert reverse_move(("drop", 3)) == ("add", 3)
    assert reverse_move(("exch", 1, 2)) == ("exch", 2, 1)
    assert reverse_move(("ins", 4, 6)) == ("ins", 6, 4)
    assert reverse_move(("swap", 1, 2)) == ("swap", 1, 2)
    assert reverse_move((0, ("add", 1))) == (0, ("drop", 1))


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
    config = SolverConfig(time_limit=30.0, n_branches=1, seed=13,
                          max_steps=1500, qm_inline=True)
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


needs_fork = pytest.mark.skipif(not portfolio.fork_available(),
                                reason="branches run in this process without fork")


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
    monkeypatch.setattr(portfolio, "fork_available", lambda: False)
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
            assert br.current is not br.incumbent
            assert np.array_equal(br.current.values[0], br.incumbent.values[0])
            assert br.current_eval.key == br.incumbent_eval.key
    assert restarts >= 20 and moved > 0


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


@pytest.mark.parametrize("inline", [True, False])
def test_qm_sampler_failure_becomes_a_warning(monkeypatch, inline):
    def broken(*args, **kwargs):
        raise RuntimeError("sampler down")

    monkeypatch.setattr(branch, "sa_sample", broken)
    model = build_tsp_model(random_tsp(8, seed=25))
    result = solve(model, SolverConfig(time_limit=60.0, n_branches=1, seed=1,
                                        max_steps=2000, qm_inline=inline, qm_period=50))
    assert "branch 0: subproblem sampling failed: sampler down" in result.warnings
    assert result.best().feasible


@pytest.mark.parametrize("backend, pooled", [("numpy", False), ("numba", True)])
def test_qm_pool_only_for_the_gil_releasing_annealer(monkeypatch, backend, pooled):
    # the numpy annealer holds the GIL, so its queries run on the stepping thread
    made, threads = [], []

    class Recording(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs["thread_name_prefix"])
            super().__init__(*args, **kwargs)

    real = branch.sa_sample

    def spy(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(portfolio, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(portfolio, "default_backend", lambda: backend)
    monkeypatch.setattr(branch, "sa_sample", spy)
    model = build_tsp_model(random_tsp(8, seed=25))
    solve(model, SolverConfig(time_limit=60.0, n_branches=1, seed=1, max_steps=2000,
                              qm_period=50))
    assert made == (["qm"] if pooled else [])
    if pooled:
        assert all(name.startswith("qm") for name in threads)
    else:
        assert len(threads) == 39 and set(threads) == {threading.current_thread().name}


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("setting", ["qm_window", "tabu_candidates", "n_branches",
                                     "qm_period", "max_steps"])
def test_config_rejects_settings_below_one(setting, value):
    from combopt.errors import DomainError

    with pytest.raises(DomainError, match=f"{setting} must be >= 1"):
        SolverConfig(**{setting: value})


@pytest.mark.parametrize("value", ["no", 0, None])
@pytest.mark.parametrize("setting", ["qm_enabled", "qm_inline"])
def test_config_rejects_switches_that_are_not_bool(setting, value):
    from combopt.errors import DomainError

    with pytest.raises(DomainError, match=f"{setting} must be true or false"):
        SolverConfig(**{setting: value})


@pytest.mark.parametrize("time_limit", [float("inf"), float("-inf"), float("nan"), 0])
def test_config_rejects_time_limit_that_is_not_finite_and_positive(time_limit):
    from combopt.errors import DomainError

    with pytest.raises(DomainError, match="time_limit must be a finite number > 0"):
        SolverConfig(time_limit=time_limit)


# --- delta evaluation -------------------------------------------------------------


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def delta_walk(model, steps: int, accept: float, seed: int) -> tuple[int, list[bool]]:
    """Random ``propose_state`` walk comparing delta and full evaluation bit for bit.

    Returns how many candidates the delta plan evaluated (the rest fell back to
    the full evaluation) and the feasibility of every candidate.
    """
    rng = np.random.default_rng(seed)
    current = initial_state(model, rng)
    current_eval = model.evaluate_unchecked(current)
    plan = model._plan
    taken, feasible = 0, []
    for _ in range(steps):
        cand, move = propose_state(model, current, rng)
        delta = model.evaluate_unchecked(cand, (current, current_eval, move))
        full = model.evaluate_unchecked(cand)
        assert _bits(delta.objective) == _bits(full.objective), move
        assert delta.constraint_results == full.constraint_results, move
        assert [_bits(v) for v in delta.violations] == [_bits(v) for v in full.violations]
        assert delta.state_key == full.state_key
        if plan is not None and plan.update(cand, current, current_eval, move) is not None:
            taken += 1
        feasible.append(full.feasible)
        if rng.random() < accept:
            current, current_eval = cand, delta
    return taken, feasible


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


def _walk_model(data_dir, name):
    files = {
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
    n, density, seed = {"mc200": (200, 0.1, 11), "mc3": (3, 1.0, 2)}[name]
    return build_mcp_model(generate_random_maxcut(n, density, seed=seed)).freeze()


@pytest.mark.parametrize("accept", [1.0, 0.5])
@pytest.mark.parametrize(
    "name", ["tsp9", "disc52", "kp50", "mc10", "mc200", "mc3", "mixed", "chain"])
def test_delta_evaluation_matches_full_evaluation(data_dir, name, accept):
    model = _walk_model(data_dir, name)
    if name in ("tsp9", "disc52"):
        # a sum over a list gets no delta rule: a TSP model has no plan, and
        # an evaluation given a base must still equal the full one
        assert model._plan is None
        taken, _ = delta_walk(model, 1000, accept, seed=len(name))
        assert taken == 0
        return
    assert model._plan is not None
    steps = {"mc3": 400, "chain": 300}.get(name, 3000)
    taken, feasible = delta_walk(model, steps, accept, seed=len(name))
    # only a sum that reaches zero is recomputed in full, to get its sign right;
    # the sums of the two small models are zero often
    assert taken >= (0.5 if name in ("mc3", "mixed") else 0.99) * steps
    if name == "kp50":  # the walk crosses the capacity constraint both ways
        assert any(feasible) and not all(feasible)


def _float_tsp_model():
    c = random_tsp(7, seed=3).cost_matrix + 0.5 * (1 - np.eye(7))
    return build_tsp_model(TspInstance("f", 7, c))


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


@pytest.mark.parametrize("build", [_float_tsp_model, _integer_model, _disjoint_lists_model])
def test_models_outside_the_delta_rules_evaluate_in_full(build):
    model = build().freeze()
    assert model._plan is None
    taken, _ = delta_walk(model, 500, 0.5, seed=1)
    assert taken == 0


def test_gather_that_fails_only_for_some_sets_still_freezes():
    m = Model()
    items = m.set(5)
    m.minimize(m.constant([4, 5, 6])[items].sum())  # elements 3 and 4 have no weight
    m.freeze()
    assert m._plan is None
    assert m.evaluate(State([[0, 2]])).objective == 10.0


def test_frozen_model_pickles_with_its_delta_plan(data_dir):
    model = pickle.loads(pickle.dumps(_walk_model(data_dir, "mc200")))
    assert model._plan is not None
    taken, _ = delta_walk(model, 200, 0.5, seed=3)
    assert taken == 200
