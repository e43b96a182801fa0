import math

import numpy as np
import pytest

from combopt.errors import DomainError, ParseError
from combopt.problems import (
    KpInstance,
    McInstance,
    TspInstance,
    build_kp_model,
    exact_kp,
    exact_maxcut,
    exact_tsp,
    generate_random_maxcut,
    parse_kplib,
    parse_tsplib,
)
from combopt.qubo import (
    NUMBA_AVAILABLE,
    Qubo,
    auto_penalty,
    beta_schedule,
    kp_to_qubo,
    mcp_to_qubo,
    sa_sample,
    slack_coefficients,
    tsp_to_qubo,
)
from combopt.qubo import _kernels
from combopt.qubo.encode import mc_qubo, tour_qubo


def all_bitstrings(n):
    for code in range(1 << n):
        yield np.array([(code >> k) & 1 for k in range(n)], dtype=np.int8)


def random_tsp(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.integers(1, 100, (n, n)).astype(float)
    c = np.triu(c, 1)
    return TspInstance("t", n, c + c.T)


def random_kp(n, seed, cap_max=16):
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 8, n)
    v = rng.integers(0, 30, n)
    cap = int(rng.integers(1, cap_max))
    return KpInstance("k", n, v, w, cap)


# --- Qubo container ------------------------------------------------------------


def test_qubo_accumulates_and_drops_zeros():
    q = Qubo(3)
    q.add(0, 1, 2.0)
    q.add(1, 0, -2.0)
    assert q.m == 0
    q.add(2, 2, 1.5)
    assert q.terms == {(2, 2): 1.5}
    with pytest.raises(DomainError):
        q.add(0, 3, 1.0)
    with pytest.raises(DomainError):
        q.add(0, 0, np.inf)


def reference_terms(n, adds):
    """The dict accumulate loop that ``Qubo.add`` replaced, applied to each
    ``(i, j, coeff)`` in turn; array accumulation must match it bit for bit."""
    terms = {}
    for i, j, coeff in adds:
        if not 0 <= i < n or not 0 <= j < n:
            raise DomainError(f"index ({i}, {j}) out of range for n={n}")
        coeff = float(coeff)  # numpy scalars would break the text format's repr
        if not math.isfinite(coeff):
            raise DomainError("QUBO coefficients must be finite")
        key = (i, j) if i <= j else (j, i)
        new = terms.get(key, 0.0) + coeff
        if new == 0.0:
            terms.pop(key, None)
        else:
            terms[key] = new
    return terms


def reference_dense_and_fields(n, terms):
    """The per-term loops behind ``to_dense`` and ``fields`` before the arrays."""
    q = np.zeros((n, n))
    h = np.zeros(n)
    s = np.zeros((n, n))
    for (i, j), c in terms.items():
        q[i, j] = c
        if i == j:
            h[i] = c
        else:
            s[i, j] = c
            s[j, i] = c
    return q, h, s


def random_adds(rng):
    """Adds with duplicates, i > j, zeros, magnitudes 1e-3..1e3, and sums
    driven to exactly zero (then often added to again)."""
    n = int(rng.integers(1, 9))
    adds, running = [], {}
    for _ in range(int(rng.integers(1, 80))):
        i, j = (int(x) for x in rng.integers(0, n, 2))
        r = rng.random()
        if r < 0.15 and running:
            (i, j), c = list(running.items())[int(rng.integers(len(running)))]
            i, j, c = (j, i, -c) if rng.random() < 0.5 else (i, j, -c)
        elif r < 0.25:
            c = 0.0
        else:
            c = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
        adds.append((i, j, c))
        running = reference_terms(n, adds)
    return n, adds


def bits_of(terms):
    return {k: float(v).hex() for k, v in terms.items()}


@pytest.mark.parametrize("seed", range(40))
def test_array_add_matches_reference_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n, adds = random_adds(rng)
    q = Qubo(n)
    bounds = [0, *np.sort(rng.integers(0, len(adds) + 1, 3)), len(adds)]
    for lo, hi in zip(bounds, bounds[1:]):  # batches, some empty or of one add
        if hi - lo == 1 and rng.random() < 0.5:
            q.add(*adds[lo])  # the scalar form
        else:
            q.add(*(np.array(col) for col in list(zip(*adds[lo:hi])) or [(), (), ()]))
    ref = reference_terms(n, adds)
    assert bits_of(q.terms) == bits_of(ref)
    assert list(q.terms) == sorted(ref)
    q_ref, h_ref, s_ref = reference_dense_and_fields(n, ref)
    h, s = q.fields()
    for got, want in ((q.to_dense(), q_ref), (h, h_ref), (s, s_ref)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("i, j, c", [
    ([0, 1, 4], [1, 2, 0], [1.0, 2.0, 3.0]),
    ([0, -1], [1, 2], [1.0, 2.0]),
    ([0, 1, 2], [1, 2, 3], [1.0, np.nan, 3.0]),
    ([0, 1], [1, 2], [np.inf, 1.0]),
    ([0, 1, 2], [0, 1, 2], [1.0, 2.0, -np.inf]),
])
def test_array_add_rejects_bad_entries_and_leaves_qubo_unchanged(i, j, c):
    q = Qubo(4, offset=1.5)
    q.add([0, 3, 2], [1, 1, 2], [0.5, -2.0, 4.0])
    before = q.save_text()
    with pytest.raises(DomainError):
        q.add(np.array(i), np.array(j), np.array(c))
    assert q.save_text() == before


def test_qubo_energy_matches_dense_recomputation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        q = Qubo(n, offset=float(rng.normal()))
        for _ in range(n * 2):
            i, j = rng.integers(0, n, 2)
            q.add(int(min(i, j)), int(max(i, j)), float(rng.normal()))
        bits = rng.integers(0, 2, n)
        dense = q.to_dense()
        expected = float(bits @ dense @ bits) + q.offset
        assert q.energy(bits) == pytest.approx(expected, abs=1e-9)


def test_qubo_text_round_trip():
    q = Qubo(4, offset=2.5)
    q.add(0, 0, -1.0)
    q.add(0, 3, 4.25)
    q.add(1, 2, -0.375)
    again = Qubo.load_text(q.save_text())
    assert again == q


def test_qubo_load_rejects_malformed():
    with pytest.raises(ParseError):
        Qubo.load_text("1 2 3\n")
    with pytest.raises(ParseError):
        Qubo.load_text("p qubo 3 2\n0 1 1.0\n")


# --- encoders -------------------------------------------------------------------


def test_tsp_qubo_valid_tour_energy():
    inst = TspInstance("u3", 3, np.ones((3, 3)) - np.eye(3))
    qubo, decode = tsp_to_qubo(inst)
    # city v at position v: identity tour
    bits = np.eye(3, dtype=np.int8).reshape(-1)
    assert qubo.energy(bits) == pytest.approx(3.0)
    state = decode(bits)
    assert state is not None
    assert sorted(state.values[0].tolist()) == [0, 1, 2]


def test_tsp_qubo_all_zeros_penalty():
    inst = TspInstance("u3", 3, np.ones((3, 3)) - np.eye(3))
    a = 1.0 + 6 * 3  # six unit costs, each appearing once per position
    qubo, decode = tsp_to_qubo(inst)
    zeros = np.zeros(9, dtype=np.int8)
    assert qubo.energy(zeros) == pytest.approx(2 * 3 * a)
    assert decode(zeros) is None


def test_tsp_qubo_ground_state_is_optimal_tour():
    inst = random_tsp(3, seed=5)
    qubo, decode = tsp_to_qubo(inst)
    best_e, best_bits = min(
        ((qubo.energy(b), b) for b in all_bitstrings(9)), key=lambda t: t[0]
    )
    opt, _ = exact_tsp(inst)
    assert best_e == pytest.approx(opt)
    assert decode(best_bits) is not None


def test_kp_qubo_empty_selection_with_full_slack():
    inst = KpInstance("k", 2, [5, 6], [4, 7], 10)
    qubo, decode = kp_to_qubo(inst)
    slack = slack_coefficients(10)
    bits = np.zeros(2 + len(slack), dtype=np.int8)
    # choose slack bits summing to exactly the capacity
    remaining = 10
    for idx in range(len(slack) - 1, -1, -1):
        if slack[idx] <= remaining:
            bits[2 + idx] = 1
            remaining -= slack[idx]
    assert remaining == 0
    assert qubo.energy(bits) == pytest.approx(0.0)
    assert decode(bits) is not None


def test_kp_qubo_single_item_fitting_exactly():
    inst = KpInstance("k", 1, [9], [5], 5)
    qubo, _ = kp_to_qubo(inst)
    slack = slack_coefficients(5)
    bits = np.zeros(1 + len(slack), dtype=np.int8)
    bits[0] = 1
    assert qubo.energy(bits) == pytest.approx(-9.0)


def test_slack_coefficients_cover_exact_range():
    for cap in range(0, 40):
        coeffs = slack_coefficients(cap)
        sums = {0}
        for c in coeffs:
            sums |= {s + c for s in sums}
        assert sums == set(range(cap + 1))


def test_kp_auto_penalty_rule():
    assert auto_penalty([]) == 1.0
    assert auto_penalty([5, 6]) == 12.0
    assert auto_penalty([-5, 6]) == 12.0


def test_kp_penalty_dominance_exhaustive():
    # with the automatic coefficient, every infeasible bitstring sits strictly
    # above the feasible optimum
    for seed in range(25):
        inst = random_kp(4, seed=seed, cap_max=12)
        qubo, decode = kp_to_qubo(inst)
        assert qubo.n <= 10
        feasible_best = np.inf
        infeasible_best = np.inf
        for bits in all_bitstrings(qubo.n):
            e = qubo.energy(bits)
            if decode(bits) is None:
                infeasible_best = min(infeasible_best, e)
            else:
                feasible_best = min(feasible_best, e)
        assert feasible_best < infeasible_best


def test_kp_qubo_ground_state_matches_dp():
    for seed in range(10):
        inst = random_kp(5, seed=100 + seed, cap_max=32)
        qubo, decode = kp_to_qubo(inst)
        energies = qubo.energies(np.array(list(all_bitstrings(qubo.n))))
        best = int(np.argmin(energies))
        bits = np.array([(best >> k) & 1 for k in range(qubo.n)])
        state = decode(bits)
        assert state is not None
        opt, _ = exact_kp(inst)
        profit = int(inst.profits[state.values[0]].sum())
        assert profit == opt
        assert energies[best] == pytest.approx(-opt)


def test_mcp_qubo_basics():
    inst = McInstance("two", 2, [(0, 1, 5.0)])
    qubo, decode = mcp_to_qubo(inst)
    assert qubo.energy([0, 1]) == pytest.approx(-5.0)
    assert qubo.energy([1, 1]) == pytest.approx(0.0)
    assert qubo.energy([0, 0]) == pytest.approx(0.0)
    assert decode([0, 1]).values[0].tolist() == [0, 1]


def test_mcp_qubo_ground_state_matches_enumeration():
    inst = generate_random_maxcut(12, 0.5, (1, 9), seed=11)
    qubo, _ = mcp_to_qubo(inst)
    energies = qubo.energies(np.array(list(all_bitstrings(12))))
    opt, _ = exact_maxcut(inst)
    assert energies.min() == pytest.approx(-opt)


def test_mc_qubo_energy_is_the_negated_cut_with_the_fixed_nodes():
    """A window's energy is minus the cut of the state that sets its free
    nodes and keeps every other node at its fixed bit; with every node free
    it is :func:`mcp_to_qubo`, whatever the fixed bits."""
    inst = generate_random_maxcut(12, 0.5, (-4, 9), seed=8)
    n = inst.n
    fixed = np.random.default_rng(3).integers(0, 2, n)
    assert mc_qubo(inst, np.arange(n), fixed) == mcp_to_qubo(inst)[0]
    free = np.array([1, 4, 5, 9])
    qubo = mc_qubo(inst, free, fixed)
    u, v, w = inst.edge_arrays
    for bits in all_bitstrings(free.size):
        x = fixed.copy()
        x[free] = bits
        assert qubo.energy(bits) == pytest.approx(-w[x[u] != x[v]].sum())


def encode_kp_state(inst, qubo, state):
    """Canonical re-encoding of a feasible selection: items plus exact slack."""
    bits = np.zeros(qubo.n, dtype=np.int8)
    bits[state.values[0]] = 1
    remaining = inst.capacity - int(inst.weights[state.values[0]].sum())
    coeffs = slack_coefficients(inst.capacity)
    for idx in range(len(coeffs) - 1, -1, -1):
        if coeffs[idx] <= remaining:
            bits[inst.n + idx] = 1
            remaining -= coeffs[idx]
    assert remaining == 0
    return bits


def test_decoder_encoder_energy_consistency():
    # re-encoding a decoded feasible selection reproduces the model objective
    # (the penalty vanishes, leaving only the profit part)
    inst = random_kp(5, seed=9, cap_max=24)
    qubo, decode = kp_to_qubo(inst)
    model = build_kp_model(inst)
    for bits in all_bitstrings(qubo.n):
        state = decode(bits)
        if state is None:
            continue
        ev = model.evaluate(state)
        assert ev.feasible
        reencoded = encode_kp_state(inst, qubo, state)
        assert qubo.energy(reencoded) == pytest.approx(ev.objective, abs=1e-9)


# --- sampler ---------------------------------------------------------------------


def test_sa_sample_single_variable():
    q = Qubo(1)
    q.add(0, 0, -1.0)
    for bits, energy in sa_sample(q, reads=8, sweeps=16, seed=3):
        assert bits.tolist() == [1]
        assert energy == -1.0


def test_sa_sample_zero_qubo():
    q = Qubo(3)
    for bits, energy in sa_sample(q, reads=4, sweeps=8, seed=1):
        assert energy == 0.0
        assert set(bits.tolist()) <= {0, 1}


def test_sa_sample_deterministic_per_seed():
    inst = generate_random_maxcut(15, 0.5, (1, 9), seed=2)
    qubo, _ = mcp_to_qubo(inst)
    a = sa_sample(qubo, reads=6, sweeps=50, seed=42)
    b = sa_sample(qubo, reads=6, sweeps=50, seed=42)
    for (ba, ea), (bb, eb) in zip(a, b):
        assert np.array_equal(ba, bb) and ea == eb
    c = sa_sample(qubo, reads=6, sweeps=50, seed=43)
    assert any(not np.array_equal(x[0], y[0]) for x, y in zip(a, c))


def test_sa_sample_energy_matches_recomputation():
    inst = generate_random_maxcut(18, 0.6, (1, 9), seed=5)
    qubo, _ = mcp_to_qubo(inst)
    for bits, energy in sa_sample(qubo, reads=10, sweeps=40, seed=7):
        assert energy == pytest.approx(qubo.energy(bits), abs=1e-9)


def test_beta_schedule_bounds_match_term_magnitudes():
    mixed = Qubo(4)
    mixed.add(0, 0, 0.375)
    mixed.add(1, 3, -2.5)
    mixed.add(2, 2, -7.0)
    for qubo in (
        mixed,
        Qubo(3),
        mcp_to_qubo(generate_random_maxcut(12, 0.5, (1, 9), seed=3))[0],
        tsp_to_qubo(random_tsp(4, seed=1))[0],
        kp_to_qubo(random_kp(6, seed=2))[0],
    ):
        per_var = np.zeros(qubo.n)
        for (i, j), c in qubo.terms.items():
            per_var[i] += abs(c)
            if i != j:
                per_var[j] += abs(c)
        magnitudes = [abs(c) for c in qubo.terms.values()]
        betas = beta_schedule(*qubo.fields(), 50)
        if not magnitudes:
            assert betas.tolist() == [1.0] * 50
            continue
        assert betas[-1] == np.log(100.0) / min(magnitudes)
        assert betas[0] == pytest.approx(np.log(2.0) / per_var.max(), rel=1e-12)


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba disabled or unavailable")
def test_backends_are_bit_identical():
    rng = np.random.default_rng(0)
    for trial in range(5):
        n = int(rng.integers(2, 20))
        q = Qubo(n)
        for _ in range(3 * n):
            i, j = sorted(rng.integers(0, n, 2))
            q.add(int(i), int(j), float(np.round(rng.normal() * 4, 3)))
        a = sa_sample(q, reads=5, sweeps=60, seed=trial, backend="numba")
        b = sa_sample(q, reads=5, sweeps=60, seed=trial, backend="numpy")
        for (ba, ea), (bb, eb) in zip(a, b):
            assert np.array_equal(ba, bb)
            assert ea == eb


def reference_anneal(h, s, betas, reads, key_init, key_flip):
    """The straightforward numpy annealer, one uniforms() call per sweep and
    numpy scalars throughout; ``_kernels.anneal_numpy`` must reproduce it bit
    for bit."""
    random_bits, uniforms = _kernels.random_bits, _kernels.uniforms
    n = h.shape[0]
    sweeps = betas.shape[0]
    best_bits = np.zeros((reads, n), dtype=np.int8)
    best_energy = np.zeros(reads)
    exp = math.exp
    for r in range(reads):
        bits = np.zeros(n, dtype=np.int8)
        field = h.copy()
        energy = 0.0
        init = random_bits(key_init, r * n, n)
        for i in range(n):
            if init[i]:
                de = field[i]  # bit 0 -> 1
                bits[i] = 1
                energy += de
                field += s[:, i]
        best_e = energy
        best_b = bits.copy()
        for sw in range(sweeps):
            beta = betas[sw]
            us = uniforms(key_flip, (r * sweeps + sw) * n, n)
            for i in range(n):
                de = field[i] if bits[i] == 0 else -field[i]
                if de <= 0.0 or us[i] < exp(-beta * de):
                    if bits[i] == 0:
                        bits[i] = 1
                        field += s[:, i]
                    else:
                        bits[i] = 0
                        field -= s[:, i]
                    energy += de
                    if energy < best_e:
                        best_e = energy
                        best_b[:] = bits
        best_bits[r] = best_b
        best_energy[r] = best_e
    return best_bits, best_energy


def assert_kernel_matches_reference(h, s, reads, sweeps, seed):
    betas = beta_schedule(h, s, sweeps)
    keys = (_kernels.stream_key(seed, 0x1234), _kernels.stream_key(seed, 0x5678))
    bits, energy = _kernels.anneal_numpy(h, s, betas, reads, *keys)
    ref_bits, ref_energy = reference_anneal(h, s, betas, reads, *keys)
    assert bits.dtype == ref_bits.dtype and energy.dtype == ref_energy.dtype
    assert np.array_equal(bits, ref_bits)
    assert energy.tobytes() == ref_energy.tobytes()


@pytest.mark.parametrize("n", range(1, 41))
def test_numpy_kernel_matches_reference_on_random_qubos(n):
    # few distinct integer coefficients, so zeros, repeats and zero-cost
    # flips (de == 0) all occur
    rng = np.random.default_rng(n)
    h = rng.choice([-3.0, -1.0, 0.0, 0.0, 1.0, 2.0], n)
    s = np.triu(rng.choice([-2.0, 0.0, 0.0, 0.0, 1.0, 1.5], (n, n)), 1)
    assert_kernel_matches_reference(h, s + s.T, reads=3, sweeps=20, seed=n)
    assert_kernel_matches_reference(np.zeros(n), np.zeros((n, n)), reads=2, sweeps=3, seed=n)


def spy_next_flip(monkeypatch) -> list:
    """What each look-ahead of ``anneal_numpy`` finds: the offset of the
    next accepted visit among the uniforms it scans, or None."""
    calls, next_flip = [], _kernels._next_flip

    def spy(de, neg_betas, u):
        found = next_flip(de, neg_betas, u)
        calls.append(found)
        return found

    monkeypatch.setattr(_kernels, "_next_flip", spy)
    return calls


def test_numpy_kernel_matches_reference_on_workload_qubos(data_dir, monkeypatch):
    tsp = parse_tsplib((data_dir / "disc52.tsp").read_text(), "disc52")
    c, cities = tsp.cost_matrix, np.arange(5, 21)
    window = tour_qubo(c[np.ix_(cities, cities)], ends=(c[4, cities], c[cities, 21]))
    kp50 = kp_to_qubo(parse_kplib((data_dir / "kp50.kp").read_text(), "kp50"))[0]
    mc200 = mcp_to_qubo(generate_random_maxcut(200, 0.1, seed=0))[0]
    assert (window.n, mc200.n) == (256, 200)
    for seed, qubo in enumerate((window, kp50, mc200)):
        assert_kernel_matches_reference(*qubo.fields(), reads=2, sweeps=12, seed=seed)
    # the inline QM setting on a 16-city window: a whole sweep that flips
    # nothing occurs, so the kernel looks ahead past it
    looked = spy_next_flip(monkeypatch)
    assert_kernel_matches_reference(*window.fields(), reads=4, sweeps=64, seed=3)
    assert looked


def test_numpy_kernel_looks_ahead_past_exp_underflow(monkeypatch):
    """32 pairs whose bits gain only together, over an uphill flip of the
    pair's own ``d`` in 1..3, and 8 bits pinned by a field of 1000.  Late in
    the schedule whole sweeps flip nothing, a look-ahead finds the next pair
    to flip or none, and exp(-beta * 1000) underflows to 0 in its filter and
    in the scalar test."""
    rng = np.random.default_rng(0)
    d = rng.choice([1.0, 2.0, 3.0], 32)
    h = np.concatenate([np.repeat(d, 2), np.full(8, 1000.0)])
    s = np.zeros((72, 72))
    a = np.arange(0, 64, 2)
    s[a, a + 1] = s[a + 1, a] = -3 * d
    assert h.size >= _kernels._LOOKAHEAD_MIN
    betas = beta_schedule(h, s, 60)
    assert math.exp(-betas[-1] * 1000.0) == 0.0 == np.exp(-betas[-1] * 1000.0)
    looked = spy_next_flip(monkeypatch)
    assert_kernel_matches_reference(h, s, reads=8, sweeps=60, seed=0)
    assert None in looked and any(k is not None for k in looked)
    # uniforms blocks of three sweeps: a look-ahead stops at its block's end
    looked.clear()
    monkeypatch.setattr(_kernels, "_UNIFORM_BLOCK", 3 * h.size)
    assert_kernel_matches_reference(h, s, reads=8, sweeps=60, seed=0)
    assert None in looked and any(k is not None for k in looked)


def test_numpy_kernel_matches_reference_across_uniform_blocks(monkeypatch):
    qubo = mcp_to_qubo(generate_random_maxcut(40, 0.3, (1, 9), seed=4))[0]
    sweeps = _kernels._UNIFORM_BLOCK // qubo.n + 7  # one full block and part of a second
    assert sweeps * qubo.n > _kernels._UNIFORM_BLOCK
    assert_kernel_matches_reference(*qubo.fields(), reads=1, sweeps=sweeps, seed=5)
    # a cap below n still draws one whole sweep per block
    monkeypatch.setattr(_kernels, "_UNIFORM_BLOCK", 7)
    assert_kernel_matches_reference(*qubo.fields(), reads=2, sweeps=9, seed=6)


def test_uniforms_blocks_concatenate():
    key = _kernels.stream_key(9, 0x5678)
    for start, m1, m2 in ((0, 1, 1), (5, 37, 100), (2**40, 1000, 3)):
        joined = np.concatenate(
            [_kernels.uniforms(key, start, m1), _kernels.uniforms(key, start + m1, m2)]
        )
        assert np.array_equal(joined, _kernels.uniforms(key, start, m1 + m2))


def test_sa_sample_finds_small_maxcut_optimum():
    # MC_10-scale: best of 100 reads equals the exhaustive optimum in at least
    # 95 of 100 seeded trials
    hits = 0
    for seed in range(100):
        inst = generate_random_maxcut(10, 0.8, (1, 10), seed=1000 + seed)
        qubo, _ = mcp_to_qubo(inst)
        opt, _ = exact_maxcut(inst)
        best = min(e for _, e in sa_sample(qubo, reads=100, sweeps=30, seed=seed))
        hits += best == pytest.approx(-opt)
    assert hits >= 95


def test_splitmix_uniforms_in_range_and_deterministic():
    key = _kernels.stream_key(123, 7)
    u1 = _kernels.uniforms(key, 0, 1000)
    u2 = _kernels.uniforms(key, 0, 1000)
    assert np.array_equal(u1, u2)
    assert (u1 >= 0).all() and (u1 < 1).all()
    # crude uniformity: mean near 1/2, spread over deciles
    assert abs(u1.mean() - 0.5) < 0.05
    assert len(np.unique((u1 * 10).astype(int))) == 10


def test_fixed_penalty_value_used():
    inst = KpInstance("k", 2, [5, 6], [4, 7], 10)
    auto_qubo, _ = kp_to_qubo(inst)
    fixed_qubo, _ = kp_to_qubo(inst, penalty=1000.0)
    assert fixed_qubo != auto_qubo
    # the all-ones selection is overweight; a bigger penalty raises its energy
    bits = np.ones(auto_qubo.n, dtype=np.int8)
    assert fixed_qubo.energy(bits) > auto_qubo.energy(bits)


def test_nonpositive_fixed_penalty_rejected():
    inst = KpInstance("k", 2, [5, 6], [4, 7], 10)
    with pytest.raises(DomainError):
        kp_to_qubo(inst, penalty=0.0)
    with pytest.raises(DomainError):
        tsp_to_qubo(TspInstance("t", 2, np.zeros((2, 2))), penalty=-3.0)
