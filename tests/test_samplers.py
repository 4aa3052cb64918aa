"""Samplers: truncation policy, marginals, chain rule, blocks, single photons."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from blsampler import (
    BlockApproxSampler,
    ChainRuleEngine,
    DistinguishableFockSampler,
    TruncationPolicy,
    block_approx_covariance,
    build_lattice,
    distinguishable_fock_sample,
    accumulate_unitary,
    source_columns,
    empirical_distribution,
    enumerate_gbs_distribution,
    product_distribution,
    quad_to_complex,
    reduce_complex,
    sample_random_circuit,
    state_covariance,
    truncation_threshold,
    tvd,
)
from blsampler.chainrule import MAX_SAMPLE_RESTARTS
from blsampler.diagnostics import Distribution
from blsampler.errors import SamplingError, SizeCapError
from blsampler.gaussian import a_matrix
from blsampler.kernels import LOW_RANK_COLUMN_CAP, hafnian_general
from blsampler.lattice import MAX_MODE_CELLS
from blsampler.samplers import (
    _block_total_law,
    _inverse_cdf,
    _pair_quantile,
    _sech2,
)
from reference import marginal_prob


def _pure_sigma(dim, n_sources, edge, depth, r, seed):
    lat = build_lattice(dim, n_sources, edge)
    circ = sample_random_circuit(lat, depth, np.random.default_rng(seed))
    return lat, quad_to_complex(state_covariance(circ, lat, r))


# ----------------------------------------------------------------- policy


def test_truncation_threshold_reference_values():
    # the earlier rule's floor keeps N=2 and N=8 at r=0.5 (44 and 52); from
    # r=1 the exact quantile takes over: (1, 1.0) used to get 24 photons,
    # which drop 8.4e-4 of the mass
    budgets = {(2, 0.5): 44, (8, 0.5): 52, (2, 1.0): 50, (8, 1.0): 74, (8, 1.5): 210,
               (2, 2.5): 1024, (4, 1.0): 60, (3, 0.1): 56, (1, 1.0): 44}
    for (n, r), budget in budgets.items():
        pol = truncation_threshold(n, r, 1e-6)
        assert (pol.n_total_max, pol.n_mode_max) == (budget, budget), (n, r)


def _pair_tail_oracle(k, n_sources, sech2):
    """P(K > k) for the pair count K ~ NegBin(N/2, sech2), summed term by
    term from lgamma until the terms past the mode are 60 e-folds below the
    largest."""
    if sech2 == 1.0:
        return 0.0
    a, log_p, log_q = n_sources / 2, math.log(sech2), math.log1p(-sech2)
    mode = (a - 1) * (1 - sech2) / sech2
    total, top = 0.0, -math.inf
    for j in itertools.count(k + 1):
        log_term = (math.lgamma(j + a) - math.lgamma(a) - math.lgamma(j + 1)
                    + a * log_p + j * log_q)
        top = max(top, log_term)
        if j > mode and log_term < top - 60:
            return total
        total += math.exp(log_term)


@pytest.mark.parametrize("n_sources", [1, 2, 3, 8, 64, 4096])
def test_photon_budget_is_the_exact_pair_quantile_floored(n_sources):
    for r, eps in itertools.product([0, 0.05, 0.5, 1, 2.5], [1e-12, 1e-6, 0.3]):
        sech2 = _sech2(r)
        k = _pair_quantile(n_sources / 2, sech2, eps, 10**6)
        assert _pair_tail_oracle(k, n_sources, sech2) <= eps, (r, eps)
        if k > 0:  # and no smaller k will do
            assert _pair_tail_oracle(k - 1, n_sources, sech2) > eps, (r, eps)
        floor = math.ceil(max(2 * sech2 * math.log(1 / eps), 4 * n_sources * sech2))
        budget = 2 * max(k, floor)
        if n_sources * (budget + 2) > MAX_MODE_CELLS:  # the block laws' cells
            with pytest.raises(SizeCapError, match="photon budget above"):
                truncation_threshold(n_sources, r, eps)
        else:
            pol = truncation_threshold(n_sources, r, eps)
            assert pol.n_total_max == budget, (r, eps)
            assert _pair_tail_oracle(budget // 2, n_sources, sech2) <= eps


def test_photon_budget_refuses_past_the_callers_cap():
    # (2, 1.0) needs 50 photons; sech^2 r underflows to 0 from r ~ 372
    assert truncation_threshold(2, 1.0, 1e-6, max_photons=50).n_total_max == 50
    for r, cap in [(1.0, 49), (200.0, 10**6), (400.0, 10**6)]:
        with pytest.raises(SizeCapError, match=f"photon budget above {cap}"):
            truncation_threshold(2, r, 1e-6, max_photons=cap)


def test_block_laws_keep_all_but_epsilon_at_the_budget():
    # the sample-approx pin's config: a block total is at most twice its
    # source's pairs, so each block law at the budget keeps >= 1 - eps of
    # its closed form; the earlier 24-photon budget did not
    lat = build_lattice(2, 4, 2)
    circ = sample_random_circuit(lat, 3, np.random.default_rng([5]))
    columns = source_columns(circ)
    budget = truncation_threshold(4, 1.0, 1e-6).n_total_max
    assert budget == 60
    kept = []
    for cap in (24, budget):
        for b, modes in enumerate(lat.sublattices):
            q = float(np.sum(np.abs(columns[modes, b]) ** 2))
            assert 0.0 < q <= 1.0 + 1e-12
            law = _block_total_law(1.0, min(q, 1.0), 200)  # mass past 200 < 1e-20
            kept.append((cap, law[: cap + 1].sum()))
    assert min(m for cap, m in kept if cap == budget) >= 1 - 1e-6
    assert min(m for cap, m in kept if cap == 24) < 1 - 1e-6


def test_truncation_floor_guard_dominates_for_tiny_tails():
    # with a loose epsilon the 4-pairs-per-source floor takes over
    pol = truncation_threshold(6, 0.5, 0.5)
    floor = math.ceil(4 * 6 / math.cosh(0.5) ** 2)
    assert pol.n_total_max == 2 * floor


def test_truncation_threshold_rejects_bad_epsilon():
    for eps in [0.0, 1.0, -0.5, 2.0]:
        with pytest.raises(ValueError):
            truncation_threshold(2, 0.5, eps)


def test_policy_validates_ordering():
    with pytest.raises(ValueError):
        TruncationPolicy(epsilon=1e-6, n_total_max=4, n_mode_max=6)


def test_policy_per_mode_cap_is_the_total_budget():
    assert TruncationPolicy(1e-6, 8).n_mode_max == 8
    assert TruncationPolicy(1e-6, 8, 8) == TruncationPolicy(1e-6, 8)
    for cap in (0, 3, 7):  # a per-mode cap below the total is refused
        with pytest.raises(ValueError, match="n_mode_max must equal"):
            TruncationPolicy(1e-6, 8, cap)
    with pytest.raises(ValueError):
        TruncationPolicy(1e-6, -1)


# --------------------------------------------------------------- marginals


def test_single_mode_closed_forms():
    lat, sigma = _pure_sigma(1, 1, 1, 0, 0.5, 0)
    sech = 1.0 / math.cosh(0.5)
    assert marginal_prob(sigma, [0]) == pytest.approx(sech, abs=1e-12)
    assert marginal_prob(sigma, [1]) == pytest.approx(0.0, abs=1e-12)
    assert marginal_prob(sigma, [2]) == pytest.approx(
        sech * math.tanh(0.5) ** 2 / 2.0, abs=1e-12
    )
    assert marginal_prob(sigma, [3]) == pytest.approx(0.0, abs=1e-12)


def test_marginal_prob_vacuum_point_mass():
    lat, sigma = _pure_sigma(1, 2, 2, 3, 0.0, 1)
    assert marginal_prob(sigma, [0, 0, 0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert marginal_prob(sigma, [1, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)


def test_marginal_prob_validates_counts():
    lat, sigma = _pure_sigma(1, 1, 2, 1, 0.4, 2)
    with pytest.raises(ValueError):
        marginal_prob(sigma, [0])  # wrong length
    with pytest.raises(ValueError):
        marginal_prob(sigma, [0, -1])


def test_marginals_sum_to_one_over_truncated_support():
    lat, sigma = _pure_sigma(1, 1, 2, 2, 0.6, 3)
    total = 0.0
    for n0 in range(14):
        for n1 in range(14):
            total += marginal_prob(sigma, [n0, n1])
    # tail mass beyond 13 photons per mode at r=0.6 is ~3e-6
    assert total == pytest.approx(1.0, abs=1e-5)


def test_partial_marginal_consistency():
    # marginal over a mode subset equals the reduced-state marginal
    lat, sigma = _pure_sigma(1, 2, 2, 3, 0.5, 4)
    red = reduce_complex(sigma, [0, 1])
    direct = marginal_prob(red, [1, 1])
    summed = sum(
        marginal_prob(sigma, [1, 1, a, b]) for a in range(12) for b in range(12)
    )
    # remaining tail over the summed-out pair is ~4e-7
    assert summed == pytest.approx(direct, abs=1e-6)


# -------------------------------------------------------------- chain rule


def test_chain_rule_prefix_probabilities_match_marginals():
    lat, sigma = _pure_sigma(1, 2, 2, 4, 0.5, 5)
    policy = truncation_threshold(2, 0.5, 1e-6)
    engine = ChainRuleEngine(sigma, policy)
    rng = np.random.default_rng(17)
    for _ in range(5):
        counts = engine.sample(rng)
        # walk the prefix chain manually and compare against direct marginals
        prefix: list[int] = []
        prob = 1.0
        for k, n in enumerate(counts):
            joints = engine.conditional_joints(tuple(prefix), prob)
            prob = joints[n]
            prefix.append(int(n))
        direct = marginal_prob(
            reduce_complex(sigma, list(range(len(prefix)))), prefix
        )
        assert prob == pytest.approx(direct, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("n_sources, edge", [(1, 3), (2, 2)])
def test_marginal_prob_equals_every_sweep_entry(n_sources, edge):
    # marginal_prob multiplies the same forms in the same order as the
    # engine's incremental sweep, so every entry agrees bit for bit
    lat, sigma = _pure_sigma(1, n_sources, edge, 3, 0.5, 41)
    engine = ChainRuleEngine(sigma, TruncationPolicy(1e-6, 8))
    for k in range(1, lat.n_modes + 1):
        reduced = reduce_complex(sigma, list(range(k)))
        for prefix in itertools.product(range(3), repeat=k - 1):
            joints = engine.conditional_joints(prefix, None)
            assert joints.shape == (9 - sum(prefix),)
            for n, joint in enumerate(joints):
                assert marginal_prob(reduced, prefix + (n,)) == joint, (prefix, n)


def test_engine_sweep_does_not_depend_on_earlier_calls():
    # the full window and the early-stopped sweep of one prefix are two
    # different sweeps: neither may be served from the cache for the other
    lat, sigma = _pure_sigma(1, 2, 2, 3, 0.8, 9)
    policy = truncation_threshold(2, 0.8, 1e-6)
    fresh = ChainRuleEngine(sigma, policy).conditional_joints((), 1.0)
    engine = ChainRuleEngine(sigma, policy)
    full = engine.conditional_joints((), None)
    assert full.shape == (policy.n_total_max + 1,)
    assert fresh.shape[0] < full.shape[0]
    assert np.array_equal(engine.conditional_joints((), 1.0), fresh)
    assert np.array_equal(engine.conditional_joints((), None), full)


def test_exact_sampler_vacuum_is_all_zeros():
    lat, sigma = _pure_sigma(1, 2, 2, 3, 0.0, 6)
    policy = truncation_threshold(2, 0.0, 1e-6)
    for i in range(5):
        counts = ChainRuleEngine(sigma, policy).sample(np.random.default_rng([6, i]))
        assert counts.tolist() == [0, 0, 0, 0]


def test_exact_sampler_photon_parity_is_even():
    lat, sigma = _pure_sigma(1, 1, 2, 3, 0.8, 7)
    policy = truncation_threshold(1, 0.8, 1e-6)
    engine = ChainRuleEngine(sigma, policy)
    rng = np.random.default_rng(23)
    totals = np.array([engine.sample(rng).sum() for _ in range(2000)])
    assert (totals % 2 == 0).all()


def test_exact_sampler_matches_two_mode_statistics():
    lat, sigma = _pure_sigma(1, 1, 2, 2, 0.6, 8)
    policy = truncation_threshold(1, 0.6, 1e-6)
    engine = ChainRuleEngine(sigma, policy)
    rng = np.random.default_rng(29)
    n = 20000
    freq: dict = {}
    for _ in range(n):
        key = tuple(engine.sample(rng).tolist())
        freq[key] = freq.get(key, 0) + 1
    # compare the few dominant outcomes against direct marginals
    for key, count in freq.items():
        if count < 200:
            continue
        p = marginal_prob(sigma, list(key))
        assert count / n == pytest.approx(p, abs=4.0 * math.sqrt(p / n))


def _underflowing(monkeypatch, engine, n_bad):
    """Make the engine's first ``n_bad`` sweeps underflow; returns the
    list of prefixes swept."""
    real, swept = engine.conditional_joints, []

    def sweep(prefix, prefix_prob):
        swept.append(prefix)
        if len(swept) <= n_bad:
            return np.array([1e-310, 0.0])
        return real(prefix, prefix_prob)

    monkeypatch.setattr(engine, "conditional_joints", sweep)
    return swept


def test_exact_sampler_restarts_after_an_underflow(monkeypatch, caplog):
    lat, sigma = _pure_sigma(1, 2, 2, 4, 0.5, 9)
    policy = truncation_threshold(2, 0.5, 1e-6)
    engine = ChainRuleEngine(sigma, policy)
    swept = _underflowing(monkeypatch, engine, 1)
    counts = engine.sample(np.random.default_rng([4, 7]))
    # the failed attempt drew no uniform, so the retry reads the stream
    # a clean draw reads
    expected = ChainRuleEngine(sigma, policy).sample(np.random.default_rng([4, 7]))
    assert np.array_equal(counts, expected)
    assert swept[:2] == [(), ()] and len(swept) == 1 + lat.n_modes
    assert "restarting sample (attempt 1)" in caplog.text


def test_exact_sampler_gives_up_after_max_restarts(monkeypatch):
    lat, sigma = _pure_sigma(1, 2, 2, 4, 0.5, 9)
    engine = ChainRuleEngine(sigma, truncation_threshold(2, 0.5, 1e-6))
    swept = _underflowing(monkeypatch, engine, MAX_SAMPLE_RESTARTS + 1)
    with pytest.raises(SamplingError, match=f"in {MAX_SAMPLE_RESTARTS} attempts"):
        engine.sample(np.random.default_rng(3))
    assert swept == [()] * MAX_SAMPLE_RESTARTS


def test_exact_sampler_is_stream_deterministic():
    lat, sigma = _pure_sigma(1, 2, 2, 4, 0.5, 9)
    policy = truncation_threshold(2, 0.5, 1e-6)
    a = ChainRuleEngine(sigma, policy).sample(np.random.default_rng([4, 7]))
    b = ChainRuleEngine(sigma, policy).sample(np.random.default_rng([4, 7]))
    assert np.array_equal(a, b)


def _reference_prob(sigma, counts):
    """``Haf(A_n) / (prod n_j! sqrt(det Q))`` from the dense ``A`` with rows
    and columns ``j, M + j`` repeated ``n_j`` times."""
    single = np.repeat(np.arange(sigma.n_modes), counts)
    idx = np.concatenate([single, single + sigma.n_modes])
    haf = hafnian_general(a_matrix(sigma).matrix[np.ix_(idx, idx)]).real
    q = sigma.matrix + np.eye(2 * sigma.n_modes) / 2
    fact = math.prod(math.factorial(int(c)) for c in counts)
    return max(haf, 0.0) / (fact * math.sqrt(np.linalg.det(q).real))


def test_wide_factor_route_matches_dense_hafnian_reference():
    # the pinned N=3 sample-exact state: prefixes 5 and 6 have factor
    # rank 6, past the low-rank cap, so they read G_n G_n^T entry by entry
    lat = build_lattice(1, 3, 2)
    circ = sample_random_circuit(lat, 2, np.random.default_rng([5]))
    sigma = quad_to_complex(state_covariance(circ, lat, 0.1))
    engine = ChainRuleEngine(sigma, TruncationPolicy(1e-6, 8))
    ranks = [f.shape[1] for f, _ in engine._prefixes[1:]]
    assert ranks[4:] == [6, 6] and max(ranks[:4]) <= LOW_RANK_COLUMN_CAP
    for k in range(1, lat.n_modes + 1):
        reduced = reduce_complex(sigma, list(range(k)))
        for prefix in itertools.product(range(2), repeat=k - 1):
            joints = engine.conditional_joints(prefix, None)
            assert joints.shape == (9 - sum(prefix),)
            for n, joint in enumerate(joints):
                ref = _reference_prob(reduced, prefix + (n,))
                assert abs(joint - ref) <= 1e-14, (prefix, n)
                assert abs(marginal_prob(reduced, prefix + (n,)) - ref) <= 1e-14


def test_marginal_prob_refuses_outcomes_past_the_reference_cap():
    # the same rank-6 state: 13 photons need a 26-dimensional hafnian
    lat = build_lattice(1, 3, 2)
    circ = sample_random_circuit(lat, 2, np.random.default_rng([5]))
    sigma = quad_to_complex(state_covariance(circ, lat, 0.1))
    with pytest.raises(SizeCapError, match="26 > 24"):
        marginal_prob(sigma, [3, 3, 3, 2, 2, 0])


def test_chain_rule_engine_keeps_no_hafnian_matrix_on_the_low_rank_path():
    # every prefix of this rank-4 state takes the moment sweep, so the
    # engine needs only the thin factors: a 2k x 2k complex matrix per
    # prefix would retain about 5.7 MB at M = 64
    lat, sigma = _pure_sigma(1, 2, 32, 8, 0.5, 13)
    assert lat.n_modes == 64
    tracemalloc.start()
    try:
        engine = ChainRuleEngine(sigma, truncation_threshold(2, 0.5, 1e-6))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert max(f.shape[1] for f, _ in engine._prefixes[1:]) <= 4
    assert retained < 1_000_000


# ------------------------------------------------------------ block sampler


def test_block_sampler_covers_all_modes():
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 4, np.random.default_rng(33))
    policy = truncation_threshold(2, 0.5, 1e-6)
    sampler = BlockApproxSampler(circ, lat, 0.5, policy)
    counts = sampler.sample(np.random.default_rng(1))
    assert counts.shape == (8,)
    assert (counts >= 0).all()


def test_block_sampler_refuses_a_lattice_the_circuit_was_not_built_on():
    # same mode count, other blocks; then an equal but separate lattice
    circ = sample_random_circuit(build_lattice(1, 2, 4), 3, np.random.default_rng(34))
    policy = truncation_threshold(2, 0.5, 1e-6)
    for other in (build_lattice(1, 4, 2), build_lattice(1, 2, 4)):
        with pytest.raises(ValueError, match="lattice"):
            BlockApproxSampler(circ, other, 0.5, policy)
    assert BlockApproxSampler(circ, circ.lattice, 0.5, policy).sample(
        np.random.default_rng(1)
    ).shape == (8,)


def test_block_sampler_reuses_block_covariance_columns():
    lat = build_lattice(1, 2, 3)
    circ = sample_random_circuit(lat, 6, np.random.default_rng(35))
    policy = truncation_threshold(2, 0.7, 1e-6)
    blocks = block_approx_covariance(circ, lat, 0.7)
    direct = BlockApproxSampler(circ, lat, 0.7, policy)
    reused = BlockApproxSampler(circ, lat, 0.7, policy, blocks=blocks)
    for i in range(20):
        a = direct.sample(np.random.default_rng([2, i]))
        b = reused.sample(np.random.default_rng([2, i]))
        assert np.array_equal(a, b)


# Leaky blocks (depth 6 on edge-3 sublattices): light of each source leaves
# its block, so the block law is a genuinely thinned squeezer.
_LEAKY_BLOCKS = [(5, 0.7), (11, 1.0)]


def _block_tables(seed, r, policy):
    """Normalized enumeration oracle of every block of the approximation."""
    lat = build_lattice(1, 2, 3)
    circ = sample_random_circuit(lat, 6, np.random.default_rng(seed))
    blocks = block_approx_covariance(circ, lat, r)
    tables = []
    for block in blocks.blocks:
        table = enumerate_gbs_distribution(quad_to_complex(block), policy)
        tables.append(Distribution(table.counts, table.probs / table.mass))
    return lat, circ, tables


@pytest.mark.parametrize("seed, r", _LEAKY_BLOCKS)
def test_block_total_law_matches_enumerated_block_marginal(seed, r):
    policy = TruncationPolicy(1e-6, 10)
    lat, circ, tables = _block_tables(seed, r, policy)
    u = accumulate_unitary(circ)
    for table, modes, src in zip(tables, lat.sublattices, lat.sources):
        q = float(np.sum(np.abs(u[list(modes), src]) ** 2))
        assert 0.05 < 1.0 - q  # the block really leaks
        oracle = np.bincount(
            table.counts.sum(axis=1), weights=table.probs, minlength=policy.n_total_max + 1
        )
        law = _block_total_law(r, q, policy.n_total_max)
        assert np.abs(law - oracle).max() < 1e-12


@pytest.mark.parametrize(
    "seed, r, policy",
    [
        (5, 0.7, TruncationPolicy(1e-6, 10)),
        (11, 1.0, TruncationPolicy(1e-6, 10)),
    ],
)
def test_block_sampler_matches_product_of_block_tables(seed, r, policy):
    lat, circ, tables = _block_tables(seed, r, policy)
    target = product_distribution(tables, lat.sublattices, lat.n_modes)
    n = 3000
    sampler = BlockApproxSampler(circ, lat, r, policy)
    rng = np.random.default_rng([seed, 1])
    samples = np.array([sampler.sample(rng) for _ in range(n)])
    distance = tvd(empirical_distribution(samples), target)
    # noise floor: the same statistic on batches drawn from the oracle itself
    null_rng = np.random.default_rng([seed, 2])
    null = []
    for _ in range(40):
        draws = null_rng.choice(target.probs.size, size=n, p=target.probs)
        null.append(tvd(empirical_distribution(target.counts[draws]), target))
    floor = np.mean(null) + 6.0 * np.std(null)
    assert distance <= floor, (distance, floor)


def test_block_sampler_in_cone_matches_exact_sampler_statistics():
    # depth 2 keeps blocks independent, so both samplers draw from the
    # same distribution; compare low-order moments
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 2, np.random.default_rng(37))
    policy = truncation_threshold(2, 0.5, 1e-6)
    sigma = quad_to_complex(state_covariance(circ, lat, 0.5))
    exact = ChainRuleEngine(sigma, policy)
    approx = BlockApproxSampler(circ, lat, 0.5, policy)
    rng = np.random.default_rng(41)
    n = 4000
    mean_e = np.zeros(8)
    mean_a = np.zeros(8)
    for _ in range(n):
        mean_e += exact.sample(rng)
        mean_a += approx.sample(rng)
    mean_e /= n
    mean_a /= n
    assert np.abs(mean_e - mean_a).max() < 0.06


# ------------------------------------------------------- draws and laws
#
# The references below are the dense forms the binary searches and the
# float recurrence replaced; every sampler must draw exactly what they draw.


def _dense_inverse_cdf(cdf, u):
    """Reference: count ``cdf <= u * total`` per column, clamped to the last index."""
    hits = (cdf <= u * cdf[-1]).sum(axis=0)
    return np.minimum(hits, cdf.shape[0] - 1)


def _array_block_total_law(squeezing, q, n_max):
    """Reference: the recurrence of :func:`_block_total_law` read back from the array."""
    t = math.tanh(squeezing) ** 2
    c0 = _sech2(squeezing) + t * q * (2.0 - q)
    c1 = -2.0 * t * q * (1.0 - q)
    c2 = -t * q * q
    a = np.zeros(n_max + 2)  # a[-1] stands in for a_{-1} = 0
    a[0] = 1.0
    for n in range(n_max if q > 0.0 else 0):
        a[n + 1] = -(c1 * (2 * n + 1) * a[n] + 2 * c2 * n * a[n - 1]) / (2 * c0 * (n + 1))
    return a[:-1] / a.sum()


def _cumulative_columns(rng):
    """Cumulative columns with ties, zero runs, an all-zero column and a
    single entry; dyadic integer weights make ``u * total`` land on entries."""
    yield np.zeros(5)
    yield np.ones(1)
    yield np.cumsum([0.0, 0.0, 3.0, 0.0, 0.0, 1.0, 4.0, 0.0])  # total 8
    for length in (1, 2, 3, 7, 64, 300):
        weights = rng.random(length)
        weights[rng.random(length) < 0.4] = 0.0
        yield np.cumsum(weights)
        yield np.cumsum(rng.integers(0, 3, length).astype(float))


def test_inverse_cdf_matches_the_dense_count():
    rng = np.random.default_rng(181)
    edges = np.array([0.0, 1.0 - 2.0**-53])
    for cdf in _cumulative_columns(rng):
        total = cdf[-1]
        us = np.concatenate([edges, rng.random(200), cdf / total if total else edges])
        assert np.array_equal(_inverse_cdf(cdf, us), _dense_inverse_cdf(cdf[:, None], us))
        for u in us:
            assert _inverse_cdf(cdf, float(u)) == _dense_inverse_cdf(cdf[:, None], u)[0]


def test_block_total_law_matches_the_array_recurrence_bit_for_bit():
    for r in (0.1, 0.5, 1.0, 5.0):
        for q in (0.0, 0.3, 0.9, 0.99, 1.0):
            for n_max in (0, 1, 2, 9, 130, 1001):
                want = _array_block_total_law(r, q, n_max)
                assert _block_total_law(r, q, n_max).tobytes() == want.tobytes()
    assert (_block_total_law(5.0, 0.9, 131_762).tobytes()
            == _array_block_total_law(5.0, 0.9, 131_762).tobytes())


def _dense_block_draws(circ, lat, r, policy):
    blocks = []
    for b, modes in enumerate(lat.sublattices):
        route = np.cumsum(np.abs(source_columns(circ)[modes, b, None]) ** 2, axis=0)
        law = _block_total_law(r, min(route[-1, 0], 1.0), policy.n_total_max)
        blocks.append((modes, np.cumsum(law)[:, None], route))

    def draw(rng):
        out = np.zeros(lat.n_modes, dtype=int)
        for modes, law, route in blocks:
            n = int(_dense_inverse_cdf(law, rng.random(1))[0])
            out[modes] = np.bincount(_dense_inverse_cdf(route, rng.random(n)),
                                     minlength=modes.size)
        return out

    return draw


def _dense_chain_draw(engine):
    def draw(rng):
        prefix, prob = (), 1.0
        for _ in range(engine.n_modes):
            joints = engine.conditional_joints(prefix, prob)
            n = int(_dense_inverse_cdf(np.cumsum(joints)[:, None], rng.random(1))[0])
            prefix, prob = prefix + (n,), float(joints[n])
        return np.array(prefix)

    return draw


def _dense_fock_draw(circ, lat):
    route = np.cumsum(np.abs(source_columns(circ)) ** 2, axis=0)
    return lambda rng: np.bincount(_dense_inverse_cdf(route, rng.random(lat.n_sources)),
                                   minlength=lat.n_modes)


def _draw_pair(name):
    """A sampler and its dense reference draw."""
    if name == "chain":
        _, sigma = _pure_sigma(1, 2, 2, 3, 0.5, 37)
        engine = ChainRuleEngine(sigma, truncation_threshold(2, 0.5, 1e-6))
        return engine, _dense_chain_draw(engine)
    if name == "fock":
        lat = build_lattice(2, 2, 3)
        circ = sample_random_circuit(lat, 3, np.random.default_rng(38))
        return DistinguishableFockSampler(source_columns(circ), lat), _dense_fock_draw(circ, lat)
    if name == "block":
        lat, r, policy = build_lattice(1, 2, 3), 1.0, truncation_threshold(2, 1.0, 1e-6)
    else:  # one bright source: its laws run to the budget of 131,762 photons
        lat, r, policy = build_lattice(1, 1, 4), 5.0, truncation_threshold(1, 5.0, 1e-6)
        assert policy.n_total_max == 131_762
    circ = sample_random_circuit(lat, 6, np.random.default_rng(35))
    return BlockApproxSampler(circ, lat, r, policy), _dense_block_draws(circ, lat, r, policy)


@pytest.mark.parametrize("name", ["block", "block-bright", "chain", "fock"])
def test_samplers_draw_the_dense_reference_sequence(name):
    # one generator shared by 200 calls: rng.random() must read the same
    # double as rng.random(1)[0], or every later call would drift
    sampler, reference = _draw_pair(name)
    rng, ref_rng = np.random.default_rng(182), np.random.default_rng(182)
    for _ in range(200):
        assert np.array_equal(sampler.sample(rng), reference(ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ------------------------------------------------------------ single photon


def test_fock_sampler_conserves_photon_number():
    lat = build_lattice(1, 3, 2)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(43))
    u = accumulate_unitary(circ)
    for i in range(50):
        counts = distinguishable_fock_sample(u, lat, np.random.default_rng([3, i]))
        assert counts.sum() == 3
        assert counts.shape == (6,)


@pytest.mark.parametrize("dim, n_sources, edge", [(1, 3, 4), (2, 2, 3)])
def test_fock_sampler_reuses_its_routing_cdf(monkeypatch, dim, n_sources, edge):
    lat = build_lattice(dim, n_sources, edge)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(44))
    u = accumulate_unitary(circ)
    cumsums = []
    real_cumsum = np.cumsum
    monkeypatch.setattr(
        np, "cumsum", lambda *a, **k: cumsums.append(1) or real_cumsum(*a, **k)
    )
    sampler = DistinguishableFockSampler(source_columns(circ), lat)
    draws = [sampler.sample(np.random.default_rng([9, i])) for i in range(50)]
    assert len(cumsums) == 1  # built once, not per draw
    for matrix in (u, source_columns(circ)):
        for i, counts in enumerate(draws):
            want = distinguishable_fock_sample(matrix, lat, np.random.default_rng([9, i]))
            assert np.array_equal(counts, want)


def test_fock_sampler_identity_circuit_keeps_sources():
    lat = build_lattice(1, 2, 2)
    circ = sample_random_circuit(lat, 0, np.random.default_rng(45))
    u = accumulate_unitary(circ)
    counts = distinguishable_fock_sample(u, lat, np.random.default_rng(0))
    want = np.zeros(4, dtype=int)
    for src in lat.sources:
        want[src] += 1
    assert np.array_equal(counts, want)


def test_fock_sampler_single_photon_marginal_matches_column():
    lat = build_lattice(1, 1, 4)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(47))
    u = accumulate_unitary(circ)
    weights = np.abs(u[:, lat.sources[0]]) ** 2
    n = 20000
    hits = np.zeros(4)
    rng = np.random.default_rng(51)
    for _ in range(n):
        hits += distinguishable_fock_sample(u, lat, rng)
    freq = hits / n
    se = np.sqrt(weights * (1 - weights) / n)
    assert (np.abs(freq - weights) <= 4 * se + 1e-9).all()
