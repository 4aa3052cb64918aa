"""Tests for the enumeration oracles, distance utilities, and bound reports."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import blsampler._moments
import blsampler.diagnostics
import blsampler.lattice
from blsampler import (
    Circuit,
    Distribution,
    SizeCapError,
    TruncationPolicy,
    accumulate_unitary,
    block_approx_covariance,
    build_lattice,
    distinguishable_fock_sample,
    empirical_distribution,
    enumerate_distinguishable_distribution,
    enumerate_fock_distribution,
    enumerate_gbs_distribution,
    fock_error_bound,
    leakage_bound,
    leakage_rate,
    product_distribution,
    quad_to_complex,
    random_walk_profile,
    reduce_complex,
    sample_random_circuit,
    source_columns,
    state_covariance,
    theorem_bound_report,
    truncation_threshold,
    tvd,
    tvd_upper_bound,
    write_csv,
    write_json,
)
from blsampler.gaussian import (
    SMALL_X_THRESHOLD,
    a_matrix,
    fidelity,
    frobenius_diff,
    infidelity_bound,
    tvd_bound,
    x_norm_bound,
)
from blsampler.kernels import hafnian_general


def _reference_prob(sigma, counts):
    """``Haf(A_n) / (prod n_j! sqrt(det Q))`` from the dense ``A`` with rows
    and columns ``j, M + j`` repeated ``n_j`` times."""
    single = np.repeat(np.arange(sigma.n_modes), counts)
    idx = np.concatenate([single, single + sigma.n_modes])
    haf = hafnian_general(a_matrix(sigma).matrix[np.ix_(idx, idx)]).real
    q = sigma.matrix + np.eye(2 * sigma.n_modes) / 2
    fact = math.prod(math.factorial(int(c)) for c in counts)
    return max(haf, 0.0) / (fact * math.sqrt(np.linalg.det(q).real))


def _pure_sigma(dim, n_sources, edge, depth, r, seed):
    lat = build_lattice(dim, n_sources, edge)
    circ = sample_random_circuit(lat, depth, np.random.default_rng(seed))
    return lat, circ, quad_to_complex(state_covariance(circ, lat, r))


def _single_mode_prob(n: int, r: float) -> float:
    # squeezed vacuum: P(2k) = (2k)! / (4^k k!^2) tanh^{2k}(r) / cosh(r)
    if n % 2:
        return 0.0
    k = n // 2
    return (
        math.factorial(2 * k)
        / (4.0**k * math.factorial(k) ** 2)
        * math.tanh(r) ** (2 * k)
        / math.cosh(r)
    )


# ------------------------------------------------------------ Distribution


def test_distribution_rejects_negative_probability():
    with pytest.raises(ValueError):
        Distribution(np.array([[0], [1]]), np.array([0.5, -0.1]))


def test_distribution_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Distribution(np.array([[0], [1]]), np.array([1.0]))


def test_distribution_clips_rounding_noise():
    dist = Distribution(np.array([[0], [1]]), np.array([1.0, -1e-13]))
    assert dist.probs[1] == 0.0


def test_distribution_mass_and_dict():
    dist = Distribution(np.array([[0, 1], [2, 0]]), np.array([0.25, 0.5]))
    assert dist.n_modes == 2
    assert dist.mass == pytest.approx(0.75)
    assert dist.as_dict() == {(0, 1): 0.25, (2, 0): 0.5}


# ---------------------------------------------------------------- distances


def test_tvd_identical_tables_is_zero():
    d = Distribution(np.array([[0, 0], [1, 1]]), np.array([0.5, 0.5]))
    assert tvd(d, d) == 0.0


def test_tvd_disjoint_tables_is_one():
    d1 = Distribution(np.array([[0, 0]]), np.array([1.0]))
    d2 = Distribution(np.array([[3, 1]]), np.array([1.0]))
    assert tvd(d1, d2) == pytest.approx(1.0)


def test_tvd_hand_value():
    d1 = Distribution(np.array([[0], [1]]), np.array([0.5, 0.5]))
    d2 = Distribution(np.array([[0], [2]]), np.array([0.25, 0.75]))
    # 0.5 * (|0.5-0.25| + 0.5 + 0.75)
    assert tvd(d1, d2) == pytest.approx(0.75)


def test_tvd_refuses_mismatched_tables():
    pnr = Distribution(np.array([[0]]), np.array([1.0]))
    wide = Distribution(np.array([[0, 0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        tvd(pnr, wide)


@pytest.mark.parametrize("n_modes", [8, 40])
def test_tvd_matches_dict_reference(n_modes):
    # 40 modes forces the hash-map path (packed keys would overflow);
    # 8 modes stays on the packed-key path — both must agree with a
    # straightforward dictionary computation.
    rng = np.random.default_rng(91)
    c1 = np.unique(rng.integers(0, 3, (30, n_modes)), axis=0)
    c2 = np.unique(rng.integers(0, 3, (30, n_modes)), axis=0)
    p1 = rng.random(c1.shape[0])
    p2 = rng.random(c2.shape[0])
    d1 = Distribution(c1, p1 / p1.sum())
    d2 = Distribution(c2, p2 / p2.sum())
    t1, t2 = d1.as_dict(), d2.as_dict()
    expected = 0.5 * sum(
        abs(t1.get(k, 0.0) - t2.get(k, 0.0)) for k in set(t1) | set(t2)
    )
    assert tvd(d1, d2) == pytest.approx(expected, rel=1e-12)


def test_tvd_upper_bound_charges_missing_mass():
    d1 = Distribution(np.array([[0]]), np.array([0.9]))
    d2 = Distribution(np.array([[0]]), np.array([0.8]))
    assert tvd_upper_bound(d1, d2) == pytest.approx(tvd(d1, d2) + 0.05 + 0.1)


def test_empirical_distribution_frequencies():
    samples = np.array([[0, 1], [0, 1], [1, 0], [2, 2]])
    dist = empirical_distribution(samples)
    assert dist.as_dict() == {(0, 1): 0.5, (1, 0): 0.25, (2, 2): 0.25}
    with pytest.raises(ValueError):
        empirical_distribution(np.zeros((0, 2)))


def test_product_distribution_hand_case():
    d1 = Distribution(np.array([[0], [1]]), np.array([0.3, 0.7]))
    d2 = Distribution(np.array([[0, 0], [1, 1]]), np.array([0.6, 0.4]))
    joint = product_distribution([d1, d2], [[2], [0, 1]], 4)
    table = joint.as_dict()
    assert joint.n_modes == 4
    assert table[(0, 0, 0, 0)] == pytest.approx(0.18)
    assert table[(1, 1, 0, 0)] == pytest.approx(0.12)
    assert table[(0, 0, 1, 0)] == pytest.approx(0.42)
    assert table[(1, 1, 1, 0)] == pytest.approx(0.28)
    # a photon budget drops combined outcomes above the total
    capped = product_distribution([d1, d2], [[2], [0, 1]], 4, budget=2)
    assert capped.mass == pytest.approx(1.0 - 0.28)
    assert (capped.counts.sum(axis=1) <= 2).all()


def test_product_distribution_validates_mode_lists():
    d1 = Distribution(np.array([[0], [1]]), np.array([0.3, 0.7]))
    with pytest.raises(ValueError):
        product_distribution([d1], [[0, 1]], 2)


def _reference_product(dists, mode_lists, n_modes, budget):
    # every n1 * n2 pair, then the pairs over the budget filtered out
    acc_counts = np.zeros((1, 0), dtype=np.int16)
    acc_probs = np.ones(1)
    for dist in dists:
        n1, n2 = acc_counts.shape[0], dist.counts.shape[0]
        i = np.repeat(np.arange(n1), n2)
        j = np.tile(np.arange(n2), n1)
        if budget is not None:
            keep = acc_counts.sum(axis=1)[i] + dist.counts.sum(axis=1)[j] <= budget
            i, j = i[keep], j[keep]
        acc_counts = np.hstack([acc_counts[i], dist.counts[j].astype(np.int16)])
        acc_probs = acc_probs[i] * dist.probs[j]
    full = np.zeros((acc_counts.shape[0], n_modes), dtype=np.int16)
    full[:, np.concatenate(mode_lists)] = acc_counts
    return full, acc_probs


def _reference_tvd(d1, d2):
    # union of the packed keys by np.unique, tables placed by searchsorted
    base = max(2, int(d1.counts.max(initial=0)), int(d2.counts.max(initial=0))) + 1
    powers = base ** np.arange(d1.n_modes, dtype=np.int64)
    k1 = d1.counts.astype(np.int64) @ powers
    k2 = d2.counts.astype(np.int64) @ powers
    union = np.unique(np.concatenate([k1, k2]))
    p1 = np.zeros(union.shape[0])
    p2 = np.zeros(union.shape[0])
    p1[np.searchsorted(union, k1)] = d1.probs
    p2[np.searchsorted(union, k2)] = d2.probs
    diffs = np.abs(p1 - p2)
    return float(0.5 * np.sort(diffs[diffs != 0]).sum())  # nonzero, ascending


def _random_table(rng, n_modes, top, n_rows, low=0):
    # distinct rows in shuffled order, so row order is tested too
    grid = np.indices((top + 1 - low,) * n_modes).reshape(n_modes, -1).T + low
    rows = grid[rng.permutation(grid.shape[0])[:n_rows]]
    probs = rng.random(rows.shape[0])
    return Distribution(rows.astype(np.int16), probs / probs.sum())


@pytest.mark.parametrize(
    "shapes, budget",
    [
        ([(2, 3, 12), (1, 5, 6), (3, 2, 20)], 6),  # three blocks
        ([(2, 3, 12), (3, 2, 20)], None),  # full product
        ([(2, 4, 25), (2, 4, 25)], 20),  # budget above every total
    ],
)
def test_product_distribution_matches_filtered_full_product(shapes, budget):
    rng = np.random.default_rng(2024)
    dists = [_random_table(rng, m, top, n) for m, top, n in shapes]
    sizes = np.cumsum([0] + [m for m, _, _ in shapes])
    order = rng.permutation(sizes[-1])
    mode_lists = [order[a:b] for a, b in zip(sizes[:-1], sizes[1:])]
    got = product_distribution(dists, mode_lists, sizes[-1] + 1, budget=budget)
    counts, probs = _reference_product(dists, mode_lists, sizes[-1] + 1, budget)
    assert got.counts.dtype == counts.dtype
    np.testing.assert_array_equal(got.counts, counts)
    np.testing.assert_array_equal(got.probs, probs)
    assert got.probs.shape[0] > 0
    if budget is not None:
        assert got.counts.sum(axis=1).max() <= budget


def test_product_distribution_budget_below_every_total_is_empty():
    rng = np.random.default_rng(7)
    dists = [_random_table(rng, 2, 3, 10, low=1) for _ in range(2)]
    for budget in (1, 0, -3):
        got = product_distribution(dists, [[0, 1], [2, 3]], 4, budget=budget)
        counts, probs = _reference_product(dists, [[0, 1], [2, 3]], 4, budget)
        assert got.counts.shape == counts.shape == (0, 4)
        assert probs.shape == got.probs.shape == (0,)
        assert tvd(got, got) == _reference_tvd(got, got) == 0.0


@pytest.mark.parametrize("n_modes, top, n_rows", [(3, 3, 40), (5, 2, 150)])
def test_tvd_matches_union_reference_bit_for_bit(n_modes, top, n_rows):
    rng = np.random.default_rng(n_modes)
    for _ in range(5):
        d1 = _random_table(rng, n_modes, top, n_rows)
        d2 = _random_table(rng, n_modes, top, n_rows)
        assert tvd(d1, d2) == _reference_tvd(d1, d2)
        assert tvd(d2, d1) == _reference_tvd(d2, d1)
    # disjoint supports: rows of d2 all have a count above d1's top
    d1 = _random_table(rng, n_modes, top, n_rows)
    d2 = _random_table(rng, n_modes, top + 2, n_rows, low=top + 1)
    assert tvd(d1, d2) == _reference_tvd(d1, d2)
    assert tvd(d1, d2) == pytest.approx(1.0)


@pytest.mark.parametrize("n_modes, top, n_rows", [(3, 3, 40), (5, 2, 150)])
def test_tvd_and_mass_ignore_row_order_and_zero_rows(n_modes, top, n_rows):
    rng = np.random.default_rng(100 + n_modes)
    for _ in range(5):
        d1 = _random_table(rng, n_modes, top, n_rows)
        d2 = _random_table(rng, n_modes, top, n_rows)
        # rows of the grid that d1 lacks, added to it with probability zero
        grid = np.indices((top + 1,) * n_modes).reshape(n_modes, -1).T
        keys = {tuple(r) for r in d1.counts.tolist()}
        absent = np.array([r for r in grid.tolist() if tuple(r) not in keys][:25])
        padded = Distribution(
            np.vstack([d1.counts, absent]).astype(np.int16),
            np.concatenate([d1.probs, np.zeros(absent.shape[0])]),
        )
        order = rng.permutation(padded.counts.shape[0])
        moved = Distribution(padded.counts[order], padded.probs[order])
        assert moved.mass == padded.mass == d1.mass
        assert tvd(moved, d2) == tvd(padded, d2) == tvd(d1, d2)
        assert tvd(d2, moved) == tvd(d2, d1)


def test_tvd_wide_tables_take_the_dict_path():
    # 40 modes at base 4 need 80 key bits: the packed-key path cannot run,
    # and one table carries a count the other never reaches
    rng = np.random.default_rng(62)
    c1 = np.unique(rng.integers(0, 3, (30, 40)), axis=0)
    c2 = np.vstack([c1[:10], np.full((1, 40), 3)])
    d1 = Distribution(c1, np.full(c1.shape[0], 1.0 / c1.shape[0]))
    d2 = Distribution(c2, np.full(c2.shape[0], 1.0 / c2.shape[0]))
    t1, t2 = d1.as_dict(), d2.as_dict()
    terms = [abs(t1.get(k, 0.0) - t2.get(k, 0.0)) for k in set(t1) | set(t2)]
    # the nonzero terms summed in ascending order, whatever the set order
    expected = 0.5 * np.sort([x for x in terms if x]).sum()
    assert tvd(d1, d2) == expected


# --------------------------------------------------- Gaussian enumeration


def test_enumerate_pure_state_matches_reference_hafnian():
    _, _, sigma = _pure_sigma(1, 2, 2, 3, 0.5, 11)
    policy = TruncationPolicy(epsilon=1e-6, n_total_max=5)
    dist = enumerate_gbs_distribution(sigma, policy)
    assert dist.counts.shape[0] > 50
    for comp, prob in zip(dist.counts, dist.probs):
        assert prob == pytest.approx(_reference_prob(sigma, comp), abs=1e-13)


def test_enumerate_mixed_state_matches_reference_hafnian():
    _, _, sigma = _pure_sigma(1, 2, 2, 3, 0.5, 12)
    red = reduce_complex(sigma, [0, 1, 2])  # tracing a mode makes it mixed
    policy = TruncationPolicy(epsilon=1e-6, n_total_max=5)
    dist = enumerate_gbs_distribution(red, policy)
    assert np.abs(a_matrix(red).matrix[:3, 3:]).max() > 1e-6  # genuinely mixed
    for comp, prob in zip(dist.counts, dist.probs):
        assert prob == pytest.approx(_reference_prob(red, comp), abs=1e-13)


def test_enumerate_vacuum_is_point_mass():
    _, _, sigma = _pure_sigma(1, 2, 2, 2, 0.0, 13)
    policy = TruncationPolicy(epsilon=1e-6, n_total_max=4)
    dist = enumerate_gbs_distribution(sigma, policy)
    assert dist.counts.shape == (1, 4)
    assert dist.counts.sum() == 0
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)


def test_enumerate_single_mode_closed_form():
    lat = build_lattice(1, 1, 1)
    circ = sample_random_circuit(lat, 0, np.random.default_rng(0))
    sigma = quad_to_complex(state_covariance(circ, lat, 0.8))
    policy = TruncationPolicy(epsilon=1e-9, n_total_max=12)
    dist = enumerate_gbs_distribution(sigma, policy)
    table = dist.as_dict()
    for n in range(13):
        assert table.get((n,), 0.0) == pytest.approx(
            _single_mode_prob(n, 0.8), abs=1e-12
        )


def test_enumerate_mass_matches_truncation_guarantee():
    _, _, sigma = _pure_sigma(1, 2, 2, 4, 0.5, 14)
    policy = truncation_threshold(2, 0.5, epsilon=1e-3)
    dist = enumerate_gbs_distribution(sigma, policy)
    assert dist.mass >= 1.0 - 2e-3
    assert dist.mass <= 1.0 + 1e-9


def test_enumerate_high_rank_caps(monkeypatch):
    # a factor wider than LOW_RANK_COLUMN_CAP is refused after the M x M
    # block's factorization alone, whatever the budget: the full 2M x 2M
    # matrix is never factored
    shapes = []
    real_takagi = blsampler.diagnostics.takagi_factor

    def counted(a):
        shapes.append(a.shape)
        return real_takagi(a)

    monkeypatch.setattr(blsampler.diagnostics, "takagi_factor", counted)
    for n_sources, budget, seed in [(5, 4, 15), (5, 10, 16), (7, 4, 17)]:
        lat = build_lattice(1, n_sources, 1)
        circ = sample_random_circuit(lat, 0, np.random.default_rng(seed))
        sigma = quad_to_complex(state_covariance(circ, lat, 0.4))
        shapes.clear()
        with pytest.raises(SizeCapError, match=f"state rank {2 * n_sources} "):
            enumerate_gbs_distribution(sigma, TruncationPolicy(1e-6, budget))
        assert shapes == [(n_sources, n_sources)]


def test_enumerate_guard_rejects_oversized_tables():
    _, _, sigma = _pure_sigma(1, 2, 8, 2, 0.5, 18)  # 16 modes
    with pytest.raises(SizeCapError):
        enumerate_gbs_distribution(
            sigma, TruncationPolicy(epsilon=1e-6, n_total_max=44)
        )


# --------------------------------------------------- Fock enumeration


def _unmemoized_dp(mode_forms, n_vars, budget, value, norm):
    """The enumeration as a plain mode-by-mode DP: every outcome's
    polynomial is expanded over all modes, last mode included, and dotted
    with the moment weights of its degree."""
    from blsampler import _moments
    from blsampler.diagnostics import _FACT

    m = len(mode_forms)
    ppp = len(mode_forms[0])
    tabs = _moments.tables(n_vars)
    levels = {0: (np.ones((1, 1), dtype=complex), np.zeros((1, 0), dtype=np.int16))}
    for j in range(m - 1):
        next_c, next_p = {}, {}
        for t, (cblock, pblock) in levels.items():
            cur = cblock
            degree = ppp * t
            for c in range(0, budget - t + 1):
                if c > 0:
                    for f in mode_forms[j]:
                        cur = tabs.multiply_linear(cur, degree, f)
                        degree += 1
                col = np.full((pblock.shape[0], 1), c, dtype=np.int16)
                next_c.setdefault(t + c, []).append(cur)
                next_p.setdefault(t + c, []).append(np.hstack([pblock, col]))
        levels = {t: (np.vstack(next_c[t]), np.vstack(next_p[t])) for t in next_c}
    out_counts, out_probs = [], []
    for t, (cblock, pblock) in sorted(levels.items()):
        prefix_fact = _FACT[pblock].prod(axis=1)
        cur, degree = cblock, ppp * t
        for c in range(0, budget - t + 1):
            if c > 0:
                for f in mode_forms[m - 1]:
                    cur = tabs.multiply_linear(cur, degree, f)
                    degree += 1
            vals = cur @ tabs.weights(degree)
            raw = np.abs(vals) ** 2 if value == "abs2" else np.maximum(vals.real, 0.0)
            col = np.full((pblock.shape[0], 1), c, dtype=np.int16)
            out_counts.append(np.hstack([pblock, col]))
            out_probs.append(raw * norm / (prefix_fact * _FACT[c]))
    return np.vstack(out_counts), np.concatenate(out_probs)


# the bounds-small config: d=1, N=2, edge 4, depth 4, r=0.5, budget 16
_BOUNDS_SMALL = (1, 2, 4, 4)


@pytest.mark.parametrize(
    "shape, state, forms_per_photon",
    [
        pytest.param(_BOUNDS_SMALL, "exact", 1, id="exact-1-None"),
        pytest.param(_BOUNDS_SMALL, "block", 2, id="block-2-None"),
        # no prefix mode: the suffix table alone
        pytest.param((1, 1, 1, 0), "exact", 1, id="one-mode"),
        # one mode per half
        pytest.param((1, 2, 1, 2), "exact", 1, id="two-mode"),
    ],
)
def test_enumeration_matches_unmemoized_fold(
    monkeypatch, shape, state, forms_per_photon
):
    dim, sources, edge, depth = shape
    lat = build_lattice(dim, sources, edge)
    circ = sample_random_circuit(lat, depth, np.random.default_rng(31))
    budget = min(truncation_threshold(sources, 0.5, epsilon=1e-6).n_total_max, 16)
    policy = TruncationPolicy(1e-6, budget)
    if state == "exact":
        cov = state_covariance(circ, lat, 0.5)
    else:
        cov = block_approx_covariance(circ, lat, 0.5).blocks[0]  # thinned: mixed
    calls = []
    real_dp = blsampler.diagnostics._dp_enumerate

    def recorded(*args):
        calls.append(args)
        return real_dp(*args)

    monkeypatch.setattr(blsampler.diagnostics, "_dp_enumerate", recorded)
    dist = enumerate_gbs_distribution(quad_to_complex(cov), policy)
    assert len(calls) == 1
    assert len(calls[0][0]) == dist.n_modes
    assert len(calls[0][0][0]) == forms_per_photon  # pure or general path
    counts, probs = _unmemoized_dp(*calls[0])
    assert dist.counts.dtype == counts.dtype
    # row order is not part of the contract: compare the lexsorted tables
    got, want = np.lexsort(dist.counts.T[::-1]), np.lexsort(counts.T[::-1])
    assert np.array_equal(dist.counts[got], counts[want])
    np.testing.assert_allclose(dist.probs[got], probs[want], rtol=0, atol=1e-15)
    assert dist.counts.max() == budget
    if forms_per_photon == 1:  # a pure state puts no weight on odd totals
        odd = dist.counts.sum(axis=1) % 2 == 1
        assert odd.any()
        assert (dist.probs[odd] == 0.0).all()


def test_enumeration_peak_is_mostly_its_output():
    # one warm enumeration at the bounds-small config: 735,471 outcomes,
    # 17.6 MB of count rows and probabilities.  The mode-by-mode DP peaked
    # near 64 MB; the two half tables and their join add about 8 MB.
    dim, sources, edge, depth = _BOUNDS_SMALL
    lat = build_lattice(dim, sources, edge)
    circ = sample_random_circuit(lat, depth, np.random.default_rng(31))
    sigma = quad_to_complex(state_covariance(circ, lat, 0.5))
    policy = TruncationPolicy(1e-6, 16)
    warm = enumerate_gbs_distribution(sigma, policy)
    tracemalloc.start()
    try:
        dist = enumerate_gbs_distribution(sigma, policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.counts.shape == (735471, 8)
    assert np.array_equal(dist.probs, warm.probs)
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"


def test_rank_four_enumeration_stays_small():
    # four sources on eight modes at budget 16: a rank-4 factor, whose
    # mode-by-mode DP took 24 s and 2.57 GB; the join peaks near 120 MB
    lat = build_lattice(1, 4, 2)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(31))
    sigma = quad_to_complex(state_covariance(circ, lat, 0.5))
    tracemalloc.start()
    try:
        dist = enumerate_gbs_distribution(sigma, TruncationPolicy(1e-6, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.counts.shape == (735471, 8)
    assert dist.mass == pytest.approx(1.0, abs=1e-4)
    assert peak < 300e6, f"traced peak {peak / 1e6:.1f} MB"


def test_enumerate_fock_identity_is_point_mass():
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 0, np.random.default_rng(19))
    dist = enumerate_fock_distribution(accumulate_unitary(circ), lat)
    expected = tuple(1 if j in lat.sources else 0 for j in range(lat.n_modes))
    assert dist.mass == pytest.approx(1.0, abs=1e-12)
    assert dist.as_dict()[expected] == pytest.approx(1.0, abs=1e-12)


def test_enumerate_fock_two_photon_interference():
    # one balanced splitter across both sources: coincidences vanish for
    # indistinguishable photons and stay at 1/2 for distinguishable ones
    lat = build_lattice(1, 2, 1)
    circ = Circuit(lat, pairs=[[(0, 1)]], angles=[[(math.pi / 4, 0.3)]])
    u = accumulate_unitary(circ)
    exact = enumerate_fock_distribution(u, lat).as_dict()
    dist = enumerate_distinguishable_distribution(u, lat).as_dict()
    assert exact[(1, 1)] == pytest.approx(0.0, abs=1e-14)
    assert exact[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert exact[(0, 2)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(2, 0)] == pytest.approx(0.25, abs=1e-12)


def test_fock_tables_have_unit_mass():
    lat = build_lattice(1, 2, 2)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(20))
    u = accumulate_unitary(circ)
    exact = enumerate_fock_distribution(u, lat)
    dist = enumerate_distinguishable_distribution(u, lat)
    assert exact.mass == pytest.approx(1.0, abs=1e-12)
    assert dist.mass == pytest.approx(1.0, abs=1e-12)
    assert tvd(exact, dist) >= 0.0


def test_fock_enumeration_caps():
    lat = build_lattice(1, 7, 1)
    with pytest.raises(SizeCapError):
        enumerate_fock_distribution(np.eye(7), lat)
    wide = build_lattice(1, 2, 8)
    with pytest.raises(SizeCapError):
        enumerate_distinguishable_distribution(np.eye(16), wide)


# ----------------------------------------------------------------- leakage


def test_leakage_bound_values():
    assert leakage_bound(1, 4, 0) == 0.0
    # 2 d exp(-L^2 d / (8 D)) at d=1, L=4, D=1
    assert leakage_bound(1, 4, 1) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    assert leakage_bound(1, 6, 4) < leakage_bound(1, 4, 4)
    assert leakage_bound(1, 4, 8) > leakage_bound(1, 4, 4)


def test_leakage_rate_identity_is_zero():
    lat = build_lattice(1, 2, 4)
    report = leakage_rate(np.eye(lat.n_modes), lat)
    assert report.eta_max == 0.0
    assert report.bound is None


def test_leakage_rate_respects_light_cone():
    lat = build_lattice(1, 2, 4)
    shallow = sample_random_circuit(lat, 2, np.random.default_rng(21))
    report = leakage_rate(accumulate_unitary(shallow), lat, depth=2)
    assert report.eta_max < 1e-14  # cone still inside the home block
    assert report.bound == pytest.approx(leakage_bound(1, 4, 2))
    deep = sample_random_circuit(lat, 6, np.random.default_rng(22))
    leaked = leakage_rate(accumulate_unitary(deep), lat, depth=6)
    assert leaked.eta_max > 1e-8
    assert len(leaked.per_source_eta) == 2


# --------------------------------------------------------------- walk law


def test_walk_profile_conserves_and_matches_map():
    profile = random_walk_profile(build_lattice(1, 1, 8), 4, 400, np.random.default_rng(23))
    assert profile.empirical.shape == (5, 8)
    assert np.allclose(profile.empirical.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(profile.theory.sum(axis=1), 1.0, atol=1e-12)
    assert profile.empirical[0, profile.source] == 1.0
    assert profile.theory[0, profile.source] == 1.0
    gap = np.abs(profile.empirical - profile.theory)
    assert (gap <= 5.0 * profile.stderr + 1e-9).all()


def test_walk_profile_validates_inputs():
    rng, lat = np.random.default_rng(24), build_lattice(1, 1, 8)
    with pytest.raises(ValueError):
        random_walk_profile(lat, 2, 0, rng)
    with pytest.raises(ValueError):
        random_walk_profile(lat, 2, 1, rng)  # one trial has no stderr


def test_walk_profile_default_source_is_center():
    # source 0 of the lattice: the centre of its first cube, not of the grid
    # (sources 2 and 6 for two edge-4 cubes, 5 and 7 on the 2 x 4 grid of
    # two edge-2 squares, which is not a cube)
    for (dim, n_sources, edge), want in [((1, 1, 8), 4), ((1, 2, 4), 2), ((2, 2, 2), 5)]:
        lat = build_lattice(dim, n_sources, edge)
        profile = random_walk_profile(lat, 2, 2, np.random.default_rng(25))
        assert profile.source == want
        assert profile.theory[0].tolist() == np.eye(lat.n_modes)[want].tolist()
        assert np.allclose(profile.theory.sum(axis=1), 1.0, atol=1e-12)


def _walk_with_complex_exp(grid_shape, source, depth, n_trials, rng):
    """The walk with its own ``np.exp(1j * phi)`` gate phases, as it was
    before it shared the circuit replay's coefficients."""
    n_modes = int(np.prod(grid_shape))
    amps = np.zeros((n_trials, n_modes), dtype=complex)
    amps[:, source] = 1.0
    tables = np.zeros((3, depth + 1, n_modes))
    tables[0, 0, source] = tables[2, 0, source] = 1.0
    profile = tables[2, 0].copy()
    for layer in range(depth):
        pairs = blsampler.lattice.brickwork_pairs(grid_shape, layer)
        if pairs.shape[0]:
            i, j = pairs[:, 0], pairs[:, 1]
            theta = rng.uniform(0.0, 2.0 * math.pi, (n_trials, pairs.shape[0]))
            phi = rng.uniform(0.0, 2.0 * math.pi, (n_trials, pairs.shape[0]))
            c, s = np.cos(theta), np.sin(theta)
            e = np.exp(1j * phi)
            blsampler.lattice._mix_rows(
                amps.T, i, j, c.T, (e * s).T, (-np.conj(e) * s).T
            )
            profile[i] = profile[j] = 0.5 * (profile[i] + profile[j])
        w = np.abs(amps) ** 2
        tables[0, layer + 1] = w.mean(axis=0)
        tables[1, layer + 1] = w.std(axis=0, ddof=1) / math.sqrt(n_trials)
        tables[2, layer + 1] = profile
    return tables


@pytest.mark.parametrize(
    "dim, edge, depth", [(1, 32, 16), (2, 8, 12)], ids=["d1", "d2"]
)
def test_walk_profile_matches_complex_exp_phases_bit_for_bit(dim, edge, depth):
    # the walk takes its gate entries from the circuit replay's formula,
    # cos + i sin; it must give what the walk's own exp(i phi) gave
    lat = build_lattice(dim, 1, edge)
    profile = random_walk_profile(lat, depth, 300, np.random.default_rng(26))
    want = _walk_with_complex_exp(
        lat.grid_shape, profile.source, depth, 300, np.random.default_rng(26)
    )
    for got, ref in zip((profile.empirical, profile.stderr, profile.theory), want):
        assert np.array_equal(got, ref)


# ------------------------------------------------------- Fock error bound


def test_fock_error_bound_identity_is_zero():
    lat = build_lattice(1, 2, 2)
    report = fock_error_bound(np.eye(lat.n_modes), lat)
    assert report.c_max == pytest.approx(0.0, abs=1e-15)
    assert report.exact_sum_bound == pytest.approx(0.0, abs=1e-15)


def test_fock_error_bound_balanced_splitter():
    # both source columns have |entries| 1/sqrt(2) on the same two rows,
    # so C = 2 * (1/sqrt(2))^2 = 1 and the 2-photon bound is c^2/2 = 1/2
    lat = build_lattice(1, 2, 1)
    circ = Circuit(lat, pairs=[[(0, 1)]], angles=[[(math.pi / 4, 1.1)]])
    report = fock_error_bound(accumulate_unitary(circ), lat, depth=1)
    assert report.c_max == pytest.approx(1.0, rel=1e-12)
    assert report.exact_sum_bound == pytest.approx(0.5, rel=1e-12)
    assert report.surrogate_bound is not None
    assert report.surrogate_c == pytest.approx(
        2.0 * math.sqrt(report.eta_max * lat.k_scale * 2 ** (lat.gamma_scale + 1.0))
    )


def test_fock_error_closed_form_matches_two_source_expansion():
    lat = build_lattice(1, 2, 2)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(26))
    report = fock_error_bound(accumulate_unitary(circ), lat)
    assert report.exact_sum_bound == pytest.approx(report.c_max**2 / 2.0, rel=1e-12)
    assert len(report.c_values) == 2


# --------------------------------------------------------- chained report


def _report_tables(circ, squeezing, policy, budget_cap=16):
    """The exact table and the block-product table the bound report scores,
    built by the public functions."""
    lat = circ.lattice
    budget = min(policy.n_total_max, budget_cap)
    clamped = TruncationPolicy(policy.epsilon, budget)
    exact = enumerate_gbs_distribution(
        quad_to_complex(state_covariance(circ, lat, squeezing)), clamped
    )
    approx = product_distribution(
        [
            enumerate_gbs_distribution(quad_to_complex(block), clamped)
            for block in block_approx_covariance(circ, lat, squeezing).blocks
        ],
        lat.sublattices,
        lat.n_modes,
        budget=budget,
    )
    return exact, approx


def test_theorem_bound_report_runs_full_chain():
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(27))
    policy = truncation_threshold(2, 0.5, epsilon=1e-6)
    report = theorem_bound_report(circ, 0.5, policy=policy)
    # the report's tables, rebuilt: both distances are the public ones, bit for bit
    exact, approx = _report_tables(circ, 0.5, policy)
    assert report["tvd_table"] == tvd(exact, approx)
    assert report["tvd_upper"] == tvd_upper_bound(exact, approx)
    for key in (
        "eta_max",
        "leakage_bound",
        "x_norm_bound",
        "x_measured",
        "infidelity_measured",
        "infidelity_bound",
        "tvd_bound",
        "exact_mass",
        "approx_mass",
        "tvd_table",
        "tvd_upper",
    ):
        assert key in report, key
    assert report["tvd_table"] <= report["tvd_upper"] + 1e-12
    assert 0.0 <= report["tvd_table"] <= 1.0
    assert report["x_measured"] >= 0.0
    assert report["n_modes"] == 8
    assert report["depth"] == 3


@pytest.mark.parametrize(
    "dim, n_sources, edge, squeezing, budget_cap",
    [
        (1, 2, 4, 0.5, 16),  # bounds-small: dense key tables of 17^4 entries
        (2, 2, 2, 0.5, 16),
        (1, 4, 2, 0.5, 8),  # budget clamped to keep the rank-4 table small
        (1, 1, 8, 0.5, 16),  # one block of 8 modes: 17^8 keys, binary search
        (1, 2, 4, 0.0, 16),  # vacuum tables
        (1, 3, 2, 0.5, 16),  # block [2, 3] straddles the join's split at 3
    ],
    ids=["d1", "d2", "n4", "one-block", "vacuum", "n3"],
)
def test_theorem_bound_report_matches_the_product_table_bit_for_bit(
    dim, n_sources, edge, squeezing, budget_cap
):
    lat = build_lattice(dim, n_sources, edge)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(31))
    policy = truncation_threshold(n_sources, squeezing, epsilon=1e-6)
    report = theorem_bound_report(
        circ, squeezing, policy=policy, enumerate_budget_cap=budget_cap
    )
    exact, approx = _report_tables(circ, squeezing, policy, budget_cap)
    assert report["exact_mass"] == exact.mass
    assert report["approx_mass"] == approx.mass
    assert report["tvd_table"] == tvd(exact, approx)
    assert report["tvd_upper"] == tvd_upper_bound(exact, approx)
    # row by row: the scorer's p is the exact table, every product row is
    # an exact row, and q there is the product table's probability, bit
    # for bit
    budget = min(policy.n_total_max, budget_cap)
    p, q = blsampler.diagnostics._exact_and_block_product(
        quad_to_complex(state_covariance(circ, lat, squeezing)),
        block_approx_covariance(circ, lat, squeezing),
        TruncationPolicy(policy.epsilon, budget),
    )
    np.testing.assert_array_equal(p, exact.probs)
    powers = (budget + 1) ** np.arange(lat.n_modes, dtype=np.int64)
    exact_keys = exact.counts.astype(np.int64) @ powers
    approx_keys = approx.counts.astype(np.int64) @ powers
    order = np.argsort(exact_keys)
    at = np.searchsorted(exact_keys, approx_keys, sorter=order)
    at = order[np.minimum(at, order.size - 1)]
    np.testing.assert_array_equal(exact_keys[at], approx_keys)
    expected = np.zeros(exact.probs.shape[0])
    expected[at] = approx.probs
    np.testing.assert_array_equal(q, expected)


def test_theorem_bound_report_peak_holds_no_count_table():
    # one warm bounds-small report: the exact table's 735,471 x 8 count
    # rows (11.8 MB) and a per-row key array per block are never built.
    # Building them peaked at 41.2 MB.  The pair grids with a per-cell key
    # gather and fresh temporaries per step peaked at 29.4 MB; with
    # in-place grid arithmetic, per-half block lookups and |p - q| in q's
    # buffer the peak is 18.4 MB.
    dim, sources, edge, depth = _BOUNDS_SMALL
    lat = build_lattice(dim, sources, edge)
    circ = sample_random_circuit(lat, depth, np.random.default_rng(31))
    policy = truncation_threshold(sources, 0.5, epsilon=1e-6)
    warm = theorem_bound_report(circ, 0.5, policy=policy)
    tracemalloc.start()
    try:
        report = theorem_bound_report(circ, 0.5, policy=policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == warm
    assert peak < 22e6, f"traced peak {peak / 1e6:.1f} MB"


def test_theorem_bound_report_does_not_depend_on_the_table_cache(monkeypatch):
    # the moment tables and Gram matrices are cached per process: a report
    # taken after two other instances warmed them equals one taken with
    # fresh tables, bit for bit
    dim, sources, edge, depth = _BOUNDS_SMALL
    lat = build_lattice(dim, sources, edge)
    policy = truncation_threshold(sources, 0.5, epsilon=1e-6)
    circs = [
        sample_random_circuit(lat, depth, np.random.default_rng(seed))
        for seed in (41, 42, 43)
    ]
    for circ in circs[1:]:
        theorem_bound_report(circ, 0.5, policy=policy)
    warm = theorem_bound_report(circs[0], 0.5, policy=policy)
    monkeypatch.setattr(blsampler._moments, "_TABLES", {})
    fresh = theorem_bound_report(circs[0], 0.5, policy=policy)
    assert blsampler._moments._TABLES  # the report built its own tables
    assert fresh == warm


def test_theorem_bound_report_keys_wide_blocks_exactly():
    # blocks of 32 modes at budget 3 need 64 key bits: the keys stay
    # Python ints, and the product table compares through tvd's dicts
    lat = build_lattice(1, 2, 32)
    circ = sample_random_circuit(lat, 24, np.random.default_rng(32))
    policy = truncation_threshold(2, 0.5, epsilon=1e-6)
    report = theorem_bound_report(
        circ, 0.5, policy=policy, enumerate_modes_cap=64, enumerate_budget_cap=3
    )
    exact, approx = _report_tables(circ, 0.5, policy, budget_cap=3)
    assert report["approx_mass"] == approx.mass
    assert report["tvd_table"] > 0.0
    assert report["tvd_table"] == tvd(exact, approx)


def test_theorem_bound_report_skips_enumeration_when_large():
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 2, np.random.default_rng(28))
    policy = truncation_threshold(2, 0.5, epsilon=1e-6)
    report = theorem_bound_report(circ, 0.5, policy=policy, enumerate_modes_cap=4)
    assert "tvd_table" not in report
    assert "x_measured" in report


def _three_replay_report(circuit, lattice, squeezing, policy):
    """The bound report built as it was before one replay fed every part:
    the full unitary, then the state covariance and the blocks, each from
    its own replay of the circuit."""
    unitary = accumulate_unitary(circuit)
    leak = leakage_rate(unitary, lattice, circuit.depth)
    v_out = state_covariance(circuit, lattice, squeezing)
    blocks = block_approx_covariance(circuit, lattice, squeezing)
    v_a = blocks.assemble()
    x_measured = frobenius_diff(v_out, v_a)
    n = lattice.n_sources
    report = {
        "dim": lattice.dim,
        "edge": lattice.edge,
        "n_sources": n,
        "n_modes": lattice.n_modes,
        "depth": circuit.depth,
        "squeezing": squeezing,
        "eta_per_source": list(leak.per_source_eta),
        "eta_max": leak.eta_max,
        "leakage_bound": leak.bound,
        "x_norm_bound": x_norm_bound(leak.eta_max, n, squeezing),
        "x_measured": x_measured,
        "small_x_valid": bool(x_measured <= SMALL_X_THRESHOLD),
        "infidelity_measured": 1.0 - fidelity(v_out, v_a),
        "infidelity_bound": infidelity_bound(x_measured, n, squeezing),
        "tvd_bound": tvd_bound(x_measured, n, squeezing),
    }
    budget = min(int(policy.n_total_max), 16)
    clamped = TruncationPolicy(policy.epsilon, budget)
    exact = enumerate_gbs_distribution(quad_to_complex(v_out), clamped)
    approx = product_distribution(
        [
            enumerate_gbs_distribution(quad_to_complex(block), clamped)
            for block in blocks.blocks
        ],
        lattice.sublattices,
        lattice.n_modes,
        budget=budget,
    )
    report["exact_mass"] = exact.mass
    report["approx_mass"] = approx.mass
    report["tvd_table"] = tvd(exact, approx)
    report["tvd_upper"] = tvd_upper_bound(exact, approx)
    return report


@pytest.mark.parametrize(
    "dim, n_sources, edge, depth",
    [(1, 2, 4, 4), (2, 2, 2, 3), (1, 4, 1, 3)],
    ids=["d1", "d2", "edge1"],
)
def test_theorem_bound_report_replays_the_circuit_once(
    monkeypatch, dim, n_sources, edge, depth
):
    lat = build_lattice(dim, n_sources, edge)
    circ = sample_random_circuit(lat, depth, np.random.default_rng(29))
    policy = truncation_threshold(n_sources, 0.5, epsilon=1e-6)
    want = _three_replay_report(circ, lat, 0.5, policy)
    replays = []
    apply_gates = blsampler.lattice._apply_gates

    def counted(circuit, u):
        replays.append(u.shape)
        return apply_gates(circuit, u)

    monkeypatch.setattr("blsampler.lattice._apply_gates", counted)
    report = theorem_bound_report(circ, 0.5, policy=policy)
    assert replays == [(lat.n_modes, lat.n_sources)]
    assert report == want


# ------------------------------------------- the full U or its source columns


def _draws(u, lat):
    rngs = [np.random.default_rng([7, i]) for i in range(50)]
    return np.array([distinguishable_fock_sample(u, lat, rng) for rng in rngs])


_READERS = {
    "distinguishable_fock_sample": _draws,
    "leakage_rate": lambda u, lat: leakage_rate(u, lat, 3),
    "fock_error_bound": lambda u, lat: fock_error_bound(u, lat, 3),
    "enumerate_fock_distribution": enumerate_fock_distribution,
    "enumerate_distinguishable_distribution": enumerate_distinguishable_distribution,
}
_LATTICES = pytest.mark.parametrize(
    "dim, n_sources, edge", [(1, 3, 3), (2, 2, 2), (1, 4, 1)], ids=["d1", "d2", "edge1"]
)


@_LATTICES
@pytest.mark.parametrize("reader", list(_READERS))
def test_readers_take_the_unitary_or_its_source_columns(reader, dim, n_sources, edge):
    lat = build_lattice(dim, n_sources, edge)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(31))
    full = _READERS[reader](accumulate_unitary(circ), lat)
    cols = _READERS[reader](source_columns(circ), lat)
    if isinstance(full, Distribution):
        assert np.array_equal(full.counts, cols.counts)
        assert np.array_equal(full.probs, cols.probs)
    elif isinstance(full, np.ndarray):
        assert np.array_equal(full, cols)
    else:
        assert full == cols


@_LATTICES
@pytest.mark.parametrize("reader", list(_READERS))
def test_readers_reject_other_shapes(reader, dim, n_sources, edge):
    lat = build_lattice(dim, n_sources, edge)
    m, n = lat.n_modes, lat.n_sources
    for shape in [(m, n + 1), (m + 1, m + 1)]:
        with pytest.raises(ValueError, match="source columns"):
            _READERS[reader](np.zeros(shape, dtype=complex), lat)


# ----------------------------------------------------------------- writers


def test_write_csv_embeds_parseable_config(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(
        path,
        ["depth", "eta"],
        [{"depth": 1, "eta": 0.5}, {"depth": 2, "eta": 0.25}],
        config={"edge": np.int64(4), "squeezing": np.float64(0.5)},
    )
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: ") :])
    assert config == {"edge": 4, "squeezing": 0.5}
    assert lines[1] == "depth,eta"
    assert lines[2] == "1,0.5"


def test_write_json_converts_numpy_types(tmp_path):
    path = tmp_path / "report.json"
    write_json(
        path,
        {"values": np.arange(3), "count": np.int64(7), "x": np.float64(0.5)},
    )
    payload = json.loads(path.read_text())
    assert payload == {"values": [0, 1, 2], "count": 7, "x": 0.5}
