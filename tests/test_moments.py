"""Moment-table internals: shift maps, weights, Gram matrices, thread growth."""

import math
import threading

import numpy as np
import pytest

from blsampler import _moments
from blsampler.errors import SizeCapError


def _brute_multiply(poly: dict, form) -> dict:
    """Reference polynomial multiply on exponent-tuple dicts."""
    out: dict = {}
    for expo, coeff in poly.items():
        for r, fr in enumerate(form):
            if fr == 0:
                continue
            key = list(expo)
            key[r] += 1
            key = tuple(key)
            out[key] = out.get(key, 0j) + coeff * fr
    return out


def _recursive_compositions(degree: int, n_vars: int) -> np.ndarray:
    """Reference enumerator, kept independent of the module: the recursive
    lexicographic construction the tables were first built on."""
    if n_vars == 1:
        return np.array([[degree]], dtype=np.int64)
    parts = []
    for first in range(degree + 1):
        rest = _recursive_compositions(degree - first, n_vars - 1)
        block = np.empty((rest.shape[0], n_vars), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        parts.append(block)
    return np.vstack(parts)


def _coeffs_to_dict(tabs, coeffs, degree):
    comps = _moments._compositions(degree, tabs.n_vars)
    return {tuple(c): v for c, v in zip(comps.tolist(), coeffs) if v != 0}


def test_compositions_count_and_order():
    for degree, n_vars in [(0, 3), (3, 2), (4, 4), (6, 1)]:
        comps = _moments._compositions(degree, n_vars)
        assert comps.shape == (
            math.comb(degree + n_vars - 1, n_vars - 1),
            n_vars,
        )
        assert (comps.sum(axis=1) == degree).all()
        assert (comps >= 0).all()
        # strict lexicographic ascent: the first differing exponent rises
        for lo, hi in zip(comps[:-1].tolist(), comps[1:].tolist()):
            assert lo < hi


@pytest.mark.parametrize("n_vars", [1, 2, 3, 4, 5])
def test_compositions_match_recursive_reference(n_vars):
    for degree in range(13):
        got = _moments._compositions(degree, n_vars)
        want = _recursive_compositions(degree, n_vars)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_ensure_refuses_degrees_past_the_double_factorials():
    tabs = _moments.MomentTables(1)
    tabs.ensure(257)  # the even row 256 reads the last entry, 255!!
    assert np.isfinite(tabs.weights(256)).all()
    with pytest.raises(SizeCapError):
        tabs.ensure(258)
    assert tabs.size(257) == 1  # the refusal leaves the tables intact


def test_multiply_linear_matches_brute_polynomial():
    rng = np.random.default_rng(8)
    tabs = _moments.MomentTables(3)
    coeffs = np.zeros(tabs.size(0), dtype=complex)
    coeffs[0] = 1.0
    poly = {(0, 0, 0): 1.0 + 0j}
    for degree in range(5):
        form = rng.normal(size=3) + 1j * rng.normal(size=3)
        coeffs = tabs.multiply_linear(coeffs, degree, form)
        poly = _brute_multiply(poly, form)
        got = _coeffs_to_dict(tabs, coeffs, degree + 1)
        assert set(got) == set(poly)
        for key, val in poly.items():
            assert got[key] == pytest.approx(val, rel=1e-12)


def test_multiply_linear_batched_equals_rowwise():
    rng = np.random.default_rng(21)
    tabs = _moments.tables(4)
    degree = 3
    batch = rng.normal(size=(5, tabs.size(degree))) + 0j
    form = rng.normal(size=4) + 1j * rng.normal(size=4)
    out = tabs.multiply_linear(batch, degree, form)
    for row in range(5):
        assert np.allclose(out[row], tabs.multiply_linear(batch[row], degree, form))


def test_gaussian_moments_single_variable():
    tabs = _moments.MomentTables(1)
    # E[z^2] = 1, E[z^4] = 3, E[z^6] = 15; odd moments vanish
    for degree, want in [(2, 1.0), (4, 3.0), (6, 15.0)]:
        coeffs = np.zeros(tabs.size(degree))
        coeffs[0] = 1.0
        assert tabs.moment(coeffs, degree) == pytest.approx(want)
    assert tabs.moment(np.ones(tabs.size(3)), 3) == 0j


def test_gaussian_moment_mixed_even():
    tabs = _moments.MomentTables(2)
    comps = _moments._compositions(4, 2)
    # E[z1^2 z2^2] = E[z1^2] E[z2^2] = 1
    coeffs = np.zeros(comps.shape[0])
    coeffs[(comps == [2, 2]).all(axis=1)] = 1.0
    assert tabs.moment(coeffs, 4) == pytest.approx(1.0)


def test_moment_via_weights_accessor():
    rng = np.random.default_rng(3)
    tabs = _moments.tables(2)
    for degree in [2, 4, 8]:
        coeffs = rng.normal(size=tabs.size(degree)) + 0j
        assert tabs.moment(coeffs, degree) == pytest.approx(
            complex(tabs.weights(degree) @ coeffs)
        )


@pytest.mark.parametrize("n_vars", [1, 2, 3, 4])
def test_gram_holds_the_weight_of_each_exponent_sum(n_vars):
    tabs = _moments.tables(n_vars)
    for deg_u in range(6):
        for deg_v in range(6):
            u = _recursive_compositions(deg_u, n_vars)
            v = _recursive_compositions(deg_v, n_vars)
            sums = _recursive_compositions(deg_u + deg_v, n_vars)
            row = {tuple(s): k for k, s in enumerate(sums.tolist())}
            w = tabs.weights(deg_u + deg_v)
            want = np.array(
                [[w[row[tuple((a + b).tolist())]] for b in v] for a in u]
            ).reshape(u.shape[0], v.shape[0])
            assert np.array_equal(tabs.gram(deg_u, deg_v), want)


def test_gram_pairs_two_polynomials_into_their_product_moment():
    rng = np.random.default_rng(5)
    tabs = _moments.tables(3)
    forms = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    p, q = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
    for degree, form in enumerate(forms[:4]):
        p = tabs.multiply_linear(p, degree, form)
    pq = p
    for degree, form in enumerate(forms[4:], start=4):
        q = tabs.multiply_linear(q, degree - 4, form)
        pq = tabs.multiply_linear(pq, degree, form)
    assert p @ tabs.gram(4, 2) @ q == pytest.approx(tabs.moment(pq, 6), rel=1e-12)


@pytest.mark.parametrize("n_vars", [1, 2, 4])
def test_gram_is_built_once_read_only_with_fresh_bits(n_vars):
    tabs = _moments.tables(n_vars)
    for deg_u, deg_v in [(0, 0), (4, 2), (2, 4), (6, 6)]:
        first = tabs.gram(deg_u, deg_v)
        assert tabs.gram(deg_u, deg_v) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        fresh = _moments.MomentTables(n_vars).gram(deg_u, deg_v)
        assert fresh is not first
        assert fresh.shape == first.shape
        assert fresh.tobytes() == first.tobytes()


def test_concurrent_table_growth_stays_consistent():
    # regression: unsynchronized growth used to misalign the degree lists
    tabs = _moments.MomentTables(3)
    rng = np.random.default_rng(4)
    forms = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    errors = []

    def worker(form):
        try:
            coeffs = np.ones(1, dtype=complex)
            for degree in range(24):
                coeffs = tabs.multiply_linear(coeffs, degree, form)
        except Exception as exc:  # noqa: BLE001 - we want any failure
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(f,)) for f in forms]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # all lists must line up degree-for-degree afterwards
    assert len(tabs._dst) == len(tabs._weights) == 24 + 1


def _masked_maps(n_vars, degree):
    """The old ``-1``-padded shift maps: per variable, the index of
    ``comp - e_r`` at ``degree - 1`` for every degree-``degree`` comp."""
    prev = {
        tuple(c): i
        for i, c in enumerate(_recursive_compositions(degree - 1, n_vars).tolist())
    }
    maps = []
    for r in range(n_vars):
        pos = []
        for comp in _recursive_compositions(degree, n_vars).tolist():
            comp[r] -= 1
            pos.append(prev[tuple(comp)] if comp[r] >= 0 else -1)
        maps.append(np.array(pos, dtype=np.int64))
    return maps


def _masked_multiply(n_vars, coeffs, degree, form):
    """The masked kernel as it was: a boolean mask and a gather per call."""
    maps = _masked_maps(n_vars, degree + 1)
    out = np.zeros(coeffs.shape[:-1] + (maps[0].shape[0],), dtype=complex)
    for r in range(n_vars):
        if form[r] == 0:
            continue
        src = maps[r]
        valid = src >= 0
        out[..., valid] += form[r] * coeffs[..., src[valid]]
    return out


def _kernel_forms(rng, n_vars):
    dense = rng.normal(size=n_vars) + 1j * rng.normal(size=n_vars)
    sparse = dense.copy()
    sparse[::2] = 0  # zero entries take the skip branch
    return [dense, sparse]


@pytest.mark.parametrize("n_vars", [1, 2, 3, 4])
def test_multiply_linear_is_bit_identical_to_masked_kernel(n_vars):
    rng = np.random.default_rng(100 + n_vars)
    tabs = _moments.tables(n_vars)
    for degree in range(11):
        size = tabs.size(degree)
        inputs = [
            rng.normal(size=size) + 1j * rng.normal(size=size),
            rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size)),
            rng.normal(size=(2, 2, size)),  # real and twice batched
        ]
        for form in _kernel_forms(rng, n_vars):
            for coeffs in inputs:
                got = tabs.multiply_linear(coeffs, degree, form)
                want = _masked_multiply(n_vars, coeffs, degree, form)
                assert got.shape == want.shape
                assert np.array_equal(got, want)


@pytest.mark.parametrize("n_vars", [1, 2, 3, 4])
def test_shift_rows_are_slices_where_contiguous(n_vars):
    tabs = _moments.tables(n_vars)
    tabs.ensure(10)
    for degree in range(1, 11):
        maps = _masked_maps(n_vars, degree)
        assert len(tabs._dst[degree]) == n_vars
        for r, dst in enumerate(tabs._dst[degree]):
            if r == 0 or n_vars <= 2:
                assert isinstance(dst, slice)
            valid = maps[r] >= 0
            assert np.array_equal(np.arange(valid.size)[dst], np.flatnonzero(valid))
            # the implied source is the whole lower degree, in order
            assert np.array_equal(maps[r][valid], np.arange(tabs.size(degree - 1)))
