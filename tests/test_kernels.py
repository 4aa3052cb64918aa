"""Matrix kernel tests: hafnian (general + low-rank), permanent, takagi."""

import math

import numpy as np
import pytest

from blsampler import (
    HAFNIAN_DIM_CAP,
    PERMANENT_DIM_CAP,
    SizeCapError,
    UnsupportedRankError,
    hafnian_general,
    hafnian_low_rank,
    permanent,
    run_selftest,
    takagi_factor,
)
from blsampler.kernels import _permanent_reference


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------- hafnian


def test_hafnian_empty_matrix_is_one():
    assert hafnian_general(np.zeros((0, 0))) == 1.0


def test_hafnian_two_by_two_is_offdiagonal():
    a = np.array([[0.3, 1.7 - 0.2j], [1.7 - 0.2j, 2.0]])
    assert hafnian_general(a) == pytest.approx(1.7 - 0.2j)


def test_hafnian_all_ones_counts_perfect_matchings():
    # (n-1)!! perfect matchings of the complete graph
    assert hafnian_general(np.ones((4, 4))) == pytest.approx(3.0)
    assert hafnian_general(np.ones((6, 6))) == pytest.approx(15.0)
    assert hafnian_general(np.ones((8, 8))) == pytest.approx(105.0)


def test_hafnian_block_diagonal_multiplies():
    rng = np.random.default_rng(5)
    a = _random_complex(rng, (4, 4))
    a = a + a.T
    b = _random_complex(rng, (2, 2))
    b = b + b.T
    big = np.zeros((6, 6), dtype=complex)
    big[:4, :4] = a
    big[4:, 4:] = b
    assert hafnian_general(big) == pytest.approx(
        hafnian_general(a) * hafnian_general(b)
    )


def test_hafnian_odd_dimension_rejected():
    with pytest.raises(ValueError):
        hafnian_general(np.ones((3, 3)))


def test_hafnian_asymmetric_rejected():
    a = np.ones((4, 4))
    a[0, 1] = 2.0
    with pytest.raises(ValueError):
        hafnian_general(a)


def test_hafnian_dimension_cap():
    n = HAFNIAN_DIM_CAP + 2
    with pytest.raises(SizeCapError):
        hafnian_general(np.zeros((n, n)))


# ------------------------------------------------------- low-rank hafnian


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_low_rank_matches_general(rank):
    rng = np.random.default_rng(100 + rank)
    for _ in range(25):
        n = int(rng.integers(1, 6)) * 2
        g = _random_complex(rng, (n, rank))
        direct = hafnian_general(g @ g.T)
        low = hafnian_low_rank(g)
        assert low == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_low_rank_odd_rows_is_zero():
    rng = np.random.default_rng(2)
    assert hafnian_low_rank(_random_complex(rng, (5, 2))) == 0j


def test_low_rank_empty_is_one():
    assert hafnian_low_rank(np.zeros((0, 3))) == 1.0 + 0j


def test_low_rank_rank_cap():
    with pytest.raises(UnsupportedRankError):
        hafnian_low_rank(np.ones((4, 5)))


def test_low_rank_repeated_rows_match_repeat_helper():
    # hafnian with repetitions: repeat factor rows vs repeat matrix rows/cols
    rng = np.random.default_rng(31)
    g = _random_complex(rng, (3, 2))
    counts = np.array([2, 0, 2])
    g_rep = np.repeat(g, counts, axis=0)
    idx = np.repeat(np.arange(3), counts)
    a_rep = (g @ g.T)[np.ix_(idx, idx)]
    assert hafnian_low_rank(g_rep) == pytest.approx(hafnian_general(a_rep))


# -------------------------------------------------------------- permanent


def test_permanent_identity():
    assert permanent(np.eye(5)) == pytest.approx(1.0)


def test_permanent_all_ones_is_factorial():
    assert permanent(np.ones((5, 5))) == pytest.approx(120.0)


def test_permanent_matches_permutation_sum():
    rng = np.random.default_rng(77)
    for n in range(1, 8):
        m = _random_complex(rng, (n, n))
        assert permanent(m) == pytest.approx(
            _permanent_reference(m), rel=1e-11, abs=1e-12
        )


def test_permanent_balanced_splitter_interferes_to_zero():
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert permanent(u) == pytest.approx(0.0, abs=1e-14)


def test_permanent_empty_is_one():
    assert permanent(np.zeros((0, 0))) == 1.0


def test_permanent_dimension_cap():
    n = PERMANENT_DIM_CAP + 1
    with pytest.raises(SizeCapError):
        permanent(np.zeros((n, n)))


def test_permanent_nonsquare_rejected():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))


# ----------------------------------------------------------------- takagi


def test_takagi_reconstructs_symmetric():
    rng = np.random.default_rng(9)
    for n in [1, 2, 4, 7]:
        a = _random_complex(rng, (n, n))
        a = a + a.T
        g = takagi_factor(a)
        assert np.allclose(g @ g.T, a, atol=1e-10 * max(1.0, np.abs(a).max()))


def test_takagi_detects_thin_rank():
    rng = np.random.default_rng(19)
    thin = _random_complex(rng, (6, 2))
    a = thin @ thin.T
    g = takagi_factor(a)
    assert g.shape == (6, 2)
    assert np.allclose(g @ g.T, a, atol=1e-10 * np.abs(a).max())


def test_takagi_zero_matrix_has_zero_columns():
    g = takagi_factor(np.zeros((4, 4), dtype=complex))
    assert g.shape == (4, 0)


# ---------------------------------------------------------------- selftest


def test_selftest_reports_all_green():
    report = run_selftest()
    assert report["passed"]
    assert all(check["passed"] for check in report["checks"])
    assert len(report["checks"]) == 5
