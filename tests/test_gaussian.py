"""Covariance construction, conversions, purity/fidelity, bound evaluators."""

import math

import numpy as np
import pytest

from blsampler import (
    ConditioningError,
    QuadCovariance,
    SMALL_X_THRESHOLD,
    a_matrix,
    beam_splitter_unitary,
    block_approx_covariance,
    build_lattice,
    fidelity,
    frobenius_diff,
    infidelity_bound,
    purity_defect,
    quad_to_complex,
    reduce_complex,
    reduce_quad,
    sample_random_circuit,
    state_covariance,
    tvd_bound,
    x_norm_bound,
)


def _single_mode_squeezed(r: float) -> QuadCovariance:
    return QuadCovariance(np.diag([math.exp(2 * r), math.exp(-2 * r)]) / 2.0)


def _vacuum(n_modes: int) -> QuadCovariance:
    return QuadCovariance(np.eye(2 * n_modes) / 2.0)


def _symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """Williamson spectrum of ``v``, descending; vacuum modes give 1/2.

    The eigenvalues of ``Omega V`` are ``+/- i nu``, so each modulus
    appears twice.
    """
    omega = np.kron(np.eye(v.shape[0] // 2), [[0.0, 1.0], [-1.0, 0.0]])
    nus = np.sort(np.abs(np.linalg.eigvals(omega @ v)))[::-1]
    return nus[::2]


def _t_matrix(m: int) -> np.ndarray:
    """Dense unitary from interleaved quadratures to ``a_j = (x_j + i p_j) /
    sqrt 2`` and ``a_j^+ = (x_j - i p_j) / sqrt 2``."""
    j = np.arange(m)
    t = np.zeros((2 * m, 2 * m), dtype=complex)
    t[j, 2 * j] = t[j + m, 2 * j] = 1.0 / math.sqrt(2.0)
    t[j, 2 * j + 1] = 1j / math.sqrt(2.0)
    t[j + m, 2 * j + 1] = -1j / math.sqrt(2.0)
    return t


def _complex_to_quad(sigma: np.ndarray) -> np.ndarray:
    """Back to interleaved quadratures."""
    t = _t_matrix(sigma.shape[0] // 2)
    return (t.conj().T @ sigma @ t).real


# ------------------------------------------------------------ construction


def test_state_covariance_stays_pure():
    lat = build_lattice(1, 2, 2)
    circ = sample_random_circuit(lat, 4, np.random.default_rng(2))
    cov = state_covariance(circ, lat, 0.8)
    assert purity_defect(cov) < 1e-10
    nus = _symplectic_eigenvalues(cov.matrix)
    assert np.allclose(nus, 0.5, atol=1e-10)


def test_zero_squeezing_gives_vacuum_everywhere():
    lat = build_lattice(1, 2, 2)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(4))
    cov = state_covariance(circ, lat, 0.0)
    assert np.allclose(cov.matrix, np.eye(8) / 2.0, atol=1e-12)


# ------------------------------------------------------------- conversions


def test_quad_complex_round_trip():
    lat = build_lattice(1, 1, 3)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(6))
    cov = state_covariance(circ, lat, 0.5)
    back = _complex_to_quad(quad_to_complex(cov).matrix)
    assert np.allclose(back, cov.matrix, atol=1e-12)


@pytest.mark.parametrize(
    "dim, n_sources, edge, depth",
    [(1, 2, 2, 2), (1, 2, 4, 4), (2, 2, 2, 3), (1, 3, 2, 2), (1, 3, 3, 5), (2, 1, 3, 2)],
)
def test_sliced_basis_change_equals_dense_t(dim, n_sources, edge, depth):
    # The dense T V T^+ is summed elementwise, not by a BLAS product: each
    # entry is then one product per nonzero of T and one sum of two terms,
    # as in the slices, so the two agree bit for bit on every CPU.
    def product(a, b):
        return (a[:, :, None] * b[None, :, :]).sum(axis=1)

    lat = build_lattice(dim, n_sources, edge)
    for seed in range(10):
        circ = sample_random_circuit(lat, depth, np.random.default_rng(seed))
        for r in (0.3, 1.0):
            blocks = block_approx_covariance(circ, lat, r).blocks
            for cov in (state_covariance(circ, lat, r), *blocks):
                t = _t_matrix(cov.n_modes)
                dense = product(product(t, cov.matrix), t.conj().T)
                assert np.array_equal(quad_to_complex(cov).matrix, dense)


def test_reduction_commutes_with_conversion():
    lat = build_lattice(1, 2, 2)
    circ = sample_random_circuit(lat, 4, np.random.default_rng(8))
    cov = state_covariance(circ, lat, 0.6)
    modes = [0, 2, 3]
    a = quad_to_complex(reduce_quad(cov, modes))
    b = reduce_complex(quad_to_complex(cov), modes)
    assert np.allclose(a.matrix, b.matrix, atol=1e-12)


def test_reduced_state_is_mixed():
    lat = build_lattice(1, 1, 4)
    circ = sample_random_circuit(lat, 4, np.random.default_rng(10))
    cov = state_covariance(circ, lat, 0.9)
    sub = reduce_quad(cov, [0, 1])
    assert purity_defect(sub) > 1e-4
    assert _symplectic_eigenvalues(sub.matrix).max() > 0.5


# ---------------------------------------------------------------- a-matrix


def test_pure_a_matrix_is_block_structured():
    lat = build_lattice(1, 2, 2)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(12))
    cov = quad_to_complex(state_covariance(circ, lat, 0.5))
    m = lat.n_modes
    a = a_matrix(cov).matrix
    assert np.abs(a[:m, m:]).max() < 1e-10
    assert np.abs(a[m:, :m]).max() < 1e-10
    assert np.allclose(a[m:, m:], a[:m, :m].conj(), atol=1e-10)


def test_a_matrix_vacuum_is_zero():
    a = a_matrix(quad_to_complex(_vacuum(3)))
    assert np.abs(a.matrix).max() < 1e-14


# ------------------------------------------------------- fidelity and norms


@pytest.mark.parametrize("r", [0.2, 0.5, 1.0])
def test_fidelity_vacuum_vs_squeezed_closed_form(r):
    f = fidelity(_vacuum(1), _single_mode_squeezed(r))
    assert f == pytest.approx(1.0 / math.cosh(r), abs=1e-12)


def test_fidelity_identical_states_is_one():
    lat = build_lattice(1, 1, 2)
    circ = sample_random_circuit(lat, 2, np.random.default_rng(16))
    cov = state_covariance(circ, lat, 0.3)
    assert fidelity(cov, cov) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_requires_pure_first_argument():
    mixed = QuadCovariance(np.eye(2))  # thermal: det(2V) = 4
    with pytest.raises(ConditioningError):
        fidelity(mixed, _vacuum(1))


def test_frobenius_diff_basic():
    v1 = _vacuum(2)
    v2 = QuadCovariance(v1.matrix + 0.01 * np.eye(4))
    assert frobenius_diff(v1, v2) == pytest.approx(0.02, abs=1e-12)


def test_x_norm_bound_reference_value():
    # eta = 0.01, N = 2, r = 0: 1 * 4 * (0.01 + 0.2) = 0.84
    assert x_norm_bound(0.01, 2, 0.0) == pytest.approx(0.84, abs=1e-12)
    assert x_norm_bound(0.0, 3, 0.7) == 0.0
    with pytest.raises(ValueError):
        x_norm_bound(-0.1, 2, 0.5)


def test_tvd_bound_reference_value():
    # (N cosh(4r) ||X||^2 / 2)^(1/4) at ||X|| = 0.01, N = 2, r = 0.5
    want = (2.0 * math.cosh(2.0) * 1e-4 / 2.0) ** 0.25
    assert tvd_bound(0.01, 2, 0.5) == pytest.approx(want, rel=1e-12)
    assert abs(want - 0.1393) < 5e-4


def test_infidelity_bound_scales_linearly():
    assert infidelity_bound(0.0, 2, 0.5) == 0.0
    assert infidelity_bound(0.02, 2, 0.5) == pytest.approx(
        2.0 * infidelity_bound(0.01, 2, 0.5)
    )
    assert SMALL_X_THRESHOLD == pytest.approx(0.1)


# --------------------------------------------------------- block covariance


def test_block_approx_depth_zero_is_exact():
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 0, np.random.default_rng(18))
    exact = state_covariance(circ, lat, 0.6)
    approx = block_approx_covariance(circ, lat, 0.6).assemble()
    assert np.allclose(approx.matrix, exact.matrix, atol=1e-12)


def test_block_approx_in_cone_is_exact():
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 2, np.random.default_rng(20))
    exact = state_covariance(circ, lat, 0.6)
    approx = block_approx_covariance(circ, lat, 0.6).assemble()
    assert frobenius_diff(exact, approx) < 1e-12


def test_block_approx_refuses_a_lattice_the_circuit_was_not_built_on():
    # same mode count, other blocks; then an equal but separate lattice
    circ = sample_random_circuit(build_lattice(1, 2, 4), 3, np.random.default_rng(21))
    for other in (build_lattice(1, 4, 2), build_lattice(1, 2, 4)):
        with pytest.raises(ValueError, match="lattice"):
            block_approx_covariance(circ, other, 0.5)
    assert len(block_approx_covariance(circ, circ.lattice, 0.5).blocks) == 2


def test_block_approx_is_block_diagonal():
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 5, np.random.default_rng(22))
    bav = block_approx_covariance(circ, lat, 0.6)
    full = bav.assemble().matrix
    # zero out the diagonal blocks; nothing may remain
    leftover = full.copy()
    for modes in lat.sublattices:
        q = np.sort(np.concatenate([[2 * m, 2 * m + 1] for m in modes]))
        leftover[np.ix_(q, q)] = 0.0
    assert np.abs(leftover).max() == 0.0


def test_block_approx_blocks_match_reduced_exact_at_shallow_depth():
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 2, np.random.default_rng(24))
    exact = state_covariance(circ, lat, 0.5)
    bav = block_approx_covariance(circ, lat, 0.5)
    for block, modes in zip(bav.blocks, lat.sublattices):
        sub = reduce_quad(exact, list(modes))
        assert np.allclose(block.matrix, sub.matrix, atol=1e-12)


def test_block_approx_deviation_grows_with_depth():
    lat = build_lattice(1, 2, 4)
    rng = np.random.default_rng(26)
    diffs = []
    for depth in [2, 4, 6]:
        circ = sample_random_circuit(lat, depth, rng)
        exact = state_covariance(circ, lat, 0.5)
        approx = block_approx_covariance(circ, lat, 0.5).assemble()
        diffs.append(frobenius_diff(exact, approx))
    assert diffs[0] < 1e-12
    assert diffs[1] > diffs[0]


def _realified(u: np.ndarray) -> np.ndarray:
    """Each complex entry becomes ``[[Re, -Im], [Im, Re]]`` (interleaved)."""
    out = np.empty((2 * u.shape[0], 2 * u.shape[1]))
    out[0::2, 0::2], out[0::2, 1::2] = u.real, -u.imag
    out[1::2, 0::2], out[1::2, 1::2] = u.imag, u.real
    return out


def _reference_symplectic(circ) -> np.ndarray:
    """Gate-by-gate product of realified 2x2 beam-splitter unitaries."""
    s = np.eye(2 * circ.n_modes)
    for pairs, angles in zip(circ.pairs, circ.angles):
        for (i, j), (theta, phi) in zip(pairs.tolist(), angles.tolist()):
            rows = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
            s[rows] = _realified(beam_splitter_unitary(theta, phi)) @ s[rows]
    return s


def _squeezed_input(lat, sources, r) -> np.ndarray:
    diag = np.full(2 * lat.n_modes, 0.5)
    for src in sources:
        diag[2 * src] = math.exp(2 * r) / 2.0
        diag[2 * src + 1] = math.exp(-2 * r) / 2.0
    return np.diag(diag)


@pytest.mark.parametrize("dim, edge, depth", [(1, 4, 6), (2, 3, 4)])
def test_covariances_match_gate_by_gate_symplectic(dim, edge, depth):
    lat = build_lattice(dim, 4, edge)
    circ = sample_random_circuit(lat, depth, np.random.default_rng(17))
    s = _reference_symplectic(circ)
    r = 0.8
    want = s @ _squeezed_input(lat, lat.sources, r) @ s.T
    assert np.abs(state_covariance(circ, lat, r).matrix - want).max() < 1e-12
    bav = block_approx_covariance(circ, lat, r)
    for block, modes, src in zip(bav.blocks, lat.sublattices, lat.sources):
        q = np.sort(np.concatenate([[2 * m, 2 * m + 1] for m in modes]))
        alone = s @ _squeezed_input(lat, [src], r) @ s.T
        assert np.abs(block.matrix - alone[np.ix_(q, q)]).max() < 1e-12

