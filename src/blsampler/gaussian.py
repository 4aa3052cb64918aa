"""Gaussian-state machinery for squeezed-input beam-splitter lattices.

Quadrature covariances use the interleaved ordering
``(x_0, p_0, x_1, p_1, ...)`` with vacuum ``V = I/2`` (hbar = 1 units).
Complex covariances use the ordering ``(a_0..a_{M-1}, a_0^+..a_{M-1}^+)``
and are related to quadrature ones by the unitary basis change
:func:`quad_to_complex`, ``a_j = (x_j + i p_j)/sqrt 2``, applied as strided
slices; vacuum again has ``Sigma = I/2``.

The sampling-facing objects are the ``A`` matrices: ``A = Y (I - Q^{-1})``
with ``Q = Sigma + I/2`` and ``Y`` the block swap, whose hafnians give
photon-number probabilities.

Everything here that depends on the circuit is derived from its N source
columns, :func:`~blsampler.lattice.source_columns`: the output covariance
is ``I/2`` plus one rank-2 update per source, and the block approximation
applies the same update to each block's rows of its own source column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError
from .lattice import Circuit, LatticeSpec, source_columns

__all__ = [
    "QuadCovariance",
    "ComplexCovariance",
    "AMatrix",
    "BlockApproxCovariance",
    "state_covariance",
    "quad_to_complex",
    "reduce_complex",
    "a_matrix",
    "block_approx_covariance",
    "purity_defect",
    "fidelity",
    "frobenius_diff",
    "infidelity_bound",
    "x_norm_bound",
    "tvd_bound",
    "SMALL_X_THRESHOLD",
]

#: Largest deviation norm ||X|| for which the leading-order infidelity
#: bound is considered reliable; reports flag anything above it.
SMALL_X_THRESHOLD = 0.1


@dataclass(frozen=True)
class QuadCovariance:
    """Quadrature covariance matrix, interleaved (x, p) ordering."""

    matrix: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class ComplexCovariance:
    """Covariance in the (annihilation, creation) operator basis."""

    matrix: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class AMatrix:
    """Symmetric matrix whose hafnians give photon-number probabilities."""

    matrix: np.ndarray


@dataclass(frozen=True)
class BlockApproxCovariance:
    """Block-diagonal covariance: each sublattice sees only its own source."""

    lattice: LatticeSpec
    blocks: tuple[QuadCovariance, ...]
    columns: np.ndarray  # source columns U[:, sources] the blocks derive from

    def assemble(self) -> QuadCovariance:
        """Full 2Mx2M block-diagonal matrix (vacuum off the blocks)."""
        m = self.lattice.n_modes
        v = np.eye(2 * m) / 2.0
        for modes, block in zip(self.lattice.sublattices, self.blocks):
            qidx = _quad_indices(modes)
            v[np.ix_(qidx, qidx)] = block.matrix
        return QuadCovariance(v)


def _quad_indices(modes) -> np.ndarray:
    modes = np.asarray(modes, dtype=int)
    return np.stack([2 * modes, 2 * modes + 1], axis=1).ravel()


def _squeezed_covariance(columns: np.ndarray, squeezing: float) -> np.ndarray:
    """``I/2 + sum_s (e^{2r}-1)/2 u u^T + (e^{-2r}-1)/2 w w^T`` over columns.

    ``u`` and ``w`` realify ``U[:, s]`` and ``i U[:, s]``, the images of
    the source's ``x`` and ``p``; a row subset gives that reduced state.
    """
    if squeezing < 0:
        raise ValueError(f"squeezing must be >= 0, got {squeezing}")
    x = np.empty((2 * columns.shape[0], columns.shape[1]))
    x[0::2], x[1::2] = columns.real, columns.imag
    p = np.empty_like(x)
    p[0::2], p[1::2] = -columns.imag, columns.real
    # Python's float ** raises OverflowError once e^{2r} leaves the double
    # range, where expm1(2r) would return inf for r above ~9e307.
    gx = (math.exp(squeezing) ** 2 - 1.0) / 2.0
    gp = math.expm1(-2.0 * squeezing) / 2.0
    return np.eye(x.shape[0]) / 2.0 + gx * (x @ x.T) + gp * (p @ p.T)


def state_covariance(
    circuit: Circuit, lattice: LatticeSpec, squeezing: float
) -> QuadCovariance:
    """Output covariance of the circuit on the squeezed-source input."""
    return QuadCovariance(_squeezed_covariance(source_columns(circuit), squeezing))


def quad_to_complex(cov: QuadCovariance) -> ComplexCovariance:
    """Change of basis ``Sigma = T V T^+``; vacuum maps to ``I/2``.

    ``T`` maps interleaved quadratures to ``a_j = (x_j + i p_j)/sqrt 2``
    and ``a_j^+ = (x_j - i p_j)/sqrt 2``: two nonzeros per row, so it is
    applied from each side as strided slices, with no 2M x 2M ``T``.
    """
    s = 1.0 / math.sqrt(2.0)
    v = cov.matrix
    tv = s * (v[0::2] + 1j * v[1::2])  # rows a_j of T V
    tv = np.concatenate([tv, tv.conj()])
    x, p = s * tv[:, 0::2], 1j * (s * tv[:, 1::2])
    return ComplexCovariance(np.concatenate([x - p, x + p], axis=1))


def reduce_complex(cov: ComplexCovariance, modes) -> ComplexCovariance:
    """Restrict a complex covariance to a mode subset."""
    modes = np.asarray(modes, dtype=int)
    m = cov.n_modes
    idx = np.concatenate([modes, modes + m])
    return ComplexCovariance(cov.matrix[np.ix_(idx, idx)])


def a_matrix(cov: ComplexCovariance) -> AMatrix:
    """Hafnian matrix ``A = Y (I - Q^{-1})`` with ``Q = Sigma + I/2``.

    ``Q`` is inverted through a Cholesky factorization after verifying it
    is positive definite; ill-conditioned states raise
    :class:`ConditioningError`.  The result is symmetrized to remove
    roundoff asymmetry (the exact ``A`` is complex symmetric).
    """
    m = cov.n_modes
    q = cov.matrix + np.eye(2 * m) / 2.0
    q = (q + q.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(q)
    if eigs.min() < 1e-12:
        raise ConditioningError(
            f"Q = Sigma + I/2 has eigenvalue {eigs.min():.3e} below 1.0e-12"
        )
    chol = np.linalg.cholesky(q)
    inv_chol = np.linalg.inv(chol)
    q_inv = inv_chol.conj().T @ inv_chol
    body = np.eye(2 * m) - q_inv
    a = np.empty_like(body)
    a[:m] = body[m:]
    a[m:] = body[:m]
    return AMatrix((a + a.T) / 2.0)


def _logdet_q(sigma: np.ndarray) -> float:
    """``log det(Sigma + I/2)`` for a Hermitian positive-definite Q."""
    return float(np.linalg.slogdet(sigma + np.eye(sigma.shape[0]) / 2.0)[1])


def block_approx_covariance(
    circuit: Circuit, lattice: LatticeSpec, squeezing: float
) -> BlockApproxCovariance:
    """Single-source-per-block approximation of the output covariance.

    For each sublattice the circuit is (implicitly) run with only that
    block's source squeezed and the resulting covariance is restricted to
    the block: ``V_alpha = I/2`` plus the rank-2 update of the block's
    rows of its own source column, as in the full state.  The
    source columns are kept on the result for samplers to reuse.
    ``lattice`` must be the circuit's own.
    """
    if lattice is not circuit.lattice:
        raise ValueError("lattice is not the one the circuit was built on")
    columns = source_columns(circuit)
    blocks = tuple(
        QuadCovariance(_squeezed_covariance(columns[modes, b : b + 1], squeezing))
        for b, modes in enumerate(lattice.sublattices)
    )
    return BlockApproxCovariance(lattice=lattice, blocks=blocks, columns=columns)


def purity_defect(cov: QuadCovariance) -> float:
    """``|det(2V) - 1|``; zero for pure Gaussian states."""
    sign, logdet = np.linalg.slogdet(2.0 * cov.matrix)
    if sign <= 0:
        return math.inf
    return abs(math.expm1(logdet))


def fidelity(pure: QuadCovariance, other: QuadCovariance) -> float:
    """Fidelity ``1 / sqrt(det(V1 + V2))`` for pure ``V1``.

    Raises :class:`ConditioningError` if ``V1`` fails the purity check
    ``|det(2 V1) - 1| <= 1e-6`` or the sum matrix is singular.
    """
    defect = purity_defect(pure)
    if not defect <= 1e-6:
        raise ConditioningError(f"first state is not pure: |det(2V)-1| = {defect:.3e}")
    sign, logdet = np.linalg.slogdet(pure.matrix + other.matrix)
    if sign <= 0:
        raise ConditioningError("V1 + V2 has non-positive determinant")
    return math.exp(-0.5 * logdet)


def frobenius_diff(v1: QuadCovariance, v2: QuadCovariance) -> float:
    """Frobenius norm of the covariance deviation ``||V1 - V2||_F``.

    Raises :class:`OverflowError` when the norm leaves the float range
    (squeezing in the hundreds), instead of returning ``inf``.
    """
    try:
        with np.errstate(over="raise"):
            return float(np.linalg.norm(v1.matrix - v2.matrix, "fro"))
    except FloatingPointError as exc:
        raise OverflowError(f"covariance deviation norm: {exc}") from None


def infidelity_bound(norm_x: float, n_sources: int, squeezing: float) -> float:
    """Leading-order infidelity bound ``(1/2) ||X|| sqrt(2 N cosh 4r)``.

    Reliable for ``norm_x <= SMALL_X_THRESHOLD``; report objects carry a
    validity flag for larger deviations.
    """
    return 0.5 * norm_x * math.sqrt(2.0 * n_sources * math.cosh(4.0 * squeezing))


def x_norm_bound(eta_max: float, n_sources: int, squeezing: float) -> float:
    """Covariance-deviation bound from the worst per-source leakage rate.

    ``||X|| <= e^{2r} N^2 (eta + 2 sqrt(eta))``.
    """
    if eta_max < 0:
        raise ValueError(f"eta_max must be >= 0, got {eta_max}")
    return math.exp(2.0 * squeezing) * n_sources**2 * (eta_max + 2.0 * math.sqrt(eta_max))


def tvd_bound(norm_x: float, n_sources: int, squeezing: float) -> float:
    """Distribution-distance bound ``(N cosh(4r) ||X||^2 / 2)^{1/4}``."""
    return (n_sources * math.cosh(4.0 * squeezing) * norm_x**2 / 2.0) ** 0.25

