"""Reference helpers that only the tests use: a pointwise photon-number
probability, a single beam splitter's matrix, a quadrature-covariance
reduction and the moment tables' weight vectors."""

import itertools

import numpy as np

from blsampler import _moments
from blsampler.chainrule import _hafnian_factor, _sweep
from blsampler.errors import SizeCapError
from blsampler.gaussian import ComplexCovariance, QuadCovariance, _quad_indices
from blsampler.kernels import HAFNIAN_DIM_CAP
from blsampler.lattice import _gate_coefficients


def marginal_prob(sigma: ComplexCovariance, counts) -> float:
    """Probability of the outcome ``counts`` on the state ``sigma``.

    ``sigma`` must already be reduced to exactly the modes that
    ``counts`` describes; the value is entry ``counts[-1]`` of the sweep
    over the last mode after the prefix ``counts[:-1]``, on the state's
    hafnian factor.
    """
    counts = np.asarray(counts, dtype=int)
    if counts.ndim != 1 or counts.shape[0] != sigma.n_modes:
        raise ValueError(
            f"counts length {counts.shape} does not match {sigma.n_modes} modes"
        )
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    factor, norm = _hafnian_factor(sigma)
    counts = tuple(counts.tolist())
    p = next(itertools.islice(_sweep(counts[:-1], factor, norm), counts[-1], None), 0.0)
    if p is None:
        raise SizeCapError(
            f"outcome of {sum(counts)} photons needs a hafnian of dimension "
            f"{2 * sum(counts)} > {HAFNIAN_DIM_CAP} on a rank-{factor.shape[1]} state"
        )
    return p


def beam_splitter_unitary(theta: float, phi: float) -> np.ndarray:
    """2x2 mode transformation of a beam splitter.

    ``[[cos t, e^{i p} sin t], [-e^{-i p} sin t, cos t]]``; at
    ``theta = pi/4, phi = 0`` this is the balanced splitter.
    """
    c, es, fs = _gate_coefficients(theta, phi)
    return np.array([[c, es], [fs, c]])


def reduce_quad(cov: QuadCovariance, modes) -> QuadCovariance:
    """Restrict to a mode subset (partial trace of the rest)."""
    qidx = _quad_indices(modes)
    return QuadCovariance(cov.matrix[np.ix_(qidx, qidx)])


def moment_weights(tabs: _moments.MomentTables, degree: int) -> np.ndarray:
    """The tables' own Gaussian-moment weight vector for homogeneous
    ``degree``: ``E[z^c]`` of each exponent vector ``c``, in row order."""
    tabs.ensure(degree)
    return tabs._weights[degree]
