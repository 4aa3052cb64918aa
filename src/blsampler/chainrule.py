"""Exact photon-number sampling of a Gaussian state by the chain rule.

:class:`ChainRuleEngine` draws mode k from ``P(n_k | n_1..n_{k-1}) =
P(n_1..n_k) / P(n_1..n_{k-1})``, with every prefix probability given by
the hafnian formula ``P(n) = Haf(A_n) / (prod n_j! sqrt(det(Sigma +
I/2)))`` on the reduced covariance of the first k modes.  This is the
only sampler that needs hafnians, so it is the only one that loads the
Gaussian, kernel and moment-table modules.

Every Gaussian probability takes one route: :func:`_hafnian_factor` gives
a state's thin factor ``G`` (``G G^T = A``) and normalization, and one
generator, :func:`_sweep`, reads ``P(prefix, n)`` for ``n = 0, 1, ...``
off the rows ``j, M + j`` of ``G``.  The engine takes whole sweeps, each
stopped at the photon budget or once the exactly known residual mass is
negligible, so the stop point is deterministic.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from . import _moments
from .errors import SamplingError, SizeCapError
from .gaussian import ComplexCovariance, _logdet_q, a_matrix, reduce_complex
from .kernels import (
    HAFNIAN_DIM_CAP,
    LOW_RANK_COLUMN_CAP,
    hafnian_general,
    takagi_factor,
)
from .lattice import MAX_MODE_CELLS
from .samplers import TruncationPolicy, _inverse_cdf

__all__ = ["ChainRuleEngine"]

logger = logging.getLogger(__name__)

# Residual mass (relative to the prefix probability) below which a
# conditional sweep stops extending; also the mass ignored by sampling.
SWEEP_RESIDUAL_RTOL = 1e-12

# Conditional totals below this are treated as floating-point underflow
# of the prefix probability, triggering a fresh-randomness restart.
DEGENERATE_PROB = 1e-300

MAX_SAMPLE_RESTARTS = 5

# The photon budget's ceiling: a sweep of a rank-4 factor to budget B reads
# moment tables of comb(2B + 4, 4) entries, kept within MAX_MODE_CELLS, and
# the tables stop at degree 2B = 256
_MAX_PHOTONS = max(b for b in range(129) if math.comb(
    2 * b + LOW_RANK_COLUMN_CAP, LOW_RANK_COLUMN_CAP) <= MAX_MODE_CELLS)


def _hafnian_factor(sigma: ComplexCovariance) -> tuple[np.ndarray, float]:
    """Thin symmetric factor ``G`` of the hafnian matrix (``G G^T = A``) and
    the normalization ``1/sqrt(det(Sigma + I/2))`` of the state ``sigma``."""
    factor = takagi_factor(a_matrix(sigma).matrix)
    return factor, math.exp(-0.5 * _logdet_q(sigma.matrix))


def _sweep(prefix: tuple[int, ...], factor: np.ndarray, norm: float):
    """``P(prefix, n)`` for ``n = 0, 1, ...`` on the state whose last mode is
    swept, read off the factor rows ``j, k + j`` of its ``k`` modes.

    A rank-0 factor is the vacuum: one entry, the point mass on no photons.
    Up to ``LOW_RANK_COLUMN_CAP`` columns the prefix's linear forms are
    multiplied in once and each ``n`` adds the swept mode's pair (the
    Gaussian moment of the product is the hafnian).  Wider factors take the
    reference hafnian of ``G_n G_n^T`` and yield ``None`` from where its
    dimension would pass ``HAFNIAN_DIM_CAP``.
    """
    k = len(prefix) + 1
    rank = factor.shape[1]
    if rank == 0:
        yield norm if sum(prefix) == 0 else 0.0
        return
    pfact, fact = math.prod(map(math.factorial, prefix), start=1.0), 1.0
    if rank > LOW_RANK_COLUMN_CAP:
        for n in range(HAFNIAN_DIM_CAP // 2 - int(sum(prefix)) + 1):
            fact *= max(n, 1)
            single = np.repeat(np.arange(k), prefix + (n,))
            rows = factor[np.stack([single, single + k], axis=1).ravel()]
            haf = hafnian_general(rows @ rows.T).real
            yield max(haf, 0.0) * norm / (pfact * fact)
        yield from itertools.repeat(None)
    tabs = _moments.tables(rank)
    coeffs = np.ones(1, dtype=complex)
    degree = 0
    for j, nj in enumerate(prefix):
        for _ in range(int(nj)):
            coeffs = tabs.multiply_linear(coeffs, degree, factor[j])
            coeffs = tabs.multiply_linear(coeffs, degree + 1, factor[k + j])
            degree += 2
    for n in itertools.count():
        if n > 0:
            coeffs = tabs.multiply_linear(coeffs, degree, factor[k - 1])
            coeffs = tabs.multiply_linear(coeffs, degree + 1, factor[2 * k - 1])
            degree += 2
            fact *= n
        haf = tabs.moment(coeffs, degree).real
        yield max(haf, 0.0) * norm / (pfact * fact)


class ChainRuleEngine:
    """Mode-by-mode conditional sampler for one Gaussian state.

    Precomputes, per prefix length k, the reduced covariance's thin
    symmetric hafnian factor and the normalization
    ``1/sqrt(det(Sigma^(k) + I/2))`` (:func:`_hafnian_factor`).
    Joint-probability sweeps ``P(prefix, n)`` for ``n = 0, 1, ...`` are
    cached per prefix, so repeated samples from the same state reuse every
    conditional they have in common.

    Every prefix is swept by :func:`_sweep`, whatever its rank; past the
    reference hafnian's dimension cap a sweep raises rather than silently
    truncating.
    """

    def __init__(self, sigma: ComplexCovariance, policy: TruncationPolicy):
        self.policy = policy
        self.n_modes = sigma.n_modes
        all_modes = np.arange(self.n_modes)
        # index by prefix length k; k = 0 is never swept
        self._prefixes: list[tuple[np.ndarray, float]] = [(np.zeros((0, 0)), 1.0)]
        for k in range(1, self.n_modes + 1):
            self._prefixes.append(_hafnian_factor(reduce_complex(sigma, all_modes[:k])))
        self._cache: dict[tuple[tuple[int, ...], float | None], np.ndarray] = {}
        rank = max(f.shape[1] for f, _ in self._prefixes)
        logger.debug("chain-rule engine: %d modes, max factor rank %d, budget %d",
                     self.n_modes, rank, policy.n_total_max)

    def conditional_joints(
        self, prefix: tuple[int, ...], prefix_prob: float | None
    ) -> np.ndarray:
        """Joint probabilities ``P(prefix, n)`` for ``n = 0..window``.

        The window is ``n_total_max - sum(prefix)``; when ``prefix_prob``
        is given the sweep stops as soon as the exactly-known residual
        mass falls below ``SWEEP_RESIDUAL_RTOL * prefix_prob``.  The stop
        point depends on ``prefix_prob`` as well as on the prefix, so
        results are cached by both and a cached sweep is an exact rerun.
        """
        key = (prefix, prefix_prob)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        k = len(prefix) + 1
        if k > self.n_modes:
            raise ValueError("prefix already covers every mode")
        placed = int(sum(prefix))
        window = self.policy.n_total_max - placed
        joints, cum = [], 0.0

        def settled(rtol: float) -> bool:
            return prefix_prob is not None and prefix_prob - cum <= rtol * prefix_prob

        for n, p in zip(range(window + 1), _sweep(prefix, *self._prefixes[k])):
            if p is None:  # past the reference hafnian's dimension cap
                if settled(1e-9):
                    break
                raise SizeCapError(
                    "conditional sweep needs hafnians beyond the reference cap; "
                    "state rank exceeds the low-rank path "
                    f"({2 * (placed + n)} > {HAFNIAN_DIM_CAP})"
                )
            joints.append(p)
            cum += p
            if settled(SWEEP_RESIDUAL_RTOL):
                break
        joints = np.array(joints)
        joints.setflags(write=False)
        self._cache[key] = joints
        return joints

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one photon-number outcome (length-``n_modes`` int array)."""
        for attempt in range(MAX_SAMPLE_RESTARTS):
            counts = self._try_sample(rng)
            if counts is not None:
                return counts
            logger.warning(
                "degenerate conditional (underflow); restarting sample "
                "(attempt %d)",
                attempt + 1,
            )
        raise SamplingError(
            f"conditional mass underflowed in {MAX_SAMPLE_RESTARTS} attempts"
        )

    def _try_sample(self, rng: np.random.Generator) -> np.ndarray | None:
        prefix: tuple[int, ...] = ()
        prefix_prob = 1.0
        out = np.zeros(self.n_modes, dtype=int)
        for k in range(self.n_modes):
            joints = self.conditional_joints(prefix, prefix_prob)
            if not (joints.sum() > DEGENERATE_PROB):
                return None
            n = int(_inverse_cdf(np.cumsum(joints), rng.random()))
            out[k] = n
            prefix = prefix + (n,)
            prefix_prob = float(joints[n])
        return out
