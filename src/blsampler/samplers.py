"""The photon budget and the two fast samplers, neither of which needs a
hafnian (the exact chain-rule engine is :mod:`blsampler.chainrule`):

* :class:`BlockApproxSampler` — the block approximation in closed form.
  A block sees one squeezer, which emits ``2K`` photons (``K ~ NegBin(1/2,
  sech^2 r)``) that each land in the block with its share ``q = sum_{j in
  block} |U[j, s]|^2`` of the source column.  The block total therefore
  has generating function ``sech r (c0 + c1 z + c2 z^2)^(-1/2)`` with
  ``t = tanh^2 r``, ``c0 = 1 - t (1-q)^2``, ``c1 = -2 t q (1-q)``, ``c2 =
  -t q^2``; given the total, photons land independently by ``|U[j, s]|^2
  / q``.
* :class:`DistinguishableFockSampler` — photons tracked one at a time
  through ``|U|^2`` columns; binning the independently drawn output modes
  realizes the permutation-symmetrized distinguishable distribution
  without computing any permanent.

Photon totals are capped by a :class:`TruncationPolicy` and the laws
renormalized over the allowed window.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SizeCapError
from .lattice import MAX_MODE_CELLS, Circuit, LatticeSpec, _source_cols, source_columns

if TYPE_CHECKING:
    from .gaussian import BlockApproxCovariance

__all__ = [
    "TruncationPolicy",
    "truncation_threshold",
    "BlockApproxSampler",
    "DistinguishableFockSampler",
    "distinguishable_fock_sample",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Photon budget: the cap on the total photon number, and the target
    tail mass.  ``n_mode_max`` always equals ``n_total_max`` (a per-mode
    cap that equals the total never binds); any other value is refused."""

    epsilon: float
    n_total_max: int
    n_mode_max: int | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.n_total_max < 0:
            raise ValueError(f"n_total_max must be >= 0, got {self.n_total_max}")
        if self.n_mode_max is None:
            object.__setattr__(self, "n_mode_max", self.n_total_max)
        elif self.n_mode_max != self.n_total_max:
            raise ValueError(
                f"n_mode_max must equal n_total_max ({self.n_total_max}), "
                f"got {self.n_mode_max}"
            )


def truncation_threshold(
    n_sources: int, squeezing: float, epsilon: float = 1e-6, max_photons: int | None = None
) -> TruncationPolicy:
    """Photon budget from the exact tail of the photon-pair count.

    N squeezers through a passive circuit emit ``K ~ NegBin(N/2, sech^2 r)``
    photon pairs.  The budget is ``2 max(k_floor, k*)``: ``k*`` is the
    smallest ``k`` with ``P(K > k) <= epsilon`` (0 at ``r = 0``), and
    ``k_floor = ceil(max(2 sech^2(r) ln(1/eps), 4 N sech^2(r)))`` is the
    earlier rule, kept as a floor so that no budget drops more mass than it
    used to.  The floor serves the benchmark, which compares its exact-small
    table (N=2, r=0.5, 44 photons) with untruncated moments to 1e-9; it goes
    once that check allows for the dropped mass (ROADMAP item 1).

    ``max_photons`` caps the budget; by default the ``N (budget + 2)`` cells
    of the block sampler's laws stay within ``MAX_MODE_CELLS``.  A budget
    past the cap raises :class:`SizeCapError`.  The tail at the cap decides
    that first, so a refusal costs one tail evaluation.
    """
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    if not squeezing >= 0:  # NaN too
        raise ValueError(f"squeezing must be >= 0, got {squeezing}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_photons is None:
        max_photons = max(MAX_MODE_CELLS // n_sources - 2, 0)
    sech2 = _sech2(squeezing)
    floor = math.ceil(
        max(2.0 * sech2 * math.log(1.0 / epsilon), 4.0 * n_sources * sech2)
    )
    pairs = max(floor, _pair_quantile(n_sources / 2, sech2, epsilon, max_photons // 2))
    if 2 * pairs > max_photons:
        raise SizeCapError(
            f"squeezing {squeezing} needs a photon budget above {max_photons} "
            f"to keep the dropped mass below epsilon {epsilon}"
        )
    return TruncationPolicy(epsilon=epsilon, n_total_max=2 * pairs)


def _pair_quantile(half_n: float, sech2: float, epsilon: float, cap: int) -> int:
    """Smallest ``k <= cap`` with ``P(K > k) <= epsilon`` for ``K ~
    NegBin(half_n, sech2)``, or ``cap + 1`` when there is none.  The tail at
    ``cap`` is read first; below it a bisection takes ``log2(cap)`` tails."""
    if _pair_tail(cap, half_n, sech2) > epsilon:
        return cap + 1
    return bisect.bisect_left(
        range(cap), True, key=lambda k: _pair_tail(k, half_n, sech2) <= epsilon
    )


def _pair_tail(k: int, half_n: float, sech2: float) -> float:
    """``P(K > k)`` for ``K ~ NegBin(half_n, sech2)``, ``k >= 0``.

    This is the regularized incomplete beta ``I_x(k + 1, half_n)`` at ``x = 1
    - sech2``, read off its continued fraction on the side where that
    converges fast (the other side is one minus the mirrored fraction).  No
    pmf term is formed, so nothing underflows at large N, and a tail far
    below one keeps its relative accuracy.
    """
    if sech2 >= 1.0:
        return 0.0
    if sech2 == 0.0:
        return 1.0
    logs = (math.log1p(-sech2), math.log(sech2))  # log x, log(1 - x)
    a, b = k + 1.0, half_n
    if (1.0 - sech2) * (a + b + 2.0) < a + 1.0:
        return _beta_fraction(a, b, *logs)
    return 1.0 - _beta_fraction(b, a, *logs[::-1])


def _beta_fraction(a: float, b: float, log_x: float, log_y: float) -> float:
    """``I_x(a, b)`` with ``y = 1 - x``, for ``x`` below ``(a + 1)/(a + b + 2)``.

    ``I_x(a, b) = x^a y^b / (a B(a, b)) / (1 + d_1/(1 + d_2/(1 + ...)))``,
    the fraction evaluated by the modified Lentz method.  It ends exactly
    where a coefficient ``d_2m = m (b - m) x / ...`` vanishes.
    """
    x = math.exp(log_x)
    front = math.exp(
        a * log_x + b * log_y + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    ) / a
    c, d, fraction = 1.0, 0.0, 1.0
    for j in itertools.count(1):
        m = j // 2
        if j % 2:
            coeff = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            coeff = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        # a zero denominator stands in as 1e-300, as the Lentz method does
        d = 1.0 / ((1.0 + coeff * d) or 1e-300)
        c = (1.0 + coeff / c) or 1e-300
        fraction *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return front / fraction


def _sech2(squeezing: float) -> float:
    """``sech^2 r`` as ``4 e^{-2r} / (1 + e^{-2r})^2``, finite for every ``r >= 0``."""
    e = math.exp(-2.0 * squeezing)
    return 4.0 * e / (1.0 + e) ** 2


class BlockApproxSampler:
    """Samples the block-diagonal approximate state, block by block.

    Block ``b`` keeps only its own source ``s``: its photon total comes from
    the closed-form law (module docstring) conditioned on ``n_total_max``,
    and the photons land by ``|U[j, s]|^2 / q`` over its modes, each draw
    one binary search over a cumulative array built once.  The total budget
    caps each block's total, so no mode can exceed it.  Only the source
    columns of ``U`` are used; ``blocks`` (from ``block_approx_covariance``)
    lends its columns, so both forms draw identical samples.
    """

    def __init__(
        self,
        circuit: Circuit,
        lattice: LatticeSpec,
        squeezing: float,
        policy: TruncationPolicy,
        blocks: BlockApproxCovariance | None = None,
    ):
        if lattice is not circuit.lattice:
            raise ValueError("lattice is not the one the circuit was built on")
        columns = source_columns(circuit) if blocks is None else blocks.columns
        self.lattice = lattice
        self._blocks = []
        for b, modes in enumerate(lattice.sublattices):
            route = np.cumsum(np.abs(columns[modes, b]) ** 2)
            q = min(float(route[-1]), 1.0)  # rounding can push the share past one
            law = _block_total_law(squeezing, q, policy.n_total_max)
            self._blocks.append((modes, np.cumsum(law), route))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros(self.lattice.n_modes, dtype=int)
        for modes, law, route in self._blocks:
            n = int(_inverse_cdf(law, rng.random()))
            if n:  # rng.random(0) consumes no state: skipping it keeps the stream
                landed = _inverse_cdf(route, rng.random(n))
                out[modes] = np.bincount(landed, minlength=modes.size)
        return out


def _block_total_law(squeezing: float, q: float, n_max: int) -> np.ndarray:
    """``a_0..a_{n_max}`` of ``f = P^(-1/2)``, ``P = c0 + c1 z + c2 z^2``, normalized.

    ``2 P f' + P' f = 0`` gives ``2 c0 (n+1) a_{n+1} = -c1 (2n+1) a_n - 2 c2
    n a_{n-1}``, all terms non-negative.  ``c0`` is written as ``sech^2 r +
    t q (2-q)`` to stay positive when ``t`` rounds to one; ``q = 0`` is a
    point mass at zero.  A float ``q`` keeps the loop off numpy scalars.
    """
    t = math.tanh(squeezing) ** 2
    c0 = _sech2(squeezing) + t * q * (2.0 - q)
    c1 = -2.0 * t * q * (1.0 - q)
    c2 = -t * q * q
    a = np.zeros(n_max + 2)  # the zero past a_{n_max} keeps the sum's pairwise grouping
    a[0] = a_n = 1.0
    a_prev = 0.0  # a_{-1}
    for n in range(n_max if q > 0.0 else 0):
        a_n, a_prev = -(c1 * (2 * n + 1) * a_n + 2 * c2 * n * a_prev) / (2 * c0 * (n + 1)), a_n
        a[n + 1] = a_n
    return a[:-1] / a.sum()


def _inverse_cdf(cdf: np.ndarray, u: float | np.ndarray):
    """Index of each uniform ``u`` (a float or an array) over the nondecreasing
    cumulative weights ``cdf``: one binary search, ``O(log len(cdf))``, counts the
    entries ``<= u * cdf[-1]``, leaving out the last so the index stays in range."""
    return cdf[:-1].searchsorted(u * cdf[-1], side="right")  # the method skips np's dispatch


class DistinguishableFockSampler:
    """Tracks each source photon independently through ``|U|^2`` (the full
    ``U`` or its source columns).

    Photon i starts at source ``s_i`` and lands on mode k with
    probability ``|U_{k, s_i}|^2``; the returned count vector bins the
    landing modes.  Binning independent draws realizes exactly the
    permutation-symmetrized single-configuration weights (each outcome's
    orderings accumulate on the same bin), so no permanent is needed.
    The routing CDF, a column per photon, is built once, here.
    """

    def __init__(self, unitary: np.ndarray, lattice: LatticeSpec):
        self.lattice = lattice
        self._route = np.cumsum(np.abs(_source_cols(unitary, lattice)) ** 2, axis=0)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        below = self._route[:-1] <= rng.random(self.lattice.n_sources) * self._route[-1]
        return np.bincount(below.sum(axis=0), minlength=self.lattice.n_modes)


def distinguishable_fock_sample(
    unitary: np.ndarray, lattice: LatticeSpec, rng: np.random.Generator
) -> np.ndarray:
    """One draw of :class:`DistinguishableFockSampler` (builds its CDF)."""
    return DistinguishableFockSampler(unitary, lattice).sample(rng)
