"""The photon budget and the two fast samplers, neither of which needs a
hafnian (the exact chain-rule engine is :mod:`blsampler.chainrule`):

* :class:`BlockApproxSampler` — the block approximation in closed form.
  A block sees one squeezer, which emits ``2K`` photons (``K ~ NegBin(1/2,
  sech^2 r)``); each photon lands on mode ``j`` of the block with
  probability ``|U[j, s]|^2`` and leaves the block otherwise.
* :class:`DistinguishableFockSampler` — photons tracked one at a time
  through ``|U|^2`` columns; binning the independently drawn output modes
  realizes the permutation-symmetrized distinguishable distribution
  without computing any permanent.

Photon totals are capped by a :class:`TruncationPolicy`: a block draw past
the cap is redrawn, which conditions its law on the allowed window.
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
    "check_block_draws",
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

    ``max_photons`` caps the budget; by default ``N (budget + 2)`` stays
    within ``MAX_MODE_CELLS``.  A budget past the cap raises
    :class:`SizeCapError`.  The tail at the cap decides that first, so a
    refusal costs one tail evaluation.
    """
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    if not squeezing >= 0:  # NaN too
        raise ValueError(f"squeezing must be >= 0, got {squeezing}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_photons is None:
        max_photons = _photon_cap(n_sources)
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


def check_block_draws(n_sources: int, squeezing: float, policy: TruncationPolicy) -> None:
    """Refuse (:class:`SizeCapError`) a budget whose block draws could pass the
    default cap of :func:`truncation_threshold`.  A draw lands ``2K`` photons
    whatever the budget and is redrawn while its block total passes it, so
    both ``2K`` (but for a tail of ``min(epsilon, 1e-6)``) and ``E[2K] = sinh^2
    r`` times the expected draws, at most ``1 / P(K <= n_total_max / 2)``, must
    stay within the cap.  No budget set at ``epsilon <= 1e-6`` is refused."""
    cap, sech2 = _photon_cap(n_sources), _sech2(squeezing)
    accept = 1.0 - _pair_tail(policy.n_total_max // 2, 0.5, sech2)
    # sinh^2 r > cap P as 1 - sech^2 r > cap sech^2 r P, which cannot overflow
    if (_pair_tail(cap // 2, 0.5, sech2) > min(policy.epsilon, 1e-6)
            or 1.0 - sech2 > cap * sech2 * accept):
        raise SizeCapError(f"squeezing {squeezing} with a budget of {policy.n_total_max} "
                           f"photons needs block draws past the cap of {cap} photons")


def _photon_cap(n_sources: int) -> int:
    """The default photon cap: ``N (cap + 2)`` stays within ``MAX_MODE_CELLS``."""
    return max(MAX_MODE_CELLS // n_sources - 2, 0)


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

    Block ``b`` keeps only its own source ``s``, which emits ``2K`` photons,
    ``K`` read off its pmf by inverse CDF.  Each photon takes one binary
    search over the block's cumulative ``|U[j, s]|^2`` and a last, leaked
    cell of weight ``1 - q``, where ``q`` is the block's share of the column;
    photons in that cell are dropped.  A draw whose block total exceeds
    ``n_total_max`` is redrawn, so no mode can exceed the budget.  Only the
    source columns of ``U`` are used; ``blocks`` (from
    ``block_approx_covariance``) lends its columns, so both forms draw
    identical samples.  A draw costs O(K), about ``sinh^2 r`` steps; a budget
    whose draws could pass the photon cap is refused (``check_block_draws``).
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
        check_block_draws(lattice.n_sources, squeezing, policy)
        columns = source_columns(circuit) if blocks is None else blocks.columns
        self.lattice = lattice
        self._n_max = policy.n_total_max
        self._sech = math.sqrt(_sech2(squeezing))
        self._t = math.tanh(squeezing) ** 2
        self._blocks = []
        for b, modes in enumerate(lattice.sublattices):
            route = np.cumsum(np.abs(columns[modes, b]) ** 2)
            # rounding can push the share q past one: the leaked cell is then empty
            self._blocks.append((modes, np.append(route, max(route[-1], 1.0))))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros(self.lattice.n_modes, dtype=int)
        for modes, route in self._blocks:
            # K = 0 draws no landings: rng.random(0) would consume no state either
            while k := self._pairs(rng.random()):
                landed = _inverse_cdf(route, rng.random(2 * k))
                # the last cell holds the photons that left the block
                counts = np.bincount(landed, minlength=route.size)[:-1]
                if counts.sum() <= self._n_max:  # else redraw
                    out[modes] = counts
                    break
        return out

    def _pairs(self, u: float) -> int:
        """The pair count ``K ~ NegBin(1/2, sech^2 r)`` at the uniform ``u``:
        the first ``k`` whose cumulative pmf exceeds ``u``, walking ``p_0 =
        sech r``, ``p_{k+1} = p_k tanh^2 r (k + 1/2) / (k + 1)``.  Should the
        sum stop growing below ``u``, the walk stops there."""
        k, p = 0, self._sech
        cdf = p
        while cdf <= u and cdf + p != cdf:
            p *= self._t * (k + 0.5) / (k + 1)
            k += 1
            cdf += p
        return k


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
