"""The approximation-error chain, and the independent checks it is held to.

Reports: :func:`theorem_bound_report`, which ``diagnose-bounds`` writes
(leakage, covariance distance, fidelity and distance bounds on one
instance, beside the true table distance when the instance is small
enough to enumerate), and :func:`fock_error_bound`.  Both take the
leakage from :func:`~blsampler.lattice.leakage_rate`; the leakage and
walk reports themselves live in :mod:`blsampler.lattice`.

Independent checks, which give ground truth for the samplers and the bounds:

* :class:`Distribution` — an explicit photon-number table, count rows plus
  probabilities; a truncated table carries mass below one.  Threshold
  clicks are an output format of the CLI, not a table kind.
* :func:`tvd`, and :func:`tvd_upper_bound`, which charges each table's
  missing tail in full; :func:`empirical_distribution` and
  :func:`product_distribution`.  Sums over table rows add the nonzero
  terms in ascending order, so row order cannot move their bits.
* :func:`enumerate_gbs_distribution` — a Gaussian state's table.  Pure
  states use the thin factor of the M x M block (one linear form per
  photon), mixed ones the full 2M x 2M hafnian matrix (two forms); each
  half of the modes is tabled per photon total and the halves join
  through the moment Gram matrix.  A factor wider than
  ``LOW_RANK_COLUMN_CAP`` columns is refused.
* :func:`enumerate_fock_distribution` and
  :func:`enumerate_distinguishable_distribution` — single-photon inputs
  through permanents, with and without interference.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _moments
from .errors import SizeCapError
from .gaussian import (
    QuadCovariance,
    _logdet_q,
    _squeezed_covariance,
    a_matrix,
    block_approx_covariance,
    fidelity,
    frobenius_diff,
    infidelity_bound,
    quad_to_complex,
    tvd_bound,
    x_norm_bound,
    SMALL_X_THRESHOLD,
)
from .kernels import LOW_RANK_COLUMN_CAP, permanent, takagi_factor
from .lattice import Circuit, LatticeSpec, _source_cols, leakage_rate
from .samplers import TruncationPolicy

__all__ = [
    "Distribution",
    "tvd",
    "tvd_upper_bound",
    "empirical_distribution",
    "product_distribution",
    "enumerate_gbs_distribution",
    "enumerate_fock_distribution",
    "enumerate_distinguishable_distribution",
    "FockErrorReport",
    "fock_error_bound",
    "theorem_bound_report",
]

logger = logging.getLogger(__name__)

FOCK_ORACLE_MAX_SOURCES = 6
FOCK_ORACLE_MAX_MODES = 12
# Cap on the enumeration's coefficients, counted as the table of every
# outcome prefix over all modes but the last.  The join holds the tables
# of two half-width prefixes instead, far fewer, so the count is
# conservative.
DP_MAX_ELEMENTS = 3e8


@dataclass(frozen=True)
class Distribution:
    """Explicit photon-number table: one count row per outcome, plus
    weights.  ``mass``, their :func:`_canonical_sum`, is below one when
    the table was truncated.
    """

    counts: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        counts = np.atleast_2d(np.asarray(self.counts))
        probs = np.asarray(self.probs, dtype=float)
        if counts.shape[0] != probs.shape[0]:
            raise ValueError(
                f"{counts.shape[0]} outcomes but {probs.shape[0]} probabilities"
            )
        if probs.size and probs.min() < -1e-12:
            raise ValueError(f"negative probability {probs.min()}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "probs", np.maximum(probs, 0.0))

    @property
    def n_modes(self) -> int:
        return self.counts.shape[1]

    @property
    def mass(self) -> float:
        return _canonical_sum(self.probs[self.probs != 0])

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return {
            tuple(int(c) for c in row): float(p)
            for row, p in zip(self.counts, self.probs)
        }


def _canonical_sum(v: np.ndarray) -> float:
    """Sum of the nonzero entries of a non-negative ``v`` in ascending
    order: it depends only on their multiset, so row order and zero rows
    cannot change its bits.  ``v`` is sorted in place; a caller that keeps
    its array passes a copy."""
    v.sort()
    return float(v[v.searchsorted(0.0, "right"):].sum())


def _key_dtype(n_digits: int, base: int):
    """Dtype of base-``base`` keys of ``n_digits`` digits: int64 while they
    fit in 62 bits (so ``2 * key + 1`` does too), Python ints past that."""
    return np.int64 if n_digits * math.log2(base) <= 62 else object


def tvd(d1: Distribution, d2: Distribution) -> float:
    """Total-variation distance between two outcome tables.

    Outcomes absent from one table count as probability zero there; for
    truncated tables this is a lower bound on the true distance (see
    :func:`tvd_upper_bound`).  Rows are packed into integer keys
    (:func:`_key_dtype`) and the two tables are merged by one sort, so the
    cost is a sort of ``n1 + n2`` keys, and the differences are summed by
    :func:`_canonical_sum`, independent of row order.
    """
    if d1.n_modes != d2.n_modes:
        raise ValueError("outcome tables cover different mode counts")
    m = d1.n_modes
    base = 1 + max(2, int(d1.counts.max(initial=0)), int(d2.counts.max(initial=0)))
    n1 = d1.probs.shape[0]
    keys = np.zeros(n1 + d2.probs.shape[0], dtype=_key_dtype(m, base))
    for k in reversed(range(m)):
        keys *= base
        keys[:n1] += d1.counts[:, k]
        keys[n1:] += d2.counts[:, k]
    if keys.shape[0] == 0:
        return 0.0
    # each key occurs at most once per table, so 2·key + table is unique
    # and puts table 1's entry first: a run sums to p1 - p2
    order = np.argsort(2 * keys + (np.arange(keys.shape[0]) >= n1))
    keys = keys[order]
    signed = np.concatenate([d1.probs, -d2.probs])[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return 0.5 * _canonical_sum(np.abs(np.add.reduceat(signed, starts)))


def _tail_slop(mass1: float, mass2: float) -> float:
    """Half of each table's missing mass: the most the distance over
    outcomes outside the tables can add."""
    return 0.5 * max(0.0, 1.0 - mass1) + 0.5 * max(0.0, 1.0 - mass2)


def tvd_upper_bound(d1: Distribution, d2: Distribution) -> float:
    """Rigorous upper bound on the full-support distance.

    Both tables hold exact point probabilities, so the distance over
    outcomes outside a table is at most that table's missing mass; each
    tail is charged in full.
    """
    return tvd(d1, d2) + _tail_slop(d1.mass, d2.mass)


def empirical_distribution(samples) -> Distribution:
    """Normalized frequency table of an outcome batch."""
    samples = np.atleast_2d(np.asarray(samples))
    if samples.shape[0] == 0:
        raise ValueError("no samples")
    rows, freq = np.unique(samples.astype(np.int64), axis=0, return_counts=True)
    return Distribution(rows, freq / samples.shape[0])


def product_distribution(
    dists, mode_lists, n_modes: int, budget: int | None = None
) -> Distribution:
    """Joint table of independent mode-disjoint distributions.

    ``mode_lists[i]`` names the global mode indices that ``dists[i]``
    covers; unnamed modes are reported as zero counts.  Rows come in
    nested order: every row of the tables so far, each followed by the
    next table's rows in their own order.  With ``budget`` set, combined
    outcomes above the total are never built (their mass leaves the
    table, lowering ``mass`` accordingly); the rows kept keep that order.
    """
    if [len(modes) for modes in mode_lists] != [dist.n_modes for dist in dists]:
        raise ValueError("mode lists do not match the block tables")
    cap = math.inf if budget is None else budget
    counts, probs = np.zeros((1, n_modes), dtype=np.int16), np.ones(1)
    for dist, modes in zip(dists, mode_lists):
        fits = dist.counts.sum(axis=1) <= cap - counts.sum(axis=1)[:, None]
        # flat indices run i-major, the nested order; np.nonzero(fits) is ~5x slower
        i, j = np.unravel_index(np.flatnonzero(fits), fits.shape)
        counts = counts[i]
        counts[:, modes] = dist.counts[j]
        probs = probs[i] * dist.probs[j]
    return Distribution(counts, probs)


_FACT = np.array([math.factorial(i) for i in range(171)], dtype=float)


def _dp_guard(n_modes: int, budget: int, forms_per_photon: int, n_vars: int) -> None:
    peak = 0
    for t in range(budget + 1):
        rows = math.comb(t + n_modes - 2, n_modes - 2) if n_modes >= 2 else 1
        size = math.comb(forms_per_photon * t + n_vars - 1, n_vars - 1)
        peak += rows * size
    if peak > DP_MAX_ELEMENTS:
        raise SizeCapError(
            f"enumeration would stack ~{peak:.2e} coefficients "
            f"(cap {DP_MAX_ELEMENTS:.0e}); reduce the photon budget or "
            "enumerate independent blocks separately"
        )


def _half_table(mode_forms, tabs, ppp: int, budget: int):
    """Coefficient and count rows of every outcome on ``mode_forms``' modes,
    one block per photon total ``t <= budget`` (degree ``ppp * t``).

    Total t's outcomes are total t-1's with one more photon in mode j,
    taken from the rows whose lowest occupied mode is j or above, so each
    outcome is built once.  Block j comes out with lowest mode j, so
    those rows are always a tail of the previous block.
    """
    coeffs = [np.ones((1, 1), dtype=complex)]
    counts = [np.zeros((1, len(mode_forms)), dtype=np.int16)]
    starts = [0] * len(mode_forms)  # first row of each tail in the last block
    for t in range(1, budget + 1 if mode_forms else 1):  # no mode: vacuum alone
        pieces_c, pieces_n = [], []
        for j, (forms, start) in enumerate(zip(mode_forms, starts)):
            cur = coeffs[-1][start:]
            for k, f in enumerate(forms):
                cur = tabs.multiply_linear(cur, ppp * (t - 1) + k, f)
            cnt = counts[-1][start:].copy()
            cnt[:, j] += 1
            pieces_c.append(cur)
            pieces_n.append(cnt)
        starts = [0, *itertools.accumulate(p.shape[0] for p in pieces_n[:-1])]
        coeffs.append(np.concatenate(pieces_c))
        counts.append(np.concatenate(pieces_n))
    return coeffs, counts


def _dp_enumerate(
    mode_forms: list[list[np.ndarray]],
    n_vars: int,
    budget: int,
    value: str,
    norm: float,
):
    """Shared enumeration engine over products of per-photon linear forms.

    ``mode_forms[j]`` lists the forms contributed by each photon in mode
    j (one for the pure path, two — row and conjugate row — for the
    general path).  Every outcome with at most ``budget`` photons in all
    is enumerated; no mode has a cap of its own.  The modes are split in
    two halves, each tabled whole by :func:`_half_table`.  An outcome's
    polynomial is a prefix polynomial times a suffix one, so the
    amplitudes of all outcomes with ``a`` prefix and ``b`` suffix photons
    are one product ``C_P[a] @ W @ C_S[b].T`` through the moment Gram
    matrix ``W`` (:meth:`~blsampler._moments.MomentTables.gram`), in the
    order :func:`numpy.linalg.multi_dot` picks; the squared magnitude (or
    clipped real part), the norm and the factorials are applied in place.
    Returns the prefix and suffix count rows per photon total and a
    generator of ``(a, b, grid)`` probability grids, ``a``-major, whose
    rows are ``a``'s prefix rows and columns ``b``'s suffix rows; odd
    moment degrees give exact zero grids, no product.
    """
    m, ppp = len(mode_forms), len(mode_forms[0])
    h = m // 2
    tabs = _moments.tables(n_vars)
    pre_c, pre_n = _half_table(mode_forms[:h], tabs, ppp, budget)
    suf_c, suf_n = _half_table(mode_forms[h:], tabs, ppp, budget)
    pre_f = [_FACT[n].prod(axis=1) for n in pre_n]  # ones when no prefix mode
    suf_f = [_FACT[n].prod(axis=1) for n in suf_n]

    def grids():
        for a, c_p in enumerate(pre_c):
            for b, c_s in enumerate(suf_c[: budget - a + 1]):
                if ppp * (a + b) % 2:
                    yield a, b, np.zeros((c_p.shape[0], c_s.shape[0]))
                    continue
                vals = np.linalg.multi_dot([c_p, tabs.gram(ppp * a, ppp * b), c_s.T])
                if value == "abs2":
                    grid = np.abs(vals)
                    grid **= 2
                else:
                    grid = np.maximum(vals.real, 0.0)
                grid *= norm
                grid /= np.outer(pre_f[a], suf_f[b])
                yield a, b, grid
        logger.debug("enumerated %d modes within budget %d", m, budget)

    return pre_n, suf_n, grids()


def _gbs_pieces(sigma, policy):
    """:func:`enumerate_gbs_distribution`'s outcome count followed by
    :func:`_dp_enumerate`'s half count rows and pair grids (one vacuum cell
    for an empty factor); refusals raise before any grid."""
    m = sigma.n_modes
    budget = int(policy.n_total_max)
    a = a_matrix(sigma).matrix
    norm = math.exp(-0.5 * _logdet_q(sigma.matrix))
    scale = np.abs(a).max()
    off = max(np.abs(a[:m, m:]).max(), np.abs(a[m:, :m]).max())
    pure = off <= 1e-10 * max(1.0, scale)
    factor = takagi_factor(a[:m, :m] if pure else a)
    if factor.shape[1] == 0:
        # vacuum, or rounding noise below the factor tolerance
        vac = np.zeros((1, m), dtype=np.int16)
        return 1, [vac[:, : m // 2]], [vac[:, m // 2 :]], [(0, 0, np.array([[norm]]))]
    if factor.shape[1] > LOW_RANK_COLUMN_CAP:
        # a pure A is the block and its conjugate: twice the block's rank
        raise SizeCapError(
            f"state rank {factor.shape[1] * (2 if pure else 1)} needs a factor "
            f"of {factor.shape[1]} columns; the enumeration takes at most "
            f"{LOW_RANK_COLUMN_CAP}"
        )
    _dp_guard(m, budget, 1 if pure else 2, factor.shape[1])
    return math.comb(budget + m, m), *_dp_enumerate(
        [[factor[j]] if pure else [factor[j], factor[m + j]] for j in range(m)],
        factor.shape[1],
        budget,
        "abs2" if pure else "real",
        norm,
    )


def enumerate_gbs_distribution(sigma, policy) -> Distribution:
    """Exact photon-number table of a Gaussian state within the budget.

    Path selection: a block-structured hafnian matrix (zero mode/
    conjugate off-blocks — the pure-state signature) enumerates through
    the M x M block with one form per photon and squared-magnitude
    hafnians; otherwise the full matrix is factored (two forms per
    photon).  A factor of more than ``LOW_RANK_COLUMN_CAP`` columns raises
    :class:`SizeCapError` right after that one factorization.  The table
    holds every outcome within the budget once; its row order is not part
    of the contract.
    """
    n_out, pre_n, suf_n, grids = _gbs_pieces(sigma, policy)
    counts, probs = np.empty((n_out, sigma.n_modes), np.int16), np.empty(n_out)
    pos = 0
    for a, b, grid in grids:
        n_p, n_s = pre_n[a], suf_n[b]
        cells = counts[pos : pos + grid.size].reshape(*grid.shape, -1)
        cells[:, :, : n_p.shape[1]] = n_p[:, None]
        cells[:, :, n_p.shape[1] :] = n_s
        probs[pos : pos + grid.size] = grid.ravel()
        pos += grid.size
    return Distribution(counts, probs)


def enumerate_fock_distribution(unitary: np.ndarray, lattice: LatticeSpec) -> Distribution:
    """Exact N-photon output distribution (full interference).

    Every outcome with total N gets ``|Per(U_sub)|^2 / prod n_j!`` where
    ``U_sub`` repeats output row j ``n_j`` times against the source
    columns; ``unitary`` is the full ``U`` or those columns alone.
    """
    return _fock_oracle(unitary, lattice, "abs2")


def enumerate_distinguishable_distribution(
    unitary: np.ndarray, lattice: LatticeSpec
) -> Distribution:
    """Outcome table with photons treated as distinguishable particles.

    Identical support and input to :func:`enumerate_fock_distribution`
    but the weight is the permanent of ``|U|^2`` — no interference terms.
    This is the distribution
    :func:`~blsampler.samplers.distinguishable_fock_sample` draws from.
    """
    return _fock_oracle(unitary, lattice, "real")


def _fock_oracle(unitary, lattice: LatticeSpec, value: str) -> Distribution:
    """Each N-photon outcome's ``|Per(C)|^2`` (``value="abs2"``) or
    ``Per(|C|^2)`` (``"real"``) over ``prod n_j!``, where ``C`` repeats
    row j of the source columns ``n_j`` times."""
    n, m = lattice.n_sources, lattice.n_modes
    if n > FOCK_ORACLE_MAX_SOURCES or m > FOCK_ORACLE_MAX_MODES:
        raise SizeCapError(
            f"single-photon oracle capped at {FOCK_ORACLE_MAX_SOURCES} photons / "
            f"{FOCK_ORACLE_MAX_MODES} modes (got {n}, {m})"
        )
    cols = _source_cols(unitary, lattice)
    if value != "abs2":
        cols = np.abs(cols) ** 2
    comps = _moments._compositions(n, m)
    probs = np.empty(comps.shape[0])
    for idx, comp in enumerate(comps):
        per = permanent(cols[np.repeat(np.arange(m), comp)])
        raw = abs(per) ** 2 if value == "abs2" else max(per.real, 0.0)
        probs[idx] = raw / _FACT[comp].prod()
    return Distribution(comps.astype(np.int16), probs)


@dataclass(frozen=True)
class FockErrorReport:
    """Overlap-sum bound on the exact/distinguishable sampling distance."""

    c_values: tuple[float, ...]
    c_max: float
    exact_sum_bound: float
    eta_max: float | None
    surrogate_c: float | None
    surrogate_bound: float | None


def _closed_form_bound(c: float, n: int) -> float:
    return ((c + 1.0) ** n - n * c - 1.0) / 2.0


def fock_error_bound(
    unitary: np.ndarray, lattice: LatticeSpec, depth: int | None = None
) -> FockErrorReport:
    """Distance bound between exact and distinguishable Fock sampling.

    ``C_i = sum_j |U_{j,s_i}| (sum_{k != i} |U_{j,s_k}|)``, over the full
    ``U`` or its source columns, measures how much source i's amplitude
    overlaps the other sources'; the closed form ``((c+1)^N - N c - 1)/2``
    with ``c = max_i C_i`` bounds the total-variation distance.  The
    surrogate replaces the measured overlap with its leakage-rate bound
    ``2 sqrt(eta k N^(gamma+1))``.
    """
    columns = _source_cols(unitary, lattice)
    cols = np.abs(columns)
    row_sums = cols.sum(axis=1)
    c_values = tuple(
        float((cols[:, i] * (row_sums - cols[:, i])).sum())
        for i in range(cols.shape[1])
    )
    n = lattice.n_sources
    c_max = max(c_values)
    leak = leakage_rate(columns, lattice, depth)
    surrogate_c = 2.0 * math.sqrt(
        leak.eta_max * lattice.k_scale * n ** (lattice.gamma_scale + 1.0)
    )
    return FockErrorReport(
        c_values=c_values,
        c_max=c_max,
        exact_sum_bound=_closed_form_bound(c_max, n),
        eta_max=leak.eta_max,
        surrogate_c=surrogate_c,
        surrogate_bound=_closed_form_bound(surrogate_c, n),
    )


def _block_factor(dist, modes, base: int, pre_n, suf_n):
    """``factor(a, b)``: block table ``dist``'s probabilities on the join's
    ``(a, b)`` pair grid, broadcastable onto it.  A block's key (base
    ``base``, dtype :func:`_key_dtype`) is a prefix-row key plus a
    suffix-row key, looked up by binary search over the table's sorted
    keys: once per photon total of its half for a block inside one half,
    per cell otherwise."""
    h, n_modes = pre_n[0].shape[1], pre_n[0].shape[1] + suf_n[0].shape[1]
    weights = np.zeros(n_modes, _key_dtype(len(modes), base))
    weights[modes] = [base**k for k in range(len(modes))]
    keys = dist.counts @ weights[modes]
    order = np.argsort(keys)
    keys, probs = keys[order], dist.probs[order]

    def look(want):
        at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        return np.where(keys[at] == want, probs[at], 0.0)

    pre = [n @ weights[:h] for n in pre_n]
    suf = [n @ weights[h:] for n in suf_n]
    if max(modes) < h:
        pre = [look(k)[:, None] for k in pre]
        return lambda a, b: pre[a]
    if min(modes) >= h:
        suf = [look(k) for k in suf]
        return lambda a, b: suf[b]
    return lambda a, b: look(pre[a][:, None] + suf[b])


def _exact_and_block_product(sigma, blocks, policy) -> tuple[np.ndarray, np.ndarray]:
    """Exact and block product probabilities ``p``, ``q`` of the rows of
    ``sigma``'s :func:`enumerate_gbs_distribution` table, from its pair
    grids alone.  Blocks (:func:`_block_factor`) multiply from ones in
    order, giving :func:`product_distribution`'s bits."""
    n_out, pre_n, suf_n, grids = _gbs_pieces(sigma, policy)
    base = int(policy.n_total_max) + 1
    factors = []
    for block, modes in zip(blocks.blocks, blocks.lattice.sublattices):
        dist = enumerate_gbs_distribution(quad_to_complex(block), policy)
        factors.append(_block_factor(dist, modes, base, pre_n, suf_n))
    p, q = np.empty(n_out), np.ones(n_out)
    pos = 0
    for a, b, grid in grids:
        p[pos : pos + grid.size] = grid.ravel()
        cells = q[pos : pos + grid.size].reshape(grid.shape)
        for factor in factors:
            cells *= factor(a, b)
        pos += grid.size
    return p, q


def theorem_bound_report(
    circuit: Circuit,
    squeezing: float,
    policy: TruncationPolicy,
    enumerate_modes_cap: int = 8,
    enumerate_budget_cap: int = 16,
) -> dict:
    """Full approximation-error chain on one concrete instance.

    The circuit is replayed once, into the source columns that give the
    leakage, the output covariance and the blocks.  Measures the leakage,
    evaluates each analytic link (covariance-difference bound from
    leakage, infidelity bound, distance bound) on the measured
    quantities, and — when the instance is small enough — enumerates the
    exact and block tables under ``policy`` to report the true table
    distance alongside the bounds.  The block product is scored on the
    exact state's pair grids, which hold every product row, and summed
    canonically: :func:`tvd` against :func:`product_distribution` gives
    the same bits.  Budgets are clamped to ``enumerate_budget_cap``; the
    mass outside the clamped tables is charged to ``tvd_upper``, so the
    reported upper bound stays rigorous.  The lattice is the circuit's own.
    """
    lattice = circuit.lattice
    blocks = block_approx_covariance(circuit, lattice, squeezing)
    leak = leakage_rate(blocks.columns, lattice, circuit.depth)
    v_out = QuadCovariance(_squeezed_covariance(blocks.columns, squeezing))
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
    if lattice.n_modes <= enumerate_modes_cap:
        budget = min(int(policy.n_total_max), enumerate_budget_cap)
        clamped = TruncationPolicy(policy.epsilon, budget)
        p, q = _exact_and_block_product(quad_to_complex(v_out), blocks, clamped)
        exact_mass = _canonical_sum(p[p != 0])
        np.subtract(p, q, out=p)  # p is summed: |p - q| takes its buffer
        tvd_table = 0.5 * _canonical_sum(np.abs(p, out=p))
        approx_mass = _canonical_sum(q)
        report.update(exact_mass=exact_mass, approx_mass=approx_mass, tvd_table=tvd_table,
                      tvd_upper=tvd_table + _tail_slop(exact_mass, approx_mass))
    return report
