"""Exact matrix-function kernels: hafnians, permanents, symmetric factors.

Two hafnian evaluators cross-check each other.  The reference
:func:`hafnian_general` enumerates perfect matchings with memoization on
index subsets; because the recursion always eliminates the lowest live
index, only ``O(phi^n)`` subsets are reachable (Fibonacci growth rather
than ``2^n``), which keeps the hard 24-dimension cap comfortably cheap.
:func:`hafnian_low_rank` instead uses the generating-function identity

    haf(G G^T) = E_z[ prod_i (G z)_i ],   z ~ N(0, I_R),

valid for any thin factor ``G``; the expectation is evaluated exactly by
expanding the product of linear forms over monomials (see
:mod:`._moments`).  Its cost scales with ``binom(n + R - 1, R - 1)`` so it
stays polynomial in the matrix dimension for fixed column count ``R``.

Permanents use Ryser's inclusion-exclusion formula with Gray-code subset
updates, capped at dimension 14.
"""

from __future__ import annotations

import numpy as np

from . import _moments
from .errors import ConditioningError, SizeCapError, UnsupportedRankError

__all__ = [
    "HAFNIAN_DIM_CAP",
    "PERMANENT_DIM_CAP",
    "LOW_RANK_COLUMN_CAP",
    "hafnian_general",
    "hafnian_low_rank",
    "permanent",
    "takagi_factor",
    "run_selftest",
]

HAFNIAN_DIM_CAP = 24
PERMANENT_DIM_CAP = 14
LOW_RANK_COLUMN_CAP = 4


def _check_square(a: np.ndarray, name: str) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


def hafnian_general(a: np.ndarray) -> complex:
    """Hafnian by memoized perfect-matching enumeration.

    Requires a complex symmetric matrix of even dimension at most
    ``HAFNIAN_DIM_CAP``; odd dimensions are a domain error (use the
    low-rank kernel if the zero value of an odd-dimensional moment is
    wanted).  ``haf`` of the empty matrix is 1.
    """
    a = np.asarray(a)
    n = _check_square(a, "hafnian input")
    if n % 2:
        raise ValueError(f"hafnian needs even dimension, got {n}")
    if n > HAFNIAN_DIM_CAP:
        raise SizeCapError(f"dimension {n} exceeds exact-hafnian cap {HAFNIAN_DIM_CAP}")
    if n == 0:
        return 1 + 0j
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > 1e-8 * max(1.0, scale):
        raise ValueError("hafnian input is not symmetric")

    memo: dict[int, complex] = {}

    def matchings(mask: int) -> complex:
        if mask == 0:
            return 1 + 0j
        known = memo.get(mask)
        if known is not None:
            return known
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        total = 0j
        mm = rest
        while mm:
            j = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            total += a[i, j] * matchings(rest & ~(1 << j))
        memo[mask] = total
        return total

    return matchings((1 << n) - 1)


def hafnian_low_rank(factor: np.ndarray) -> complex:
    """Hafnian of ``factor @ factor.T`` via the Gaussian-moment expansion.

    ``factor`` has one row per matrix index and at most
    ``LOW_RANK_COLUMN_CAP`` columns.  Odd row counts return exactly 0 (an
    odd-degree Gaussian moment), matching the generating-function
    definition.
    """
    factor = np.atleast_2d(np.asarray(factor, dtype=complex))
    n, n_vars = factor.shape
    if n_vars > LOW_RANK_COLUMN_CAP:
        raise UnsupportedRankError(
            f"{n_vars} columns exceed the low-rank cap {LOW_RANK_COLUMN_CAP}"
        )
    if n == 0:
        return 1 + 0j
    if n % 2:
        return 0j
    tabs = _moments.tables(n_vars)
    coeffs = np.ones(1, dtype=complex)
    for i in range(n):
        coeffs = tabs.multiply_linear(coeffs, i, factor[i])
    return tabs.moment(coeffs, n)


def permanent(a: np.ndarray) -> complex:
    """Permanent by Ryser's formula with Gray-code subset updates."""
    a = np.asarray(a, dtype=complex)
    n = _check_square(a, "permanent input")
    if n > PERMANENT_DIM_CAP:
        raise SizeCapError(f"dimension {n} exceeds permanent cap {PERMANENT_DIM_CAP}")
    if n == 0:
        return 1 + 0j
    row_sums = np.zeros(n, dtype=complex)
    total = 0j
    gray_prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        j = (gray ^ gray_prev).bit_length() - 1
        if gray & (gray ^ gray_prev):
            row_sums += a[:, j]
        else:
            row_sums -= a[:, j]
        gray_prev = gray
        sign = -1.0 if (gray.bit_count() & 1) else 1.0
        total += sign * np.prod(row_sums)
    return total * (-1.0) ** n


def takagi_factor(a: np.ndarray) -> np.ndarray:
    """Rank-revealing symmetric factor ``G`` with ``G @ G.T == a``.

    Uses the real-embedding trick: eigenvectors ``(x; y)`` of the real
    symmetric ``[[Re a, Im a], [Im a, -Re a]]`` with eigenvalue ``s > 0``
    give con-eigenvectors ``w = x + i y`` with ``a conj(w) = s w``, so
    ``a = sum_s s w w^T`` over the positive spectrum.  Columns are ordered
    by descending singular value; values below ``1e-10 * max(1, s_max)``
    are treated as rank deficiency and dropped.  The reconstruction is
    verified; failure raises :class:`ConditioningError`.
    """
    a = np.asarray(a, dtype=complex)
    n = _check_square(a, "takagi input")
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > 1e-8 * max(1.0, scale):
        raise ValueError("takagi input is not symmetric")
    big = np.empty((2 * n, 2 * n))
    big[:n, :n] = a.real
    big[:n, n:] = a.imag
    big[n:, :n] = a.imag
    big[n:, n:] = -a.real
    evals, evecs = np.linalg.eigh(big)
    cutoff = 1e-10 * max(1.0, evals.max(initial=0.0))
    keep = np.flatnonzero(evals > cutoff)[::-1]  # descending
    cols = evecs[:n, keep] + 1j * evecs[n:, keep]
    factor = cols * np.sqrt(evals[keep])
    residual = np.abs(factor @ factor.T - a).max()
    if residual > 1e-8 * max(1.0, scale):
        raise ConditioningError(
            f"takagi reconstruction residual {residual:.3e} (scale {scale:.3e})"
        )
    return factor


def _permanent_reference(a: np.ndarray) -> complex:
    """Direct permutation-sum permanent (test oracle, tiny sizes only)."""
    from itertools import permutations

    n = a.shape[0]
    total = 0j
    for perm in permutations(range(n)):
        prod = 1 + 0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


def run_selftest() -> dict:
    """Cross-validate the kernels against each other and brute force, on
    random inputs drawn from one fixed seed.

    Returns a report dict with one entry per check: name, pass flag, and
    the worst relative error observed.  Used by the command-line
    ``kernels-selftest`` mode and by the acceptance suite.
    """
    rng = np.random.default_rng(20260819)
    checks = []

    worst = 0.0
    for _ in range(200):
        n = 2 * int(rng.integers(1, 7))  # dimensions 2..12
        g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        h_low = hafnian_low_rank(g)
        h_gen = hafnian_general(g @ g.T)
        worst = max(worst, abs(h_low - h_gen) / max(1.0, abs(h_gen)))
    checks.append(("hafnian_low_rank_vs_general_rank2", worst <= 1e-9, worst))

    worst = 0.0
    for n_vars in (3, 4):
        for _ in range(25):
            n = 2 * int(rng.integers(1, 6))
            g = rng.normal(size=(n, n_vars)) + 1j * rng.normal(size=(n, n_vars))
            h_low = hafnian_low_rank(g)
            h_gen = hafnian_general(g @ g.T)
            worst = max(worst, abs(h_low - h_gen) / max(1.0, abs(h_gen)))
    checks.append(("hafnian_low_rank_vs_general_rank34", worst <= 1e-9, worst))

    worst = 0.0
    for n in range(1, 9):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p_fast = permanent(a)
        p_ref = _permanent_reference(a)
        worst = max(worst, abs(p_fast - p_ref) / max(1.0, abs(p_ref)))
    checks.append(("permanent_vs_permutation_sums", worst <= 1e-9, worst))

    ones4 = np.ones((4, 4), dtype=complex)
    ok = abs(hafnian_general(ones4) - 3.0) < 1e-12
    ok = ok and abs(hafnian_general(np.zeros((2, 2))) - 0.0) < 1e-15
    ok = ok and abs(hafnian_general(np.zeros((0, 0))) - 1.0) < 1e-15
    checks.append(("hafnian_fixed_values", ok, 0.0))

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        r_true = int(rng.integers(1, 4))
        g = rng.normal(size=(n, r_true)) + 1j * rng.normal(size=(n, r_true))
        a = g @ g.T
        f = takagi_factor(a)
        worst = max(worst, float(np.abs(f @ f.T - a).max()))
        if f.shape[1] > min(n, r_true):
            worst = max(worst, 1.0)
    checks.append(("takagi_reconstruction", worst <= 1e-9, worst))

    return {
        "checks": [
            {"name": name, "passed": bool(passed), "worst_error": float(err)}
            for name, passed, err in checks
        ],
        "passed": all(passed for _, passed, _ in checks),
    }
