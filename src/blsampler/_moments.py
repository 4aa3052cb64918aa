"""Gaussian-moment tables for products of linear forms (internal).

For a thin factor ``G`` (n rows, R columns) the hafnian of ``G @ G.T``
equals the standard-normal expectation ``E[prod_i (G z)_i]``.  Expanding
the product of linear forms over monomials ``z^m`` reduces that to a sum
of monomial coefficients weighted by ``prod_r (m_r - 1)!!`` over the
all-even exponent vectors.  This module maintains, per variable count,
degree-indexed tables that make (a) multiplying a homogeneous polynomial
by a linear form and (b) extracting the Gaussian moment single
vectorized steps.  It also builds, once per pair of degrees, the moment
Gram matrix, which pairs two polynomials' coefficients into the moment
of their product.

Exponent vectors of degree ``g`` are kept in lexicographic order, the
order :func:`_compositions` emits.  Adding ``e_r`` to every vector of
degree ``g - 1`` keeps that order and lands exactly on the degree-``g``
vectors with ``comp[r] >= 1``.  So multiplying by ``z_r`` moves the whole
lower degree, in order, onto one ascending row set ``dst``, and a table
keeps only that ``dst`` per variable (a ``slice`` where it is one
contiguous run: always for the first variable, and for every variable
when there are at most two) and the moment weights.  Tables grow on
demand and are cached per variable count for the lifetime of the process.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from .errors import SizeCapError

# Double factorials of odd numbers: _ODD_DFACT[k] = (2k - 1)!! for
# k = 0..128, up to 255!! (finite in float64).  A degree-258 row holds
# exponent 258, one past the end, so ``ensure`` refuses degree >= 258.
_ODD_DFACT = np.cumprod(np.concatenate(([1.0], np.arange(1, 256, 2, dtype=float))))


def _compositions(degree: int, n_vars: int) -> np.ndarray:
    """All exponent vectors of the given total degree, lexicographic.

    Stars and bars: place ``n_vars - 1`` bars among ``degree + n_vars - 1``
    slots; the exponents are the star counts between consecutive bars.
    Bar positions taken in lexicographic order give the vectors in
    lexicographic order.
    """
    slots, k = degree + n_vars - 1, n_vars - 1
    rows = math.comb(slots, k)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), k)),
        dtype=np.int64,
        count=rows * k,
    ).reshape(rows, k)
    return np.diff(bars, axis=1, prepend=-1, append=slots) - 1


def _as_slice(idx: np.ndarray) -> slice | np.ndarray:
    """A non-empty ascending index array as a ``slice`` when it is one
    unit-stride run."""
    if (np.diff(idx) == 1).all():
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx


class MomentTables:
    """Degree-indexed shift rows and moment weights for ``n_vars`` variables."""

    def __init__(self, n_vars: int):
        if n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {n_vars}")
        self.n_vars = n_vars
        self._dst: list[tuple] = []  # per degree: rows of comp + e_r, per variable
        self._weights: list[np.ndarray] = []
        self._exponents: dict[int, np.ndarray] = {}  # per degree, read by gram
        self._grams: dict[tuple[int, int], np.ndarray] = {}  # read-only
        self._grow_lock = threading.Lock()
        self.ensure(0)

    def ensure(self, degree: int) -> None:
        """Extend tables so all degrees up to ``degree`` are available.

        Growth is serialized: published degrees are append-only and never
        mutated, so readers need no lock.  Degrees past the double-factorial
        table raise :class:`SizeCapError`.
        """
        if len(self._weights) > degree:
            return
        if degree >= 2 * _ODD_DFACT.size:
            raise SizeCapError(
                f"moment tables stop at degree {2 * _ODD_DFACT.size - 1}, "
                f"got {degree}"
            )
        with self._grow_lock:
            self._grow(degree)

    def _grow(self, degree: int) -> None:
        while len(self._weights) <= degree:
            g = len(self._weights)
            comps = _compositions(g, self.n_vars)
            dst = ()  # degree 0 has no lower degree; never read
            if g:
                dst = tuple(
                    _as_slice(np.flatnonzero(comps[:, r] >= 1))
                    for r in range(self.n_vars)
                )
            even = (comps % 2 == 0).all(axis=1)
            weights = np.zeros(comps.shape[0])
            if even.any():
                weights[even] = np.prod(_ODD_DFACT[comps[even] // 2], axis=1)
            # readers gate on len(_weights): publish it last
            self._dst.append(dst)
            self._weights.append(weights)

    def size(self, degree: int) -> int:
        self.ensure(degree)
        return self._weights[degree].shape[0]

    def multiply_linear(
        self, coeffs: np.ndarray, degree: int, form: np.ndarray
    ) -> np.ndarray:
        """Coefficients of ``poly * sum_r form[r] z_r`` (degree rises by one).

        ``coeffs`` may carry leading batch axes; the coefficient axis is
        always the last one.
        """
        self.ensure(degree + 1)
        coeffs = np.asarray(coeffs)
        out_size = self._weights[degree + 1].shape[0]
        out = np.zeros(coeffs.shape[:-1] + (out_size,), dtype=complex)
        for r, dst in enumerate(self._dst[degree + 1]):
            if form[r] == 0:
                continue
            out[..., dst] += form[r] * coeffs
        return out

    def weights(self, degree: int) -> np.ndarray:
        """Gaussian-moment weight vector for homogeneous ``degree`` (view)."""
        self.ensure(degree)
        return self._weights[degree]

    def moment(self, coeffs: np.ndarray, degree: int) -> complex:
        """Standard-normal expectation of the homogeneous polynomial."""
        if degree % 2:
            return 0j
        self.ensure(degree)
        return complex(np.dot(coeffs, self._weights[degree]))

    def gram(self, deg_u: int, deg_v: int) -> np.ndarray:
        """Moment Gram matrix ``W[u, v] = E[z^(u+v)]`` over the exponent
        vectors of degrees ``deg_u`` and ``deg_v``, in table order, so
        ``E[p q] == p @ W @ q`` for homogeneous ``p`` and ``q``.  The
        moment factors over variables: ``(k - 1)!!`` of each exponent sum
        ``k``, zero when it is odd.

        Each matrix is built once and kept, read-only, for the lifetime of
        the process.  The cache takes no lock: a stored matrix is never
        written, and two threads that build the same one at once build the
        same bits, so either store may win."""
        out = self._grams.get((deg_u, deg_v))
        if out is not None:
            return out
        self.ensure(deg_u + deg_v)
        for g in (deg_u, deg_v):
            if g not in self._exponents:
                self._exponents[g] = _compositions(g, self.n_vars)
        u, v = self._exponents[deg_u], self._exponents[deg_v]
        one_var = np.zeros(deg_u + deg_v + 1)
        one_var[::2] = _ODD_DFACT[: (deg_u + deg_v) // 2 + 1]
        out = np.ones((u.shape[0], v.shape[0]))
        for r in range(self.n_vars):
            out *= one_var[u[:, r, None] + v[:, r]]
        out.setflags(write=False)
        self._grams[deg_u, deg_v] = out
        return out


_TABLES: dict[int, MomentTables] = {}
_TABLES_LOCK = threading.Lock()


def tables(n_vars: int) -> MomentTables:
    """Process-wide table cache, one entry per variable count."""
    tab = _TABLES.get(n_vars)
    if tab is None:
        with _TABLES_LOCK:
            tab = _TABLES.setdefault(n_vars, MomentTables(n_vars))
    return tab
