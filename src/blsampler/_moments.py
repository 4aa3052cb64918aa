"""Gaussian-moment tables for products of linear forms (internal).

For a thin factor ``G`` (n rows, R columns) the hafnian of ``G @ G.T``
equals the standard-normal expectation ``E[prod_i (G z)_i]``.  Expanding
the product of linear forms over monomials ``z^m`` reduces that to a sum
of monomial coefficients weighted by ``prod_r (m_r - 1)!!`` over the
all-even exponent vectors.  This module maintains, per variable count,
degree-indexed tables that make (a) multiplying a homogeneous polynomial
by a linear form and (b) extracting the Gaussian moment both single
vectorized gathers.

Exponent vectors of degree ``g`` are kept in lexicographic order.  Per
variable ``r`` a table keeps the index pair (``dst``, ``src``): the
degree-``g`` vectors with ``comp[r] >= 1`` and their ``comp - e_r`` at
degree ``g - 1``, each stored as a ``slice`` where it is one contiguous
run (always for ``src``, which covers the whole lower degree in order,
and for ``dst`` with one or two variables).  Only these pairs and the
moment weights are retained after construction.  Tables grow on demand
and are cached per variable count for the lifetime of the process.
"""

from __future__ import annotations

import threading

import numpy as np

# Packing limit: every exponent must stay below it.  Nothing checks it, and
# reachable photon budgets pass it (ROADMAP item 1).
_MAX_DEGREE = 512

# Double factorials of odd numbers: _ODD_DFACT[k] = (2k - 1)!!.  Capped at
# 128 entries: 253!! is still finite in float64, and an IndexError at
# exponent 256 on a single variable beats a silent inf (ROADMAP item 1
# covers the budgets that reach it).
_ODD_DFACT = np.cumprod(np.concatenate(([1.0], np.arange(1, 256, 2, dtype=float))))


def even_moment_weights(degree: int) -> np.ndarray:
    """Weights ``(i-1)!! (g-i-1)!!`` over two variables, zero on odd splits."""
    w = np.zeros(degree + 1)
    if degree % 2 == 0:
        i = np.arange(0, degree + 1, 2)
        w[i] = _ODD_DFACT[i // 2] * _ODD_DFACT[(degree - i) // 2]
    return w


def _compositions(degree: int, n_vars: int) -> np.ndarray:
    """All exponent vectors of the given total degree, lexicographic."""
    if n_vars == 1:
        return np.array([[degree]], dtype=np.int64)
    parts = []
    for first in range(degree + 1):
        rest = _compositions(degree - first, n_vars - 1)
        block = np.empty((rest.shape[0], n_vars), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        parts.append(block)
    return np.vstack(parts)


def _as_slice(idx: np.ndarray) -> slice | np.ndarray:
    """A non-empty ascending index array as a ``slice`` when it is one
    unit-stride run."""
    if (np.diff(idx) == 1).all():
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx


class MomentTables:
    """Degree-indexed shift maps and moment weights for ``n_vars`` variables."""

    def __init__(self, n_vars: int):
        if n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {n_vars}")
        self.n_vars = n_vars
        self._keys: list[np.ndarray] = []
        self._shift: list[tuple[tuple, ...]] = []  # per degree: (dst, src) per variable
        self._weights: list[np.ndarray] = []
        self._grow_lock = threading.Lock()
        self.ensure(0)

    def _pack(self, comps: np.ndarray) -> np.ndarray:
        keys = np.zeros(comps.shape[0], dtype=np.int64)
        for r in range(self.n_vars):
            keys = keys * _MAX_DEGREE + comps[:, r]
        return keys

    def ensure(self, degree: int) -> None:
        """Extend tables so all degrees up to ``degree`` are available.

        Growth is serialized: published degrees are append-only and never
        mutated, so readers need no lock.
        """
        if len(self._keys) > degree:
            return
        with self._grow_lock:
            self._grow(degree)

    def _grow(self, degree: int) -> None:
        while len(self._keys) <= degree:
            g = len(self._keys)
            comps = _compositions(g, self.n_vars)
            keys = self._pack(comps)  # lexicographic comps => ascending keys
            if g == 0:
                shift = ()  # no lower degree; never read
            else:
                prev = self._keys[g - 1]
                pairs = []
                stride = 1
                for r in range(self.n_vars - 1, -1, -1):
                    dst = np.flatnonzero(comps[:, r] >= 1)
                    src = np.searchsorted(prev, keys[dst] - stride)
                    pairs.append((_as_slice(dst), _as_slice(src)))
                    stride *= _MAX_DEGREE
                pairs.reverse()
                shift = tuple(pairs)
            even = (comps % 2 == 0).all(axis=1)
            weights = np.zeros(comps.shape[0])
            if even.any():
                weights[even] = np.prod(_ODD_DFACT[comps[even] // 2], axis=1)
            # readers gate on len(_keys): publish it last
            self._shift.append(shift)
            self._weights.append(weights)
            self._keys.append(keys)

    def size(self, degree: int) -> int:
        self.ensure(degree)
        return self._keys[degree].shape[0]

    def multiply_linear(
        self, coeffs: np.ndarray, degree: int, form: np.ndarray
    ) -> np.ndarray:
        """Coefficients of ``poly * sum_r form[r] z_r`` (degree rises by one).

        ``coeffs`` may carry leading batch axes; the coefficient axis is
        always the last one.
        """
        self.ensure(degree + 1)
        coeffs = np.asarray(coeffs)
        out_size = self._keys[degree + 1].shape[0]
        out = np.zeros(coeffs.shape[:-1] + (out_size,), dtype=complex)
        for r in range(self.n_vars):
            if form[r] == 0:
                continue
            dst, src = self._shift[degree + 1][r]
            out[..., dst] += form[r] * coeffs[..., src]
        return out

    def multiply_linear_adjoint(
        self, w: np.ndarray, degree: int, form: np.ndarray
    ) -> np.ndarray:
        """Adjoint of :meth:`multiply_linear`: pulls a weight vector at
        ``degree`` back to ``degree - 1`` so that
        ``w . (poly * form) == adjoint(w) . poly``.  For each variable the
        index pair is injective, so plain fancy-index accumulation is safe.
        """
        if degree < 1:
            raise ValueError("adjoint needs degree >= 1")
        self.ensure(degree)
        out = np.zeros(self._keys[degree - 1].shape[0], dtype=complex)
        for r in range(self.n_vars):
            if form[r] == 0:
                continue
            dst, src = self._shift[degree][r]
            out[src] += form[r] * w[dst]
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


_TABLES: dict[int, MomentTables] = {}
_TABLES_LOCK = threading.Lock()


def tables(n_vars: int) -> MomentTables:
    """Process-wide table cache, one entry per variable count."""
    tab = _TABLES.get(n_vars)
    if tab is None:
        with _TABLES_LOCK:
            tab = _TABLES.setdefault(n_vars, MomentTables(n_vars))
    return tab
