"""Brickwork beam-splitter lattices.

Geometry of source sublattices, random shallow circuits made of two-mode
beam splitters, and the resulting mode unitaries.  Mode indices are the
row-major raveling of a d-dimensional grid obtained by tiling one cube of
edge ``L`` per source.  :func:`build_lattice` reshapes that grid to axes
``(t_0, L, t_1, L, ...)``, moves the cube axes to the front and reshapes
again, so row ``b`` of the ``(N, L^d)`` result lists cube ``b``'s modes;
each source is the cube's column at the centre offset ``L // 2`` per axis.

A circuit holds per layer a ``(g, 2)`` array of mode pairs and one of
``(theta, phi)`` angles; layer ``ell`` acts along axis ``(ell % 2d) // 2``
and pairs sites starting at coordinate offset 1 on the first pass over an
axis and offset 0 on the second, so a full round of 2d layers couples
every bond of the lattice once.

Gates are ordered within a layer by their lower mode index, and
:func:`sample_random_circuit` draws each layer's angles as a single
``uniform(0, 2*pi)`` block of shape ``(n_gates, 2)``, which makes circuits
reproducible from a seed alone.

:func:`accumulate_unitary` and :func:`source_columns` share one gate loop
that applies each layer as one vectorized update of the rows it touches
(a full unitary takes a layer a few gates at a time).  This is exact
because the :class:`Circuit` constructor checks that each layer's gates
act on disjoint, in-range modes (its arrays are read-only after); every
entry equals what gate-by-gate application gives, bit for bit.

The circuit reports sit beside that loop: :func:`leakage_rate` (column
weight outside the home block, against :func:`leakage_bound`) and
:func:`random_walk_profile` (mean column weight against the averaging map).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedCircuitError

__all__ = [
    "LatticeSpec",
    "Circuit",
    "build_lattice",
    "brickwork_pairs",
    "sample_random_circuit",
    "accumulate_unitary",
    "source_columns",
    "LeakageReport",
    "leakage_bound",
    "leakage_rate",
    "WalkProfile",
    "random_walk_profile",
]


def _tile_shape(n_sources: int, dim: int) -> tuple[int, ...]:
    """Most-cubic integer factorization of ``n_sources`` over ``dim`` axes.

    Each axis greedily takes the divisor of the remaining count closest to
    the geometric ideal, ties resolved toward the larger divisor.
    """
    shape = []
    remaining = n_sources
    for axes_left in range(dim, 0, -1):
        if axes_left == 1:
            shape.append(remaining)
            break
        target = remaining ** (1.0 / axes_left)
        best = min(
            (d for d in range(1, remaining + 1) if remaining % d == 0),
            key=lambda d: (abs(d - target), -d),
        )
        shape.append(best)
        remaining //= best
    return tuple(shape)


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Sublattice geometry: one cube of edge ``edge`` per squeezed source.

    Attributes
    ----------
    dim : int
        Spatial dimension d of the lattice.
    n_sources : int
        Number of sources N, one per sublattice cube.
    edge : int
        Cube edge L; each sublattice holds ``edge**dim`` modes.
    n_modes : int
        Total mode count ``M = n_sources * edge**dim``.
    grid_shape : tuple of int
        Shape of the global mode grid (row-major raveled into indices).
    sublattices : np.ndarray
        Read-only ``(N, L^d)`` intp array; row ``b`` holds the sorted mode
        indices of cube ``b``.
    sources : np.ndarray
        Read-only ``(N,)`` intp array: the mode of each source (offset
        ``edge // 2`` along every axis of its cube).
    k_scale, gamma_scale : float
        Scale parameters in the report convention ``M = k * N**gamma``
        (``k = 1`` for ``N >= 2``; degenerate single-source lattices
        report ``k = M, gamma = 1``).
    """

    dim: int
    n_sources: int
    edge: int
    n_modes: int
    grid_shape: tuple[int, ...]
    sublattices: np.ndarray
    sources: np.ndarray
    k_scale: float
    gamma_scale: float


def build_lattice(dim: int, n_sources: int, edge: int) -> LatticeSpec:
    """Construct the lattice geometry for ``n_sources`` cubes of ``edge**dim`` modes."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    if edge < 1:
        raise ValueError(f"edge must be >= 1, got {edge}")
    if dim > 32:  # the grid takes two array axes per dimension; numpy has 64
        raise ValueError(f"dim must be <= 32, got {dim}")
    tile = _tile_shape(n_sources, dim)
    grid_shape = tuple(t * edge for t in tile)
    n_modes = math.prod(grid_shape)
    split = np.arange(n_modes, dtype=np.intp).reshape(
        [n for t in tile for n in (t, edge)]
    )
    sublattices = split.transpose(
        [*range(0, 2 * dim, 2), *range(1, 2 * dim, 2)]
    ).reshape(n_sources, edge**dim)
    sublattices.setflags(write=False)
    centre = int(np.ravel_multi_index((edge // 2,) * dim, (edge,) * dim))

    if n_sources >= 2:
        k_scale, gamma_scale = 1.0, math.log(n_modes) / math.log(n_sources)
    else:
        k_scale, gamma_scale = float(n_modes), 1.0
    return LatticeSpec(
        dim=dim,
        n_sources=n_sources,
        edge=edge,
        n_modes=n_modes,
        grid_shape=grid_shape,
        sublattices=sublattices,
        sources=sublattices[:, centre],  # a view, so read-only too
        k_scale=k_scale,
        gamma_scale=gamma_scale,
    )


# The CLI refuses, before any array exists, M, depth * M, walk trials * M,
# N * M source-column entries or (2M)^2 dense covariance entries above this.
# The largest planned depth-threshold runs reach M = 32768 and depth * M =
# 7.0M (d=1, L=512, D=6865; 28.3M at d=2, L=128, N=2, D=863).  At the cap a
# circuit holds 0.5 GiB of angles, the walk 1.5 GiB of tables.
MAX_MODE_CELLS = 2**26


def brickwork_pairs(grid_shape: tuple[int, ...], layer: int) -> np.ndarray:
    """Mode pairs coupled by the given layer, shape ``(n_gates, 2)``.

    Layer ``layer`` (0-based) acts along axis ``(layer % 2d) // 2``; the
    first of the two passes over an axis pairs sites at odd coordinate
    offsets ``(1,2), (3,4), ...``, the second pairs ``(0,1), (2,3), ...``.
    Boundaries are open: unpaired edge sites idle.  The ``2d`` arrays of
    the grid last asked for are built once, kept and returned read-only.
    """
    return _grid_schedules(tuple(grid_shape))[layer % (2 * len(grid_shape))]


@functools.lru_cache(maxsize=1)  # a run builds one grid
def _grid_schedules(grid_shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    idx = np.arange(math.prod(grid_shape)).reshape(grid_shape)
    schedules = []
    for axis in range(len(grid_shape)):
        lines = np.moveaxis(idx, axis, -1)
        for offset in (1, 0):
            lo, hi = lines[..., offset::2], lines[..., offset + 1 :: 2]
            n = min(lo.shape[-1], hi.shape[-1])
            pairs = np.stack([lo[..., :n].ravel(), hi[..., :n].ravel()], axis=1)
            pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
            pairs.setflags(write=False)
            schedules.append(pairs)
    return tuple(schedules)


def _read_only(x, dtype) -> np.ndarray:
    """``x`` as a read-only array (empty: ``(0, 2)``).  Writable input is
    copied, so no caller can change a checked circuit; read-only is shared."""
    a = np.asarray(x, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a.reshape(0, 2) if a.size == 0 else a


@dataclass(frozen=True, eq=False)
class Circuit:
    """Depth-ordered gate layers on a lattice: ``pairs[ell]`` is layer
    ``ell``'s ``(g, 2)`` int array of modes, ``angles[ell]`` its ``(g, 2)``
    rows of ``(theta, phi)``, each given as arrays or nested lists.  The
    constructor checks every layer once (equal layer and gate counts, modes
    in range, no mode used twice in a layer, so ``i != j``) or raises
    :class:`MalformedCircuitError`; the stored arrays are read-only.
    """

    lattice: LatticeSpec
    pairs: tuple[np.ndarray, ...]
    angles: tuple[np.ndarray, ...]

    def __post_init__(self):
        m = self.n_modes
        pairs = tuple(_read_only(p, np.intp) for p in self.pairs)
        angles = tuple(_read_only(a, float) for a in self.angles)
        if len(pairs) != len(angles):
            raise MalformedCircuitError(
                f"{len(pairs)} layers of pairs, {len(angles)} of angles"
            )
        for ell, (p, a) in enumerate(zip(pairs, angles)):
            if p.shape[1:] != (2,) or a.shape != p.shape:
                raise MalformedCircuitError(
                    f"layer {ell}: pairs of shape {p.shape} and angles of shape "
                    f"{a.shape}, both must be (n_gates, 2)"
                )
            if len(p) and (
                p.min() < 0 or p.max() >= m or np.bincount(p.ravel()).max() > 1
            ):
                raise MalformedCircuitError(
                    f"layer {ell}: gates must act on distinct modes of 0..{m - 1}"
                )
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "angles", angles)

    @property
    def depth(self) -> int:
        return len(self.pairs)

    @property
    def n_modes(self) -> int:
        return self.lattice.n_modes


def sample_random_circuit(
    lattice: LatticeSpec, depth: int, rng: np.random.Generator
) -> Circuit:
    """Draw a brickwork circuit of the given depth with iid uniform angles.

    Both angles of every gate are uniform on ``[0, 2*pi)``; layer ``ell``'s
    angles are drawn as one ``(n_gates, 2)`` block in gate order, so equal
    seeds give equal circuits.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    pairs = [brickwork_pairs(lattice.grid_shape, ell) for ell in range(depth)]
    angles = [rng.uniform(0.0, 2.0 * np.pi, size=(len(p), 2)) for p in pairs]
    for a in angles:
        a.setflags(write=False)  # so the constructor keeps it without a copy
    return Circuit(lattice, pairs, angles)


def _gate_coefficients(theta, phi):
    """``(cos t, e^{i p} sin t, -e^{-i p} sin t)``, elementwise: the entries
    of beam splitters, with ``e^{i p}`` built exactly from ``cos p, sin p``."""
    c, s = np.cos(theta), np.sin(theta)
    e = np.empty(np.shape(phi), dtype=complex)
    e.real, e.imag = np.cos(phi), np.sin(phi)
    return c, e * s, -np.conj(e) * s


def accumulate_unitary(circuit: Circuit) -> np.ndarray:
    """Total mode unitary of the circuit (first layer applied first).

    Row convention: output mode operators are ``U @ (input operators)``,
    i.e. column ``s`` holds the amplitudes that input mode ``s`` spreads
    over output sites.  With open boundaries in 1d, ``U[j, s] == 0``
    exactly whenever ``|j - s| > depth``.
    """
    return _apply_gates(circuit, np.eye(circuit.n_modes, dtype=complex))


def source_columns(circuit: Circuit) -> np.ndarray:
    """``U[:, sources]``, shape ``M x N``: where each source's light goes.

    Same layer-by-layer loop as :func:`accumulate_unitary`, at
    ``O(N * gates)`` time and ``O(M * N)`` memory; the columns equal
    ``accumulate_unitary(circuit)[:, sources]`` bit for bit.
    """
    lat = circuit.lattice
    cols = np.zeros((lat.n_modes, lat.n_sources), dtype=complex)
    cols[lat.sources, range(lat.n_sources)] = 1.0
    return _apply_gates(circuit, cols)


def _source_cols(u, lattice: LatticeSpec) -> np.ndarray:
    """``U[:, sources]`` of the ``M x M`` unitary; ``M x N`` source columns
    pass unchanged, and any other shape raises ``ValueError``.

    A square input is not ambiguous: ``M == N`` only when ``edge == 1``,
    and then :func:`build_lattice` puts the sources at modes ``0..M-1`` in
    order, so the slice is the identity.
    """
    u = np.asarray(u)
    m, n = lattice.n_modes, lattice.n_sources
    if u.shape == (m, m):
        return u[:, lattice.sources]
    if u.shape == (m, n):
        return u
    raise ValueError(
        f"expected the {m}x{m} unitary or its {m}x{n} source columns, "
        f"got shape {u.shape}"
    )


# At most this many entries of ``u`` are gathered per row set in one
# vectorized update (64 KiB of complex128).  Source columns take a whole
# layer at once; a full unitary takes a layer a few gates at a time, which
# keeps the temporaries small enough for the allocator to reuse instead of
# mapping and faulting in fresh pages for every layer.
_CHUNK_ENTRIES = 4096


def _apply_gates(circuit: Circuit, u: np.ndarray) -> np.ndarray:
    """Left-multiply ``u`` (in place) by every gate of the circuit in order.

    Vectorized over the gates of a layer: the :class:`Circuit` constructor
    has checked that they act on disjoint, in-range modes, so they commute
    and their rows can be mixed at once (up to ``_CHUNK_ENTRIES //
    u.shape[1]`` gates per update).  A layer's coefficients are computed in
    one call; each gate's scalars and products are those of gate-by-gate
    application, so the result is bit-identical.
    """
    step = max(1, _CHUNK_ENTRIES // u.shape[1])
    for pairs, angles in zip(circuit.pairs, circuit.angles):
        c, es, fs = (x[:, None] for x in _gate_coefficients(angles[:, 0], angles[:, 1]))
        for k in range(0, len(pairs), step):
            i, j = pairs[k : k + step].T
            _mix_rows(u, i, j, c[k : k + step], es[k : k + step], fs[k : k + step])
    return u


def _mix_rows(u, i, j, c, es, fs) -> None:
    """Set ``u[i], u[j] = c*u[i] + es*u[j], fs*u[i] + c*u[j]`` in place.

    ``i`` and ``j`` index the first axis of ``u`` with no mode repeated
    across them, as in one brickwork layer; the coefficients broadcast
    against ``u[i]``, one row of coefficients per mode pair.
    """
    ri, rj = u[i], u[j]
    u[i] = c * ri + es * rj
    u[j] = fs * ri + c * rj


@dataclass(frozen=True)
class LeakageReport:
    """Per-source leaked amplitude fraction plus the diffusive bound."""

    per_source_eta: tuple[float, ...]
    eta_max: float
    bound: float | None


def leakage_bound(dim: int, edge: int, depth: int) -> float:
    """Diffusive tail bound ``2 d exp(-L^2 d / (8 D))`` (zero at D=0)."""
    if depth == 0:
        return 0.0
    return 2.0 * dim * math.exp(-(edge**2) * dim / (8.0 * depth))


def leakage_rate(
    unitary: np.ndarray, lattice: LatticeSpec, depth: int | None = None
) -> LeakageReport:
    """Measured per-source leakage of the full ``U`` or its source columns:
    column weight outside the home block."""
    cols = _source_cols(unitary, lattice)
    etas = [
        float((np.abs(np.delete(cols[:, b], modes)) ** 2).sum())
        for b, modes in enumerate(lattice.sublattices)
    ]
    bound = None if depth is None else leakage_bound(lattice.dim, lattice.edge, depth)
    return LeakageReport(per_source_eta=tuple(etas), eta_max=max(etas), bound=bound)


@dataclass(frozen=True)
class WalkProfile:
    """Source-column weight profile, measured and predicted, per depth.

    Arrays are shaped ``(depth + 1, n_modes)``; row t is the profile
    after t layers.  ``theory`` iterates the exact one-gate averaging
    map (each gate replaces both sites' mean weights by their average),
    which is the lattice random walk the gate statistics induce.
    """

    empirical: np.ndarray
    stderr: np.ndarray
    theory: np.ndarray
    source: int


def random_walk_profile(
    lattice: LatticeSpec,
    depth: int,
    n_trials: int,
    rng: np.random.Generator,
) -> WalkProfile:
    """Monte-Carlo mean of ``|U_{j,s}|^2`` against the averaging-map law,
    on the lattice's mode grid; the walk starts at source 0 of the
    lattice (the centre of its first cube)."""
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2 (stderr needs two trials)")
    grid_shape, n_modes = lattice.grid_shape, lattice.n_modes
    source = int(lattice.sources[0])
    amps = np.zeros((n_trials, n_modes), dtype=complex)
    amps[:, source] = 1.0
    empirical = np.zeros((depth + 1, n_modes))
    stderr = np.zeros((depth + 1, n_modes))
    theory = np.zeros((depth + 1, n_modes))
    empirical[0, source] = 1.0
    theory[0, source] = 1.0
    profile = theory[0].copy()
    for layer in range(depth):
        pairs = brickwork_pairs(grid_shape, layer)
        if pairs.shape[0]:
            i, j = pairs[:, 0], pairs[:, 1]
            theta = rng.uniform(0.0, 2.0 * math.pi, (n_trials, pairs.shape[0]))
            phi = rng.uniform(0.0, 2.0 * math.pi, (n_trials, pairs.shape[0]))
            c, es, fs = _gate_coefficients(theta, phi)
            _mix_rows(amps.T, i, j, c.T, es.T, fs.T)
            profile[i] = profile[j] = 0.5 * (profile[i] + profile[j])
        w = np.abs(amps) ** 2
        empirical[layer + 1] = w.mean(axis=0)
        stderr[layer + 1] = w.std(axis=0, ddof=1) / math.sqrt(n_trials)
        theory[layer + 1] = profile
    return WalkProfile(
        empirical=empirical, stderr=stderr, theory=theory, source=source
    )
