"""Brickwork beam-splitter lattices.

Geometry of source sublattices, random shallow circuits made of two-mode
beam splitters, and the resulting mode unitaries.  Mode indices are the
row-major raveling of a d-dimensional grid obtained by tiling one cube of
edge ``L`` per source.  A circuit is a list of gate layers; layer ``ell``
acts along axis ``(ell % 2d) // 2`` and pairs sites starting at coordinate
offset 1 on the first pass over an axis and offset 0 on the second, so a
full round of 2d layers couples every bond of the lattice once.

Gates are ordered within a layer by their lower mode index, and
:func:`sample_random_circuit` draws each layer's angles as a single
``uniform(0, 2*pi)`` block of shape ``(n_gates, 2)``, which makes circuits
reproducible from a seed alone.

:func:`accumulate_unitary` and :func:`source_columns` share one gate loop
that applies each layer as one vectorized update of the rows it touches
(a full unitary takes a layer a few gates at a time).  This is exact
because :meth:`Circuit.validate` guarantees that the gates of one layer
act on disjoint, in-range modes; every entry equals what gate-by-gate
application gives, bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedCircuitError

__all__ = [
    "LatticeSpec",
    "BeamSplitterGate",
    "Circuit",
    "build_lattice",
    "brickwork_pairs",
    "sample_random_circuit",
    "beam_splitter_unitary",
    "accumulate_unitary",
    "source_columns",
    "circuit_to_json",
    "circuit_from_json",
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


@dataclass(frozen=True)
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
    sublattices : tuple of tuple of int
        Sorted mode indices of each cube.
    sources : tuple of int
        Mode index of each source (offset ``edge // 2`` along every axis
        of its cube).
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
    sublattices: tuple[tuple[int, ...], ...]
    sources: tuple[int, ...]
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
    tile = _tile_shape(n_sources, dim)
    grid_shape = tuple(t * edge for t in tile)
    n_modes = int(np.prod(grid_shape))
    mode_grid = np.arange(n_modes).reshape(grid_shape)

    sublattices = []
    sources = []
    for cube in np.ndindex(*tile):
        window = tuple(slice(c * edge, (c + 1) * edge) for c in cube)
        sublattices.append(tuple(int(m) for m in np.sort(mode_grid[window].ravel())))
        center = tuple(c * edge + edge // 2 for c in cube)
        sources.append(int(np.ravel_multi_index(center, grid_shape)))

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
        sublattices=tuple(sublattices),
        sources=tuple(sources),
        k_scale=k_scale,
        gamma_scale=gamma_scale,
    )


_PAIR_CACHE: dict[tuple[tuple[int, ...], int], np.ndarray] = {}


def brickwork_pairs(grid_shape: tuple[int, ...], layer: int) -> np.ndarray:
    """Mode pairs coupled by the given layer, shape ``(n_gates, 2)``.

    Layer ``layer`` (0-based) acts along axis ``(layer % 2d) // 2``; the
    first of the two passes over an axis pairs sites at odd coordinate
    offsets ``(1,2), (3,4), ...``, the second pairs ``(0,1), (2,3), ...``.
    Boundaries are open: unpaired edge sites idle.
    """
    dim = len(grid_shape)
    step = layer % (2 * dim)
    key = (tuple(grid_shape), step)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    axis, phase = divmod(step, 2)
    offset = 1 - phase
    idx = np.arange(int(np.prod(grid_shape))).reshape(grid_shape)
    idx = np.moveaxis(idx, axis, -1)
    lo = idx[..., offset::2]
    hi = idx[..., offset + 1 :: 2]
    n = min(lo.shape[-1], hi.shape[-1])
    pairs = np.stack([lo[..., :n].ravel(), hi[..., :n].ravel()], axis=1)
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    pairs.setflags(write=False)
    _PAIR_CACHE[key] = pairs
    return pairs


@dataclass(frozen=True)
class BeamSplitterGate:
    """A two-mode gate with mixing angle ``theta`` and phase ``phi``."""

    modes: tuple[int, int]
    theta: float
    phi: float


@dataclass
class Circuit:
    """A depth-ordered list of brickwork gate layers on a lattice."""

    lattice: LatticeSpec
    layers: list[list[BeamSplitterGate]]
    seed: int | None = field(default=None)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def n_modes(self) -> int:
        return self.lattice.n_modes

    def validate(self) -> None:
        """Raise :class:`MalformedCircuitError` on structural violations."""
        m = self.n_modes
        for ell, layer in enumerate(self.layers):
            seen: set[int] = set()
            for gate in layer:
                i, j = gate.modes
                if not (0 <= i < m and 0 <= j < m and i != j):
                    raise MalformedCircuitError(
                        f"layer {ell}: gate modes {gate.modes} outside 0..{m - 1}"
                    )
                if i in seen or j in seen:
                    raise MalformedCircuitError(
                        f"layer {ell}: mode reused by gate on {gate.modes}"
                    )
                seen.update((i, j))


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
    layers = []
    for ell in range(depth):
        pairs = brickwork_pairs(lattice.grid_shape, ell)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(len(pairs), 2))
        layers.append(
            [
                BeamSplitterGate((i, j), t, p)
                for (i, j), (t, p) in zip(pairs.tolist(), angles.tolist())
            ]
        )
    return Circuit(lattice=lattice, layers=layers)


def beam_splitter_unitary(theta: float, phi: float) -> np.ndarray:
    """2x2 mode transformation of a beam splitter.

    ``[[cos t, e^{i p} sin t], [-e^{-i p} sin t, cos t]]``; at
    ``theta = pi/4, phi = 0`` this is the balanced splitter.
    """
    c, es, fs = _gate_coefficients(theta, phi)
    return np.array([[c, es], [fs, c]])


def _gate_coefficients(theta: float, phi: float) -> tuple[float, complex, complex]:
    """``(cos t, e^{i p} sin t, -e^{-i p} sin t)``: the entries of one beam splitter."""
    c, s = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phi), math.sin(phi))
    return c, e * s, -e.conjugate() * s


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
    ``O(N * gates)``; the columns equal ``accumulate_unitary(circuit)[:,
    sources]`` bit for bit.
    """
    eye = np.eye(circuit.n_modes, dtype=complex)
    return _apply_gates(circuit, _source_cols(eye, circuit.lattice))


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
        return u[:, list(lattice.sources)]
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

    Vectorized over the gates of a layer: :meth:`Circuit.validate`
    guarantees that they act on disjoint, in-range modes, so they commute
    and their rows can be mixed at once (up to ``_CHUNK_ENTRIES //
    u.shape[1]`` gates per update).  Each gate's scalars and products are
    those of gate-by-gate application, so the result is bit-identical.
    """
    circuit.validate()
    step = max(1, _CHUNK_ENTRIES // u.shape[1])
    for layer in circuit.layers:
        for start in range(0, len(layer), step):
            gates = layer[start : start + step]
            i, j = np.array([gate.modes for gate in gates]).T
            coeffs = np.array([_gate_coefficients(g.theta, g.phi) for g in gates])
            c, es, fs = coeffs.T[:, :, None]
            _mix_rows(u, i, j, c, es, fs)
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


def _fmt(x: float) -> str:
    """Render a double with 17 significant digits (exact round trip)."""
    return format(float(x), ".17g")


def circuit_to_json(circuit: Circuit) -> str:
    """Serialize a circuit to JSON with exact angle round trip.

    Angles are printed with 17 significant digits so that parsing the
    output reproduces the exact IEEE-754 doubles.
    """
    lat = circuit.lattice
    gate_strs = []
    for layer in circuit.layers:
        parts = [
            f"[{g.modes[0]},{g.modes[1]},{_fmt(g.theta)},{_fmt(g.phi)}]" for g in layer
        ]
        gate_strs.append("[" + ",".join(parts) + "]")
    seed = "null" if circuit.seed is None else str(int(circuit.seed))
    return (
        '{"format":"bls-circuit","version":1,'
        f'"dim":{lat.dim},"n_sources":{lat.n_sources},"edge":{lat.edge},'
        f'"depth":{circuit.depth},"seed":{seed},'
        '"layers":[' + ",".join(gate_strs) + "]}"
    )


def circuit_from_json(text: str) -> Circuit:
    """Parse :func:`circuit_to_json` output back into a validated circuit."""
    doc = json.loads(text)
    if doc.get("format") != "bls-circuit":
        raise MalformedCircuitError(f"unrecognized circuit format: {doc.get('format')!r}")
    lattice = build_lattice(doc["dim"], doc["n_sources"], doc["edge"])
    layers = [
        [BeamSplitterGate((int(i), int(j)), float(t), float(p)) for i, j, t, p in layer]
        for layer in doc["layers"]
    ]
    circuit = Circuit(lattice=lattice, layers=layers, seed=doc.get("seed"))
    if circuit.depth != doc["depth"]:
        raise MalformedCircuitError(
            f"depth field {doc['depth']} != {circuit.depth} layers present"
        )
    circuit.validate()
    return circuit
