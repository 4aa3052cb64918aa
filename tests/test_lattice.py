"""Lattice geometry, brickwork layering, circuits, unitary accumulation."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from blsampler import (
    Circuit,
    MalformedCircuitError,
    accumulate_unitary,
    brickwork_pairs,
    build_lattice,
    sample_random_circuit,
    source_columns,
)
from blsampler.lattice import _source_cols, _tile_shape
from reference import beam_splitter_unitary


# ---------------------------------------------------------------- geometry


def test_lattice_1d_two_sources():
    lat = build_lattice(1, 2, 4)
    assert lat.n_modes == 8
    assert lat.grid_shape == (8,)
    assert lat.sublattices.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert lat.sources.tolist() == [2, 6]  # centered: offset edge // 2
    assert lat.k_scale == 1.0
    assert lat.gamma_scale == pytest.approx(math.log(8) / math.log(2))


def test_lattice_2d_four_sources():
    lat = build_lattice(2, 4, 3)
    assert lat.n_modes == 36
    assert lat.grid_shape == (6, 6)
    assert len(lat.sublattices) == 4
    for modes, src in zip(lat.sublattices, lat.sources):
        assert src in modes
        assert len(modes) == 9


def test_lattice_single_mode():
    lat = build_lattice(1, 1, 1)
    assert lat.n_modes == 1
    assert lat.sources.tolist() == [0]
    assert lat.k_scale == 1.0 and lat.gamma_scale == 1.0


def test_lattice_single_source_scale_convention():
    lat = build_lattice(1, 1, 8)
    assert lat.k_scale == 8.0
    assert lat.gamma_scale == 1.0


def _cube_by_cube(dim, n_sources, edge):
    """The geometry built one cube at a time, as :func:`build_lattice` did
    before it reshaped the grid: sorted modes and the centre of each cube."""
    tile = _tile_shape(n_sources, dim)
    grid_shape = tuple(t * edge for t in tile)
    mode_grid = np.arange(math.prod(grid_shape)).reshape(grid_shape)
    sublattices, sources = [], []
    for cube in np.ndindex(*tile):
        window = tuple(slice(c * edge, (c + 1) * edge) for c in cube)
        sublattices.append(np.sort(mode_grid[window].ravel()).tolist())
        center = tuple(c * edge + edge // 2 for c in cube)
        sources.append(int(np.ravel_multi_index(center, grid_shape)))
    return sublattices, sources


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_reshape_matches_cube_by_cube_oracle(dim):
    for n_sources in (1, 2, 3, 4, 6, 8, 12):
        for edge in range(1, 6):
            lat = build_lattice(dim, n_sources, edge)
            sublattices, sources = _cube_by_cube(dim, n_sources, edge)
            assert lat.sublattices.shape == (n_sources, edge**dim)
            assert lat.sublattices.tolist() == sublattices
            assert lat.sources.tolist() == sources
            assert lat.sublattices.dtype == lat.sources.dtype == np.intp


def test_lattice_arrays_are_read_only():
    lat = build_lattice(2, 4, 3)
    with pytest.raises(ValueError):
        lat.sublattices[0, 0] = 1
    with pytest.raises(ValueError):
        lat.sources[0] = 1


def test_lattice_rejects_bad_parameters():
    for args in [(0, 1, 2), (1, 0, 2), (1, 1, 0)]:
        with pytest.raises(ValueError):
            build_lattice(*args)


# ---------------------------------------------------------------- layering


def test_brickwork_layers_alternate_offsets():
    # odd offset first, even offset second; strict period two
    assert brickwork_pairs((8,), 0).tolist() == [[1, 2], [3, 4], [5, 6]]
    assert brickwork_pairs((8,), 1).tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert brickwork_pairs((8,), 2).tolist() == brickwork_pairs((8,), 0).tolist()


def test_source_cones_stay_in_block_through_depth_two():
    # the layer parity is chosen so a centered source's light cone fills
    # its own L=4 block at depth 2 without crossing the boundary
    lat = build_lattice(1, 2, 4)
    circ = sample_random_circuit(lat, 2, np.random.default_rng(123))
    u = accumulate_unitary(circ)
    for modes, src in zip(lat.sublattices, lat.sources):
        outside = np.setdiff1d(np.arange(lat.n_modes), modes)
        assert np.abs(u[outside, src]).max() < 1e-14


def test_brickwork_2d_round_covers_both_axes():
    layers = [brickwork_pairs((4, 4), ell) for ell in range(4)]
    # two layers per axis per round: horizontal pairs differ by 1, vertical by 4
    diffs = [set(np.unique(p[:, 1] - p[:, 0])) for p in layers]
    assert diffs.count({1}) == 2
    assert diffs.count({4}) == 2


def test_brickwork_pairs_disjoint_within_layer():
    for shape in [(9,), (4, 4), (3, 3, 3)]:
        for ell in range(6):
            pairs = brickwork_pairs(shape, ell)
            flat = pairs.ravel().tolist()
            assert len(flat) == len(set(flat))


def test_brickwork_tiny_grid_has_empty_odd_layer():
    assert brickwork_pairs((2,), 0).shape == (0, 2)
    assert brickwork_pairs((2,), 1).tolist() == [[0, 1]]


def test_layer_schedules_are_kept_for_the_last_grid_only():
    # a sweep over lattices holds one grid's schedules, not every grid's:
    # each 2^16-mode grid's two schedules take 1 MiB
    held = []
    tracemalloc.start()
    try:
        for n_modes in (2**16, 2**16 + 2, 2**16 + 4):
            circ = sample_random_circuit(build_lattice(1, 1, n_modes), 2,
                                         np.random.default_rng(0))
            del circ
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(held) - min(held) < 2**18, [h / 2**20 for h in held]


# ---------------------------------------------------------------- circuits


def test_sample_random_circuit_is_seed_deterministic():
    lat = build_lattice(1, 2, 4)
    c1 = sample_random_circuit(lat, 3, np.random.default_rng(5))
    c2 = sample_random_circuit(lat, 3, np.random.default_rng(5))
    for a, b in zip(c1.pairs + c1.angles, c2.pairs + c2.angles):
        assert np.array_equal(a, b)
    assert c1.depth == c2.depth == 3


def test_depth_zero_circuit_is_identity():
    lat = build_lattice(1, 1, 4)
    circ = sample_random_circuit(lat, 0, np.random.default_rng(0))
    assert circ.depth == 0
    assert np.allclose(accumulate_unitary(circ), np.eye(4))


def test_accumulated_unitary_is_unitary():
    lat = build_lattice(2, 2, 2)
    circ = sample_random_circuit(lat, 5, np.random.default_rng(11))
    u = accumulate_unitary(circ)
    assert np.allclose(u @ u.conj().T, np.eye(lat.n_modes), atol=1e-12)


@pytest.mark.parametrize("dim, edge", [(1, 4), (2, 3)])
def test_source_columns_are_the_unitary_source_columns(dim, edge):
    lat = build_lattice(dim, 4, edge)
    circ = sample_random_circuit(lat, 5, np.random.default_rng(13))
    cols = source_columns(circ)
    assert cols.shape == (lat.n_modes, lat.n_sources)
    want = accumulate_unitary(circ)[:, list(lat.sources)]
    assert np.abs(cols - want).max() <= 1e-15


def test_source_columns_memory_is_linear_in_modes():
    # the replay starts from the M x N identity columns: an M x M identity
    # would cost 2048 times their size here, and cannot exist at large M
    lat = build_lattice(1, 2, 2048)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(15))
    tracemalloc.start()
    try:
        cols = source_columns(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * cols.nbytes


@pytest.mark.parametrize(
    "dim, n_sources, edge", [(1, 3, 3), (2, 2, 2), (1, 4, 1)], ids=["d1", "d2", "edge1"]
)
def test_source_cols_slices_the_unitary_and_passes_columns(dim, n_sources, edge):
    lat = build_lattice(dim, n_sources, edge)
    circ = sample_random_circuit(lat, 3, np.random.default_rng(14))
    u, cols = accumulate_unitary(circ), source_columns(circ)
    assert np.array_equal(_source_cols(u, lat), cols)
    assert np.array_equal(_source_cols(cols, lat), cols)
    if edge > 1:
        assert _source_cols(cols, lat) is cols
    else:
        # M == N: the sources are modes 0..M-1 in order, so slicing is the identity
        assert lat.sources.tolist() == list(range(lat.n_modes))
        assert np.array_equal(_source_cols(u, lat), u)


@pytest.mark.parametrize("dim, n_sources, edge", [(1, 3, 3), (2, 2, 2), (1, 4, 1)])
def test_source_cols_rejects_other_shapes(dim, n_sources, edge):
    lat = build_lattice(dim, n_sources, edge)
    m, n = lat.n_modes, lat.n_sources
    for shape in [(m, n + 1), (m + 1, m + 1), (m + 1, n), (m,), (m, m, 1)]:
        with pytest.raises(ValueError, match="source columns"):
            _source_cols(np.zeros(shape, dtype=complex), lat)


def _gate_by_gate(circuit, u):
    """Reference: left-multiply ``u`` by one 2x2 update per gate, in order,
    with each gate's entries from libm through ``math``."""
    for pairs, angles in zip(circuit.pairs, circuit.angles):
        for (i, j), (theta, phi) in zip(pairs.tolist(), angles.tolist()):
            c = math.cos(theta)
            s = math.sin(theta)
            e = complex(math.cos(phi), math.sin(phi))
            row_i = u[i].copy()
            row_j = u[j]
            u[i] = c * row_i + (e * s) * row_j
            u[j] = (-e.conjugate() * s) * row_i + c * row_j
    return u


def _hand_built_circuit():
    # gates listed out of mode order, one with i > j, and an empty layer
    lat = build_lattice(1, 2, 3)
    pairs = [[(4, 5), (0, 3), (2, 1)], [], [(5, 2), (1, 0)]]
    angles = [[(0.3, 1.9), (2.2, 0.4), (1.1, 5.0)], [], [(0.8, 3.3), (4.1, 2.7)]]
    return Circuit(lat, pairs, angles)


def _seeded_circuit(dim, n_sources, edge, depth, seed):
    lat = build_lattice(dim, n_sources, edge)
    return sample_random_circuit(lat, depth, np.random.default_rng(seed))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: _seeded_circuit(1, 2, 4, 5, 21), id="d1"),
        pytest.param(lambda: _seeded_circuit(2, 4, 3, 6, 22), id="d2"),
        pytest.param(lambda: _seeded_circuit(3, 2, 3, 7, 23), id="d3"),
        # 600 modes: the full unitary takes each layer in several updates
        pytest.param(lambda: _seeded_circuit(1, 3, 200, 6, 24), id="d1-wide"),
        pytest.param(_hand_built_circuit, id="hand-built"),
        pytest.param(lambda: _seeded_circuit(2, 2, 2, 0, 25), id="depth0"),
    ],
)
def test_layer_update_is_bit_identical_to_gate_by_gate(make):
    circ = make()
    eye = np.eye(circ.n_modes, dtype=complex)
    sources = list(circ.lattice.sources)
    u = accumulate_unitary(circ)
    cols = source_columns(circ)
    assert np.array_equal(u, _gate_by_gate(circ, eye.copy()))
    assert np.array_equal(cols, _gate_by_gate(circ, eye[:, sources]))
    if circ.depth == 0:
        assert np.array_equal(u, eye)
        assert np.array_equal(cols, eye[:, sources])


def test_single_gate_unitary_embedding():
    lat = build_lattice(1, 1, 2)
    circ = Circuit(lat, pairs=[[(0, 1)]], angles=[[(0.7, 1.1)]])
    u = accumulate_unitary(circ)
    assert np.allclose(u, beam_splitter_unitary(0.7, 1.1))


def test_beam_splitter_unitary_shape_and_unitarity():
    u = beam_splitter_unitary(0.3, 2.0)
    assert u.shape == (2, 2)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    assert u[0, 0] == pytest.approx(math.cos(0.3))


def test_circuit_rejects_mode_reuse():
    lat = build_lattice(1, 1, 4)
    with pytest.raises(MalformedCircuitError, match="layer 0: gates must act on distinct"):
        Circuit(lat, pairs=[[(0, 1), (1, 2)]], angles=[[(0.1, 0.2), (0.3, 0.4)]])


@pytest.mark.parametrize("modes", [(0, 5), (-1, 0), (1, 1), (0, 2)])
def test_circuit_rejects_out_of_range_modes(modes):
    # the layer update indexes rows with these modes: a negative one would
    # wrap and a gate (k, k) would overwrite its own row, so each must be
    # refused before a circuit exists
    lat = build_lattice(1, 1, 2)
    with pytest.raises(MalformedCircuitError, match=r"distinct modes of 0\.\.1"):
        Circuit(lat, pairs=[[modes]], angles=[[(0.1, 0.2)]])
    # the bad gate is caught in any layer, behind good ones
    with pytest.raises(MalformedCircuitError, match="layer 1"):
        Circuit(lat, pairs=[[(0, 1)], [modes]], angles=[[(0.1, 0.2)], [(0.1, 0.2)]])


@pytest.mark.parametrize(
    "pairs, angles, message",
    [
        pytest.param(
            [[(0, 1)], [(1, 2)]], [[(0.1, 0.2)]], "2 layers of pairs, 1 of angles",
            id="layer-count",
        ),
        pytest.param(
            [[(0, 1), (2, 3)]], [[(0.1, 0.2)]],
            r"layer 0: pairs of shape \(2, 2\) and angles of shape \(1, 2\)",
            id="gate-count",
        ),
        pytest.param(
            [[(0, 1)], []], [[(0.1, 0.2)], [(0.3, 0.4)]],
            r"layer 1: pairs of shape \(0, 2\) and angles of shape \(1, 2\)",
            id="empty-layer",
        ),
        pytest.param(
            [[(0, 1, 2)]], [[(0.1, 0.2, 0.3)]], r"layer 0: pairs of shape \(1, 3\)",
            id="pair-width",
        ),
        pytest.param([[(0, 1)]], [[0.1, 0.2]], r"angles of shape \(2,\)", id="angle-rows"),
    ],
)
def test_circuit_rejects_mismatched_layers(pairs, angles, message):
    lat = build_lattice(1, 1, 4)
    with pytest.raises(MalformedCircuitError, match=message):
        Circuit(lat, pairs, angles)


def test_circuit_arrays_are_read_only():
    lat = build_lattice(1, 2, 3)
    pairs = np.array([[0, 1], [2, 3]])
    angles = np.array([[0.1, 0.2], [0.3, 0.4]])
    hand = Circuit(lat, [pairs], [angles])
    sampled = sample_random_circuit(lat, 3, np.random.default_rng(4))
    for circ in (hand, sampled):
        for array in (*circ.pairs, *circ.angles):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 5
    # writable inputs are copied, so changing them later leaves the circuit alone
    pairs[0, 0], angles[0, 0] = 1, 9.0
    assert hand.pairs[0].tolist() == [[0, 1], [2, 3]]
    assert hand.angles[0][0, 0] == 0.1
    with pytest.raises(AttributeError):
        hand.pairs = ()


@pytest.mark.parametrize(
    "args, digest",
    [
        ((1, 2, 4, 5, 21), "0a0f88aadfc780770f0455569b87084ea1fd0abdd30e3cfb63db5682b0ee0c3d"),
        ((2, 4, 3, 6, 22), "9b105d2c06b27db4fbfa892991e1d4fcd57a7da15ce7e946413ef2026d6f93aa"),
        ((3, 2, 3, 7, 23), "9066d0020ed5ea309a83ce994d1d8dd23cd6ec3f2ee49d57efce206cc42c2497"),
    ],
    ids=["d1", "d2", "d3"],
)
def test_circuit_stream_bytes_are_pinned(args, digest):
    # pins the brickwork pair order and the angle stream: each layer's
    # intp pairs, then its float64 (theta, phi) rows
    circ = _seeded_circuit(*args)
    h = hashlib.sha256()
    for pairs, angles in zip(circ.pairs, circ.angles):
        h.update(pairs.tobytes())
        h.update(angles.tobytes())
    assert h.hexdigest() == digest


def test_light_cone_width_grows_one_site_per_layer():
    # a column's support after D layers spans at most 1 + D sites each way
    lat = build_lattice(1, 1, 16)
    for depth in range(1, 5):
        circ = sample_random_circuit(lat, depth, np.random.default_rng(7))
        u = accumulate_unitary(circ)
        col = np.abs(u[:, 8]) > 1e-12
        lit = np.where(col)[0]
        assert lit.min() >= 8 - depth
        assert lit.max() <= 8 + depth
