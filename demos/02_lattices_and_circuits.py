"""Lattice geometry, brickwork circuits, and how far light gets.

A lattice is a row (or d-cube) of single-source sublattices: each block
of L^d modes holds one source at its center.  Random circuits apply
brickwork layers of Haar-random two-mode gates; a source's amplitude
spreads one site per layer, so for shallow circuits it simply cannot
reach a neighboring block.  That strict light cone is what the fast
sampler exploits, and the leakage rate is how we measure its breakdown.
"""

import numpy as np

from blsampler import (
    accumulate_unitary,
    brickwork_pairs,
    build_lattice,
    leakage_bound,
    leakage_rate,
    sample_random_circuit,
)

lat = build_lattice(dim=1, n_sources=2, edge=4)
print("== geometry ==")
print(f"modes        : {lat.n_modes}")
print(f"sublattices  : read-only {lat.sublattices.shape} array, row b = block b's modes")
print(lat.sublattices)
print(f"sources      : {lat.sources}  (column L // 2 = {lat.edge // 2} of each row)")

print()
print("== brickwork layers on 8 modes ==")
for layer in range(2):
    print(f"layer {layer}: pairs {brickwork_pairs((8,), layer).tolist()}")

print()
print("== amplitude spread of source 2 ==")
rng = np.random.default_rng(7)
for depth in range(0, 7, 2):
    circ = sample_random_circuit(lat, depth, rng)
    u = accumulate_unitary(circ)
    weight = np.abs(u[:, 2]) ** 2
    bar = " ".join(f"{w:.3f}" for w in weight)
    print(f"D={depth}: |U[:,2]|^2 = {bar}")

print()
print("== leakage out of the home block ==")
rng = np.random.default_rng(7)
for depth in (2, 3, 4, 6):
    circ = sample_random_circuit(lat, depth, rng)
    rep = leakage_rate(accumulate_unitary(circ), lat, depth=depth)
    print(
        f"D={depth}: eta_max = {rep.eta_max:.3e}   "
        f"diffusive bound 2 exp(-L^2/8D) = {leakage_bound(1, 4, depth):.3f}"
    )
print("(depth 2 is exactly zero: the cone has not crossed a block edge yet)")
