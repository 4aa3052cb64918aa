"""The fast sampler: per-block sampling at sizes the exact one cannot touch.

For shallow circuits each source's light cone stays inside its own
sublattice, so the state factorizes across blocks and each block sees a
single squeezer.  That makes each block a closed form: the squeezer emits
``2K`` photons with ``K ~ NegBin(1/2, sech^2 r)``, and each lands on mode
``j`` of the block with probability ``|U[j, s]|^2`` or leaves it with what
is left of the source column.  No hafnian is needed,
and the cost grows linearly in the number of blocks.  Here we run 512
modes at depth 64 and watch the wall clock, then shrink the instance to
where exact enumeration works and confirm the two samplers agree inside
the light cone.
"""

import math
import time

import numpy as np

from blsampler import (
    BlockApproxSampler,
    TruncationPolicy,
    block_approx_covariance,
    build_lattice,
    empirical_distribution,
    enumerate_gbs_distribution,
    product_distribution,
    quad_to_complex,
    sample_random_circuit,
    state_covariance,
    truncation_threshold,
    tvd,
)

print("== scaling ==")
times = {}
for n in (2, 4, 8):
    lat = build_lattice(1, n, 64)
    t0 = time.perf_counter()
    circ = sample_random_circuit(lat, 64, np.random.default_rng([100 + n]))
    sampler = BlockApproxSampler(circ, lat, 0.5, truncation_threshold(n, 0.5, 1e-6))
    rng = np.random.default_rng(9)
    for _ in range(100):
        sampler.sample(rng)
    times[n] = time.perf_counter() - t0
    print(f"N={n} sources, M={n * 64} modes, D=64: 100 samples in {times[n]:.2f} s")
slope = (math.log(times[8]) - math.log(times[2])) / math.log(4.0)
print(f"log-log slope across N: {slope:.2f} (polynomial, roughly linear)")

print()
print("== exactness inside the light cone ==")
lat = build_lattice(1, 2, 4)
circ = sample_random_circuit(lat, 2, np.random.default_rng([3]))
policy = TruncationPolicy(epsilon=1e-6, n_total_max=10)
exact = enumerate_gbs_distribution(
    quad_to_complex(state_covariance(circ, lat, 0.5)), policy
)
blocks = block_approx_covariance(circ, lat, 0.5)
approx = product_distribution(
    [enumerate_gbs_distribution(quad_to_complex(b), policy) for b in blocks.blocks],
    lat.sublattices,
    lat.n_modes,
    budget=10,
)
print(f"depth 2, TVD(block product, exact) = {tvd(exact, approx):.2e}")

sampler = BlockApproxSampler(circ, lat, 0.5, policy)
rng = np.random.default_rng(5)
samples = np.array([sampler.sample(rng) for _ in range(20_000)])
print(
    "TVD(block-sampler empirical, exact) =",
    f"{tvd(empirical_distribution(samples), exact):.4f}  (sampling noise only)",
)
