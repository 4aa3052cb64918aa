"""The approximation-error chain, measured end to end on one instance.

The fast sampler's guarantee is a chain: random gates spread amplitude
diffusively (averaging-map law) -> the mean leakage out of a block is
exponentially small in L^2/D -> the covariance difference ||X|| is
controlled by the leakage -> fidelity and output-distribution distance
are controlled by ||X||.  Each link is measurable on a small instance,
and the enumerated table distance should sit under the final bound.
"""

import numpy as np

from blsampler import (
    build_lattice,
    leakage_bound,
    random_walk_profile,
    sample_random_circuit,
    theorem_bound_report,
    truncation_threshold,
)

print("== the averaging-map law behind the diffusive picture ==")
profile = random_walk_profile(build_lattice(1, 1, 8), 4, 4000, np.random.default_rng(1))
print("mean |U_{j,s}|^2 from mode", profile.source, "after each layer:")
for t in range(5):
    emp = " ".join(f"{w:.3f}" for w in profile.empirical[t])
    print(f"  D={t}: {emp}")
print("  (matches the iterated pairwise-averaging profile to sampling noise;")
print("   the theory rows are available as profile.theory)")

print()
print("== one full bound report ==")
lat = build_lattice(1, 2, 4)
rng = np.random.default_rng(31)
policy = truncation_threshold(2, 0.5, epsilon=1e-6)
report = None
while report is None or not report["small_x_valid"]:
    circuit = sample_random_circuit(lat, 3, rng)
    report = theorem_bound_report(circuit, 0.5, policy=policy)

print(f"depth {report['depth']} on {report['n_modes']} modes, r = 0.5")
print(f"measured leakage eta_max      : {report['eta_max']:.3e}")
print(f"diffusive leakage bound       : {report['leakage_bound']:.3f}")
print(f"measured ||X||_F              : {report['x_measured']:.4f}")
print(f"||X|| bound from eta          : {report['x_norm_bound']:.4f}")
print(f"measured infidelity           : {report['infidelity_measured']:.2e}")
print(f"infidelity bound from ||X||   : {report['infidelity_bound']:.2e}")
print(f"enumerated table TVD          : {report['tvd_table']:.2e}")
print(f"rigorous TVD upper bound      : {report['tvd_upper']:.2e}")
print(f"distance bound from ||X||     : {report['tvd_bound']:.4f}")
print("every measured quantity sits under its analytic bound.")

print()
print("== how the leakage bound tightens with block size ==")
for edge in (4, 6, 8, 12):
    print(f"L={edge:2d}, D=4: eta bound {leakage_bound(1, edge, 4):.2e}")
