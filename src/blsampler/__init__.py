"""Classical sampling of random linear-optical circuits, with receipts.

The package simulates photon-number measurements of brickwork circuits
on source lattices — exactly (chain-rule Gaussian sampling, permanent-
based single-photon oracles) and approximately (independent-sublattice
sampling, distinguishable particles) — and ships the diagnostics that
measure how far each approximation can drift: leakage rates, covariance
perturbation norms, fidelity and total-variation bounds, and brute-force
enumeration oracles to check everything against.
"""

from .errors import (
    ConditioningError,
    ConfigurationError,
    MalformedCircuitError,
    SamplingError,
    SimulationError,
    SizeCapError,
    UnsupportedRankError,
)
from .lattice import (
    Circuit,
    LatticeSpec,
    accumulate_unitary,
    beam_splitter_unitary,
    brickwork_pairs,
    build_lattice,
    circuit_from_json,
    circuit_to_json,
    sample_random_circuit,
    source_columns,
)
from .gaussian import (
    AMatrix,
    BlockApproxCovariance,
    ComplexCovariance,
    QuadCovariance,
    SMALL_X_THRESHOLD,
    a_matrix,
    block_approx_covariance,
    fidelity,
    frobenius_diff,
    infidelity_bound,
    purity_defect,
    quad_to_complex,
    reduce_complex,
    reduce_quad,
    state_covariance,
    tvd_bound,
    x_norm_bound,
)
from .kernels import (
    HAFNIAN_DIM_CAP,
    LOW_RANK_COLUMN_CAP,
    PERMANENT_DIM_CAP,
    hafnian_general,
    hafnian_low_rank,
    permanent,
    run_selftest,
    takagi_factor,
)
from .samplers import (
    BlockApproxSampler,
    ChainRuleEngine,
    DistinguishableFockSampler,
    TruncationPolicy,
    distinguishable_fock_sample,
    marginal_prob,
    threshold_coarse_grain,
    truncation_threshold,
)
from .diagnostics import (
    Distribution,
    FockErrorReport,
    LeakageReport,
    WalkProfile,
    coarse_grain_distribution,
    empirical_distribution,
    enumerate_distinguishable_distribution,
    enumerate_fock_distribution,
    enumerate_gbs_distribution,
    fock_error_bound,
    leakage_bound,
    leakage_rate,
    product_distribution,
    random_walk_profile,
    theorem_bound_report,
    tvd,
    tvd_upper_bound,
    write_csv,
    write_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SimulationError",
    "ConfigurationError",
    "MalformedCircuitError",
    "SizeCapError",
    "UnsupportedRankError",
    "ConditioningError",
    "SamplingError",
    # lattice / circuits
    "LatticeSpec",
    "Circuit",
    "build_lattice",
    "brickwork_pairs",
    "sample_random_circuit",
    "beam_splitter_unitary",
    "accumulate_unitary",
    "source_columns",
    "circuit_to_json",
    "circuit_from_json",
    # Gaussian states
    "QuadCovariance",
    "ComplexCovariance",
    "AMatrix",
    "BlockApproxCovariance",
    "state_covariance",
    "block_approx_covariance",
    "quad_to_complex",
    "reduce_quad",
    "reduce_complex",
    "a_matrix",
    "purity_defect",
    "fidelity",
    "frobenius_diff",
    "infidelity_bound",
    "x_norm_bound",
    "tvd_bound",
    "SMALL_X_THRESHOLD",
    # kernels
    "hafnian_general",
    "hafnian_low_rank",
    "permanent",
    "takagi_factor",
    "run_selftest",
    "HAFNIAN_DIM_CAP",
    "PERMANENT_DIM_CAP",
    "LOW_RANK_COLUMN_CAP",
    # samplers
    "TruncationPolicy",
    "truncation_threshold",
    "marginal_prob",
    "ChainRuleEngine",
    "BlockApproxSampler",
    "DistinguishableFockSampler",
    "distinguishable_fock_sample",
    "threshold_coarse_grain",
    # diagnostics
    "Distribution",
    "tvd",
    "tvd_upper_bound",
    "empirical_distribution",
    "coarse_grain_distribution",
    "product_distribution",
    "enumerate_gbs_distribution",
    "enumerate_fock_distribution",
    "enumerate_distinguishable_distribution",
    "LeakageReport",
    "leakage_bound",
    "leakage_rate",
    "WalkProfile",
    "random_walk_profile",
    "FockErrorReport",
    "fock_error_bound",
    "theorem_bound_report",
    "write_csv",
    "write_json",
]
