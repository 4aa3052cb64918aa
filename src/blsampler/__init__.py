"""Classical sampling of random linear-optical circuits, with receipts.

The package simulates photon-number measurements of brickwork circuits
on source lattices — exactly (chain-rule Gaussian sampling, permanent-
based single-photon oracles) and approximately (independent-sublattice
sampling, distinguishable particles) — and ships the diagnostics that
measure how far each approximation can drift: leakage rates, covariance
perturbation norms, fidelity and total-variation bounds, and brute-force
enumeration oracles to check everything against.
"""

from . import diagnostics, errors, gaussian, kernels, lattice, samplers
from .errors import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .samplers import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, lattice, gaussian, kernels, samplers, diagnostics)
    for name in module.__all__
]
