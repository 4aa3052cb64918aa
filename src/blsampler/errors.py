"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration and circuit
validation problems exit 2, scale-cap violations exit 3, numerical
conditioning and sampling failures exit 4.
"""

__all__ = [
    "SimulationError",
    "MalformedCircuitError",
    "SizeCapError",
    "UnsupportedRankError",
    "ConditioningError",
    "SamplingError",
]


class SimulationError(Exception):
    """Base class for all package-specific errors."""


class MalformedCircuitError(SimulationError):
    """Circuit violates structural rules (overlapping gates, bad modes)."""


class SizeCapError(SimulationError):
    """Requested computation exceeds an exact-kernel or oracle scale cap."""


class UnsupportedRankError(SizeCapError):
    """Low-rank kernel called with more columns than it supports."""


class ConditioningError(SimulationError):
    """Matrix conditioning or state-validity check failed."""


class SamplingError(SimulationError):
    """Sampling could not produce a valid outcome within the retry budget."""
