"""The package's public surface: what ``blsampler`` exports."""

import blsampler
from blsampler import diagnostics, errors, gaussian, kernels, lattice, samplers

_ERROR_CLASSES = {
    "SimulationError",
    "MalformedCircuitError",
    "SizeCapError",
    "UnsupportedRankError",
    "ConditioningError",
    "SamplingError",
}


def test_package_exports_exactly_the_module_exports():
    assert set(errors.__all__) == _ERROR_CLASSES
    modules = (errors, lattice, gaussian, kernels, samplers, diagnostics)
    want = set().union(*(m.__all__ for m in modules))
    assert set(blsampler.__all__) - {"__version__"} == want
    assert len(blsampler.__all__) == len(set(blsampler.__all__))
    for name in _ERROR_CLASSES:
        assert issubclass(getattr(errors, name), Exception)
    for name in blsampler.__all__:
        assert hasattr(blsampler, name), name
    for module in modules:
        for name in module.__all__:
            assert getattr(blsampler, name) is getattr(module, name), name
