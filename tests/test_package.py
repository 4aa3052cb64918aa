"""The package's public surface: what ``blsampler`` exports, and what
each ``bls`` mode loads."""

import os
import subprocess
import sys

import pytest

import blsampler
from blsampler import chainrule, diagnostics, errors, gaussian, kernels, lattice, samplers

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
    modules = (errors, lattice, gaussian, kernels, samplers, chainrule, diagnostics)
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


def _python(*args, **env):
    """Run a fresh interpreter on the package under test."""
    src = os.path.dirname(os.path.dirname(blsampler.__file__))
    full = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    full.pop("BLS_LOG", None)
    full.update(env)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=full, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_dir_lists_every_export():
    assert set(blsampler.__all__) <= set(dir(blsampler))


def test_star_import_binds_every_name_in_a_fresh_interpreter():
    proc = _python("-c", "from blsampler import *\nimport blsampler\n"
                   "print(*(n for n in blsampler.__all__ if n not in globals()))")
    assert proc.stdout.split() == []


def test_importing_the_package_loads_none_of_its_modules():
    proc = _python("-c", "import sys, blsampler\n"
                   "print(*(m for m in sys.modules if m.startswith('blsampler.')))")
    assert proc.stdout.split() == []
    with pytest.raises(AttributeError):
        blsampler.no_such_name
    with pytest.raises(AttributeError):
        blsampler._no_such_name


_FAST_ONLY = {"blsampler.diagnostics", "blsampler.gaussian", "blsampler.kernels",
              "blsampler._moments", "blsampler.chainrule", "logging", "csv"}


def _loaded(*argv):
    """The modules a ``bls`` run with ``argv`` leaves in ``sys.modules``,
    run the way ``python -m`` runs it."""
    proc = _python("-c", "import runpy, sys\n"
                   "try:\n"
                   "    runpy.run_module('blsampler.cli', run_name='__main__', alter_sys=True)\n"
                   "except SystemExit as done:\n"
                   "    assert not done.code, done.code\n"
                   "print(*sys.modules)", *argv)
    return set(proc.stdout.split())


@pytest.mark.parametrize("mode, unloaded", [("sample-approx", _FAST_ONLY),
                                            ("sample-fock", _FAST_ONLY),
                                            ("sample-exact", {"blsampler.diagnostics"})])
def test_each_sampling_mode_loads_only_what_it_runs(tmp_path, mode, unloaded):
    argv = ["--mode", mode, "--dim", "1", "--sources", "2", "--sublattice-edge", "2",
            "--depth", "2", "--samples", "3", "--seed", "1", "--out", str(tmp_path / "s")]
    if mode != "sample-fock":
        argv += ["--squeezing", "0.5"]
    loaded = _loaded(*argv)
    assert {"blsampler.lattice", "blsampler.samplers"} <= loaded
    assert loaded & unloaded == set()
    if mode == "sample-exact":
        assert "blsampler.chainrule" in loaded


def test_kernel_selftest_loads_no_gaussian_or_diagnostics_module(tmp_path):
    loaded = _loaded("--mode", "kernels-selftest", "--out", str(tmp_path / "k.json"))
    assert "blsampler.kernels" in loaded
    assert loaded & {"blsampler.diagnostics", "blsampler.gaussian", "blsampler.chainrule",
                     "logging", "csv"} == set()


def test_bound_report_loads_no_chain_rule_engine(tmp_path):
    loaded = _loaded("--mode", "diagnose-bounds", "--dim", "1", "--sources", "2",
                     "--sublattice-edge", "2", "--depth", "2", "--squeezing", "0.5",
                     "--samples", "1", "--out", str(tmp_path / "b.json"))
    assert "blsampler.diagnostics" in loaded
    assert loaded & {"blsampler.chainrule", "csv"} == set()
