"""The package's public surface: what ``blsampler`` exports, what each
``bls`` mode loads, and which of its functions no mode reaches."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blsampler
from blsampler import (_moments, chainrule, cli, diagnostics, errors, gaussian, kernels,
                       lattice, samplers)

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


# the leakage and walk reports live in lattice, so those CSV modes load what
# the fast samplers load, and csv
@pytest.mark.parametrize("mode, unloaded", [("sample-approx", _FAST_ONLY),
                                            ("sample-fock", _FAST_ONLY),
                                            ("sample-exact", {"blsampler.diagnostics"}),
                                            ("diagnose-leakage", _FAST_ONLY - {"csv"}),
                                            ("diagnose-walk", _FAST_ONLY - {"csv"})])
def test_each_sampling_mode_loads_only_what_it_runs(tmp_path, mode, unloaded):
    argv = ["--mode", mode, "--dim", "1", "--sources", "2", "--sublattice-edge", "2",
            "--depth", "2", "--samples", "3", "--seed", "1", "--out", str(tmp_path / "s")]
    if mode in ("sample-approx", "sample-exact"):
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


_SMALL = "--dim 1 --sources 2 --sublattice-edge 2 --depth 2 --seed 1 --samples"
# one run per mode, and the refusals and branches that reach code of their own
_REACHING_RUNS = [
    ("--mode no-such-mode", 2),
    ("--mode kernels-selftest", 0),
    # N=3 at r=0.1: prefixes of factor rank 6 take the reference hafnian
    ("--mode sample-exact --dim 1 --sources 3 --sublattice-edge 2 --depth 2 "
     "--squeezing 0.1 --samples 3 --seed 1", 0),
    (f"--mode sample-exact {_SMALL} 2 --squeezing 0", 0),
    # the redraw pin's config: block draws past the budget are drawn again
    ("--mode sample-approx --dim 1 --sources 2 --sublattice-edge 3 --depth 6 "
     "--squeezing 2.5 --epsilon 0.5 --samples 50 --seed 7", 0),
    (f"--mode sample-approx {_SMALL} 3 --squeezing 1.0 --detector threshold", 0),
    (f"--mode sample-fock {_SMALL} 3", 0),
    (f"--mode diagnose-leakage {_SMALL} 2", 0),
    (f"--mode diagnose-walk {_SMALL} 2", 0),
    (f"--mode diagnose-bounds {_SMALL} 1 --squeezing 0.5", 0),
    (f"--mode diagnose-bounds {_SMALL} 1 --squeezing 200", 3),
]

# every function of src/blsampler that no run above calls, and why it stays
_UNREACHED = {
    **dict.fromkeys([
        "diagnostics.tvd", "diagnostics.tvd_upper_bound",
        "diagnostics.empirical_distribution", "diagnostics.product_distribution",
        "diagnostics.enumerate_fock_distribution",
        "diagnostics.enumerate_distinguishable_distribution", "diagnostics._fock_oracle",
        "diagnostics.Distribution.n_modes", "diagnostics.Distribution.mass",
        "diagnostics.Distribution.as_dict",
    ], "an independent oracle the tests check the samplers and reports against"),
    **dict.fromkeys([
        "lattice.accumulate_unitary", "samplers.distinguishable_fock_sample",
        "_moments.MomentTables.size", "gaussian.QuadCovariance.n_modes",
    ], "held by the bench replay until it reads the run's metrics (ROADMAP item 2)"),
    **dict.fromkeys([
        "diagnostics.fock_error_bound", "diagnostics._closed_form_bound",
    ], "the paper's single-photon error bound, which no mode reports yet"),
    **dict.fromkeys([
        "blsampler.__getattr__", "blsampler._module", "blsampler.__dir__",
    ], "the package namespace's lazy loading, done by this file's imports"),
}


def _definitions() -> dict[tuple[str, int], str]:
    """Every function defined in the package, keyed the way its code object
    is: file and first line, the first decorator's where it has one."""
    found = {}
    for path in sorted(Path(blsampler.__file__).parent.glob("*.py")):
        module = "blsampler" if path.stem == "__init__" else path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    first = child.decorator_list[0] if child.decorator_list else child
                    key = os.path.realpath(path), first.lineno
                    found[key] = f"{module}.{prefix}{child.name}"
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def test_every_src_function_is_reached_or_named(tmp_path, monkeypatch):
    monkeypatch.delenv("BLS_LOG", raising=False)
    # the process-wide caches start empty, so the code that fills them runs
    monkeypatch.setattr(_moments, "_TABLES", {})
    lattice._grid_schedules.cache_clear()
    calls = set()

    def record(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    outer = sys.getprofile()
    for i, (args, code) in enumerate(_REACHING_RUNS):
        sys.setprofile(record)
        try:
            exit_code = cli.main(args.split() + ["--out", str(tmp_path / f"run{i}")])
        except SystemExit as done:
            exit_code = done.code
        finally:
            sys.setprofile(outer)
        assert exit_code == code, args
    reached = {(os.path.realpath(file), line) for file, line in calls}
    unreached = {name for key, name in _definitions().items() if key not in reached}
    assert sorted(unreached - _UNREACHED.keys()) == [], "reached by no mode"
    assert sorted(_UNREACHED.keys() - unreached) == [], "reached, or gone: drop the entry"
