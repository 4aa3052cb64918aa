"""Classical sampling of random linear-optical circuits, with receipts.

The package simulates photon-number measurements of brickwork circuits
on source lattices — exactly (chain-rule Gaussian sampling, permanent-
based single-photon oracles) and approximately (independent-sublattice
sampling, distinguishable particles) — and ships the diagnostics that
measure how far each approximation can drift: leakage rates, covariance
perturbation norms, fidelity and total-variation bounds, and brute-force
enumeration oracles to check everything against.

The namespace loads on first use (PEP 562): importing the package runs
none of its modules, so each ``bls`` mode loads only the modules it
imports.  A module's name loads that module alone; the first other
public name looked up here, or ``__all__`` (``from blsampler import
*``), loads them all.
"""

import sys

__version__ = "0.1.0"

_MODULES = ("errors", "lattice", "gaussian", "kernels", "samplers", "chainrule", "diagnostics")


def _module(name: str):
    __import__(f"{__name__}.{name}")  # an import statement's path: -X importtime sees it
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return _module(name)
    # private names fall through to the import system: ``from . import
    # _moments`` looks here before it imports the module
    if not name.startswith("_") or name == "__all__":
        exports = ["__version__"]
        for module in map(_module, _MODULES):
            globals().update((export, getattr(module, export)) for export in module.__all__)
            exports += module.__all__
        globals()["__all__"] = exports
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
