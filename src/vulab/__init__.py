"""vulab: a desk-scale numerical laboratory for VU decompositions of
structured nonsmooth functions (tilt stability, localized U-Lagrangians,
second-order subjets, Moreau envelopes and manifold traces)."""

import importlib

from . import (envelope, errors, manifold, oracle, solvers, subjets, tilt,
               ulagrangian, vu)

__version__ = "0.1.0"

__all__ = ["cli", "envelope", "errors", "manifold", "oracle", "solvers",
           "subjets", "tilt", "ulagrangian", "vu", "__version__"]


def __getattr__(name):
    """Import `cli` on first access.  An eager import would make
    `python -m vulab.cli` find the module already in sys.modules and run it
    a second time (runpy warns about that)."""
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
