"""The assignment solver, loaded without the rest of `scipy.optimize`.

`linear_sum_assignment` is the C function of scipy's compiled
``optimize/_lsap`` extension, the same object `scipy.optimize` exports.
Importing `scipy.optimize` to reach it would also load scipy's linalg,
sparse, special and fft packages (about 0.6 s and 40 MB a process on a
2-vCPU x86 VM; BENCH_startup.json), so the extension is loaded from
scipy's package directory on its own.  The module
is registered under its own name in `sys.modules`, so a later
``import scipy.optimize`` reuses it, and an earlier one is reused here:
whichever comes first, both names are one function.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

# read by perfbench/run.py:environment(), which stamps it on every result
USE_NUMBA = False

_LSAP = "scipy.optimize._lsap"


def _load_lsap():
    if _LSAP in sys.modules:
        return sys.modules[_LSAP]
    scipy_spec = find_spec("scipy")  # locates the package without importing it
    if scipy_spec is None:
        raise ImportError("the assignment solver needs scipy, which is not installed", name=_LSAP)
    directory = os.path.join(scipy_spec.submodule_search_locations[0], "optimize")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_LSAP)
    if spec is None:
        from importlib.metadata import version

        raise ImportError(f"no compiled {_LSAP} extension in {directory} (scipy {version('scipy')})", name=_LSAP)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_LSAP] = module
    return module


linear_sum_assignment = _load_lsap().linear_sum_assignment
