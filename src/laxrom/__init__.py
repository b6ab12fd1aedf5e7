"""Reduced-order modeling of propagation PDEs on a moving Schrodinger eigenbasis.

The basis is the low part of the spectrum of -laplacian - chi*u0 and is
transported in time together with the reduced coefficients, eigenvalues and
interaction tensors, so a handful of modes can follow traveling and
self-steepening solutions that defeat fixed linear bases.

Importing the package pins the BLAS libraries to one thread: it sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to "1",
overwriting any value, before its first import of numpy.  The dense
objects here are small (an n <= 48 reduced system, eigenproblems of a few
thousand dofs for a few dozen modes), so a second BLAS thread mostly spins,
and the thread count would otherwise leak into the last digits of the
tables.  The variables act when a BLAS library loads.  If numpy or scipy
was imported first, as the demos and a tracer that wraps laxrom do, the
OpenBLAS bundled with their wheels is set to one thread through its own
setter instead; any other BLAS that is already loaded keeps the threads it
started with.
"""

import ctypes
import glob
import os
import sys

__version__ = "0.1.0"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var


def _pin_loaded_openblas() -> None:
    """One thread for the wheel-bundled OpenBLAS of an imported numpy or scipy."""
    for name in ("numpy", "scipy"):
        if name not in sys.modules:
            continue  # it will read the variables when it loads
        package = os.path.dirname(sys.modules[name].__file__)
        for path in glob.glob(os.path.join(package + ".libs", "*openblas*")):
            lib = ctypes.CDLL(path)  # the copy already loaded
            for setter in ("scipy_openblas_set_num_threads64_",
                           "scipy_openblas_set_num_threads"):
                fn = getattr(lib, setter, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [ctypes.c_int], None
                    fn(1)


_pin_loaded_openblas()

from .mesh import *  # noqa: E402,F401,F403
from .eigenbasis import *  # noqa: E402,F401,F403
from .tensors import *  # noqa: E402,F401,F403
from .dynamics import *  # noqa: E402,F401,F403
from .models import *  # noqa: E402,F401,F403
from .reconstruct import *  # noqa: E402,F401,F403
from .reference import *  # noqa: E402,F401,F403
from .scsa import *  # noqa: E402,F401,F403
from .harness import *  # noqa: E402,F401,F403
