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

from .mesh import (  # noqa: F401
    AssemblyError,
    FemOperators,
    Mesh1D,
    TriMesh,
    assemble,
    assemble_weighted_mass,
    build_structured_square_mesh,
    build_uniform_mesh_1d,
)
from .eigenbasis import (  # noqa: F401
    ChiSelection,
    EigensolveError,
    ReducedBasis,
    choose_chi,
    initial_projection,
    solve_schrodinger_eig,
)
from .tensors import (  # noqa: F401
    assemble_D,
    assemble_D3,
    assemble_T,
    bracket3,
    commutator,
    contract,
    pack_symmetric,
    symmetric_index,
    unpack_symmetric,
)
from .dynamics import (  # noqa: F401
    FixedPointError,
    ReducedState,
    SolverConfig,
    Trajectory,
    build_M,
    frobenius_norm_sq,
    initial_state,
    mode_indicator,
    run,
    step_midpoint,
)
from .models import (  # noqa: F401
    AdvectionModel,
    EquationModel,
    FkppModel,
    KdvEigenModel,
    KdvSolitonModel,
)
from .reconstruct import (  # noqa: F401
    InvariantError,
    orthonormalize_g,
    propagate_basis,
    reconstruct_nodal,
    rotations,
)
from .reference import (  # noqa: F401
    fkpp_reference,
    kdv_n_soliton,
    kdv_one_soliton,
)
from .scsa import (  # noqa: F401
    SweepResult,
    chi_sweep,
    eigen_expansion,
    read_signal_csv,
    shift_nonnegative,
    soliton_expansion,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    MetricsReport,
    MetricsRow,
    compare_frobenius,
    eps_amplitude,
    eps_l2,
    load_config,
    run_chi_sweep,
    run_experiment,
    run_scsa,
)
