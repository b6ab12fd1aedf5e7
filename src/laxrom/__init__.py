"""Reduced-order modeling of propagation PDEs on a moving Schrodinger eigenbasis.

The basis is the low part of the spectrum of -laplacian - chi*u0 and is
transported in time together with the reduced coefficients, eigenvalues and
interaction tensors, so a handful of modes can follow traveling and
self-steepening solutions that defeat fixed linear bases.
"""

__version__ = "0.1.0"

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
