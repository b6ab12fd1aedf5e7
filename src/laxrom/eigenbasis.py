"""Schrodinger eigenbasis construction.

The reduced basis consists of the lowest eigenfunctions of the operator
L u = -laplacian u - chi * u0 * u built from the initial condition u0.  In
discrete form this is the generalized symmetric pencil (K - chi W(u0), G)
with G the mass matrix, so the modes come out G-orthonormal.  A few modes of
a large mesh come from a sparse shift-invert Lanczos solve (ARPACK); small
meshes and requests for a large share of the spectrum use a dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .mesh import FemOperators, assemble_weighted_mass

__all__ = [
    "EigensolveError",
    "ReducedBasis",
    "ChiSelection",
    "solve_schrodinger_eig",
    "initial_projection",
    "choose_chi",
]

RESIDUAL_TOL = 1e-8


def use_shift_invert(n_dofs: int, n_modes: int) -> bool:
    """Whether the sparse shift-invert solve serves this request.

    Timed on 1D and 2D P1 meshes, the dense solve is as fast or faster up to
    200 dofs, and faster from about a fifth of the spectrum on (a quarter
    with one BLAS thread); at a third, ARPACK takes about twice as long.
    eigsh also needs n_modes < n_dofs.
    """
    return n_dofs > 200 and 5 * n_modes < n_dofs


class EigensolveError(RuntimeError):
    """Raised when an eigenpair fails the discrete residual check."""


@dataclass
class ReducedBasis:
    """G-orthonormal modes of the Schrodinger operator built from u0.

    Attributes
    ----------
    B : (n_active, n_modes) array, one mode per column.
    lam : (n_modes,) ascending eigenvalues.
    chi : potential strength used in the operator.
    potential : the nodal u0 that generated the basis.
    fem : the assembled operators (mass = Grammian) the basis lives on.
    """

    B: np.ndarray
    lam: np.ndarray
    chi: float
    potential: np.ndarray
    fem: FemOperators

    @property
    def n_modes(self) -> int:
        return self.B.shape[1]

    def truncate(self, n_modes: int) -> "ReducedBasis":
        """View of the first ``n_modes`` modes (no copy of fem/potential)."""
        if not 1 <= n_modes <= self.n_modes:
            raise ValueError(f"cannot truncate {self.n_modes} modes to {n_modes}")
        return ReducedBasis(
            B=self.B[:, :n_modes],
            lam=self.lam[:n_modes],
            chi=self.chi,
            potential=self.potential,
            fem=self.fem,
        )


def solve_schrodinger_eig(
    fem: FemOperators, u0_nodal: np.ndarray, chi: float, n_modes: int
) -> ReducedBasis:
    """Lowest ``n_modes`` eigenpairs of (K - chi W(u0)) phi = lambda G phi.

    Eigenvalues come back ascending and the eigenvectors G-orthonormal, with
    a deterministic sign fix (the first entry with at least half the largest
    magnitude positive).  Every pair is checked against the residual bound
    ||A phi - lambda G phi|| <= 1e-8 (|lambda| + 1) ||phi||.
    """
    u0_nodal = np.asarray(u0_nodal, dtype=float)
    if not 1 <= n_modes <= fem.n_active:
        raise ValueError(f"n_modes={n_modes} out of range for {fem.n_active} dofs")
    if chi <= 0:
        raise ValueError("chi must be positive")

    A = fem.stiffness - chi * assemble_weighted_mass(fem, u0_nodal)
    A = (0.5 * (A + A.T)).tocsc()
    G = fem.mass.tocsc()
    if use_shift_invert(fem.n_active, n_modes):
        # K is positive semidefinite and W(u0) <= max(u0) G, so sigma lies
        # below the spectrum and the modes nearest it are the lowest ones
        sigma = -chi * max(float(u0_nodal.max()), 0.0) - 1.0
        # a start vector with no symmetry, so no mode is missing from the
        # Krylov space when the mesh and u0 share a reflection
        v0 = np.random.default_rng(0).standard_normal(fem.n_active)
        lam, B = spla.eigsh(A, n_modes, M=G, sigma=sigma, which="LM", v0=v0, tol=0)
        order = np.argsort(lam)
        lam, B = lam[order], B[:, order]
        B = B / np.sqrt(np.einsum("ij,ij->j", B, G @ B))
    else:
        lam, B = scipy.linalg.eigh(A.toarray(), G.toarray(),
                                   subset_by_index=(0, n_modes - 1))

    # deterministic orientation: the first entry of each mode with at least
    # half its largest magnitude is positive.  The largest entry itself is
    # tied between mirror images on a symmetric problem, and rounding would
    # pick the sign.
    half = 0.5 * np.maximum(B.max(axis=0), -B.min(axis=0))
    pick = np.argmax((B >= half) | (B <= -half), axis=0)
    B = B * np.sign(B[pick, np.arange(n_modes)])

    resid = A @ B - (G @ B) * lam
    rnorm = np.linalg.norm(resid, axis=0)
    bound = RESIDUAL_TOL * (np.abs(lam) + 1.0) * np.linalg.norm(B, axis=0)
    if np.any(rnorm > bound):
        worst = int(np.argmax(rnorm - bound))
        raise EigensolveError(
            f"eigenpair {worst} residual {rnorm[worst]:.3e} exceeds {bound[worst]:.3e}"
        )
    return ReducedBasis(B=B, lam=lam, chi=float(chi), potential=u0_nodal, fem=fem)


def initial_projection(basis: ReducedBasis, u0_nodal: np.ndarray):
    """G-orthogonal projection of u0 onto the basis.

    Returns
    -------
    beta : (n_modes,) coefficients <u0, phi_i>.
    err : absolute L2 error ||u0 - B beta||.
    """
    u0_nodal = np.asarray(u0_nodal, dtype=float)
    beta = basis.B.T @ (basis.fem.mass @ u0_nodal)
    err = basis.fem.norm(u0_nodal - basis.B @ beta)
    return beta, err


@dataclass
class ChiSelection:
    """Outcome of a chi calibration sweep."""

    chi: float
    met: bool
    errors: list  # (chi, projection error) per grid value, in sweep order


def choose_chi(
    fem: FemOperators,
    u0_nodal: np.ndarray,
    eps0: float,
    chi_grid,
    n_modes: int,
) -> ChiSelection:
    """Smallest chi in the grid whose basis captures u0 to tolerance.

    Sweeps ``chi_grid`` in ascending order and returns the first value whose
    ``n_modes``-mode projection error ||u0 - P u0|| falls at or below
    ``eps0``.  If none qualifies the largest grid value is returned with
    ``met=False``; the per-chi errors are kept for diagnostics.
    """
    chis = sorted(float(c) for c in chi_grid)
    if not chis:
        raise ValueError("empty chi grid")
    errors = []
    for chi in chis:
        basis = solve_schrodinger_eig(fem, u0_nodal, chi, n_modes)
        _, err = initial_projection(basis, u0_nodal)
        errors.append((chi, err))
        if err <= eps0:
            return ChiSelection(chi=chi, met=True, errors=errors)
    return ChiSelection(chi=chis[-1], met=False, errors=errors)
