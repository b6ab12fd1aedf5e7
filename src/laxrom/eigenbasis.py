"""Schrodinger eigenbasis construction.

The reduced basis consists of the lowest eigenfunctions of the operator
L u = -laplacian u - chi * u0 * u built from the initial condition u0.  In
discrete form this is the generalized symmetric pencil (K - chi W(u0), G)
with G the mass matrix, so the modes come out G-orthonormal.  Every request
below the full spectrum comes from a sparse shift-invert Lanczos solve
(ARPACK); only the full spectrum, which ARPACK cannot give, uses a dense
solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .mesh import FemOperators, assemble_weighted_mass

__all__ = [
    "EigensolveError",
    "ReducedBasis",
    "solve_schrodinger_eig",
    "initial_projection",
]

RESIDUAL_TOL = 1e-8


def use_shift_invert(n_dofs: int, n_modes: int) -> bool:
    """Whether the sparse shift-invert solve serves this request: eigsh
    needs n_modes < n_dofs, so only the full spectrum goes dense."""
    return n_modes < n_dofs


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
    root : the basis this one was truncated from, None if it was not.
    operators : reduced operators of this basis by name, filled on first
        use (``dynamics.initial_state``); the modes must not change after.
    """

    B: np.ndarray
    lam: np.ndarray
    chi: float
    potential: np.ndarray
    fem: FemOperators
    root: ReducedBasis | None = field(default=None, init=False, repr=False, compare=False)
    operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_modes(self) -> int:
        return self.B.shape[1]

    def truncate(self, n_modes: int) -> "ReducedBasis":
        """View of the first ``n_modes`` modes (no copy of fem/potential).

        Its ``root`` is the untruncated basis, whose operators hold its own
        as leading blocks.
        """
        if not 1 <= n_modes <= self.n_modes:
            raise ValueError(f"cannot truncate {self.n_modes} modes to {n_modes}")
        sub = ReducedBasis(
            B=self.B[:, :n_modes],
            lam=self.lam[:n_modes],
            chi=self.chi,
            potential=self.potential,
            fem=self.fem,
        )
        sub.root = self.root or self
        return sub


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
    A = A.tocsc()  # symmetric: assemble symmetrizes K, assemble_weighted_mass W
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
