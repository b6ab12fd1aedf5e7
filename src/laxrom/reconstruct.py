"""Full-order reconstruction from a reduced trajectory.

The nodal modes follow dB/dt = B M; each step applies the Crank-Nicolson
(Cayley) update  B+ = B C  with the n x n factor
C = (I - dt/2 M)^-1 (I + dt/2 M), which preserves G-orthonormality exactly
for skew M.  A block Gram-Schmidt in the G-inner product (through the
Cholesky factor of the Gram matrix) follows, to stop roundoff drift from
accumulating.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .eigenbasis import ReducedBasis

__all__ = ["propagate_basis", "reconstruct_nodal", "orthonormalize_g"]


def orthonormalize_g(B: np.ndarray, G) -> np.ndarray:
    """Gram-Schmidt in the G-inner product, as one block operation.

    With the Cholesky factor of the Gram matrix, B^T G B = R^T R, returns
    Q = B R^-1.  R is upper triangular with a positive diagonal, the factor
    Gram-Schmidt produces, so the column order, the nested spans and each
    column's direction against the earlier ones are kept.  Assumes the
    columns are close to G-orthonormal (as after a Cayley step), so the
    Gram matrix is well conditioned; a rank-deficient set raises
    LinAlgError.
    """
    B = np.asarray(B, dtype=float)
    S = B.T @ (G @ B)
    R = cholesky(S)
    # a pivot is a squared norm: roundoff leaves ~1e-8 of a column's norm
    lost = np.flatnonzero(np.diag(R) <= 1e-6 * np.sqrt(np.diag(S)))
    if lost.size:
        raise np.linalg.LinAlgError(f"column {lost[0]} lost rank in Gram-Schmidt")
    return solve_triangular(R, B.T, trans="T").T


def propagate_basis(basis: ReducedBasis, m_half: np.ndarray, dt: float) -> ReducedBasis:
    """Advance the modes one step with the half-step generator ``m_half``."""
    n = basis.n_modes
    if m_half.shape != (n, n):
        raise ValueError(f"generator shape {m_half.shape} does not match {n} modes")
    h = 0.5 * dt
    cayley = np.linalg.solve(np.eye(n) - h * m_half, np.eye(n) + h * m_half)
    Bnew = orthonormalize_g(basis.B @ cayley, basis.fem.mass)
    return ReducedBasis(
        B=Bnew,
        lam=basis.lam,
        chi=basis.chi,
        potential=basis.potential,
        fem=basis.fem,
    )


def reconstruct_nodal(basis: ReducedBasis, coeffs: np.ndarray, law: str = "standard") -> np.ndarray:
    """Nodal solution from reduced coefficients.

    law="standard": u = sum_i coeffs_i phi_i.
    law="soliton":  u = sum_i coeffs_i phi_i^2 over the leading len(coeffs)
    modes (squared bound states).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    p = coeffs.size
    if p > basis.n_modes:
        raise ValueError(f"{p} coefficients for {basis.n_modes} modes")
    if law == "standard":
        return basis.B[:, :p] @ coeffs
    if law == "soliton":
        return (basis.B[:, :p] ** 2) @ coeffs
    raise ValueError(f"unknown reconstruction law {law!r}")
