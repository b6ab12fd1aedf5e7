"""Full-order reconstruction from a reduced trajectory.

The nodal modes follow dB/dt = B M with an n x n skew generator M, so the
modes at time level k are B_k = B_0 Q_k with Q_k an n x n rotation, and no
nodal array has to be stepped.  ``rotation_step`` advances Q by one
Crank-Nicolson (Cayley) update  Q+ = Q C,  C = (I - dt/2 M)^-1 (I + dt/2 M),
which preserves orthogonality exactly for skew M; a block Gram-Schmidt
(through the Cholesky factor of the Gram matrix), which the caller asks for
every so many steps, stops roundoff drift from accumulating.
``propagate_basis`` maps a rotation to the nodal modes B_0 Q and checks
that they are G-orthonormal.
"""

from __future__ import annotations

import numpy as np

from .eigenbasis import ReducedBasis

__all__ = ["InvariantError", "rotation_step", "propagate_basis", "reconstruct_nodal",
           "orthonormalize_g"]

# bound on |Q^T Q - I| of a rotation and |B^T G B - I| of a transported basis
ORTHONORMALITY_TOL = 1e-10


class InvariantError(RuntimeError):
    """A quantity the theory conserves has drifted past its bound."""


def orthonormalize_g(B: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the columns of B, as one block operation.

    With the Cholesky factor of the Gram matrix, B^T B = R^T R, returns
    Q = B R^-1.  R is upper triangular with a positive diagonal, the factor
    Gram-Schmidt produces, so the column order, the nested spans and each
    column's direction against the earlier ones are kept.  Assumes the
    columns are close to orthonormal (as after a Cayley step), so the Gram
    matrix is well conditioned; a rank-deficient set raises LinAlgError.
    """
    B = np.asarray(B, dtype=float)
    S = B.T @ B
    L = np.linalg.cholesky(S)  # L = R^T
    # a pivot is a squared norm: roundoff leaves ~1e-8 of a column's norm
    lost = np.flatnonzero(np.diag(L) <= 1e-6 * np.sqrt(np.diag(S)))
    if lost.size:
        raise np.linalg.LinAlgError(f"column {lost[0]} lost rank in Gram-Schmidt")
    # numpy's solve, not scipy's solve_triangular: the two round differently,
    # and swapping them moves the tables in their last digits
    return np.linalg.solve(L, B.T).T


def rotation_step(Q: np.ndarray, M: np.ndarray, dt: float, renormalize: bool) -> np.ndarray:
    """The rotation ``Q`` (n, n) after one step with the generator ``M``.

    Returns Q C, with C the Cayley factor of M.  With ``renormalize``,
    InvariantError is raised when Q C is off orthonormal by more than
    ORTHONORMALITY_TOL, and otherwise it is re-orthonormalized.
    """
    hM = 0.5 * dt * M
    eye = np.eye(Q.shape[0])
    Q = Q @ np.linalg.solve(eye - hM, eye + hM)
    if not renormalize:
        return Q
    dev = float(np.abs(Q.T @ Q - eye).max())
    if not dev <= ORTHONORMALITY_TOL:
        raise InvariantError(f"rotation has |Q^T Q - I| = {dev:.3e}, above {ORTHONORMALITY_TOL:g}")
    # orthonormalize_g returns a transposed array; the next product must see
    # C order, or BLAS takes another path and the last digits move
    return np.ascontiguousarray(orthonormalize_g(Q))


def propagate_basis(basis: ReducedBasis, Q: np.ndarray) -> ReducedBasis:
    """The modes B Q after the rotation ``Q`` (see ``rotation_step``).

    Raises InvariantError when they are not G-orthonormal to
    ORTHONORMALITY_TOL.
    """
    n = basis.n_modes
    if Q.shape != (n, n):
        raise ValueError(f"rotation shape {Q.shape} does not match {n} modes")
    B = basis.B @ Q
    dev = float(np.abs(B.T @ (basis.fem.mass @ B) - np.eye(n)).max())
    if not dev <= ORTHONORMALITY_TOL:
        raise InvariantError(f"N_M={n}: transported basis has |B^T G B - I| = {dev:.3e}, "
                             f"above {ORTHONORMALITY_TOL:g}")
    return ReducedBasis(
        B=B,
        lam=basis.lam,
        chi=basis.chi,
        potential=basis.potential,
        fem=basis.fem,
    )


def reconstruct_nodal(basis: ReducedBasis, coeffs: np.ndarray, law: str = "standard",
                      frame: np.ndarray | None = None) -> np.ndarray:
    """Nodal solution from reduced coefficients.

    law="standard": u = sum_i coeffs_i phi_i.
    law="soliton":  u = sum_i coeffs_i phi_i^2 over the leading len(coeffs)
    modes (squared bound states).

    ``coeffs`` is one time level, shape (p,), or a stack of levels, shape
    (levels, p), and the result has one row per level.  The modes phi_i are
    the leading p columns of ``basis.B``, or with a ``frame`` (n, p), or
    (levels, n, p) for a stack, the columns of basis.B @ frame.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    p = coeffs.shape[-1]
    if p > basis.n_modes:
        raise ValueError(f"{p} coefficients for {basis.n_modes} modes")
    if law not in ("standard", "soliton"):
        raise ValueError(f"unknown reconstruction law {law!r}")
    modes = basis.B[:, :p] if frame is None else basis.B @ frame
    if law == "soliton":
        modes = modes ** 2
    if modes.ndim == 2:
        return coeffs @ modes.T
    return np.einsum("lij,lj->li", modes, coeffs)
