"""Reduced operators on the moving eigenbasis.

The cubic interaction tensor T_ijk = <phi_i phi_j phi_k>, the convection
matrix D_ij = <dphi_j/dx, phi_i>, the third-derivative matrix D3, and the
algebraic brackets driving their evolution.  All quadrature is exact for the
piecewise-polynomial integrands, so these are the Galerkin values up to
roundoff.
"""

from __future__ import annotations

import numpy as np

from .eigenbasis import ReducedBasis

__all__ = [
    "assemble_T",
    "assemble_D",
    "assemble_D3",
    "bracket3",
    "commutator",
]


def assemble_T(basis: ReducedBasis) -> np.ndarray:
    """Symmetric tensor T_ijk = integral phi_i phi_j phi_k dx.

    Evaluated by sampling the modes at the element quadrature points (the
    rule is exact for the piecewise-cubic product) and contracting one mode
    index at a time, then averaged over index permutations so the result is
    exactly symmetric.
    """
    qw, values, _ = basis.fem.quadrature()
    P = values @ basis.B  # (n_quad, n_modes)
    n = basis.n_modes
    T = np.empty((n, n, n))
    Pw = P * qw[:, None]
    for k in range(n):
        T[:, :, k] = (Pw * P[:, [k]]).T @ P
    T = (
        T
        + T.transpose(0, 2, 1)
        + T.transpose(1, 0, 2)
        + T.transpose(1, 2, 0)
        + T.transpose(2, 0, 1)
        + T.transpose(2, 1, 0)
    ) / 6.0
    return T


def assemble_D(basis: ReducedBasis) -> np.ndarray:
    """First-derivative matrix D_ij = <dphi_j/dx, phi_i> (1D only)."""
    C = basis.fem.convection
    if C is None:
        raise ValueError("convection operator is only assembled on 1D meshes")
    return basis.B.T @ (C @ basis.B)


def assemble_D3(basis: ReducedBasis, u0_nodal: np.ndarray, chi: float) -> np.ndarray:
    """Third-derivative matrix D3_ij = <d3 phi_j/dx3, phi_i> (1D only).

    Third derivatives of P1 functions vanish elementwise, so the entry is
    recovered from the eigenrelation -phi'' = (lambda + chi u0) phi:

        <phi_j''', phi_i> = lambda_j <phi_j', phi_i> + chi <(u0 phi_j)', phi_i>

    integrating the potential term by parts onto exact quadrature.  The
    basis must be the one built from (u0, chi); anything else is rejected.
    """
    u0_nodal = np.asarray(u0_nodal, dtype=float)
    if chi != basis.chi or not np.array_equal(u0_nodal, basis.potential):
        raise ValueError("basis was not built from the supplied (u0, chi)")
    qw, values, deriv = basis.fem.quadrature()
    if deriv is None:
        raise ValueError("third-derivative operator is only assembled on 1D meshes")
    D = assemble_D(basis)
    uq = values @ u0_nodal
    # <phi_j''', phi_i> = -lambda_j D_ij - chi <(u0 phi_j)', phi_i>
    #                   = lambda_j D_ji + chi <u0 phi_j, phi_i'>
    # (skewness of D and vanishing boundary terms)
    Bq = values @ basis.B
    dBq = deriv @ basis.B
    E = (dBq * (qw * uq)[:, None]).T @ Bq
    return D.T * basis.lam[None, :] + chi * E


def bracket3(M: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Rank-3 bracket {M, T}_ijk = sum_l M_li T_ljk + M_lj T_ilk + M_lk T_ijl.

    This is the generator of the tensor evolution under a rotating basis;
    it preserves full symmetry of T and is Frobenius-orthogonal to T when M
    is skew-symmetric.  T must be fully symmetric, as every interaction
    tensor is: then all three terms are index permutations of the first,
    t1_ijk = sum_l M_li T_ljk, which is one (n x n) by (n x n^2) product.
    """
    n = M.shape[0]
    t1 = (M.T @ T.reshape(n, n * n)).reshape(n, n, n)
    return t1 + t1.transpose(1, 0, 2) + t1.transpose(1, 2, 0)


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix commutator [A, B] = A B - B A."""
    return A @ B - B @ A
