"""Reduced operators on the moving eigenbasis.

The cubic interaction tensor T_ijk = <phi_i phi_j phi_k>, the first-derivative
matrix D_ij = <dphi_j/dx, phi_i>, the third-derivative matrix D3, and the
algebraic brackets driving their evolution.  All quadrature is exact for the
piecewise-polynomial integrands, so these are the Galerkin values up to
roundoff.

T is fully symmetric, and so is its evolution {M, T}; the packed form holds
only its n(n+1)(n+2)/6 entries with i <= j <= k, in row-major order
(``SymmetricIndex``).  The reduced right-hand side works on the pair matrix
Tp of shape (n, n(n+1)/2), Tp[l, pair(j, k)] = T_ljk for j <= k: every
column of T's (n, n^2) unfolding is there once, so contractions over one
index and the bracket cost half of their full-tensor form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .eigenbasis import ReducedBasis

__all__ = [
    "assemble_T",
    "assemble_D",
    "assemble_D3",
    "bracket3",
    "commutator",
    "contract",
    "symmetric_index",
    "pack_symmetric",
    "unpack_symmetric",
]


class SymmetricIndex(NamedTuple):
    """Flat index maps between a symmetric (n, n, n) tensor, its packing and
    its pair matrix; no map over all n^3 entries is kept.

    ``unique`` holds the row-major positions of the entries with
    i <= j <= k and ``pairs`` the packed position of every pair-matrix
    entry, as an (n, P) array with P = n(n+1)/2.  ``pair`` is the symmetric
    (n, n) map from (j, k) to the pair-matrix column.  ``bracket`` is
    (3, U): for each unique (i, j, k), the positions of (i, pair(j, k)),
    (j, pair(i, k)) and (k, pair(i, j)) in a flattened (n, P) array.
    """

    unique: np.ndarray
    pairs: np.ndarray
    pair: np.ndarray
    bracket: np.ndarray


@lru_cache(maxsize=1)  # a trajectory keeps one mode count; a rebuild takes ms
def symmetric_index(n: int) -> SymmetricIndex:
    """The (read-only, cached) index maps for n modes."""
    rows, cols = np.triu_indices(n)
    pair = np.empty((n, n), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    # (i, pair(j, k)) with i <= j, in the row-major order of (i, j, k), and
    # the packed position of each
    kept = np.arange(n)[:, None] <= rows
    rank = np.cumsum(kept, dtype=np.intp).reshape(kept.shape) - 1
    i, p = np.nonzero(kept)
    j, k = rows[p], cols[p]
    # (a, pair(b, c)) is packed at its sorted (lo, mid, hi); built (P, n) and
    # transposed, as M.T @ Tp rounds differently if Tp is gathered C-ordered
    a, b, c = np.arange(n), rows[:, None], cols[:, None]
    lo, hi = np.minimum(a, b), np.maximum(a, c)
    maps = SymmetricIndex(
        unique=(i * n + j) * n + k,
        pairs=rank[lo, pair[a + b + c - lo - hi, hi]].T,
        pair=pair,
        bracket=np.stack([i, j, k]) * rows.size + pair[[j, i, i], [k, k, j]],
    )
    for a in maps:
        a.flags.writeable = False
    return maps


def pack_symmetric(T: np.ndarray) -> np.ndarray:
    """The unique entries (i <= j <= k) of a symmetric (n, n, n) tensor."""
    return T.ravel()[symmetric_index(T.shape[0]).unique]


def unpack_symmetric(packed: np.ndarray, n: int) -> np.ndarray:
    """The full (n, n, n) tensor from its unique entries: the transposed pair
    matrix, row pair(j, k) = T_jk., spread over (j, k) is T_jkl = T_ljk."""
    idx = symmetric_index(n)
    return packed[idx.pairs.T][idx.pair]


def contract(Tp: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (n, n) matrix sum_m T_ijm v_m from the pair matrix Tp of T."""
    return (v @ Tp)[symmetric_index(Tp.shape[0]).pair]


# quadrature points sampled together in ``assemble_T``
_QUAD_BLOCK = 512


def assemble_T(basis: ReducedBasis) -> np.ndarray:
    """Symmetric tensor T_ijk = integral phi_i phi_j phi_k dx.

    Evaluated by sampling the modes at the element quadrature points (the
    rule is exact for the piecewise-cubic product), _QUAD_BLOCK points at a
    time.  Each block adds sum_q w_q phi_i phi_j phi_k over its points to
    the pair matrix Tp[i, pair(j, k)], for the n(n+1)/2 pairs j <= k only:
    one product per j, over the contiguous columns of the pairs (j, k >= j).
    Beyond Tp, only a (block, n) array is live, never one over all points.
    The entries with i <= j <= k are read off Tp and the rest filled from
    them, so the result is exactly symmetric and
    ``unpack_symmetric(pack_symmetric(T), n)`` reproduces it bit for bit.
    """
    qw, values = basis.fem.qw, basis.fem.values
    n = basis.n_modes
    idx = symmetric_index(n)
    Tp = np.zeros((n, n * (n + 1) // 2))
    for start in range(0, qw.size, _QUAD_BLOCK):
        block = slice(start, start + _QUAD_BLOCK)
        P = values[block] @ basis.B  # (block points, n_modes)
        Pw = (P * qw[block, None]).T
        for j in range(n):
            a = idx.pair[j, j]
            Tp[:, a:a + n - j] += Pw @ (P[:, j:] * P[:, j, None])
    return unpack_symmetric(Tp.ravel()[idx.bracket[0]], n)


def assemble_D(basis: ReducedBasis) -> np.ndarray:
    """First-derivative matrix D_ij = <dphi_j/dx, phi_i> (1D only).

    Sampled at the element quadrature points, which the P1 integrand (phi_i
    linear, phi_j' constant per element) leaves exact.
    """
    qw, values, deriv = basis.fem.qw, basis.fem.values, basis.fem.deriv
    if deriv is None:
        raise ValueError("first-derivative operator is only assembled on 1D meshes")
    return (values @ basis.B).T @ ((deriv @ basis.B) * qw[:, None])


def assemble_D3(basis: ReducedBasis) -> np.ndarray:
    """Third-derivative matrix D3_ij = <d3 phi_j/dx3, phi_i> (1D only).

    Third derivatives of P1 functions vanish elementwise, so the entry is
    recovered from the eigenrelation -phi'' = (lambda + chi u0) phi of the
    basis's own potential u0 and weight chi:

        <phi_j''', phi_i> = lambda_j <phi_j', phi_i> + chi <(u0 phi_j)', phi_i>

    integrating the potential term by parts onto exact quadrature.
    """
    qw, values, deriv = basis.fem.qw, basis.fem.values, basis.fem.deriv
    if deriv is None:
        raise ValueError("third-derivative operator is only assembled on 1D meshes")
    D = assemble_D(basis)
    uq = values @ basis.potential
    # <phi_j''', phi_i> = -lambda_j D_ij - chi <(u0 phi_j)', phi_i>
    #                   = lambda_j D_ji + chi <u0 phi_j, phi_i'>
    # (skewness of D and vanishing boundary terms)
    Bq = values @ basis.B
    dBq = deriv @ basis.B
    E = (dBq * (qw * uq)[:, None]).T @ Bq
    return D.T * basis.lam[None, :] + basis.chi * E


def bracket3(M: np.ndarray, Tp: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rank-3 bracket {M, T}_ijk = sum_l M_li T_ljk + M_lj T_ilk + M_lk T_ijl.

    This is the generator of the tensor evolution under a rotating basis;
    it preserves full symmetry of T and is Frobenius-orthogonal to T when M
    is skew-symmetric.  T must be fully symmetric, as every interaction
    tensor is: then all three terms are index permutations of the first,
    t1_ijk = sum_l M_li T_ljk, and t1 is symmetric in (j, k), so one
    (n x n) by (n x P) product with the pair matrix Tp of T gives all of it.
    Returns the bracket packed (``pack_symmetric`` order), written into
    ``out`` when given: only the unique entries t1_ijk + t1_jik + t1_kij
    are summed.
    """
    t = (M.T @ Tp).ravel()[symmetric_index(M.shape[0]).bracket]
    out = np.add(t[0], t[1], out=out)
    return np.add(out, t[2], out=out)


def commutator(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix commutator [A, B] = A B - B A, written into ``out`` when given."""
    return np.subtract(A @ B, B @ A, out=out)
