"""Reduced operators: interaction tensor, derivative matrices, brackets."""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from laxrom import (
    assemble,
    assemble_D,
    assemble_D3,
    assemble_T,
    bracket3,
    build_uniform_mesh_1d,
    commutator,
    contract,
    pack_symmetric,
    solve_schrodinger_eig,
    symmetric_index,
    unpack_symmetric,
)


@pytest.fixture(scope="module")
def basis():
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 161), "dirichlet")
    x = fem.coords
    u0 = np.exp(-80 * (x - 0.3) ** 2) + 0.7 * np.exp(-60 * (x - 0.7) ** 2)
    return solve_schrodinger_eig(fem, u0, 90.0, 6)


def _gauss_points(nodes, n_gauss=3):
    """Per-element Gauss points/weights built straight from the node vector."""
    gx, gw = np.polynomial.legendre.leggauss(n_gauss)
    xl, xr = nodes[:-1], nodes[1:]
    mid, half = 0.5 * (xl + xr), 0.5 * (xr - xl)
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts


def test_interaction_tensor_matches_direct_quadrature(basis):
    # independent route: P1 interpolation with np.interp on hand-built
    # Gauss points (exact for the cubic triple products)
    fem = basis.fem
    nodes = fem.mesh.nodes
    pts, wts = _gauss_points(nodes)
    P = np.column_stack([np.interp(pts, nodes, fem.embed(b)) for b in basis.B.T])
    n = basis.n_modes
    oracle = np.einsum("q,qi,qj,qk->ijk", wts, P, P, P)
    T = assemble_T(basis)
    assert np.abs(T - oracle).max() < 1e-10


def test_interaction_tensor_fully_symmetric(basis):
    T = assemble_T(basis)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        assert np.array_equal(T, T.transpose(perm))


def _symmetric(n, seed):
    """An exactly symmetric random (n, n, n) tensor."""
    T = np.random.default_rng(seed).standard_normal((n, n, n))
    T = sum(T.transpose(p) for p in
            ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)))
    return unpack_symmetric(pack_symmetric(T), n)


def _pair_matrix(T):
    """The (n, n(n+1)/2) pair matrix of a symmetric (n, n, n) tensor."""
    return pack_symmetric(T)[symmetric_index(T.shape[0]).pairs]


def test_packed_tensor_holds_sorted_index_entries(basis):
    T = assemble_T(basis)
    n = basis.n_modes
    packed = pack_symmetric(T)
    assert packed.shape == (n * (n + 1) * (n + 2) // 6,)
    oracle = [T[i, j, k] for i, j, k in combinations_with_replacement(range(n), 3)]
    assert np.array_equal(packed, oracle)
    np.testing.assert_array_equal(unpack_symmetric(packed, n), T)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_pack_unpack_round_trip(n):
    T = _symmetric(n, seed=n)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
        assert np.array_equal(T, T.transpose(perm))
    np.testing.assert_array_equal(unpack_symmetric(pack_symmetric(T), n), T)


def test_first_derivative_matrix_skew(basis):
    D = assemble_D(basis)
    assert np.abs(D + D.T).max() < 1e-11
    assert np.abs(np.diag(D)).max() < 1e-12


def test_first_derivative_matrix_oracle(basis):
    # phi_j' is elementwise constant; evaluate it by differencing the nodal
    # values and integrate phi_j' phi_i with the same hand-built rule
    fem = basis.fem
    nodes = fem.mesh.nodes
    pts, wts = _gauss_points(nodes)
    elem = np.searchsorted(nodes, pts, side="right") - 1
    full = np.column_stack([fem.embed(b) for b in basis.B.T])
    slopes = np.diff(full, axis=0) / np.diff(nodes)[:, None]
    P = np.column_stack([np.interp(pts, nodes, f) for f in full.T])
    dP = slopes[elem]
    oracle = np.einsum("q,qj,qi->ij", wts, dP, P)
    D = assemble_D(basis)
    assert np.abs(D - oracle).max() < 1e-10


def test_third_derivative_matrix_oracle(basis):
    # the eigenrelation turns <phi_j''', phi_i> into
    # <(lambda_j + chi u0) phi_j, phi_i'>; integrate that independently
    fem = basis.fem
    nodes = fem.mesh.nodes
    pts, wts = _gauss_points(nodes)
    elem = np.searchsorted(nodes, pts, side="right") - 1
    full = np.column_stack([fem.embed(b) for b in basis.B.T])
    slopes = np.diff(full, axis=0) / np.diff(nodes)[:, None]
    P = np.column_stack([np.interp(pts, nodes, f) for f in full.T])
    dP = slopes[elem]
    uq = np.interp(pts, nodes, fem.embed(basis.potential))
    w = wts[:, None] * (basis.lam[None, :] + basis.chi * uq[:, None]) * P
    oracle = np.einsum("qj,qi->ij", w, dP)
    D3 = assemble_D3(basis)
    assert np.abs(D3 - oracle).max() < 1e-9


def test_bracket3_preserves_symmetry():
    # the packed bracket holds the unique entries of the full form
    # t1 + t1^(jik) + t1^(kij), summed in the same order, and that full form
    # is symmetric, so unpacking it loses nothing
    n = 5
    T = _symmetric(n, seed=7)
    M = np.random.default_rng(7).standard_normal((n, n))
    Tp = _pair_matrix(T)
    t1 = (M.T @ Tp)[:, symmetric_index(n).pair]
    full = t1 + t1.transpose(1, 0, 2) + t1.transpose(1, 2, 0)
    W = bracket3(M, Tp)
    assert np.array_equal(W, pack_symmetric(full))
    t1 = (M.T @ T.reshape(n, n * n)).reshape(n, n, n)
    full = t1 + t1.transpose(1, 0, 2) + t1.transpose(1, 2, 0)
    assert np.abs(unpack_symmetric(W, n) - full).max() < 1e-12


def test_bracket3_matches_index_definition():
    T = _symmetric(6, seed=13)
    M = np.random.default_rng(13).standard_normal((6, 6))
    ref = (np.einsum("li,ljk->ijk", M, T)
           + np.einsum("lj,ilk->ijk", M, T)
           + np.einsum("lk,ijl->ijk", M, T))
    W = unpack_symmetric(bracket3(M, _pair_matrix(T)), 6)
    assert np.abs(W - ref).max() < 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_pair_maps(n):
    # Tp[l, pair(j, k)] = T_ljk for j <= k, pair symmetric, and the bracket
    # and Theta from Tp agree with their full-tensor index definitions
    T = _symmetric(n, seed=20 + n)
    idx = symmetric_index(n)
    P = n * (n + 1) // 2
    assert idx.pairs.shape == (n, P) and idx.pair.shape == (n, n)
    assert np.array_equal(idx.pair, idx.pair.T)
    assert np.array_equal(np.sort(idx.pair[np.triu_indices(n)]), np.arange(P))
    Tp = _pair_matrix(T)
    oracle = [[T[l, j, k] for j, k in combinations_with_replacement(range(n), 2)]
              for l in range(n)]
    assert np.array_equal(Tp, np.reshape(oracle, (n, P)))
    assert np.array_equal(Tp[:, idx.pair], T)
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    v = rng.standard_normal(n)
    ref = (np.einsum("li,ljk->ijk", M, T)
           + np.einsum("lj,ilk->ijk", M, T)
           + np.einsum("lk,ijl->ijk", M, T))
    W = unpack_symmetric(bracket3(M, Tp), n)
    assert np.abs(W - ref).max() <= 1e-12 * np.abs(ref).max()
    theta = np.einsum("ijm,m->ij", T, v)
    assert np.abs(contract(Tp, v) - theta).max() <= 1e-12 * np.abs(theta).max()


def test_bracket3_orthogonal_for_skew_generator():
    # <T, {M,T}> = 0 when M is skew: the Frobenius norm of T is conserved
    rng = np.random.default_rng(11)
    T = rng.standard_normal((6, 6, 6))
    T = T + T.transpose(0, 2, 1)
    T = T + T.transpose(1, 0, 2) + T.transpose(2, 1, 0)
    A = rng.standard_normal((6, 6))
    M = A - A.T
    W = unpack_symmetric(bracket3(M, _pair_matrix(T)), 6)
    inner = float(np.sum(T * W))
    assert abs(inner) < 1e-10 * np.linalg.norm(T.ravel()) * np.linalg.norm(W.ravel())


def test_commutator_basic():
    rng = np.random.default_rng(3)
    A, B = rng.standard_normal((2, 4, 4))
    C = commutator(A, B)
    assert np.allclose(C, -(commutator(B, A)))
    assert np.allclose(commutator(A, A), 0.0)
