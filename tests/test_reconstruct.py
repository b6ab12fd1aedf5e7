"""Basis rotation, propagation and nodal reconstruction."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from laxrom import (
    InvariantError,
    assemble,
    build_uniform_mesh_1d,
    orthonormalize_g,
    propagate_basis,
    reconstruct_nodal,
    rotations,
    solve_schrodinger_eig,
)


@pytest.fixture(scope="module")
def basis():
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 141))
    x = fem.coords
    u0 = np.exp(-180.0 * (x - 0.4) ** 2)
    return solve_schrodinger_eig(fem, u0, 80.0, 6)


def random_skew(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A - A.T


def orthonormal_columns(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n_rows, n_cols)))[0]


def test_gram_schmidt_restores_g_orthonormality():
    rng = np.random.default_rng(7)
    # perturb an orthonormal set and clean it up again
    B = orthonormal_columns(141, 6, seed=1) + 1e-4 * rng.standard_normal((141, 6))
    Q = orthonormalize_g(B)
    assert np.abs(Q.T @ Q - np.eye(6)).max() < 1e-12


def test_gram_schmidt_keeps_leading_column_direction():
    Q0 = orthonormal_columns(141, 6, seed=2)
    Q = orthonormalize_g(Q0 * 2.0)
    # scaling columns must not flip or rotate the first one
    assert np.abs(Q[:, 0] - Q0[:, 0]).max() < 1e-12
    # every column: B = Q R with R = Q^T B upper triangular, positive diagonal
    rng = np.random.default_rng(5)
    B = Q0 + 0.1 * rng.standard_normal(Q0.shape)
    R = orthonormalize_g(B).T @ B
    assert np.abs(np.tril(R, -1)).max() < 1e-12
    assert np.all(np.diag(R) > 0.0)


def test_gram_schmidt_rejects_rank_deficient_columns():
    Q0 = orthonormal_columns(141, 6, seed=3)
    B = Q0.copy()
    B[:, 3] = B[:, 1]
    with pytest.raises(np.linalg.LinAlgError):
        orthonormalize_g(B)
    # nearly dependent: the Cholesky pivot stays positive but is tiny
    B[:, 3] = B[:, 1] + 1e-7 * Q0[:, 3]
    with pytest.raises(np.linalg.LinAlgError, match="column 3"):
        orthonormalize_g(B)


def test_identity_generator_leaves_basis_fixed(basis):
    Qs = list(rotations(np.zeros((3, 6, 6)), dt=0.05))
    assert len(Qs) == 4
    for Q in Qs:
        assert np.array_equal(Q, np.eye(6))
    out = propagate_basis(basis, Qs[-1])
    assert np.array_equal(out.B, basis.B)
    assert out.lam is basis.lam


def test_propagation_preserves_g_orthonormality(basis):
    G = basis.fem.mass
    M = random_skew(6, seed=3)
    Qs = list(rotations(np.repeat(M[None], 40, axis=0), dt=0.02))
    assert len(Qs) == 41
    for Q in Qs:
        assert np.abs(Q.T @ Q - np.eye(6)).max() < 1e-10
        B = propagate_basis(basis, Q).B
        assert np.abs(B.T @ (G @ B) - np.eye(6)).max() < 1e-10


def test_cayley_step_is_second_order_in_dt(basis):
    # against the exact rotation expm(dt M) for a frozen generator
    M = random_skew(6, seed=11)

    def err(dt):
        _, stepped = rotations(M[None], dt)
        exact = orthonormalize_g(expm(dt * M))
        return np.abs(stepped - exact).max()

    e1, e2 = err(0.02), err(0.01)
    assert e1 / e2 > 6.0  # local error, so third order in dt


def test_propagation_checks_generator_shape(basis):
    with pytest.raises(ValueError):
        propagate_basis(basis, np.eye(4))
    with pytest.raises(ValueError):
        next(rotations(np.zeros((2, 4, 5)), dt=0.01))
    with pytest.raises(ValueError):
        next(rotations(np.zeros((4, 4)), dt=0.01))


def test_transported_basis_off_g_orthonormal_raises(basis):
    scaled = replace(basis, B=basis.B * (1.0 + 1e-9))
    with pytest.raises(InvariantError, match="N_M=6"):
        propagate_basis(scaled, np.eye(6))
    propagate_basis(replace(basis, B=basis.B * (1.0 + 1e-12)), np.eye(6))


def test_standard_reconstruction_is_plain_expansion(basis):
    coeffs = np.array([0.3, -1.2, 0.05, 0.9])
    u = reconstruct_nodal(basis, coeffs, law="standard")
    assert np.allclose(u, basis.B[:, :4] @ coeffs)
    # a stack of levels gives one row per level
    stack = reconstruct_nodal(basis, np.vstack([coeffs, 2.0 * coeffs]))
    assert np.allclose(stack, [u, 2.0 * u])


def test_soliton_reconstruction_squares_the_modes(basis):
    coeffs = np.array([2.0, 0.5])
    u = reconstruct_nodal(basis, coeffs, law="soliton")
    assert np.allclose(u, 2.0 * basis.B[:, 0] ** 2 + 0.5 * basis.B[:, 1] ** 2)
    # with a frame per level the modes are the columns of B Q[:, :p]
    Qs = list(rotations(np.repeat(random_skew(6, seed=2)[None], 3, axis=0), dt=0.1))
    frames = np.array([Q[:, :2] for Q in Qs])
    stack = reconstruct_nodal(basis, np.tile(coeffs, (4, 1)), "soliton", frames)
    for Q, row in zip(Qs, stack):
        turned = propagate_basis(basis, Q)
        assert np.allclose(row, reconstruct_nodal(turned, coeffs, law="soliton"))


def test_reconstruction_validates_inputs(basis):
    with pytest.raises(ValueError):
        reconstruct_nodal(basis, np.zeros(7))
    with pytest.raises(ValueError):
        reconstruct_nodal(basis, np.zeros(3), law="cubic")
