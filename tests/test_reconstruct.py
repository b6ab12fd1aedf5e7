"""Basis propagation and nodal reconstruction."""

import numpy as np
import pytest
from scipy.linalg import expm

from laxrom import (
    assemble,
    build_uniform_mesh_1d,
    orthonormalize_g,
    propagate_basis,
    reconstruct_nodal,
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


def test_gram_schmidt_restores_g_orthonormality(basis):
    rng = np.random.default_rng(7)
    G = basis.fem.mass
    # perturb an orthonormal set and clean it up again
    B = basis.B + 1e-4 * rng.standard_normal(basis.B.shape)
    Q = orthonormalize_g(B, G)
    gram = Q.T @ (G @ Q)
    assert np.abs(gram - np.eye(Q.shape[1])).max() < 1e-12


def test_gram_schmidt_keeps_leading_column_direction(basis):
    G = basis.fem.mass
    Q = orthonormalize_g(basis.B * 2.0, G)
    # scaling columns must not flip or rotate the first one
    first = Q[:, 0]
    ref = basis.B[:, 0]
    assert np.abs(first - ref).max() < 1e-12
    # every column: B = Q R with R = Q^T G B upper triangular, positive diagonal
    rng = np.random.default_rng(5)
    B = basis.B + 0.1 * rng.standard_normal(basis.B.shape)
    R = orthonormalize_g(B, G).T @ (G @ B)
    assert np.abs(np.tril(R, -1)).max() < 1e-12
    assert np.all(np.diag(R) > 0.0)


def test_gram_schmidt_rejects_rank_deficient_columns(basis):
    B = basis.B.copy()
    B[:, 3] = B[:, 1]
    with pytest.raises(np.linalg.LinAlgError):
        orthonormalize_g(B, basis.fem.mass)
    # nearly dependent: the Cholesky pivot stays positive but is tiny
    B[:, 3] = B[:, 1] + 1e-7 * basis.B[:, 3]
    with pytest.raises(np.linalg.LinAlgError, match="column 3"):
        orthonormalize_g(B, basis.fem.mass)


def test_identity_generator_leaves_basis_fixed(basis):
    out = propagate_basis(basis, np.zeros((6, 6)), dt=0.05)
    assert np.abs(out.B - basis.B).max() < 1e-12
    assert out.lam is basis.lam


def test_propagation_preserves_g_orthonormality(basis):
    G = basis.fem.mass
    M = random_skew(6, seed=3)
    b = basis
    for _ in range(40):
        b = propagate_basis(b, M, dt=0.02)
    gram = b.B.T @ (G @ b.B)
    assert np.abs(gram - np.eye(6)).max() < 1e-10


def test_cayley_step_is_second_order_in_dt(basis):
    # against the exact rotation B expm(dt M) for a frozen generator
    M = random_skew(6, seed=11)

    def err(dt):
        stepped = propagate_basis(basis, M, dt).B
        exact = orthonormalize_g(basis.B @ expm(dt * M), basis.fem.mass)
        return np.abs(stepped - exact).max()

    e1, e2 = err(0.02), err(0.01)
    assert e1 / e2 > 6.0  # local error, so third order in dt


def test_propagation_checks_generator_shape(basis):
    with pytest.raises(ValueError):
        propagate_basis(basis, np.zeros((4, 4)), dt=0.01)


def test_standard_reconstruction_is_plain_expansion(basis):
    coeffs = np.array([0.3, -1.2, 0.05, 0.9])
    u = reconstruct_nodal(basis, coeffs, law="standard")
    assert np.allclose(u, basis.B[:, :4] @ coeffs)


def test_soliton_reconstruction_squares_the_modes(basis):
    coeffs = np.array([2.0, 0.5])
    u = reconstruct_nodal(basis, coeffs, law="soliton")
    assert np.allclose(u, 2.0 * basis.B[:, 0] ** 2 + 0.5 * basis.B[:, 1] ** 2)


def test_reconstruction_validates_inputs(basis):
    with pytest.raises(ValueError):
        reconstruct_nodal(basis, np.zeros(7))
    with pytest.raises(ValueError):
        reconstruct_nodal(basis, np.zeros(3), law="cubic")
