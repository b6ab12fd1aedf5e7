"""Schrodinger eigenbasis: spectra, orthonormality, dense and sparse solves."""

import numpy as np
import pytest

from laxrom import (
    assemble,
    build_uniform_mesh_1d,
    build_structured_square_mesh,
    eigenbasis,
    initial_projection,
    solve_schrodinger_eig,
)
from laxrom.eigenbasis import EigensolveError, use_shift_invert


@pytest.fixture(scope="module")
def interval():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 201)
    return assemble(mesh, "dirichlet")


def test_laplacian_spectrum_dirichlet(interval):
    # zero potential: lambda_m -> (m pi)^2 with O(h^2 lambda) convergence
    fem = interval
    basis = solve_schrodinger_eig(fem, np.zeros(fem.n_active), 1.0, 5)
    exact = (np.arange(1, 6) * np.pi) ** 2
    rel = np.abs(basis.lam - exact) / exact
    h = fem.mesh.nodes[1] - fem.mesh.nodes[0]
    assert np.all(rel < exact * h**2 / 4)
    assert np.all(rel < 1e-3)
    assert np.all(np.diff(basis.lam) > 0)


def test_g_orthonormal_and_residuals(interval):
    fem = interval
    x = fem.coords
    u0 = np.exp(-50 * (x - 0.4) ** 2)
    basis = solve_schrodinger_eig(fem, u0, 80.0, 12)
    gram = basis.B.T @ (fem.mass @ basis.B)
    assert np.abs(gram - np.eye(12)).max() < 1e-12
    # residual check runs inside the solver; just confirm shapes/metadata
    assert basis.n_modes == 12
    assert basis.chi == 80.0
    assert np.array_equal(basis.potential, u0)


def test_sign_convention_deterministic(interval):
    fem = interval
    u0 = np.exp(-100 * (fem.coords - 0.3) ** 2)
    a = solve_schrodinger_eig(fem, u0, 120.0, 8)
    b = solve_schrodinger_eig(fem, u0, 120.0, 8)
    assert np.array_equal(a.B, b.B)
    # the first entry of every mode with half its largest magnitude is positive
    mag = np.abs(a.B)
    pick = np.argmax(mag >= 0.5 * mag.max(axis=0), axis=0)
    assert np.all(a.B[pick, np.arange(8)] > 0)


def test_eigenvalue_monotonicity_in_chi(interval):
    # min-max: a deeper well (larger chi) can only lower each eigenvalue
    fem = interval
    u0 = np.exp(-250 * (fem.coords - 0.5) ** 2)
    lams = []
    for chi in (10.0, 50.0, 150.0):
        lams.append(solve_schrodinger_eig(fem, u0, chi, 6).lam)
    lams = np.array(lams)
    assert np.all(np.diff(lams, axis=0) < 1e-10)


def test_bound_state_count_square_well():
    # -phi'' - chi u phi on a wide box with a deep bump: ground state below 0
    mesh = build_uniform_mesh_1d(-10.0, 10.0, 400)
    fem = assemble(mesh, "dirichlet")
    x = fem.coords
    u0 = 2.0 / np.cosh(x) ** 2
    basis = solve_schrodinger_eig(fem, u0, 1.0, 4)
    assert basis.lam[0] == pytest.approx(-1.0, abs=5e-3)
    assert basis.lam[1] > 0


def test_initial_projection_error_decreases(interval):
    fem = interval
    u0 = np.exp(-250 * (fem.coords - 0.25) ** 2)
    errs = []
    for nm in (5, 10, 20):
        basis = solve_schrodinger_eig(fem, u0, 150.0, nm)
        beta, err = initial_projection(basis, u0)
        assert beta.shape == (nm,)
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]
    # frozen regression: 20 modes capture the Gaussian to < 1% relative
    assert errs[2] / fem.norm(u0) < 1e-2


def test_truncate_views_leading_modes(interval):
    fem = interval
    u0 = np.exp(-250 * (fem.coords - 0.25) ** 2)
    basis = solve_schrodinger_eig(fem, u0, 150.0, 10)
    basis.operators["T"] = None
    sub = basis.truncate(4)
    assert sub.operators == {}  # its own, filled on first use
    assert sub.n_modes == 4
    assert np.shares_memory(sub.B, basis.B)
    assert np.array_equal(sub.lam, basis.lam[:4])
    assert basis.root is None and sub.root is basis and sub.truncate(2).root is basis
    with pytest.raises(ValueError):
        basis.truncate(11)


def test_complete_basis_reproduces_any_vector():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 60)
    fem = assemble(mesh, "dirichlet")
    u0 = np.sin(np.pi * fem.coords) + 0.3 * np.sin(3 * np.pi * fem.coords)
    basis = solve_schrodinger_eig(fem, u0 + 0.5, 25.0, fem.n_active)
    beta, err = initial_projection(basis, u0)
    assert err < 1e-10


def test_projection_2d_neumann():
    mesh = build_structured_square_mesh(16)
    fem = assemble(mesh, "neumann")
    xy = fem.coords
    u0 = np.exp(-30 * ((xy[:, 0] - 0.5) ** 2 + (xy[:, 1] - 0.5) ** 2))
    basis = solve_schrodinger_eig(fem, u0, 40.0, 25)
    gram = basis.B.T @ (fem.mass @ basis.B)
    assert np.abs(gram - np.eye(25)).max() < 1e-12
    _, err = initial_projection(basis, u0)
    assert err / fem.norm(u0) < 0.1


def test_solver_input_validation(interval):
    fem = interval
    with pytest.raises(ValueError):
        solve_schrodinger_eig(fem, np.zeros(fem.n_active), -1.0, 5)
    with pytest.raises(ValueError):
        solve_schrodinger_eig(fem, np.zeros(fem.n_active), 1.0, 0)
    with pytest.raises(ValueError):
        solve_schrodinger_eig(fem, np.zeros(fem.n_active), 1.0, fem.n_active + 1)


def _dense_and_sparse(monkeypatch, fem, u0, chi, n_modes):
    assert use_shift_invert(fem.n_active, n_modes)
    sparse = solve_schrodinger_eig(fem, u0, chi, n_modes)
    with monkeypatch.context() as m:
        m.setattr(eigenbasis, "use_shift_invert", lambda n_dofs, n_modes: False)
        dense = solve_schrodinger_eig(fem, u0, chi, n_modes)
    np.testing.assert_allclose(sparse.lam, dense.lam, rtol=1e-9, atol=0.0)
    gram = sparse.B.T @ (fem.mass @ sparse.B)
    assert np.abs(gram - np.eye(n_modes)).max() < 1e-12
    return sparse, dense


def test_shift_invert_matches_dense_1d(monkeypatch):
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 501), "dirichlet")
    u0 = np.exp(-250 * (fem.coords - 0.4) ** 2)
    sparse, dense = _dense_and_sparse(monkeypatch, fem, u0, 150.0, 20)
    # simple spectrum: after the sign fix the modes agree entry by entry
    np.testing.assert_allclose(sparse.B, dense.B, rtol=0.0, atol=1e-8)


def test_shift_invert_matches_dense_on_a_large_share_of_a_small_mesh(monkeypatch):
    # 121 dofs and a third of their spectrum
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 121), "neumann")
    assert fem.n_active == 121
    u0 = np.exp(-100 * (fem.coords - 0.4) ** 2)
    sparse, dense = _dense_and_sparse(monkeypatch, fem, u0, 150.0, 40)
    np.testing.assert_allclose(sparse.B, dense.B, rtol=0.0, atol=1e-8)


def test_shift_invert_symmetric_double_well(monkeypatch):
    # the fkpp1d preset: the mesh and u0 share the reflection x -> 1 - x and
    # the lowest modes come in near-degenerate even/odd pairs, so a start
    # vector with that symmetry could leave the odd modes out
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 251), "neumann")
    x = fem.coords
    u0 = np.exp(-100 * (x - 0.25) ** 2) + np.exp(-100 * (x - 0.75) ** 2)
    sparse, dense = _dense_and_sparse(monkeypatch, fem, u0, 500.0, 16)
    assert sparse.lam[1] - sparse.lam[0] < 1e-2 * abs(sparse.lam[0])
    # the largest |entry| of a mode is tied between x and 1 - x, yet the
    # sign fix gives both solves the same modes entry by entry
    np.testing.assert_allclose(sparse.B, dense.B, rtol=0.0, atol=1e-8)


def test_shift_invert_matches_dense_2d_clusters(monkeypatch):
    fem = assemble(build_structured_square_mesh(20), "neumann")
    assert fem.n_active >= 400
    xy = fem.coords
    u0 = np.exp(-30 * ((xy[:, 0] - 0.5) ** 2 + (xy[:, 1] - 0.5) ** 2))
    sparse, dense = _dense_and_sparse(monkeypatch, fem, u0, 40.0, 30)
    # the near-symmetric square has nearly equal pairs, inside which the
    # basis is arbitrary: compare each cluster's span by principal angles
    lam = dense.lam
    cuts = np.flatnonzero(np.diff(lam) > 1e-2 * (np.abs(lam[1:]) + 1.0)) + 1
    clusters = np.split(np.arange(lam.size), cuts)
    assert max(c.size for c in clusters) > 1
    for c in clusters:
        cosines = np.linalg.svd(sparse.B[:, c].T @ (fem.mass @ dense.B[:, c]),
                                compute_uv=False)
        assert cosines.min() > 1.0 - 1e-9


def test_shift_invert_threshold():
    # eigsh serves every request below the full spectrum
    assert use_shift_invert(199, 5)          # the unit-test interval
    assert use_shift_invert(600, 120)        # a fifth of the spectrum
    assert use_shift_invert(5776, 30)        # the 2D preset
    assert use_shift_invert(500, 499)
    assert not use_shift_invert(500, 500)    # the full spectrum


def test_shift_invert_residual_check_catches_loose_solve(monkeypatch):
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 500), "neumann")
    u0 = np.exp(-250 * (fem.coords - 0.25) ** 2)
    eigsh = eigenbasis.spla.eigsh

    def loose(*args, **kwargs):
        return eigsh(*args, **{**kwargs, "tol": 1e-2, "ncv": 22})

    monkeypatch.setattr(eigenbasis.spla, "eigsh", loose)
    assert use_shift_invert(fem.n_active, 20)
    with pytest.raises(EigensolveError, match="residual"):
        solve_schrodinger_eig(fem, u0, 100.0, 20)
