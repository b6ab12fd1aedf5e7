"""Equation closures: transport, KdV (both expansions), reaction."""

import numpy as np
import pytest

from laxrom import (
    AdvectionModel,
    FkppModel,
    KdvEigenModel,
    KdvSolitonModel,
    assemble,
    assemble_D,
    assemble_T,
    build_M,
    build_uniform_mesh_1d,
    contract,
    initial_state,
    kdv_one_soliton,
    pack_symmetric,
    solve_schrodinger_eig,
    symmetric_index,
)


def _pair_matrix(T):
    """The (n, n(n+1)/2) pair matrix of a symmetric (n, n, n) tensor."""
    return pack_symmetric(T)[symmetric_index(T.shape[0]).pairs]


def test_advection_gamma_formula():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((4, 4))
    D = D - D.T
    beta = rng.standard_normal(4)
    model = AdvectionModel(0.7)
    g = model.gamma(beta, None, None, {"D": D})
    np.testing.assert_allclose(g, -0.7 * D @ beta)
    assert model.override_m({"D": D}) is None
    assert AdvectionModel(0.7, exact_m=True).override_m({"D": D}) == pytest.approx(-0.7 * D)


def test_kdv_eigen_gamma_drops_third_derivative_at_chi_3():
    # at chi = 3 the closure must reduce to gamma = D (lambda beta): the
    # third-derivative matrix cannot contribute
    rng = np.random.default_rng(1)
    D = rng.standard_normal((5, 5))
    lam = rng.uniform(-2, 2, 5)
    beta = rng.standard_normal(5)
    model = KdvEigenModel(chi=3.0)
    g1 = model.gamma(beta, lam, None, {"D": D, "D3": rng.standard_normal((5, 5))})
    g2 = model.gamma(beta, lam, None, {"D": D, "D3": rng.standard_normal((5, 5))})
    np.testing.assert_allclose(g1, D @ (lam * beta))
    np.testing.assert_allclose(g1, g2)


def test_fkpp_gamma_quadratic_term():
    # one-mode sanity: gamma = (nu - lam) b - (chi + nu) T b^2
    Tp = np.array([[2.0]])  # the pair matrix of T = [[[2]]]
    model = FkppModel(nu=10.0, chi=3.0)
    g = model.gamma(np.array([0.5]), np.array([1.0]), Tp, {})
    assert g[0] == pytest.approx((10.0 - 1.0) * 0.5 - 13.0 * 2.0 * 0.25)


@pytest.fixture(scope="module")
def soliton_basis():
    fem = assemble(build_uniform_mesh_1d(-5.0, 25.0, 601), "dirichlet")
    u0 = kdv_one_soliton(4.0, 0.0, fem.coords, 0.0)
    basis = solve_schrodinger_eig(fem, u0, 1.0, 16)
    return fem, u0, basis


def test_soliton_gamma_matches_projected_flow(soliton_basis):
    # the closure contracts D and T; compare with a direct projection of
    # 8 lambda_1 alpha_1 phi_1 phi_1' (exact flow term of a single hump)
    fem, u0, basis = soliton_basis
    alpha = 4.0 * np.sqrt(-basis.lam[:1])
    Tp = _pair_matrix(assemble_T(basis))
    D = assemble_D(basis)
    model = KdvSolitonModel(n_soliton=1)
    g = model.gamma(alpha, basis.lam, Tp, {"D": D})

    qw, values, deriv = fem.qw, fem.values, fem.deriv
    phi = values @ basis.B[:, 0]
    dphi = deriv @ basis.B[:, 0]
    flow = 8.0 * basis.lam[0] * alpha[0] * phi * dphi
    oracle = (values @ basis.B).T @ (qw * flow)
    denom = np.linalg.norm(oracle)
    assert np.linalg.norm(g - oracle) / denom < 8e-2


def test_single_soliton_amplitude_is_stationary(soliton_basis):
    # the amplitudes are scattering invariants: their right-hand side is zero
    fem, u0, basis = soliton_basis
    alpha0 = 4.0 * np.sqrt(-basis.lam[:1])
    model = KdvSolitonModel(n_soliton=1)
    state = initial_state(basis, alpha0, model)
    Tp = _pair_matrix(state.T)
    gamma = model.gamma(state.coeffs, state.lam, Tp, state.aux)
    M = build_M(state.lam, contract(Tp, gamma), chi=1.0)
    assert np.array_equal(model.coeff_rhs(state.coeffs, M, gamma), np.zeros(1))


def test_soliton_model_validates_mode_count():
    with pytest.raises(ValueError):
        KdvSolitonModel(n_soliton=0)
