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
    soliton_coefficient_rhs,
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

    qw, values, deriv = fem.quadrature()
    phi = values @ basis.B[:, 0]
    dphi = deriv @ basis.B[:, 0]
    flow = 8.0 * basis.lam[0] * alpha[0] * phi * dphi
    oracle = (values @ basis.B).T @ (qw * flow)
    denom = np.linalg.norm(oracle)
    assert np.linalg.norm(g - oracle) / denom < 8e-2


def test_single_soliton_amplitude_is_stationary(soliton_basis):
    # one bound state: the separated law reduces to the (1,1) entries of M
    # and D, which vanish by skewness, and the frozen law is zero by design
    fem, u0, basis = soliton_basis
    alpha0 = 4.0 * np.sqrt(-basis.lam[:1])
    for law in ("frozen", "separated"):
        model = KdvSolitonModel(n_soliton=1, amplitude_law=law)
        state = initial_state(basis, alpha0, model)
        Tp = _pair_matrix(state.T)
        gamma = model.gamma(state.coeffs, state.lam, Tp, state.aux)
        M = build_M(state.lam, contract(Tp, gamma), chi=1.0)
        rhs = model.coeff_rhs(state.coeffs, state.lam, Tp, M, state.aux, gamma)
        assert np.abs(rhs).max() < 1e-14


def test_soliton_model_law_selection(soliton_basis):
    fem, u0, basis = soliton_basis
    with pytest.raises(ValueError):
        KdvSolitonModel(1, amplitude_law="exact")
    model = KdvSolitonModel(1, amplitude_law="projected")
    state = initial_state(basis, 4.0 * np.sqrt(-basis.lam[:1]), model)
    Tp = _pair_matrix(state.T)
    gamma = model.gamma(state.coeffs, state.lam, Tp, state.aux)
    M = build_M(state.lam, contract(Tp, gamma), chi=1.0)
    rhs = model.coeff_rhs(state.coeffs, state.lam, Tp, M, state.aux, gamma)
    np.testing.assert_allclose(
        rhs, soliton_coefficient_rhs(state.coeffs, Tp, M, gamma))


def test_soliton_rhs_balances_rotation():
    # manufactured check of the least-squares identification: with a single
    # mode block, S alpha' = gamma - 2 C alpha must hold exactly when S is
    # square and well conditioned
    rng = np.random.default_rng(9)
    n, p = 6, 2
    T = rng.standard_normal((n, n, n))
    T = T + T.transpose(0, 2, 1)
    T = T + T.transpose(1, 0, 2) + T.transpose(2, 1, 0)
    A = rng.standard_normal((n, n))
    M = A - A.T
    alpha = rng.standard_normal(p)
    gamma = rng.standard_normal(n)
    rhs = soliton_coefficient_rhs(alpha, _pair_matrix(T), M, gamma)
    idx = np.arange(p)
    S = T[:, idx, idx]
    C = np.einsum("ijm,mj->ij", T[:, :p, :], M[:, :p])
    resid = S @ rhs - (gamma - 2.0 * C @ alpha)
    # lstsq residual must be orthogonal to the column space of S
    assert np.abs(S.T @ resid).max() < 1e-10


def test_soliton_model_validates_mode_count():
    with pytest.raises(ValueError):
        KdvSolitonModel(n_soliton=0)
