"""Reduced time integration: generator assembly, midpoint stepping."""

import re

import numpy as np
import pytest

from laxrom import (
    AdvectionModel,
    FixedPointError,
    KdvEigenModel,
    SolverConfig,
    assemble,
    assemble_T,
    build_M,
    build_uniform_mesh_1d,
    frobenius_norm_sq,
    initial_projection,
    initial_state,
    mode_indicator,
    run,
    solve_schrodinger_eig,
    step_midpoint,
)


def test_generator_hand_checked_entry():
    # lam = [0, 1], gamma = [1/2, 0] and the only nonzero couplings the
    # permutations of T_{001} = 1 give M_01 = 1/(0-1) * 1 * 1/2 = -1/2
    lam = np.array([0.0, 1.0])
    T = np.zeros((2, 2, 2))
    T[0, 0, 1] = T[0, 1, 0] = T[1, 0, 0] = 1.0
    gamma = np.array([0.5, 0.0])
    M = build_M(lam, T, gamma, chi=1.0)
    assert M[0, 1] == pytest.approx(-0.5, rel=1e-14)
    assert M[1, 0] == pytest.approx(0.5, rel=1e-14)
    assert M[0, 0] == M[1, 1] == 0.0


def test_generator_exactly_skew():
    rng = np.random.default_rng(5)
    lam = np.sort(rng.uniform(-3, 3, size=7))
    T = rng.standard_normal((7, 7, 7))
    T = T + T.transpose(0, 2, 1)
    T = T + T.transpose(1, 0, 2) + T.transpose(2, 1, 0)
    gamma = rng.standard_normal(7)
    M = build_M(lam, T, gamma, chi=2.5)
    assert np.array_equal(M, -M.T)


def test_generator_degenerate_pairs_masked():
    lam = np.array([1.0, 1.0 + 1e-12, 4.0])
    T = np.ones((3, 3, 3))
    gamma = np.ones(3)
    M = build_M(lam, T, gamma, chi=1.0, tol_deg=1e-8)
    assert M[0, 1] == 0.0 and M[1, 0] == 0.0
    assert M[0, 2] != 0.0


def test_indicators():
    M = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert frobenius_norm_sq(M) == pytest.approx(8.0)
    assert mode_indicator(M) == pytest.approx([4.0, 4.0])


@pytest.fixture(scope="module")
def small_advection():
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 121), "dirichlet")
    x = fem.coords
    u0 = np.exp(-250.0 * (x - 0.25) ** 2)
    basis = solve_schrodinger_eig(fem, u0, 60.0, 5)
    beta, _ = initial_projection(basis, u0)
    return basis, beta, AdvectionModel(0.5)


def test_midpoint_is_second_order(small_advection):
    basis, beta, model = small_advection
    t_end = 0.032
    sols = {}
    for dt in (8e-3, 4e-3, 2e-3):
        cfg = SolverConfig(chi=60.0, dt=dt, t_max=t_end)
        sols[dt] = run(basis, beta, model, cfg).last.coeffs
    e1 = np.linalg.norm(sols[8e-3] - sols[2e-3])
    e2 = np.linalg.norm(sols[4e-3] - sols[2e-3])
    # halving dt should cut the error by about 4 (Richardson against dt/4)
    assert e1 / e2 > 3.0


def test_midpoint_conserves_tensor_norm(small_advection):
    basis, beta, model = small_advection
    cfg = SolverConfig(chi=60.0, dt=2e-3, t_max=0.1)
    state = initial_state(basis, beta, model)
    t_norm0 = np.linalg.norm(state.T.ravel())
    for _ in range(cfg.n_steps()):
        state, _ = step_midpoint(state, model, cfg)
    drift = abs(np.linalg.norm(state.T.ravel()) - t_norm0) / t_norm0
    assert drift < 1e-10


def test_midpoint_reports_nonconvergence(small_advection):
    basis, beta, model = small_advection
    cfg = SolverConfig(chi=60.0, dt=5e-3, t_max=0.1, fp_max_iters=1, fp_tol=1e-14)
    state = initial_state(basis, beta, model)
    with pytest.raises(FixedPointError, match=r"^at t=0: no convergence in 1 iterations"):
        for _ in range(cfg.n_steps()):
            state, _ = step_midpoint(state, model, cfg)
    # run names the mode count and the index of the failed step
    with pytest.raises(FixedPointError, match=r"^N_M=5 step 0 at t=0: no convergence"):
        run(basis, beta, model, cfg)


def test_run_reports_failed_step(small_advection):
    # a closure that turns to NaN after its 20th call fails a few steps in
    basis, beta, _ = small_advection

    class NanAfter20(AdvectionModel):
        calls = 0

        def gamma(self, *args):
            self.calls += 1
            return super().gamma(*args) * (1.0 if self.calls <= 20 else np.nan)

    cfg = SolverConfig(chi=60.0, dt=4e-3, t_max=0.04)
    with pytest.raises(FixedPointError) as info:
        run(basis, beta, NanAfter20(0.5), cfg)
    found = re.fullmatch(r"N_M=5 step (\d+) at t=(\S+): midpoint iteration diverged",
                         str(info.value))
    assert found is not None, str(info.value)
    k = int(found[1])
    assert k > 0 and float(found[2]) == pytest.approx(k * cfg.dt)


@pytest.mark.parametrize("model", [AdvectionModel(0.5), KdvEigenModel(60.0)])
def test_state_holds_unique_tensor_entries(small_advection, model):
    basis, beta, _ = small_advection
    state = initial_state(basis, beta, model)
    n, p = basis.n_modes, beta.size
    aux = len(model.required_aux)
    assert state.y.shape == (p + n + n * (n + 1) * (n + 2) // 6 + n * n * aux,)
    T = state.T
    assert T.shape == (n, n, n) and not T.flags.writeable
    assert state.T is T
    np.testing.assert_array_equal(T, assemble_T(basis))
    np.testing.assert_array_equal(state.layout.split(state.y)[2], T)


def test_run_records_trajectory(small_advection):
    basis, beta, model = small_advection
    cfg = SolverConfig(chi=60.0, dt=4e-3, t_max=0.04)
    traj = run(basis, beta, model, cfg)
    assert traj.n_steps == 10
    assert traj.times.shape == (11,)
    assert traj.coeffs.shape == (11, 5)
    assert traj.lambdas.shape == (11, 5)
    assert traj.m_half.shape == (10, 5, 5)
    assert np.all(np.isfinite(traj.frob))
    assert traj.times[-1] == pytest.approx(0.04)
    np.testing.assert_allclose(traj.coeffs[0], beta)
    with pytest.raises(ValueError):
        run(basis, beta, model, SolverConfig(chi=61.0, dt=4e-3, t_max=0.04))


def test_run_keeps_initial_state_intact(small_advection):
    # the trajectory keeps the initial state without a copy: stepping must
    # never write into a state vector
    basis, beta, model = small_advection
    traj = run(basis, beta, model, SolverConfig(chi=60.0, dt=4e-3, t_max=0.04))
    np.testing.assert_array_equal(traj.first.T, assemble_T(basis))
    np.testing.assert_array_equal(traj.first.coeffs, beta)
    assert not traj.first.y.flags.writeable


def test_step_returns_generator_at_midpoint(small_advection):
    basis, beta, model = small_advection
    cfg = SolverConfig(chi=60.0, dt=4e-3, t_max=0.04)
    state0 = initial_state(basis, beta, model)
    state1, M_half = step_midpoint(state0, model, cfg)
    coeffs, lam, T, aux = state0.layout.split(0.5 * (state0.y + state1.y))
    gamma = model.gamma(coeffs, lam, T, aux)
    np.testing.assert_array_equal(M_half, build_M(lam, T, gamma, cfg.chi, cfg.tol_deg))


def test_config_rejects_nonmultiple_horizon():
    with pytest.raises(ValueError):
        SolverConfig(chi=1.0, dt=3e-3, t_max=0.01).n_steps()
