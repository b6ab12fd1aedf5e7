"""Reduced time integration: generator assembly, midpoint stepping."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from laxrom import (
    AdvectionModel,
    FixedPointError,
    FkppModel,
    InvariantError,
    KdvEigenModel,
    KdvSolitonModel,
    SolverConfig,
    assemble,
    assemble_D,
    assemble_D3,
    assemble_T,
    build_M,
    build_structured_square_mesh,
    build_uniform_mesh_1d,
    contract,
    frobenius_norm_sq,
    initial_projection,
    initial_state,
    kdv_one_soliton,
    mode_indicator,
    pack_symmetric,
    run,
    solve_schrodinger_eig,
    step_midpoint,
    symmetric_index,
    unpack_symmetric,
)
from laxrom import dynamics


def test_generator_hand_checked_entry():
    # lam = [0, 1], gamma = [1/2, 0] and the only nonzero couplings the
    # permutations of T_{001} = 1 give M_01 = 1/(0-1) * 1 * 1/2 = -1/2
    lam = np.array([0.0, 1.0])
    T = np.zeros((2, 2, 2))
    T[0, 0, 1] = T[0, 1, 0] = T[1, 0, 0] = 1.0
    gamma = np.array([0.5, 0.0])
    M = build_M(lam, T @ gamma, chi=1.0)
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
    M = build_M(lam, T @ gamma, chi=2.5)
    assert np.array_equal(M, -M.T)


def test_generator_degenerate_pairs_masked():
    lam = np.array([1.0, 1.0 + 1e-12, 4.0])
    T = np.ones((3, 3, 3))
    gamma = np.ones(3)
    M = build_M(lam, T @ gamma, chi=1.0, tol_deg=1e-8)
    assert M[0, 1] == 0.0 and M[1, 0] == 0.0
    assert M[0, 2] != 0.0


def _build_M_triu(lam, theta, chi, tol_deg):
    """build_M's formula with an explicit np.triu of the quotients."""
    denom = lam[:, None] - lam[None, :]
    ok = np.abs(denom) > tol_deg * (1.0 + np.abs(lam))[:, None]
    U = np.triu(np.divide(chi * theta, denom, out=np.zeros_like(denom), where=ok), 1)
    return U - U.T


def test_generator_bitwise_equals_triu_formula():
    # random spectra with near-degenerate pairs that tol_deg masks, and
    # Theta entries of both signed zeros, over several mode counts (the
    # n = 7 repeat comes after the mask cache has moved on)
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 12, 7):
        lam = np.sort(rng.uniform(-40.0, 40.0, size=n))
        lam[1::3] = lam[0::3][: lam[1::3].size] * (1.0 + 1e-10)
        theta = rng.standard_normal((n, n))
        theta = theta + theta.T
        theta[rng.random((n, n)) < 0.2] = 0.0
        theta[rng.random((n, n)) < 0.2] = -0.0
        for chi, tol_deg in ((25.0, 1e-8), (-3.0, 2e-3)):
            M = build_M(lam, theta, chi, tol_deg)
            oracle = _build_M_triu(lam, theta, chi, tol_deg)
            assert M.tobytes() == oracle.tobytes()


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
    with pytest.raises(FixedPointError, match=r"^no convergence in 1 iterations"):
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
    rows, cols = np.triu_indices(n)
    np.testing.assert_array_equal(state.layout.split(state.y)[2], T[:, rows, cols])


def test_run_records_trajectory(small_advection):
    basis, beta, model = small_advection
    cfg = SolverConfig(chi=60.0, dt=4e-3, t_max=0.04)
    traj = run(basis, beta, model, cfg)
    assert traj.n_steps == 10
    assert traj.coeffs.shape == (11, 5)
    assert traj.frame.shape == (11, 5)
    assert traj.rotation.shape == (5, 5)
    assert np.all(np.isfinite(traj.frob))
    # level 0 is in the frame of the initial modes already
    np.testing.assert_array_equal(traj.frame[0], beta)
    np.testing.assert_allclose(traj.coeffs[0], beta)
    # the config is the only clock: neither the trajectory nor a state keeps one
    assert "times" not in {f.name for f in dataclasses.fields(traj)}
    assert "t" not in {f.name for f in dataclasses.fields(traj.last)}
    with pytest.raises(ValueError):
        run(basis, beta, model, SolverConfig(chi=61.0, dt=4e-3, t_max=0.04))


def test_run_reports_rotation_off_orthonormal(small_advection):
    # a generator with a symmetric part runs through the midpoint step, but
    # its Cayley factors are not rotations: the check at the end of the
    # first block of steps names the mode count and the step
    basis, beta, _ = small_advection

    class NonSkew(AdvectionModel):
        def override_m(self, aux):
            return -self.c * aux["D"] + 0.5 * np.eye(aux["D"].shape[0])

    cfg = SolverConfig(chi=60.0, dt=4e-3, t_max=0.4)
    assert cfg.n_steps() > dynamics._BLOCK
    with pytest.raises(InvariantError, match=rf"^N_M=5 step {dynamics._BLOCK - 1}: rotation "
                                             r"has \|Q\^T Q - I\| = "):
        run(basis, beta, NonSkew(0.5), cfg)


@pytest.fixture(scope="module")
def advection_36():
    """A 36-mode advection basis, its coefficients and a 128-step config."""
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 121), "dirichlet")
    u0 = np.exp(-250.0 * (fem.coords - 0.25) ** 2)
    basis = solve_schrodinger_eig(fem, u0, 60.0, 36)
    beta, _ = initial_projection(basis, u0)
    return basis, beta, SolverConfig(chi=60.0, dt=1.0 / 256, t_max=0.5)


def _trajectory_bytes(traj):
    arrays = [getattr(traj, f.name) for f in dataclasses.fields(traj)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)] + [traj.first.y, traj.last.y]
    return sum(a.nbytes for a in arrays)


def test_trajectory_keeps_no_per_step_matrices(advection_36):
    # at 36 modes the arrays of a trajectory stay far below one n x n
    # matrix per step
    basis, beta, cfg = advection_36
    traj = run(basis, beta, AdvectionModel(0.5), cfg)
    n, n_steps = 36, cfg.n_steps()
    assert _trajectory_bytes(traj) < n_steps * n * n * 8 / 4


def test_run_holds_no_block_of_rotations(advection_36):
    # the rotation advances one step at a time, so what a run allocates
    # beyond the trajectory it returns stays below two (64, n, n) arrays
    basis, beta, cfg = advection_36
    model = AdvectionModel(0.5)
    initial_state(basis, beta, model)  # T is assembled once, outside the span
    tracemalloc.start()
    try:
        traj = run(basis, beta, model, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = basis.n_modes
    assert cfg.n_steps() == 2 * dynamics._BLOCK
    assert peak - _trajectory_bytes(traj) < 2 * dynamics._BLOCK * n * n * 8


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
    coeffs, lam, Tp, aux = state0.layout.split(0.5 * (state0.y + state1.y))
    gamma = model.gamma(coeffs, lam, Tp, aux)
    np.testing.assert_array_equal(
        M_half, build_M(lam, contract(Tp, gamma), cfg.chi, cfg.tol_deg))


_MODELS = {
    "advection": AdvectionModel(0.5),
    "advection_exact_m": AdvectionModel(0.5, exact_m=True),
    "kdv_eigen": KdvEigenModel(60.0),
    "fkpp": FkppModel(nu=10.0, chi=60.0),
    "kdv_soliton_frozen": KdvSolitonModel(2),
}


def _model_state(small_advection, model):
    basis, beta, _ = small_advection
    coeffs = np.array([1.5, 0.8]) if model.coefficient_law == "soliton" else beta
    return initial_state(basis, coeffs, model)


def _full_tensor_rhs(y, layout, model, cfg):
    """The reduced right-hand side written from the full T by its index
    definitions."""
    coeffs, lam, t, aux = layout.views(y)
    T = unpack_symmetric(t, lam.size)
    if isinstance(model, FkppModel):
        quad = np.einsum("ijk,j,k->i", T, coeffs, coeffs)
        gamma = (model.nu - lam) * coeffs - (model.chi + model.nu) * quad
    elif isinstance(model, KdvSolitonModel):
        p = coeffs.size
        gamma = 4.0 * aux["D"] @ np.einsum("mjj,j->m", T[:, :p, :p], lam[:p] * coeffs)
    else:  # closures that do not read T
        gamma = model.gamma(coeffs, lam, None, aux)
    theta = np.einsum("ijm,m->ij", T, gamma)
    M = model.override_m(aux)
    if M is None:
        M = build_M(lam, theta, cfg.chi, cfg.tol_deg)
    if model.coefficient_law == "standard":
        dcoeffs = gamma - M @ coeffs
    else:
        dcoeffs = np.zeros_like(coeffs)
    dT = (np.einsum("li,ljk->ijk", M, T)
          + np.einsum("lj,ilk->ijk", M, T)
          + np.einsum("lk,ijl->ijk", M, T))
    return np.concatenate([
        dcoeffs,
        -cfg.chi * np.einsum("iim,m->i", T, gamma),
        pack_symmetric(dT),
        *((X @ M - M @ X).ravel() for X in aux.values()),
    ])


@pytest.mark.parametrize("name", list(_MODELS))
def test_rhs_matches_full_tensor_definition(small_advection, name):
    # the pair-matrix right-hand side agrees, field by field, with the one
    # written from the full tensor
    model = _MODELS[name]
    state = _model_state(small_advection, model)
    cfg = SolverConfig(chi=60.0, dt=4e-3, t_max=0.04)
    got = state.layout.views(dynamics._rhs(state.y, state.layout, model, cfg))
    ref = state.layout.views(_full_tensor_rhs(state.y, state.layout, model, cfg))
    for a, b in zip(got[:3] + tuple(got[3].values()), ref[:3] + tuple(ref[3].values())):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("name", list(_MODELS))
def test_step_never_unpacks_tensor(small_advection, name, monkeypatch):
    def refuse(*args):
        raise AssertionError("full (n, n, n) tensor unpacked")

    model = _MODELS[name]
    state = _model_state(small_advection, model)
    monkeypatch.setattr(dynamics, "unpack_symmetric", refuse)
    new, _ = step_midpoint(state, model, SolverConfig(chi=60.0, dt=1e-4, t_max=1e-3))
    assert new.y.shape == state.y.shape and not np.array_equal(new.y, state.y)
    with pytest.raises(AssertionError, match="unpacked"):
        new.T  # the full tensor stays available, through the patched unpack


def _plain_rhs(y, layout, model, cfg):
    """The right-hand side with every field a new array, concatenated."""
    coeffs, lam, Tp, aux = fields = layout.split(y)
    gamma, theta, M = dynamics._generator(fields, model, cfg)
    t = (M.T @ Tp).ravel()[symmetric_index(lam.size).bracket]
    return np.concatenate([
        model.coeff_rhs(coeffs, M, gamma),
        -cfg.chi * theta.diagonal(),
        t[0] + t[1] + t[2],
        *((X @ M - M @ X).ravel() for X in aux.values()),
    ])


def _plain_step(y, layout, model, cfg):
    """The implicit midpoint step with every stage a new array: (y+, M_half)."""
    scale = 1.0 + np.abs(y).max()
    new = y
    for _ in range(cfg.fp_max_iters):
        half = 0.5 * (y + new)
        prop = y + cfg.dt * _plain_rhs(half, layout, model, cfg)
        delta = np.abs(prop - new).max()
        new = prop
        if delta <= cfg.fp_tol * scale:
            break
    else:
        raise AssertionError("the plain iteration did not converge")
    *_, M_half = dynamics._generator(layout.split(0.5 * (y + new)), model, cfg)
    return new, M_half


@pytest.mark.parametrize("name", list(_MODELS))
def test_step_bitwise_equals_plain_midpoint(small_advection, name):
    # step_midpoint writes into buffers, but each operation and its order
    # stay those of the plain iteration, so 20 steps agree bit for bit
    model = _MODELS[name]
    state = _model_state(small_advection, model)
    cfg = SolverConfig(chi=60.0, dt=1e-4, t_max=2e-3)
    y = state.y
    for _ in range(cfg.n_steps()):
        state, M_half = step_midpoint(state, model, cfg)
        y, M_ref = _plain_step(y, state.layout, model, cfg)
        assert state.y.tobytes() == y.tobytes()
        assert M_half.tobytes() == M_ref.tobytes()


def test_steps_share_no_memory_with_buffers(small_advection, monkeypatch):
    # every array the dynamics allocates with empty_like is recorded: a
    # returned state is one of them, read-only, and overlaps none of the
    # others, the other state or the input state, which stays as it was
    made = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty_like(self, *args, **kwargs):
            made.append(np.empty_like(*args, **kwargs))
            return made[-1]

    model = _MODELS["kdv_eigen"]
    state0 = _model_state(small_advection, model)
    saved = state0.y.copy()
    cfg = SolverConfig(chi=60.0, dt=1e-4, t_max=1e-3)
    monkeypatch.setattr(dynamics, "np", RecordingNumpy())
    state1, _ = step_midpoint(state0, model, cfg)
    state2, _ = step_midpoint(state1, model, cfg)
    monkeypatch.undo()
    assert len(made) >= 6  # the half-step and change buffers and an RHS per step
    for state, other in ((state1, state2), (state2, state1)):
        assert not state.y.flags.writeable
        for a in [state0.y, other.y] + [b for b in made if b is not state.y]:
            assert not np.shares_memory(state.y, a)
    assert state0.y.tobytes() == saved.tobytes()


def _kdv_eigen_1d():
    fem = assemble(build_uniform_mesh_1d(-3.0, 23.0, 301), "dirichlet")
    u0 = kdv_one_soliton(4.0, 0.0, fem.coords, 0.0)
    return solve_schrodinger_eig(fem, u0, 1.0, 12), KdvEigenModel(1.0)


def _fkpp_2d():
    fem = assemble(build_structured_square_mesh(16), "neumann")
    xy = fem.coords
    u0 = np.exp(-50.0 * ((xy[:, 0] - 0.5) ** 2 + (xy[:, 1] - 0.25) ** 2))
    return solve_schrodinger_eig(fem, u0, 25.0, 12), FkppModel(nu=50.0, chi=25.0)


_ASSEMBLE = {"T": assemble_T, "D": assemble_D, "D3": assemble_D3}


@pytest.mark.parametrize("case", [_kdv_eigen_1d, _fkpp_2d], ids=["kdv_eigen_1d", "fkpp_2d"])
def test_truncated_state_holds_leading_blocks(case):
    # the operators of every mode count are the leading blocks of the one
    # assembly at the full mode count, and match their own assembly
    basis_full, model = case()
    kinds = ("T",) + model.required_aux
    full = {kind: _ASSEMBLE[kind](basis_full) for kind in kinds}
    for n in (1, 5, basis_full.n_modes):
        basis = basis_full.truncate(n)
        state = initial_state(basis, np.ones(n), model)
        got = {"T": state.T, **state.aux}
        for kind in kinds:
            lead = full[kind][(slice(n),) * full[kind].ndim]
            own = _ASSEMBLE[kind](basis)
            scale = np.abs(full[kind]).max()  # D's one-mode block is 0 but for roundoff
            assert np.abs(got[kind] - lead).max() <= 1e-13 * scale, (kind, n)
            assert np.abs(got[kind] - own).max() <= 1e-13 * scale, (kind, n)
    assert set(basis_full.operators) == set(kinds)


def test_soliton_run_keeps_amplitudes_bitwise():
    # the squared-mode amplitudes never move: every level holds the initial
    # scattering values bit for bit, while the spectrum does evolve
    fem = assemble(build_uniform_mesh_1d(-5.0, 25.0, 201), "dirichlet")
    u0 = kdv_one_soliton(4.0, 0.0, fem.coords, 0.0)
    basis = solve_schrodinger_eig(fem, u0, 1.0, 8)
    alpha0 = 4.0 * np.sqrt(-basis.lam[:1])
    traj = run(basis, alpha0, KdvSolitonModel(1), SolverConfig(chi=1.0, dt=2e-3, t_max=0.2))
    assert traj.coeffs.shape == (101, 1)
    assert np.array_equal(traj.coeffs, np.broadcast_to(alpha0, traj.coeffs.shape))
    assert not np.array_equal(traj.last.lam, traj.first.lam)


def test_config_rejects_nonmultiple_horizon():
    with pytest.raises(ValueError):
        SolverConfig(chi=1.0, dt=3e-3, t_max=0.01).n_steps()
    with pytest.raises(ValueError, match="not a multiple"):
        SolverConfig(chi=1.0, dt=3e-3, t_max=0.01).times()
