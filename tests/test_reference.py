"""Reference solutions the reduced runs are scored against."""

import numpy as np
import pytest

from laxrom import (
    assemble,
    assemble_weighted_mass,
    build_structured_square_mesh,
    build_uniform_mesh_1d,
    fkpp_reference,
    kdv_n_soliton,
    kdv_one_soliton,
    reference,
)


def test_one_soliton_profile_and_speed():
    x = np.linspace(-10.0, 10.0, 2001)
    beta = 4.0
    u = kdv_one_soliton(beta, 0.0, x, 0.0)
    assert u.max() == pytest.approx(beta / 2, abs=1e-6)
    assert x[np.argmax(u)] == pytest.approx(0.0, abs=1e-2)
    # profile at time t equals the initial one shifted by beta*t
    ut = kdv_one_soliton(beta, 0.0, x, 0.5)
    np.testing.assert_allclose(ut, kdv_one_soliton(beta, beta * 0.5, x, 0.0), atol=1e-12)
    with pytest.raises(ValueError):
        kdv_one_soliton(-1.0, 0.0, x, 0.0)


def test_n_soliton_reduces_to_closed_form_for_one():
    # det formula with a single (c, k) pair must equal the sech^2 soliton
    # with speed 4k^2 and offset -(log c - log sqrt(2k))/k
    x = np.linspace(-15.0, 15.0, 1501)
    for c1, k1 in ((np.sqrt(2.0), 1.0), (0.8, 1.3)):
        x0 = -(np.log(c1) - 0.5 * np.log(2.0 * k1)) / k1
        for t in (0.0, 0.4):
            u = kdv_n_soliton([c1], [k1], x, t)
            v = kdv_one_soliton(4.0 * k1**2, x0, x, t)
            assert np.abs(u - v).max() < 1e-10


def test_three_soliton_probe_values():
    # values checked against an independent Fourier pseudo-spectral
    # integration of the equation (agreement to ~1e-11)
    c = np.array([5.0e-2, 1.5e-1, 1.0e1])
    k = np.array([1.0, 1.5, 1.75])
    probes = np.array([0.0, 5.0, 8.0])
    np.testing.assert_allclose(
        kdv_n_soliton(c, k, probes, 0.0),
        [0.80201708, 0.70489785, 0.22841826], atol=1e-7)
    np.testing.assert_allclose(
        kdv_n_soliton(c, k, probes, 0.5),
        [1.83675750e-04, 4.74838993e+00, 1.51897720e+00], rtol=1e-7, atol=1e-9)


def test_n_soliton_input_validation():
    x = np.linspace(-1, 1, 11)
    with pytest.raises(ValueError):
        kdv_n_soliton([1.0, 2.0], [1.0], x, 0.0)
    with pytest.raises(ValueError):
        kdv_n_soliton([1.0], [-1.0], x, 0.0)


def _log_det_u(c, k, x, t, h):
    # 2 d^2/dx^2 log det(I + A) by central differences of step h
    c, k = np.asarray(c), np.asarray(k)

    def log_det(xs):
        e = c[None, :] * np.exp(k[None, :] * xs[:, None] - 4.0 * k**3 * t)
        A = e[:, :, None] * e[:, None, :] / (k[:, None] + k[None, :])
        return np.log(np.linalg.det(np.eye(k.size) + A))

    return 2.0 * (log_det(x + h) - 2.0 * log_det(x) + log_det(x - h)) / h**2


@pytest.mark.parametrize("c, k", [
    ([0.5, 2.0], [0.8, 1.4]),
    ([5.0e-2, 1.5e-1, 1.0e1], [1.0, 1.5, 1.75]),
])
def test_n_soliton_matches_determinant_oracle(c, k):
    x = np.linspace(-10.0, 10.0, 801)
    for t in (0.0, 0.3):
        u = kdv_n_soliton(c, k, x, t)
        want = _log_det_u(c, k, x, t, h=1e-3)
        # central-difference truncation and roundoff, with |u| of order 1-5
        assert np.abs(u - want).max() < 1e-5 * np.abs(want).max()


def test_n_soliton_stays_finite_at_extreme_phases():
    c = np.array([5.0e-2, 1.5e-1, 1.0e1])
    k = np.array([1.0, 1.5, 1.75])
    far = np.array([-1.0e4, -5.0e3, 5.0e3, 1.0e4])
    u = kdv_n_soliton(c, k, far, 0.0)
    assert np.all(np.isfinite(u)) and np.abs(u).max() < 1e-12
    # at t = 1e3 the solitons sit near x = 4 k^2 t, far right of the window
    x = np.linspace(-15.0, 15.0, 301)
    u = kdv_n_soliton(c, k, x, 1.0e3)
    assert np.all(np.isfinite(u)) and np.abs(u).max() < 1e-12


def test_n_soliton_time_column_matches_per_level_calls():
    c, k = [5.0e-2, 1.5e-1, 1.0e1], [1.0, 1.5, 1.75]
    x = np.linspace(-15.0, 15.0, 151)
    times = np.linspace(0.0, 0.5, 11)
    block = kdv_n_soliton(c, k, x[None, :], times[:, None])
    assert block.shape == (times.size, x.size)
    for row, t in zip(block, times):
        np.testing.assert_array_equal(row, kdv_n_soliton(c, k, x, t))


@pytest.mark.filterwarnings("error")
def test_n_soliton_equal_wavenumbers_merge_into_one_soliton():
    # A is rank one for k = (1, 1): det(I + A) = 1 + (c1^2 + c2^2) e^{2 theta} / 2k,
    # the one-soliton of c^2 = c1^2 + c2^2 = 2k (speed 4, offset 0), and the
    # pair term log|k1 - k2| = log 0 is never evaluated
    x = np.linspace(-15.0, 15.0, 301)
    for t in (0.0, 0.4):
        u = kdv_n_soliton([1.0, 1.0], [1.0, 1.0], x, t)
        assert np.abs(u - kdv_n_soliton([np.sqrt(2.0)], [1.0], x, t)).max() < 1e-12
        assert np.abs(u - kdv_one_soliton(4.0, 0.0, x, t)).max() < 1e-12


def test_fkpp_constant_state_follows_logistic():
    # spatially constant data under Neumann conditions: diffusion drops out
    # and every node obeys the logistic law u' = nu u (1 - u)
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 41), "neumann")
    nu, u_init, t_end = 10.0, 0.1, 0.1
    exact = 0.23196931668407395
    errs = []
    for dt in (2e-3, 1e-3):
        n = int(round(t_end / dt))
        series = fkpp_reference(fem, np.full(fem.n_active, u_init), nu, dt, n)
        assert series.shape == (n + 1, fem.n_active)
        errs.append(np.abs(series[-1] - exact).max())
    assert errs[-1] < 1e-5
    # halving the step should cut the error by about 4 (second order)
    assert errs[0] / errs[1] > 3.0


def test_fkpp_front_saturates_below_carrying_capacity():
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 251), "dirichlet")
    x = fem.coords
    u0 = np.exp(-100.0 * (x - 0.25) ** 2) + np.exp(-100.0 * (x - 0.75) ** 2)
    series = fkpp_reference(fem, u0, 1.0e3, 7.5e-5, 100)
    assert np.all(np.isfinite(series))
    assert series[-1].max() < 1.02
    assert series[-1].max() > 0.99  # the plateau has formed by t_max
    with pytest.raises(ValueError):
        fkpp_reference(fem, u0[:-1], 1.0e3, 7.5e-5, 10)


@pytest.mark.parametrize("space", ["neumann_1d", "square_2d"])
def test_square_load_matches_weighted_mass(space):
    # the FKPP reaction's quadratic load, taken at the quadrature points,
    # equals W(u) u with the assembled weighted mass matrix
    if space == "neumann_1d":
        fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 101), "neumann")
        u = np.exp(-100.0 * (fem.coords - 0.25) ** 2) + 0.3 * fem.coords
    else:
        fem = assemble(build_structured_square_mesh(20), "neumann")
        xy = fem.coords
        u = np.exp(-50.0 * ((xy[:, 0] - 0.5) ** 2 + (xy[:, 1] - 0.25) ** 2)) - 0.2 * xy[:, 0]
    want = assemble_weighted_mass(fem, u) @ u
    got = reference._square_load(fem)(u)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
