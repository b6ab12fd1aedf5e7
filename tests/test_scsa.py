"""Signal expansions through the Schrodinger spectrum."""

import re

import numpy as np
import pytest

from laxrom import (
    ExperimentConfig,
    assemble,
    build_uniform_mesh_1d,
    chi_sweep,
    eigen_expansion,
    eigenbasis,
    harness,
    read_signal_csv,
    scsa,
    shift_nonnegative,
    soliton_amplitudes,
    soliton_expansion,
    solve_schrodinger_eig,
)


@pytest.fixture(scope="module")
def interval():
    return assemble(build_uniform_mesh_1d(0.0, 1.0, 301), "neumann")


@pytest.fixture(scope="module")
def double_gaussian(interval):
    x = interval.coords
    return np.exp(-300.0 * (x - 0.35) ** 2) + 0.6 * np.exp(-400.0 * (x - 0.7) ** 2)


@pytest.fixture(scope="module")
def preset_signal():
    """The scsa preset's mesh and shifted signal: 4 bound states at chi =
    150, 8 at chi = 500."""
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 500), "neumann")
    x = fem.coords
    u, _ = shift_nonnegative(np.exp(-250.0 * (x - 0.25) ** 2)
                             - np.exp(-250.0 * (x - 0.75) ** 2))
    return fem, u


def test_shift_nonnegative_roundtrip():
    u = np.array([-0.3, 0.2, 1.0])
    shifted, offset = shift_nonnegative(u)
    assert shifted.min() == 0.0
    np.testing.assert_allclose(shifted + offset, u)


def test_reflectionless_single_hump_is_one_bound_state():
    # 2 sech^2 at chi = 1 is reflectionless: a single squared bound state
    # reproduces it almost exactly
    fem = assemble(build_uniform_mesh_1d(-12.0, 12.0, 601), "dirichlet")
    u = 2.0 / np.cosh(fem.coords) ** 2
    approx, err, n_neg = soliton_expansion(u, 1.0, fem)
    assert n_neg == 1
    assert err < 2e-2


def test_eigen_expansion_error_decreases(interval, double_gaussian):
    errs = [eigen_expansion(double_gaussian, 250.0, n, interval)[1]
            for n in (5, 15, 30)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-2


def test_soliton_expansion_requires_nonnegative(interval):
    with pytest.raises(ValueError):
        soliton_expansion(np.full(interval.n_active, -0.1), 10.0, interval)


def test_soliton_less_accurate_than_eigen_here(interval, double_gaussian):
    # generic (non-reflectionless) signal: the bound-state sum saturates
    # while the projection keeps converging
    _, err_sol, n_neg = soliton_expansion(double_gaussian, 250.0, interval)
    _, err_eig = eigen_expansion(double_gaussian, 250.0, max(n_neg, 10), interval)
    assert err_sol > err_eig


def test_chi_sweep_eigen_matches_direct(interval, double_gaussian):
    sweep = chi_sweep(double_gaussian, [150.0, 250.0], 8, interval, methods=("eigen",))["eigen"]
    assert {c for c, _, _ in sweep.rows} == {150.0, 250.0}
    # one eigensolve per chi must agree with an explicit projection
    direct = eigen_expansion(double_gaussian, 250.0, 8, interval)[1]
    table = {(c, n): e for c, n, e in sweep.rows}
    assert table[(250.0, 8)] == pytest.approx(direct, rel=1e-8, abs=1e-12)
    # per-budget winners cover every mode count once
    assert [n for n, _, _ in sweep.best] == list(range(1, 9))
    # down to errors of ~1e-9, where a Parseval remainder cancels to zero
    sweep = chi_sweep(double_gaussian, [50.0], 60, interval, methods=("eigen",))["eigen"]
    for chi, n, err in sweep.rows:
        direct = eigen_expansion(double_gaussian, chi, n, interval)[1]
        assert err == pytest.approx(direct, rel=1e-6)


def test_chi_sweep_soliton_monotone_in_budget(interval, double_gaussian):
    sweep = chi_sweep(double_gaussian, [250.0], 6, interval, methods=("soliton",))["soliton"]
    errs = [e for _, n, e in sweep.rows]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_bound_state_growth_matches_full_spectrum(monkeypatch, preset_signal):
    # at chi = 500 the first request of 8 comes back all bound and is
    # doubled once
    fem, u = preset_signal
    requested = []
    solve = scsa.solve_schrodinger_eig

    def counting(fem, u, chi, n_modes):
        requested.append(n_modes)
        return solve(fem, u, chi, n_modes)

    monkeypatch.setattr(scsa, "solve_schrodinger_eig", counting)
    for chi, n_bound, requests in ((150.0, 4, [8]), (500.0, 8, [8, 16])):
        requested.clear()
        approx, err, n_neg = soliton_expansion(u, chi, fem)
        assert requested == requests
        full = solve(fem, u, chi, fem.n_active)
        neg = full.lam < -1e-8
        expect = (4.0 / chi) * ((full.B[:, neg] ** 2) @ np.sqrt(-full.lam[neg]))
        assert n_neg == np.count_nonzero(neg) == n_bound
        assert fem.norm(approx - expect) <= 1e-9 * fem.norm(expect)
        sweep = chi_sweep(u, [chi], 10, fem, methods=("soliton",))["soliton"]
        assert sweep.rows[-1][2] == pytest.approx(err, rel=1e-12)


def test_chi_sweep_soliton_below_the_bound_state_count(preset_signal):
    # at chi = 500 a cap of 4 keeps the 4 deepest of the 8 bound states,
    # read off the sweep's one 4-mode solve.  The reference is the 16-mode
    # solve of soliton_expansion's search (the dense full spectrum agrees
    # with both to about 1.5e-12 only, limited by its own eigenvalues)
    fem, u = preset_signal
    chi = 500.0
    basis = solve_schrodinger_eig(fem, u, chi, 16)
    amplitudes = soliton_amplitudes(basis)
    assert amplitudes.size == 8
    sweep = chi_sweep(u, [chi], 4, fem)
    partial = np.cumsum(basis.B[:, :4] ** 2 * amplitudes[:4], axis=1)
    expect = [fem.norm(u - partial[:, n]) / fem.norm(u) for n in range(4)]
    assert [n for _, n, _ in sweep["soliton"].rows] == [1, 2, 3, 4]
    got = [err for _, _, err in sweep["soliton"].rows]
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)
    # the eigen rows come from the same solve
    eig = chi_sweep(u, [chi], 4, fem, methods=("eigen",))["eigen"]
    assert sweep["eigen"].rows == eig.rows


@pytest.mark.parametrize("method, chi, n",
                         [("eigen", 250.0, 20), ("eigen", 250.0, 50), ("soliton", 500.0, 16)])
def test_expansions_are_the_sweep_rows_bit_for_bit(preset_signal, method, chi, n):
    # one path forms every expansion, so the same solve gives the same
    # error (soliton_expansion's search ends on a 16-mode solve at chi = 500)
    fem, u = preset_signal
    expansion = (eigen_expansion(u, chi, n, fem) if method == "eigen"
                 else soliton_expansion(u, chi, fem))
    assert expansion[1] == chi_sweep(u, [chi], n, fem, methods=(method,))[method].rows[-1][2]


def test_bound_state_rule_has_one_owner(monkeypatch, preset_signal):
    # the KdV soliton count, the soliton expansion and the sweep's soliton
    # rows all read eigenbasis.BOUND_STATE_TOL through soliton_amplitudes
    fem, u = preset_signal
    chi = 500.0
    basis = solve_schrodinger_eig(fem, u, chi, 16)
    between = -0.5 * (basis.lam[3] + basis.lam[4])  # cuts 8 bound states to 4
    for tol, count in ((eigenbasis.BOUND_STATE_TOL, 8), (between, 4)):
        monkeypatch.setattr(eigenbasis, "BOUND_STATE_TOL", tol)
        np.testing.assert_array_equal(soliton_amplitudes(basis),
                                      4.0 * np.sqrt(-basis.lam[:count]) / chi)
        model = harness._make_model(ExperimentConfig(problem="kdv_soliton"), basis)
        assert model.n_soliton == count
        assert soliton_expansion(u, chi, fem)[2] == count
        rows = chi_sweep(u, [chi], 10, fem, methods=("soliton",))["soliton"].rows
        errs = [err for _, _, err in rows]
        assert errs.index(errs[-1]) + 1 == count  # the sum stops growing after count states


def test_chi_sweep_validates_input(interval, double_gaussian):
    with pytest.raises(ValueError):
        chi_sweep(double_gaussian, [10.0], 4, interval, methods=("fourier",))
    with pytest.raises(ValueError):
        chi_sweep(double_gaussian, [10.0], 0, interval)
    with pytest.raises(ValueError):
        chi_sweep(np.zeros(interval.n_active), [10.0], 4, interval)


def test_expansions_reject_a_zero_signal_like_chi_sweep():
    # a relative error of a zero signal is undefined, not a perfect fit
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 101), "neumann")
    zero = np.zeros(fem.n_active)
    with pytest.raises(ValueError, match="zero signal"):
        eigen_expansion(zero, 10.0, 4, fem)
    with pytest.raises(ValueError, match="zero signal"):
        soliton_expansion(zero, 10.0, fem)
    with pytest.raises(ValueError, match="zero signal"):
        chi_sweep(zero, [10.0], 4, fem)


def test_read_signal_csv_roundtrip(tmp_path):
    x = np.linspace(0.0, 1.0, 64)
    u = np.sin(2 * np.pi * x)
    p = tmp_path / "sig.csv"
    np.savetxt(p, np.column_stack([x, u]), delimiter=",", header="x,u")
    xr, ur = read_signal_csv(p)
    np.testing.assert_allclose(xr, x)
    np.testing.assert_allclose(ur, u)
    # unsorted rows are reordered
    perm = np.random.default_rng(0).permutation(x.size)
    np.savetxt(p, np.column_stack([x[perm], u[perm]]), delimiter=",")
    xr, ur = read_signal_csv(p)
    np.testing.assert_allclose(xr, x)
    np.testing.assert_allclose(ur, u)


def test_read_signal_csv_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.csv"
    np.savetxt(p, np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 3.0]]), delimiter=",")
    with pytest.raises(ValueError):
        read_signal_csv(p)
    np.savetxt(p, np.array([0.0, 1.0, 2.0]), delimiter=",")
    with pytest.raises(ValueError):
        read_signal_csv(p)


def test_read_signal_csv_one_row_reports_too_few_samples(tmp_path):
    p = tmp_path / "signal.csv"
    p.write_text("x,u\n0.5,1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: need at least 3 samples$"):
        read_signal_csv(p)


@pytest.mark.parametrize("column, value", [(1, np.nan), (1, np.inf), (0, np.nan), (0, -np.inf)])
def test_read_signal_csv_rejects_non_finite_samples(tmp_path, column, value):
    p = tmp_path / "signal.csv"
    data = np.column_stack([np.linspace(0.0, 1.0, 5), np.ones(5)])
    data[2, column] = value
    np.savetxt(p, data, delimiter=",", header="x,u", comments="")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: non-finite sample"):
        read_signal_csv(p)
