"""Output checks for the benchmark workloads.

Every check compares what laxrom wrote against a quantity computed here,
apart from the program (closed-form solitons, a separate P1 assembly and a
dense eigensolve of the pencil), or against a property the method must have.
No check compares against a stored copy of earlier output.

Each ``check_*`` function returns ``{operation: [Failure, ...]}`` with one
entry per operation of the workload; an empty list means the operation
passed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# A failure of this check is the cancellation fault of
# laxrom.scsa.chi_sweep(method="eigen") (README, "Known fault"): it fails
# the same operations on every run, so it counts in `failed` but keeps
# `correct` true.  Any other failed check makes `correct` false.
PARSEVAL = "scsa.parseval"
KNOWN_FAULTS = {PARSEVAL}


@dataclass(frozen=True)
class Failure:
    check: str
    message: str


def read_csv(path):
    """(header names, 2D array) of a CSV file written by laxrom."""
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_table(out_dir):
    """table.csv as {nm: {column: value}}."""
    header, data = read_csv(os.path.join(out_dir, "table.csv"))
    return {int(row[0]): dict(zip(header[1:], row[1:])) for row in data}


# ---------------------------------------------------------------------------
# independent P1 finite elements on a uniform 1D grid


def p1_mass_stiffness(x):
    """Dense consistent mass and stiffness matrices on the nodes ``x``."""
    n, h, i = x.size, np.diff(x), np.arange(x.size - 1)
    G, K = np.zeros((n, n)), np.zeros((n, n))
    for a, b, g, k in ((i, i, h / 3, 1 / h), (i, i + 1, h / 6, -1 / h),
                       (i + 1, i, h / 6, -1 / h), (i + 1, i + 1, h / 3, 1 / h)):
        np.add.at(G, (a, b), g)
        np.add.at(K, (a, b), k)
    return G, K


def p1_weighted_mass(x, u):
    """Dense W_ij = integral u phi_i phi_j for the P1 interpolant of u."""
    n, h, i = x.size, np.diff(x), np.arange(x.size - 1)
    ua, ub = u[:-1], u[1:]
    W = np.zeros((n, n))
    off = h * (ua + ub) / 12
    for a, b, w in ((i, i, h * (3 * ua + ub) / 12), (i, i + 1, off),
                    (i + 1, i, off), (i + 1, i + 1, h * (ua + 3 * ub) / 12)):
        np.add.at(W, (a, b), w)
    return W


def p1_norm_1d(x, v):
    """Exact L2 norm of the P1 interpolant of v on the nodes x."""
    h = np.diff(x)
    va, vb = v[:-1], v[1:]
    return float(np.sqrt(np.sum(h * (va * va + va * vb + vb * vb) / 3.0)))


def soliton(beta, x0, x, t):
    """KdV one-soliton (beta/2) sech^2(sqrt(beta)/2 (x - beta t - x0))."""
    return 0.5 * beta / np.cosh(0.5 * np.sqrt(beta) * (x - beta * t - x0)) ** 2


def snapshot_levels(t_max, dt):
    """{file tag: (time level, time)} of the four snapshots a run writes."""
    n = int(round(t_max / dt))
    return {f"t{round(100 * i / n):03d}": (i, i * dt)
            for i in sorted({0, n // 4, n // 2, n})}


# ---------------------------------------------------------------------------
# kdv1_eigen_26_36


def check_kdv(out_dir, ini, nm_list):
    """One-soliton eigen expansion: closed-form reference and error table.

    ``ini`` is the parsed config (configparser) the run used.
    """
    beta = ini.getfloat("model", "beta_speed")
    x0 = ini.getfloat("model", "x0")
    a, b = ini.getfloat("mesh", "a"), ini.getfloat("mesh", "b")
    x_full = np.linspace(a, b, ini.getint("mesh", "n_nodes"))
    levels = snapshot_levels(ini.getfloat("time", "t_max"), ini.getfloat("time", "dt"))
    table = read_table(out_dir)
    fails = {nm: [] for nm in nm_list}
    for nm in nm_list:
        bad = fails[nm].append
        if nm not in table:
            bad(Failure("kdv.row", f"no table.csv row for N_M={nm}"))
            continue
        for tag, (_, t) in levels.items():
            _, snap = read_csv(os.path.join(out_dir, f"snapshot_nm{nm:03d}_{tag}.csv"))
            x, u_ref, u_rom = snap.T
            # Dirichlet: the two boundary nodes are eliminated
            if not np.array_equal(x, x_full[1:-1]):
                bad(Failure("kdv.grid", f"{tag}: nodes differ from the mesh"))
                continue
            exact = soliton(beta, x0, x, t)
            dev = np.abs(u_ref - exact).max()
            if dev > 1e-12 * np.abs(exact).max():
                bad(Failure("kdv.u_ref", f"{tag}: u_ref off the soliton by {dev:.2e}"))
            if tag == "t100":
                pad = lambda v: np.concatenate([[0.0], v, [0.0]])  # noqa: E731
                eps = p1_norm_1d(x_full, pad(u_ref - u_rom)) / p1_norm_1d(x_full, pad(u_ref))
                stated = table[nm]["eps_final"]
                if abs(eps - stated) > 1e-9 * stated:
                    bad(Failure("kdv.eps_final",
                                f"eps_final {stated:.10g} but snapshot gives {eps:.10g}"))
    if all(nm in table for nm in nm_list):
        lo, hi = nm_list[0], nm_list[-1]
        mean_lo, mean_hi = table[lo]["mean_eps_l2"], table[hi]["mean_eps_l2"]
        if not mean_hi <= 0.08:
            fails[hi].append(Failure("kdv.criterion04", f"mean eps({hi})={mean_hi:.4f} > 0.08"))
        if not mean_lo > mean_hi:
            fails[hi].append(Failure("kdv.monotone",
                                     f"mean eps({lo})={mean_lo:.4f} <= eps({hi})={mean_hi:.4f}"))
    return fails


# laxrom's default fp_tol, which both `laxrom run` workloads keep
FP_TOL = 1e-9


def check_transport(nm_list, t_drift, ortho):
    """Traced-run invariants: ||T||_F kept, transported basis G-orthonormal.

    ``t_drift`` maps N_M to (|(||T(t_max)|| - ||T(0)||)| / ||T(0)||, steps).
    Implicit midpoint with a skew generator conserves ||T||_F up to the
    fixed-point tolerance, so the drift may grow by at most FP_TOL a step.
    ``ortho`` maps N_M to max |B^T G B - I| of the last transported basis.
    """
    fails = {nm: [] for nm in nm_list}
    for nm in nm_list:
        drift, steps = t_drift.get(nm, (None, 0))
        dev = ortho.get(nm)
        if drift is None or not drift <= steps * FP_TOL:
            fails[nm].append(Failure("trace.t_norm", f"||T||_F drift {drift} over {steps} steps"))
        if dev is None or not dev <= 1e-12:
            fails[nm].append(Failure("trace.orthonormal", f"|B^T G B - I| = {dev}"))
    return fails


# ---------------------------------------------------------------------------
# fkpp2d_square


def _square_grid(snap):
    """Reshape snapshot columns x, y, u_ref, u_rom onto the square grid."""
    x, y = snap[:, 0], snap[:, 1]
    n = int(round(np.sqrt(x.size)))
    order = np.lexsort((x, y))
    grid = snap[order].reshape(n, n, -1)
    return grid, n


def trapezoid_mass(grid_u, n):
    """Integral over the unit square by the tensor trapezoid rule."""
    w = np.full(n, 1.0 / (n - 1))
    w[[0, -1]] *= 0.5
    return float(w @ grid_u @ w)


def check_fkpp(out_dir, ini, nm_list):
    """Closed front on the square: error table and FKPP reference properties."""
    levels = snapshot_levels(ini.getfloat("time", "t_max"), ini.getfloat("time", "dt"))
    table = read_table(out_dir)
    fails = {nm: [] for nm in nm_list}
    for k, nm in enumerate(nm_list):
        bad = fails[nm].append
        if nm not in table:
            bad(Failure("fkpp.row", f"no table.csv row for N_M={nm}"))
            continue
        prev = nm_list[k - 1] if k else None
        if prev in table and not table[nm]["mean_eps_l2"] < table[prev]["mean_eps_l2"]:
            bad(Failure("fkpp.monotone", f"mean eps({nm}) not below eps({prev})"))
        if nm == 30 and not table[nm]["mean_eps_l2"] <= 0.06:
            bad(Failure("fkpp.criterion08", f"mean eps(30)={table[nm]['mean_eps_l2']:.4f} > 0.06"))
        _, series = read_csv(os.path.join(out_dir, f"errors_nm{nm:03d}.csv"))
        masses = []
        for tag, (i, _) in levels.items():
            _, snap = read_csv(os.path.join(out_dir, f"snapshot_nm{nm:03d}_{tag}.csv"))
            grid, n = _square_grid(snap)
            u_ref, u_rom = grid[:, :, 2], grid[:, :, 3]
            if u_ref.min() < -1e-12 or u_ref.max() > 1.0 + 1e-12:
                bad(Failure("fkpp.range", f"{tag}: u_ref leaves [0, 1]"))
            m_ref, m_rom = trapezoid_mass(u_ref, n), trapezoid_mass(u_rom, n)
            masses.append(m_ref)
            # |int (u_ref - u_rom)| <= eps_L2(t) ||u_ref||_L2 on the unit square
            l2_ref = np.sqrt(trapezoid_mass(u_ref ** 2, n))
            gap = abs(m_ref - m_rom)
            if gap > 1.05 * series[i, 1] * l2_ref + 1e-3 * m_ref:
                bad(Failure("fkpp.mass_track",
                            f"{tag}: ROM mass {m_rom:.6g} vs reference {m_ref:.6g}"))
        if np.any(np.diff(masses) < 0.0):
            bad(Failure("fkpp.mass_growth", f"reference mass decreases: {masses}"))
    return fails


# ---------------------------------------------------------------------------
# scsa_signals


# laxrom's default tol_deg, which the two scsa studies keep: eigenvalues
# below -TOL_DEG count as bound states
TOL_DEG = 1e-8


@dataclass
class SignalStudy:
    """One static signal study: nodes, signal, chi grid, mode cap."""

    label: str
    x: np.ndarray
    u: np.ndarray
    chi_grid: tuple
    cap: int


def direct_errors(study: SignalStudy):
    """{(method, chi): errors for n = 1..cap} from a dense eigensolve here.

    The residual of each truncated expansion is formed and measured
    directly, never through a Parseval remainder.
    """
    x = study.x
    u = study.u - study.u.min()
    G, K = p1_mass_stiffness(x)
    unorm = p1_norm_1d(x, u)
    out = {}
    for chi in study.chi_grid:
        lam, B = scipy.linalg.eigh(K - chi * p1_weighted_mass(x, u), G)
        coef = B[:, :study.cap].T @ (G @ u)
        partial = np.cumsum(B[:, :study.cap] * coef, axis=1)
        out["eigen", chi] = np.array(
            [p1_norm_1d(x, u - partial[:, n]) for n in range(study.cap)]) / unorm
        kappa = np.sqrt(-lam[lam < -TOL_DEG])
        parts = np.cumsum((4.0 / chi) * B[:, :kappa.size] ** 2 * kappa, axis=1)
        sol = []
        for n in range(1, study.cap + 1):
            m = min(n, kappa.size)
            sol.append(p1_norm_1d(x, u - parts[:, m - 1]) if m else p1_norm_1d(x, u))
        out["soliton", chi] = np.array(sol) / unorm
        out["bound_states", chi] = kappa.size
    return out


def check_scsa(out_dir, study: SignalStudy, direct, reflectionless=False):
    """One sweep column (method, chi) per operation.

    Sweep errors must agree with the direct residuals to 1e-3 relative.
    For a reflectionless signal the soliton error must also be <= 2e-2
    (criterion 10) and stop changing once every bound state is in the sum.
    """
    fails = {}
    for method, chi in ((m, c) for m in ("soliton", "eigen") for c in study.chi_grid):
        bad = fails.setdefault((study.label, method, chi), []).append
        _, rows = read_csv(os.path.join(out_dir, f"sweep_{method}.csv"))
        errs = rows[rows[:, 0] == chi, 2]
        want = direct[method, chi]
        if errs.size != study.cap:
            bad(Failure("scsa.rows", f"{errs.size} rows for chi={chi:g}"))
            continue
        rel = np.abs(errs - want) / want
        worst = int(np.argmax(rel))
        if rel[worst] > 1e-3:
            check = PARSEVAL if method == "eigen" else "scsa.direct"
            bad(Failure(check, f"{method} chi={chi:g} n={worst + 1}: sweep error "
                               f"{errs[worst]:.3e}, direct residual {want[worst]:.3e}"))
        if reflectionless and method == "soliton":
            nb = direct["bound_states", chi]
            if not np.all(errs[nb - 1:] <= 2e-2):
                bad(Failure("scsa.criterion10", f"chi={chi:g}: error {errs[-1]:.3e} > 2e-2"))
            if not (np.all(errs[nb:] == errs[nb - 1]) and errs[nb - 2] != errs[nb - 1]):
                bad(Failure("scsa.saturation",
                            f"chi={chi:g}: errors do not settle at n={nb}"))
    return fails
