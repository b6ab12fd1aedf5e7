"""Experiment harness: configuration files, error tables, CSV outputs.

Drives the full pipeline (mesh, eigenbasis, reduced integration, nodal
reconstruction, reference comparison) for the benchmark problems and
writes their error tables, per-time error series, solution snapshots and a
run manifest.  Everything is deterministic: no randomness, no timestamps.
"""

from __future__ import annotations

import configparser
import hashlib
import logging
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .dynamics import SolverConfig, run
from .eigenbasis import initial_projection, solve_schrodinger_eig
from .mesh import (
    DIRICHLET,
    NEUMANN,
    assemble,
    build_structured_square_mesh,
    build_uniform_mesh_1d,
)
from .models import AdvectionModel, FkppModel, KdvEigenModel, KdvSolitonModel
from .reconstruct import propagate_basis, reconstruct_nodal
from .reference import fkpp_reference, kdv_n_soliton, kdv_one_soliton
from .scsa import METHODS, chi_sweep, read_signal_csv, shift_nonnegative

__all__ = [
    "ExperimentConfig",
    "load_config",
    "eps_l2",
    "eps_amplitude",
    "MetricsRow",
    "MetricsReport",
    "run_experiment",
    "compare_frobenius",
    "run_scsa",
    "run_chi_sweep",
]

PROBLEMS = ("advection", "kdv_eigen", "kdv_soliton", "fkpp", "scsa")

log = logging.getLogger(__name__)

_SCHEMA = {
    "experiment": ("problem", "out_dir"),
    "mesh": ("a", "b", "n_nodes", "n_per_side", "bc"),
    "reduction": ("chi", "nm_list", "nm_ref"),
    "time": ("dt", "t_max"),
    "solver": ("fp_tol", "fp_max_iters", "tol_deg"),
    "model": ("c", "nu", "beta_speed", "x0", "c_scatter", "k_scatter", "amplitude_law"),
    "scsa": ("signal", "chi_grid", "n_modes_cap", "methods"),
    "sweep": ("chi_grid",),
}


@dataclass
class ExperimentConfig:
    """Flat view of one experiment configuration file."""

    problem: str
    out_dir: str | None = None
    # mesh
    a: float = 0.0
    b: float = 1.0
    n_nodes: int = 500
    n_per_side: int | None = None
    bc: str | None = None
    # reduction
    chi: float = 1.0
    nm_list: tuple = (10,)
    nm_ref: int = 50
    # time stepping
    dt: float = 1e-3
    t_max: float = 1.0
    # nonlinear solver
    fp_tol: float = 1e-9
    fp_max_iters: int = 100
    tol_deg: float = 1e-8
    # model parameters
    c: float = 0.5
    nu: float = 1.0
    beta_speed: float | None = None
    x0: float = 0.0
    c_scatter: tuple | None = None
    k_scatter: tuple | None = None
    amplitude_law: str = "frozen"
    # signal analysis
    signal: str = "double_gaussian"
    chi_grid: tuple = ()
    n_modes_cap: int = 50
    methods: tuple = ("soliton", "eigen")
    # bookkeeping
    source_path: str | None = None
    source_hash: str | None = None

    def solver(self) -> SolverConfig:
        return SolverConfig(
            chi=self.chi,
            dt=self.dt,
            t_max=self.t_max,
            fp_tol=self.fp_tol,
            fp_max_iters=self.fp_max_iters,
            tol_deg=self.tol_deg,
        )


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment file (sections per _SCHEMA), strictly."""
    parser = configparser.ConfigParser()
    with open(path) as f:
        raw = f.read()
    parser.read_string(raw)

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
    if "experiment" not in parser or "problem" not in parser["experiment"]:
        raise ValueError(f"{path}: missing [experiment] problem")

    cfg = ExperimentConfig(problem=parser["experiment"]["problem"].strip())
    if cfg.problem not in PROBLEMS:
        raise ValueError(f"{path}: unknown problem {cfg.problem!r}")
    cfg.out_dir = parser["experiment"].get("out_dir", None)

    def grab(section, key, conv, attr=None):
        if section in parser and key in parser[section]:
            setattr(cfg, attr or key, conv(parser[section][key]))

    grab("mesh", "a", float)
    grab("mesh", "b", float)
    grab("mesh", "n_nodes", int)
    grab("mesh", "n_per_side", int)
    grab("mesh", "bc", lambda s: s.strip().lower())
    grab("reduction", "chi", float)
    grab("reduction", "nm_list", _ints)
    grab("reduction", "nm_ref", int)
    grab("time", "dt", float)
    grab("time", "t_max", float)
    grab("solver", "fp_tol", float)
    grab("solver", "fp_max_iters", int)
    grab("solver", "tol_deg", float)
    grab("model", "c", float)
    grab("model", "nu", float)
    grab("model", "beta_speed", float)
    grab("model", "x0", float)
    grab("model", "c_scatter", _floats)
    grab("model", "k_scatter", _floats)
    grab("model", "amplitude_law", str.strip)
    grab("scsa", "signal", str.strip)
    grab("scsa", "chi_grid", _floats)
    grab("scsa", "n_modes_cap", int)
    grab("scsa", "methods", lambda s: tuple(t.strip() for t in s.split(",")))
    grab("sweep", "chi_grid", _floats)
    if cfg.problem != "scsa":
        try:
            cfg.solver().n_steps()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if cfg.bc is not None and cfg.bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"{path}: bc must be {DIRICHLET} or {NEUMANN}, got {cfg.bc!r}")
    if not cfg.nm_list or min(cfg.nm_list) < 1:
        raise ValueError(f"{path}: nm_list entries must be at least 1, got {cfg.nm_list}")
    if cfg.problem == "kdv_soliton" and cfg.chi != 1.0:
        raise ValueError(f"{path}: kdv_soliton needs chi = 1, got {cfg.chi:g}")
    if cfg.amplitude_law not in KdvSolitonModel.AMPLITUDE_LAWS:
        raise ValueError(f"{path}: amplitude_law must be one of "
                         f"{KdvSolitonModel.AMPLITUDE_LAWS}, got {cfg.amplitude_law!r}")
    if not set(cfg.methods) <= set(METHODS):
        raise ValueError(f"{path}: methods must be among {METHODS}, got {cfg.methods}")

    cfg.source_path = str(path)
    cfg.source_hash = hashlib.sha256(raw.encode()).hexdigest()
    return cfg


def eps_l2(fem, u_ref: np.ndarray, u_num: np.ndarray) -> float:
    """Relative L2 error ||u_ref - u_num|| / ||u_ref||."""
    denom = fem.norm(u_ref)
    if denom == 0.0:
        raise ValueError("reference solution has zero norm")
    return fem.norm(u_ref - u_num) / denom


def eps_amplitude(u_ref: np.ndarray, u_num: np.ndarray) -> float:
    """Amplitude error |max u_ref - max u_num|."""
    return abs(float(np.max(u_ref)) - float(np.max(u_num)))


@dataclass
class MetricsRow:
    nm: int
    mean_eps_l2: float
    max_eps_l2: float
    eps_final: float
    eps_amp: float


@dataclass
class MetricsReport:
    problem: str
    rows: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    out_dir: str | None = None

    def row(self, nm: int) -> MetricsRow:
        for r in self.rows:
            if r.nm == nm:
                return r
        raise KeyError(f"no row for N_M={nm}")


# ---------------------------------------------------------------------------
# problem setup


def _build_space(cfg: ExperimentConfig):
    if cfg.problem == "fkpp" and cfg.n_per_side is not None:
        mesh = build_structured_square_mesh(cfg.n_per_side)
        bc = cfg.bc or NEUMANN
    else:
        mesh = build_uniform_mesh_1d(cfg.a, cfg.b, cfg.n_nodes)
        bc = cfg.bc or DIRICHLET
    return assemble(mesh, bc)


def _initial_condition(cfg: ExperimentConfig, fem):
    xy = fem.coords
    if cfg.problem == "advection":
        return np.exp(-250.0 * (xy - 0.25) ** 2)
    if cfg.problem in ("kdv_eigen", "kdv_soliton"):
        if cfg.c_scatter is not None:
            if cfg.k_scatter is None or len(cfg.c_scatter) != len(cfg.k_scatter):
                raise ValueError("c_scatter and k_scatter must be given together")
            return kdv_n_soliton(cfg.c_scatter, cfg.k_scatter, xy, 0.0)
        if cfg.beta_speed is None:
            raise ValueError("KdV needs beta_speed (one soliton) or scattering data")
        return kdv_one_soliton(cfg.beta_speed, cfg.x0, xy, 0.0)
    if cfg.problem == "fkpp":
        if xy.ndim == 2:
            return np.exp(-50.0 * ((xy[:, 0] - 0.5) ** 2 + (xy[:, 1] - 0.25) ** 2))
        return np.exp(-100.0 * (xy - 0.25) ** 2) + np.exp(-100.0 * (xy - 0.75) ** 2)
    raise ValueError(f"no initial condition for problem {cfg.problem!r}")


def _reference_series(cfg: ExperimentConfig, fem, u0, n_steps: int) -> np.ndarray:
    """Reference nodal solution at every time level, rows = time."""
    times = cfg.dt * np.arange(n_steps + 1)
    x = fem.coords
    if cfg.problem == "advection":
        out = np.empty((n_steps + 1, fem.n_active))
        for i, t in enumerate(times):
            out[i] = np.exp(-250.0 * (x - cfg.c * t - 0.25) ** 2)
        return out
    if cfg.problem in ("kdv_eigen", "kdv_soliton"):
        out = np.empty((n_steps + 1, fem.n_active))
        for i, t in enumerate(times):
            if cfg.c_scatter is not None:
                out[i] = kdv_n_soliton(cfg.c_scatter, cfg.k_scatter, x, t)
            else:
                out[i] = kdv_one_soliton(cfg.beta_speed, cfg.x0, x, t)
        return out
    if cfg.problem == "fkpp":
        return fkpp_reference(fem, u0, cfg.nu, cfg.dt, n_steps)
    raise ValueError(f"no reference for problem {cfg.problem!r}")


def _make_model(cfg: ExperimentConfig, basis_full):
    if cfg.problem == "advection":
        return AdvectionModel(cfg.c), "standard"
    if cfg.problem == "kdv_eigen":
        return KdvEigenModel(cfg.chi), "standard"
    if cfg.problem == "kdv_soliton":
        if cfg.chi != 1.0:
            raise ValueError("the squared-mode expansion is specific to chi = 1")
        n_neg = int(np.count_nonzero(basis_full.lam < -cfg.tol_deg))
        if n_neg == 0:
            raise ValueError("no bound state: soliton expansion is empty")
        return KdvSolitonModel(n_neg, cfg.amplitude_law), "soliton"
    if cfg.problem == "fkpp":
        return FkppModel(cfg.nu, cfg.chi), "standard"
    raise ValueError(f"problem {cfg.problem!r} has no dynamic model")


def _initial_coeffs(cfg: ExperimentConfig, basis, model, u0):
    if getattr(model, "coefficient_law", "standard") == "soliton":
        p = model.n_soliton
        return 4.0 * np.sqrt(-basis.lam[:p]) / cfg.chi
    beta, _ = initial_projection(basis, u0)
    return beta


# ---------------------------------------------------------------------------
# output helpers


def _save_csv(path, header: str, array: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(array), fmt="%.17g", delimiter=",",
               header=header, comments="")


def _write_manifest(cfg: ExperimentConfig, out_dir: str) -> None:
    import scipy

    lines = [
        f"problem = {cfg.problem}",
        f"config = {cfg.source_path or '<memory>'}",
        f"config_sha256 = {cfg.source_hash or ''}",
        f"laxrom = {__version__}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
    ]
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


def _snapshot_header(fem) -> str:
    return ("x,y,u_ref,u_rom" if fem.coords.ndim == 2 else "x,u_ref,u_rom")


def _snapshot_rows(fem, u_ref, u_rom) -> np.ndarray:
    xy = fem.coords
    cols = [xy[:, 0], xy[:, 1]] if xy.ndim == 2 else [xy]
    return np.column_stack(cols + [u_ref, u_rom])


# ---------------------------------------------------------------------------
# main drivers


def _error_series(basis, traj, law, ref, snap_indices):
    """eps_L2 / amplitude error at every level; snapshots where requested."""
    fem = basis.fem
    n = traj.n_steps
    eps = np.empty(n + 1)
    amp = np.empty(n + 1)
    snaps = {}
    cur = basis
    for i in range(n + 1):
        u = reconstruct_nodal(cur, traj.coeffs[i], law)
        eps[i] = eps_l2(fem, ref[i], u)
        amp[i] = eps_amplitude(ref[i], u)
        if i in snap_indices:
            snaps[i] = u
        if i < n:
            cur = propagate_basis(cur, traj.m_half[i], traj.times[i + 1] - traj.times[i])
    return eps, amp, snaps


def _run_one_nm(cfg, basis_full, model, law, u0, ref, nm, out_dir):
    basis = basis_full.truncate(nm)
    coeffs0 = _initial_coeffs(cfg, basis, model, u0)
    traj = run(basis, coeffs0, model, cfg.solver())
    n = traj.n_steps
    snap_indices = sorted({0, n // 4, n // 2, n})
    eps, amp, snaps = _error_series(basis, traj, law, ref, snap_indices)

    if out_dir is not None:
        _save_csv(
            os.path.join(out_dir, f"errors_nm{nm:03d}.csv"),
            "t,eps_l2,eps_amp",
            np.column_stack([traj.times, eps, amp]),
        )
        _save_csv(
            os.path.join(out_dir, f"mnorm_nm{nm:03d}.csv"),
            "t_half,m_frob",
            np.column_stack([0.5 * (traj.times[:-1] + traj.times[1:]), traj.frob]),
        )
        fem = basis.fem
        for i in snap_indices:
            tag = f"t{round(100 * i / n):03d}"
            _save_csv(
                os.path.join(out_dir, f"snapshot_nm{nm:03d}_{tag}.csv"),
                _snapshot_header(fem),
                _snapshot_rows(fem, ref[i], snaps[i]),
            )
    row = MetricsRow(
        nm=nm,
        mean_eps_l2=float(np.mean(eps)),
        max_eps_l2=float(np.max(eps)),
        eps_final=float(eps[-1]),
        eps_amp=float(np.max(amp)),
    )
    log.info("[%s] N_M=%3d  mean eps_L2=%.3e  max=%.3e  amp=%.3e",
             cfg.problem, nm, row.mean_eps_l2, row.max_eps_l2, row.eps_amp)
    return row, traj


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Run one configured experiment over its nm_list and write its tables.

    Per N_M failures are recorded in the report and do not stop the other
    mode counts.  Returns the metrics report (rows in nm_list order).
    """
    if cfg.problem == "scsa":
        raise ValueError("use run_scsa for static signal experiments")
    out_dir = cfg.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    fem = _build_space(cfg)
    u0 = _initial_condition(cfg, fem)
    n_steps = cfg.solver().n_steps()
    ref = _reference_series(cfg, fem, u0, n_steps)
    nm_max = max(cfg.nm_list)
    basis_full = solve_schrodinger_eig(fem, u0, cfg.chi, nm_max)
    model, law = _make_model(cfg, basis_full)
    log.info("[%s] %d dofs, %d steps, modes up to %d",
             cfg.problem, fem.n_active, n_steps, nm_max)

    report = MetricsReport(problem=cfg.problem, out_dir=out_dir)
    for nm in cfg.nm_list:
        try:
            row, _ = _run_one_nm(cfg, basis_full, model, law, u0, ref, nm, out_dir)
            report.rows.append(row)
        except Exception as exc:  # noqa: BLE001 - reported per N_M
            report.errors[nm] = f"{type(exc).__name__}: {exc}"

    if out_dir is not None:
        table = np.array(
            [[r.nm, r.mean_eps_l2, r.max_eps_l2, r.eps_final, r.eps_amp]
             for r in report.rows]
        )
        if table.size:
            _save_csv(
                os.path.join(out_dir, "table.csv"),
                "nm,mean_eps_l2,max_eps_l2,eps_final,eps_amp",
                table,
            )
        _write_manifest(cfg, out_dir)
        if report.errors:
            with open(os.path.join(out_dir, "failures.txt"), "w") as f:
                for nm, msg in sorted(report.errors.items()):
                    f.write(f"N_M={nm}: {msg}\n")
    return report


def compare_frobenius(cfg: ExperimentConfig):
    """Residual-norm comparison against a large reference mode count.

    Runs the reduced dynamics (no reconstruction) at nm_ref and at every
    N_M in nm_list, and reports eps_M(t) = | ||M_N|| - ||M_ref|| | / ||M_ref||
    aggregated in time.  Returns a list of (nm, mean, max) triples.
    """
    if cfg.problem == "scsa":
        raise ValueError("frobenius comparison needs a dynamic problem")
    out_dir = cfg.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    fem = _build_space(cfg)
    u0 = _initial_condition(cfg, fem)
    nm_max = max(max(cfg.nm_list), cfg.nm_ref)
    basis_full = solve_schrodinger_eig(fem, u0, cfg.chi, nm_max)
    model, _ = _make_model(cfg, basis_full)

    def frob_series(nm):
        basis = basis_full.truncate(nm)
        coeffs0 = _initial_coeffs(cfg, basis, model, u0)
        traj = run(basis, coeffs0, model, cfg.solver())
        return traj

    traj_ref = frob_series(cfg.nm_ref)
    ref = traj_ref.frob
    if np.any(ref == 0.0):
        raise ValueError("reference residual norm vanishes; eps_M undefined")
    rows = []
    for nm in cfg.nm_list:
        traj = frob_series(nm)
        series = np.abs(traj.frob - ref) / ref
        rows.append((nm, float(np.mean(series)), float(np.max(series))))
        log.info("[%s] N_M=%3d  mean eps_M=%.3e", cfg.problem, nm, rows[-1][1])
        if out_dir is not None:
            t_half = 0.5 * (traj.times[:-1] + traj.times[1:])
            _save_csv(
                os.path.join(out_dir, f"eps_m_nm{nm:03d}.csv"),
                "t_half,eps_m",
                np.column_stack([t_half, series]),
            )
    if out_dir is not None:
        _save_csv(
            os.path.join(out_dir, "frobenius.csv"),
            "nm,mean_eps_m,max_eps_m",
            np.array(rows),
        )
        _write_manifest(cfg, out_dir)
    return rows


def run_scsa(cfg: ExperimentConfig):
    """Static signal study: chi sweep of the spectral representations.

    The signal (builtin double Gaussian or a CSV file) is shifted
    nonnegative, then each requested method is swept over chi_grid.
    Writes sweep_<method>.csv, best_<method>.csv and summary.csv.
    """
    if not cfg.chi_grid:
        raise ValueError("scsa needs a chi_grid")
    out_dir = cfg.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    # Neumann by default: shifted signals keep a nonzero baseline at the
    # boundary that Dirichlet modes cannot represent
    if cfg.signal == "double_gaussian":
        mesh = build_uniform_mesh_1d(cfg.a, cfg.b, cfg.n_nodes)
        fem = assemble(mesh, cfg.bc or NEUMANN)
        x = fem.coords
        u = np.exp(-250.0 * (x - 0.25) ** 2) - np.exp(-250.0 * (x - 0.75) ** 2)
    else:
        x_full, u_full = read_signal_csv(cfg.signal)
        mesh = build_uniform_mesh_1d(float(x_full[0]), float(x_full[-1]), x_full.size)
        fem = assemble(mesh, cfg.bc or NEUMANN)
        u = u_full[fem.active]

    u_shifted, offset = shift_nonnegative(u)
    log.info("[scsa] signal %r: %d samples, offset %.3e", cfg.signal, u.size, offset)

    results = {}
    for method in cfg.methods:
        res = chi_sweep(u_shifted, cfg.chi_grid, cfg.n_modes_cap, method, fem,
                        tol_deg=cfg.tol_deg)
        results[method] = res
        n, chi_b, err_b = res.best[-1]
        log.info("[scsa] %s: best at cap n=%d: chi=%g err=%.3e", method, n, chi_b, err_b)
        if out_dir is not None:
            _save_csv(
                os.path.join(out_dir, f"sweep_{method}.csv"),
                "chi,n_modes,error",
                np.array(res.rows),
            )
            _save_csv(
                os.path.join(out_dir, f"best_{method}.csv"),
                "n_modes,chi,error",
                np.array(res.best),
            )
    if out_dir is not None:
        if len(results) > 1:
            caps = [np.array(res.best) for res in results.values()]
            combined = caps[0][:, :1]
            header = ["n_modes"]
            for method, arr in zip(results, caps):
                combined = np.column_stack([combined, arr[:, 1:]])
                header += [f"chi_{method}", f"err_{method}"]
            _save_csv(os.path.join(out_dir, "summary.csv"), ",".join(header), combined)
        _write_manifest(cfg, out_dir)
    return results


def run_chi_sweep(cfg: ExperimentConfig):
    """Repeat a dynamic experiment for every chi in chi_grid.

    Each chi runs in its own subdirectory of out_dir; the combined table
    (chi, nm, errors...) lands in sweep.csv.  Returns {chi: MetricsReport}.
    """
    if cfg.problem == "scsa":
        raise ValueError("use run_scsa for static signal experiments")
    if not cfg.chi_grid:
        raise ValueError("sweep needs a chi_grid")
    out_dir = cfg.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    reports = {}
    combined = []
    for chi in cfg.chi_grid:
        sub = replace(
            cfg,
            chi=float(chi),
            out_dir=None if out_dir is None else os.path.join(out_dir, f"chi_{chi:g}"),
        )
        log.info("[sweep] chi = %g", chi)
        rep = run_experiment(sub)
        reports[float(chi)] = rep
        combined.extend(
            [chi, r.nm, r.mean_eps_l2, r.max_eps_l2, r.eps_final, r.eps_amp]
            for r in rep.rows
        )
    if out_dir is not None and combined:
        _save_csv(
            os.path.join(out_dir, "sweep.csv"),
            "chi,nm,mean_eps_l2,max_eps_l2,eps_final,eps_amp",
            np.array(combined),
        )
        _write_manifest(cfg, out_dir)
    return reports
