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
from dataclasses import astuple, dataclass, field, fields, replace

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


def _names(text: str) -> tuple:
    return tuple(tok.strip() for tok in text.split(","))


# section -> {key: parser}; every key names an ExperimentConfig field
_SCHEMA = {
    "experiment": {"problem": str.strip, "out_dir": str},
    "mesh": {"a": float, "b": float, "n_nodes": int, "n_per_side": int,
             "bc": lambda s: s.strip().lower()},
    "reduction": {"chi": float, "nm_list": _ints, "nm_ref": int},
    "time": {"dt": float, "t_max": float},
    "solver": {"fp_tol": float, "fp_max_iters": int, "tol_deg": float},
    "model": {"c": float, "nu": float, "beta_speed": float, "x0": float,
              "c_scatter": _floats, "k_scatter": _floats, "amplitude_law": str.strip},
    "scsa": {"signal": str.strip, "chi_grid": _floats, "n_modes_cap": int,
             "methods": _names},
    "sweep": {"chi_grid": _floats},
}


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment file (sections per _SCHEMA), strictly.

    Ranges and combinations are checked here too, so a bad file fails
    before any work or output.
    """
    parser = configparser.ConfigParser()
    with open(path) as f:
        raw = f.read()
    try:
        parser.read_string(raw, source=str(path))
    except configparser.Error as exc:  # repeated key, no section header, ...
        raise ValueError(str(exc).splitlines()[0]) from None

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            if key in values:
                raise ValueError(f"{path}: {key} is set in more than one section")
            values[key] = _SCHEMA[section][key](text)
    if "problem" not in values:
        raise ValueError(f"{path}: missing [experiment] problem")
    cfg = ExperimentConfig(**values, source_path=str(path),
                           source_hash=hashlib.sha256(raw.encode()).hexdigest())
    try:
        _check(cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg


def _check(cfg: ExperimentConfig) -> None:
    """Ranges and combinations load_config rejects (ValueError)."""
    if cfg.problem not in PROBLEMS:
        raise ValueError(f"unknown problem {cfg.problem!r}")
    if cfg.problem != "scsa":
        cfg.solver().n_steps()
    if cfg.bc is not None and cfg.bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"bc must be {DIRICHLET} or {NEUMANN}, got {cfg.bc!r}")
    if not cfg.nm_list or min(cfg.nm_list) < 1:
        raise ValueError(f"nm_list entries must be at least 1, got {cfg.nm_list}")
    if cfg.fp_max_iters < 1:
        raise ValueError(f"fp_max_iters must be at least 1, got {cfg.fp_max_iters}")
    chis = (cfg.chi,) + cfg.chi_grid
    if min(chis) <= 0.0:
        raise ValueError(f"chi must be positive, got {min(chis):g}")
    off_one = [chi for chi in chis if chi != 1.0]
    if cfg.problem == "kdv_soliton" and off_one:
        raise ValueError(f"kdv_soliton needs chi = 1, got {off_one[0]:g}")
    if cfg.amplitude_law not in KdvSolitonModel.AMPLITUDE_LAWS:
        raise ValueError(f"amplitude_law must be one of "
                         f"{KdvSolitonModel.AMPLITUDE_LAWS}, got {cfg.amplitude_law!r}")
    if not set(cfg.methods) <= set(METHODS) or len(set(cfg.methods)) < len(cfg.methods):
        raise ValueError(f"methods must be among {METHODS}, each once, got {cfg.methods}")
    if cfg.problem in ("kdv_eigen", "kdv_soliton"):
        if cfg.c_scatter is not None or cfg.k_scatter is not None:
            c, k = cfg.c_scatter or (), cfg.k_scatter or ()
            if not c or len(c) != len(k):
                raise ValueError("c_scatter and k_scatter must be given together, "
                                 "with equal numbers of entries")
            if min(c + k) <= 0.0:
                raise ValueError("c_scatter and k_scatter entries must be positive")
        elif cfg.beta_speed is None or cfg.beta_speed <= 0.0:
            raise ValueError("KdV needs scattering data or beta_speed > 0, "
                             f"got beta_speed = {cfg.beta_speed}")
    if cfg.problem == "scsa" and cfg.signal != "double_gaussian":
        return  # the signal file sets the mesh
    dofs = _build_space(cfg).n_active
    n_max = cfg.n_modes_cap if cfg.problem == "scsa" else max(cfg.nm_list)
    if n_max > dofs:
        raise ValueError(f"{n_max} modes requested from a mesh of {dofs} dofs")


def check_frobenius(cfg: ExperimentConfig) -> None:
    """What compare_frobenius needs beyond load_config (ValueError).

    Only frobenius reads nm_ref, so load_config cannot hold it to the mesh;
    the command line calls this before it writes anything.
    """
    if cfg.problem == "scsa":
        raise ValueError("frobenius comparison needs a dynamic problem")
    dofs = _build_space(cfg).n_active
    if cfg.nm_ref > dofs:
        raise ValueError(f"nm_ref = {cfg.nm_ref} modes requested from a mesh of {dofs} dofs")


def eps_l2(fem, u_ref: np.ndarray, u_num: np.ndarray):
    """Relative L2 error ||u_ref - u_num|| / ||u_ref||.

    For stacks of time levels, shape (levels, N), one error per row.
    """
    denom = fem.norm(u_ref)
    if np.any(denom == 0.0):
        raise ValueError("reference solution has zero norm")
    return fem.norm(u_ref - u_num) / denom


def eps_amplitude(u_ref: np.ndarray, u_num: np.ndarray):
    """Amplitude error |max u_ref - max u_num|, one per row for stacks."""
    return np.abs(np.max(u_ref, axis=-1) - np.max(u_num, axis=-1))


@dataclass
class MetricsRow:
    nm: int
    mean_eps_l2: float
    max_eps_l2: float
    eps_final: float
    eps_amp: float


@dataclass
class MetricsReport:
    rows: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    def row(self, nm: int) -> MetricsRow:
        for r in self.rows:
            if r.nm == nm:
                return r
        raise KeyError(f"no row for N_M={nm}")


_TABLE_HEADER = ",".join(f.name for f in fields(MetricsRow))


# ---------------------------------------------------------------------------
# problem setup


def _build_space(cfg: ExperimentConfig):
    if cfg.problem == "fkpp" and cfg.n_per_side is not None:
        mesh = build_structured_square_mesh(cfg.n_per_side)
        bc = cfg.bc or NEUMANN
    else:
        mesh = build_uniform_mesh_1d(cfg.a, cfg.b, cfg.n_nodes)
        # Neumann for signals: shifted signals keep a nonzero baseline at
        # the boundary that Dirichlet modes cannot represent
        bc = cfg.bc or (NEUMANN if cfg.problem == "scsa" else DIRICHLET)
    return assemble(mesh, bc)


def _exact(cfg: ExperimentConfig, x, t) -> np.ndarray:
    """Closed-form advection or KdV solution; x and t broadcast."""
    if cfg.problem == "advection":
        return np.exp(-250.0 * (x - cfg.c * t - 0.25) ** 2)
    if cfg.c_scatter is not None:
        return kdv_n_soliton(cfg.c_scatter, cfg.k_scatter, x, t)
    return kdv_one_soliton(cfg.beta_speed, cfg.x0, x, t)


def _initial_condition(cfg: ExperimentConfig, fem):
    xy = fem.coords
    if cfg.problem == "fkpp":
        if xy.ndim == 2:
            return np.exp(-50.0 * ((xy[:, 0] - 0.5) ** 2 + (xy[:, 1] - 0.25) ** 2))
        return np.exp(-100.0 * (xy - 0.25) ** 2) + np.exp(-100.0 * (xy - 0.75) ** 2)
    return _exact(cfg, xy, 0.0)


def _reference_series(cfg: ExperimentConfig, fem, u0, n_steps: int) -> np.ndarray:
    """Reference nodal solution at every time level, rows = time.

    The closed forms are evaluated a block of levels at a time, a
    (levels, 1) column of times against the row of nodes.  The n-soliton
    form holds 2^n arrays of a block, so its blocks have _CHUNK x 8 / 2^n
    levels; the others have _CHUNK.
    """
    if cfg.problem == "fkpp":
        return fkpp_reference(fem, u0, cfg.nu, cfg.dt, n_steps)
    size = _CHUNK if cfg.c_scatter is None else max(1, _CHUNK * 8 // 2 ** len(cfg.c_scatter))
    times = cfg.dt * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, fem.n_active))
    for start in range(0, n_steps + 1, size):
        block = slice(start, start + size)
        out[block] = _exact(cfg, fem.coords, times[block, None])
    return out


def _make_model(cfg: ExperimentConfig, basis_full):
    if cfg.problem == "advection":
        return AdvectionModel(cfg.c)
    if cfg.problem == "kdv_eigen":
        return KdvEigenModel(cfg.chi)
    if cfg.problem == "kdv_soliton":
        if cfg.chi != 1.0:
            raise ValueError("the squared-mode expansion is specific to chi = 1")
        n_neg = int(np.count_nonzero(basis_full.lam < -cfg.tol_deg))
        if n_neg == 0:
            raise ValueError("no bound state: soliton expansion is empty")
        return KdvSolitonModel(n_neg, cfg.amplitude_law)
    if cfg.problem == "fkpp":
        return FkppModel(cfg.nu, cfg.chi)
    raise ValueError(f"problem {cfg.problem!r} has no dynamic model")


def _setup(cfg: ExperimentConfig, nm_max: int):
    """Space, initial condition, nm_max-mode eigenbasis and closure model."""
    fem = _build_space(cfg)
    u0 = _initial_condition(cfg, fem)
    basis_full = solve_schrodinger_eig(fem, u0, cfg.chi, nm_max)
    return fem, u0, basis_full, _make_model(cfg, basis_full)


def _trajectory(cfg: ExperimentConfig, basis_full, model, u0, nm: int):
    """(basis, reduced trajectory) of the first nm modes."""
    basis = basis_full.truncate(nm)
    if model.coefficient_law == "soliton":
        coeffs0 = 4.0 * np.sqrt(-basis.lam[:model.n_soliton]) / cfg.chi
    else:
        coeffs0, _ = initial_projection(basis, u0)
    return basis, run(basis, coeffs0, model, cfg.solver())


# ---------------------------------------------------------------------------
# output helpers: the only code that creates output directories


def _save_csv(out_dir: str, name: str, header: str, array) -> None:
    """The bytes of np.savetxt(np.atleast_2d(array), fmt="%.17g",
    delimiter=",", header=header, comments="") for a nonempty header,
    formatted in one pass."""
    a = np.atleast_2d(array)
    rows, cols = a.shape
    body = (",".join(["%.17g"] * cols) + "\n") * rows % tuple(a.ravel().tolist())
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as f:
        f.write(header + "\n" + body)


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
    os.makedirs(out_dir, exist_ok=True)
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


# time levels evaluated, reconstructed and scored at once: the (levels, N)
# arrays of a chunk stay a few MiB on the largest mesh
_CHUNK = 64


def _error_series(basis, traj, law, ref, snap_indices):
    """eps_L2 / amplitude error at every level; snapshots where requested.

    The modes at level k are B_0 Q_k, and ``traj.frame`` holds each level
    in the frame of B_0 (``dynamics.Trajectory``).  The levels are
    reconstructed and scored a chunk at a time.  The end basis B_0 Q_n goes
    through propagate_basis, which checks it G-orthonormal.
    """
    propagate_basis(basis, traj.rotation)
    levels = traj.frame.shape[0]

    eps = np.empty(levels)
    amp = np.empty(levels)
    snaps = {}
    for start in range(0, levels, _CHUNK):
        rows = slice(start, start + _CHUNK)
        if law == "standard":
            u = reconstruct_nodal(basis, traj.frame[rows])
        else:
            u = reconstruct_nodal(basis, traj.coeffs[rows], law, traj.frame[rows])
        eps[rows] = eps_l2(basis.fem, ref[rows], u)
        amp[rows] = eps_amplitude(ref[rows], u)
        snaps.update((i, u[i - start].copy()) for i in snap_indices if start <= i < start + len(u))
    return eps, amp, snaps


def _run_one_nm(cfg, basis_full, model, u0, ref, nm, out_dir):
    basis, traj = _trajectory(cfg, basis_full, model, u0, nm)
    n = traj.n_steps
    snap_indices = sorted({0, n // 4, n // 2, n})
    eps, amp, snaps = _error_series(basis, traj, model.coefficient_law, ref, snap_indices)

    if out_dir is not None:
        _save_csv(out_dir, f"errors_nm{nm:03d}.csv", "t,eps_l2,eps_amp",
                  np.column_stack([traj.times, eps, amp]))
        _save_csv(out_dir, f"mnorm_nm{nm:03d}.csv", "t_half,m_frob",
                  np.column_stack([0.5 * (traj.times[:-1] + traj.times[1:]), traj.frob]))
        for i in snap_indices:
            _save_csv(out_dir, f"snapshot_nm{nm:03d}_t{round(100 * i / n):03d}.csv",
                      _snapshot_header(basis.fem), _snapshot_rows(basis.fem, ref[i], snaps[i]))
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


def _per_nm(nm_list, work):
    """(results, {nm: message}) of work(nm) over nm_list; a failure does not stop the rest."""
    results, errors = [], {}
    for nm in nm_list:
        try:
            results.append(work(nm))
        except Exception as exc:  # noqa: BLE001 - reported per N_M
            errors[nm] = f"{type(exc).__name__}: {exc}"
    return results, errors


def _write_failures(out_dir: str, errors: dict) -> None:
    if errors:
        with open(os.path.join(out_dir, "failures.txt"), "w") as f:
            for nm, msg in sorted(errors.items()):
                f.write(f"N_M={nm}: {msg}\n")


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Run one configured experiment over its nm_list and write its tables.

    Per N_M failures are recorded in the report and do not stop the other
    mode counts.  Returns the metrics report (rows in nm_list order).
    """
    if cfg.problem == "scsa":
        raise ValueError("use run_scsa for static signal experiments")
    out_dir = cfg.out_dir
    nm_max = max(cfg.nm_list)
    fem, u0, basis_full, model = _setup(cfg, nm_max)
    n_steps = cfg.solver().n_steps()
    ref = _reference_series(cfg, fem, u0, n_steps)
    log.info("[%s] %d dofs, %d steps, modes up to %d",
             cfg.problem, fem.n_active, n_steps, nm_max)

    rows, errors = _per_nm(
        cfg.nm_list, lambda nm: _run_one_nm(cfg, basis_full, model, u0, ref, nm, out_dir)[0])
    if out_dir is not None:
        if rows:
            _save_csv(out_dir, "table.csv", _TABLE_HEADER, np.array([astuple(r) for r in rows]))
        _write_manifest(cfg, out_dir)
        _write_failures(out_dir, errors)
    return MetricsReport(rows, errors)


def compare_frobenius(cfg: ExperimentConfig):
    """Residual-norm comparison against a large reference mode count.

    Runs the reduced dynamics (no reconstruction) at nm_ref and at every
    N_M in nm_list, and reports eps_M(t) = | ||M_N|| - ||M_ref|| | / ||M_ref||
    aggregated in time.  Returns (rows, errors): (nm, mean, max) triples and,
    as in run_experiment, {nm: message}.  A failure at nm_ref fails the run.
    """
    if cfg.problem == "scsa":
        raise ValueError("frobenius comparison needs a dynamic problem")
    out_dir = cfg.out_dir
    _, u0, basis_full, model = _setup(cfg, max(max(cfg.nm_list), cfg.nm_ref))
    ref = _trajectory(cfg, basis_full, model, u0, cfg.nm_ref)[1].frob
    if np.any(ref == 0.0):
        raise ValueError("reference residual norm vanishes; eps_M undefined")

    def compare(nm):
        _, traj = _trajectory(cfg, basis_full, model, u0, nm)
        series = np.abs(traj.frob - ref) / ref
        mean = float(np.mean(series))
        log.info("[%s] N_M=%3d  mean eps_M=%.3e", cfg.problem, nm, mean)
        if out_dir is not None:
            t_half = 0.5 * (traj.times[:-1] + traj.times[1:])
            _save_csv(out_dir, f"eps_m_nm{nm:03d}.csv", "t_half,eps_m",
                      np.column_stack([t_half, series]))
        return nm, mean, float(np.max(series))

    rows, errors = _per_nm(cfg.nm_list, compare)
    if out_dir is not None:
        if rows:
            _save_csv(out_dir, "frobenius.csv", "nm,mean_eps_m,max_eps_m", np.array(rows))
        _write_manifest(cfg, out_dir)
        _write_failures(out_dir, errors)
    return rows, errors


def run_scsa(cfg: ExperimentConfig):
    """Static signal study: chi sweep of the spectral representations.

    The signal (builtin double Gaussian or a CSV file) is shifted
    nonnegative, then each requested method is swept over chi_grid.
    Writes sweep_<method>.csv, best_<method>.csv and summary.csv.
    """
    if not cfg.chi_grid:
        raise ValueError("scsa needs a chi_grid")
    out_dir = cfg.out_dir
    if cfg.signal == "double_gaussian":
        fem = _build_space(cfg)
        x = fem.coords
        u = np.exp(-250.0 * (x - 0.25) ** 2) - np.exp(-250.0 * (x - 0.75) ** 2)
    else:
        x_full, u_full = read_signal_csv(cfg.signal)
        fem = _build_space(replace(cfg, a=float(x_full[0]), b=float(x_full[-1]),
                                   n_nodes=x_full.size))
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
            _save_csv(out_dir, f"sweep_{method}.csv", "chi,n_modes,error", np.array(res.rows))
            _save_csv(out_dir, f"best_{method}.csv", "n_modes,chi,error", np.array(res.best))
    if out_dir is not None:
        if len(results) > 1:
            caps = [np.array(res.best) for res in results.values()]
            combined = caps[0][:, :1]
            header = ["n_modes"]
            for method, arr in zip(results, caps):
                combined = np.column_stack([combined, arr[:, 1:]])
                header += [f"chi_{method}", f"err_{method}"]
            _save_csv(out_dir, "summary.csv", ",".join(header), combined)
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
        combined.extend((chi, *astuple(r)) for r in rep.rows)
    if out_dir is not None and combined:
        _save_csv(out_dir, "sweep.csv", "chi," + _TABLE_HEADER, np.array(combined))
        _write_manifest(cfg, out_dir)
    return reports
