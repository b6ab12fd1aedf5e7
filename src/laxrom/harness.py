"""Experiment harness: configuration files, error tables, CSV outputs.

Drives the full pipeline (mesh, eigenbasis, reduced integration, nodal
reconstruction, reference comparison) for the benchmark problems and
writes their error tables, per-time error series, solution snapshots and a
run manifest.  Every time written or evaluated comes from ``cfg.times()``
(level k at k dt) or ``_half_steps``.  Everything is deterministic: the
one random draw, the eigensolver's start vector, is seeded, and nothing
records a timestamp.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import logging
import os
from collections import namedtuple
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .dynamics import SolverConfig, run
from .eigenbasis import initial_projection, soliton_amplitudes, solve_schrodinger_eig
from .mesh import (
    DIRICHLET,
    NEUMANN,
    active_nodes,
    assemble,
    build_structured_square_mesh,
    build_uniform_mesh_1d,
)
from .models import AdvectionModel, FkppModel, KdvEigenModel, KdvSolitonModel
from .reconstruct import propagate_basis, reconstruct_nodal
from .reference import fkpp_reference, kdv_n_soliton, kdv_one_soliton
from .scsa import METHODS, chi_sweep, read_signal_csv, shift_nonnegative, soliton_expansion

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


@dataclass(kw_only=True)
class ExperimentConfig(SolverConfig):
    """Flat view of one experiment configuration file.

    The reduced integration's fields (chi, dt, t_max, fp_tol, fp_max_iters,
    tol_deg) are SolverConfig's, so ``run`` takes the config itself.  Every
    driver writes into out_dir, relative to the working directory.
    """

    problem: str
    out_dir: str = "out"
    # mesh
    a: float = 0.0
    b: float = 1.0
    n_nodes: int = 500
    n_per_side: int | None = None
    bc: str | None = None
    # reduction
    nm_list: tuple = (10,)
    nm_ref: int = 50
    # model parameters
    c: float = 0.5
    nu: float = 1.0
    beta_speed: float | None = None
    x0: float = 0.0
    c_scatter: tuple | None = None
    k_scatter: tuple | None = None
    # signal analysis
    signal: str = "double_gaussian"
    chi_grid: tuple = ()
    n_modes_cap: int = 50
    methods: tuple = ("soliton", "eigen")
    # bookkeeping
    source_path: str | None = None
    source_hash: str | None = None


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
              "c_scatter": _floats, "k_scatter": _floats},
    "scsa": {"signal": str.strip, "chi_grid": _floats, "n_modes_cap": int,
             "methods": _names},
    "sweep": {"chi_grid": _floats},
}
# the keys holding a float, or a tuple of floats: each must be finite if set
_FLOAT_KEYS = tuple(dict.fromkeys(key for section in _SCHEMA.values()
                                  for key, parse in section.items() if parse in (float, _floats)))


def load_config(path, command: str | None = None) -> ExperimentConfig:
    """Parse an INI experiment file (sections per _SCHEMA), strictly.

    Values are literal (no ``%`` interpolation) and ``[DEFAULT]`` is an
    unknown section.  Ranges, combinations and what the subcommand
    ``command`` needs are checked here too (``_check``), so a bad file fails
    before any work or output.
    """
    parser = configparser.ConfigParser(interpolation=None, default_section="")
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
            try:
                values[key] = _SCHEMA[section][key](text)
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
    if "problem" not in values:
        raise ValueError(f"{path}: missing [experiment] problem")
    cfg = ExperimentConfig(**values, source_path=str(path),
                           source_hash=hashlib.sha256(raw.encode()).hexdigest())
    try:
        _check(cfg, command)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg


def _check(cfg: ExperimentConfig, command: str | None = None) -> None:
    """Every rule a config and the subcommand running it must meet (ValueError).

    ``command`` defaults to the problem's own: scsa for scsa, run for the
    others.  load_config, and so the command line, and every driver call
    this before any work; only frobenius reads nm_ref.
    """
    if cfg.problem not in PROBLEMS:
        raise ValueError(f"unknown problem {cfg.problem!r}")
    if not cfg.out_dir:
        raise ValueError("out_dir must not be empty")
    if os.path.exists(cfg.out_dir) and not os.path.isdir(cfg.out_dir):
        raise ValueError(f"out_dir {cfg.out_dir} is not a directory")
    command = command or ("scsa" if cfg.problem == "scsa" else "run")
    if command == "scsa" and cfg.problem != "scsa":
        raise ValueError(f"scsa needs an scsa problem, got {cfg.problem!r}")
    if command != "scsa" and cfg.problem == "scsa":
        raise ValueError(f"{command} needs a dynamic problem; "
                         "scsa configs run with the scsa subcommand")
    if command == "sweep" and not cfg.chi_grid:
        raise ValueError("sweep needs a chi_grid")
    if not cfg.fp_tol > 0.0:
        raise ValueError(f"fp_tol must be positive, got {cfg.fp_tol:g}")
    if cfg.fp_max_iters < 1:
        raise ValueError(f"fp_max_iters must be at least 1, got {cfg.fp_max_iters}")
    if not cfg.tol_deg >= 0.0:  # NaN too, so before the finiteness rule
        raise ValueError(f"[solver] tol_deg must be at least 0, got {cfg.tol_deg:g}")
    for key in _FLOAT_KEYS:
        value = getattr(cfg, key)
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{key} must be finite, got {value}")
    if cfg.problem != "scsa":
        cfg.n_steps()
    if cfg.bc is not None and cfg.bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"bc must be {DIRICHLET} or {NEUMANN}, got {cfg.bc!r}")
    if not cfg.nm_list or min(cfg.nm_list) < 1:
        raise ValueError(f"nm_list entries must be at least 1, got {cfg.nm_list}")
    for key in ("nm_list", "chi_grid"):
        entries = getattr(cfg, key)
        if len(set(entries)) < len(entries):
            raise ValueError(f"{key} entries must be distinct, got {entries}")
    chis = (cfg.chi,) + cfg.chi_grid
    if min(chis) <= 0.0:
        raise ValueError(f"chi must be positive, got {min(chis):g}")
    off_one = [chi for chi in chis if chi != 1.0]
    if cfg.problem == "kdv_soliton" and off_one:
        raise ValueError(f"kdv_soliton needs chi = 1, got {off_one[0]:g}")
    if not set(cfg.methods) <= set(METHODS) or len(set(cfg.methods)) < len(cfg.methods):
        raise ValueError(f"methods must be among {METHODS}, each once, got {cfg.methods}")
    if cfg.problem == "scsa":
        if not cfg.chi_grid:
            raise ValueError("scsa needs a chi_grid")
        if cfg.n_modes_cap < 1:
            raise ValueError(f"n_modes_cap must be at least 1, got {cfg.n_modes_cap}")
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
    if command == "sweep":
        dirs = [_chi_dir(chi) for chi in cfg.chi_grid]
        if len(set(dirs)) < len(dirs):
            raise ValueError(f"chi_grid values must name distinct directories, got {dirs}")
    dofs = _dofs(cfg)  # checks the mesh keys, also where a signal file overrides them
    if cfg.problem == "scsa" and cfg.signal != "double_gaussian":
        dofs = _dofs(_on_samples(cfg, read_signal_csv(cfg.signal)[0]))  # run_scsa's mesh
    n_max = cfg.n_modes_cap if cfg.problem == "scsa" else max(cfg.nm_list)
    if n_max > dofs:
        raise ValueError(f"{n_max} modes requested from a mesh of {dofs} dofs")
    if command == "frobenius":
        if cfg.nm_ref < 1:
            raise ValueError(f"nm_ref must be at least 1, got {cfg.nm_ref}")
        if cfg.nm_ref > dofs:
            raise ValueError(f"nm_ref = {cfg.nm_ref} modes requested from a mesh of {dofs} dofs")


def eps_l2(fem, u_ref: np.ndarray, u_num: np.ndarray):
    """Relative L2 error ||u_ref - u_num|| / ||u_ref||.

    For stacks of time levels, shape (levels, N), one error per row.
    """
    denom = _reference_norm(fem, u_ref)
    return fem.norm(u_ref - u_num) / denom


def _reference_norm(fem, u_ref: np.ndarray):
    """||u_ref||, per row for stacks; ValueError where it is zero."""
    norm = fem.norm(u_ref)
    if np.any(norm == 0.0):
        raise ValueError("reference solution has zero norm")
    return norm


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


def _mesh(cfg: ExperimentConfig):
    """(mesh, boundary condition) of the experiment; ValueError for an
    n_per_side outside fkpp, whichever entry point asks."""
    if cfg.n_per_side is not None:
        if cfg.problem != "fkpp":
            raise ValueError(f"[mesh] n_per_side is for fkpp only, got problem {cfg.problem!r}")
        return build_structured_square_mesh(cfg.n_per_side), cfg.bc or NEUMANN
    # Neumann for signals: shifted signals keep a nonzero baseline at the
    # boundary that Dirichlet modes cannot represent
    bc = cfg.bc or (NEUMANN if cfg.problem == "scsa" else DIRICHLET)
    return build_uniform_mesh_1d(cfg.a, cfg.b, cfg.n_nodes), bc


def _on_samples(cfg: ExperimentConfig, x: np.ndarray) -> ExperimentConfig:
    """cfg with the 1D mesh of a signal sampled at the uniform points x."""
    return replace(cfg, a=float(x[0]), b=float(x[-1]), n_nodes=x.size)


def _chi_dir(chi: float) -> str:
    """run_chi_sweep's subdirectory of out_dir for one chi."""
    return f"chi_{chi:g}"


def _build_space(cfg: ExperimentConfig):
    return assemble(*_mesh(cfg))


def _dofs(cfg: ExperimentConfig) -> int:
    """The n_active of _build_space(cfg), from the mesh alone, unassembled."""
    return active_nodes(*_mesh(cfg)).size


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


def _reference_blocks(cfg: ExperimentConfig, fem, u0):
    """(start, levels) blocks of the reference nodal solution at the levels
    ``cfg.times()``, in order.

    A block has _CHUNK levels, fewer on a mesh of more than _BLOCK_VALUES /
    _CHUNK dofs, and no reference is ever stored whole.  A closed form is
    evaluated a block at a time, in one call; the n-soliton form holds 2^n
    arrays of its input, so beyond 3 solitons its blocks shrink by 8 / 2^n.
    The FKPP integrator's levels are copied into a block as it yields them.
    """
    times = cfg.times()
    length = min(_CHUNK, max(1, _BLOCK_VALUES // fem.n_active))
    if cfg.problem == "fkpp":
        levels = fkpp_reference(fem, u0, cfg.nu, cfg.dt, len(times) - 1)

        def block(start, stop):
            out = np.empty((stop - start, fem.n_active))
            for row in out:
                row[:] = next(levels)
            return out
    else:
        if cfg.c_scatter is not None:
            length = max(1, length * 8 // max(8, 2 ** len(cfg.c_scatter)))

        def block(start, stop):
            return _exact(cfg, fem.coords, times[start:stop, None])

    for start in range(0, len(times), length):
        yield start, block(start, min(start + length, len(times)))


def _make_model(cfg: ExperimentConfig, basis_full):
    if cfg.problem == "advection":
        return AdvectionModel(cfg.c)
    if cfg.problem == "kdv_eigen":
        return KdvEigenModel(cfg.chi)
    if cfg.problem == "kdv_soliton":
        n_bound = soliton_amplitudes(basis_full).size
        if n_bound == basis_full.n_modes:  # every mode is bound: count past them
            n_bound = soliton_expansion(basis_full.potential, basis_full.chi, basis_full.fem)[2]
        if n_bound == 0:
            raise ValueError("no bound state: soliton expansion is empty")
        return KdvSolitonModel(n_bound)
    return FkppModel(cfg.nu, cfg.chi)


def _setup(cfg: ExperimentConfig, nm_max: int):
    """Space, initial condition, nm_max-mode eigenbasis and closure model."""
    fem = _build_space(cfg)
    u0 = _initial_condition(cfg, fem)
    basis_full = solve_schrodinger_eig(fem, u0, cfg.chi, nm_max)
    return fem, u0, basis_full, _make_model(cfg, basis_full)


# ---------------------------------------------------------------------------
# output helpers: the only code that creates output directories


def _csv_rows(a: np.ndarray, end: str = "\n") -> str:
    """The rows of 2D ``a`` in one pass: "%.17g" fields, commas, ``end``."""
    rows, cols = a.shape
    return (",".join(["%.17g"] * cols) + end) * rows % tuple(a.ravel().tolist())


def _write(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as f:
        f.write(text)


def _save_csv(out_dir: str, name: str, header: str, array) -> None:
    """The bytes of np.savetxt(np.atleast_2d(array), fmt="%.17g",
    delimiter=",", header=header, comments="") for a nonempty header."""
    _write(out_dir, name, header + "\n" + _csv_rows(np.atleast_2d(array)))


def _write_manifest(cfg: ExperimentConfig, errors: dict | None = None) -> None:
    """manifest.txt, and failures.txt when ``errors`` names a failed N_M
    (removed otherwise)."""
    import scipy

    lines = [
        f"problem = {cfg.problem}",
        f"config = {cfg.source_path or '<memory>'}",
        f"config_sha256 = {cfg.source_hash or ''}",
        f"laxrom = {__version__}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
    ]
    _write(cfg.out_dir, "manifest.txt", "\n".join(lines) + "\n")
    if errors:
        _write(cfg.out_dir, "failures.txt",
               "".join(f"N_M={nm}: {msg}\n" for nm, msg in sorted(errors.items())))
    else:  # a clean rerun clears an earlier run's failures
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.out_dir, "failures.txt"))


# ---------------------------------------------------------------------------
# main drivers


# time levels evaluated, reconstructed and scored at once, at most _CHUNK and
# so many that a (levels, N) array of a block holds at most _BLOCK_VALUES
# values (512 KiB): 64 levels up to 1024 dofs, 11 on the 5776-dof square
_CHUNK = 64
_BLOCK_VALUES = 2 ** 16


# what the drivers keep of a trajectory (dynamics.Trajectory), arrays only:
# the modes at level k are basis_full.truncate(nm).B @ frame[k], coeffs are
# kept for the soliton law only, and frob holds ||M|| at each half step
_Track = namedtuple("_Track", "frame coeffs frob")


def _half_steps(cfg) -> np.ndarray:
    """(k + 1/2) dt, k < n_steps(): where step k evaluates its generator."""
    return cfg.dt * (np.arange(cfg.n_steps()) + 0.5)


def _track(cfg, basis_full, model, u0, nm) -> _Track:
    """Stage 1 for one N_M: its reduced trajectory, the end basis checked; writes nothing."""
    basis = basis_full.truncate(nm)
    soliton = model.coefficient_law == "soliton"
    coeffs0 = soliton_amplitudes(basis) if soliton else initial_projection(basis, u0)
    if soliton and coeffs0.size < model.n_soliton:
        raise ValueError(f"N_M={nm} is below the model's {model.n_soliton} bound states")
    traj = run(basis, coeffs0, model, cfg)
    propagate_basis(basis, traj.rotation)
    return _Track(traj.frame, traj.coeffs if soliton else None, traj.frob)


def _score(cfg, fem, u0, basis_full, tracks: dict, errors: dict) -> dict:
    """Stage 2: {nm: (eps_L2, amplitude error)} of the tracks at every level.

    One pass over the reference: each block and its norm are computed once
    and scored for every N_M without an error.  A snapshot's coordinates and
    u_ref are formatted once, and each N_M's u_rom filled in.
    """
    n = cfg.n_steps()
    snap_levels = sorted({0, n // 4, n // 2, n})
    header = "x,y,u_ref,u_rom" if fem.coords.ndim == 2 else "x,u_ref,u_rom"
    scores = {nm: (np.empty(n + 1), np.empty(n + 1)) for nm in tracks}

    try:
        for start, ref in _reference_blocks(cfg, fem, u0):
            rows = slice(start, start + len(ref))
            snaps = [i for i in snap_levels if rows.start <= i < rows.stop]
            ref_norm = _reference_norm(fem, ref)

            def score(nm):
                frame, coeffs, _ = tracks[nm]
                basis = basis_full.truncate(nm)
                u = (reconstruct_nodal(basis, frame[rows]) if coeffs is None
                     else reconstruct_nodal(basis, coeffs[rows], "soliton", frame[rows]))
                scores[nm][0][rows] = fem.norm(ref - u) / ref_norm
                scores[nm][1][rows] = eps_amplitude(ref, u)
                return u[[i - start for i in snaps]]

            u_snap = _per_nm(scores, score, errors)
            # after the N_M loop, so the text never sits beside its temporaries
            for j, i in enumerate(snaps):
                text = _csv_rows(np.column_stack([fem.coords, ref[i - start]]), ",%%.17g\n")
                _per_nm(u_snap, lambda nm: _write(
                    cfg.out_dir, f"snapshot_nm{nm:03d}_t{round(100 * i / n):03d}.csv",
                    header + "\n" + text % tuple(u_snap[nm][j].tolist())), errors)
    except Exception as exc:  # noqa: BLE001 - the reference failed every N_M left
        errors.update((nm, f"{type(exc).__name__}: {exc}") for nm in scores if nm not in errors)
    return {nm: s for nm, s in scores.items() if nm not in errors}


def _tabulate(cfg, nm, eps, amp) -> MetricsRow:
    """Stage 3 for one N_M: its error series file and table row."""
    _save_csv(cfg.out_dir, f"errors_nm{nm:03d}.csv", "t,eps_l2,eps_amp",
              np.column_stack([cfg.times(), eps, amp]))
    row = MetricsRow(nm=nm, mean_eps_l2=float(np.mean(eps)), max_eps_l2=float(np.max(eps)),
                     eps_final=float(eps[-1]), eps_amp=float(np.max(amp)))
    log.info("[%s] N_M=%3d  mean eps_L2=%.3e  max=%.3e  amp=%.3e",
             cfg.problem, nm, row.mean_eps_l2, row.max_eps_l2, row.eps_amp)
    return row


def _per_nm(nm_list, work, errors: dict) -> dict:
    """{nm: work(nm)} over nm_list, skipping and recording failed N_M in errors."""
    results = {}
    for nm in [nm for nm in nm_list if nm not in errors]:
        try:
            results[nm] = work(nm)
        except Exception as exc:  # noqa: BLE001 - reported per N_M
            errors[nm] = f"{type(exc).__name__}: {exc}"
    return results


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """Run one configured experiment over its nm_list and write its tables.

    Three stages: the reduced trajectory of every N_M (``_track``), whose
    ``frob`` goes to mnorm_nmXXX.csv, one pass over the reference that
    scores them all and writes the snapshots (``_score``), then the error
    series and the tables (``_tabulate``).
    Per N_M failures are recorded in the report and do not stop the other
    mode counts.  Returns the metrics report (rows in nm_list order).
    """
    _check(cfg, "run")
    nm_max = max(cfg.nm_list)
    fem, u0, basis_full, model = _setup(cfg, nm_max)
    log.info("[%s] %d dofs, %d steps, modes up to %d",
             cfg.problem, fem.n_active, cfg.n_steps(), nm_max)

    errors = {}
    tracks = _per_nm(cfg.nm_list, lambda nm: _track(cfg, basis_full, model, u0, nm), errors)
    _per_nm(tracks, lambda nm: _save_csv(cfg.out_dir, f"mnorm_nm{nm:03d}.csv", "t_half,m_frob",
            np.column_stack([_half_steps(cfg), tracks[nm].frob])), errors)
    scores = _score(cfg, fem, u0, basis_full, tracks, errors)
    rows = list(_per_nm(scores, lambda nm: _tabulate(cfg, nm, *scores[nm]), errors).values())
    if rows:
        _save_csv(cfg.out_dir, "table.csv", _TABLE_HEADER, np.array([astuple(r) for r in rows]))
    _write_manifest(cfg, errors)
    return MetricsReport(rows, errors)


def compare_frobenius(cfg: ExperimentConfig):
    """Residual-norm comparison against a large reference mode count.

    Runs the reduced dynamics (no reconstruction) at nm_ref and at every
    N_M in nm_list, and reports eps_M(t) = | ||M_N|| - ||M_ref|| | / ||M_ref||
    aggregated in time.  Returns (rows, errors): (nm, mean, max) triples and,
    as in run_experiment, {nm: message}.  A failure at nm_ref fails the run.
    An nm_ref in nm_list reuses the reference trajectory.
    """
    _check(cfg, "frobenius")
    _, u0, basis_full, model = _setup(cfg, max(max(cfg.nm_list), cfg.nm_ref))
    ref = _track(cfg, basis_full, model, u0, cfg.nm_ref).frob
    if np.any(ref == 0.0):
        raise ValueError("reference residual norm vanishes; eps_M undefined")
    errors = {}
    frobs = _per_nm(cfg.nm_list, lambda nm: ref if nm == cfg.nm_ref
                    else _track(cfg, basis_full, model, u0, nm).frob, errors)

    def compare(nm):
        series = np.abs(frobs[nm] - ref) / ref
        mean = float(np.mean(series))
        log.info("[%s] N_M=%3d  mean eps_M=%.3e", cfg.problem, nm, mean)
        _save_csv(cfg.out_dir, f"eps_m_nm{nm:03d}.csv", "t_half,eps_m",
                  np.column_stack([_half_steps(cfg), series]))
        return nm, mean, float(np.max(series))

    rows = list(_per_nm(frobs, compare, errors).values())
    if rows:
        _save_csv(cfg.out_dir, "frobenius.csv", "nm,mean_eps_m,max_eps_m", np.array(rows))
    _write_manifest(cfg, errors)
    return rows, errors


def run_scsa(cfg: ExperimentConfig):
    """Static signal study: chi sweep of the spectral representations.

    The signal (builtin double Gaussian or a CSV file) is shifted
    nonnegative, then swept over chi_grid; one eigensolve per chi serves
    every requested method.  Writes sweep_<method>.csv, best_<method>.csv
    and summary.csv.
    """
    _check(cfg, "scsa")
    if cfg.signal == "double_gaussian":
        fem = _build_space(cfg)
        x = fem.coords
        u = np.exp(-250.0 * (x - 0.25) ** 2) - np.exp(-250.0 * (x - 0.75) ** 2)
    else:
        x_full, u_full = read_signal_csv(cfg.signal)
        fem = _build_space(_on_samples(cfg, x_full))
        u = u_full[fem.active]

    u_shifted, offset = shift_nonnegative(u)
    log.info("[scsa] signal %r: %d samples, offset %.3e", cfg.signal, u.size, offset)

    results = chi_sweep(u_shifted, cfg.chi_grid, cfg.n_modes_cap, fem, methods=cfg.methods)
    for method, res in results.items():
        n, chi_b, err_b = res.best[-1]
        log.info("[scsa] %s: best at cap n=%d: chi=%g err=%.3e", method, n, chi_b, err_b)
        _save_csv(cfg.out_dir, f"sweep_{method}.csv", "chi,n_modes,error", np.array(res.rows))
        _save_csv(cfg.out_dir, f"best_{method}.csv", "n_modes,chi,error", np.array(res.best))
    if len(results) > 1:
        header = ["n_modes"] + [f"{col}_{m}" for m in results for col in ("chi", "err")]
        combined = np.column_stack([np.array(res.best)[:, 1:] for res in results.values()])
        _save_csv(cfg.out_dir, "summary.csv", ",".join(header),
                  np.column_stack([np.arange(1, cfg.n_modes_cap + 1), combined]))
    _write_manifest(cfg)
    return results


def run_chi_sweep(cfg: ExperimentConfig):
    """Repeat a dynamic experiment for every chi in chi_grid.

    Each chi runs in its own subdirectory of out_dir; the combined table
    (chi, nm, errors...) lands in sweep.csv.  Returns {chi: MetricsReport}.
    """
    _check(cfg, "sweep")
    reports = {}
    combined = []
    for chi in cfg.chi_grid:
        sub = replace(cfg, chi=float(chi), out_dir=os.path.join(cfg.out_dir, _chi_dir(chi)))
        log.info("[sweep] chi = %g", chi)
        rep = run_experiment(sub)
        reports[float(chi)] = rep
        combined.extend((chi, *astuple(r)) for r in rep.rows)
    if combined:
        _save_csv(cfg.out_dir, "sweep.csv", "chi," + _TABLE_HEADER, np.array(combined))
    _write_manifest(cfg)
    return reports
