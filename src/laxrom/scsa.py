"""Signal representation by Schrodinger spectral expansions.

A nonnegative signal u can be encoded through the spectrum of
-d2/dx2 - chi u: either as a plain projection on the first eigenmodes, or
through the squared bound-state modes weighted by 4 sqrt(-lambda) / chi
(``soliton_amplitudes``, the reflectionless-potential reconstruction), two
readings of one spectrum, both formed by ``_expansion``.  The chi sweep
scores both from one eigensolve per chi to pick the sharpest
representation at a given mode budget.  Also a small CSV signal reader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenbasis import initial_projection, soliton_amplitudes, solve_schrodinger_eig
from .mesh import FemOperators

__all__ = [
    "eigen_expansion",
    "soliton_expansion",
    "shift_nonnegative",
    "chi_sweep",
    "SweepResult",
    "read_signal_csv",
]

METHODS = ("eigen", "soliton")  # the representations chi_sweep compares


def shift_nonnegative(u_nodal: np.ndarray):
    """Shift a signal by its minimum so it becomes nonnegative.

    Returns (shifted, offset); adding ``offset`` back recovers the input.
    """
    u_nodal = np.asarray(u_nodal, dtype=float)
    offset = float(u_nodal.min())
    return u_nodal - offset, offset


def _signal(u_nodal: np.ndarray, fem: FemOperators):
    """(u as floats, ||u||), checked before any eigensolve: a zero signal
    has no relative error."""
    u = np.asarray(u_nodal, dtype=float)
    unorm = fem.norm(u)
    if unorm == 0.0:
        raise ValueError("zero signal")
    return u, unorm


def _expansion(u: np.ndarray, unorm: float, basis, method: str):
    """Partial sums of one expansion of u on the basis, column n the n-term
    sum from n = 0, and their relative L2 errors: "eigen" projects on the
    first n modes, "soliton" sums the n deepest squared bound states up to
    their count.  Each error is measured on its partial sum, since the
    Parseval remainder ||u||^2 - sum beta_j^2 cancels to zero below ~1e-8.
    """
    if method == "eigen":
        parts = basis.B * initial_projection(basis, u)
    else:
        amplitudes = soliton_amplitudes(basis)
        parts = basis.B[:, :amplitudes.size] ** 2 * amplitudes
    partial = np.cumsum(np.column_stack([np.zeros_like(u), parts]), axis=1)
    return partial, [basis.fem.norm(u - approx) / unorm for approx in partial.T]


def eigen_expansion(u_nodal: np.ndarray, chi: float, n_modes: int, fem: FemOperators):
    """Projection of u on the first ``n_modes`` modes of its own operator.

    Returns (approximation, relative L2 error).
    """
    u, unorm = _signal(u_nodal, fem)
    partial, errors = _expansion(u, unorm, solve_schrodinger_eig(fem, u, chi, n_modes), "eigen")
    return partial[:, -1], errors[-1]


def soliton_expansion(u_nodal: np.ndarray, chi: float, fem: FemOperators):
    """Reflectionless reconstruction from every bound state.

    u ~ sum_m (4 kappa_m / chi) phi_m^2, kappa_m = sqrt(-lambda_m)
    (``soliton_amplitudes``).  The signal must be nonnegative (shift it
    first); with no bound state the approximation is zero.  Asks for 8
    states and doubles the request, up to the dof count, while all come
    back bound (``chi_sweep`` has a mode cap and needs no search).

    Returns (approximation, relative L2 error, number of bound states).
    """
    u, unorm = _signal(u_nodal, fem)
    if u.min() < -0.0:
        raise ValueError("signal must be nonnegative; apply shift_nonnegative first")
    k = min(8, fem.n_active)
    basis = solve_schrodinger_eig(fem, u, chi, k)
    while soliton_amplitudes(basis).size == k < fem.n_active:
        k = min(2 * k, fem.n_active)
        basis = solve_schrodinger_eig(fem, u, chi, k)
    partial, errors = _expansion(u, unorm, basis, "soliton")
    return partial[:, -1], errors[-1], partial.shape[1] - 1


@dataclass
class SweepResult:
    """chi sweep output.

    ``rows`` holds one (chi, n_modes, error) triple per grid point and mode
    count; ``best`` maps each mode count to the grid chi with the smallest
    error, as (n_modes, chi, error) triples.
    """

    rows: list
    best: list


def chi_sweep(
    u_nodal: np.ndarray,
    chi_grid,
    n_modes_cap: int,
    fem: FemOperators,
    methods=METHODS,
) -> dict:
    """Representation error as a function of chi and the mode budget.

    One eigensolve per chi, of the ``n_modes_cap`` lowest modes, serves
    every method (``_expansion``): the deepest bound states are the lowest
    modes.  "eigen": error of the n-mode projection for n = 1..cap.
    "soliton": error of the bound-state sum truncated to the n deepest
    states (for n beyond the bound-state count, the full sum).
    Returns {method: SweepResult} in the order of ``methods``.
    """
    if not set(methods) <= set(METHODS):
        raise ValueError(f"methods must be among {METHODS}, got {methods}")
    cap = int(n_modes_cap)
    if not 1 <= cap <= fem.n_active:
        raise ValueError(f"mode cap {cap} out of range")
    u, unorm = _signal(u_nodal, fem)

    rows = {method: [] for method in methods}
    for chi in (float(c) for c in chi_grid):
        basis = solve_schrodinger_eig(fem, u, chi, cap)
        for method, sweep in rows.items():
            errors = _expansion(u, unorm, basis, method)[1]
            sweep.extend((chi, n, errors[min(n, len(errors) - 1)]) for n in range(1, cap + 1))

    results = {}
    for method, sweep in rows.items():
        # the first chi in grid order with the smallest error, per mode count
        best = [min(((n, chi, err) for chi, nn, err in sweep if nn == n), key=lambda t: t[2])
                for n in range(1, cap + 1)]
        results[method] = SweepResult(rows=sweep, best=best)
    return results


def read_signal_csv(path):
    """Load a sampled signal from a two-column (x, u) CSV file.

    A header line is skipped if present.  Samples are sorted by x; a
    non-uniform grid is resampled onto a uniform one of the same length by
    linear interpolation.  Returns (x, u).
    """
    with open(path) as f:
        first = f.readline()
        skip = 0
        try:
            [float(tok) for tok in first.replace(",", " ").split()]
        except ValueError:
            skip = 1
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected two columns (x, u)")
    if not np.all(np.isfinite(data[:, :2])):
        raise ValueError(f"{path}: non-finite sample (nan or inf)")
    order = np.argsort(data[:, 0])
    x, u = data[order, 0], data[order, 1]
    if x.size < 3:
        raise ValueError(f"{path}: need at least 3 samples")
    if np.any(np.diff(x) <= 0):
        raise ValueError(f"{path}: duplicate x samples")
    spacing = np.diff(x)
    if not np.allclose(spacing, spacing[0], rtol=1e-8, atol=0.0):
        xu = np.linspace(x[0], x[-1], x.size)
        u = np.interp(xu, x, u)
        x = xu
    return x, u
