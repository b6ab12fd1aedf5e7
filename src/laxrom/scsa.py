"""Signal representation by Schrodinger spectral expansions.

A nonnegative signal u can be encoded through the spectrum of
-d2/dx2 - chi u: either as a plain projection on the first eigenmodes, or
through the squared bound-state modes weighted by sqrt(-lambda) (the
reflectionless-potential reconstruction), two readings of one spectrum.
The chi sweep scores both from one eigensolve per chi to pick the sharpest
representation at a given mode budget.  Also a small CSV signal reader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenbasis import BOUND_STATE_TOL, initial_projection, solve_schrodinger_eig
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


def _rel_error(fem, u, approx):
    denom = fem.norm(u)
    if denom == 0.0:
        raise ValueError("zero signal")
    return fem.norm(u - approx) / denom


def eigen_expansion(u_nodal: np.ndarray, chi: float, n_modes: int, fem: FemOperators):
    """Projection of u on the first ``n_modes`` modes of its own operator.

    Returns (approximation, relative L2 error).
    """
    u_nodal = np.asarray(u_nodal, dtype=float)
    basis = solve_schrodinger_eig(fem, u_nodal, chi, n_modes)
    beta, _ = initial_projection(basis, u_nodal)
    approx = basis.B @ beta
    return approx, _rel_error(fem, u_nodal, approx)


def _bound_states(u_nodal: np.ndarray, chi: float, fem: FemOperators):
    """kappa_m = sqrt(-lambda_m) and modes phi_m of every bound state,
    lambda_m < -BOUND_STATE_TOL.

    Asks for 8 states and doubles the request, up to the dof count, until
    the highest eigenvalue returned is no longer bound, so only the bound
    states and a few more are solved for (``chi_sweep`` has a mode cap and
    needs no search).
    """
    k = min(8, fem.n_active)
    while True:
        basis = solve_schrodinger_eig(fem, u_nodal, chi, k)
        if basis.lam[-1] >= -BOUND_STATE_TOL or k == fem.n_active:
            break
        k = min(2 * k, fem.n_active)
    neg = basis.lam < -BOUND_STATE_TOL
    return np.sqrt(-basis.lam[neg]), basis.B[:, neg]


def soliton_expansion(u_nodal: np.ndarray, chi: float, fem: FemOperators):
    """Reflectionless reconstruction from the bound states.

    u ~ (4/chi) sum_m kappa_m phi_m^2 over the bound states, lambda_m <
    -BOUND_STATE_TOL, with kappa_m = sqrt(-lambda_m).  The signal must be
    nonnegative (shift it first); with no bound state the approximation is
    zero.

    Returns (approximation, relative L2 error, number of bound states).
    """
    u_nodal = np.asarray(u_nodal, dtype=float)
    if u_nodal.min() < -0.0:
        raise ValueError("signal must be nonnegative; apply shift_nonnegative first")
    kappa, phi = _bound_states(u_nodal, chi, fem)
    approx = (4.0 / chi) * ((phi**2) @ kappa)
    return approx, _rel_error(fem, u_nodal, approx), kappa.size


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
    every method: the deepest bound states are the lowest modes.
    "eigen": error of the n-mode projection for n = 1..cap; each residual
    ||u - partial_n|| is measured directly on the cumulative partial sums,
    since the Parseval remainder ||u||^2 - sum beta_j^2 cancels to zero
    once the error falls below ~1e-8.
    "soliton": error of the bound-state sum truncated to the n deepest
    states (for n beyond the bound-state count, the full sum).
    Returns {method: SweepResult} in the order of ``methods``.
    """
    if not set(methods) <= set(METHODS):
        raise ValueError(f"methods must be among {METHODS}, got {methods}")
    u_nodal = np.asarray(u_nodal, dtype=float)
    cap = int(n_modes_cap)
    if not 1 <= cap <= fem.n_active:
        raise ValueError(f"mode cap {cap} out of range")
    unorm = fem.norm(u_nodal)
    if unorm == 0.0:
        raise ValueError("zero signal")

    rows = {method: [] for method in methods}
    for chi in (float(c) for c in chi_grid):
        basis = solve_schrodinger_eig(fem, u_nodal, chi, cap)
        for method, sweep in rows.items():
            if method == "eigen":
                parts = basis.B * initial_projection(basis, u_nodal)[0]
            else:
                neg = basis.lam < -BOUND_STATE_TOL
                parts = (4.0 / chi) * basis.B[:, neg] ** 2 * np.sqrt(-basis.lam[neg])
            # column n holds the n-term approximation
            partial = np.cumsum(np.column_stack([np.zeros_like(u_nodal), parts]), axis=1)
            for n in range(1, cap + 1):
                approx = partial[:, min(n, partial.shape[1] - 1)]
                sweep.append((chi, n, fem.norm(u_nodal - approx) / unorm))

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
