"""Time integration of the reduced system.

The state is one flat vector y = (coefficients, eigenvalues, interaction
tensor T, auxiliary matrices), advanced as a whole by the implicit midpoint
rule, with the basis-rotation generator M rebuilt from the half-step state
at every nonlinear iteration:

    Theta_ij = sum_m T_ijm gamma_m
    M_ij = chi Theta_ij / (lambda_i - lambda_j)   (i != j)
    coeffs' = gamma - M coeffs          (or the soliton law)
    lambda_i' = -chi Theta_ii
    T' = {M, T}       (rank-3 bracket)
    X' = [X, M]       for each auxiliary matrix X

T is held in y by its n(n+1)(n+2)/6 unique entries (i <= j <= k), and the
bracket computes only those.  Each right-hand side evaluation gathers the
pair matrix Tp of T (``tensors.SymmetricIndex``, half of the n^3 entries)
once and shares it with the model and the bracket; Theta is contracted
from it once and gives both M and the eigenvalue law.  The right-hand side
never builds the full (n, n, n) tensor.

Each stage of the iteration (midpoint, proposal, change, scale) is one
elementwise operation on the whole of y, and the other named fields are
views into it.  The right-hand side writes each field into its slice of
one output array, and a step reuses its midpoint and change buffers:
buffers are written, states never, so states are shared without copying.
Level k sits at t_k = k dt (``SolverConfig.times``): no state or
trajectory keeps a clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .eigenbasis import ReducedBasis
from .models import EquationModel
from .reconstruct import InvariantError, rotation_step
from .tensors import (
    assemble_D,
    assemble_D3,
    assemble_T,
    bracket3,
    commutator,
    contract,
    pack_symmetric,
    symmetric_index,
    unpack_symmetric,
)

__all__ = [
    "FixedPointError",
    "SolverConfig",
    "ReducedState",
    "Trajectory",
    "build_M",
    "frobenius_norm_sq",
    "mode_indicator",
    "step_midpoint",
    "initial_state",
    "run",
]


class FixedPointError(RuntimeError):
    """Midpoint fixed-point iteration failed to converge."""


@dataclass
class SolverConfig:
    """Parameters of the reduced integration."""

    chi: float = 1.0
    dt: float = 1e-3
    t_max: float = 1.0
    fp_tol: float = 1e-9
    fp_max_iters: int = 100
    tol_deg: float = 1e-8

    def n_steps(self) -> int:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        n = int(round(self.t_max / self.dt))
        if n < 1 or abs(n * self.dt - self.t_max) > 1e-9 * max(self.t_max, 1.0):
            raise ValueError(f"t_max={self.t_max} is not a multiple of dt={self.dt}")
        return n

    def times(self) -> np.ndarray:
        """The time levels t_k = k dt, k = 0, ..., n_steps()."""
        return self.dt * np.arange(self.n_steps() + 1)


class StateLayout:
    """Slices of the fields in the flat state vector.

    y = [coeffs, lambda, the unique entries of T (``pack_symmetric``
    order), the aux matrices in ``aux_names`` order]; the slices, the
    shapes and the pair-matrix gather are computed once, not on every
    evaluation.
    """

    def __init__(self, n_coeffs: int, n_modes: int, aux_names: tuple):
        self.n_modes = n = n_modes
        self.aux_names = tuple(aux_names)
        ends = np.cumsum([n_coeffs, n, n * (n + 1) * (n + 2) // 6]).tolist()
        self._fields = tuple(slice(a, b) for a, b in zip([0] + ends[:-1], ends))
        # the aux matrices follow as one (len(aux), n, n) block
        self._aux = slice(ends[-1], None), (len(self.aux_names), n, n)
        self._pairs = symmetric_index(n).pairs

    def views(self, y: np.ndarray):
        """Views (coeffs, lam, packed T, aux dict) into y."""
        (c, lam, t), (aux, shape) = self._fields, self._aux
        return y[c], y[lam], y[t], dict(zip(self.aux_names, y[aux].reshape(shape)))

    def split(self, y: np.ndarray):
        """(coeffs, lam, Tp, aux dict) of y, with Tp the (n, n(n+1)/2) pair
        matrix of T (``tensors.SymmetricIndex``)."""
        coeffs, lam, t, aux = self.views(y)
        return coeffs, lam, t[self._pairs], aux


@dataclass
class ReducedState:
    """Reduced variables at one time level, held in one flat vector.

    ``y`` is made read-only on construction; ``coeffs``, ``lam`` and ``aux``
    are views into it laid out by ``layout``.  ``T`` is the full read-only
    (n, n, n) tensor, unpacked from y on first access.
    """

    y: np.ndarray
    layout: StateLayout = field(repr=False)
    coeffs: np.ndarray = field(init=False, repr=False)
    lam: np.ndarray = field(init=False, repr=False)
    aux: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.y.flags.writeable = False
        self.coeffs, self.lam, _, self.aux = self.layout.views(self.y)

    @cached_property
    def T(self) -> np.ndarray:
        T = unpack_symmetric(self.layout.views(self.y)[2], self.layout.n_modes)
        T.flags.writeable = False
        return T


@lru_cache(maxsize=1)  # a trajectory keeps one mode count
def _strict_upper(n: int) -> np.ndarray:
    """Read-only (n, n) mask of the entries above the diagonal."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def build_M(lam, theta, chi: float, tol_deg: float = 1e-8) -> np.ndarray:
    """Basis-rotation generator from the non-isospectral compatibility relation.

    M_ij = chi Theta_ij / (lambda_i - lambda_j) with Theta_ij = sum_m T_ijm
    gamma_m (``tensors.contract``), zero diagonal, entries with
    |lambda_i - lambda_j| below tol_deg * (1 + |lambda_i|) zeroed.
    Skew-symmetry is exact: the upper triangle U is computed and M = U - U^T.
    """
    lam = np.asarray(lam, dtype=float)
    denom = lam[:, None] - lam[None, :]
    ok = np.abs(denom) > tol_deg * (1.0 + np.abs(lam))[:, None]
    ok &= _strict_upper(lam.size)
    U = np.divide(chi * theta, denom, out=np.zeros_like(denom), where=ok)
    return U - U.T


def frobenius_norm_sq(M: np.ndarray) -> float:
    """Squared Frobenius norm sum_mn M_mn^2 (residual energy of the basis)."""
    return float(np.sum(M * M))


def mode_indicator(M: np.ndarray) -> np.ndarray:
    """Per-mode residual indicator e(phi_m) = sum_n M_mn^2."""
    return np.sum(M * M, axis=1)


def _generator(fields, model: EquationModel, cfg: SolverConfig):
    """(gamma, Theta, M) at the state whose fields are ``fields``."""
    coeffs, lam, Tp, aux = fields
    gamma = model.gamma(coeffs, lam, Tp, aux)
    theta = contract(Tp, gamma)
    M = model.override_m(aux)
    if M is None:
        M = build_M(lam, theta, cfg.chi, cfg.tol_deg)
    return gamma, theta, M


def _rhs(y: np.ndarray, layout: StateLayout, model: EquationModel, cfg: SolverConfig):
    """Flat right-hand side of the reduced system at y, each field written
    into its slice of one new array."""
    coeffs, lam, Tp, aux = fields = layout.split(y)
    gamma, theta, M = _generator(fields, model, cfg)
    out = np.empty_like(y)
    f_coeffs, f_lam, f_t, f_aux = layout.views(out)
    f_coeffs[:] = model.coeff_rhs(coeffs, M, gamma)
    np.multiply(theta.diagonal(), -cfg.chi, out=f_lam)
    bracket3(M, Tp, out=f_t)
    for X, f_X in zip(aux.values(), f_aux.values()):
        commutator(X, M, out=f_X)
    return out


def _closest_pair(start: np.ndarray, last: np.ndarray, layout: StateLayout,
                  model: EquationModel, cfg: SolverConfig) -> str:
    """The pair that ``build_M`` leaves unmasked closest to its threshold
    tol_deg (1 + |lambda_i|) at the step start, with its gap over that
    threshold and |M_ij| there and at the last half-step iterate.  M_ij
    grows like the reciprocal of the gap, and a pair that the mask catches
    on some iterates and not on others keeps the iteration from settling."""
    at = []
    for y in (start, last):
        fields = layout.split(y)
        lam = fields[1]
        ratio = np.abs(lam[:, None] - lam) / (cfg.tol_deg * (1.0 + np.abs(lam))[:, None])
        at.append((ratio, _generator(fields, model, cfg)[2]))
    (ratio, M), (ratio_last, M_last) = at
    unmasked = (ratio > 1.0) & _strict_upper(ratio.shape[0])
    if not unmasked.any():
        return "no unmasked pair"
    i, j = np.unravel_index(np.argmin(np.where(unmasked, ratio, np.inf)), ratio.shape)
    return (f"closest unmasked pair ({i}, {j}): gap {ratio[i, j]:.3g} x its tol_deg "
            f"threshold and |M_ij| {abs(M[i, j]):.3e} at the step start, "
            f"{ratio_last[i, j]:.3g} x and {abs(M_last[i, j]):.3e} at the last half-step iterate")


def step_midpoint(state: ReducedState, model: EquationModel, cfg: SolverConfig):
    """One implicit midpoint step.

    The update y+ = y + dt f((y + y+)/2) is solved by fixed-point iteration
    started from the current state, stopping when the largest component
    change drops below cfg.fp_tol relative to the magnitude of the state
    (the eigenvalues grow like chi, so an absolute test would demand more
    than roundoff allows at large chi).  Divergence (NaN) or running out of
    iterations raises FixedPointError; running out names the closest
    unmasked eigenvalue pair (``_closest_pair``).

    Buffers are written, states never: the midpoint and the change reuse
    two buffers, and y + dt f is formed in each iteration's new right-hand
    side array, in the order of 0.5 (y + new) and y + dt f(half).

    Returns
    -------
    (new_state, M_half) : the advanced state and the generator evaluated at
    the converged half step (the one that also propagates the basis).
    """
    dt, y, layout = cfg.dt, state.y, state.layout
    scale = 1.0 + np.abs(y).max()
    half, delta = np.empty_like(y), np.empty_like(y)
    new = y
    last_delta = np.inf
    for _ in range(cfg.fp_max_iters):
        np.multiply(np.add(y, new, out=half), 0.5, out=half)
        prop = _rhs(half, layout, model, cfg)
        np.add(np.multiply(prop, dt, out=prop), y, out=prop)
        last_delta = float(np.abs(np.subtract(prop, new, out=delta), out=delta).max())
        if not np.isfinite(last_delta):
            raise FixedPointError("midpoint iteration diverged")
        new = prop
        if last_delta <= cfg.fp_tol * scale:
            break
    else:
        raise FixedPointError(
            f"no convergence in {cfg.fp_max_iters} iterations "
            f"(last delta {last_delta:.3e}); {_closest_pair(y, half, layout, model, cfg)}"
        )
    np.multiply(np.add(y, new, out=half), 0.5, out=half)
    *_, M_half = _generator(layout.split(half), model, cfg)
    return ReducedState(new, layout), M_half


def _operator(root: ReducedBasis, kind: str) -> np.ndarray:
    """The operator ``kind`` (T, D or D3) of the basis, assembled on first use."""
    if kind not in root.operators:
        assemblers = {"T": assemble_T, "D": assemble_D, "D3": assemble_D3}
        if kind not in assemblers:
            raise ValueError(f"unknown auxiliary operator {kind!r}")
        op = assemblers[kind](root)
        op.flags.writeable = False
        root.operators[kind] = op
    return root.operators[kind]


def initial_state(basis: ReducedBasis, coeffs0: np.ndarray, model: EquationModel) -> ReducedState:
    """T(0) and the model's auxiliary matrices on the basis.

    Every entry T_ijk, D_ij and D3_ij involves only the modes it indexes,
    so the operators of a truncated basis are the leading [:n, :n, :n] and
    [:n, :n] blocks of those of its root (``ReducedBasis.truncate``).
    They are assembled once on the root, at its full mode count, and kept
    there: all mode counts of a run share one assembly.  An untruncated
    basis is its own root.
    """
    coeffs0 = np.asarray(coeffs0, dtype=float)
    root, n = basis.root or basis, basis.n_modes
    aux = [_operator(root, kind)[:n, :n] for kind in model.required_aux]
    T = _operator(root, "T")[:n, :n, :n]
    layout = StateLayout(coeffs0.size, n, model.required_aux)
    y = np.concatenate([coeffs0, basis.lam, pack_symmetric(T), *(X.ravel() for X in aux)])
    return ReducedState(y, layout)


@dataclass
class Trajectory:
    """Reduced trajectory stored as arrays.

    ``coeffs``/``frame`` have one row per time level (``SolverConfig.times``),
    ``frob`` (Frobenius norm of M) one entry per step, evaluated at the
    converged half steps.  ``frame`` holds each level in the frame of the
    initial modes B_0: a_k = Q_k c_k (standard law) or the p columns
    Q_k[:, :p] of the squared modes (soliton law); ``rotation`` is the end
    rotation Q_n.  The full initial and final states are kept for
    inspection; interior interaction tensors and generators are not.
    """

    coeffs: np.ndarray
    frame: np.ndarray
    rotation: np.ndarray
    frob: np.ndarray
    first: ReducedState
    last: ReducedState

    @property
    def n_steps(self) -> int:
        return self.frob.shape[0]


# steps between re-orthonormalizations of the basis rotation
_BLOCK = 64


def run(
    basis: ReducedBasis,
    coeffs0: np.ndarray,
    model: EquationModel,
    cfg: SolverConfig,
) -> Trajectory:
    """Integrate the reduced system over [0, t_max].

    The basis rotation advances with each step (``rotation_step``) and is
    re-orthonormalized every _BLOCK steps and at the last one.  A
    FixedPointError or InvariantError is raised again with the mode count
    and the index (a FixedPointError also the time) of the failed step
    prefixed to its message.
    """
    if cfg.chi != basis.chi:
        raise ValueError(f"config chi={cfg.chi} but basis was built with {basis.chi}")
    n_steps = cfg.n_steps()
    state = initial_state(basis, coeffs0, model)
    n = basis.n_modes
    p = state.coeffs.size
    standard = model.coefficient_law == "standard"

    coeffs = np.empty((n_steps + 1, p))
    frame = np.empty((n_steps + 1, n) if standard else (n_steps + 1, n, p))
    frob = np.empty(n_steps)

    coeffs[0] = state.coeffs
    Q = np.eye(n)
    frame[0] = coeffs[0] if standard else Q[:, :p]
    first = state
    for k in range(n_steps):
        try:
            state, M = step_midpoint(state, model, cfg)
        except FixedPointError as exc:
            raise FixedPointError(f"N_M={n} step {k} at t={cfg.times()[k]:.6g}: {exc}") from None
        coeffs[k + 1] = state.coeffs
        frob[k] = np.sqrt(frobenius_norm_sq(M))
        try:
            Q = rotation_step(Q, M, cfg.dt, k % _BLOCK == _BLOCK - 1 or k == n_steps - 1)
        except InvariantError as exc:
            raise InvariantError(f"N_M={n} step {k}: {exc}") from None
        frame[k + 1] = Q[:, :p] @ coeffs[k + 1] if standard else Q[:, :p]
    return Trajectory(coeffs=coeffs, frame=frame, rotation=Q, frob=frob, first=first, last=state)
