"""Reference solutions the reduced model is measured against.

Closed forms for KdV solitons (one soliton directly, n solitons through
Hirota's tau-function), and a Crank-Nicolson/Adams-Bashforth finite element
integrator for the FKPP reaction-diffusion problem.  The closed forms
broadcast x against t, so one call gives a block of time levels; the
integrator yields one level at a time.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np
import scipy.sparse.linalg as spla

from .mesh import FemOperators
# unused here, but laxbench's tracer wraps this module global by name
from .mesh import assemble_weighted_mass  # noqa: F401

__all__ = [
    "kdv_one_soliton",
    "kdv_n_soliton",
    "fkpp_reference",
]


def _sech2(z: np.ndarray) -> np.ndarray:
    # 4 e^{-2|z|} / (1 + e^{-2|z|})^2, overflow-free for any z
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2


def kdv_one_soliton(beta_speed: float, x0: float, x: np.ndarray, t: float) -> np.ndarray:
    """Single soliton (beta/2) sech^2(sqrt(beta)/2 (x - beta t - x0))."""
    if beta_speed <= 0:
        raise ValueError("soliton speed must be positive")
    z = 0.5 * np.sqrt(beta_speed) * (np.asarray(x, dtype=float) - beta_speed * t - x0)
    return 0.5 * beta_speed * _sech2(z)


def kdv_n_soliton(c, k, x, t) -> np.ndarray:
    """n-soliton solution of u_t + 6 u u_x + u_xxx = 0.

    u = 2 d^2/dx^2 log tau, with Hirota's tau-function summed over the
    subsets S of the solitons,
        tau = sum_S exp(phi_S),  theta_m = k_m x - 4 k_m^3 t,
        phi_S = sum_{m in S} (2 theta_m + log(c_m^2 / 2k_m))
                + sum_{m<l in S} 2 log(|k_m - k_l| / (k_m + k_l)),
    equal to det(I + A) with A_mn = c_m c_n exp(theta_m + theta_n) / (k_m + k_n).
    Each phi_S has x-slope K_S = 2 sum_{m in S} k_m, so u = 2 Var_p(K) under
    the weights p = softmax(phi_S): no linear solve, and no exponential
    overflows however large the phases.  A subset holding two equal
    wavenumbers has zero weight and is left out.  x and t broadcast.
    """
    k = np.asarray(k, dtype=float)
    c = np.asarray(c, dtype=float)
    if k.shape != c.shape or k.ndim != 1:
        raise ValueError("c and k must be 1D arrays of equal length")
    if np.any(k <= 0) or np.any(c <= 0):
        raise ValueError("wavenumbers and norming constants must be positive")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)

    phi, slope = [], []
    for r in range(k.size + 1):
        for S in map(list, itertools.combinations(range(k.size), r)):
            pairs = list(itertools.combinations(S, 2))
            if any(k[m] == k[l] for m, l in pairs):
                continue
            log_weight = np.sum(np.log(c[S] ** 2 / (2.0 * k[S]))) + sum(
                2.0 * np.log(abs(k[m] - k[l]) / (k[m] + k[l])) for m, l in pairs)
            slope.append(2.0 * np.sum(k[S]))
            phi.append(log_weight + slope[-1] * x - 8.0 * np.sum(k[S] ** 3) * t)
    p = np.stack(phi)
    del phi  # keep one copy of the 2^n rows
    p -= p.max(axis=0)
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    mean = sum(p_S * K_S for p_S, K_S in zip(p, slope))
    return 2.0 * sum(p_S * (K_S - mean) ** 2 for p_S, K_S in zip(p, slope))


def _square_load(fem: FemOperators):
    """The map u -> <u^2, v_i> on the active nodes, with no matrix.

    With (w, V) the quadrature weights and values matrix, it is
    V^T (w * (V u)^2), equal to W(u) u for the weighted mass matrix W(u)
    (``mesh.assemble_weighted_mass``); the rule is exact for the cubic
    integrand.  V^T is the CSC view of the CSR V, not a copy.
    """
    qw, values = fem.qw, fem.values
    values_t = values.T

    def load(u):
        uq = values @ u
        return values_t @ (qw * uq * uq)

    return load


def fkpp_reference(
    fem: FemOperators,
    u0_nodal: np.ndarray,
    nu: float,
    dt: float,
    n_steps: int,
) -> Iterator[np.ndarray]:
    """Finite element IMEX integration of u_t - laplacian u = nu u(1 - u).

    Crank-Nicolson on the diffusion, second-order Adams-Bashforth on the
    consistently projected reaction term (first step explicit Euler).  The
    reaction load <nu u (1 - u), v_i> = nu (G u - <u^2, v_i>) is evaluated
    at the quadrature points, exactly for the cubic integrand, without
    assembling a weighted mass matrix at each step.
    A generator: it yields the n_steps + 1 levels of nodal values, u0
    first, and holds no series.  Each level is a new array, which the next
    step reads, so a caller copies it before writing to it.
    """
    u0_nodal = np.asarray(u0_nodal, dtype=float)
    if u0_nodal.shape != (fem.n_active,):
        raise ValueError("u0 does not live on the active nodes")
    G = fem.mass
    K = fem.stiffness
    lhs = spla.splu((G + 0.5 * dt * K).tocsc())
    Bmat = (G - 0.5 * dt * K).tocsr()
    square_load = _square_load(fem)

    def reaction(u):
        return nu * (G @ u - square_load(u))

    u = u0_nodal.copy()
    yield u
    f_prev = None
    for _ in range(n_steps):
        f = reaction(u)
        if f_prev is None:
            rhs = Bmat @ u + dt * f
        else:
            rhs = Bmat @ u + dt * (1.5 * f - 0.5 * f_prev)
        u = lhs.solve(rhs)
        f_prev = f
        yield u
