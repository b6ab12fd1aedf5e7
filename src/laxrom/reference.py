"""Reference solutions the reduced model is measured against.

Closed forms for advection and KdV solitons (one soliton directly, n
solitons through the Gelfand-Levitan-Marchenko determinant evaluated with
trace identities), and a Crank-Nicolson/Adams-Bashforth finite element
integrator for the FKPP reaction-diffusion problem.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .mesh import FemOperators, Mesh1D
# not called here since the reaction is taken from quadrature without a
# matrix, but kept as a module global: laxbench's tracer wraps it by this name
from .mesh import assemble_weighted_mass  # noqa: F401

__all__ = [
    "advection_exact",
    "kdv_one_soliton",
    "kdv_n_soliton",
    "fkpp_reference",
]


def advection_exact(u0, c: float, t: float, mesh: Mesh1D) -> np.ndarray:
    """Translated profile u0(x - c t) sampled at the mesh nodes.

    ``u0`` may be a callable or a nodal vector on the same mesh; nodal data
    is shifted by linear interpolation and taken as zero outside [a, b].
    """
    x = mesh.nodes - c * t
    if callable(u0):
        return np.asarray(u0(x), dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != mesh.nodes.shape:
        raise ValueError("nodal u0 does not match the mesh")
    return np.interp(x, mesh.nodes, u0, left=0.0, right=0.0)


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


def kdv_n_soliton(c, k, x: np.ndarray, t: float) -> np.ndarray:
    """n-soliton solution of u_t + 6 u u_x + u_xxx = 0.

    u = 2 d^2/dx^2 log det(I + A) with
    A_mn = c_m c_n / (k_m + k_n) * exp(theta_m + theta_n),
    theta_m = k_m x - 4 k_m^3 t + log c_m.

    The derivatives are taken analytically through trace identities,
    d/dx log det(I+A) = tr((I+A)^{-1} A'), evaluated after the similarity
    A = E Chat E with E = diag(e^theta): the traces only involve
    (E^{-2} + Chat)^{-1}, so large phases never overflow (e^{-2 theta} is
    clipped; a huge diagonal entry simply decouples a far-away soliton).
    """
    k = np.asarray(k, dtype=float)
    c = np.asarray(c, dtype=float)
    if k.shape != c.shape or k.ndim != 1:
        raise ValueError("c and k must be 1D arrays of equal length")
    if np.any(k <= 0) or np.any(c <= 0):
        raise ValueError("wavenumbers and norming constants must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))

    ksum = k[:, None] + k[None, :]
    Chat = 1.0 / ksum           # A   = E Chat  E
    C1 = np.ones_like(Chat)     # A'  = E Chat' E, Chat'_mn = 1
    C2 = ksum                   # A'' = E Chat'' E

    theta = k[None, :] * x[:, None] - 4.0 * k[None, :] ** 3 * t + np.log(c)[None, :]
    e2 = np.exp(np.minimum(-2.0 * theta, 700.0))
    P = np.zeros((x.size, k.size, k.size))
    P[:] = Chat[None]
    P[:, np.arange(k.size), np.arange(k.size)] += e2

    # one factorization of P per point serves both right-hand sides
    rhs = np.hstack([C1, C2])
    S = np.linalg.solve(P, np.broadcast_to(rhs, (x.size, *rhs.shape)))
    S1, S2 = S[..., :k.size], S[..., k.size:]
    tr2 = np.trace(S2, axis1=1, axis2=2)
    tr11 = np.einsum("qij,qji->q", S1, S1)
    return 2.0 * (tr2 - tr11)


def _square_load(fem: FemOperators):
    """The map u -> <u^2, v_i> on the active nodes, with no matrix.

    With (w, V) the quadrature weights and values matrix, it is
    V^T (w * (V u)^2), equal to W(u) u for the weighted mass matrix W(u)
    (``mesh.assemble_weighted_mass``); the rule is exact for the cubic
    integrand.  V^T is converted to CSR once, here.
    """
    qw, values, _ = fem.quadrature()
    values_t = values.T.tocsr()

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
) -> np.ndarray:
    """Finite element IMEX integration of u_t - laplacian u = nu u(1 - u).

    Crank-Nicolson on the diffusion, second-order Adams-Bashforth on the
    consistently projected reaction term (first step explicit Euler).  The
    reaction load <nu u (1 - u), v_i> = nu (G u - <u^2, v_i>) is evaluated
    at the quadrature points, exactly for the cubic integrand, without
    assembling a weighted mass matrix at each step.
    Returns an (n_steps + 1, n_active) array of nodal values.
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

    out = np.empty((n_steps + 1, fem.n_active))
    out[0] = u0_nodal
    u = u0_nodal.copy()
    f_prev = None
    for n in range(n_steps):
        f = reaction(u)
        if f_prev is None:
            rhs = Bmat @ u + dt * f
        else:
            rhs = Bmat @ u + dt * (1.5 * f - 0.5 * f_prev)
        u = lhs.solve(rhs)
        f_prev = f
        out[n + 1] = u
    return out
