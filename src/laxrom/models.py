"""Equation-specific closures for the reduced dynamics.

Each model supplies gamma, the expansion of N(u) - its linear transport or
reaction right-hand side - on the current modes, plus (for the soliton
variant) its own coefficient evolution law.  The generic coefficient law
beta' = gamma - M beta lives in the base class.

The interaction tensor reaches the models as its pair matrix Tp,
Tp[l, pair(j, k)] = T_ljk (``tensors.SymmetricIndex``).
"""

from __future__ import annotations

import numpy as np

from .tensors import contract, symmetric_index

__all__ = [
    "EquationModel",
    "AdvectionModel",
    "KdvEigenModel",
    "FkppModel",
    "KdvSolitonModel",
    "soliton_coefficient_rhs",
]


def soliton_coefficient_rhs(alpha, Tp, M, gamma) -> np.ndarray:
    """Evolution of the squared-mode amplitudes alpha (first len(alpha) modes).

    Differentiating u = sum_j alpha_j phi_j^2 in time and matching it against
    the flow term row by row gives the overdetermined linear system

        sum_j T_ijj alpha_j' = gamma_i - 2 sum_{j,m} M_mj T_ijm alpha_j

    over all modes i, solved here in the least-squares sense.  Restricting the
    rows to the soliton block and dropping the T weights would decouple the
    amplitudes only while the humps stay separated; the projected form keeps
    them constant (up to truncation) through collisions as well.
    """
    p = alpha.size
    pair = symmetric_index(Tp.shape[0]).pair
    S = Tp[:, pair.diagonal()[:p]]  # T_ijj
    C = np.einsum("ijm,mj->ij", Tp[:, pair[:p]], M[:, :p])
    rhs = gamma - 2.0 * (C @ alpha)
    sol, *_ = np.linalg.lstsq(S, rhs, rcond=None)
    return sol


class EquationModel:
    """Base class: required auxiliary matrices, closure hooks."""

    required_aux: tuple = ()
    coefficient_law = "standard"

    def gamma(self, coeffs, lam, Tp, aux) -> np.ndarray:
        raise NotImplementedError

    def coeff_rhs(self, coeffs, lam, Tp, M, aux, gamma) -> np.ndarray:
        """Default modal law beta' = gamma - M beta."""
        return gamma - M @ coeffs

    def override_m(self, aux):
        """Exact-propagator override; None means use the spectral M."""
        return None


class AdvectionModel(EquationModel):
    """u_t + c u_x = 0, with the transport closure gamma = -c D beta.

    With ``exact_m=True`` the basis is propagated with M = -c D (the known
    exact transport generator) instead of the spectral reconstruction; the
    coefficients then stay frozen and the modes advect rigidly.
    """

    required_aux = ("D",)

    def __init__(self, c: float, exact_m: bool = False):
        self.c = float(c)
        self.exact_m = bool(exact_m)

    def gamma(self, coeffs, lam, Tp, aux):
        return -self.c * (aux["D"] @ coeffs)

    def override_m(self, aux):
        if self.exact_m:
            return -self.c * aux["D"]
        return None


class KdvEigenModel(EquationModel):
    """u_t + 6 u u_x + u_xxx = 0, standard eigen expansion, with the closure

    gamma_i = (3/chi) sum_j lambda_j D_ij beta_j - (1 - 3/chi) sum_j D3_ij beta_j
    """

    required_aux = ("D", "D3")

    def __init__(self, chi: float):
        self.chi = float(chi)

    def gamma(self, coeffs, lam, Tp, aux):
        D, D3, chi = aux["D"], aux["D3"], self.chi
        return (3.0 / chi) * (D @ (lam * coeffs)) - (1.0 - 3.0 / chi) * (D3 @ coeffs)


class FkppModel(EquationModel):
    """u_t - laplacian u = nu u (1 - u), with the closure

    gamma_i = (nu - lambda_i) beta_i - (chi + nu) sum_jk T_ijk beta_j beta_k
    """

    required_aux = ()

    def __init__(self, nu: float, chi: float):
        self.nu = float(nu)
        self.chi = float(chi)

    def gamma(self, coeffs, lam, Tp, aux):
        quad = contract(Tp, coeffs) @ coeffs
        return (self.nu - lam) * coeffs - (self.chi + self.nu) * quad


class KdvSolitonModel(EquationModel):
    """KdV expanded on squared bound-state modes u = sum alpha_i phi_i^2.

    ``n_soliton`` is the number of negative eigenvalues of the initial
    operator; only that leading block carries coefficients, while the full
    mode set still transports lambda, T and D.

    ``amplitude_law`` selects how the amplitudes evolve:

    - "frozen" (default): alpha_i = 4 kappa_i stays pinned at its initial
      value.  For reflectionless data this is the exact scattering
      invariant of the flow, so freezing adds no model error while the
      dynamic identifications below inject truncation noise.
    - "projected": least-squares identification against the projected flow
      (:func:`soliton_coefficient_rhs`).
    - "separated": per-mode law alpha_i' = -2 sum_j (M_ij - 4 lambda_j
      D_ij) alpha_j over the soliton block; exact while the humps do not
      overlap, unreliable through collisions.
    """

    required_aux = ("D",)
    coefficient_law = "soliton"

    AMPLITUDE_LAWS = ("frozen", "projected", "separated")

    def __init__(self, n_soliton: int, amplitude_law: str = "frozen"):
        if n_soliton < 1:
            raise ValueError("need at least one soliton mode")
        if amplitude_law not in self.AMPLITUDE_LAWS:
            raise ValueError(f"amplitude_law must be one of {self.AMPLITUDE_LAWS}")
        self.n_soliton = int(n_soliton)
        self.amplitude_law = amplitude_law

    def gamma(self, coeffs, lam, Tp, aux):
        # For u = sum_j alpha_j phi_j^2 the flow term collapses, via the
        # eigenrelation phi_j'' = -(lambda_j + u) phi_j, to
        # 8 sum_j lambda_j alpha_j phi_j phi_j'.  Expanding phi_j^2 on the
        # modes turns the projection of phi_j phi_j' into a D/T contraction:
        # gamma_i = 4 sum_j lambda_j alpha_j sum_m D_im T_mjj.
        p = self.n_soliton
        D = aux["D"]
        tdiag = Tp[:, symmetric_index(Tp.shape[0]).pair.diagonal()[:p]]  # T_mjj
        return 4.0 * (D @ (tdiag @ (lam[:p] * coeffs)))

    def coeff_rhs(self, coeffs, lam, Tp, M, aux, gamma):
        if self.amplitude_law == "frozen":
            return np.zeros_like(coeffs)
        if self.amplitude_law == "projected":
            return soliton_coefficient_rhs(coeffs, Tp, M, gamma)
        p = self.n_soliton
        block = M[:p, :p] - 4.0 * lam[None, :p] * aux["D"][:p, :p]
        return -2.0 * (block @ coeffs)
