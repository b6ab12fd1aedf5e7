"""Equation-specific closures for the reduced dynamics.

Each model supplies gamma, the expansion of N(u) - its linear transport or
reaction right-hand side - on the current modes.  The generic coefficient
law beta' = gamma - M beta lives in the base class; the soliton variant
holds its amplitudes constant instead.

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
]


class EquationModel:
    """Base class: required auxiliary matrices, closure hooks."""

    required_aux: tuple = ()
    coefficient_law = "standard"
    chi: float | None = None  # the chi of a closure that reads one

    def gamma(self, coeffs, lam, Tp, aux) -> np.ndarray:
        raise NotImplementedError

    def coeff_rhs(self, coeffs, M, gamma) -> np.ndarray:
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

    The amplitudes alpha_i = 4 kappa_i are the bound-state scattering data.
    The flow is isospectral, so they stay at their initial values; for
    reflectionless data this is exact.
    """

    required_aux = ("D",)
    coefficient_law = "soliton"

    def __init__(self, n_soliton: int):
        if n_soliton < 1:
            raise ValueError("need at least one soliton mode")
        self.n_soliton = int(n_soliton)

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

    def coeff_rhs(self, coeffs, M, gamma):
        """Constant amplitudes: alpha' = 0."""
        return np.zeros_like(coeffs)
