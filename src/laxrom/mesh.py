"""P1 finite element meshes and assembled operators.

One mesh type, ``Mesh(nodes, elements, boundary)``, holds uniform 1D
intervals and structured 2D triangulations of the unit square.  ``assemble``
builds the mass and stiffness matrices and the quadrature the rest of the
package consumes whole, from one pass over the element measures: both
dimensions assemble through one element scatter and build their quadrature
from one table of barycentric rules.  Homogeneous Dirichlet conditions are
imposed by row/column elimination so generalized eigenproblems stay
symmetric; under Neumann every node is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "AssemblyError",
    "Mesh",
    "FemOperators",
    "build_uniform_mesh_1d",
    "build_structured_square_mesh",
    "assemble",
    "assemble_weighted_mass",
]

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# the 2-point Gauss rule's points on [0, 1]
_GAUSS2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])

# Per dimension, a rule exact for cubics (every integrand assembled here is
# a P1 weight times two hat functions): barycentric points (q, dim + 1) and
# weights as fractions of the element measure.
_RULES = {
    1: (np.column_stack([1.0 - _GAUSS2, _GAUSS2]), np.array([0.5, 0.5])),
    2: (np.array([[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
                  [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]),
        np.array([-27.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0])),
}


class AssemblyError(RuntimeError):
    """Raised when a mesh contains a degenerate (zero measure) element."""


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 mesh of an interval or a planar domain.

    Attributes
    ----------
    nodes : (n,) array of node coordinates in 1D, (n, 2) in 2D.
    elements : (m, dim + 1) int array of node indices: the segments
        (i, i + 1) in 1D, counterclockwise triangles in 2D.
    boundary : (n,) int array, 1 on boundary nodes, 0 elsewhere.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.ndim


def _interval(nodes: np.ndarray) -> Mesh:
    """The 1D mesh of increasing ``nodes``: segments join neighbours, and
    the two end nodes are the boundary."""
    n = nodes.size
    boundary = np.zeros(n, dtype=np.int64)
    boundary[[0, -1]] = 1
    return Mesh(nodes, np.column_stack([np.arange(n - 1), np.arange(1, n)]), boundary)


def build_uniform_mesh_1d(a: float, b: float, n_nodes: int) -> Mesh:
    """Uniform mesh with ``n_nodes`` nodes (so n_nodes - 1 elements) on [a, b]."""
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if n_nodes < 3:
        raise ValueError("need at least 3 nodes")
    return _interval(np.linspace(a, b, n_nodes))


def build_structured_square_mesh(n_per_side: int) -> Mesh:
    """Structured right-triangle mesh of the unit square.

    ``n_per_side`` vertices per edge, each grid cell split along its
    ascending diagonal; all triangles come out counterclockwise.
    """
    if n_per_side < 2:
        raise ValueError("need at least 2 vertices per side")
    n = n_per_side
    g = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(g, g, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    idx = np.arange(n * n).reshape(n, n)  # idx[j, i] = j * n + i (row j = y level)
    v00 = idx[:-1, :-1].ravel()
    v10 = idx[:-1, 1:].ravel()
    v01 = idx[1:, :-1].ravel()
    v11 = idx[1:, 1:].ravel()
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.vstack([lower, upper]).astype(np.int64)

    boundary = np.zeros(n * n, dtype=np.int64)
    boundary[idx[0, :]] = 1
    boundary[idx[-1, :]] = 1
    boundary[idx[:, 0]] = 1
    boundary[idx[:, -1]] = 1
    return Mesh(nodes, triangles, boundary)


@dataclass(frozen=True)
class FemOperators:
    """Assembled P1 operators restricted to the active (non-eliminated) nodes.

    ``mass`` is the Grammian of the hat-function basis, ``stiffness`` the
    Laplacian form.
    ``active`` holds the indices of the retained nodes in the full mesh.
    The quadrature, exact for piecewise cubics: ``qw`` are its weights,
    ``values`` maps an active-node vector to its interpolant sampled at the
    quadrature points, and ``deriv`` to its x-derivative there (1D only,
    None in 2D).
    """

    mesh: Mesh
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    active: np.ndarray
    qw: np.ndarray
    values: sp.csr_matrix
    deriv: sp.csr_matrix | None

    @property
    def n_active(self) -> int:
        return self.active.size

    @property
    def coords(self) -> np.ndarray:
        """Coordinates of the active nodes ((n,) in 1D, (n, 2) in 2D)."""
        return self.mesh.nodes[self.active]

    def embed(self, u_active: np.ndarray) -> np.ndarray:
        """Extend an active-node vector by zeros to the full node set."""
        full = np.zeros(self.mesh.n_nodes)
        full[self.active] = u_active
        return full

    def norm(self, u: np.ndarray):
        """L2(Omega) norm of the P1 function with active-node values ``u``.

        A stack of functions, shape (levels, N), gives one norm per row.
        """
        if u.ndim == 1:
            return float(np.sqrt(abs(u @ (self.mass @ u))))
        return np.sqrt(np.abs(np.einsum("ij,ij->i", u, (self.mass @ u.T).T)))


def active_nodes(mesh: Mesh, bc: str) -> np.ndarray:
    """Indices of the nodes ``assemble(mesh, bc)`` keeps: every node under
    Neumann, the interior ones under Dirichlet."""
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"unknown boundary condition {bc!r}")
    if bc == NEUMANN:
        return np.arange(mesh.n_nodes)
    return np.flatnonzero(mesh.boundary == 0)


def assemble(mesh: Mesh, bc: str = DIRICHLET) -> FemOperators:
    """Assemble mass, stiffness and quadrature for the given mesh.

    Parameters
    ----------
    mesh : Mesh
    bc : "dirichlet" or "neumann"
        Dirichlet eliminates boundary rows and columns, which keeps every
        returned matrix symmetric.

    Returns
    -------
    FemOperators
    """
    active = active_nodes(mesh, bc)
    measure = _measure(mesh)
    G, K = (_assemble_1d if mesh.dim == 1 else _assemble_2d)(mesh, measure)
    sel = np.ix_(active, active)
    G = G.tocsr()[sel].tocsr()
    K = K.tocsr()[sel].tocsr()
    # exact symmetry (assembly is symmetric up to summation order)
    G = ((G + G.T) * 0.5).tocsr()
    K = ((K + K.T) * 0.5).tocsr()
    return FemOperators(mesh, G, K, active, *_quadrature(mesh, measure, active))


def assemble_weighted_mass(fem: FemOperators, u_nodal: np.ndarray) -> sp.csr_matrix:
    """Weighted mass matrix W_ij = <u v_j, v_i> for a P1 weight u.

    ``u_nodal`` lives on the active nodes (implicitly zero on eliminated
    Dirichlet nodes).  The quadrature is exact for the cubic integrand, and
    the result is symmetrized so W is exactly symmetric.
    """
    u_nodal = np.asarray(u_nodal, dtype=float)
    if u_nodal.shape != (fem.n_active,):
        raise ValueError(
            f"weight has shape {u_nodal.shape}, expected ({fem.n_active},)"
        )
    values = fem.values
    W = (values.T.multiply(fem.qw * (values @ u_nodal))) @ values
    return ((W + W.T) * 0.5).tocsr()


def _scatter(elements: np.ndarray, n: int, *blocks: np.ndarray):
    """(n, n) COO matrices, one per block (m, k, k): entry (a, b) of element
    e goes to (elements[e, a], elements[e, b]), with ``elements`` (m, k).  The
    blocks share one pair of row and column arrays, so every matrix sums its
    duplicates in the same element order."""
    k = elements.shape[1]
    rows = np.repeat(elements, k, axis=1).ravel()
    cols = np.tile(elements, (1, k)).ravel()
    return tuple(sp.coo_matrix((B.ravel(), (rows, cols)), shape=(n, n)) for B in blocks)


def _sampling(vals: np.ndarray, nodes: np.ndarray, n: int, active: np.ndarray):
    """CSR map from active-node values to point values: point p weights the
    values at its element's nodes ``nodes[p]`` (q, k) by ``vals[p]``."""
    q, k = nodes.shape
    rows = np.repeat(np.arange(q), k)
    full = sp.coo_matrix((vals.ravel(), (rows, nodes.ravel())), shape=(q, n)).tocsr()
    return full[:, active].tocsr()


def _measure(mesh: Mesh) -> np.ndarray:
    """Element lengths in 1D, areas in 2D; AssemblyError for a degenerate
    (nonpositive) one."""
    p = mesh.nodes[mesh.elements]  # (m, 2) in 1D, (m, 3, 2) in 2D
    if mesh.dim == 1:
        measure = p[:, 1] - p[:, 0]
    else:
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        measure = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if np.any(measure <= 0):
        bad = int(np.argmax(measure <= 0))
        raise AssemblyError(f"element {bad} has nonpositive measure {measure[bad]!r}")
    return measure


def _assemble_1d(mesh: Mesh, h: np.ndarray):
    # element blocks [[d, o], [o, d]]: mass (h/3, h/6), stiffness (1/h, -1/h)
    Ge, Ke = (np.stack([d, o, o, d], axis=1).reshape(-1, 2, 2)
              for d, o in ((h / 3.0, h / 6.0), (1.0 / h, -1.0 / h)))
    return _scatter(mesh.elements, mesh.n_nodes, Ge, Ke)


def _assemble_2d(mesh: Mesh, area: np.ndarray):
    # gradients of the barycentric functions: grad l_a = (b_a, c_a) / (2A)
    p = mesh.nodes[mesh.elements]  # (m, 3, 2)
    xs, ys = p[..., 0], p[..., 1]
    b = np.stack([ys[:, 1] - ys[:, 2], ys[:, 2] - ys[:, 0], ys[:, 0] - ys[:, 1]], axis=1)
    c = np.stack([xs[:, 2] - xs[:, 1], xs[:, 0] - xs[:, 2], xs[:, 1] - xs[:, 0]], axis=1)

    Ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area[:, None, None]
    )
    Me = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    Ge = area[:, None, None] * Me[None]
    return _scatter(mesh.elements, mesh.n_nodes, Ge, Ke)


def _quadrature(mesh: Mesh, measure: np.ndarray, active: np.ndarray):
    """(qw, values, deriv) of the dimension's rule in ``_RULES`` on elements
    of the given measures; the x-derivative matrix ``deriv`` is 1D only and
    None in 2D."""
    points, weights = _RULES[mesh.dim]
    n = mesh.n_nodes
    qw = (measure[:, None] * weights[None, :]).ravel()
    nodes = np.repeat(mesh.elements, weights.size, axis=0)
    values = _sampling(np.tile(points, (measure.size, 1)), nodes, n, active)
    if mesh.dim != 1:
        return qw, values, None
    # the hat functions' slopes (-1/h, 1/h) at both Gauss points
    dvals = np.repeat(np.column_stack([-1.0 / measure, 1.0 / measure]), 2, axis=0)
    return qw, values, _sampling(dvals, nodes, n, active)
