"""P1 finite element meshes and assembled operators.

Uniform 1D intervals and structured 2D triangulations of the unit square,
with the mass, stiffness and convection matrices the rest of the package
consumes.  Homogeneous Dirichlet conditions are imposed by row/column
elimination so generalized eigenproblems stay symmetric; under Neumann every
node is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "AssemblyError",
    "Mesh1D",
    "TriMesh",
    "FemOperators",
    "build_uniform_mesh_1d",
    "build_structured_square_mesh",
    "assemble",
    "assemble_weighted_mass",
]

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# 2-point Gauss rule on [0, 1]; exact for cubics, which covers every
# integrand assembled here (P1 weight times a product of two hat functions).
_GAUSS2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])

# Degree-3 rule on the reference triangle (barycentric points and weights).
_TRI_QP = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [0.6, 0.2, 0.2],
        [0.2, 0.6, 0.2],
        [0.2, 0.2, 0.6],
    ]
)
_TRI_QW = np.array([-27.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0])


class AssemblyError(RuntimeError):
    """Raised when a mesh contains a degenerate (zero measure) element."""


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of the interval [a, b]."""

    a: float
    b: float
    nodes: np.ndarray
    h: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of a planar domain.

    Attributes
    ----------
    vertices : (n, 2) array of node coordinates.
    triangles : (m, 3) int array of vertex indices, counterclockwise.
    boundary_flags : (n,) int array, 1 for boundary vertices, 0 inside.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_flags: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return 2


def build_uniform_mesh_1d(a: float, b: float, n_nodes: int) -> Mesh1D:
    """Uniform mesh with ``n_nodes`` nodes (so n_nodes - 1 elements) on [a, b]."""
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if n_nodes < 3:
        raise ValueError("need at least 3 nodes")
    nodes = np.linspace(a, b, n_nodes)
    return Mesh1D(a=float(a), b=float(b), nodes=nodes, h=(b - a) / (n_nodes - 1))


def build_structured_square_mesh(n_per_side: int) -> TriMesh:
    """Structured right-triangle mesh of the unit square.

    ``n_per_side`` vertices per edge, each grid cell split along its
    ascending diagonal; all triangles come out counterclockwise.
    """
    if n_per_side < 2:
        raise ValueError("need at least 2 vertices per side")
    n = n_per_side
    g = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(g, g, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    idx = np.arange(n * n).reshape(n, n)  # idx[j, i] = j * n + i (row j = y level)
    v00 = idx[:-1, :-1].ravel()
    v10 = idx[:-1, 1:].ravel()
    v01 = idx[1:, :-1].ravel()
    v11 = idx[1:, 1:].ravel()
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.vstack([lower, upper]).astype(np.int64)

    flags = np.zeros(n * n, dtype=np.int64)
    flags[idx[0, :]] = 1
    flags[idx[-1, :]] = 1
    flags[idx[:, 0]] = 1
    flags[idx[:, -1]] = 1
    return TriMesh(vertices=vertices, triangles=triangles, boundary_flags=flags)


@dataclass
class FemOperators:
    """Assembled P1 operators restricted to the active (non-eliminated) nodes.

    ``mass`` is the Grammian of the hat-function basis, ``stiffness`` the
    Laplacian form, ``convection`` the first-derivative form (1D only).
    ``active`` holds the indices of the retained nodes in the full mesh.
    """

    mesh: Mesh1D | TriMesh
    bc: str
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    convection: sp.csr_matrix | None
    active: np.ndarray
    measure: float
    _quad: tuple | None = field(default=None, repr=False)

    @property
    def n_active(self) -> int:
        return self.active.size

    @property
    def coords(self) -> np.ndarray:
        """Coordinates of the active nodes ((n,) in 1D, (n, 2) in 2D)."""
        if self.mesh.dim == 1:
            return self.mesh.nodes[self.active]
        return self.mesh.vertices[self.active]

    def quadrature(self):
        """Quadrature data (weights, values matrix, x-derivative matrix).

        ``values`` maps an active-node vector to its interpolant sampled at
        the quadrature points; the rule is exact for piecewise cubics.  The
        derivative matrix is only available in 1D.
        """
        if self._quad is None:
            if self.mesh.dim == 1:
                self._quad = _quadrature_1d(self.mesh, self.active)
            else:
                self._quad = _quadrature_2d(self.mesh, self.active)
        return self._quad

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


def assemble(mesh: Mesh1D | TriMesh, bc: str = DIRICHLET) -> FemOperators:
    """Assemble mass/stiffness (and convection in 1D) for the given mesh.

    Parameters
    ----------
    mesh : Mesh1D or TriMesh
    bc : "dirichlet" or "neumann"
        Dirichlet eliminates boundary rows and columns, which keeps every
        returned matrix symmetric (convection exactly skew on the interior).

    Returns
    -------
    FemOperators
    """
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"unknown boundary condition {bc!r}")
    if mesh.dim == 1:
        G, K, C = _assemble_1d(mesh)
        n = mesh.n_nodes
        boundary = np.zeros(n, dtype=bool)
        boundary[[0, -1]] = True
        measure = mesh.b - mesh.a
    else:
        G, K = _assemble_2d(mesh)
        C = None
        boundary = mesh.boundary_flags.astype(bool)
        p = mesh.vertices[mesh.triangles]
        measure = float(
            0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]).sum()
        )

    if bc == DIRICHLET:
        active = np.flatnonzero(~boundary)
    else:
        active = np.arange(mesh.n_nodes)
    sel = np.ix_(active, active)
    G = G.tocsr()[sel].tocsr()
    K = K.tocsr()[sel].tocsr()
    if C is not None:
        C = C.tocsr()[sel].tocsr()
    # exact symmetry (assembly is symmetric up to summation order)
    G = ((G + G.T) * 0.5).tocsr()
    K = ((K + K.T) * 0.5).tocsr()
    return FemOperators(
        mesh=mesh,
        bc=bc,
        mass=G,
        stiffness=K,
        convection=C,
        active=active,
        measure=measure,
    )


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
    qw, values, _ = fem.quadrature()
    uq = values @ u_nodal
    W = (values.T.multiply(qw * uq)) @ values
    return ((W + W.T) * 0.5).tocsr()


def _assemble_1d(mesh: Mesh1D):
    x = mesh.nodes
    h = np.diff(x)
    if np.any(h <= 0):
        bad = int(np.argmax(h <= 0))
        raise AssemblyError(f"element {bad} has nonpositive length {h[bad]!r}")
    n = mesh.n_nodes
    i = np.arange(n - 1)
    rows = np.concatenate([i, i, i + 1, i + 1])
    cols = np.concatenate([i, i + 1, i, i + 1])

    mass = np.concatenate([h / 3.0, h / 6.0, h / 6.0, h / 3.0])
    stiff = np.concatenate([1.0 / h, -1.0 / h, -1.0 / h, 1.0 / h])
    half = np.full(n - 1, 0.5)
    conv = np.concatenate([-half, half, -half, half])

    shape = (n, n)
    G = sp.coo_matrix((mass, (rows, cols)), shape=shape)
    K = sp.coo_matrix((stiff, (rows, cols)), shape=shape)
    C = sp.coo_matrix((conv, (rows, cols)), shape=shape)
    return G, K, C


def _assemble_2d(mesh: TriMesh):
    p = mesh.vertices[mesh.triangles]  # (m, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area = 0.5 * _cross2(e1, e2)
    if np.any(area <= 0):
        bad = int(np.argmax(area <= 0))
        raise AssemblyError(f"triangle {bad} has nonpositive area {area[bad]!r}")

    # gradients of the barycentric functions: grad l_a = (b_a, c_a) / (2A)
    xs, ys = p[..., 0], p[..., 1]
    b = np.stack([ys[:, 1] - ys[:, 2], ys[:, 2] - ys[:, 0], ys[:, 0] - ys[:, 1]], axis=1)
    c = np.stack([xs[:, 2] - xs[:, 1], xs[:, 0] - xs[:, 2], xs[:, 1] - xs[:, 0]], axis=1)

    Ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        4.0 * area[:, None, None]
    )
    Me = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    Ge = area[:, None, None] * Me[None]

    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n = mesh.n_nodes
    G = sp.coo_matrix((Ge.ravel(), (rows, cols)), shape=(n, n))
    K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(n, n))
    return G, K


def _quadrature_1d(mesh: Mesh1D, active: np.ndarray):
    x = mesh.nodes
    h = np.diff(x)
    n = mesh.n_nodes
    ne = n - 1
    xi = _GAUSS2
    qw = np.repeat(h / 2.0, 2)

    # per quadrature point: weights (1 - xi, xi) on the element's two nodes
    cols = np.empty((2 * ne, 2), dtype=np.int64)
    cols[0::2] = np.column_stack([np.arange(ne), np.arange(ne) + 1])
    cols[1::2] = cols[0::2]
    vals = np.empty((2 * ne, 2))
    vals[0::2] = [1.0 - xi[0], xi[0]]
    vals[1::2] = [1.0 - xi[1], xi[1]]
    dvals = np.empty((2 * ne, 2))
    dvals[0::2, 0] = -1.0 / h
    dvals[0::2, 1] = 1.0 / h
    dvals[1::2] = dvals[0::2]

    rows = np.repeat(np.arange(2 * ne), 2)
    values = sp.coo_matrix(
        (vals.ravel(), (rows, cols.ravel())), shape=(2 * ne, n)
    ).tocsr()
    deriv = sp.coo_matrix(
        (dvals.ravel(), (rows, cols.ravel())), shape=(2 * ne, n)
    ).tocsr()
    return qw, values[:, active].tocsr(), deriv[:, active].tocsr()


def _quadrature_2d(mesh: TriMesh, active: np.ndarray):
    p = mesh.vertices[mesh.triangles]
    area = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    nt = mesh.triangles.shape[0]
    nq = _TRI_QW.size

    qw = (area[:, None] * _TRI_QW[None, :]).ravel()
    rows = np.repeat(np.arange(nt * nq), 3)
    cols = np.repeat(mesh.triangles, nq, axis=0).ravel()
    vals = np.tile(_TRI_QP, (nt, 1)).ravel()
    values = sp.coo_matrix(
        (vals, (rows, cols)), shape=(nt * nq, mesh.n_nodes)
    ).tocsr()
    return qw, values[:, active].tocsr(), None
