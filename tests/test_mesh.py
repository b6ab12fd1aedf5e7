"""Mesh construction and P1 assembly."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from laxrom import (
    AssemblyError,
    Mesh,
    assemble,
    assemble_weighted_mass,
    build_structured_square_mesh,
    build_uniform_mesh_1d,
)
from laxrom import mesh as mesh_module
from laxrom.mesh import _interval


def test_uniform_mesh_1d_basic():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 11)
    assert mesh.n_nodes == 11
    assert np.diff(mesh.nodes) == pytest.approx(0.1)
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
    with pytest.raises(ValueError):
        build_uniform_mesh_1d(1.0, 0.0, 11)
    with pytest.raises(ValueError):
        build_uniform_mesh_1d(0.0, 1.0, 2)


def test_mass_matrix_interior_row_1d():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 101)
    fem = assemble(mesh, "neumann")
    h = mesh.nodes[1] - mesh.nodes[0]
    G = fem.mass.toarray()
    # interior row: h/6, 2h/3, h/6
    i = 50
    assert G[i, i - 1] == pytest.approx(h / 6, rel=1e-14)
    assert G[i, i] == pytest.approx(2 * h / 3, rel=1e-14)
    assert G[i, i + 1] == pytest.approx(h / 6, rel=1e-14)


def test_mass_row_sums_equal_hat_integrals():
    # summing all entries gives the measure of the domain (Neumann keeps
    # every hat function, and they sum to 1)
    mesh = build_uniform_mesh_1d(-2.0, 3.0, 77)
    fem = assemble(mesh, "neumann")
    assert fem.mass.sum() == pytest.approx(5.0, rel=1e-13)

    mesh2 = build_structured_square_mesh(12)
    fem2 = assemble(mesh2, "neumann")
    assert fem2.mass.sum() == pytest.approx(1.0, rel=1e-13)


def test_stiffness_annihilates_constants_neumann():
    for fem in (
        assemble(build_uniform_mesh_1d(0.0, 2.0, 41), "neumann"),
        assemble(build_structured_square_mesh(9), "neumann"),
    ):
        ones = np.ones(fem.n_active)
        assert np.abs(fem.stiffness @ ones).max() < 1e-13


def test_symmetry_and_convection_skewness():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 200)
    fem = assemble(mesh, "dirichlet")
    for A in (fem.mass, fem.stiffness):
        assert abs(A - A.T).max() == 0.0


def test_dirichlet_eliminates_boundary():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 50)
    fem = assemble(mesh, "dirichlet")
    assert fem.n_active == 48
    assert fem.coords[0] > 0.0 and fem.coords[-1] < 1.0

    mesh2 = build_structured_square_mesh(10)
    fem2 = assemble(mesh2, "dirichlet")
    assert fem2.n_active == 64  # (10-2)^2 interior vertices


def test_assembly_deterministic():
    mesh = build_structured_square_mesh(15)
    a = assemble(mesh, "neumann")
    b = assemble(mesh, "neumann")
    assert (a.mass != b.mass).nnz == 0
    assert (a.stiffness != b.stiffness).nnz == 0


def test_1d_stiffness_quadratic_energy():
    # energy of u(x) = x(1-x): integral of (1-2x)^2 = 1/3
    mesh = build_uniform_mesh_1d(0.0, 1.0, 401)
    fem = assemble(mesh, "dirichlet")
    x = fem.coords
    u = x * (1 - x)
    energy = u @ (fem.stiffness @ u)
    assert energy == pytest.approx(1.0 / 3.0, rel=1e-4)


def test_2d_stiffness_patch_energy():
    # u = x + y is in the P1 space; |grad u|^2 = 2 over the unit square
    mesh = build_structured_square_mesh(8)
    fem = assemble(mesh, "neumann")
    xy = fem.coords
    u = xy[:, 0] + xy[:, 1]
    assert u @ (fem.stiffness @ u) == pytest.approx(2.0, rel=1e-13)
    assert u @ (fem.mass @ u) == pytest.approx(7.0 / 6.0, rel=1e-13)


def test_weighted_mass_unit_weight_is_mass():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 60)
    fem = assemble(mesh, "neumann")
    W = assemble_weighted_mass(fem, np.ones(fem.n_active))
    assert abs(W - fem.mass).max() < 1e-15

    mesh2 = build_structured_square_mesh(7)
    fem2 = assemble(mesh2, "neumann")
    W2 = assemble_weighted_mass(fem2, np.ones(fem2.n_active))
    assert abs(W2 - fem2.mass).max() < 1e-15


def test_weighted_mass_linear_weight_1d():
    # W with weight u(x)=x on one element [0,h]: exact integrals
    mesh = build_uniform_mesh_1d(0.0, 1.0, 2 + 1)
    fem = assemble(mesh, "neumann")
    W = assemble_weighted_mass(fem, fem.coords).toarray()
    h = mesh.nodes[1] - mesh.nodes[0]
    # entry (0,0): int_0^h x (1-x/h)^2 dx = h^2/12
    assert W[0, 0] == pytest.approx(h**2 / 12, rel=1e-13)
    assert W[0, 1] == pytest.approx(h**2 / 12, rel=1e-13)


def test_weighted_mass_psd_for_nonnegative_weight():
    rng = np.random.default_rng(7)
    mesh = build_uniform_mesh_1d(0.0, 1.0, 40)
    fem = assemble(mesh, "dirichlet")
    w = rng.uniform(0.0, 2.0, fem.n_active)
    W = assemble_weighted_mass(fem, w).toarray()
    eig = np.linalg.eigvalsh(W)
    assert eig.min() > -1e-14


def test_degenerate_elements_rejected():
    # element 1 is degenerate in both: a zero-length segment, a flat triangle
    bad = _interval(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(AssemblyError, match="element 1 "):
        assemble(bad, "neumann")

    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    flat = Mesh(nodes, np.array([[0, 1, 2], [0, 1, 3]]), np.ones(4, dtype=np.int64))
    with pytest.raises(AssemblyError, match="element 1 "):
        assemble(flat, "neumann")


@pytest.mark.parametrize("mesh", [build_uniform_mesh_1d(0.0, 1.0, 9),
                                  build_structured_square_mesh(5)])
def test_assemble_measures_the_elements_once(mesh, monkeypatch):
    # G, K and the quadrature share one pass over the element measures
    calls = []
    measure = mesh_module._measure
    monkeypatch.setattr(mesh_module, "_measure", lambda m: calls.append(m) or measure(m))
    fem = assemble(mesh, "dirichlet")
    assemble_weighted_mass(fem, np.ones(fem.n_active))
    assert len(calls) == 1


def test_assembled_operators_are_frozen():
    fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 9))
    for name in ("mass", "qw", "values", "deriv"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fem, name, None)


def test_quadrature_integrates_cubics_exactly_1d():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 9)
    fem = assemble(mesh, "neumann")
    qw, values, deriv = fem.qw, fem.values, fem.deriv
    x = fem.coords
    # integral of the interpolant of x ... piecewise linear: quadrature exact
    assert qw @ (values @ x) == pytest.approx(0.5, rel=1e-14)
    # derivative matrix reproduces the slope of a linear function
    assert np.allclose(deriv @ x, 1.0)


def test_quadrature_weights_sum_to_measure_2d():
    mesh = build_structured_square_mesh(5)
    fem = assemble(mesh, "neumann")
    qw, values, deriv = fem.qw, fem.values, fem.deriv
    assert deriv is None
    assert qw.sum() == pytest.approx(1.0, rel=1e-13)
    # interpolate u = x*y and integrate: quadrature is exact for cubics,
    # and x*y is bilinear per triangle pair -> compare against the P1
    # interpolant's true integral computed from the mass matrix
    xy = fem.coords
    u = xy[:, 0] * xy[:, 1]
    assert qw @ (values @ u) == pytest.approx(
        np.ones(fem.n_active) @ (fem.mass @ u), rel=1e-13
    )


def _loop_1d(nodes, active):
    """Dense G, K, values and deriv of a 1D mesh, one element at a time."""
    n = nodes.size
    G, K = np.zeros((n, n)), np.zeros((n, n))
    values, deriv = np.zeros((2 * (n - 1), n)), np.zeros((2 * (n - 1), n))
    for e in range(n - 1):
        h = nodes[e + 1] - nodes[e]
        for a in range(2):
            for b in range(2):
                G[e + a, e + b] += h / 3.0 if a == b else h / 6.0
                K[e + a, e + b] += 1.0 / h if a == b else -1.0 / h
        for g, xi in enumerate((0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))):
            values[2 * e + g, e:e + 2] = 1.0 - xi, xi
            deriv[2 * e + g, e:e + 2] = -1.0 / h, 1.0 / h
    sel = np.ix_(active, active)
    return G[sel], K[sel], values[:, active], deriv[:, active]


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_1d_assembly_equals_an_element_loop_exactly(bc):
    # a nonuniform mesh, so each element has its own length
    nodes = np.cumsum(np.random.default_rng(3).uniform(0.5, 1.5, 23))
    fem = assemble(_interval(nodes), bc)
    got = (fem.mass, fem.stiffness, fem.values, fem.deriv)
    for name, A, oracle in zip(("mass", "stiffness", "values", "deriv"), got,
                               _loop_1d(nodes, fem.active), strict=True):
        assert np.array_equal(A.toarray(), oracle), name
    if bc == "neumann":
        assert (fem.values.getnnz(axis=1) == 2).all()


def test_2d_assembly_matches_an_element_loop():
    mesh = build_structured_square_mesh(6)
    n = mesh.n_nodes
    G, K = np.zeros((n, n)), np.zeros((n, n))
    for tri in mesh.elements:
        p = mesh.nodes[tri]
        J = np.column_stack([p[1] - p[0], p[2] - p[0]])
        area = 0.5 * abs(np.linalg.det(J))
        # gradients of the barycentric functions, one row per vertex
        grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) @ np.linalg.inv(J)
        G[np.ix_(tri, tri)] += area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        K[np.ix_(tri, tri)] += area * grads @ grads.T
    fem = assemble(mesh, "neumann")
    for A, oracle in ((fem.mass, G), (fem.stiffness, K)):
        assert np.abs(A.toarray() - oracle).max() <= 1e-15 * np.abs(oracle).max()
    assert (fem.values.getnnz(axis=1) == 3).all()


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_2d_quadrature_equals_an_element_loop_exactly(bc):
    mesh = build_structured_square_mesh(6)
    points = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), (0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6)]
    weights = [-27.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0]
    qw, values = [], np.zeros((4 * len(mesh.elements), mesh.n_nodes))
    for e, tri in enumerate(mesh.elements):
        (x0, y0), (x1, y1), (x2, y2) = mesh.nodes[tri]
        area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        for g, (point, w) in enumerate(zip(points, weights, strict=True)):
            qw.append(area * w)
            values[4 * e + g, tri] = point
    fem = assemble(mesh, bc)
    assert np.array_equal(fem.qw, qw)
    assert np.array_equal(fem.values.toarray(), values[:, fem.active])
