"""Mesh construction and P1 assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

from laxrom import (
    AssemblyError,
    assemble,
    assemble_weighted_mass,
    build_structured_square_mesh,
    build_uniform_mesh_1d,
)
from laxrom.mesh import Mesh1D, TriMesh


def test_uniform_mesh_1d_basic():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 11)
    assert mesh.n_nodes == 11
    assert mesh.h == pytest.approx(0.1)
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
    with pytest.raises(ValueError):
        build_uniform_mesh_1d(1.0, 0.0, 11)
    with pytest.raises(ValueError):
        build_uniform_mesh_1d(0.0, 1.0, 2)


def test_mass_matrix_interior_row_1d():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 101)
    fem = assemble(mesh, "neumann")
    h = mesh.h
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
    assert fem.mass.sum() == pytest.approx(fem.measure, rel=1e-13)
    assert fem.measure == pytest.approx(5.0)

    mesh2 = build_structured_square_mesh(12)
    fem2 = assemble(mesh2, "neumann")
    assert fem2.mass.sum() == pytest.approx(1.0, rel=1e-13)
    assert fem2.measure == pytest.approx(1.0, rel=1e-13)


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
    # convection restricted to the interior is exactly skew
    C = fem.convection
    assert abs(C + C.T).max() == 0.0


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
    h = mesh.h
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
    nodes = np.array([0.0, 0.5, 0.5, 1.0])
    bad = Mesh1D(a=0.0, b=1.0, nodes=nodes, h=0.25)
    with pytest.raises(AssemblyError):
        assemble(bad, "neumann")

    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    flat = TriMesh(vertices=verts, triangles=tris,
                   boundary_flags=np.ones(3, dtype=np.int64))
    with pytest.raises(AssemblyError):
        assemble(flat, "neumann")


def test_quadrature_integrates_cubics_exactly_1d():
    mesh = build_uniform_mesh_1d(0.0, 1.0, 9)
    fem = assemble(mesh, "neumann")
    qw, values, deriv = fem.quadrature()
    x = fem.coords
    # integral of the interpolant of x ... piecewise linear: quadrature exact
    assert qw @ (values @ x) == pytest.approx(0.5, rel=1e-14)
    # derivative matrix reproduces the slope of a linear function
    assert np.allclose(deriv @ x, 1.0)


def test_quadrature_weights_sum_to_measure_2d():
    mesh = build_structured_square_mesh(5)
    fem = assemble(mesh, "neumann")
    qw, values, deriv = fem.quadrature()
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
