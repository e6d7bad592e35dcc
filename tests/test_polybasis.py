"""Tests for the modal bases, quadrature rules, and affine maps."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi, roots_jacobi

import sdgflow
from sdgflow import mesh as mm
from sdgflow import polybasis as pb
from sdgflow.spaces import StaggeredSpaces


def test_tri_dim_formula():
    assert [pb.tri_dim(k) for k in range(5)] == [1, 3, 6, 10, 15]


def test_constant_mode_value():
    # Unit L2 norm on the reference triangle of area 1/2 forces value sqrt(2).
    b = pb.tri_basis(0)
    vals = b.eval(np.array([[0.25, 0.25], [0.1, 0.7]]))
    assert np.allclose(vals, np.sqrt(2.0))


@pytest.mark.parametrize("k", range(5))
def test_triangle_orthonormality(k):
    b = pb.tri_basis(k)
    q = pb.tri_quadrature(2 * k + 2)
    V = b.eval(q.points)
    M = (V * q.weights) @ V.T
    assert np.abs(M - np.eye(b.dim)).max() < 1e-13


@pytest.mark.parametrize("k", range(5))
def test_edge_orthonormality(k):
    b = pb.edge_basis(k)
    q = pb.edge_quadrature(2 * k + 2)
    V = b.eval(q.points)
    M = (V * q.weights) @ V.T
    assert np.abs(M - np.eye(k + 1)).max() < 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gradient_matches_finite_differences(k):
    b = pb.tri_basis(k)
    pts = np.array([[0.2, 0.3], [0.05, 0.1], [0.4, 0.55], [0.61, 0.2]])
    g = b.grad(pts)
    h = 1e-6
    for a in range(2):
        dp, dm = pts.copy(), pts.copy()
        dp[:, a] += h
        dm[:, a] -= h
        fd = (b.eval(dp) - b.eval(dm)) / (2 * h)
        assert np.abs(fd - g[:, :, a]).max() < 5e-9


def test_triangle_quadrature_point_count():
    # degree 4 -> 3 points per direction, exact through degree 5.
    q = pb.tri_quadrature(4)
    assert len(q.weights) == 9
    assert np.isclose(q.weights.sum(), 0.5)


def test_triangle_quadrature_polynomial_exactness():
    # int over ref triangle of x^i y^j has the closed form i! j! / (i+j+2)!.
    for d in range(pb.MAX_QUAD_DEGREE + 1):
        q = pb.tri_quadrature(d)
        x, y = q.points[:, 0], q.points[:, 1]
        for i in range(d + 1):
            for j in range(d + 1 - i):
                exact = math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
                assert abs((q.weights * x**i * y**j).sum() - exact) <= 1e-13 * exact


# (alpha, beta) pairs of the triangle basis and its derivative up to MAX_ORDER.
JACOBI_PAIRS = sorted({(0, 0), (1, 1)}
                      | {(2 * i + 1, 0) for i in range(pb.MAX_ORDER + 1)}
                      | {(2 * i + 2, 1) for i in range(pb.MAX_ORDER + 1)})


@pytest.mark.parametrize("alpha,beta", JACOBI_PAIRS)
def test_jacobi_recurrence_matches_scipy(alpha, beta):
    x = np.linspace(-1.0, 1.0, 41)
    got = pb._jacobi(pb.MAX_ORDER, alpha, beta, x)
    for n in range(pb.MAX_ORDER + 1):
        want = eval_jacobi(n, alpha, beta, x)
        assert np.abs(got[n] - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", range(1, pb.MAX_QUAD_DEGREE // 2 + 2))
def test_gauss_jacobi_matches_scipy(n):
    x, w = pb._gauss_jacobi(n, 1.0, 0.0)
    xs, ws = roots_jacobi(n, 1.0, 0.0)
    assert np.abs(x - xs).max() < 1e-14
    assert np.abs(w - ws).max() < 1e-14


def test_import_does_not_load_scipy_special():
    # The bases are numpy-only; scipy.special would add to every import.
    code = ("import importlib, pkgutil, sys, sdgflow\n"
            "for m in pkgutil.iter_modules(sdgflow.__path__):\n"
            "    importlib.import_module('sdgflow.' + m.name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('sdgflow.')))\n"
            "print('scipy.special' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(sdgflow.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert "'sdgflow.spaces'" in out[0] and "'sdgflow.cli'" in out[0]
    assert out[1] == "False"


def test_edge_quadrature_is_gauss():
    q = pb.edge_quadrature(5)
    assert len(q.weights) == 3
    assert np.isclose(q.weights.sum(), 2.0)
    assert np.isclose((q.weights * q.points**4).sum(), 2.0 / 5.0)


def test_unsupported_orders_rejected():
    with pytest.raises(ValueError):
        pb.tri_basis(pb.MAX_ORDER + 1)
    with pytest.raises(ValueError):
        pb.tri_basis(-1)


def _affine_spaces(vertices):
    # One polygon with a single triangle [a, b, nu] per side.
    primal = mm.PrimalMesh(np.asarray(vertices, dtype=float), np.array([0, 3]), np.arange(3),
                           np.mean(vertices, axis=0, keepdims=True))
    return StaggeredSpaces(mm.build_staggered(primal), 1)


def test_affine_map_round_trip():
    # The batched maps of StaggeredSpaces send the reference vertices to each
    # triangle's vertices, and invJT maps physical points back.
    spaces = _affine_spaces([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]])
    sm = spaces.mesh
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1 / 3, 1 / 3]])
    for t in range(sm.num_triangles):
        phys = ref @ spaces.jac[t].T + spaces.origin[t]
        assert np.allclose(phys[:3], sm.vertices[sm.triangles[t]])
        assert np.allclose((phys - spaces.origin[t]) @ spaces.invJT[t], ref)
        assert np.allclose(spaces.invJT[t].T @ spaces.jac[t], np.eye(2))
    assert np.allclose(spaces.detJ, 2.0 * sm.tri_area)


def test_affine_map_rejects_degenerate():
    # A triangle of non-positive orientation, which mesh validation would
    # have rejected, is refused when the maps are built.
    sm = _affine_spaces([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]]).mesh
    flipped = replace(sm, triangles=sm.triangles[:, [1, 0, 2]])
    with pytest.raises(ValueError, match="triangle 0 has non-positive orientation"):
        StaggeredSpaces(flipped, 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_quadrature_integrates_basis_products(i, j):
    # Orthonormality as a property over random basis index pairs at k=4.
    b = pb.tri_basis(4)
    q = pb.tri_quadrature(2 * 4 + 2)
    V = b.eval(q.points)
    val = (q.weights * V[i] * V[j]).sum()
    assert np.isclose(val, 1.0 if i == j else 0.0, atol=1e-13)
