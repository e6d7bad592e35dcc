"""Tests for the saddle-point assembly, direct and condensed solves."""

import numpy as np
import pytest

from sdgflow import forms, mesh as mm, verify
from sdgflow.solver import (
    SolverError,
    assemble_blocks,
    build_system,
    solve,
    solve_case,
)
from sdgflow.spaces import StaggeredSpaces


def make_system(k=1, n=3, eps=1.0, alpha=1.0, family="square"):
    if family == "square":
        primal = mm.build_square_grid(n)
    else:
        primal = mm.build_distorted_grid(n, 0.25, 42)
    spaces = StaggeredSpaces(mm.build_staggered(primal), k)
    case = verify.trig_case(eps, alpha)
    blocks = assemble_blocks(spaces, alpha)
    F, G = forms.assemble_rhs(spaces, case.f, case.g)
    return spaces, case, build_system(blocks, eps, alpha, F, G)


def test_system_shape_and_symmetry():
    spaces, _case, system = make_system()
    nW, nU, nP = system.dims
    assert (nW, nU, nP) == (spaces.W.ndof, spaces.U.ndof, spaces.P.ndof)
    assert system.num_unknowns == nW + nU + nP + 1
    K = system.matrix
    assert np.abs((K - K.T).toarray()).max() < 1e-12


def test_build_system_validates_inputs():
    spaces, case, system = make_system()
    with pytest.raises(ValueError, match="viscosity"):
        build_system(system.blocks, 0.0, 1.0, system.rhs_F, system.rhs_G)
    with pytest.raises(ValueError, match="right-hand side"):
        build_system(system.blocks, 1.0, 1.0, system.rhs_F[:-1], system.rhs_G)
    bad = assemble_blocks(spaces, 1.0)
    bad.c = bad.c[:-1]
    with pytest.raises(ValueError, match="block dimensions"):
        build_system(bad, 1.0, 1.0, system.rhs_F, system.rhs_G)


def test_solve_residual_and_mean():
    _spaces, _case, system = make_system(k=2, n=3)
    sol = solve(system)
    assert sol.residual < 1e-10
    # Discrete zero-mean pressure via the multiplier constraint.
    assert abs(float(system.blocks.c @ sol.p.coeffs)) < 1e-10


def test_unknown_method_rejected():
    _spaces, _case, system = make_system()
    with pytest.raises(ValueError, match="unknown solve method"):
        solve(system, method="fancy")


def test_condense_requires_interior_unknowns():
    # k=0 spaces have no cell unknowns to eliminate.
    _spaces, _case, system = make_system(k=0)
    with pytest.raises(SolverError, match="no interior"):
        solve(system, method="condensed")
    assert solve(system, method="direct").residual < 1e-10


@pytest.mark.parametrize("family", ["square", "distorted"])
@pytest.mark.parametrize("k,eps", [(1, 1.0), (2, 1e-4), (3, 1e-8)])
def test_condensed_matches_direct(family, k, eps):
    _spaces, _case, system = make_system(k=k, n=3, eps=eps, family=family)
    sd = solve(system, method="direct")
    sc = solve(system, method="condensed")
    for a, b in ((sd.L, sc.L), (sd.u, sc.u), (sd.p, sc.p)):
        scale = max(1.0, np.abs(a.coeffs).max())
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-9 * scale
    assert abs(sd.multiplier - sc.multiplier) < 1e-9


def test_zero_data_gives_zero_solution():
    spaces, _case, _system = make_system()
    zero_v = lambda p: np.zeros((len(p), 2))
    zero_s = lambda p: np.zeros(len(p))
    sol, _ = solve_case(spaces, 1.0, 1.0, zero_v, zero_s)
    assert verify.norm_eval(spaces, sol.L, "L2") < 1e-10
    assert verify.norm_eval(spaces, sol.u, "L2") < 1e-10
    assert verify.norm_eval(spaces, sol.p, "L2") < 1e-10


@pytest.mark.parametrize("eps", [1.0, 1e-8])
def test_solutions_robust_across_eps(eps):
    # The same manufactured solution solved at extreme viscosities keeps a
    # small algebraic residual and a bounded velocity error.
    spaces, case, system = make_system(k=1, n=4, eps=eps)
    sol = solve(system)
    assert sol.residual < 1e-9
    err = verify.error_L2(spaces, sol.u, case.u)
    assert err < 0.1


def test_interior_block_never_couples_across_triangles():
    # The condensed path asserts this internally; run it on a polygon-file
    # mesh to cover non-grid topologies as well.
    text = "6 2\n0 0\n1 0\n1 1\n0 1\n0 0.5\n1 0.5\n4 0 1 5 4\n4 4 5 2 3\n"
    spaces = StaggeredSpaces(mm.build_staggered(mm.import_polygon_mesh(text)), 2)
    case = verify.trig_case(1.0, 1.0)
    blocks = assemble_blocks(spaces, 1.0)
    F, G = forms.assemble_rhs(spaces, case.f, case.g)
    system = build_system(blocks, 1.0, 1.0, F, G)
    sol = solve(system, method="condensed")
    assert sol.residual < 1e-10


def test_interior_indices_cover_cell_ranges():
    spaces, _case, system = make_system(k=2, n=2)
    cells = system.blocks.interior
    nT = spaces.mesh.num_triangles
    W, U = spaces.W.dofmap, spaces.U.dofmap
    per_W, per_U = 4 * spaces.nk1, 2 * spaces.nk1
    assert cells.shape == (nT, per_W + per_U)
    nW = spaces.W.ndof
    for t in range(nT):
        # Row t: the cell entries of W.cell_dofs[t], then those of U shifted by nW.
        assert np.array_equal(cells[t, :per_W], W.cell_dofs[t, -per_W:])
        assert np.array_equal(cells[t, per_W:], nW + U.cell_dofs[t, -per_U:])
    w_part, u_part = cells[:, :per_W], cells[:, per_W:] - nW
    # Interior DOFs lie past each space's edge DOFs and cover its cell range once.
    assert w_part.min() >= W.num_edge_dofs and u_part.min() >= U.num_edge_dofs
    assert np.array_equal(np.sort(w_part, axis=None), np.arange(W.num_edge_dofs, W.ndof))
    assert np.array_equal(np.sort(u_part, axis=None), np.arange(U.num_edge_dofs, U.ndof))
