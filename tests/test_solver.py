"""Tests for the saddle-point assembly and the condensed solve."""

import hashlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from direct_oracle import direct_solve, residual, saddle_matrix

from sdgflow import forms, mesh as mm, solver, verify
from sdgflow.solver import (
    SolverError,
    _operator,
    assemble_blocks,
    build_system,
    solve,
    solve_case,
)
from sdgflow.spaces import StaggeredSpaces


def make_spaces(k=1, n=3, family="square"):
    if family == "square":
        primal = mm.build_square_grid(n)
    elif family == "hanging":
        primal = mm.build_hanging_grid(n)
    else:
        primal = mm.build_distorted_grid(n, 0.25, 42)
    return StaggeredSpaces(mm.build_staggered(primal), k)


def cell_entries(dm):
    """(nT, per_cell) cell DOFs of each triangle of a DofMap: the last
    per_cell entries of each row of its cell_dofs."""
    nT, nloc = dm.cell_dofs.shape
    per_cell = (dm.ndof - dm.num_edge_dofs) // nT
    return dm.cell_dofs[:, nloc - per_cell:]


def make_system(k=1, n=3, eps=1.0, alpha=1.0, family="square"):
    spaces = make_spaces(k, n, family)
    case = verify.trig_case(eps, alpha)
    blocks = assemble_blocks(spaces, alpha)
    F, G = forms.assemble_rhs(spaces, case.f, case.g)
    return spaces, case, build_system(blocks, eps, alpha, F, G)


def test_system_shape_and_symmetry():
    spaces, _case, system = make_system()
    nW, nU, nP = system.dims
    assert (nW, nU, nP) == (spaces.W.ndof, spaces.U.ndof, spaces.P.ndof)
    assert system.num_unknowns == nW + nU + nP + 1
    K = saddle_matrix(system)
    assert K.shape == (system.num_unknowns, system.num_unknowns)
    assert np.abs((K - K.T).toarray()).max() < 1e-12


def test_blocks_hold_no_global_matrix():
    # The solve reads the element stacks only; the global blocks are built on
    # access for inspection and never stored.
    blocks = assemble_blocks(make_spaces(k=1), 1.0)
    assert not any(sp.issparse(v) for v in vars(blocks).values())
    assert sp.issparse(blocks.M)


@pytest.mark.parametrize("family,k,eps", [("distorted", 2, 1e-8), ("hanging", 3, 1e-4)])
def test_refinement_operator_is_the_assembled_matrix(family, k, eps):
    _spaces, _case, system = make_system(k=k, n=4, eps=eps, family=family)
    K, b = saddle_matrix(system), system.rhs
    y = np.random.default_rng(5).standard_normal(len(b))
    Ky = _operator(system)(y)
    assert np.abs(Ky - K @ y).max() < 1e-14 * np.abs(abs(K) @ abs(y)).max()
    # The reported residual is the assembled matrix's, up to the roundoff of
    # forming K x - b in another order: one ulp of |K||x| + |b|, about 100
    # times the differences seen and well below the residual itself.
    sol = solve(system)
    x = np.concatenate([sol.L.coeffs, sol.u.coeffs, sol.p.coeffs, [sol.multiplier]])
    bnorm = max(float(np.linalg.norm(b)), 1.0)
    ulp = np.finfo(float).eps * np.linalg.norm(abs(K) @ abs(x) + abs(b)) / bnorm
    assert abs(sol.residual - residual(system, x)) < ulp


def test_build_system_validates_inputs():
    spaces, case, system = make_system()
    F, G = forms.assemble_rhs(spaces, case.f, case.g)
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="viscosity"):
            build_system(system.blocks, eps, 1.0, F, G)
    with pytest.raises(ValueError, match="right-hand side"):
        build_system(system.blocks, 1.0, 1.0, F[:-1], G)
    bad = assemble_blocks(spaces, 1.0)
    bad.c = bad.c[:-1]
    with pytest.raises(ValueError, match="block dimensions"):
        build_system(bad, 1.0, 1.0, F, G)
    bad = assemble_blocks(spaces, 1.0)
    bad.elements.D = bad.elements.D[:, :, :-1]
    with pytest.raises(ValueError, match="block dimensions"):
        build_system(bad, 1.0, 1.0, F, G)


def test_build_system_rejects_another_alpha():
    # The reaction block is assembled with alpha, so a system built for
    # another alpha would solve a problem that was never posed.
    spaces, case, system = make_system(alpha=2.0)
    assert system.blocks.alpha == 2.0
    F, G = forms.assemble_rhs(spaces, case.f, case.g)
    with pytest.raises(ValueError, match="alpha"):
        build_system(system.blocks, 1.0, 1.0, F, G)


def test_solve_residual_and_mean():
    _spaces, _case, system = make_system(k=2, n=3)
    sol = solve(system)
    assert sol.residual < 1e-10
    # Discrete zero-mean pressure via the multiplier constraint.
    assert abs(float(system.blocks.c @ sol.p.coeffs)) < 1e-10


@pytest.mark.parametrize("family", ["square", "distorted", "hanging"])
@pytest.mark.parametrize("k,eps", [(0, 1e-8), (1, 1.0), (2, 1e-4), (3, 1e-8)])
def test_condensed_matches_direct(family, k, eps):
    # The hanging mesh has 5-gon polygons, so stage 2 inverts blocks of two
    # sizes; at k=0 stages 0 and 1 have nothing to eliminate.
    n = 4 if family == "hanging" else 3
    _spaces, _case, system = make_system(k=k, n=n, eps=eps, family=family)
    x = direct_solve(system)
    sol = solve(system)
    nW, nU, _nP = system.dims
    for a, b in ((x[:nW], sol.L), (x[nW:nW + nU], sol.u), (x[nW + nU:-1], sol.p)):
        scale = max(1.0, np.abs(a).max())
        assert np.abs(a - b.coeffs).max() < 1e-9 * scale
    assert abs(x[-1] - sol.multiplier) < 1e-9
    assert sol.residual == min(sol.residuals) <= 1e-12


@pytest.mark.parametrize("family,k", [("distorted", 2), ("hanging", 3)])
def test_first_solve_takes_any_right_hand_side(family, k, monkeypatch):
    # The loads leave the gradient rows zero, refinement corrections do not:
    # with no refinement step, a right-hand side nonzero in every row must
    # already give the direct solution.
    _spaces, _case, system = make_system(k=k, n=4, eps=1e-2, family=family)
    system.rhs = np.random.default_rng(3).standard_normal(len(system.rhs))
    x = direct_solve(system)
    monkeypatch.setattr(solver, "REFINE_STEPS", 0)
    sol = solve(system)
    y = np.concatenate([sol.L.coeffs, sol.u.coeffs, sol.p.coeffs, [sol.multiplier]])
    assert len(sol.residuals) == 1
    assert np.abs(x - y).max() < 1e-9 * np.abs(x).max()


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
    err = verify.norm_eval(spaces, sol.u, "L2", exact=case.u)
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
    sol = solve(system)
    assert sol.residual < 1e-10


@pytest.mark.parametrize("family", ["square", "distorted", "hanging"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_interior_groups_layout(family, k):
    spaces = make_spaces(k, 4, family)
    groups = assemble_blocks(spaces, 1.0).interior
    mesh, k1 = spaces.mesh, k + 1
    W, U, P = spaces.W.dofmap, spaces.U.dofmap, spaces.P.dofmap
    nW, nU = W.ndof, U.ndof
    n = nW + nU + P.ndof
    assert groups.triangle.shape == groups.polygon.shape == (n,)
    assert not np.any((groups.triangle >= 0) & (groups.polygon >= 0))

    # Stage 1: triangle t owns its cell W entries and its cell U entries, and
    # the groups cover each of the two cell ranges once.
    cells = np.hstack([cell_entries(W), nW + cell_entries(U)])
    for t in range(mesh.num_triangles):
        assert np.array_equal(np.flatnonzero(groups.triangle == t), np.sort(cells[t]))
    cell_ranges = np.concatenate([np.arange(W.num_edge_dofs, nW),
                                  nW + np.arange(U.num_edge_dofs, nU)])
    assert np.array_equal(np.flatnonzero(groups.triangle >= 0), cell_ranges)

    # Stage 2: polygon p owns the W and U moments on its dual edges and the
    # cell P entries of its triangles, nothing else.
    for p in range(mesh.primal.num_polygons):
        tris = np.flatnonzero(mesh.tri_poly == p)
        duals = np.unique(mesh.tri_edges[tris, 1:])
        assert not mesh.edge_primal[duals].any()
        expected = np.concatenate(
            [W.edge_offsets[duals, None] + np.arange(k1),
             nW + U.edge_offsets[duals, None] + np.arange(k1)], axis=None)
        expected = np.concatenate([expected, nW + nU + cell_entries(P)[tris].ravel()])
        assert np.array_equal(np.flatnonzero(groups.polygon == p), np.sort(expected))

    # Skeleton: 2(k+1) W and k+1 P moments per primal edge.
    skeleton = np.flatnonzero((groups.triangle < 0) & (groups.polygon < 0))
    assert len(skeleton) == 3 * k1 * len(mesh.primal_edge_ids)
    assert skeleton[-1] == nW + nU + P.num_edge_dofs - 1

    # Stage 2 takes each polygon's interior unknowns in increasing order, the
    # order in which its elimination rounds as before the layouts were shared.
    for cls in groups.classes:
        assert np.all(np.diff(cls.interior, axis=1) > 0)


_PINNED_PLANS = json.loads((Path(__file__).parent / "condensation_plans.json").read_text())


def _digest(a):
    a = np.ascontiguousarray(a, dtype=np.int64)
    return "x".join(map(str, a.shape)) + ":" + hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED_PLANS))
def test_plan_matches_pinned(name):
    # Recorded from the condensation that numbered each polygon's unknowns by
    # one global sort and found the skeleton's pattern by another: the owners,
    # the skeleton, its pattern, the data slot of every local Schur entry and
    # each class's triangles and stage-2 unknowns must be reproduced exactly,
    # and each polygon's skeleton unknowns as a set.
    family, k = name.split("4-k")
    plan = assemble_blocks(make_spaces(int(k), 4, family), 1.0).interior
    ref = _PINNED_PLANS[name]
    for key in ("skeleton", "indices", "indptr", "slots", "triangle", "polygon"):
        assert _digest(getattr(plan, key)) == ref[key], key
    assert len(plan.classes) == len(ref["classes"])
    for cls, pinned in zip(plan.classes, ref["classes"]):
        assert _digest(cls.triangles) == pinned["triangles"]
        assert _digest(cls.interior) == pinned["interior"]
        assert _digest(np.sort(cls.kept, axis=1)) == pinned["kept"]


def _pattern_by_sort(plan):
    """The skeleton's CSC pattern and the slot of every local Schur entry,
    found as the condensation once found them: one np.unique over the
    (column, row) key of every entry of every polygon's complement."""
    ns = len(plan.skeleton)
    where = np.full(len(plan.triangle), -1)
    where[plan.skeleton] = np.arange(ns)
    keys = []
    for cls in plan.classes:
        rows = where[cls.kept]
        keys.append((rows[:, None, :] * ns + rows[:, :, None]).ravel())
    cols_rows, slots = np.unique(np.concatenate(keys), return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols_rows // ns, minlength=ns))])
    return cols_rows % ns, indptr, slots


# Three polygon sizes (a triangle, a quadrilateral and a pentagon with a
# straight angle), every polygon with boundary edges.
_MIXED_MESH = "7 3\n0 0\n1 0\n2 0\n2 1\n1 1\n0 1\n1 0.5\n5 0 1 6 4 5\n3 1 2 6\n4 6 2 3 4\n"


@pytest.mark.parametrize("family,k", [(f, k) for f in ("square", "distorted", "hanging", "mixed")
                                      for k in range(4)])
def test_pattern_from_edge_graph_matches_sort(family, k):
    # The plan reads the pattern and the slots off the graph of primal edges
    # that share a polygon; they must be what sorting every entry gives.
    if family == "mixed":
        spaces = StaggeredSpaces(mm.build_staggered(mm.import_polygon_mesh(_MIXED_MESH)), k)
    else:
        spaces = make_spaces(k, 8, family)
    plan = assemble_blocks(spaces, 1.0).interior
    if family == "mixed":
        assert [cls.triangles.shape for cls in plan.classes] == [(1, 3), (1, 4), (1, 5)]
    indices, indptr, slots = _pattern_by_sort(plan)
    assert np.array_equal(plan.indices, indices)
    assert np.array_equal(plan.indptr, indptr)
    assert np.array_equal(plan.slots, slots)


def test_plan_peak_memory_is_bounded_by_what_it_keeps():
    # Sorting every local Schur entry key took the traced peak to 6.6 times
    # the bytes the plan keeps; reading the pattern off the edge graph, 1.25.
    spaces = make_spaces(2, 16, "distorted")
    tracemalloc.start()
    try:
        plan = solver._condensation_plan(spaces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [plan.triangle, plan.polygon, plan.local, plan.skeleton, plan.slots, plan.indices,
              plan.indptr]  # plan.gradient is a view of the W dofmap
    for cls in plan.classes:
        arrays += [cls.triangles, cls.position, cls.interior, cls.kept]
    assert peak < 2 * sum(a.nbytes for a in arrays)


def test_skeleton_unknowns_must_lie_on_their_primal_edges():
    # A triangle of polygon 1 whose primal-side W unknowns are those of a
    # primal edge of polygon 2: its polygons still share one layout, but the
    # edge graph would slot its entries into the wrong columns.
    spaces = make_spaces(k=1, n=3, family="distorted")
    W, mesh = spaces.W.dofmap, spaces.mesh
    mine = np.flatnonzero(mesh.tri_poly == 1)
    theirs = np.flatnonzero((mesh.tri_poly == 2)
                            & ~np.isin(mesh.tri_edges[:, 0], mesh.tri_edges[mine, 0]))
    w = W.cell_dofs.copy()
    w[mine[0], :2 * (spaces.k + 1)] = w[theirs[0], :2 * (spaces.k + 1)]
    spaces.W.dofmap = replace(W, cell_dofs=w)
    with pytest.raises(SolverError, match="skeleton unknowns off their primal edges"):
        assemble_blocks(spaces, 1.0)


@pytest.mark.parametrize("change", ["swap", "merge", "foreign"])
def test_polygons_of_one_size_share_one_layout(change):
    # The layout of the quads is taken from polygon 0. A triangle of polygon 1
    # whose unknowns do not fit it (two places for one unknown, one place for
    # two, or a skeleton place that lists polygon 2's stage-2 unknowns) must
    # be refused, not eliminated with the wrong local matrices.
    spaces = make_spaces(k=1, n=3, family="distorted")
    W, U, k1 = spaces.W.dofmap, spaces.U.dofmap, spaces.k + 1
    tri_poly = spaces.mesh.tri_poly
    t, t2 = np.flatnonzero(tri_poly == 1)[0], np.flatnonzero(tri_poly == 2)[0]
    w, u = W.cell_dofs.copy(), U.cell_dofs.copy()
    if change == "swap":  # its two U dual-side blocks exchanged
        u[t, :2 * k1] = np.roll(u[t, :2 * k1], k1)
    elif change == "merge":  # one dual edge's U unknowns read as another's
        mine = tri_poly[:, None] == 1
        for a, b in zip(u[t, k1:2 * k1], u[t, :k1]):
            u[mine & (u == a)] = b
    else:  # its primal side's W unknowns replaced by a dual side of polygon 2
        w[t, :2 * k1] = w[t2, 2 * k1:4 * k1]
    spaces.W.dofmap = replace(W, cell_dofs=w)
    spaces.U.dofmap = replace(U, cell_dofs=u)
    with pytest.raises(SolverError, match="4-gon polygons have different local layouts"):
        assemble_blocks(spaces, 1.0)


def test_invalid_eliminations_raise_solver_error():
    # A triangle of polygon 1 that lists a dual-edge unknown of polygon 0: the
    # polygon-by-polygon elimination would split one unknown in two.
    spaces = make_spaces(k=1, n=3, family="distorted")
    U, tri_poly = spaces.U.dofmap, spaces.mesh.tri_poly
    t0, t1 = np.flatnonzero(tri_poly == 0)[0], np.flatnonzero(tri_poly == 1)[0]
    cell_dofs = U.cell_dofs.copy()
    cell_dofs[t1, 0] = cell_dofs[t0, 0]
    spaces.U.dofmap = replace(U, cell_dofs=cell_dofs)
    with pytest.raises(SolverError, match="couple across polygons"):
        assemble_blocks(spaces, 1.0)
    # Polygon 0's divergence element blocks zeroed: its cell P rows vanish
    # from its stage-2 block, which is then singular.
    spaces, _case, system = make_system(k=1, n=3, family="distorted")
    system.blocks.elements.D[spaces.mesh.tri_poly == 0] = 0.0
    with pytest.raises(SolverError, match="singular polygon block"):
        solve(system)


def test_indefinite_skeleton_raises_solver_error():
    # The A stack negated and scaled: the system stays solvable (without the
    # check the refined residual reaches 4e-13), but the pinned skeleton is
    # not negative definite, which its diagonal pivots rely on.
    _spaces, _case, system = make_system(k=1, n=3, family="distorted")
    system.blocks.elements.A *= -100.0
    with pytest.raises(SolverError, match="not negative definite"):
        solve(system)


@pytest.mark.parametrize("family,k", [("square", 0), ("distorted", 2), ("hanging", 3)])
def test_constant_pressure_is_the_kernel_without_the_multiplier(family, k):
    # The solve condenses the saddle matrix without the multiplier, whose
    # kernel is the constant pressure z of the blocks; c . z = 1 puts the
    # multiplier in closed form.
    _spaces, _case, system = make_system(k=k, n=4, family=family)
    K0 = saddle_matrix(system)[:-1, :-1]
    nW, nU, _nP = system.dims
    z = np.concatenate([np.zeros(nW + nU), system.blocks.z])
    assert np.abs(K0 @ z).max() < 1e-14 * abs(K0).max()
    assert abs(system.blocks.c @ system.blocks.z - 1.0) < 1e-14


@pytest.mark.parametrize("family", ["square", "distorted", "hanging"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_gradient_cells_are_the_element_schur_complement(family, k):
    # Stage 0, taken from the blocks, must be what eliminating each
    # triangle's W cell moments from its dense element saddle matrix over
    # (W, U, P) leaves, at any viscosity.
    spaces = make_spaces(k, 4, family)
    blocks = assemble_blocks(spaces, 1.0)
    el, g = blocks.elements, blocks.gradient
    nT, nw, _ = el.M.shape
    nu, npr = el.A.shape[1], el.D.shape[1]
    no = 4 * (k + 1)  # W edge moments; the cell moments follow
    ni = nw - no
    assert g.Minv.shape == (nT, ni, ni)
    cells = np.arange(no, nw)
    rest = np.setdiff1d(np.arange(nw + nu + npr), cells)
    Z, Zw, Dt = np.zeros((nT, npr, npr)), np.zeros((nT, nw, npr)), np.swapaxes(el.D, 1, 2)
    for eps in (1.0, 1e-8):
        se = np.sqrt(eps)
        K = np.block([[-el.M, se * np.swapaxes(el.B, 1, 2), Zw],
                      [se * el.B, el.A, Dt],
                      [np.swapaxes(Zw, 1, 2), el.D, Z]])
        Kri = K[:, rest][:, :, cells]
        schur = (K[:, rest][:, :, rest]
                 - Kri @ np.linalg.solve(K[:, cells][:, :, cells], np.swapaxes(Kri, 1, 2)))
        reduced = np.block([[-g.M, se * np.swapaxes(g.B, 1, 2), Zw[:, :no]],
                            [se * g.B, el.A + eps * g.E, Dt],
                            [np.swapaxes(Zw[:, :no], 1, 2), el.D, Z]])
        assert np.abs(reduced - schur).max() <= 1e-12 * np.abs(K).max()


@pytest.mark.parametrize("family", ["distorted", "hanging"])
def test_plan_depends_only_on_mesh_and_k(family):
    mesh = make_spaces(2, 4, family).mesh
    first = assemble_blocks(StaggeredSpaces(mesh, 2), 1.0).interior
    blocks = assemble_blocks(StaggeredSpaces(mesh, 2), 0.5)
    assert np.array_equal(first.skeleton, blocks.interior.skeleton)
    assert np.array_equal(first.indptr, blocks.interior.indptr)
    assert np.array_equal(first.indices, blocks.interior.indices)
    F, G = np.zeros(blocks.A.shape[0]), np.zeros(blocks.D.shape[0])
    stokes, darcy = (build_system(blocks, eps, 0.5, F, G) for eps in (1.0, 1e-8))
    assert stokes.blocks.interior is darcy.blocks.interior


def count_batches(monkeypatch):
    """Record how many batches of local matrices each solve forms."""
    calls = []
    local_matrices = solver._local_matrices
    monkeypatch.setattr(solver, "_local_matrices",
                        lambda *args: calls.append(1) or local_matrices(*args))
    return calls


@pytest.mark.parametrize("family,n", [("hanging", 4), ("distorted", 8)])
def test_batches_reproduce_one_batch(family, n, monkeypatch):
    # On the hanging mesh the triangles of 4-gons and 5-gons interleave, so
    # the stage-1 rows are not in triangle order. A budget of two quads' local
    # matrices runs every class in at least three batches.
    _spaces, _case, system = make_system(k=2, n=n, eps=1e-4, family=family)
    plan = system.blocks.interior
    nl = plan.local.shape[1]
    calls = count_batches(monkeypatch)
    monkeypatch.setattr(solver, "BATCH_BYTES", 1 << 40)
    whole = solve(system)
    assert len(calls) == len(plan.classes)
    budget = 2 * 4 * 8 * nl * nl
    monkeypatch.setattr(solver, "BATCH_BYTES", budget)
    del calls[:]
    batched = solve(system)
    batches = [-(-count // max(1, budget // (8 * m * nl * nl)))
               for count, m in (cls.triangles.shape for cls in plan.classes)]
    assert min(batches) >= 3 and len(calls) == sum(batches)
    for a, b in ((whole.L, batched.L), (whole.u, batched.u), (whole.p, batched.p)):
        assert np.array_equal(a.coeffs, b.coeffs)
    assert whole.multiplier == batched.multiplier
    assert whole.residuals == batched.residuals


@pytest.mark.parametrize("family", ["square", "distorted", "hanging"])
def test_small_meshes_run_as_one_batch(family, monkeypatch):
    # At h = 1/4 every size class is eliminated in one batch, even at k = 3.
    _spaces, _case, system = make_system(k=3, n=4, family=family)
    calls = count_batches(monkeypatch)
    solve(system)
    assert len(calls) == len(system.blocks.interior.classes)


def test_solve_peak_memory_is_bounded_by_its_eliminations():
    # Refinement reads the inverses of the gradient cell blocks, kept from the
    # assembly, and the stage-1 and stage-2 eliminations of the solve. Beyond
    # these the solve holds the local matrices of one batch at a time; a
    # stack of them over the whole mesh would take the peak to 3.9 times
    # those bytes.
    _spaces, _case, system = make_system(k=2, n=16, eps=1e-8, family="distorted")
    plan = system.blocks.interior
    nT, nl = plan.local.shape
    kept = system.blocks.gradient.Minv.size + nT * plan.num_inner * nl  # Minv, T1 and inv1
    for cls in plan.classes:
        count, n2 = cls.interior.shape
        kept += count * n2 * (n2 + cls.kept.shape[1])  # T2 and inv2
    tracemalloc.start()
    try:
        solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * kept
