"""Tests for the saddle-point assembly and the condensed solve."""

import hashlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from direct_oracle import backward_error, direct_solve, residual, saddle_matrix

from sdgflow import forms, mesh as mm, solver, verify
from sdgflow.solver import (
    SolverError,
    _backward_error,
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
    r, omega = _backward_error(system)(y)
    assert np.abs((b - r) - K @ y).max() < 1e-14 * np.abs(abs(K) @ abs(y)).max()
    # The elements' absolute values sum to at least |K| entrywise, so the
    # pass's backward error is at most the assembled matrix's.
    assert omega <= backward_error(K, y, b)
    # The reported residual is the assembled matrix's, up to the roundoff of
    # forming K x - b in another order: one ulp of |K||x| + |b|, about 100
    # times the differences seen and well below the residual itself.
    sol = solve(system)
    x = np.concatenate([sol.L.coeffs, sol.u.coeffs, sol.p.coeffs, [sol.multiplier]])
    bnorm = max(float(np.linalg.norm(b)), 1.0)
    ulp = np.finfo(float).eps * np.linalg.norm(abs(K) @ abs(x) + abs(b)) / bnorm
    assert abs(sol.residual - residual(system, x)) < ulp


@pytest.mark.parametrize("family,k,eps", [("distorted", 2, 1e-8), ("hanging", 3, 1e-4)])
def test_refinement_reaches_a_componentwise_backward_error_of_ulps(family, k, eps):
    # The first solve meets a normwise 1e-12 but leaves the rows of small
    # terms loose; refinement runs until max_i |r_i| / (|K||x| + |b|)_i is a
    # few ulps, measured here on the assembled matrix.
    _spaces, _case, system = make_system(k=k, n=4, eps=eps, family=family)
    sol = solve(system)
    x = np.concatenate([sol.L.coeffs, sol.u.coeffs, sol.p.coeffs, [sol.multiplier]])
    assert sol.residuals[0] > solver.REFINE_TARGET >= sol.residuals[-1]
    assert np.isfinite(x).all()
    assert backward_error(saddle_matrix(system), x, system.rhs) <= 8 * 2.0**-53


def test_refinement_keeps_the_last_finite_iterate(monkeypatch):
    # A refinement step that comes out non-finite has a NaN backward error,
    # which stops the refinement; the solve returns the iterate before it.
    _spaces, _case, system = make_system(k=2, n=4, eps=1e-8, family="distorted")
    calls = []
    skeleton_solve = solver._skeleton_solve

    def second_is_nan(*args):
        calls.append(1)
        y = skeleton_solve(*args)
        return np.full_like(y, np.nan) if len(calls) == 2 else y

    monkeypatch.setattr(solver, "_skeleton_solve", second_is_nan)
    sol = solve(system)
    assert len(calls) == 2 and len(sol.residuals) == 2 and np.isnan(sol.residuals[-1])
    assert all(np.isfinite(f.coeffs).all() for f in (sol.L, sol.u, sol.p))
    assert np.isfinite(sol.multiplier) and sol.residual <= 1e-12


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


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_coefficients_must_be_positive_and_finite(bad):
    # Rejected where they enter: a NaN alpha would otherwise surface as a
    # mismatch in build_system, and an infinite one as a failed solve.
    spaces = make_spaces()
    with pytest.raises(ValueError, match="reaction coefficient"):
        assemble_blocks(spaces, bad)
    for eps, alpha in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="coefficients"):
            verify.trig_case(eps, alpha)


def test_solve_residual_and_mean():
    _spaces, _case, system = make_system(k=2, n=3)
    sol = solve(system)
    assert sol.residual < 1e-10
    # Discrete zero-mean pressure via the multiplier constraint.
    assert abs(float(system.blocks.c @ sol.p.coeffs)) < 1e-10


@pytest.mark.parametrize("family", ["square", "distorted", "hanging"])
@pytest.mark.parametrize("k,eps", [(1, 1.0), (2, 1e-4), (3, 1e-8)])
def test_condensed_matches_direct(family, k, eps):
    # The hanging mesh has 5-gon polygons, so stage 2 inverts blocks of two
    # sizes.
    n = 4 if family == "hanging" else 3
    _spaces, _case, system = make_system(k=k, n=n, eps=eps, family=family)
    x = direct_solve(system)
    sol = solve(system)
    nW, nU, _nP = system.dims
    # Both sides are refined to the same componentwise target; the worst
    # deviation over these cases is 2.6e-15 (p, square k=1) and 4.4e-16 in
    # the multiplier.
    for a, b in ((x[:nW], sol.L), (x[nW:nW + nU], sol.u), (x[nW + nU:-1], sol.p)):
        scale = max(1.0, np.abs(a).max())
        assert np.abs(a - b.coeffs).max() < 1e-13 * scale
    assert abs(x[-1] - sol.multiplier) < 1e-13
    # Refinement reaches a componentwise backward error of a few ulps, and
    # the returned solution's normwise residual meets the benchmark's gate.
    assert min(sol.residuals) <= solver.REFINE_TARGET
    assert sol.residual <= 1e-12


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
    # The unrefined solve deviates by at most 3.2e-13 here (hanging k=3).
    assert np.abs(x - y).max() < 1e-11 * np.abs(x).max()


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


def _plan_owners(plan, tri_poly):
    """The owner of each unknown in stage 1 (its triangle) and in stage 2
    (its polygon), -1 where that stage keeps it."""
    n = plan.size + len(plan.skeleton)
    triangle, polygon = np.full(n, -1), np.full(n, -1)
    triangle[plan.local[:, :plan.num_inner]] = np.arange(len(plan.local))[:, None]
    for cls in plan.classes:
        polygon[cls.interior] = tri_poly[cls.triangles[:, :1]]
    return triangle, polygon


@pytest.mark.parametrize("family", ["square", "distorted", "hanging"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_interior_groups_layout(family, k):
    spaces = make_spaces(k, 4, family)
    groups = assemble_blocks(spaces, 1.0).interior
    mesh, k1 = spaces.mesh, k + 1
    W, U, P = spaces.W, spaces.U, spaces.P
    nW, nU = W.ndof, U.ndof
    n = nW + nU + P.ndof
    assert groups.size + len(groups.skeleton) == n
    triangle, polygon = _plan_owners(groups, mesh.tri_poly)
    assert not np.any((triangle >= 0) & (polygon >= 0))

    # Stage 1: triangle t owns its cell W entries and its cell U entries, and
    # the groups cover each of the two cell ranges once.
    cells = np.hstack([W.cell_dofs[:, W.cell], nW + U.cell_dofs[:, U.cell]])
    for t in range(mesh.num_triangles):
        assert np.array_equal(np.flatnonzero(triangle == t), np.sort(cells[t]))
    cell_ranges = np.concatenate([np.arange(W.num_edge_dofs, nW),
                                  nW + np.arange(U.num_edge_dofs, nU)])
    assert np.array_equal(np.flatnonzero(triangle >= 0), cell_ranges)

    # Stage 2: polygon p owns the W and U moments on its dual edges and the
    # cell P entries of its triangles, nothing else.
    for p in range(mesh.primal.num_polygons):
        tris = np.flatnonzero(mesh.tri_poly == p)
        duals = np.unique(mesh.tri_edges[tris, 1:])
        assert not mesh.edge_primal[duals].any()
        expected = np.concatenate(
            [W.edge_offsets[duals, None] + np.arange(k1),
             nW + U.edge_offsets[duals, None] + np.arange(k1)], axis=None)
        expected = np.concatenate([expected, nW + nU + P.cell_dofs[tris, P.cell].ravel()])
        assert np.array_equal(np.flatnonzero(polygon == p), np.sort(expected))

    # Skeleton: 2(k+1) W and k+1 P moments per primal edge.
    skeleton = np.flatnonzero((triangle < 0) & (polygon < 0))
    assert np.array_equal(skeleton, np.sort(groups.skeleton))
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
    # The owners and each class's triangles and stage-2 unknowns were recorded
    # from the condensation that numbered each polygon's unknowns by one
    # global sort; the skeleton order and the front place of every local
    # Schur entry from the nested dissection, when the plan kept those places
    # ("slots": classes in turn, past the leaf buffer above a front's
    # diagonal). All must be reproduced exactly, the places from the classes'
    # extend-add maps, and each polygon's skeleton unknowns as a set.
    family, k = name.split("4-k")
    spaces = make_spaces(int(k), 4, family)
    plan = assemble_blocks(spaces, 1.0).interior
    ref = _PINNED_PLANS[name]
    assert _digest(plan.skeleton) == ref["skeleton"]
    slots = []
    for cls in plan.classes:
        place = cls.rows[:, :, None] + cls.cols[:, None, :]
        place[cls.cols[:, :, None] < cls.cols[:, None, :]] = plan.front_sizes[0]
        slots.append(place.ravel())
    assert _digest(np.concatenate(slots)) == ref["slots"]
    triangle, polygon = _plan_owners(plan, spaces.mesh.tri_poly)
    assert _digest(triangle) == ref["triangle"]
    assert _digest(polygon) == ref["polygon"]
    assert len(plan.classes) == len(ref["classes"])
    for cls, pinned in zip(plan.classes, ref["classes"]):
        assert _digest(cls.triangles) == pinned["triangles"]
        assert _digest(cls.interior) == pinned["interior"]
        assert _digest(np.sort(cls.kept, axis=1)) == pinned["kept"]


def _skeleton_by_sort(plan, schur):
    """The skeleton as the condensation once summed it, dense: one np.unique
    over the (row, column) key of every entry of every polygon's complement."""
    ns = len(plan.skeleton)
    where = np.full(plan.size + ns, -1)
    where[plan.skeleton] = np.arange(ns)
    keys = []
    for cls in plan.classes:
        rows = where[cls.kept]
        keys.append((rows[:, :, None] * ns + rows[:, None, :]).ravel())
    keys, slots = np.unique(np.concatenate(keys), return_inverse=True)
    S = np.zeros(ns * ns)
    S[keys] = np.bincount(slots, schur)
    return S.reshape(ns, ns)


# Three polygon sizes (a triangle, a quadrilateral and a pentagon with a
# straight angle), every polygon with boundary edges.
_MIXED_MESH = "7 3\n0 0\n1 0\n2 0\n2 1\n1 1\n0 1\n1 0.5\n5 0 1 6 4 5\n3 1 2 6\n4 6 2 3 4\n"

_PLAN_CASES = [(f, k) for f in ("square", "distorted", "hanging", "mixed") for k in range(1, 4)]


def _plan_spaces(family, k):
    if family == "mixed":
        return StaggeredSpaces(mm.build_staggered(mm.import_polygon_mesh(_MIXED_MESH)), k)
    return make_spaces(k, 8, family)


@pytest.mark.parametrize("family,k", _PLAN_CASES)
def test_pattern_from_edge_graph_matches_sort(family, k):
    # The plan maps every local Schur entry to the lower triangle of its
    # leaf's front, by the graph of primal edges and the polygons they bound;
    # added by the extend-add, the leaf fronts must be the lower triangle of
    # what sorting every entry gives. The values are integers, so that any
    # order of summation is exact.
    plan = assemble_blocks(_plan_spaces(family, k), 1.0).interior
    if family == "mixed":
        assert [cls.triangles.shape for cls in plan.classes] == [(1, 3), (1, 4), (1, 5)]
    rng = np.random.default_rng(k)
    fronts, schur = np.zeros(plan.front_sizes[0]), []
    for cls in plan.classes:
        X = rng.integers(-8, 9, (len(cls.kept),) + 2 * cls.kept.shape[1:]).astype(float)
        solver._extend_add(fronts, X + np.swapaxes(X, 1, 2), cls.rows, cls.cols)
        schur.append((X + np.swapaxes(X, 1, 2)).ravel())
    schur = np.concatenate(schur)
    ns = len(plan.skeleton)
    S = np.zeros((ns, ns))
    for grp in plan.fronts:
        if grp.height == 0:
            places = np.hstack([grp.own, grp.update])
            (count, nf), at = places.shape, grp.base
            F = fronts[at:at + count * nf * nf].reshape(count, nf, nf)
            np.add.at(S, (places[:, :, None], places[:, None, :]), F)
    assert np.array_equal(S, np.tril(_skeleton_by_sort(plan, schur)))


@pytest.mark.parametrize("family,k", _PLAN_CASES)
def test_dissection_separates_sibling_subtrees(family, k):
    # Rebuilt by `_dissect`, the tree numbers its nodes in postorder, so a
    # subtree is the range of nodes from its first to its root. Each primal
    # edge must be eliminated by the lowest node whose subtree holds the
    # leaves of all its polygons, the skeleton must list the edges node by
    # node, and each front's own edges must be those of one node of the
    # front's height. The edges that a node eliminates separate its two
    # subtrees: no edge eliminated in one shares a polygon with an edge
    # eliminated in the other.
    spaces = _plan_spaces(family, k)
    plan = assemble_blocks(spaces, 1.0).interior
    mesh, k3 = spaces.mesh, 3 * (k + 1)
    parent, height, leaf = solver._dissect(mesh.primal.interior_points)
    first = np.arange(len(parent))
    for v, up in enumerate(parent):
        assert up == -1 and v == len(parent) - 1 or up > v
        first[up] = min(first[up], first[v])
    prim = mesh.primal_edge_ids
    node = np.full(len(mesh.edge_kind), -1)  # the node that eliminates each primal edge
    for e in prim:
        leaves = leaf[mesh.tri_poly[mesh.tri_edges[:, 0] == e]]
        node[e] = min(v for v in range(len(parent))
                      if first[v] <= leaves.min() and leaves.max() <= v)
    order = np.argsort(node[prim], kind="stable")
    assert np.array_equal(plan.skeleton[::k3], spaces.W.edge_offsets[prim[order]])
    eliminated = np.zeros(len(prim), dtype=int)
    for grp in plan.fronts:
        places = grp.own[:, ::k3] // k3
        owners = node[prim[order[places]]]
        assert np.all(owners == owners[:, :1]) and np.all(height[owners] == grp.height)
        np.add.at(eliminated, places.ravel(), 1)
    assert np.all(eliminated == 1)
    tri_node = node[mesh.tri_edges[:, 0]]
    for v in range(len(parent)):
        children = np.flatnonzero(parent == v)
        assert len(children) in (0, 2)
        assert height[v] == max(height[children] + 1, default=0)
        sides = [set(mesh.tri_poly[(first[c] <= tri_node) & (tri_node <= c)]) for c in children]
        assert not (sides and sides[0] & sides[1])


def test_extend_add_sums_each_lower_entry_into_its_place():
    # Every entry (i, j) with cols[g, i] >= cols[g, j] adds to
    # rows[g, i] + cols[g, j], repeated targets summed, whatever the order of
    # the columns; the values are integers, so that any order of summation is
    # exact.
    rng = np.random.default_rng(0)
    G, n = 5, 6
    blocks = rng.integers(-8, 9, (G, n, n)).astype(float)
    cols = np.stack([rng.permutation(n) for _ in range(G)])
    rows = rng.integers(0, 3, (G, n)) * n  # three rows of n places, shared
    dense = np.zeros(3 * n)
    for g in range(G):
        for i in range(n):
            for j in range(n):
                if cols[g, i] >= cols[g, j]:
                    dense[rows[g, i] + cols[g, j]] += blocks[g, i, j]
    buffer = np.zeros(3 * n)
    solver._extend_add(buffer, blocks, rows, cols)
    assert np.array_equal(buffer, dense)
    # With increasing columns into distinct fronts it adds the lower
    # triangles, as a fancy-indexed sum over tril_indices does.
    nf = 9
    cols = np.stack([np.sort(rng.choice(nf, n, replace=False)) for _ in range(G)])
    rows = np.arange(G)[:, None] * nf * nf + cols * nf
    blocks = rng.standard_normal((G, n, n))
    tril, (i, j) = np.zeros(G * nf * nf), np.tril_indices(n)
    tril[rows[:, i] + cols[:, j]] += blocks[:, i, j]
    buffer = np.zeros(G * nf * nf)
    solver._extend_add(buffer, blocks, rows, cols)
    assert np.array_equal(buffer, tril)


def test_plan_peak_memory_is_bounded_by_what_it_keeps():
    # Sorting every local Schur entry key took the traced peak to 6.6 times
    # the bytes the plan keeps; reading the pattern off the edge graph, 1.25.
    # The fronts of the nested dissection keep it near that.
    spaces = make_spaces(2, 16, "distorted")
    tracemalloc.start()
    try:
        plan = solver._condensation_plan(spaces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [plan.local, plan.skeleton, plan.pinned]
    for cls in plan.classes:
        arrays += [cls.triangles, cls.position, cls.interior, cls.kept, cls.rows, cls.cols]
    for grp in plan.fronts:
        arrays += [grp.own, grp.update, grp.rows, grp.cols]
    assert peak < 2 * sum(a.nbytes for a in arrays)


def test_skeleton_unknowns_must_lie_on_their_primal_edges():
    # A triangle of polygon 1 whose primal-side W unknowns are those of a
    # primal edge of polygon 2: its polygons still share one layout, but the
    # edge graph would slot its entries into the wrong columns.
    spaces = make_spaces(k=1, n=3, family="distorted")
    W, mesh = spaces.W, spaces.mesh
    mine = np.flatnonzero(mesh.tri_poly == 1)
    theirs = np.flatnonzero((mesh.tri_poly == 2)
                            & ~np.isin(mesh.tri_edges[:, 0], mesh.tri_edges[mine, 0]))
    w = W.cell_dofs.copy()
    w[mine[0], W.primal] = w[theirs[0], W.primal]
    spaces.W = replace(W, cell_dofs=w)
    with pytest.raises(SolverError, match="skeleton unknowns off their primal edges"):
        assemble_blocks(spaces, 1.0)


@pytest.mark.parametrize("change", ["swap", "merge", "foreign"])
def test_polygons_of_one_size_share_one_layout(change):
    # The layout of the quads is taken from polygon 0. A triangle of polygon 1
    # whose unknowns do not fit it (two places for one unknown, one place for
    # two, or a skeleton place that lists polygon 2's stage-2 unknowns) must
    # be refused, not eliminated with the wrong local matrices.
    spaces = make_spaces(k=1, n=3, family="distorted")
    W, U, k1 = spaces.W, spaces.U, spaces.k + 1
    tri_poly = spaces.mesh.tri_poly
    t, t2 = np.flatnonzero(tri_poly == 1)[0], np.flatnonzero(tri_poly == 2)[0]
    w, u = W.cell_dofs.copy(), U.cell_dofs.copy()
    if change == "swap":  # its two U dual-side blocks exchanged
        u[t, U.dual] = np.roll(u[t, U.dual], k1)
    elif change == "merge":  # one dual edge's U unknowns read as another's
        mine = tri_poly[:, None] == 1
        for a, b in zip(u[t, k1:2 * k1], u[t, :k1]):
            u[mine & (u == a)] = b
    else:  # its primal side's W unknowns replaced by a dual side of polygon 2
        w[t, W.primal] = w[t2, W.dual]
    spaces.W = replace(W, cell_dofs=w)
    spaces.U = replace(U, cell_dofs=u)
    with pytest.raises(SolverError, match="4-gon polygons have different local layouts"):
        assemble_blocks(spaces, 1.0)


def test_invalid_eliminations_raise_solver_error():
    # A triangle of polygon 1 that lists a dual-edge unknown of polygon 0: the
    # polygon-by-polygon elimination would split one unknown in two.
    spaces = make_spaces(k=1, n=3, family="distorted")
    U, tri_poly = spaces.U, spaces.mesh.tri_poly
    t0, t1 = np.flatnonzero(tri_poly == 0)[0], np.flatnonzero(tri_poly == 1)[0]
    cell_dofs = U.cell_dofs.copy()
    cell_dofs[t1, 0] = cell_dofs[t0, 0]
    spaces.U = replace(U, cell_dofs=cell_dofs)
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


@pytest.mark.parametrize("family,k", [("square", 1), ("distorted", 2), ("hanging", 3)])
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
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_cells_are_the_element_schur_complement(family, k):
    # Stage 1 eliminates the gradient (W) and velocity (U) cell moments of
    # each class of triangles together. Its local matrices must be the dense
    # element saddle matrix over (W, U, P), cell moments moved first, and
    # what it leaves the Schur complement onto the W and U edge moments and
    # the P unknowns, at any viscosity.
    spaces = make_spaces(k, 4, family)
    blocks = assemble_blocks(spaces, 1.0)
    el, plan, W, U = blocks.elements, blocks.interior, spaces.W, spaces.U
    nC, nw, _ = el.M.shape
    nu, npr = el.A.shape[1], el.D.shape[1]
    ni, nl = plan.num_inner, plan.local.shape[1]
    cells = np.concatenate([np.arange(W.cell.start, nw), nw + np.arange(U.cell.start, nu)])
    rest = np.setdiff1d(np.arange(nl), cells)
    assert len(cells) == ni and nl == nw + nu + npr
    Z, Zw, Dt = np.zeros((nC, npr, npr)), np.zeros((nC, nw, npr)), np.swapaxes(el.D, 1, 2)
    for eps in (1.0, 1e-8):
        se = np.sqrt(eps)
        K = np.block([[-el.M, se * np.swapaxes(el.B, 1, 2), Zw],
                      [se * el.B, el.A, Dt],
                      [np.swapaxes(Zw, 1, 2), el.D, Z]])
        order = np.concatenate([cells, rest])
        local = solver._local_matrices(spaces, el, eps, slice(None), np.empty((nC, nl, nl)))
        assert np.array_equal(local, K[:, order][:, :, order])
        Kri = K[:, rest][:, :, cells]
        schur = (K[:, rest][:, :, rest]
                 - Kri @ np.linalg.solve(K[:, cells][:, :, cells], np.swapaxes(Kri, 1, 2)))
        S = solver._condense(local, ni, "triangle", np.empty((nC, ni, nl - ni)),
                             np.empty((nC, ni, ni)))
        assert np.abs(S - schur).max() <= 1e-12 * np.abs(K).max()


def test_singular_cell_block_raises_solver_error():
    # One class's gradient mass zeroed on its cell moments: the joint W and
    # U cell block [[0, se B^T], [se B, A]] of that class has more W than U
    # cell moments, so it is singular.
    spaces, _case, system = make_system(k=1, n=3, family="distorted")
    W = spaces.W
    system.blocks.elements.M[5, W.cell, W.cell] = 0.0
    with pytest.raises(SolverError, match="singular triangle block"):
        solve(system)


def test_first_solve_is_accurate_in_the_stokes_limit():
    # With the W cell moments eliminated apart from the U ones, the reduced
    # U block A + eps E, E about 2.9e4 times A, cost the first solve at
    # eps = 1 two digits of backward error (2.0e-7), and its first
    # refinement step stopped at 8.0e-14. Eliminated together, the first
    # solve reaches 4.2e-9 and the first step 4.2e-16 to 4.9e-16, which
    # straddles REFINE_TARGET with the number of BLAS threads.
    _spaces, _case, system = make_system(k=3, n=16, eps=1.0, family="distorted")
    sol = solve(system)
    assert sol.residuals[0] < 2e-8
    assert sol.residuals[1] < 1e-15


@pytest.mark.parametrize("family", ["square", "hanging", "distorted"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_classes_change_nothing(family, k, monkeypatch):
    # Dual bases, element stacks and stage 1 built once per class of
    # triangles and gathered are, bit for bit, those built on every triangle.
    def solved(spaces):
        blocks = assemble_blocks(spaces, 1.0)
        case = verify.trig_case(1e-4, 1.0)
        F, G = forms.assemble_rhs(spaces, case.f, case.g)
        sol = solve(build_system(blocks, 1e-4, 1.0, F, G))
        per_class = ([spaces.space(t).dual_coeffs for t in "WUP"]
                     + list(vars(blocks.elements).values()))
        return ([spaces.space(t).conds for t in "WUP"] + [spaces.gather(x) for x in per_class]
                + [sol.L.coeffs, sol.u.coeffs, sol.p.coeffs])

    spaces = make_spaces(k, 8, family)
    grouped = solved(spaces)

    def one_class_each(self):
        self.tri_class = self.class_tris = np.arange(self.mesh.num_triangles)

    monkeypatch.setattr(StaggeredSpaces, "_classify_triangles", one_class_each)
    alone = StaggeredSpaces(spaces.mesh, k)
    assert alone.num_classes == spaces.mesh.num_triangles
    assert spaces.num_classes < alone.num_classes or family == "distorted"
    each = solved(alone)
    assert len(grouped) == len(each) == 6 + 4 + 3
    for a, b in zip(grouped, each):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("family", ["distorted", "hanging"])
def test_plan_depends_only_on_mesh_and_k(family):
    mesh = make_spaces(2, 4, family).mesh
    first = assemble_blocks(StaggeredSpaces(mesh, 2), 1.0).interior
    blocks = assemble_blocks(StaggeredSpaces(mesh, 2), 0.5)
    assert np.array_equal(first.skeleton, blocks.interior.skeleton)
    assert np.array_equal(first.pinned, blocks.interior.pinned)
    for a, b in zip(first.classes, blocks.interior.classes, strict=True):
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
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
    # On the hanging mesh the classes of the 4-gons' and 5-gons' triangles
    # interleave, so stage 1 condenses copies of their rows, not views. A
    # budget of two quads' local matrices runs every class in at least three
    # batches.
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


@pytest.mark.parametrize("family,k,n", [("distorted", 2, 16), ("hanging", 3, 8)])
def test_solve_peak_memory_is_bounded_by_its_eliminations(family, k, n):
    # Refinement reads the stage-1 eliminations, one per class of triangles
    # (20 on the hanging h = 1/8 mesh), the stage-2 ones and the skeleton's
    # Cholesky factor. Beyond these the solve holds the local matrices of one
    # batch at a time and the rows of the stacks it gathers for that batch;
    # the peak is 1.4 and 1.9 times the bytes of the eliminations. One batch
    # for the whole mesh would take it to 2.4 and 3.7 times.
    spaces, _case, system = make_system(k=k, n=n, eps=1e-8, family=family)
    plan = system.blocks.interior
    kept = spaces.num_classes * plan.num_inner * plan.local.shape[1]  # T1 and inv1
    for cls in plan.classes:
        count, n2 = cls.interior.shape
        kept += count * n2 * (n2 + cls.kept.shape[1])  # T2 and inv2
    for grp in plan.fronts:
        count, no = grp.own.shape
        kept += count * no * (no + grp.update.shape[1])  # L11^{-1} and L21
    tracemalloc.start()
    try:
        solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * kept
