"""Tests for the staggered spaces: dimensions, continuity, interpolation."""

import math

import numpy as np
import pytest

from sdgflow import cases
from sdgflow import mesh as mm
from sdgflow import spaces as spaces_mod
from sdgflow.mesh import PRIMAL_BOUNDARY, PRIMAL_INTERIOR
from sdgflow.polybasis import tri_dim
from sdgflow.spaces import DiscreteField, SpaceError, StaggeredSpaces


MESHES = {
    "square2": mm.build_staggered(mm.build_square_grid(2)),
    "square3": mm.build_staggered(mm.build_square_grid(3)),
    "distorted": mm.build_staggered(mm.build_distorted_grid(3, 0.25, 42)),
    "hanging": mm.build_staggered(mm.build_hanging_grid(4)),
    "two-rect": mm.build_staggered(
        mm.import_polygon_mesh(
            "6 2\n0 0\n1 0\n1 1\n0 1\n0 0.5\n1 0.5\n4 0 1 5 4\n4 4 5 2 3\n"
        )
    ),
}


def expected_dims(sm, k):
    """Closed-form space dimensions from edge/triangle counts."""
    nT = sm.num_triangles
    n_primal = len(sm.primal_edge_ids)
    n_dual = len(sm.dual_edge_ids)
    nk1 = tri_dim(k - 1)
    dim_W = 2 * (k + 1) * n_primal + (k + 1) * n_dual + 4 * nk1 * nT
    dim_U = (k + 1) * n_dual + 2 * nk1 * nT
    dim_P = (k + 1) * n_primal + nk1 * nT
    return dim_W, dim_U, dim_P


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_space_dimensions(name, k):
    sm = MESHES[name]
    spaces = StaggeredSpaces(sm, k)
    dw, du, dp = expected_dims(sm, k)
    assert spaces.W.ndof == dw
    assert spaces.U.ndof == du
    assert spaces.P.ndof == dp


def test_order_range_enforced():
    sm = MESHES["square2"]
    with pytest.raises(ValueError):
        StaggeredSpaces(sm, 4)
    with pytest.raises(ValueError, match="1..3"):
        StaggeredSpaces(sm, 0)
    with pytest.raises(ValueError):
        StaggeredSpaces(sm, -1)


def test_unknown_space_tag():
    spaces = StaggeredSpaces(MESHES["square2"], 1)
    with pytest.raises(ValueError):
        spaces.space("Q")


def test_local_condition_limits(monkeypatch):
    # On the square grid each condition number is computed once for a class
    # of many triangles.
    for sm in (MESHES["distorted"], mm.build_staggered(mm.build_square_grid(8))):
        conds = StaggeredSpaces(sm, 2).W.conds
        # A limit below some triangles' condition numbers fails on the first of them.
        limit = float(np.median(conds))
        first = int(np.argmax(conds > limit))
        monkeypatch.setattr(spaces_mod, "COND_LIMIT", limit)
        with pytest.raises(SpaceError, match=f"triangle {first} .*cond={conds[first]:.3g}"):
            StaggeredSpaces(sm, 2)
        monkeypatch.undo()
        monkeypatch.setattr(spaces_mod, "COND_WARN", limit)
        with pytest.warns(UserWarning, match=f"space W: worst .* {conds.max():.3g}"):
            StaggeredSpaces(sm, 2)
        monkeypatch.undo()


def test_singular_local_system_names_its_triangle():
    # An exactly singular local DOF matrix fails the batched inverse; the
    # error still names the first such triangle.
    spaces = StaggeredSpaces(MESHES["distorted"], 1)
    spaces.side_moments[[2, 5], 0] = 0.0
    with pytest.raises(SpaceError, match="space P: .* triangle 2 is singular .*cond=inf"):
        spaces._build_space("P")
    # The edge rows are one per class: on a square grid, singular rows of
    # classes 4 and 5 fail first on the lowest triangle of either.
    spaces = StaggeredSpaces(mm.build_staggered(mm.build_square_grid(8)), 1)
    spaces.side_moments[spaces.class_tris[[4, 5]], 0] = 0.0
    first = int(np.flatnonzero(spaces.tri_class >= 4)[0])
    assert first > 5
    with pytest.raises(SpaceError, match=f"space P: .* triangle {first} is singular .*cond=inf"):
        spaces._build_space("P")


@pytest.mark.parametrize("family,n,classes", [
    ("square", 8, 6), ("square", 16, 6), ("square", 32, 6), ("hanging", 8, 20),
    ("distorted", 8, 256)])
def test_triangle_classes(family, n, classes):
    # A class is the triangles whose inputs to the local builders are equal
    # byte for byte, numbered by their first triangle. Uniform grids repeat a
    # few triangles; on a distorted grid every triangle is its own class.
    sm = cases.build_mesh(family, n, seed=42)
    spaces = StaggeredSpaces(sm, 1)
    assert spaces.num_classes == classes
    assert np.array_equal(spaces.class_tris, np.unique(spaces.tri_class, return_index=True)[1])
    assert np.array_equal(spaces.tri_class[spaces.class_tris], np.arange(classes))
    assert np.all(np.diff(spaces.class_tris) > 0)
    te = sm.tri_edges
    inputs = [spaces.jac, spaces.side_flip, sm.side_sign, sm.edge_length[te],
              sm.edge_normal[te], sm.edge_tangent[te], sm.edge_primal[te]]
    for x in inputs:
        first = x[spaces.class_tris][spaces.tri_class]
        assert first.tobytes() == x.tobytes()


_MIXED_MESH = "7 3\n0 0\n1 0\n2 0\n2 1\n1 1\n0 1\n1 0.5\n5 0 1 6 4 5\n3 1 2 6\n4 6 2 3 4\n"


@pytest.mark.parametrize("family", ["square", "distorted", "hanging", "mixed"])
def test_triangle_classes_need_no_tangent_or_edge_kind(family):
    # The key leaves out each side's tangent (its normal turned by 90
    # degrees) and edge kind (side 0 primal, 1 and 2 dual): keyed with them
    # too, the classes are the same.
    if family == "mixed":
        meshes = [mm.build_staggered(mm.import_polygon_mesh(_MIXED_MESH))]
    else:
        meshes = [cases.build_mesh(family, n, seed=42) for n in (4, 8, 16, 32)]
    for sm in meshes:
        spaces = StaggeredSpaces(sm, 1)
        te, nT = sm.tri_edges, sm.num_triangles
        assert np.array_equal(sm.edge_primal[te], np.tile([True, False, False], (nT, 1)))
        key = np.hstack([spaces.jac.reshape(nT, -1), spaces.side_flip, sm.side_sign,
                         sm.edge_length[te], sm.edge_normal[te].reshape(nT, -1),
                         sm.edge_tangent[te].reshape(nT, -1), sm.edge_primal[te]])
        rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))[:, 0]
        class_tris, tri_class = mm._first_appearance(rows)
        assert np.array_equal(spaces.class_tris, class_tris)
        assert np.array_equal(spaces.tri_class, tri_class)


@pytest.mark.parametrize("family", ["square", "distorted", "hanging", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_space_record_names_its_layout(family, k):
    # The ranges `primal`, `dual` and `cell` partition the columns of
    # cell_dofs and list the DOFs of the triangle's primal edge, of its two
    # dual edges and of its cell; an edge of each kind carries (k+1) DOFs per
    # frame row of the space, and a field's values have the space's shape.
    if family == "mixed":
        sm = mm.build_staggered(mm.import_polygon_mesh(_MIXED_MESH))
    else:
        sm = cases.build_mesh(family, 4, seed=42)
    spaces = StaggeredSpaces(sm, k)
    te, nT = sm.tri_edges, sm.num_triangles
    pts = spaces.physical(np.array([[0.2, 0.3], [0.5, 0.25]]))[0]
    for tag in "WUP":
        s = spaces.space(tag)
        nloc = s.cell_dofs.shape[1]
        cols = np.arange(nloc)
        assert np.array_equal(np.concatenate([cols[s.primal], cols[s.dual], cols[s.cell]]), cols)
        assert np.array_equal(cols[s.edges], np.concatenate([cols[s.primal], cols[s.dual]]))

        per_primal, per_dual = len(cols[s.primal]), len(cols[s.dual]) // 2
        assert per_primal == s.per_primal
        assert np.array_equal(s.cell_dofs[:, s.primal],
                              s.edge_offsets[te[:, 0], None] + np.arange(per_primal))
        assert np.array_equal(s.cell_dofs[:, s.dual].reshape(nT, 2, -1),
                              s.edge_offsets[te[:, 1:], None] + np.arange(per_dual))
        cell = s.cell_dofs[:, s.cell]
        assert cell.min() >= s.num_edge_dofs
        assert np.array_equal(np.sort(cell, axis=None), np.arange(s.num_edge_dofs, s.ndof))

        has = s.edge_offsets >= 0
        per_edge = np.zeros(len(has), dtype=int)
        per_edge[has] = np.diff(np.append(s.edge_offsets[has], s.num_edge_dofs))
        for primal, count in ((True, per_primal), (False, per_dual)):
            kind = sm.edge_primal == primal
            rows = spaces_mod.frame_rows(tag, primal, sm.edge_normal[kind], sm.edge_tangent[kind])
            assert count == (k + 1) * rows.shape[1]
            assert np.all(per_edge[kind] == count)

        f = random_field(spaces, tag)
        vals, grads = spaces.eval_field(f, 0, pts, gradients=True)
        assert vals.shape == (len(pts),) + s.shape == spaces.eval_field(f, 0, pts).shape
        assert grads.shape == (len(pts),) + s.shape + (2,)


@pytest.mark.parametrize("name", ["square3", "distorted", "hanging"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_tables_match_basis_at_edge_points(name, k):
    # Each table trace equals the modal basis evaluated at the rule's physical
    # points on the edge (v0 to v1), mapped back to the adjacent triangle.
    sm = MESHES[name]
    spaces = StaggeredSpaces(sm, k)
    rules = ((spaces.form_edge_quad, spaces.form_traces),
             (spaces.data_edge_quad, spaces.data_traces))
    for rule, table in rules:
        for t, s in np.ndindex(*sm.tri_edges.shape):
            e = sm.tri_edges[t, s]
            lo, hi = sm.vertices[sm.edge_v0[e]], sm.vertices[sm.edge_v1[e]]
            pts = lo + np.outer((rule.points + 1.0) / 2.0, hi - lo)
            T = table[s, spaces.side_flip[t, s]]
            ref = (pts - spaces.origin[t]) @ spaces.invJT[t]
            assert np.abs(T - spaces.basis.eval(ref)).max() < 1e-12


def test_local_dual_basis_inverts_dof_matrix():
    # Local dual function l, taken as a polynomial on the whole plane, has
    # DOF values e_l on its triangle: its interpolant reads the identity.
    spaces = StaggeredSpaces(MESHES["distorted"], 2)
    t, nloc = 3, 2 * spaces.nk
    dual = spaces.U.dual_coeffs[t]
    assert dual.shape == (nloc, nloc)
    assert spaces.U.conds[t] < 1e6
    dofs = spaces.U.cell_dofs[t]
    for l in range(nloc):
        coeffs = dual[:, l].reshape(2, spaces.nk)

        def fn(pts):
            ref = (pts - spaces.origin[t]) @ spaces.invJT[t]
            return (coeffs @ spaces.basis.eval(ref)).T

        got = spaces.interpolate("U", fn).coeffs[dofs]
        assert np.abs(got - np.eye(nloc)[l]).max() < 1e-10


def _scaled(primal, factor):
    return mm.PrimalMesh(primal.vertices * factor, primal.offsets, primal.ids,
                         primal.interior_points * factor)


DUAL_MESHES = {
    "square": mm.build_staggered(mm.build_square_grid(4)),
    "distorted": mm.build_staggered(mm.build_distorted_grid(4, 0.25, 42)),
    "hanging": mm.build_staggered(mm.build_hanging_grid(4)),
    # Cell rows scale with the area and edge rows with the length, so on a
    # large domain the cell columns set the 1-norm of the local matrices.
    "distorted-x64": mm.build_staggered(_scaled(mm.build_distorted_grid(4, 0.25, 42), 64.0)),
}


@pytest.mark.parametrize("name", sorted(DUAL_MESHES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dual_basis_inverts_every_local_system(name, k):
    # The reported condition numbers are those of the dual basis itself, and
    # local dual function l, taken as a polynomial on the whole plane, has
    # DOF values e_l on its triangle: its interpolant reads the identity.
    spaces = StaggeredSpaces(DUAL_MESHES[name], k)
    nT = spaces.mesh.num_triangles
    for tag in "WUP":
        s = spaces.space(tag)
        nloc = math.prod(s.shape) * spaces.nk
        assert s.dual_coeffs.shape == (nT, nloc, nloc)
        cond = np.linalg.cond(s.dual_coeffs, 1)
        assert (np.abs(s.conds - cond) <= 1e-10 * cond).all()
        for t in (0, nT // 2, nT - 1):
            dofs = s.cell_dofs[t]
            for l in range(nloc):
                coeffs = s.dual_coeffs[t, :, l].reshape(-1, spaces.nk)

                def fn(pts, t=t, coeffs=coeffs):
                    ref = (pts - spaces.origin[t]) @ spaces.invJT[t]
                    return s.shaped(coeffs @ spaces.basis.eval(ref))

                got = spaces.interpolate(tag, fn).coeffs[dofs]
                assert np.abs(got - np.eye(nloc)[l]).max() < 1e-10


# -- polynomial reproduction by interpolation ---------------------------


def poly_scalar(k):
    def fn(pts):
        x, y = pts[:, 0], pts[:, 1]
        out = 1.0 + x - 0.5 * y
        if k >= 2:
            out = out + 0.25 * x * y - 0.75 * y**2
        if k >= 3:
            out = out + 0.1 * x**3 - 0.2 * x * y**2
        return out

    return fn


def poly_vector(k):
    s = poly_scalar(k)

    def fn(pts):
        base = s(pts)
        return np.stack([base, 2.0 * base - pts[:, 0]], axis=1)

    return fn


def poly_matrix(k):
    s = poly_scalar(k)

    def fn(pts):
        base = s(pts)
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = base
        out[:, 0, 1] = -base + pts[:, 1]
        out[:, 1, 0] = 0.5 * base
        out[:, 1, 1] = base + 1.0
        return out

    return fn


@pytest.mark.parametrize("name", ["square3", "distorted", "hanging"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_reproduces_polynomials(name, k):
    spaces = StaggeredSpaces(MESHES[name], k)
    cases = {"P": poly_scalar(k), "U": poly_vector(k), "W": poly_matrix(k)}
    ref = np.array([[0.2, 0.2], [0.6, 0.1], [0.15, 0.7], [1 / 3, 1 / 3]])
    for tag, fn in cases.items():
        f = spaces.interpolate(tag, fn)
        for t in range(spaces.mesh.num_triangles):
            pts = ref @ spaces.jac[t].T + spaces.origin[t]
            vals = spaces.eval_field(f, t, pts)
            assert np.abs(np.asarray(vals) - np.asarray(fn(pts))).max() < 1e-11


def test_eval_field_gradients_match_finite_differences():
    spaces = StaggeredSpaces(MESHES["square2"], 2)
    f = spaces.interpolate("P", poly_scalar(2))
    pts = np.array([[0.3, 0.2]])
    _, grad = spaces.eval_field(f, 0, pts, gradients=True)
    h = 1e-6
    for a, e in enumerate([np.array([h, 0.0]), np.array([0.0, h])]):
        fd = (
            spaces.eval_field(f, 0, pts + e)[0]
            - spaces.eval_field(f, 0, pts - e)[0]
        ) / (2 * h)
        assert abs(fd - grad[0, a]) < 1e-8


# -- trace continuity ----------------------------------------------------


def edge_points(sm, e, n=7):
    lo, hi = sm.vertices[sm.edge_v0[e]], sm.vertices[sm.edge_v1[e]]
    xi = np.linspace(0.05, 0.95, n)[:, None]
    return lo + xi * (hi - lo)


def edge_tris(sm, e):
    return np.flatnonzero((sm.tri_edges == e).any(axis=1))


def random_field(spaces, tag, seed=0):
    rng = np.random.default_rng(seed)
    return DiscreteField(tag, rng.standard_normal(spaces.space(tag).ndof))


@pytest.mark.parametrize("k", [1, 2])
def test_U_normal_trace_continuous_on_dual_edges(k):
    sm = MESHES["distorted"]
    spaces = StaggeredSpaces(sm, k)
    f = random_field(spaces, "U")
    for e in sm.dual_edge_ids:
        pts = edge_points(sm, e)
        traces = [spaces.eval_field(f, t, pts) @ sm.edge_normal[e] for t in edge_tris(sm, e)]
        assert np.abs(traces[0] - traces[1]).max() < 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_P_trace_continuous_on_interior_primal_edges(k):
    sm = MESHES["distorted"]
    spaces = StaggeredSpaces(sm, k)
    f = random_field(spaces, "P")
    for e in np.flatnonzero(sm.edge_kind == PRIMAL_INTERIOR):
        pts = edge_points(sm, e)
        traces = [spaces.eval_field(f, t, pts) for t in edge_tris(sm, e)]
        assert np.abs(traces[0] - traces[1]).max() < 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_W_trace_continuity(k):
    sm = MESHES["distorted"]
    spaces = StaggeredSpaces(sm, k)
    f = random_field(spaces, "W")
    for e in np.flatnonzero(sm.edge_kind != PRIMAL_BOUNDARY):
        pts = edge_points(sm, e)
        gn = [
            np.einsum("pab,b->pa", spaces.eval_field(f, t, pts), sm.edge_normal[e])
            for t in edge_tris(sm, e)
        ]
        if sm.edge_kind[e] == PRIMAL_INTERIOR:
            # Full normal trace G n continuous across interior primal edges.
            assert np.abs(gn[0] - gn[1]).max() < 1e-9
        else:
            # Only the tangential part of G n is continuous across dual edges.
            t0 = gn[0] @ sm.edge_tangent[e]
            t1 = gn[1] @ sm.edge_tangent[e]
            assert np.abs(t0 - t1).max() < 1e-9


def test_broken_coefficients_shape():
    spaces = StaggeredSpaces(MESHES["square2"], 1)
    f = random_field(spaces, "W")
    broken = spaces.broken(f)
    assert broken.shape == (spaces.mesh.num_triangles, 4, spaces.nk)
