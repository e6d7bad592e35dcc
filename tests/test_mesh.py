"""Tests for primal mesh builders, the staggered subdivision, and mesh I/O."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgflow import mesh as mm
from sdgflow.mesh import (
    DUAL,
    PRIMAL_BOUNDARY,
    PRIMAL_INTERIOR,
    MeshError,
    MeshFormatError,
)


# -- primal builders -----------------------------------------------------


def test_square_grid_counts():
    m = mm.build_square_grid(4)
    assert m.num_polygons == 16
    assert len(m.vertices) == 25
    assert np.isclose(m.area(), 1.0)


def test_square_grid_rejects_bad_size():
    with pytest.raises(ValueError):
        mm.build_square_grid(0)


def test_distorted_grid_is_deterministic():
    a = mm.build_distorted_grid(8, delta=0.25, seed=42)
    b = mm.build_distorted_grid(8, delta=0.25, seed=42)
    assert np.array_equal(a.vertices, b.vertices)
    c = mm.build_distorted_grid(8, delta=0.25, seed=7)
    assert not np.array_equal(a.vertices, c.vertices)


def test_distorted_grid_keeps_boundary_fixed():
    m = mm.build_distorted_grid(8, delta=0.25, seed=42)
    ref = mm.build_square_grid(8)
    on_boundary = (
        (ref.vertices[:, 0] == 0.0)
        | (ref.vertices[:, 0] == 1.0)
        | (ref.vertices[:, 1] == 0.0)
        | (ref.vertices[:, 1] == 1.0)
    )
    assert np.array_equal(m.vertices[on_boundary], ref.vertices[on_boundary])
    assert not np.array_equal(m.vertices[~on_boundary], ref.vertices[~on_boundary])
    assert np.isclose(m.area(), 1.0)


def test_distorted_grid_zero_delta_is_uniform():
    m = mm.build_distorted_grid(4, delta=0.0, seed=42)
    assert np.array_equal(m.vertices, mm.build_square_grid(4).vertices)


def test_distorted_grid_rejects_bad_delta():
    with pytest.raises(ValueError):
        mm.build_distorted_grid(4, delta=0.5)
    with pytest.raises(ValueError):
        mm.build_distorted_grid(4, delta=-0.1)


# sha256 of the vertex array's bytes, recorded when the perturbation drew one
# vertex at a time. For delta <= 0.25 no quad folds, nothing is redrawn, and
# the batched draw consumes the same random stream in the same vertex order.
DISTORTED_DIGESTS = {
    (4, 0): "56f90070159f4075d41fa5167942ae8f958617cf1aa35415caf3eba4b3549542",
    (4, 7): "5ae6b93e9c1f087403a5a0a752fd909a0980efedfd649e0106f9e1c7b148171a",
    (4, 42): "df4edcf1da05a6ee8418b45dd2ab0855102fffba29a85b1ea221ec179d12ebf2",
    (16, 0): "00c417aa29b6a1a0e573540c44b011765454a701a5bf2b434b95310d7e808b29",
    (16, 7): "00d29decfc3d6da6edf32b9de6ec9de66b4d254861dc16e7bb0b1787c8562221",
    (16, 42): "b1ba28cf2061bfec6c371f3e4745af0e90e2d7fcd0a247556f238a35ca6f9bc0",
    (64, 0): "2b8bd657f958c9473822defeaefbbfbfa0c14b6985f5ee53985cea4a66dc6505",
    (64, 7): "4787c2aa2ed4171e7b70ba816d593a313718b0accb1f974d35f620c082d2af6c",
    (64, 42): "b9f3faa36645c00624fa3a9a40cfeb68248e10d3ba2cee29029241b2bdf24136",
}


@pytest.mark.parametrize("n, seed", list(DISTORTED_DIGESTS), ids=lambda v: str(v))
def test_distorted_grid_matches_pinned(n, seed):
    vertices = mm.build_distorted_grid(n, 0.25, seed).vertices
    digest = hashlib.sha256(np.ascontiguousarray(vertices, dtype="<f8").tobytes()).hexdigest()
    assert digest == DISTORTED_DIGESTS[n, seed]


_default_rng = np.random.default_rng


class _CountingRng:
    """A generator that counts its calls of `uniform`; `fold` replaces every
    draw by that constant."""

    def __init__(self, seed, fold=None):
        self.rng, self.fold, self.calls = _default_rng(seed), fold, 0

    def uniform(self, low, high, size):
        self.calls += 1
        return self.rng.uniform(low, high, size) if self.fold is None else np.full(size, self.fold)


def _with_rng(monkeypatch, **kwargs) -> list:
    made = []

    def default_rng(seed):
        made.append(_CountingRng(seed, **kwargs))
        return made[-1]

    monkeypatch.setattr(mm.np.random, "default_rng", default_rng)
    return made


def _star_shaped(primal) -> bool:
    coords = primal.vertices[primal.ids.reshape(-1, 4)]
    nu = coords.mean(axis=1, keepdims=True)
    return bool((mm._cross2(np.roll(coords, -1, axis=1) - coords, nu - coords) > 1e-14).all())


def test_distorted_grid_redraws_folded_quads(monkeypatch):
    # At delta 0.49 seed 5 folds a quad at n=8 in the first draw.
    made = _with_rng(monkeypatch)
    a = mm.build_distorted_grid(8, delta=0.49, seed=5)
    assert made[-1].calls > 1
    b = mm.build_distorted_grid(8, delta=0.49, seed=5)
    assert np.array_equal(a.vertices, b.vertices)
    assert _star_shaped(a)
    mm.build_staggered(a)


def test_distorted_grid_gives_up_after_100_rounds(monkeypatch):
    # At n=2 the one interior vertex, moved to (0.05, 0.05), folds the
    # lower-left quad in every round.
    made = _with_rng(monkeypatch, fold=-0.45)
    with pytest.raises(MeshError, match="no valid perturbation found for vertex 4"):
        mm.build_distorted_grid(2, delta=0.49, seed=0)
    assert made[-1].calls == 100


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_distorted_grid_always_validates(seed):
    # Any seed must produce a star-shaped, positively oriented mesh.
    m = mm.build_distorted_grid(4, delta=0.25, seed=seed)
    m.validate()


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_hanging_grid_structure(n):
    m = mm.build_hanging_grid(n)
    # Left half refined 2x: n^2/2 refined cells -> 2n^2 small squares, and
    # n^2/2 coarse cells.
    assert m.num_polygons == 5 * n * n // 2
    assert np.isclose(m.area(), 1.0)
    # The n interface coarse cells, one per row, carry the hanging midpoint
    # of their west side (from NW to SW) as a 5th vertex.
    sizes = np.diff(m.offsets)
    assert np.sum(sizes == 5) == n
    penta = m.vertices[m.ids[m.offsets[:-1][sizes == 5, None] + np.arange(5)]]
    sw, se, _, nw, mid = penta.transpose(1, 0, 2)
    assert np.array_equal(mid, 0.5 * (sw + nw))
    assert np.array_equal(sw[:, 0], nw[:, 0]) and (sw[:, 0] < se[:, 0]).all()
    assert (nw[:, 1] > sw[:, 1]).all()


def test_hanging_grid_rejects_odd_sizes():
    with pytest.raises(ValueError):
        mm.build_hanging_grid(3)
    with pytest.raises(ValueError):
        mm.build_hanging_grid(0)


# -- primal validation ---------------------------------------------------


def test_validate_rejects_clockwise_polygon():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = mm.PrimalMesh(verts, np.array([0, 3]), np.array([0, 2, 1]), np.array([[0.3, 0.3]]))
    with pytest.raises(MeshError, match="counterclockwise"):
        m.validate()


def test_validate_rejects_bad_star_point():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    m = mm.PrimalMesh(verts, np.array([0, 4]), np.arange(4), np.array([[2.0, 2.0]]))
    with pytest.raises(MeshError, match="star-shaped"):
        m.validate()


def test_validate_rejects_short_edge():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-4], [0.0, 1.0]])
    m = mm.PrimalMesh(verts, np.array([0, 4]), np.arange(4), np.array([[0.4, 0.4]]))
    with pytest.raises(MeshError, match="too short"):
        m.validate()


def test_validate_rejects_degenerate_polygon():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    m = mm.PrimalMesh(verts, np.array([0, 2]), np.array([0, 1]), np.array([[0.5, 0.2]]))
    with pytest.raises(MeshError, match="fewer than 3"):
        m.validate()


@pytest.mark.parametrize("offsets", [[0, 3], [1, 4], [0, 5], [0, 3, 2, 4]])
def test_validate_rejects_bad_cycle_offsets(offsets):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    points = np.full((len(offsets) - 1, 2), 0.5)
    m = mm.PrimalMesh(verts, np.array(offsets), np.arange(4), points)
    with pytest.raises(MeshError, match="cycle offsets"):
        m.validate()


@pytest.mark.parametrize("bad", [4, -1])
def test_validate_rejects_vertex_id_out_of_range(bad):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    m = mm.PrimalMesh(verts, np.array([0, 3, 6]), np.array([0, 1, 2, 0, 2, bad]),
                      np.array([[0.6, 0.3], [0.3, 0.6]]))
    with pytest.raises(MeshError, match="polygon 1 references a vertex out of range"):
        m.validate()


# -- staggered subdivision ----------------------------------------------


@pytest.mark.parametrize(
    "primal",
    [
        mm.build_square_grid(3),
        mm.build_distorted_grid(4, 0.25, 42),
        mm.build_hanging_grid(4),
    ],
    ids=["square", "distorted", "hanging"],
)
def test_staggered_invariants(primal):
    sm = mm.build_staggered(primal)
    sm.validate()
    # One triangle per polygon side.
    assert sm.num_triangles == len(primal.ids)
    # One dual edge per triangle (counting identity used by the pressure space).
    assert len(sm.dual_edge_ids) == sm.num_triangles
    assert np.isclose(sm.tri_area.sum(), primal.area())
    # Every triangle's first listed edge is primal, the other two dual.
    assert sm.edge_primal[sm.tri_edges[:, 0]].all()
    assert (sm.edge_kind[sm.tri_edges[:, 1:]] == DUAL).all()


def test_staggered_edge_classification_square():
    sm = mm.build_staggered(mm.build_square_grid(2))
    kinds = {k: int(np.sum(sm.edge_kind == k)) for k in
             (PRIMAL_BOUNDARY, PRIMAL_INTERIOR, DUAL)}
    # 2x2 grid: 8 boundary sides, 4 interior sides, 4 spokes per cell.
    assert kinds[PRIMAL_BOUNDARY] == 8
    assert kinds[PRIMAL_INTERIOR] == 4
    assert kinds[DUAL] == 16


def test_boundary_normals_point_outward():
    sm = mm.build_staggered(mm.build_square_grid(2))
    bnd = sm.edge_kind == PRIMAL_BOUNDARY
    mid = 0.5 * (sm.vertices[sm.edge_v0[bnd]] + sm.vertices[sm.edge_v1[bnd]])
    out = mid + 1e-3 * sm.edge_normal[bnd]
    assert not ((0.0 < out) & (out < 1.0)).all(axis=1).any()


def test_interior_edges_have_opposing_signs():
    sm = mm.build_staggered(mm.build_square_grid(3))
    ntris = np.bincount(sm.tri_edges.ravel())
    signs = np.bincount(sm.tri_edges.ravel(), sm.side_sign.ravel())
    assert (signs[ntris == 2] == 0).all()
    assert set(np.unique(sm.side_sign)) == {-1, 1}


def test_dual_patch_contents():
    # The dual patch D(e) of an interior primal edge e: two triangles, from
    # different polygons, each with e as its primal side.
    sm = mm.build_staggered(mm.build_square_grid(2))
    interior = np.flatnonzero(sm.edge_kind == PRIMAL_INTERIOR)
    assert len(interior) == 4
    t, s = np.nonzero(np.isin(sm.tri_edges, interior))
    assert (s == 0).all()
    patch = t[np.argsort(sm.tri_edges[t, 0], kind="stable")].reshape(-1, 2)
    assert (sm.tri_edges[patch, 0] == interior[:, None]).all()
    assert (sm.tri_poly[patch[:, 0]] != sm.tri_poly[patch[:, 1]]).all()


def test_eval_jump_conventions():
    # A jump sums sign * trace over an edge's triangles: a trace continuous
    # across a two-sided edge has zero jump, and a one-sided (boundary) edge
    # takes its single trace with sign +1.
    sm = mm.build_staggered(mm.build_square_grid(2))
    ntris = np.bincount(sm.tri_edges.ravel())
    assert set(ntris) == {1, 2}
    jump_of_one = np.bincount(sm.tri_edges.ravel(), sm.side_sign.ravel())
    assert (jump_of_one[ntris == 2] == 0).all()
    assert (jump_of_one[ntris == 1] == 1).all()
    assert (sm.edge_kind[ntris == 1] == PRIMAL_BOUNDARY).all()
    assert (sm.side_sign[sm.edge_kind[sm.tri_edges] == PRIMAL_BOUNDARY] == 1).all()


_PINNED_EDGES = json.loads((Path(__file__).parent / "edge_tables.json").read_text())


@pytest.mark.parametrize("name", sorted(_PINNED_EDGES))
def test_edge_table_matches_pinned(name):
    # Recorded from the edge-by-edge dictionary construction this table
    # replaced: ids, orientation, kind, normal, tangent, length and the jump
    # sign of every triangle side must be reproduced exactly.
    primal = {
        "square3": lambda: mm.build_square_grid(3),
        "distorted3": lambda: mm.build_distorted_grid(3, 0.25, 42),
        "hanging4": lambda: mm.build_hanging_grid(4),
        "two-rect": lambda: mm.import_polygon_mesh(SQUARE_FILE),
    }[name]()
    sm = mm.build_staggered(primal)
    ref = _PINNED_EDGES[name]
    got = {
        "tri_edges": sm.tri_edges, "v0": sm.edge_v0, "v1": sm.edge_v1,
        "kind": np.array(mm.EDGE_KINDS)[sm.edge_kind], "normal": sm.edge_normal,
        "tangent": sm.edge_tangent, "length": sm.edge_length, "side_sign": sm.side_sign,
    }
    for key, value in got.items():
        assert np.array_equal(value, np.array(ref[key])), key


# -- polygon file format -------------------------------------------------


SQUARE_FILE = """\
# unit square split into two rectangles
6 2
0 0
1 0
1 1
0 1
0 0.5
1 0.5
4 0 1 5 4
4 4 5 2 3
"""


def test_import_polygon_mesh_round_trip():
    m = mm.import_polygon_mesh(SQUARE_FILE)
    assert m.num_polygons == 2
    assert np.isclose(m.area(), 1.0)
    sm = mm.build_staggered(m)
    sm.validate()


# The coarse right polygon misses the hanging node (6) of its left
# neighbours, so their shared interface reads as two domain boundaries.
NONCONFORMING_FILE = """\
8 3
0 0
0.5 0
1 0
1 1
0.5 1
0 1
0.5 0.5
0 0.5
4 0 1 6 7
4 7 6 4 5
4 1 2 3 4
"""
CONFORMING_FILE = NONCONFORMING_FILE.replace("4 1 2 3 4\n", "5 1 2 3 4 6\n")


def test_nonconforming_mesh_is_rejected():
    with pytest.raises(MeshError, match="not conforming"):
        mm.build_staggered(mm.import_polygon_mesh(NONCONFORMING_FILE))
    sm = mm.build_staggered(mm.import_polygon_mesh(CONFORMING_FILE))
    assert np.sum(sm.edge_kind == PRIMAL_INTERIOR) == 3


# Two squares that touch at one vertex: their bottom and top sides lie on one
# line with opposite normals, but only meet at a point, which is conforming.
TOUCHING_FILE = """\
7 2
0 0
1 0
1 1
0 1
1 -1
2 -1
2 0
4 0 1 2 3
4 4 5 6 1
"""


def test_nonconforming_check_on_a_slanted_interface():
    # The same defect along a line that no coordinate axis follows, where the
    # normals of the collinear edges agree only to roundoff.
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    cases = ((NONCONFORMING_FILE, False), (CONFORMING_FILE, True), (TOUCHING_FILE, True))
    for text, ok in cases:
        primal = mm.import_polygon_mesh(text)
        primal.vertices = 3.7 * primal.vertices @ rot.T + 0.25
        primal.interior_points = 3.7 * primal.interior_points @ rot.T + 0.25
        if ok:
            mm.build_staggered(primal)
        else:
            with pytest.raises(MeshError, match="not conforming"):
                mm.build_staggered(primal)


@pytest.mark.parametrize("shift", [100.0, 1000.0])
def test_mesh_far_from_the_origin_keeps_its_area(shift):
    # The shoelace sums of a polygon cancel on absolute coordinates far from
    # the origin; a rotated unit-square mesh moved away must still build.
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    primal = mm.build_distorted_grid(8)
    primal.vertices = primal.vertices @ rot.T + shift
    primal.interior_points = primal.interior_points @ rot.T + shift
    sm = mm.build_staggered(primal)
    assert abs(primal.area() - 1.0) <= 1e-12
    assert abs(sm.tri_area.sum() - 1.0) <= 1e-12


def test_validate_reports_first_failing_polygon():
    # Polygon 0 is fine, polygon 1 repeats a vertex, polygon 2 is clockwise:
    # the message names polygon 1.
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
    offsets, ids = np.array([0, 4, 8, 11]), np.array([0, 1, 2, 3, 1, 4, 4, 2, 1, 2, 4])
    m = mm.PrimalMesh(verts, offsets, ids, np.array([[0.5, 0.5], [1.4, 0.3], [1.4, 0.3]]))
    with pytest.raises(MeshError, match="polygon 1 repeats a vertex"):
        m.validate()
    m.offsets, m.ids = np.array([0, 4, 7]), np.array([0, 1, 2, 3, 1, 2, 4])
    m.interior_points = m.interior_points[:2]
    with pytest.raises(MeshError, match="polygon 1 is not counterclockwise"):
        m.validate()


def test_validate_needs_one_interior_point_per_polygon():
    m = mm.build_square_grid(2)
    m.interior_points = m.interior_points[:3]
    with pytest.raises(MeshError, match="3 interior points for 4 polygons"):
        m.validate()


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty"),
        ("2\n0 0\n1 1\n", "header"),
        ("3 1\n0 zero\n1 0\n0 1\n3 0 1 2\n", "numbers"),
        ("3 1\n0 0\n1 0\n0 1\n4 0 1 2\n", "m i1"),
        ("3 1\n0 0\n1 0\n0 1\n3 0 1 5\n", "out of range"),
        ("3 1\n0 0\n1 0\n0 1\n", "content lines"),
        ("-1 2\n0 0\n", "line 1: header needs NV >= 3"),
        ("3 -1\n0 0\n1 0\n", "line 1: header needs NV >= 3"),
        ("0 0\n", "line 1: header needs NV >= 3"),
    ],
)
def test_import_polygon_mesh_rejects_malformed(text, match):
    with pytest.raises(MeshFormatError, match=match):
        mm.import_polygon_mesh(text)


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_import_polygon_mesh_rejects_non_finite_coordinates(coord):
    # Refused where it is read, before the mesh check would warn about the
    # arithmetic and then report adjacency signs that do not oppose.
    text = f"5 2\n0 0\n1 0\n1 1\n0 1\n{coord} 0.5\n4 0 1 2 4\n3 0 4 3\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshFormatError, match="finite numbers") as err:
            mm.build_staggered(mm.import_polygon_mesh(text))
    assert err.value.line == 6


def test_import_polygon_mesh_reports_line_numbers():
    bad = "3 1\n0 0\nnope nope\n0 1\n3 0 1 2\n"
    with pytest.raises(MeshFormatError) as err:
        mm.import_polygon_mesh(bad)
    assert err.value.line == 3
