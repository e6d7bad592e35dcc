"""Primal polygonal meshes and their staggered triangular submeshes.

A primal mesh partitions the domain into star-shaped polygons, each with
a designated interior point. The staggered submesh joins every polygon's
interior point to its vertices, producing one triangle per polygon side.
Edges are classified as primal (original polygon sides) or dual (the new
interior spokes), with a fixed unit normal and signed triangle adjacency
used to define jumps.

The submesh owns its edge table as arrays: edge e runs from vertex
edge_v0[e] to edge_v1[e] (the lower id first), has kind edge_kind[e], and
side s of triangle t is edge tri_edges[t, s] with jump sign side_sign[t, s].
Edges are numbered in order of first appearance over the triangle sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRIMAL_INTERIOR, PRIMAL_BOUNDARY, DUAL = 0, 1, 2
EDGE_KINDS = ("primal-interior", "primal-boundary", "dual")  # names by kind
RHO = 0.05  # shortest admissible polygon side, relative to the polygon's diameter


class MeshError(ValueError):
    """Invalid mesh: violated invariant or regularity assumption."""


class MeshFormatError(MeshError):
    """Malformed polygon mesh file."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _cross2(a: np.ndarray, b: np.ndarray):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _rot90(v: np.ndarray) -> np.ndarray:
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis, as stacked matmuls."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _length(d: np.ndarray) -> np.ndarray:
    # Rounds like np.linalg.norm of each row; (d * d).sum(-1) differs from it
    # in the last bit on some edges.
    return np.sqrt(_dot(d, d))


def _side_checks(a: np.ndarray, b: np.ndarray, point: np.ndarray,
                 diameter: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checks of `PrimalMesh.validate` on polygon sides a -> b, with the
    polygon's interior point and diameter: whether the side fails, the signed
    area of its subdivision triangle (a, b, point), which must be positive
    for a star-shaped polygon, and its length, which must be at least RHO
    times the diameter."""
    tri_area = 0.5 * _cross2(b - a, point - a)
    h_e = _length(b - a)
    return (tri_area <= 0.0) | (h_e < RHO * diameter), tri_area, h_e


@dataclass
class PrimalMesh:
    """Polygonal partition of the domain with per-polygon interior points.

    Polygon p is the CCW vertex cycle ids[offsets[p]:offsets[p + 1]].
    """

    vertices: np.ndarray  # (nv, 2)
    offsets: np.ndarray  # (npoly + 1,) start of each cycle in ids, then len(ids)
    ids: np.ndarray  # vertex ids of all cycles, polygon by polygon
    interior_points: np.ndarray  # (npoly, 2)

    @property
    def num_polygons(self) -> int:
        return len(self.offsets) - 1

    def _cycles(self) -> tuple[np.ndarray, np.ndarray]:
        """(poly, nxt): entry j of ids is side (ids[j], ids[nxt[j]]) of
        polygon poly[j]."""
        sizes = np.diff(self.offsets)
        poly = np.repeat(np.arange(len(sizes)), sizes)
        start = self.offsets[poly]
        nxt = start + (np.arange(len(self.ids)) - start + 1) % sizes[poly]
        return poly, nxt

    def _signed_areas(self, poly, nxt) -> np.ndarray:
        # Shoelace relative to each polygon's first vertex: on coordinates far
        # from the origin the absolute terms would cancel.
        ids = self.ids
        origin = self.vertices[ids[self.offsets[poly]]]
        a, b = self.vertices[ids] - origin, self.vertices[ids[nxt]] - origin
        return 0.5 * np.bincount(poly, _cross2(a, b), minlength=self.num_polygons)

    def area(self) -> float:
        return float(self._signed_areas(*self._cycles()).sum())

    def validate(self) -> None:
        """Check orientation, star-shapedness and edge-length regularity.

        Raises first for a malformed cycle layout, then for the first
        failing polygon. Within it the checks run in order: vertex count,
        repeated vertex, orientation, then side by side star-shapedness and
        side length.
        """
        ids, offsets = self.ids, self.offsets
        sizes = np.diff(offsets)
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(ids) or (sizes < 0).any():
            raise MeshError(f"cycle offsets must rise from 0 to len(ids)={len(ids)}")
        if self.interior_points.shape != (len(sizes), 2):
            raise MeshError(
                f"{len(self.interior_points)} interior points for {len(sizes)} polygons")
        outside = (ids < 0) | (ids >= len(self.vertices))
        if outside.any():
            p = int(np.searchsorted(offsets, np.argmax(outside), side="right")) - 1
            raise MeshError(f"polygon {p} references a vertex out of range")
        poly, nxt = self._cycles()
        P = self.num_polygons
        order = np.lexsort((ids, poly))
        ps, vs = poly[order], ids[order]
        repeats = np.bincount(ps[1:][(ps[1:] == ps[:-1]) & (vs[1:] == vs[:-1])], minlength=P) > 0
        area = self._signed_areas(poly, nxt)
        # Diameter: the largest distance over all vertex pairs of a polygon.
        m = sizes[poly]
        first = np.repeat(np.arange(len(ids)), m)
        start = offsets[poly]
        second = start[first] + np.arange(len(first)) - np.repeat(np.cumsum(m) - m, m)
        d = self.vertices[ids[first]] - self.vertices[ids[second]]
        h_s = np.zeros(P)
        np.maximum.at(h_s, poly[first], np.sqrt((d ** 2).sum(-1)))
        side_bad, tri_area, h_e = _side_checks(self.vertices[ids], self.vertices[ids[nxt]],
                                               self.interior_points[poly], h_s[poly])
        bad = (sizes < 3) | repeats | (area <= 0.0) | (np.bincount(poly, side_bad, minlength=P) > 0)
        if not bad.any():
            return
        p = int(np.argmax(bad))
        if sizes[p] < 3:
            raise MeshError(f"polygon {p} has fewer than 3 vertices")
        if repeats[p]:
            raise MeshError(f"polygon {p} repeats a vertex")
        if area[p] <= 0.0:
            raise MeshError(f"polygon {p} is not counterclockwise (signed area {area[p]:g})")
        j = int(np.argmax(side_bad & (poly == p)))
        i = j - int(start[j])
        if tri_area[j] <= 0.0:
            raise MeshError(
                f"polygon {p} is not star-shaped w.r.t. its interior point "
                f"(side {i} subdivision triangle has area {tri_area[j]:g})"
            )
        raise MeshError(
            f"polygon {p} side {i} too short: h_e={h_e[j]:g} < {RHO}*h_S={RHO * h_s[p]:g}"
        )


@dataclass
class StaggeredMesh:
    """Simplicial submesh with its classified, oriented edge table."""

    primal: PrimalMesh
    vertices: np.ndarray  # primal vertices followed by interior points
    triangles: np.ndarray  # (nT, 3) vertex ids; third vertex is the interior point
    tri_poly: np.ndarray  # (nT,) parent polygon id
    tri_area: np.ndarray
    tri_edges: np.ndarray  # (nT, 3) edge ids: [primal side, dual side 1, dual side 2]
    side_sign: np.ndarray  # (nT, 3) jump sign of each triangle side
    edge_v0: np.ndarray  # (nE,) lower vertex id
    edge_v1: np.ndarray  # (nE,) higher vertex id
    edge_kind: np.ndarray  # (nE,) PRIMAL_INTERIOR, PRIMAL_BOUNDARY or DUAL
    edge_normal: np.ndarray  # (nE, 2) fixed unit normal, outward on the boundary
    edge_tangent: np.ndarray  # (nE, 2) normal rotated by +90 degrees
    edge_length: np.ndarray  # (nE,)
    h: float

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def edge_primal(self) -> np.ndarray:
        return self.edge_kind != DUAL

    @property
    def primal_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(self.edge_primal)

    @property
    def dual_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(self.edge_kind == DUAL)

    def validate(self) -> None:
        nT, kind = self.num_triangles, self.edge_kind
        n_int, n_bnd, n_dual = np.bincount(kind, minlength=3)
        if n_dual != nT:
            raise MeshError(f"|F_p|={n_dual} != |T_h|={nT}")
        if 2 * n_int + n_bnd != nT:
            raise MeshError(f"2|F_u0|+|F_u\\F_u0| = {2 * n_int + n_bnd} != |T_h|={nT}")
        ntris = np.bincount(self.tri_edges.ravel(), minlength=len(kind))
        signs = np.bincount(self.tri_edges.ravel(), self.side_sign.ravel(), minlength=len(kind))
        expected = np.where(kind == PRIMAL_BOUNDARY, 1, 2)
        bad = (ntris != expected) | ((ntris == 2) & (signs != 0))
        if bad.any():
            e = int(np.argmax(bad))
            edge = f"edge ({self.edge_v0[e]},{self.edge_v1[e]})"
            if ntris[e] != expected[e]:
                raise MeshError(f"{edge} kind {EDGE_KINDS[kind[e]]} has {ntris[e]} triangles")
            raise MeshError(f"{edge} adjacency signs do not oppose")
        if abs(self.tri_area.sum() - self.primal.area()) > 1e-12 * max(1.0, self.primal.area()):
            raise MeshError("triangle areas do not sum to the domain area")
        self._check_conforming()

    def _check_conforming(self) -> None:
        """Reject boundary primal edges that overlap along one line with
        opposite outward normals: a polygon side that misses a vertex of its
        neighbours, which would turn their interface into two boundaries."""
        tol = 1e-9  # relative: far above roundoff, far below any regular side
        bnd = np.flatnonzero(self.edge_kind == PRIMAL_BOUNDARY)
        lo, hi = self.vertices.min(axis=0), self.vertices.max(axis=0)
        scale = float((hi - lo).max())
        x0 = self.vertices[self.edge_v0[bnd]] - 0.5 * (lo + hi)
        x1 = self.vertices[self.edge_v1[bnd]] - 0.5 * (lo + hi)
        # Group by supporting line: the normal rounded to tol and turned to one
        # of its two signs, and the line's offset rounded to tol * scale.
        q = np.round(self.edge_normal[bnd] / tol)
        side = np.where((q[:, 0] < 0) | ((q[:, 0] == 0) & (q[:, 1] < 0)), -1, 1)
        n = side[:, None] * self.edge_normal[bnd]
        offset = np.round(_dot(n, x0) / (tol * scale))
        _, line = np.unique(np.column_stack([side[:, None] * q, offset]), axis=0,
                            return_inverse=True)
        # Sweep each line's intervals, slightly shrunk so that touching ends do
        # not count; the intervals of a line close before the next line starts.
        t = _rot90(n)
        s0, s1 = _dot(t, x0), _dot(t, x1)
        shrink = tol * np.abs(s1 - s0)
        pos = np.concatenate([np.minimum(s0, s1) + shrink, np.maximum(s0, s1) - shrink])
        step = np.repeat([1, -1], len(bnd))
        order = np.lexsort((step, pos, np.tile(line.ravel(), 2)))
        sides = np.tile(side, 2)[order]
        open_out = np.cumsum(np.where(sides > 0, step[order], 0))
        open_in = np.cumsum(np.where(sides < 0, step[order], 0))
        hit = (open_out > 0) & (open_in > 0)
        if hit.any():
            e = bnd[order[int(np.argmax(hit))] % len(bnd)]
            raise MeshError(
                f"boundary edge ({self.edge_v0[e]},{self.edge_v1[e]}) overlaps a boundary "
                "edge with the opposite normal: the mesh is not conforming (a polygon "
                "misses a vertex that lies on its side)"
            )


def build_square_grid(n: int) -> PrimalMesh:
    """Uniform n-by-n grid of squares on the unit square."""
    if n < 1:
        raise ValueError("grid size must be at least 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # Cell (i, j), row by row, has lower-left vertex j * (n + 1) + i.
    j, i = np.divmod(np.arange(n * n), n)
    v = j * (n + 1) + i
    ids = np.column_stack([v, v + 1, v + n + 2, v + n + 1]).ravel()
    return _mesh_at_centroids(vertices, np.arange(0, 4 * n * n + 1, 4), ids)


def _mesh_at_centroids(vertices: np.ndarray, offsets: np.ndarray, ids: np.ndarray) -> PrimalMesh:
    """The primal mesh whose interior points are its polygons' vertex means."""
    # One mean per polygon size: a stacked mean rounds like the mean of each
    # polygon's vertices, a running sum over all polygons does not. An empty
    # cycle keeps the origin; validation rejects it.
    sizes, points = np.diff(offsets), np.zeros((len(offsets) - 1, 2))
    for m in np.unique(sizes[sizes > 0]):
        which = np.flatnonzero(sizes == m)
        points[which] = vertices[ids[offsets[which, None] + np.arange(m)]].mean(axis=1)
    return PrimalMesh(vertices, offsets, ids, points)


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys in order of first appearance. Returns the
    position of each number's first occurrence and the number of each key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def build_distorted_grid(n: int, delta: float = 0.25, seed: int = 42) -> PrimalMesh:
    """Square grid with interior vertices perturbed by U[-delta*h, delta*h]^2.

    Deterministic for a given (n, delta, seed). All interior vertices are
    drawn at once, in vertex order. A quad that `PrimalMesh.validate` would
    reject, not star-shaped w.r.t. its vertex mean or with a side shorter
    than RHO times its diameter, has its interior vertices redrawn, again in
    vertex order, until no quad fails; after 100 rounds MeshError names the
    lowest vertex still redrawn. For delta <= 0.25 every quad stays convex
    with sides of at least half of h, so the first draw is kept: the same
    numbers as one draw per vertex.
    """
    if not 0.0 <= delta < 0.5:
        raise ValueError("distortion fraction must lie in [0, 0.5)")
    mesh = build_square_grid(n)
    if delta == 0.0:
        return mesh
    h = 1.0 / n
    rng = np.random.default_rng(seed)
    vertices = mesh.vertices.copy()
    quads = mesh.ids.reshape(-1, 4)
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    redraw = interior
    for _ in range(100):
        vertices[redraw] = mesh.vertices[redraw] + rng.uniform(
            -delta * h, delta * h, size=(redraw.sum(), 2))
        coords = vertices[quads]
        d = coords[:, :, None] - coords[:, None]
        bad = _side_checks(coords, np.roll(coords, -1, axis=1), coords.mean(axis=1, keepdims=True),
                           np.sqrt((d ** 2).sum(-1)).max(axis=(1, 2))[:, None])[0]
        redraw = interior & (np.bincount(quads[bad.any(axis=1)].ravel(),
                                         minlength=len(vertices)) > 0)
        if not redraw.any():
            return _mesh_at_centroids(vertices, mesh.offsets, mesh.ids)
    raise MeshError(f"no valid perturbation found for vertex {np.argmax(redraw)}")


def build_hanging_grid(n: int) -> PrimalMesh:
    """n-by-n grid with the left half refined 2x, leaving hanging nodes.

    Cells with centre x < 1/2 are split into four subcells; the coarse
    cells along the interface keep the hanging midpoint as a collinear
    polygon vertex.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("hanging grid needs an even n >= 2")
    H = 1.0 / n
    # Every cell, row by row, gets four slots of five vertices on the lattice
    # of half-cell steps: the corners SW, SE, NE, NW and the west midpoint.
    # A refined cell fills the four slots with its subcells (rows of two),
    # a coarse cell fills slot 0, with the midpoint next to the refined half.
    j, i = np.divmod(np.arange(n * n), n)
    refined = i < n // 2
    corner = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [0, 1]])  # of a coarse cell
    sub = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])  # subcell origins in a refined one
    origin = 2 * np.column_stack([i, j])[:, None, None]
    lattice = np.where(refined[:, None, None, None], origin + sub[:, None] + corner // 2,
                       origin + corner)
    used = np.zeros((n * n, 4, 5), dtype=bool)
    used[refined, :, :4] = True
    used[~refined, 0, :4] = True
    used[i == n // 2, 0, 4] = True
    sizes = used.sum(axis=2)[used.any(axis=2)]
    points = lattice[used]
    first, ids = _first_appearance(points[:, 0] * (2 * n + 1) + points[:, 1])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return _mesh_at_centroids(points[first] * H / 2.0, offsets, ids)


def import_polygon_mesh(text: str) -> PrimalMesh:
    """Parse the plain-text polygon format.

    Line 1: `NV NP`; then NV lines `x y`; then NP lines `m i1 ... im`
    with 0-based CCW vertex indices. `#` starts a comment.
    """
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((lineno, stripped.split()))
    if not rows:
        raise MeshFormatError("empty mesh file", 1)
    lineno, header = rows[0]
    if len(header) != 2:
        raise MeshFormatError("expected header `NV NP`", lineno)
    try:
        nv, npoly = int(header[0]), int(header[1])
    except ValueError:
        raise MeshFormatError("header fields must be integers", lineno) from None
    if nv < 3 or npoly < 1:
        raise MeshFormatError(
            f"header needs NV >= 3 vertices and NP >= 1 polygons, got {nv} {npoly}", lineno)
    if len(rows) != 1 + nv + npoly:
        raise MeshFormatError(
            f"expected {1 + nv + npoly} content lines, found {len(rows)}", rows[-1][0]
        )
    vertices = np.empty((nv, 2))
    for v in range(nv):
        lineno, fields = rows[1 + v]
        if len(fields) != 2:
            raise MeshFormatError("expected vertex line `x y`", lineno)
        try:
            vertices[v] = [float(fields[0]), float(fields[1])]
        except ValueError:
            raise MeshFormatError("vertex coordinates must be numbers", lineno) from None
        if not np.isfinite(vertices[v]).all():
            raise MeshFormatError("vertex coordinates must be finite numbers", lineno)
    offsets, ids = [0], []
    for p in range(npoly):
        lineno, fields = rows[1 + nv + p]
        try:
            line = [int(f) for f in fields]
        except ValueError:
            raise MeshFormatError("polygon indices must be integers", lineno) from None
        if not line or len(line) != line[0] + 1:
            raise MeshFormatError("polygon line must read `m i1 ... im`", lineno)
        if any(i < 0 or i >= nv for i in line[1:]):
            raise MeshFormatError(f"polygon {p} references a vertex out of range", lineno)
        ids += line[1:]
        offsets.append(len(ids))
    return _mesh_at_centroids(vertices, np.array(offsets), np.array(ids, dtype=int))


def build_staggered(mesh: PrimalMesh) -> StaggeredMesh:
    """Subdivide each polygon into triangles and classify/orient all edges.

    Validates the primal mesh and the submesh; this is the one place a mesh
    is validated.
    """
    mesh.validate()
    nv = len(mesh.vertices)
    vertices = np.vstack([mesh.vertices, mesh.interior_points])
    tri_poly, nxt = mesh._cycles()
    # Triangle [a, b, nu] per polygon side; its sides (a, b), (b, nu), (nu, a).
    triangles = np.column_stack([mesh.ids, mesh.ids[nxt], nv + tri_poly])
    corners = vertices[triangles]
    sides = np.roll(corners, -1, axis=1) - corners
    tri_area = 0.5 * np.abs(_cross2(sides[:, 0], corners[:, 2] - corners[:, 0]))
    ends = np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=-1)
    lo, hi = ends.min(axis=-1).ravel(), ends.max(axis=-1).ravel()
    # Number the edges in order of first appearance over the triangle sides.
    first, side_edge = _first_appearance(lo * len(vertices) + hi)
    tri_edges = side_edge.reshape(-1, 3)
    edge_v0, edge_v1 = lo[first], hi[first]

    direction = vertices[edge_v1] - vertices[edge_v0]
    edge_length = _length(direction)
    edge_normal = _rot90(direction / edge_length[:, None])
    centroids = corners.mean(axis=1)
    mid = 0.5 * (vertices[edge_v0] + vertices[edge_v1])
    outward = _dot(mid[tri_edges] - centroids[:, None], edge_normal[tri_edges])
    side_sign = np.where(outward > 0.0, 1, -1)

    # Classify boundary primal edges and make their normals point outward.
    ntris = np.bincount(tri_edges.ravel(), minlength=len(edge_v0))
    edge_kind = np.where(edge_v1 >= nv, DUAL,
                         np.where(ntris == 1, PRIMAL_BOUNDARY, PRIMAL_INTERIOR))
    boundary = edge_kind[tri_edges] == PRIMAL_BOUNDARY
    edge_normal[tri_edges[boundary & (side_sign < 0)]] *= -1.0
    side_sign[boundary] = 1

    out = StaggeredMesh(
        primal=mesh,
        vertices=vertices,
        triangles=triangles,
        tri_poly=tri_poly,
        tri_area=tri_area,
        tri_edges=tri_edges,
        side_sign=side_sign,
        edge_v0=edge_v0,
        edge_v1=edge_v1,
        edge_kind=edge_kind,
        edge_normal=edge_normal,
        edge_tangent=_rot90(edge_normal),
        edge_length=edge_length,
        h=float(np.linalg.norm(sides, axis=-1).max()),  # the largest triangle side
    )
    out.validate()
    return out
