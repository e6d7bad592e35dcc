"""Staggered finite element spaces on the simplicial submesh.

Three global spaces are built over the same submesh, each continuous in a
different trace component:

* W: matrix-valued P^k fields whose normal trace is continuous across
  interior primal edges and whose tangential normal trace is continuous
  across dual edges (the velocity-gradient space, with the facet unknown
  already eliminated);
* U: vector-valued P^k fields with continuous normal component across
  dual edges (the velocity space);
* P: scalar P^k fields continuous across interior primal edges (the
  pressure space; the zero-mean condition is imposed at solve time).

The edge functionals of each space are declared once, in `FUNCTIONALS`;
the dual bases apply them to the modal traces, `interpolate` to a callable.
Each space is one record (`Space`): an integer DOF layout (edge moments
first, at per-edge offsets, then the cell moments as one contiguous range;
each triangle's row of `cell_dofs` in the column ranges `primal`, `dual`
and `cell`, which is all the solver reads of it) and, per class of
triangles (below), a dual basis in the orthonormal modal basis
(`dual_coeffs`). The forms, the loads and a field's broken modal
coefficients are built from these two arrays.

Triangles are sorted into classes whose inputs to the local builders are
equal byte for byte: the Jacobian, `side_flip` and `mesh.side_sign`, and the
length and normal of each side's edge (one `np.unique` over the raw bytes of
these rows, classes numbered by their first triangle, `tri_class` and
`class_tris`). The other edge inputs follow from these: the tangent is the
normal turned by 90 degrees, and side 0 is the primal side, 1 and 2 dual.
Uniform grids repeat a few triangles (6 classes on a square grid at any h),
so the dual bases, here, and the element stacks and stage-1 eliminations, in
`forms` and `solver`, are computed and stored once per class, from the
inputs of its first triangle (`by_class`). Their readers take the rows of
the triangles at hand (`gather`), bit for bit what the per-triangle
computation gives; the solver gathers one batch of triangles at a time.
Where every triangle is its own class, as on distorted grids, both are the
identity and copy nothing.

The dual basis inverts each triangle's local DOF matrix in the modal basis
of `polybasis` (numpy only). Each cell moment is detJ times one modal
coefficient of degree below k, so the matrix is block triangular once its
columns are split into these low modes and the rest: only the square block
of the edge moments on the remaining modes is inverted, with (k+1) times
the frame rows of its three sides: 4(k+1), 2(k+1) and k+1 rows for W, U
and P.

Edge traces come from reference tables: the affine map of a submesh
triangle [a, b, nu] sends its sides (a, b), (b, nu), (nu, a) onto the three
reference edges, so its trace on side s, at edge-rule points running from
the edge's v0 to v1, is entry [s, side_flip[t, s]] of `form_traces` (exact
form integrals) or `data_traces` (non-polynomial data). Edge moments and
the edge terms of the forms and norms are all built from these tables and
the mesh's edge arrays. The forms need only each triangle's own trace on
its three sides: its jump sign `mesh.side_sign[t, s]` and `side_products`,
the three reference products of a side trace with itself; no pair of
triangles is formed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import StaggeredMesh, _first_appearance
from .polybasis import (
    edge_basis,
    edge_quadrature,
    tri_basis,
    tri_dim,
    tri_quadrature,
)

COND_WARN = 1e6
COND_LIMIT = 1e8
DATA_QUAD_DEGREE = 12  # quadrature of non-polynomial data: loads, interpolation, errors


class SpaceError(RuntimeError):
    """Local DOF system failure (singular or badly conditioned)."""


# Per space: the shape of a value, then the frame of its primal edges and of
# its dual edges (None: no DOF). A frame (n, t) -> (..., r, *shape) holds the
# r rows taking a value to the traces whose moments against the Legendre
# polynomials P_0..P_k are the DOFs of an edge of unit normal n, tangent t.
FUNCTIONALS = {
    "W": ((2, 2), lambda n, t: np.einsum("ca,...b->...cab", np.eye(2), n),  # G n
          lambda n, t: t[..., None, :, None] * n[..., None, None, :]),  # t . G n
    "U": ((2,), None, lambda n, t: n[..., None, :]),  # v . n
    "P": ((), lambda n, t: np.ones(n.shape[:-1] + (1,)), None),  # q
}


def frame_rows(tag: str, primal: bool, n: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The frame of space `tag` on primal or dual edges of unit normal n and
    tangent t (..., 2), values flattened: (..., r, size of a value)."""
    shape, *frames = FUNCTIONALS[tag]
    frame = frames[0 if primal else 1]
    rows = frame(n, t) if frame else np.zeros(n.shape[:-1] + (0,) + shape)
    return rows.reshape(rows.shape[:n.ndim] + (math.prod(shape),))


@dataclass
class Space:
    """One staggered space: its DOF layout and its local dual bases.

    Edge e owns the DOFs from edge_offsets[e] on (-1 where none), k+1 per
    frame row of its kind; the cell DOFs follow, in triangle order. Row t of
    cell_dofs lists triangle t's DOFs in the column ranges `primal`, `dual`
    (its two dual sides in turn) and `cell`; `edges` is the first two.
    """

    tag: str
    shape: tuple[int, ...]  # of a value: () for P, (2,) for U, (2, 2) for W
    ndof: int
    cell_dofs: np.ndarray  # (nT, nloc) global ids in local functional order
    edge_offsets: np.ndarray  # (nE,) first DOF of each edge, -1 where none
    num_edge_dofs: int
    primal: slice
    dual: slice
    cell: slice
    dual_coeffs: np.ndarray  # (nC, nloc, nloc), one per class of triangles
    conds: np.ndarray  # (nT,) 1-norm condition numbers of the local DOF matrices

    @property
    def edges(self) -> slice:
        return slice(0, self.cell.start)

    @property
    def per_primal(self) -> int:
        """DOFs of a primal edge, the columns of the primal side."""
        return self.primal.stop

    def shaped(self, vals: np.ndarray) -> np.ndarray:
        """Values (size, npts, ...) of a field as (npts, *shape, ...)."""
        return np.moveaxis(vals, 0, 1).reshape(vals.shape[1], *self.shape, *vals.shape[2:])


@dataclass
class DiscreteField:
    tag: str
    coeffs: np.ndarray


class StaggeredSpaces:
    """All three staggered spaces plus shared geometry/quadrature tables."""

    def __init__(self, mesh: StaggeredMesh, k: int):
        if not 1 <= k <= 3:
            raise ValueError(f"supported polynomial orders are 1..3, got {k}")
        self.mesh = mesh
        self.k = k
        self.nk = tri_dim(k)
        self.nk1 = tri_dim(k - 1)
        self.basis = tri_basis(k)
        self.edge_basis = edge_basis(k)

        self._build_geometry()
        self._build_edge_tables()
        self._classify_triangles()
        self.W, self.U, self.P = map(self._build_space, "WUP")

    # -- geometry and quadrature tables ---------------------------------

    def _build_geometry(self) -> None:
        # Affine maps sending the reference vertices (0,0), (1,0), (0,1) to the
        # triangle's vertices; the Jacobian's columns are its edge vectors.
        v = self.mesh.vertices[self.mesh.triangles]
        self.origin = v[:, 0]
        self.jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
        (a, b), (c, d) = self.jac[:, 0].T, self.jac[:, 1].T
        self.detJ = a * d - b * c
        if (self.detJ <= 0.0).any():
            t = int(np.argmax(self.detJ <= 0.0))
            raise ValueError(f"triangle {t} has non-positive orientation")
        self.invJT = np.stack([np.stack([d, -c], axis=1), np.stack([-b, a], axis=1)],
                              axis=1) / self.detJ[:, None, None]

        self.form_quad = tri_quadrature(2 * self.k + 2)
        self.vol_vals = self.basis.eval(self.form_quad.points)  # (nk, nq)
        self.vol_grads = self.basis.grad(self.form_quad.points)  # (nk, nq, 2)
        # Reference derivative Gram blocks: int m_i d_r m_j and int m_i d_s m_j.
        w = self.form_quad.weights
        self.ref_dr = (self.vol_vals * w) @ self.vol_grads[:, :, 0].T
        self.ref_ds = (self.vol_vals * w) @ self.vol_grads[:, :, 1].T

        self.data_quad = tri_quadrature(DATA_QUAD_DEGREE)
        self.data_vals = self.basis.eval(self.data_quad.points)
        self.data_grads = self.basis.grad(self.data_quad.points)
        self.data_edge_quad = edge_quadrature(DATA_QUAD_DEGREE)

    def _build_edge_tables(self) -> None:
        mesh = self.mesh
        # Local side s of triangle [a, b, nu] starts at its vertex s; the side
        # is flipped when that vertex is not the edge's v0.
        self.side_flip = (mesh.triangles != mesh.edge_v0[mesh.tri_edges]).astype(int)

        self.form_edge_quad = edge_quadrature(2 * self.k + 2)
        self.form_traces = self._reference_traces(self.form_edge_quad)
        self.data_traces = self._reference_traces(self.data_edge_quad)
        # side_products[s] = int over reference side s of T T^T per unit
        # half-length; the symmetric edge rule makes it the same in both
        # directions, so the unflipped traces of `form_traces` suffice.
        T = self.form_traces[:, 0]
        self.side_products = (T * self.form_edge_quad.weights) @ np.swapaxes(T, 1, 2)
        # ref_moments[s, f, m, i] = int over reference side (s, f) of L_m * modal_i
        # per unit half-length; side_moments[t, s] scales it to side s of triangle t.
        leg = self.edge_basis.eval(self.form_edge_quad.points)
        ref_moments = (leg * self.form_edge_quad.weights) @ np.swapaxes(self.form_traces, -1, -2)
        half = mesh.edge_length[mesh.tri_edges] / 2.0
        self.side_moments = half[:, :, None, None] * ref_moments[np.arange(3), self.side_flip]

    def _classify_triangles(self) -> None:
        # One row of every per-triangle input of the local builders (the
        # integer ones cast exactly to float), compared as raw bytes: rounded
        # keys could merge triangles whose inputs differ, and 0.0 and -0.0
        # fall in different classes. Classes are numbered by first occurrence,
        # so that each is named by its lowest triangle and the identity
        # numbering needs no gather.
        mesh, te, nT = self.mesh, self.mesh.tri_edges, self.mesh.num_triangles
        key = np.hstack([self.jac.reshape(nT, -1), self.side_flip, mesh.side_sign,
                         mesh.edge_length[te], mesh.edge_normal[te].reshape(nT, -1)])
        rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))[:, 0]
        self.class_tris, self.tri_class = _first_appearance(rows)

    @property
    def num_classes(self) -> int:
        return len(self.class_tris)

    def by_class(self, x: np.ndarray) -> np.ndarray:
        """Rows of the per-triangle array x at each class's first triangle;
        x itself where every triangle is its own class."""
        return x if self.num_classes == len(self.tri_class) else x[self.class_tris]

    def gather(self, x: np.ndarray, tris=slice(None)) -> np.ndarray:
        """Rows of the per-class array x at triangles `tris`, a slice or an
        index array: x[tri_class[tris]]. Where every triangle is its own
        class it is x[tris], which copies nothing for a slice."""
        return x[tris] if self.num_classes == len(self.tri_class) else x[self.tri_class[tris]]

    def _reference_traces(self, rule) -> np.ndarray:
        """T[s, f, i, q]: modal function i at point q of reference side s, read
        from its start vertex (f=0) or from its end vertex (f=1)."""
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        start = np.stack([corners, np.roll(corners, -1, axis=0)], axis=1)  # (s, f, xy)
        end = start[:, ::-1]
        frac = ((rule.points + 1.0) / 2.0)[:, None]
        pts = start[:, :, None] + frac * (end - start)[:, :, None]  # (s, f, q, xy)
        vals = self.basis.eval(pts.reshape(-1, 2)).reshape(self.nk, 3, 2, len(frac))
        return np.ascontiguousarray(vals.transpose(1, 2, 0, 3))

    def physical(self, ref: np.ndarray) -> np.ndarray:
        """Reference points ref (n, 2) mapped to every triangle, shape (nT, n, 2)."""
        return ref @ np.swapaxes(self.jac, 1, 2) + self.origin[:, None, :]

    def data_points(self) -> np.ndarray:
        """Data-quadrature points on all triangles, shape (nT, nq, 2)."""
        return self.physical(self.data_quad.points)

    def data_edge_points(self) -> np.ndarray:
        """Data edge-rule points on all edges, from v0 to v1, shape (nE, nq, 2)."""
        mesh, frac = self.mesh, (self.data_edge_quad.points + 1.0) / 2.0
        lo, hi = mesh.vertices[mesh.edge_v0], mesh.vertices[mesh.edge_v1]
        return lo[:, None] + frac[:, None] * (hi - lo)[:, None]

    # -- space construction ---------------------------------------------

    def _build_space(self, tag: str) -> Space:
        """Number one space's DOFs and invert its local DOF matrices.

        The edge rows (nC, nedge, size*nk) of each class are the space's
        frames applied to `side_moments`: its primal side, then each dual
        side, rows (moment, frame row), columns (component, modal function).
        The size*nk1 cell moments follow, ordered (j, component), with
        component c of modal function j.
        """
        mesh, nk, nk1, nT = self.mesh, self.nk, self.nk1, self.mesh.num_triangles
        te = self.by_class(mesh.tri_edges)
        n, t, EM = mesh.edge_normal[te], mesh.edge_tangent[te], self.by_class(self.side_moments)
        # Side 0 is the primal side, 1 and 2 the dual ones.
        frames = [frame_rows(tag, s == 0, n[:, s], t[:, s]) for s in range(3)]
        size = frames[0].shape[-1]
        edge_rows = np.concatenate([(F[:, None, :, :, None] * EM[:, s, :, None, None, :])
                                    .reshape(len(te), -1, size * nk)
                                    for s, F in enumerate(frames)], axis=1)
        per_side = [EM.shape[2] * F.shape[1] for F in frames]  # k+1 per frame row
        counts = np.where(mesh.edge_primal, per_side[0], per_side[1])
        offsets = np.where(counts > 0, np.cumsum(counts) - counts, -1)
        num_edge = int(counts.sum())
        per_cell = size * nk1
        ndof = num_edge + nT * per_cell
        cols = [offsets[mesh.tri_edges[:, s], None] + np.arange(m) for s, m in enumerate(per_side)]
        cols.append(num_edge + np.arange(nT * per_cell).reshape(nT, per_cell))
        cell_dofs = np.hstack(cols)

        # Cell moment r = (j, c) reads detJ times modal coefficient low[r], so
        # with the columns split into these low modes and the remaining high
        # ones, V = [[E_l, E_h], [detJ I, 0]] and only the edge block E_h
        # needs inverting: V^-1 = [[0, I/detJ], [E_h^-1, -E_h^-1 E_l/detJ]].
        (nC, nedge, nloc), detJ = edge_rows.shape, self.by_class(self.detJ)
        j, c = np.divmod(np.arange(per_cell), size)
        low, cell = c * nk + j, nedge + np.arange(per_cell)
        high = np.setdiff1d(np.arange(nloc), low)
        try:
            inv_h = np.linalg.inv(edge_rows[:, :, high])
        except np.linalg.LinAlgError:
            # cond(V) >= cond(E_h), so the check below names the triangle.
            vmats = np.zeros((nC, nloc, nloc))
            vmats[:, :nedge] = edge_rows
            vmats[:, cell, low] = detJ[:, None]
            conds = np.linalg.cond(vmats, 1)  # infinite where a matrix is singular
        else:
            dual = np.zeros((nC, nloc, nloc))
            dual[:, low, cell] = 1.0 / detJ[:, None]
            dual[:, high, :nedge] = inv_h
            dual[:, high, nedge:] = -(inv_h @ edge_rows[:, :, low]) / detJ[:, None, None]
            # 1-norm condition numbers, within a factor nloc of the 2-norm ones,
            # from absolute column sums: V's are those of edge_rows plus detJ
            # on the low columns.
            colsum = np.abs(edge_rows).sum(axis=1)
            colsum[:, low] += detJ[:, None]
            conds = colsum.max(axis=1) * np.abs(dual).sum(axis=1).max(axis=1)
        conds = self.gather(conds)
        bad = ~np.isfinite(conds) | (conds > COND_LIMIT)
        if bad.any():
            t = int(np.argmax(bad))
            raise SpaceError(
                f"space {tag}: local DOF system on triangle {t} is singular or "
                f"badly conditioned (cond={conds[t]:.3g})"
            )
        worst = float(conds.max())
        if worst > COND_WARN:
            warnings.warn(
                f"space {tag}: worst local DOF condition number {worst:.3g}",
                stacklevel=3,
            )
        sides = per_side[0], sum(per_side)  # where the dual sides and the cell start
        return Space(tag, FUNCTIONALS[tag][0], ndof, cell_dofs, offsets, num_edge,
                     slice(0, sides[0]), slice(*sides), slice(sides[1], None), dual, conds)

    # -- access helpers --------------------------------------------------

    def space(self, tag: str) -> Space:
        try:
            return {"W": self.W, "U": self.U, "P": self.P}[tag]
        except KeyError:
            raise ValueError(f"unknown space tag {tag!r}") from None

    def broken(self, field: DiscreteField) -> np.ndarray:
        """Per-triangle modal coefficients, shape (nT, size of a value, nk)."""
        s = self.space(field.tag)
        local = np.asarray(field.coeffs, dtype=float)[s.cell_dofs]
        return np.einsum("tij,tj->ti", self.gather(s.dual_coeffs),
                         local).reshape(len(local), -1, self.nk)

    def eval_field(self, field: DiscreteField, tri: int, points):
        """Evaluate a field at physical points inside triangle `tri`.

        Returns values shaped (npts, *shape) for the space's value shape.
        """
        s = self.space(field.tag)
        local = np.asarray(field.coeffs, dtype=float)[s.cell_dofs[tri]]
        coeffs = (self.gather(s.dual_coeffs, tri) @ local).reshape(-1, self.nk)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ref = (pts - self.origin[tri]) @ self.invJT[tri]
        return s.shaped(coeffs @ self.basis.eval(ref))

    # -- interpolation by direct DOF evaluation --------------------------

    def interpolate(self, tag: str, fn) -> DiscreteField:
        """Interpolate a callable by applying the space's DOF functionals.

        `fn(points)` takes (npts, 2) physical points and returns values
        shaped (npts, *shape): (npts,) for P, (npts, 2) for U, (npts, 2, 2)
        for W.
        """
        s, mesh = self.space(tag), self.mesh
        coeffs = np.empty(s.ndof)

        # Edge moments of the framed traces against the Legendre polynomials,
        # one edge kind at a time.
        X = self.data_edge_points()
        leg = self.edge_basis.eval(self.data_edge_quad.points) * self.data_edge_quad.weights
        for primal in (True, False):
            eids = np.flatnonzero(mesh.edge_primal == primal)
            rows = frame_rows(tag, primal, mesh.edge_normal[eids], mesh.edge_tangent[eids])
            if not rows.shape[1]:
                continue
            vals = np.asarray(fn(X[eids].reshape(-1, 2))).reshape(len(eids), X.shape[1], -1)
            traces = np.einsum("erc,eqc->eqr", rows, vals)
            half = mesh.edge_length[eids] / 2.0
            mom = half[:, None, None] * np.einsum("mq,eqr->emr", leg, traces)
            coeffs[s.edge_offsets[eids, None] + np.arange(mom[0].size)] = mom.reshape(len(eids), -1)

        # Cell moments of each component against the P^{k-1} modal functions.
        X = self.data_points()
        nT, nq, _ = X.shape
        vals = np.asarray(fn(X.reshape(-1, 2))).reshape(nT, nq, -1)
        w_vals = self.data_vals[:self.nk1] * self.data_quad.weights
        cell = self.detJ[:, None, None] * np.einsum("jq,tqc->tjc", w_vals, vals)
        coeffs[s.num_edge_dofs:] = cell.ravel()
        return DiscreteField(tag, coeffs)
