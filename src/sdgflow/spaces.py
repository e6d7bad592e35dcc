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

Each space is represented by an integer DOF layout (a DofMap: edge
moments first, at per-edge offsets, then the cell moments as one
contiguous range) and, per triangle, a dual basis expressed in the
orthonormal modal basis (`dual_coeffs`). Everything else is built from
these two per-triangle arrays: the forms and load vectors element by element,
and the broken per-triangle modal coefficients of a field as the dual basis
applied to its coefficients gathered through `cell_dofs`.

Triangles are sorted into classes whose inputs to the local builders are
equal byte for byte: the Jacobian, `side_flip` and `mesh.side_sign`, and the
length and normal of each side's edge (one `np.unique` over the raw bytes of
these rows, classes numbered by their first triangle, `tri_class` and
`class_tris`). The other edge inputs follow from these: the tangent is the
normal turned by 90 degrees, and side 0 is the primal side, 1 and 2 dual.
Uniform grids repeat a few triangles (6 classes on a square grid at any h),
so the dual bases, here, and the element stacks and stage-0 eliminations, in
`forms` and `solver`, are computed once per class (`by_class`) and spread to
every member (`by_triangle`), bit for bit what the per-triangle computation
gives. Where every triangle is its own class, as on distorted grids, both are
the identity and copy nothing.

The dual basis inverts each triangle's local DOF matrix in the modal basis
of `polybasis` (numpy only). Each cell moment is detJ times one modal
coefficient of degree below k, so the matrix is block triangular once its
columns are split into these low modes and the rest: only the square block
of the edge moments on the remaining modes is inverted, with 4(k+1),
2(k+1) and k+1 rows for W, U and P.

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


@dataclass
class DofMap:
    """Integer DOF layout of one space.

    Edge DOFs come first: edge e owns the range that starts at
    edge_offsets[e] (-1 where the space has no DOF on e). The cell DOFs
    follow as one contiguous range, per_cell per triangle in triangle order;
    they are the last per_cell entries of each row of cell_dofs.
    """

    tag: str
    k: int
    ndof: int
    cell_dofs: np.ndarray  # (nT, nloc) global ids in local functional order
    edge_offsets: np.ndarray  # (nE,) first DOF of each edge, -1 where none
    num_edge_dofs: int


@dataclass
class DiscreteField:
    tag: str
    coeffs: np.ndarray


class _Space:
    def __init__(self, dofmap: DofMap, dual_coeffs: np.ndarray, conds: np.ndarray, ncomp: int):
        self.dofmap = dofmap
        self.dual_coeffs = dual_coeffs  # (nT, nloc, nloc)
        self.conds = conds
        self.ncomp = ncomp

    @property
    def ndof(self) -> int:
        return self.dofmap.ndof


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
        self.W = self._build_space_W()
        self.U = self._build_space_U()
        self.P = self._build_space_P()

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

    def by_triangle(self, x: np.ndarray) -> np.ndarray:
        """Rows of the per-class array x spread to every triangle of each
        class; x itself where every triangle is its own class."""
        return x if self.num_classes == len(self.tri_class) else x[self.tri_class]

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

    # -- space construction ---------------------------------------------

    def _build_space(self, tag: str, ncomp: int, per_primal: int, per_dual: int,
                     edge_rows: np.ndarray) -> _Space:
        """Number one space's DOFs and invert its local DOF matrices.

        edge_rows (nC, nedge, ncomp*nk) holds each class's edge functionals
        in modal coefficients: per_primal rows for its primal side, then
        per_dual rows for each dual side. The ncomp*nk1 cell moments follow,
        ordered (j, component), with component c of modal function j.
        """
        mesh, nk, nk1 = self.mesh, self.nk, self.nk1
        nT = mesh.num_triangles
        counts = np.where(mesh.edge_primal, per_primal, per_dual)
        offsets = np.where(counts > 0, np.cumsum(counts) - counts, -1)
        num_edge = int(counts.sum())
        per_cell = ncomp * nk1
        ndof = num_edge + nT * per_cell
        cols = [offsets[mesh.tri_edges[:, s], None] + np.arange(n)
                for s, n in enumerate((per_primal, per_dual, per_dual)) if n]
        cols.append(num_edge + np.arange(nT * per_cell).reshape(nT, per_cell))
        cell_dofs = np.hstack(cols)

        # Cell moment r = (j, c) reads detJ times modal coefficient low[r], so
        # with the columns split into these low modes and the remaining high
        # ones, V = [[E_l, E_h], [detJ I, 0]] and only the edge block E_h
        # needs inverting: V^-1 = [[0, I/detJ], [E_h^-1, -E_h^-1 E_l/detJ]].
        (nC, nedge, nloc), detJ = edge_rows.shape, self.by_class(self.detJ)
        j, c = np.divmod(np.arange(per_cell), ncomp)
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
            dual = self.by_triangle(dual)
        conds = self.by_triangle(conds)
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
        dofmap = DofMap(tag, self.k, ndof, cell_dofs, offsets, num_edge)
        return _Space(dofmap, dual, conds, ncomp)

    def _build_space_W(self) -> _Space:
        k1, nC, te = self.k + 1, self.num_classes, self.by_class(self.mesh.tri_edges)
        EM = self.by_class(self.side_moments)
        n, tg = self.mesh.edge_normal[te], self.mesh.edge_tangent[te]
        # Primal side: both components c of G n, rows (m, c), cols (a, b, i).
        primal = np.einsum("ca,tb,tmi->tmcabi", np.eye(2), n[:, 0], EM[:, 0])
        # Dual sides: the tangential component t . G n, rows (side, m).
        frame = tg[:, 1:, :, None] * n[:, 1:, None, :]
        dual = frame[:, :, None, :, :, None] * EM[:, 1:, :, None, None, :]
        edge_rows = np.concatenate([primal.reshape(nC, 2 * k1, -1),
                                    dual.reshape(nC, 2 * k1, -1)], axis=1)
        return self._build_space("W", 4, 2 * k1, k1, edge_rows)

    def _build_space_U(self) -> _Space:
        k1, nC = self.k + 1, self.num_classes
        EM = self.by_class(self.side_moments)
        n = self.mesh.edge_normal[self.by_class(self.mesh.tri_edges)]
        # Dual sides: the normal component v . n, rows (side, m), cols (a, i).
        dual = n[:, 1:, None, :, None] * EM[:, 1:, :, None, :]
        return self._build_space("U", 2, 0, k1, dual.reshape(nC, 2 * k1, -1))

    def _build_space_P(self) -> _Space:
        k1 = self.k + 1
        return self._build_space("P", 1, k1, 0, self.by_class(self.side_moments)[:, 0])

    # -- access helpers --------------------------------------------------

    def space(self, tag: str) -> _Space:
        try:
            return {"W": self.W, "U": self.U, "P": self.P}[tag]
        except KeyError:
            raise ValueError(f"unknown space tag {tag!r}") from None

    def broken(self, field: DiscreteField) -> np.ndarray:
        """Per-triangle modal coefficients, shape (nT, ncomp, nk)."""
        s = self.space(field.tag)
        local = np.asarray(field.coeffs, dtype=float)[s.dofmap.cell_dofs]
        return np.einsum("tij,tj->ti", s.dual_coeffs, local).reshape(-1, s.ncomp, self.nk)

    def eval_field(self, field: DiscreteField, tri: int, points, gradients: bool = False):
        """Evaluate a field at physical points inside triangle `tri`.

        Returns values shaped (npts,), (npts, 2) or (npts, 2, 2) according
        to the space; with gradients=True also returns the gradient array
        with one extra trailing axis for the derivative direction.
        """
        s = self.space(field.tag)
        local = np.asarray(field.coeffs, dtype=float)[s.dofmap.cell_dofs[tri]]
        coeffs = (s.dual_coeffs[tri] @ local).reshape(s.ncomp, self.nk)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ref = (pts - self.origin[tri]) @ self.invJT[tri]
        vals = coeffs @ self.basis.eval(ref)  # (ncomp, npts)
        out = self._shape_values(field.tag, vals)
        if not gradients:
            return out
        ref_g = self.basis.grad(ref)  # (nk, npts, 2)
        phys_g = np.einsum("ab,npb->npa", self.invJT[tri], ref_g)
        grads = np.einsum("ck,kpa->cpa", coeffs, phys_g)
        return out, self._shape_values(field.tag, grads, extra=True)

    def _shape_values(self, tag: str, vals: np.ndarray, extra: bool = False):
        npts = vals.shape[1]
        trail = vals.shape[2:] if extra else ()
        if tag == "P":
            return vals[0]
        if tag == "U":
            return np.moveaxis(vals, 0, 1)
        return np.moveaxis(vals, 0, 1).reshape(npts, 2, 2, *trail)

    # -- interpolation by direct DOF evaluation --------------------------

    def interpolate(self, tag: str, fn) -> DiscreteField:
        """Interpolate a callable by applying the space's DOF functionals.

        `fn(points)` takes (npts, 2) physical points and returns values
        shaped (npts,) for P, (npts, 2) for U, (npts, 2, 2) for W.
        """
        s = self.space(tag)
        dm, mesh = s.dofmap, self.mesh
        k1 = self.k + 1
        coeffs = np.empty(s.ndof)

        # Edge moments against Legendre polynomials on every edge with DOFs.
        eids = np.flatnonzero(dm.edge_offsets >= 0)
        off, n = dm.edge_offsets[eids], mesh.edge_normal[eids]
        xi, wq = self.data_edge_quad.points, self.data_edge_quad.weights
        lo = mesh.vertices[mesh.edge_v0[eids]]
        hi = mesh.vertices[mesh.edge_v1[eids]]
        pts = lo[:, None] + ((xi + 1.0) / 2.0)[:, None] * (hi - lo)[:, None]
        vals = np.asarray(fn(pts.reshape(-1, 2))).reshape(len(eids), len(xi), -1)
        if tag == "P":
            traces = vals
        elif tag == "U":
            traces = np.einsum("eqa,ea->eq", vals, n)[..., None]
        else:
            traces = np.einsum("eqab,eb->eqa", vals.reshape(len(eids), len(xi), 2, 2), n)
        leg = self.edge_basis.eval(xi) * wq
        mom = (mesh.edge_length[eids] / 2.0)[:, None, None] * np.einsum("mq,eqr->emr", leg, traces)
        if tag == "W":
            # Primal edges carry both components of G n, dual edges t . G n.
            prim = mesh.edge_primal[eids]
            coeffs[off[prim, None] + np.arange(2 * k1)] = mom[prim].reshape(-1, 2 * k1)
            coeffs[off[~prim, None] + np.arange(k1)] = np.einsum(
                "emr,er->em", mom[~prim], mesh.edge_tangent[eids[~prim]])
        else:
            coeffs[off[:, None] + np.arange(k1)] = mom[..., 0]

        # Cell moments of each component against the P^{k-1} modal functions.
        X = self.data_points()
        nT, nq, _ = X.shape
        vals = np.asarray(fn(X.reshape(-1, 2))).reshape(nT, nq, s.ncomp)
        w_vals = self.data_vals[:self.nk1] * self.data_quad.weights
        cell = self.detJ[:, None, None] * np.einsum("jq,tqc->tjc", w_vals, vals)
        coeffs[dm.num_edge_dofs:] = cell.ravel()
        return DiscreteField(tag, coeffs)
