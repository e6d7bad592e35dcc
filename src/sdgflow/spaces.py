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

Each space is represented by a DOF map (shared edge moments plus cell
moments) and, per triangle, a dual basis expressed in the orthonormal
modal basis. The sparse embedding matrix maps global coefficients to
broken per-triangle modal coefficients; every assembly and evaluation
goes through it.

Edge traces come from reference tables: the affine map of a submesh
triangle [a, b, nu] sends its sides (a, b), (b, nu), (nu, a) onto the three
reference edges, so its trace on side s, at edge-rule points running from
the edge's v0 to v1, is entry [s, side_flip[t, s]] of `form_traces` (exact
form integrals) or `data_traces` (non-polynomial data). Edge moments and
the edge terms of the forms and norms are all built from these tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import StaggeredMesh
from .polybasis import (
    affine_map,
    edge_basis,
    edge_quadrature,
    tri_basis,
    tri_dim,
    tri_quadrature,
)

W_COMPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1))

COND_WARN = 1e6
COND_LIMIT = 1e8


class SpaceError(RuntimeError):
    """Local DOF system failure (singular or badly conditioned)."""


@dataclass
class DofMap:
    tag: str
    k: int
    ndof: int
    cell_dofs: np.ndarray  # (nT, nloc) global ids in local functional order
    descriptors: list  # per global dof: ("edge", eid, m, comp) or ("cell", t, j, slot)


@dataclass
class DiscreteField:
    tag: str
    coeffs: np.ndarray


@dataclass
class LocalDualBasis:
    tag: str
    tri: int
    coeffs: np.ndarray  # (nloc, nloc): column l = modal coefficients of dual function l
    cond: float


class _Space:
    def __init__(self, dofmap: DofMap, embedding: sp.csr_matrix, dual_coeffs: np.ndarray,
                 conds: np.ndarray, ncomp: int):
        self.dofmap = dofmap
        self.embedding = embedding  # (nT*ncomp*nk, ndof)
        self.dual_coeffs = dual_coeffs  # (nT, nloc, nloc)
        self.conds = conds
        self.ncomp = ncomp

    @property
    def ndof(self) -> int:
        return self.dofmap.ndof


class StaggeredSpaces:
    """All three staggered spaces plus shared geometry/quadrature tables.

    `quad_degree` is the quadrature degree for non-polynomial data (right-hand
    side, interpolation, errors); None picks max(2k+6, 12).
    """

    def __init__(self, mesh: StaggeredMesh, k: int, quad_degree: int | None = None):
        if not 0 <= k <= 3:
            raise ValueError("supported polynomial orders are 0..3 (k=0 experimental)")
        self.mesh = mesh
        self.k = k
        self.nk = tri_dim(k)
        self.nk1 = tri_dim(k - 1) if k >= 1 else 0
        self.basis = tri_basis(k)
        self.edge_basis = edge_basis(k)
        self.quad_degree = max(2 * k + 6, 12) if quad_degree is None else quad_degree

        self._build_geometry()
        self._build_edge_tables()
        self.W = self._build_space_W()
        self.U = self._build_space_U()
        self.P = self._build_space_P()

    # -- geometry and quadrature tables ---------------------------------

    def _build_geometry(self) -> None:
        mesh = self.mesh
        nT = mesh.num_triangles
        self.origin = np.empty((nT, 2))
        self.jac = np.empty((nT, 2, 2))
        self.detJ = np.empty(nT)
        self.invJT = np.empty((nT, 2, 2))
        for t in range(nT):
            amap = affine_map(mesh.tri_coords(t))
            self.origin[t] = amap.origin
            self.jac[t] = amap.jac
            self.detJ[t] = amap.det
            self.invJT[t] = amap.inv_jac_t

        self.form_quad = tri_quadrature(max(2 * self.k + 2, 2))
        self.vol_vals = self.basis.eval(self.form_quad.points)  # (nk, nq)
        self.vol_grads = self.basis.grad(self.form_quad.points)  # (nk, nq, 2)
        # Reference derivative Gram blocks: int m_i d_r m_j and int m_i d_s m_j.
        w = self.form_quad.weights
        self.ref_dr = (self.vol_vals * w) @ self.vol_grads[:, :, 0].T
        self.ref_ds = (self.vol_vals * w) @ self.vol_grads[:, :, 1].T

        deg = min(self.quad_degree, 20)
        self.data_quad = tri_quadrature(deg)
        self.data_vals = self.basis.eval(self.data_quad.points)
        self.data_grads = self.basis.grad(self.data_quad.points)
        self.data_edge_quad = edge_quadrature(deg)

    def _build_edge_tables(self) -> None:
        mesh = self.mesh
        # Local side s of triangle [a, b, nu] starts at its vertex s; the side
        # is flipped when that vertex is not the edge's v0.
        v0 = np.array([e.v0 for e in mesh.edges])
        self.side_flip = (mesh.triangles != v0[mesh.tri_edges]).astype(int)
        # Local side of each edge in each adjacent triangle, aligned with edge.tris.
        rows = mesh.tri_edges.tolist()
        self.edge_sides = [[rows[t].index(eid) for t, _ in e.tris]
                           for eid, e in enumerate(mesh.edges)]

        self.form_edge_quad = edge_quadrature(max(2 * self.k + 2, 2))
        self.form_traces = self._reference_traces(self.form_edge_quad)
        self.data_traces = self._reference_traces(self.data_edge_quad)
        # ref_moments[s, f, m, i] = int over reference side (s, f) of L_m * modal_i
        # per unit half-length; side_moments[t, s] scales it to side s of triangle t.
        leg = self.edge_basis.eval(self.form_edge_quad.points)
        ref_moments = (leg * self.form_edge_quad.weights) @ np.swapaxes(self.form_traces, -1, -2)
        half = np.array([e.length / 2.0 for e in mesh.edges])[mesh.tri_edges]
        self.side_moments = half[:, :, None, None] * ref_moments[np.arange(3), self.side_flip]

    def _reference_traces(self, rule) -> np.ndarray:
        """T[s, f, i, q]: modal function i at point q of reference side s, read
        from its start vertex (f=0) or from its end vertex (f=1)."""
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        frac = (rule.points + 1.0) / 2.0
        table = np.empty((3, 2, self.nk, len(frac)))
        for s in range(3):
            start, end = corners[s], corners[(s + 1) % 3]
            table[s, 0] = self.basis.eval(start + np.outer(frac, end - start))
            table[s, 1] = self.basis.eval(end + np.outer(frac, start - end))
        return table

    def side_traces(self, eid: int, table: np.ndarray) -> list[np.ndarray]:
        """Traces (nk, nq) from `table` of the triangles of edge `eid`, in edge.tris order."""
        tris = self.mesh.edges[eid].tris
        return [table[s, self.side_flip[t, s]] for (t, _), s in zip(tris, self.edge_sides[eid])]

    # -- space construction ---------------------------------------------

    def _number_edge_dofs(self, per_primal: int, per_dual: int):
        offsets = np.full(len(self.mesh.edges), -1, dtype=int)
        descriptors: list = []
        base = 0
        for eid, e in enumerate(self.mesh.edges):
            count = per_primal if e.is_primal else per_dual
            if count:
                offsets[eid] = base
                base += count
        return offsets, base, descriptors

    def _finalize_space(self, tag: str, ncomp: int, cell_dofs: np.ndarray,
                        descriptors: list, ndof: int,
                        vmats: np.ndarray) -> _Space:
        nT, nloc = cell_dofs.shape
        conds = np.linalg.cond(vmats)
        bad = ~np.isfinite(conds) | (conds > COND_LIMIT)
        if bad.any():
            t = int(np.argmax(bad))
            raise SpaceError(
                f"space {tag}: local DOF system on triangle {t} is singular or "
                f"badly conditioned (cond={conds[t]:.3g})"
            )
        dual = np.linalg.inv(vmats)
        worst = float(conds.max())
        if worst > COND_WARN:
            warnings.warn(
                f"space {tag}: worst local DOF condition number {worst:.3g}",
                stacklevel=3,
            )
        # Row t*block + i of the embedding holds row i of triangle t's dual basis.
        block = ncomp * self.nk
        rows = np.repeat(np.arange(nT)[:, None] * block + np.arange(nloc), nloc, axis=1)
        cols = np.tile(cell_dofs, (1, nloc))
        E = sp.csr_matrix(
            (dual.ravel(), (rows.ravel(), cols.ravel())), shape=(nT * block, ndof)
        )
        dofmap = DofMap(tag, self.k, ndof, cell_dofs, descriptors)
        return _Space(dofmap, E, dual, conds, ncomp)

    def _build_space_W(self) -> _Space:
        mesh, k, nk, nk1 = self.mesh, self.k, self.nk, self.nk1
        nT = mesh.num_triangles
        per_primal = 2 * (k + 1)
        per_dual = k + 1
        per_cell = 4 * nk1
        offsets, edge_total, descriptors = self._number_edge_dofs(per_primal, per_dual)
        for eid, e in enumerate(mesh.edges):
            if e.is_primal:
                for m in range(k + 1):
                    for c in range(2):
                        descriptors.append(("edge", eid, m, ("x", "y")[c]))
            else:
                for m in range(k + 1):
                    descriptors.append(("edge", eid, m, "t"))
        for t in range(nT):
            for j in range(nk1):
                for comp in W_COMPONENTS:
                    descriptors.append(("cell", t, j, comp))
        ndof = edge_total + nT * per_cell

        nloc = 4 * nk
        cell_dofs = np.empty((nT, nloc), dtype=int)
        vmats = np.zeros((nT, nloc, nloc))
        for t in range(nT):
            row = 0
            gdofs = []
            e_prim, e_d1, e_d2 = mesh.tri_edges[t]
            # Primal edge: full vector moments of G n.
            e = mesh.edges[e_prim]
            EM = self.side_moments[t, 0]
            for m in range(k + 1):
                for c in range(2):
                    for (a, b) in W_COMPONENTS:
                        if a == c:
                            vmats[t, row, (2 * a + b) * nk: (2 * a + b + 1) * nk] = (
                                e.normal[b] * EM[m]
                            )
                    gdofs.append(offsets[e_prim] + 2 * m + c)
                    row += 1
            # Dual edges: tangential moments of G n.
            for side, eid in ((1, e_d1), (2, e_d2)):
                e = mesh.edges[eid]
                EM = self.side_moments[t, side]
                for m in range(k + 1):
                    for (a, b) in W_COMPONENTS:
                        vmats[t, row, (2 * a + b) * nk: (2 * a + b + 1) * nk] = (
                            e.tangent[a] * e.normal[b] * EM[m]
                        )
                    gdofs.append(offsets[eid] + m)
                    row += 1
            # Interior tensor moments against P^{k-1}.
            cell_base = edge_total + t * per_cell
            for j in range(nk1):
                for ci, (a, b) in enumerate(W_COMPONENTS):
                    col = (2 * a + b) * nk + j
                    vmats[t, row, col] = self.detJ[t]
                    gdofs.append(cell_base + 4 * j + ci)
                    row += 1
            cell_dofs[t] = gdofs
        return self._finalize_space("W", 4, cell_dofs, descriptors, ndof, vmats)

    def _build_space_U(self) -> _Space:
        mesh, k, nk, nk1 = self.mesh, self.k, self.nk, self.nk1
        nT = mesh.num_triangles
        per_dual = k + 1
        per_cell = 2 * nk1
        offsets, edge_total, descriptors = self._number_edge_dofs(0, per_dual)
        for eid, e in enumerate(mesh.edges):
            if not e.is_primal:
                for m in range(k + 1):
                    descriptors.append(("edge", eid, m, "n"))
        for t in range(nT):
            for j in range(nk1):
                for c in range(2):
                    descriptors.append(("cell", t, j, ("x", "y")[c]))
        ndof = edge_total + nT * per_cell

        nloc = 2 * nk
        cell_dofs = np.empty((nT, nloc), dtype=int)
        vmats = np.zeros((nT, nloc, nloc))
        for t in range(nT):
            row = 0
            gdofs = []
            _e_prim, e_d1, e_d2 = mesh.tri_edges[t]
            for side, eid in ((1, e_d1), (2, e_d2)):
                e = mesh.edges[eid]
                EM = self.side_moments[t, side]
                for m in range(k + 1):
                    for a in range(2):
                        vmats[t, row, a * nk: (a + 1) * nk] = e.normal[a] * EM[m]
                    gdofs.append(offsets[eid] + m)
                    row += 1
            cell_base = edge_total + t * per_cell
            for j in range(nk1):
                for a in range(2):
                    vmats[t, row, a * nk + j] = self.detJ[t]
                    gdofs.append(cell_base + 2 * j + a)
                    row += 1
            cell_dofs[t] = gdofs
        return self._finalize_space("U", 2, cell_dofs, descriptors, ndof, vmats)

    def _build_space_P(self) -> _Space:
        mesh, k, nk, nk1 = self.mesh, self.k, self.nk, self.nk1
        nT = mesh.num_triangles
        per_primal = k + 1
        per_cell = nk1
        offsets, edge_total, descriptors = self._number_edge_dofs(per_primal, 0)
        for eid, e in enumerate(mesh.edges):
            if e.is_primal:
                for m in range(k + 1):
                    descriptors.append(("edge", eid, m, "s"))
        for t in range(nT):
            for j in range(nk1):
                descriptors.append(("cell", t, j, "s"))
        ndof = edge_total + nT * per_cell

        nloc = nk
        cell_dofs = np.empty((nT, nloc), dtype=int)
        vmats = np.zeros((nT, nloc, nloc))
        for t in range(nT):
            row = 0
            gdofs = []
            e_prim = mesh.tri_edges[t][0]
            EM = self.side_moments[t, 0]
            for m in range(k + 1):
                vmats[t, row] = EM[m]
                gdofs.append(offsets[e_prim] + m)
                row += 1
            cell_base = edge_total + t * per_cell
            for j in range(nk1):
                vmats[t, row, j] = self.detJ[t]
                gdofs.append(cell_base + j)
                row += 1
            cell_dofs[t] = gdofs
        return self._finalize_space("P", 1, cell_dofs, descriptors, ndof, vmats)

    # -- access helpers --------------------------------------------------

    def space(self, tag: str) -> _Space:
        try:
            return {"W": self.W, "U": self.U, "P": self.P}[tag]
        except KeyError:
            raise ValueError(f"unknown space tag {tag!r}") from None

    def local_dual_basis(self, tag: str, tri: int) -> LocalDualBasis:
        s = self.space(tag)
        return LocalDualBasis(tag, tri, s.dual_coeffs[tri].copy(), float(s.conds[tri]))

    def broken(self, field: DiscreteField) -> np.ndarray:
        """Per-triangle modal coefficients, shape (nT, ncomp, nk)."""
        s = self.space(field.tag)
        flat = s.embedding @ np.asarray(field.coeffs, dtype=float)
        return flat.reshape(self.mesh.num_triangles, s.ncomp, self.nk)

    def eval_field(self, field: DiscreteField, tri: int, points, gradients: bool = False):
        """Evaluate a field at physical points inside triangle `tri`.

        Returns values shaped (npts,), (npts, 2) or (npts, 2, 2) according
        to the space; with gradients=True also returns the gradient array
        with one extra trailing axis for the derivative direction.
        """
        coeffs = self.broken(field)[tri]
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
        mesh = self.mesh
        coeffs = np.zeros(s.ndof)
        xi, wq = self.data_edge_quad.points, self.data_edge_quad.weights
        leg = self.edge_basis.eval(xi)
        cell_cache: dict[int, np.ndarray] = {}
        for g, desc in enumerate(s.dofmap.descriptors):
            if desc[0] == "edge":
                _, eid, m, comp = desc
                e = mesh.edges[eid]
                lo, hi = mesh.vertices[e.v0], mesh.vertices[e.v1]
                pts = lo + np.outer((xi + 1.0) / 2.0, hi - lo)
                vals = np.asarray(fn(pts))
                if comp in ("x", "y"):
                    trace = vals[:, ("x", "y").index(comp), :] @ e.normal
                elif comp == "t":
                    trace = np.einsum("pab,b,a->p", vals, e.normal, e.tangent)
                elif comp == "n":
                    trace = vals @ e.normal
                else:
                    trace = vals
                coeffs[g] = float(np.sum(wq * leg[m] * trace) * e.length / 2.0)
            else:
                _, t, j, slot = desc
                if t not in cell_cache:
                    pts = self.data_quad.points @ self.jac[t].T + self.origin[t]
                    cell_cache[t] = np.asarray(fn(pts))
                vals = cell_cache[t]
                if slot == "s":
                    comp_vals = vals
                elif slot in ("x", "y"):
                    comp_vals = vals[:, ("x", "y").index(slot)]
                else:
                    comp_vals = vals[:, slot[0], slot[1]]
                coeffs[g] = float(
                    np.sum(self.data_quad.weights * self.data_vals[j] * comp_vals)
                    * self.detJ[t]
                )
        return DiscreteField(tag, coeffs)
