"""Monolithic saddle-point system for the three-field formulation.

Unknowns are stacked as (gradient coefficients, velocity coefficients,
pressure coefficients, mean multiplier). After negating the gradient and
divergence rows the global matrix is symmetric indefinite; a scalar
Lagrange multiplier enforces the zero-mean pressure condition without
breaking symmetry.

The solve condenses element by element in three stages. The gradient's cell
moments couple to each other only through the mass block, which does not
depend on the viscosity, so stage 0 eliminates them once per assembly:
per triangle, with i the W cell moments, o the W edge moments and u all U
moments, `assemble_blocks` stores M_ii^{-1} and the reduced stacks
M' = M_oo - M_oi M_ii^{-1} M_io, B' = B_uo - B_ui M_ii^{-1} M_io and
E = B_ui M_ii^{-1} B_ui^T (`GradientCells`). For each viscosity the solve
then runs one batch of polygons of one size at a time. Each triangle's
reduced local matrix [[-M', se B'^T], [se B', A + eps E]], bordered by D
and the multiplier (se = sqrt(eps)), has its cell U moments eliminated by a
batched dense solve (stage 1). The remainders are summed per polygon, and
each polygon's dual-edge W/U moments and cell P moments are eliminated by a
second batched solve (stage 2). A batch's local matrices stay within
BATCH_BYTES, and one work buffer per solve holds them and then the batch's
polygon matrices, so the only dense stacks the solve makes over the whole
mesh are the eliminations that refinement reads back. The local Schur
complements sum into the primal-edge skeleton: the W and P moments of every
primal edge and the multiplier, which SuperLU factorizes.

What depends only on the mesh and k is computed once per assembly, in a
CondensationPlan: the triangles of every polygon, one local layout per
polygon size (taken from its first polygon, checked on the others) with the
place of each triangle's unknowns in it, a fill-reducing order of the
skeleton taken from the mesh (minimum degree on the graph of primal edges
that share a polygon), with the multiplier last, and the skeleton's sparsity
pattern with the data slot of every local Schur entry. Only the primal-edge
moments couple two polygons, so that pattern is the same graph in the
skeleton order, each edge expanded into its 3(k+1) moments and bordered by
the multiplier; it and the slots are read off the graph with arithmetic and
one search per pair of a polygon's edges, with no sort of the entries. A new
viscosity redoes only stages 1 and 2 and the sparse LU. Iterative refinement
applies the saddle operator element by element from the original stacks, so
no global saddle matrix is formed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import forms
from .spaces import DiscreteField, StaggeredSpaces


class SolverError(RuntimeError):
    """Singular factorization; the discrete system should be uniquely solvable."""


@dataclass
class _SizeClass:
    """The polygons with one number of triangles; their local matrices share
    one size and one layout, interior unknowns first, then skeleton ones."""

    triangles: np.ndarray  # (count, m) triangles of each polygon, in increasing order
    position: np.ndarray  # (m, nr) places of each triangle's outer unknowns in the layout
    interior: np.ndarray  # (count, n2) stage-2 unknowns of each polygon
    kept: np.ndarray  # (count, nk) its skeleton unknowns, the multiplier last


@dataclass
class CondensationPlan:
    """Layout of the condensation; depends only on mesh and k.

    `triangle` and `polygon` give the owner of each saddle unknown in stages
    0 and 1 (a triangle's W and U cell moments) and in stage 2, -1 where that
    stage keeps it; the skeleton is what all keep. Each triangle's reduced
    local unknowns are its U cell moments, the num_inner that stage 1
    eliminates, then its W edge moments, U edge moments, P cell_dofs and the
    multiplier.
    """

    triangle: np.ndarray  # (n,)
    polygon: np.ndarray  # (n,)
    gradient: np.ndarray  # (nT, ni) W cell moments of each triangle: stage 0
    num_inner: int
    local: np.ndarray  # (nT, nloc) reduced unknowns of each triangle
    classes: list[_SizeClass]
    skeleton: np.ndarray  # (ns,) saddle unknowns in factorization order
    slots: np.ndarray  # data slot of every local Schur entry, classes in turn
    indices: np.ndarray  # CSC pattern of the skeleton matrix
    indptr: np.ndarray

    @property
    def size(self) -> int:
        """Number of eliminated unknowns."""
        return len(self.triangle) - len(self.skeleton)


def _owners(n: int, dofs: np.ndarray, owner: np.ndarray, what: str) -> np.ndarray:
    """Owner of every unknown that row i of dofs lists (owner[i]), -1 where
    none lists it. A polygon-local elimination is exact only if no unknown is
    listed by two owners."""
    out = np.full(n, -1)
    out[dofs] = owner[:, None]
    if np.any(out[dofs] != owner[:, None]):
        raise SolverError(f"interior unknowns couple across {what}s")
    return out


def _edge_order(mesh) -> tuple[np.ndarray, np.ndarray, sp.csc_matrix]:
    """Primal edges in a fill-reducing elimination order: SuperLU's minimum
    degree on the graph in which two primal edges are adjacent when they
    bound a common polygon (each node stands for the 3(k+1) skeleton moments
    of one edge), read from a diagonally dominant matrix with that graph.

    Returns the ordered edges, the place of every mesh edge in that order
    (-1 off the primal edges) and the graph renumbered by place, in CSC with
    sorted rows; it is symmetric, and every node is adjacent to itself."""
    prim = mesh.primal_edge_ids
    node = np.full(len(mesh.edge_kind), -1)
    node[prim] = np.arange(len(prim))
    inc = sp.csr_matrix((np.ones(mesh.num_triangles), (mesh.tri_poly, node[mesh.tri_edges[:, 0]])),
                        shape=(mesh.primal.num_polygons, len(prim)))
    graph = inc.T @ inc
    graph = (graph + sp.diags(np.asarray(graph.sum(axis=0)).ravel())).tocsc()
    rank = spla.splu(graph, permc_spec="MMD_AT_PLUS_A").perm_c
    order = np.argsort(rank)
    place = np.full(len(mesh.edge_kind), -1)
    place[prim] = rank
    graph = graph[order][:, order]
    graph.sort_indices()
    return prim[order], place, graph


def _skeleton_pattern(graph: sp.csc_matrix, k3: int) -> tuple[np.ndarray, np.ndarray]:
    """CSC pattern of the skeleton: the edge graph in skeleton order, each
    node expanded into the k3 moments of its edge, bordered by the
    multiplier. Column (a, s) lists the k3 rows of every edge adjacent to
    edge a, in order, then the multiplier; the multiplier's column lists all
    ns rows."""
    ne, gptr = graph.shape[0], graph.indptr
    ns = k3 * ne + 1
    deg = np.diff(gptr)
    counts = np.append(np.repeat(deg * k3 + 1, k3), ns)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    # A column is a sequence of runs of consecutive rows, one run of k3 per
    # adjacent edge and a last one of the multiplier's row, so `indices` is
    # the running sum of steps that are 1 except where a run begins. The
    # heads of the runs of edge a's columns, edge after edge:
    heads = np.insert(graph.indices * k3, gptr[1:], ns - 1)
    # Each run follows the one before it or, for a column's first, the
    # multiplier's row that ends the column before.
    steps = heads - np.minimum(np.roll(heads, 1) + k3 - 1, ns - 1)
    runs = np.repeat(deg + 1, k3)
    run = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)  # within its column
    head = np.repeat(np.repeat(gptr[:-1] + np.arange(ne), k3), runs) + run
    indices = np.ones(indptr[-1], dtype=np.int32)
    indices[np.repeat(indptr[:-2], runs) + k3 * run] = steps[head]
    indices[0] += ns - 1  # the first column starts from row 0
    indices[indptr[-2]] = 1 - ns  # the multiplier's column lists every row
    np.cumsum(indices, dtype=np.int32, out=indices)
    return indices, indptr


def _condensation_plan(spaces: StaggeredSpaces) -> CondensationPlan:
    mesh, k1, nk = spaces.mesh, spaces.k + 1, spaces.nk
    W, U, P = spaces.W.dofmap, spaces.U.dofmap, spaces.P.dofmap
    nW, nU, nT = W.ndof, U.ndof, mesh.num_triangles
    n = nW + nU + P.ndof + 1  # the multiplier is last
    tri_poly = mesh.tri_poly
    # Local DOF order of each space: primal side, the two dual sides, cell
    # (U has no primal side). Stage 0 removes the W cell moments, the last of
    # W's 4nk; the U cell moments, which stage 1 removes, go first.
    gradient = W.cell_dofs[:, 4 * k1:]
    local = np.hstack([nW + U.cell_dofs[:, 2 * k1:], W.cell_dofs[:, :4 * k1],
                       nW + U.cell_dofs[:, :2 * k1], nW + nU + P.cell_dofs,
                       np.full((nT, 1), n - 1)])
    ni = 2 * (nk - k1)
    # Stage 2: the W dual sides, the U dual sides and the P cell moments.
    stage2 = ni + np.r_[2 * k1:6 * k1, 7 * k1:6 * k1 + nk]
    triangle = _owners(n, np.hstack([gradient, local[:, :ni]]), np.arange(nT), "triangle")
    polygon = _owners(n, local[:, stage2], tri_poly, "polygon")

    # Skeleton order: the W then P moments of each primal edge, edges in the
    # mesh-derived order, the multiplier last.
    edges, place, graph = _edge_order(mesh)
    k3, ne = 3 * k1, len(edges)
    skeleton = np.concatenate([
        np.hstack([W.edge_offsets[edges, None] + np.arange(2 * k1),
                   nW + nU + P.edge_offsets[edges, None] + np.arange(k1)]).ravel(), [n - 1]])
    ns = len(skeleton)
    where = np.full(n, -1)
    where[skeleton] = np.arange(ns)
    indices, indptr = _skeleton_pattern(graph, k3)
    # Graph entries keyed by (column, row); they are sorted that way.
    gkeys = np.repeat(np.arange(ne), np.diff(graph.indptr)) * ne + graph.indices
    tri_edge = place[mesh.tri_edges[:, 0]]

    # One local layout per polygon size, taken from its first polygon: the
    # stage-2 unknowns, then the skeleton unknowns, each in increasing saddle
    # order. Each polygon's triangles are in increasing order, the order in
    # which stage 2 sums their remainders.
    sizes = np.bincount(tri_poly)
    by_poly = np.argsort(tri_poly, kind="stable")
    tri_first = np.cumsum(sizes) - sizes
    classes = []
    for m in np.unique(sizes):
        tris = by_poly[tri_first[sizes == m, None] + np.arange(m)]
        dofs = local[tris, ni:]  # (count, m, nr) outer unknowns
        first = dofs[0].ravel()
        uniq, position = np.unique((polygon[first] < 0) * n + first, return_inverse=True)
        position = position.reshape(dofs.shape[1:])
        n2 = np.count_nonzero(uniq < n)
        layout = np.empty((len(tris), len(uniq)), dtype=dofs.dtype)
        layout[:, position] = dofs
        # Every polygon must list one unknown per place, each in one place,
        # and its stage-2 unknowns in the first n2 places.
        if (np.any(layout[:, position] != dofs)
                or np.any(np.diff(np.sort(layout, axis=1), axis=1) == 0)
                or np.any((polygon[layout] < 0) != (np.arange(len(uniq)) >= n2))):
            raise SolverError(f"{m}-gon polygons have different local layouts")
        classes.append(_SizeClass(tris, position, layout[:, :n2], layout[:, n2:]))
    # Every class's local Schur entries in turn, polygon by polygon, (row,
    # column) in the order of its kept unknowns, the order of solve's stacks.
    slots = np.empty(sum(c.kept.size * c.kept.shape[1] for c in classes), dtype=np.int32)
    at, deg = 0, np.diff(graph.indptr)
    for cls in classes:
        (count, m), n2, nkept = cls.triangles.shape, cls.interior.shape[1], cls.kept.shape[1]
        # The triangle of each skeleton place, m for the multiplier's, and
        # the skeleton edge of each triangle, ne standing for the multiplier.
        tri_of = np.empty(nkept, dtype=int)
        outer = cls.position >= n2
        tri_of[cls.position[outer] - n2] = np.nonzero(outer)[0]
        tri_of[-1] = m
        edge = np.hstack([tri_edge[cls.triangles], np.full((count, 1), ne)])
        rows = where[cls.kept]
        if np.any(rows // k3 != edge[:, tri_of]):
            raise SolverError(f"{m}-gon polygons list skeleton unknowns off their primal edges")
        # Entry (i, j) lands in column rows[j] at row rows[i]: in the column
        # after offset[t_i, t_j] entries of the runs before row i's, then
        # rows[i] % k3 into its run, with t the triangles of the places.
        offset = np.empty((count, m + 1, m + 1), dtype=np.int32)
        col, row = edge[:, None, :m], edge[:, :m, None]
        offset[:, :m, :m] = k3 * (np.searchsorted(gkeys, col * ne + row) - graph.indptr[col])
        offset[:, :m, m] = k3 * edge[:, :m]  # the multiplier's column lists every row
        offset[:, m, :m] = k3 * deg[edge[:, :m]]  # the multiplier's row is last
        offset[:, m, m] = ns - 1
        out = slots[at:at + count * nkept * nkept].reshape(count, nkept, nkept)
        # mode="clip" writes to out directly; "raise" would buffer it.
        np.take(offset.reshape(count, -1), tri_of[:, None] * (m + 1) + tri_of, axis=1, out=out,
                mode="clip")
        out += indptr[rows][:, None, :]
        out += (rows % k3).astype(np.int32)[:, :, None]
        at += out.size
    return CondensationPlan(triangle, polygon, gradient, ni, local, classes, skeleton,
                            slots, indices, indptr)


def _global_block(test: str, trial: str, stack: str, doc: str) -> property:
    def get(blocks: SystemBlocks) -> sp.csr_matrix:
        s = blocks.spaces
        X = forms.scatter(s.space(test), s.space(trial), getattr(blocks.elements, stack))
        # The dual-basis products leave roundoff residue of analytically zero
        # integrals, which would otherwise dominate the sparsity pattern.
        size = np.abs(X.data)
        X.data[size < 1e-13 * size.max(initial=0.0)] = 0.0
        del size
        X.eliminate_zeros()
        return X
    return property(get, doc=f"{doc}, scattered from the element stack and pruned on each access.")


@dataclass
class GradientCells:
    """Stage 0: every triangle's W cell moments (i) eliminated from its M and
    B stacks, leaving its W edge moments (o) and its U moments (u)."""

    Minv: np.ndarray  # (nT, ni, ni) M_ii^{-1}
    M: np.ndarray  # (nT, no, no) M_oo - M_oi M_ii^{-1} M_io
    B: np.ndarray  # (nT, nu, no) B_uo - B_ui M_ii^{-1} M_io
    E: np.ndarray  # (nT, nu, nu) B_ui M_ii^{-1} B_ui^T


def _eliminate_gradient_cells(el: forms.ElementMatrices, no: int) -> GradientCells:
    """Stage 0 of the condensation. The W cell moments are the last positions
    of the M and B stacks, from no on; the products run in batches of
    triangles of at most BATCH_BYTES of W-by-W blocks."""
    (nT, nw, _), nu = el.M.shape, el.B.shape[1]
    try:
        Minv = np.linalg.inv(el.M[:, no:, no:])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular gradient cell block: {exc}") from exc
    out = GradientCells(Minv, np.empty((nT, no, no)), np.empty((nT, nu, no)),
                        np.empty((nT, nu, nu)))
    step = max(1, BATCH_BYTES // (8 * nw * nw))
    for a in range(0, nT, step):
        t = slice(a, a + step)
        M, Bui, inv = el.M[t], el.B[t, :, no:], Minv[t]
        T, Mr, Br = inv @ M[:, no:, :no], out.M[t], out.B[t]
        np.subtract(M[:, :no, :no], np.matmul(M[:, :no, no:], T, out=Mr), out=Mr)
        np.subtract(el.B[t, :, :no], np.matmul(Bui, T, out=Br), out=Br)
        np.matmul(Bui @ inv, np.swapaxes(Bui, 1, 2), out=out.E[t])
    return out


@dataclass
class SystemBlocks:
    """Element stacks of the forms, pressure means, the stage-0 eliminations
    and the condensation plan. The global M, B, A and D are built on access,
    for inspection only."""

    spaces: StaggeredSpaces = field(repr=False)
    alpha: float  # reaction coefficient of the A stack
    elements: forms.ElementMatrices = field(repr=False)
    c: np.ndarray  # (nP,) pressure means
    gradient: GradientCells = field(repr=False)
    interior: CondensationPlan = field(repr=False)

    M = _global_block("W", "W", "M", "nW x nW gradient mass")
    B = _global_block("U", "W", "B", "nU x nW coupling")
    A = _global_block("U", "U", "A", "nU x nU reaction mass")
    D = _global_block("P", "U", "D", "nP x nU divergence coupling")


def assemble_blocks(spaces: StaggeredSpaces, alpha: float) -> SystemBlocks:
    el = forms.element_matrices(spaces, alpha)
    P = spaces.P.dofmap
    c = np.bincount(P.cell_dofs.ravel(), el.c.ravel(), minlength=P.ndof)
    return SystemBlocks(spaces, alpha, el, c,
                        _eliminate_gradient_cells(el, 4 * (spaces.k + 1)),
                        _condensation_plan(spaces))


@dataclass
class SaddleSystem:
    blocks: SystemBlocks
    eps: float
    rhs: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        s = self.blocks.spaces
        return s.W.ndof, s.U.ndof, s.P.ndof

    @property
    def num_unknowns(self) -> int:
        return sum(self.dims) + 1


@dataclass
class DiscreteSolution:
    L: DiscreteField
    u: DiscreteField
    p: DiscreteField
    multiplier: float
    residual: float
    skeleton: int  # size of the factorized matrix
    lu_fill: int  # entries SuperLU stores for L and U, explicit zeros included
    residuals: list[float]  # relative residual after each refinement step
    timings: dict[str, float]  # seconds: condense, factorize, refine


def build_system(blocks: SystemBlocks, eps: float, alpha: float,
                 rhs_F: np.ndarray, rhs_G: np.ndarray) -> SaddleSystem:
    """Check the inputs and stack the right-hand side of the saddle system.

    `alpha` must be the one the blocks were assembled with.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("viscosity must be positive and finite")
    if alpha != blocks.alpha:
        raise ValueError(f"alpha {alpha:g} differs from the blocks' alpha {blocks.alpha:g}")
    s, el = blocks.spaces, blocks.elements
    W, U, P = (x.dofmap.cell_dofs.shape for x in (s.W, s.U, s.P))
    shapes = (el.M.shape, el.B.shape, el.A.shape, el.D.shape, el.c.shape, blocks.c.shape)
    if shapes != (W + W[1:], U + W[1:], U + U[1:], P + U[1:], P, (s.P.ndof,)):
        raise ValueError("block dimensions are inconsistent")
    if len(rhs_F) != s.U.ndof or len(rhs_G) != s.P.ndof:
        raise ValueError("right-hand side dimensions are inconsistent")
    rhs = np.concatenate([np.zeros(s.W.ndof), rhs_F, -rhs_G, [0.0]])
    return SaddleSystem(blocks, eps, rhs)


# Iterative refinement: cheap re-solves with the existing factorization that
# recover the digits lost to cancellation in ill-conditioned regimes (small
# viscosity), where a single factorized solve can be several digits short.
REFINE_STEPS = 5
REFINE_TARGET = 1e-12
# Byte budget of the reduced local matrices of one batch of polygons. Their
# stage-1 remainders, the places of these in the polygon matrices and the
# polygon matrices, which the batch holds next, take 2.4-2.7 times as many
# bytes at k = 2 and 3 on quadrilaterals. Every problem on an h = 1/4 grid,
# k <= 3, eliminates each size class in one batch.
BATCH_BYTES = 3 << 20


def _local_matrices(el: forms.ElementMatrices, g: GradientCells, eps: float,
                    tris: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The reduced saddle matrices of triangles `tris`, rows and columns in
    the plan's local order: U cell moments, W edge moments, U edge moments,
    P cell_dofs, multiplier. They are written to K, which holds one per
    triangle."""
    (nu, no), npr, se = g.B.shape[1:], el.D.shape[1], math.sqrt(eps)
    nl, ue = nu + no + npr + 1, no // 2  # U's edge moments come first in its stacks
    K.fill(0.0)
    # A run of consecutive triangles reads views of the stacks, not copies.
    if np.all(np.diff(tris) == 1):
        tris = slice(tris[0], tris[-1] + 1)
    # (local, stack) slices of each field; the U cell moments are moved first.
    pt = slice(nu + no, nl - 1)
    w = ((slice(nu - ue, nu - ue + no), slice(None)),)
    u = ((slice(0, nu - ue), slice(ue, nu)), (slice(nu - ue + no, nu + no), slice(0, ue)))
    p = ((pt, slice(None)),)
    Bt, Dt = np.swapaxes(g.B, 1, 2), np.swapaxes(el.D, 1, 2)
    # Copy the blocks by slices; fancy indexing is several times slower.
    for rows, cols, X, scale in ((w, w, g.M, -1.0), (u, w, g.B, se), (w, u, Bt, se),
                                 (u, u, g.E, eps), (p, u, el.D, 1.0), (u, p, Dt, 1.0)):
        for rt, rs in rows:
            for ct, cs in cols:
                np.multiply(X[tris, rs, cs], scale, out=K[:, rt, ct])
    for rt, rs in u:
        for ct, cs in u:
            K[:, rt, ct] += el.A[tris, rs, cs]
    np.negative(el.c[tris], out=K[:, pt, -1])
    K[:, -1, pt] = K[:, pt, -1]
    return K


def _condense(K: np.ndarray, ni: int, owner: str, T: np.ndarray, inv: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Batched Schur complements of the dense local matrices K onto their
    trailing unknowns. Writes Kii^{-1} Kio to T and Kii^{-1} to inv and
    returns the complements, in out if it is given."""
    Kio = K[:, :ni, ni:]
    try:
        inv[...] = np.linalg.inv(K[:, :ni, :ni])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular {owner} block: {exc}") from exc
    np.matmul(inv, Kio, out=T)
    # K is symmetric, so Koi Kii^{-1} = T^T.
    S = np.matmul(np.swapaxes(Kio, 1, 2), T, out=out)
    return np.subtract(K[:, ni:, ni:], S, out=S)


def _operator(system: SaddleSystem):
    """x -> K x, with K the saddle matrix summed element by element from the
    stacks that the condensation factorizes."""
    s, el, se = system.blocks.spaces, system.blocks.elements, math.sqrt(system.eps)
    nW, nU = s.W.ndof, s.U.ndof
    dofs = np.hstack([s.W.dofmap.cell_dofs, nW + s.U.dofmap.cell_dofs,
                      nW + nU + s.P.dofmap.cell_dofs])
    nw, nu = el.M.shape[1], el.A.shape[1]
    mv = lambda X, v: (X @ v[:, :, None])[:, :, 0]  # X[t] v[t] for every t
    mtv = lambda X, v: (v[:, None, :] @ X)[:, 0]  # X[t]^T v[t]

    def apply(x: np.ndarray) -> np.ndarray:
        local = x[dofs]
        w, u, p = local[:, :nw], local[:, nw:nw + nu], local[:, nw + nu:]
        y = np.bincount(dofs.ravel(), np.hstack([
            se * mtv(el.B, u) - mv(el.M, w),
            se * mv(el.B, w) + mv(el.A, u) + mtv(el.D, p),
            mv(el.D, u) - x[-1] * el.c]).ravel(), minlength=len(x))
        y[-1] = -np.sum(el.c * p)
        return y

    return apply


def solve(system: SaddleSystem) -> DiscreteSolution:
    """Direct solve of the saddle system by static condensation of the
    element matrices, stage 0 taken from the blocks, then iterative
    refinement against the original element stacks."""
    plan, n = system.blocks.interior, system.num_unknowns
    el, g, se = system.blocks.elements, system.blocks.gradient, math.sqrt(system.eps)
    t0 = time.perf_counter()
    nl, ni = plan.local.shape[1], plan.num_inner
    # Every class's local Schur complements in turn, the order of plan.slots.
    schur = np.empty(len(plan.slots))
    elims, at = [], 0
    # One work buffer, allocated once per solve, holds a batch's local
    # matrices and then, once they are condensed, its polygon matrices.
    steps, size = [], 0
    for cls in plan.classes:
        (count, m), N = cls.triangles.shape, cls.interior.shape[1] + cls.kept.shape[1]
        steps.append(min(count, max(1, BATCH_BYTES // (8 * m * nl * nl))))
        size = max(size, steps[-1] * max(m * nl * nl, N * N))
    work = np.empty(size)
    for cls, step in zip(plan.classes, steps):
        (count, m), n2, nk = cls.triangles.shape, cls.interior.shape[1], cls.kept.shape[1]
        N = n2 + nk
        # Stages 1 and 2 of the class; the rows of T1 and inv1 are its
        # triangles, polygon by polygon.
        T1, inv1 = np.empty((count * m, ni, nl - ni)), np.empty((count * m, ni, ni))
        T2, inv2 = np.empty((count, n2, nk)), np.empty((count, n2, n2))
        S2 = schur[at:at + count * nk * nk].reshape(count, nk, nk)
        # Place of each entry of the stage-1 remainders of a batch's polygons
        # in their matrices; a shorter last batch reads the first rows.
        place = ((np.arange(step) * (N * N))[:, None, None, None]
                 + cls.position[:, :, None] * N + cls.position[:, None, :]).ravel()
        for a in range(0, count, step):
            b = min(a + step, count)
            K = _local_matrices(el, g, system.eps, cls.triangles[a:b].ravel(),
                                work[:(b - a) * m * nl * nl].reshape(-1, nl, nl))
            S1 = _condense(K, ni, "triangle", T1[a * m:b * m], inv1[a * m:b * m])
            # Sum the remainders into the batch's polygon matrices, each
            # entry over its polygon's triangles in increasing order.
            Kp = work[:(b - a) * N * N]
            Kp.fill(0.0)
            np.add.at(Kp, place[:S1.size], S1.ravel())
            del S1
            _condense(Kp.reshape(-1, N, N), n2, "polygon", T2[a:b], inv2[a:b], out=S2[a:b])
        elims.append((plan.local[cls.triangles.ravel()], T1, inv1, T2, inv2))
        at += S2.size
    del work, K, Kp, place
    ns = len(plan.skeleton)
    data = np.bincount(plan.slots, schur, minlength=len(plan.indices))
    del schur, S2
    S = sp.csc_matrix((data, plan.indices, plan.indptr), shape=(ns, ns))
    t1 = time.perf_counter()
    # The skeleton is pre-ordered from the mesh; diagonal pivots where they are
    # at least 0.01 of the column maximum (0.1 multiplies the fill at small
    # viscosity).
    try:
        lu = spla.splu(S, permc_spec="NATURAL", diag_pivot_thresh=0.01,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    del S, data
    t2 = time.perf_counter()

    # Stage 0 rebuilds the W cell moments from M_ii^{-1} and views of the
    # original stacks.
    spaces, no = system.blocks.spaces, g.M.shape[1]
    g0 = plan.gradient
    go, gu = spaces.W.dofmap.cell_dofs[:, :no], spaces.W.ndof + spaces.U.dofmap.cell_dofs
    gou = np.hstack([go, gu]).ravel()
    Moi, Mio, Bui = el.M[:, :no, no:], el.M[:, no:, :no], el.B[:, :, no:]

    def apply(b: np.ndarray) -> np.ndarray:
        y0 = np.einsum("tij,tj->ti", g.Minv, b[g0])
        r = b + np.bincount(gou, np.hstack([
            -np.einsum("toi,ti->to", Moi, y0),
            se * np.einsum("tui,ti->tu", Bui, y0)]).ravel(), minlength=n)
        b1, y2 = [], []
        for cls, (local, T1, _, T2, inv2) in zip(plan.classes, elims):
            # Stages 1 and 2 leave the stage-1 unknowns of r as they are.
            b1.append(r[local[:, :ni]])
            r -= np.bincount(local[:, ni:].ravel(), np.einsum("tio,ti->to", T1, b1[-1]).ravel(),
                             minlength=n)
            b2 = r[cls.interior]
            y2.append(np.einsum("pij,pj->pi", inv2, b2))
            r -= np.bincount(cls.kept.ravel(), np.einsum("pik,pi->pk", T2, b2).ravel(),
                             minlength=n)
        x = np.empty(n)
        x[plan.skeleton] = lu.solve(r[plan.skeleton])
        for cls, (local, T1, inv1, T2, _), c1, c2 in zip(plan.classes, elims, b1, y2):
            x[cls.interior] = c2 - np.einsum("pik,pk->pi", T2, x[cls.kept])
            x[local[:, :ni]] = (np.einsum("tij,tj->ti", inv1, c1)
                                - np.einsum("tio,to->ti", T1, x[local[:, ni:]]))
        x[g0] = -y0 - np.einsum("tij,tj->ti", g.Minv, np.einsum("tio,to->ti", Mio, x[go])
                                - se * np.einsum("tui,tu->ti", Bui, x[gu]))
        return x

    x = apply(system.rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite values")
    K = _operator(system)
    bnorm = max(float(np.linalg.norm(system.rhs)), 1.0)
    best, best_r = x, system.rhs - K(x)
    best_res = float(np.linalg.norm(best_r)) / bnorm
    residuals = [best_res]
    for _ in range(REFINE_STEPS):
        if best_res <= REFINE_TARGET:
            break
        x = best + apply(best_r)
        r = system.rhs - K(x)
        res = float(np.linalg.norm(r)) / bnorm
        residuals.append(res)
        if not np.isfinite(res) or res >= best_res:
            break
        best, best_r, best_res = x, r, res
    nW, nU, nP = system.dims
    return DiscreteSolution(
        L=DiscreteField("W", best[:nW].copy()),
        u=DiscreteField("U", best[nW:nW + nU].copy()),
        p=DiscreteField("P", best[nW + nU:nW + nU + nP].copy()),
        multiplier=float(best[-1]),
        residual=best_res,
        skeleton=ns,
        lu_fill=lu.nnz,
        residuals=residuals,
        timings={"condense": t1 - t0, "factorize": t2 - t1,
                 "refine": time.perf_counter() - t2},
    )


def solve_case(spaces: StaggeredSpaces, eps: float, alpha: float, f, g):
    """Assemble and solve in one step; returns (solution, system)."""
    blocks = assemble_blocks(spaces, alpha)
    rhs_F, rhs_G = forms.assemble_rhs(spaces, f, g)
    system = build_system(blocks, eps, alpha, rhs_F, rhs_G)
    return solve(system), system
