"""Monolithic saddle-point system for the three-field formulation.

Unknowns are stacked as (gradient coefficients, velocity coefficients,
pressure coefficients, mean multiplier). After negating the gradient and
divergence rows the global matrix is symmetric indefinite; a scalar Lagrange
multiplier enforces the zero-mean pressure condition without breaking
symmetry. The solve condenses the matrix without it, whose kernel is the
constant pressure z, and finds the multiplier and the multiple of z in
closed form.

The solve condenses element by element in three stages. The gradient's cell
moments couple to each other only through the mass block, which does not
depend on the viscosity, so stage 0 eliminates them once per assembly,
on the first triangle of each class of triangles with equal local inputs
(see `spaces`): with i the W cell moments, o the W edge moments and u all U
moments, `assemble_blocks` stores per class M_ii^{-1} and the reduced stacks
M' = M_oo - M_oi M_ii^{-1} M_io, B' = B_uo - B_ui M_ii^{-1} M_io and
E = B_ui M_ii^{-1} B_ui^T (`GradientCells`), beside the element stacks,
also one per class. The solve gathers the rows of its triangles from these
(`StaggeredSpaces.gather`) one batch at a time. For each viscosity the solve
then runs one batch of polygons of one size at a time. Each triangle's
reduced local matrix [[-M', se B'^T], [se B', A + eps E]], bordered by D
(se = sqrt(eps)), has its cell U moments eliminated by a batched dense solve
(stage 1). The remainders are summed per polygon, and each polygon's
dual-edge W/U moments and cell P moments are eliminated by a second batched
solve (stage 2). Each stage takes its unknowns by the column ranges that
the spaces' records name (`primal`, `dual`, `cell` of `spaces.Space`). A
batch's local matrices stay within BATCH_BYTES, and one work buffer per
solve holds them and then the batch's polygon matrices, so the only dense
stacks the solve makes over the whole mesh are the eliminations that
refinement reads back. The local Schur complements sum into the
primal-edge skeleton, the W and P moments of every primal edge; with the
edge-mean P moment of one edge pinned to zero it is negative definite.

The skeleton is factored by a multifrontal Cholesky (Liu, SIAM Review 34,
1992) on a nested dissection of the polygons (George, SIAM J. Numer. Anal.
10, 1973). The polygons are bisected at the median of their interior points,
along the longer extent of the current set, down to leaves of at most
LEAF_POLYGONS. Each primal edge is eliminated by the lowest node of the tree
whose subdomain holds all of its polygons, so the edges a node eliminates
separate its two subtrees, and the skeleton lists the edges node by node in
postorder. A node's front holds the edges it eliminates and those its
subdomain's polygons touch that an ancestor eliminates. The local Schur
complements fill the leaf fronts; each node eliminates its own block by a
Cholesky of its negation, a pivot that is not negative raising SolverError,
and adds what remains (the update matrix) to its parent's front. Nodes of
one height with fronts of one shape are eliminated as one batch, and the
factor is kept as the inverse of each own block's Cholesky factor and the
rows below it, so that the triangular sweeps are matrix products.

What depends only on the mesh and k is computed once per assembly, in a
CondensationPlan: the triangles of every polygon, one local layout per
polygon size (taken from its first polygon, checked on the others) with the
place of each triangle's unknowns in it, the dissection tree, the skeleton
order, the fronts with the place of every local Schur entry in its leaf's
front and of every update entry in its parent's front. A new viscosity
redoes only stages 1 and 2 and the Cholesky. Iterative refinement applies
the saddle operator and its absolute value element by element from the
original stacks, in one pass, and the multiplier's row and column from the
pressure means, so no global saddle matrix is formed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import forms
from .spaces import DiscreteField, StaggeredSpaces

if TYPE_CHECKING:
    import scipy.sparse as sp


class SolverError(RuntimeError):
    """Singular factorization; the discrete system should be uniquely solvable."""


@dataclass
class _SizeClass:
    """The polygons with one number of triangles; their local matrices share
    one size and one layout, interior unknowns first, then skeleton ones."""

    triangles: np.ndarray  # (count, m) triangles of each polygon, in increasing order
    position: np.ndarray  # (m, nr) places of each triangle's outer unknowns in the layout
    interior: np.ndarray  # (count, n2) stage-2 unknowns of each polygon
    kept: np.ndarray  # (count, nk) its skeleton unknowns


@dataclass
class _FrontGroup:
    """Nodes of the dissection tree of one height whose fronts share a shape,
    whose parents share a height and are distinct. A front lists the node's
    own unknowns, which it eliminates, then those of its other edges, which
    an ancestor eliminates. The fronts are dense blocks of the buffer of
    their height."""

    height: int
    nodes: np.ndarray  # (G,) nodes of the tree, in postorder
    own: np.ndarray  # (G, no) skeleton places of the unknowns each node eliminates
    update: np.ndarray  # (G, nu) skeleton places of the rest of its front
    base: int  # offset of the first front in the buffer of this height
    parent: int  # height of the parents, -1 at the root
    # Extend-add: entry (i, j) of node g's update matrix adds to entry
    # rows[g, i] + cols[g, j] of the buffer of the parents' height.
    rows: np.ndarray  # (G, nu)
    cols: np.ndarray  # (G, nu)


@dataclass
class CondensationPlan:
    """Layout of the condensation; depends only on mesh and k.

    Stages 0 and 1 eliminate a triangle's W and U cell moments, stage 2 a
    polygon's `interior` unknowns (kept per size class); the skeleton is
    what all keep. Each triangle's reduced local unknowns are its U cell
    moments, the num_inner that stage 1 eliminates, then per space its
    `primal` and `dual` columns, and the P `cell` ones: W edge moments, U
    edge moments and P cell_dofs.

    The skeleton is ordered by a nested dissection of the polygons: `parent`
    is the tree, numbered in postorder, each primal edge is eliminated by the
    lowest node whose subdomain holds all of its polygons, and the skeleton
    lists the edges node by node. `fronts` groups the nodes for the
    multifrontal Cholesky, heights in increasing order; `front_sizes` is the
    size of the front buffer of each height, and `slots` places every local
    Schur entry in the buffer of the leaves, height 0.
    """

    size: int  # number of eliminated unknowns
    gradient: np.ndarray  # (nT, ni) W cell moments of each triangle: stage 0
    num_inner: int
    local: np.ndarray  # (nT, nloc) reduced unknowns of each triangle
    classes: list[_SizeClass]
    skeleton: np.ndarray  # (ns,) saddle unknowns in elimination order
    parent: np.ndarray  # (nodes,) parent of each node of the dissection tree, -1 at the root
    fronts: list[_FrontGroup]
    front_sizes: list[int]
    slots: np.ndarray  # place of every local Schur entry, classes in turn, in the leaf buffer
    pin: int  # skeleton place of the moment pinned to zero
    pinned: np.ndarray  # local Schur entries of its row and column off the diagonal


def _owners(n: int, dofs: np.ndarray, owner: np.ndarray, what: str) -> np.ndarray:
    """Owner of every unknown that row i of dofs lists (owner[i]), -1 where
    none lists it. A polygon-local elimination is exact only if no unknown is
    listed by two owners."""
    out = np.full(n, -1)
    out[dofs] = owner[:, None]
    if np.any(out[dofs] != owner[:, None]):
        raise SolverError(f"interior unknowns couple across {what}s")
    return out


# Largest number of polygons in a leaf of the dissection tree. At square
# h = 1/64, k = 2, leaves of 16 polygons take 1.8 times the Cholesky work of
# leaves of 4.
LEAF_POLYGONS = 4


def _dissect(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nested dissection of the polygons at `points`: bisect them at the
    median along the longer extent of the current set, down to leaves of at
    most LEAF_POLYGONS. Returns the parent of every node, numbered in
    postorder (-1 at the root), and the leaf of every polygon."""
    parent, leaf = [], np.empty(len(points), dtype=int)

    def split(polys: np.ndarray) -> int:
        children = ()
        if len(polys) > LEAF_POLYGONS:
            pts = points[polys]
            polys = polys[np.argsort(pts[:, np.argmax(np.ptp(pts, axis=0))], kind="stable")]
            half = len(polys) // 2
            children = split(polys[:half]), split(polys[half:])
        else:
            leaf[polys] = len(parent)
        parent.append(-1)
        for child in children:
            parent[child] = len(parent) - 1
        return len(parent) - 1

    split(np.arange(len(points)))
    return np.array(parent), leaf


def _fronts(parent: np.ndarray, owner: np.ndarray, touch: tuple[np.ndarray, np.ndarray],
            k3: int) -> tuple[list[_FrontGroup], list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The fronts of the multifrontal Cholesky, in edges of k3 unknowns. Node
    v's front lists the edges it eliminates (owner == v, in skeleton order),
    then the edges that the polygons of its subtree touch and an ancestor
    eliminates, in skeleton order; `touch` gives the leaf and the skeleton
    edge of every pair of a polygon and its primal edge.

    Returns the groups in increasing height, the buffer size of each height,
    and for every node its front's offset in the buffer of its height and
    its number of edges, and the sorted keys node * ne + edge of all fronts,
    which locate an edge in a front."""
    nn, ne = len(parent), len(owner)
    keys = [owner * ne + np.arange(ne)]
    v, e = touch
    while True:  # up from each polygon's leaf to the node that eliminates the edge
        up = v != owner[e]
        v, e = v[up], e[up]
        if not len(v):
            break
        keys.append(v * ne + e)
        v = parent[v]
    keys = np.unique(np.concatenate(keys))
    fptr = np.searchsorted(keys, np.arange(nn + 1) * ne)
    nfe, noe = np.diff(fptr), np.bincount(owner, minlength=nn)
    height = np.zeros(nn, dtype=int)
    for node, up in enumerate(parent[:-1]):  # children come before parents
        height[up] = max(height[up], height[node] + 1)
    # The two children of a node, the second just before it in postorder,
    # fall in two groups, so that a group's updates add to distinct fronts.
    up_height = np.where(parent >= 0, height[parent], -1)
    second = parent == np.arange(1, nn + 1)
    shapes, group = np.unique(np.stack([height, up_height, second, noe, nfe], axis=1), axis=0,
                              return_inverse=True)
    sizes = [0] * (height.max() + 1)
    fbase = np.empty(nn, dtype=int)
    members = []
    for q, (h, _, _, _, m) in enumerate(shapes):
        members.append(np.flatnonzero(group == q))
        fbase[members[-1]] = sizes[h] + np.arange(len(members[-1])) * (m * k3) ** 2
        sizes[h] += len(members[-1]) * (m * k3) ** 2
    groups = []
    for (h, hp, _, no, m), nodes in zip(shapes, members):
        edges = keys[fptr[nodes, None] + np.arange(m)] % ne
        own, update = ((x[:, :, None] * k3 + np.arange(k3)).reshape(len(nodes), -1)
                       for x in (edges[:, :no], edges[:, no:]))
        # Place of each update unknown in the parent's front; the root has none.
        up = parent[nodes]
        at = np.searchsorted(keys, up[:, None] * ne + edges[:, no:]) - fptr[up, None]
        cols = (at[:, :, None] * k3 + np.arange(k3)).reshape(len(nodes), -1)
        groups.append(_FrontGroup(int(h), nodes, own, update, int(fbase[nodes[0]]), int(hp),
                                  fbase[up, None] + cols * (nfe[up, None] * k3), cols))
    return groups, sizes, fbase, nfe, keys


def _condensation_plan(spaces: StaggeredSpaces) -> CondensationPlan:
    mesh, W, U, P = spaces.mesh, spaces.W, spaces.U, spaces.P
    nW, nU, nT = W.ndof, U.ndof, mesh.num_triangles
    n = nW + nU + P.ndof
    tri_poly = mesh.tri_poly
    spaced = ((W, 0), (U, nW), (P, nW + nU))  # each space and its first unknown
    # Stage 0 removes the W cell moments. Each triangle's reduced unknowns
    # are its U cell moments, which stage 1 removes, then per space its
    # primal-side unknowns, which the skeleton (0) keeps, and its dual-side
    # ones, which stage 2 removes with the P cell moments.
    gradient = W.cell_dofs[:, W.cell]
    parts = [(nW + U.cell_dofs[:, U.cell], 1)]
    for X, at in spaced:
        parts += [(at + X.cell_dofs[:, X.primal], 0), (at + X.cell_dofs[:, X.dual], 2)]
    parts.append((nW + nU + P.cell_dofs[:, P.cell], 2))
    local = np.hstack([dofs for dofs, _ in parts])
    stage = np.repeat([st for _, st in parts], [dofs.shape[1] for dofs, _ in parts])
    ni, stage2 = int(np.count_nonzero(stage == 1)), np.flatnonzero(stage == 2)
    triangle = _owners(n, np.hstack([gradient, local[:, :ni]]), np.arange(nT), "triangle")
    polygon = _owners(n, local[:, stage2], tri_poly, "polygon")

    # Skeleton order: the primal edges node by node of the dissection tree,
    # in mesh order within a node; per edge its W then its P moments. Each
    # edge is eliminated by the lowest node whose subtree, a postorder range
    # of nodes, holds the leaves of all its polygons: up from the first leaf
    # until the node passes the last.
    prim = mesh.primal_edge_ids
    parent, leaf = _dissect(mesh.primal.interior_points)
    edge = np.full(len(mesh.edge_kind), -1)
    edge[prim] = np.arange(len(prim))
    tri_edge, tri_leaf = edge[mesh.tri_edges[:, 0]], leaf[tri_poly]
    owner, last = np.full(len(prim), len(parent)), np.zeros(len(prim), dtype=int)
    np.minimum.at(owner, tri_edge, tri_leaf)
    np.maximum.at(last, tri_edge, tri_leaf)
    while np.any(owner < last):
        owner = np.where(owner < last, parent[owner], owner)
    order = np.argsort(owner, kind="stable")
    place = np.empty(len(prim), dtype=int)
    place[order] = np.arange(len(prim))
    tri_edge = place[tri_edge]
    edges = prim[order]
    skeleton = np.hstack([at + X.edge_offsets[edges, None] + np.arange(X.per_primal)
                          for X, at in spaced]).ravel()
    k3 = sum(X.per_primal for X, _ in spaced)  # skeleton unknowns per primal edge
    ns = len(skeleton)
    where = np.full(n, -1)
    where[skeleton] = np.arange(ns)
    fronts, front_sizes, fbase, nfe, keys = _fronts(parent, owner[order], (tri_leaf, tri_edge), k3)
    # The constant pressure, the skeleton's kernel, has a nonzero edge mean;
    # pin that moment of the last edge.
    pin = ns - P.per_primal

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
    slots = np.empty(sum(c.kept.size * c.kept.shape[1] for c in classes), dtype=int)
    pinned, at = [], 0
    for cls in classes:
        (count, m), n2, nkept = cls.triangles.shape, cls.interior.shape[1], cls.kept.shape[1]
        # The triangle of each skeleton place; its unknowns must lie on that
        # triangle's primal edge, which the polygon's leaf front holds.
        tri_of = np.empty(nkept, dtype=int)
        outer = cls.position >= n2
        tri_of[cls.position[outer] - n2] = np.nonzero(outer)[0]
        rows = where[cls.kept]
        if np.any(rows // k3 != tri_edge[cls.triangles][:, tri_of]):
            raise SolverError(f"{m}-gon polygons list skeleton unknowns off their primal edges")
        # Entry (i, j) lands at row pos[i] and column pos[j] of the leaf's
        # front, or past the leaf buffer if that is above the diagonal.
        node = tri_leaf[cls.triangles[:, 0], None]
        pos = (np.searchsorted(keys, node * len(prim) + rows // k3) - np.searchsorted(
            keys, node * len(prim))) * k3 + rows % k3
        out = slots[at:at + count * nkept * nkept].reshape(count, nkept, nkept)
        np.add(fbase[node, None] + pos[:, :, None] * (nfe[node, None] * k3), pos[:, None, :],
               out=out)
        out[pos[:, :, None] < pos[:, None, :]] = front_sizes[0]
        pinned.append(at + np.flatnonzero((rows == pin)[:, :, None] != (rows == pin)[:, None, :]))
        at += out.size
    return CondensationPlan(n - len(skeleton), gradient, ni, local, classes, skeleton, parent,
                            fronts, front_sizes, slots, pin, np.concatenate(pinned))


def _global_block(test: str, trial: str, stack: str, doc: str) -> property:
    def get(blocks: SystemBlocks) -> sp.csr_matrix:
        s = blocks.spaces
        X = forms.scatter(s.space(test), s.space(trial), s.gather(getattr(blocks.elements, stack)))
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
    """Stage 0: the W cell moments (i) of every class of triangles eliminated
    from its M and B stacks, leaving its W edge moments (o) and its U moments
    (u)."""

    Minv: np.ndarray  # (nC, ni, ni) M_ii^{-1}
    M: np.ndarray  # (nC, no, no) M_oo - M_oi M_ii^{-1} M_io
    B: np.ndarray  # (nC, nu, no) B_uo - B_ui M_ii^{-1} M_io
    E: np.ndarray  # (nC, nu, nu) B_ui M_ii^{-1} B_ui^T


def _eliminate_gradient_cells(el: forms.ElementMatrices, no: int) -> GradientCells:
    """Stage 0 of the condensation. The W cell moments are the last positions
    of the M and B stacks, from no on; the products run in batches of
    classes of at most BATCH_BYTES of W-by-W blocks."""
    (nC, nw, _), nu = el.M.shape, el.B.shape[1]
    try:
        Minv = np.linalg.inv(el.M[:, no:, no:])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular gradient cell block: {exc}") from exc
    out = GradientCells(Minv, np.empty((nC, no, no)), np.empty((nC, nu, no)),
                        np.empty((nC, nu, nu)))
    step = max(1, BATCH_BYTES // (8 * nw * nw))
    for a in range(0, nC, step):
        t = slice(a, a + step)
        M, Bui, inv = el.M[t], el.B[t, :, no:], Minv[t]
        T, Mr, Br = inv @ M[:, no:, :no], out.M[t], out.B[t]
        np.subtract(M[:, :no, :no], np.matmul(M[:, :no, no:], T, out=Mr), out=Mr)
        np.subtract(el.B[t, :, :no], np.matmul(Bui, T, out=Br), out=Br)
        np.matmul(Bui @ inv, np.swapaxes(Bui, 1, 2), out=out.E[t])
    return out


@dataclass
class SystemBlocks:
    """Element stacks of the forms and the stage-0 eliminations, one row per
    class of triangles, the pressure means c (sqrt(1/2) on each triangle's
    first P cell moment, 0 elsewhere) and the condensation plan. The global
    M, B, A and D are built on access, for inspection only."""

    spaces: StaggeredSpaces = field(repr=False)
    alpha: float  # reaction coefficient of the A stack
    elements: forms.ElementMatrices = field(repr=False)
    c: np.ndarray  # (nP,) pressure means
    z: np.ndarray  # (nP,) the constant pressure 1
    gradient: GradientCells = field(repr=False)
    interior: CondensationPlan = field(repr=False)

    M = _global_block("W", "W", "M", "nW x nW gradient mass")
    B = _global_block("U", "W", "B", "nU x nW coupling")
    A = _global_block("U", "U", "A", "nU x nU reaction mass")
    D = _global_block("P", "U", "D", "nP x nU divergence coupling")


def assemble_blocks(spaces: StaggeredSpaces, alpha: float) -> SystemBlocks:
    # The element stacks and stage 0, one row per class of triangles.
    el = forms.element_matrices(spaces, alpha)
    gradient = _eliminate_gradient_cells(el, spaces.W.cell.start)
    # int_T q is sqrt(1/2) times T's first P cell moment: all other modal functions have mean 0.
    c = np.zeros(spaces.P.ndof)
    c[spaces.P.cell_dofs[:, spaces.P.cell.start]] = math.sqrt(0.5)
    z = spaces.interpolate("P", lambda x: np.ones(len(x))).coeffs
    return SystemBlocks(spaces, alpha, el, c, z, gradient, _condensation_plan(spaces))


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
    residual: float  # ||K x - b|| / max(||b||, 1) of the returned x
    skeleton: int  # size of the factorized matrix
    lu_fill: int  # entries of its Cholesky factor
    residuals: list[float]  # componentwise backward error after the solve and each refinement
    timings: dict[str, float]  # seconds: condense, factorize, first sweep, refine


def build_system(blocks: SystemBlocks, eps: float, alpha: float,
                 rhs_F: np.ndarray, rhs_G: np.ndarray) -> SaddleSystem:
    """Check the inputs and stack the right-hand side of the saddle system.

    `alpha` must be the one the blocks were assembled with.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("viscosity must be positive and finite")
    if alpha != blocks.alpha:
        raise ValueError(f"alpha {alpha:g} differs from the blocks' alpha {blocks.alpha:g}")
    s, el, nC = blocks.spaces, blocks.elements, blocks.spaces.num_classes
    W, U, P = (x.cell_dofs.shape[1] for x in (s.W, s.U, s.P))
    shapes = (el.M.shape, el.B.shape, el.A.shape, el.D.shape, blocks.c.shape)
    if shapes != ((nC, W, W), (nC, U, W), (nC, U, U), (nC, P, U), (s.P.ndof,)):
        raise ValueError("block dimensions are inconsistent")
    if len(rhs_F) != s.U.ndof or len(rhs_G) != s.P.ndof:
        raise ValueError("right-hand side dimensions are inconsistent")
    rhs = np.concatenate([np.zeros(s.W.ndof), rhs_F, -rhs_G, [0.0]])
    return SaddleSystem(blocks, eps, rhs)


# Iterative refinement: cheap re-solves with the existing factorization that
# recover the digits lost to cancellation in ill-conditioned regimes (small
# viscosity), where a single factorized solve can be several digits short.
# It stops once the componentwise backward error max_i |r_i| / (|K||x| + |b|)_i
# (Skeel; Arioli, Demmel and Duff) is a few ulps, or stops falling. A
# normwise target would leave the gradient rows loose at small viscosity,
# since their terms are O(sqrt(eps)) beside an O(1) right-hand side.
REFINE_STEPS = 5
REFINE_TARGET = 4 * 2.0**-53
# Byte budget of the reduced local matrices of one batch of polygons. Their
# stage-1 remainders and the polygon matrices, which the batch holds next,
# take 1.8-2.1 times as many bytes at k = 2 and 3 on quadrilaterals. Every
# problem on an h = 1/4 grid, k <= 3, eliminates each size class in one batch.
BATCH_BYTES = 3 << 20
# Byte budget of the update matrices that one extend-add adds to their
# parents' fronts, so that they are added while in cache: at square h = 1/64,
# k = 2, the factorization took a median 0.93 s this way and 1.02 s with
# whole groups (five runs each, 1 BLAS thread).
EXTEND_BYTES = 1 << 19


def _local_matrices(spaces: StaggeredSpaces, el: forms.ElementMatrices, g: GradientCells,
                    eps: float, tris: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The reduced saddle matrices of triangles `tris`, rows and columns in
    the plan's local order: U cell moments, W edge moments, U edge moments,
    P cell_dofs. They are written to K, which holds one per triangle."""
    (nu, no), npr, se, U = g.B.shape[1:], el.D.shape[1], math.sqrt(eps), spaces.U
    nl, ni = nu + no + npr, nu - U.cell.start
    K.fill(0.0)
    # A run of consecutive triangles gathers views of the stacks where every
    # triangle is its own class, not copies.
    if np.all(np.diff(tris) == 1):
        tris = slice(tris[0], tris[-1] + 1)
    M, B, E, A, D = (spaces.gather(X, tris) for X in (g.M, g.B, g.E, el.A, el.D))
    # (local, stack) slices of each field; the U cell moments are moved first.
    w = ((slice(ni, ni + no), slice(None)),)
    u = ((slice(0, ni), U.cell), (slice(ni + no, nu + no), U.edges))
    p = ((slice(nu + no, nl), slice(None)),)
    Bt, Dt = np.swapaxes(B, 1, 2), np.swapaxes(D, 1, 2)
    # Copy the blocks by slices; fancy indexing is several times slower.
    for rows, cols, X, scale in ((w, w, M, -1.0), (u, w, B, se), (w, u, Bt, se),
                                 (u, u, E, eps), (p, u, D, 1.0), (u, p, Dt, 1.0)):
        for rt, rs in rows:
            for ct, cs in cols:
                np.multiply(X[:, rs, cs], scale, out=K[:, rt, ct])
    for rt, rs in u:
        for ct, cs in u:
            K[:, rt, ct] += A[:, rs, cs]
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


def _factor(plan: CondensationPlan, schur: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Multifrontal Cholesky of the negated skeleton, A = -S = L L^T.

    The local Schur complements fill the leaf fronts. Each group of fronts,
    heights in increasing order, eliminates its own block, F11 = -L11 L11^T,
    and adds its update matrix F22 + L21 L21^T to the parents' fronts, with
    L21 = -F21 L11^{-T}. Returns L11^{-1} and L21 of every group, what the
    triangular sweeps of `_skeleton_solve` read."""
    # The fronts hold their lower triangles, which is all that LAPACK's
    # Cholesky (potrf) reads; entries above the diagonal go past the leaves.
    buffers = {0: np.bincount(plan.slots, schur, minlength=plan.front_sizes[0] + 1)[:-1]}
    factor = []
    for q, grp in enumerate(plan.fronts):
        (count, no), nf = grp.own.shape, grp.own.shape[1] + grp.update.shape[1]
        F = buffers[grp.height][grp.base:grp.base + count * nf * nf].reshape(count, nf, nf)
        try:
            inv = np.linalg.inv(np.linalg.cholesky(-F[:, :no, :no]))
        except np.linalg.LinAlgError:
            raise SolverError("the pinned skeleton is not negative definite") from None
        L21 = np.matmul(F[:, no:, :no], np.swapaxes(inv, 1, 2))
        np.negative(L21, out=L21)
        if grp.parent >= 0:
            if grp.parent not in buffers:
                buffers[grp.parent] = np.zeros(plan.front_sizes[grp.parent])
            step = max(1, EXTEND_BYTES // (8 * (nf - no) ** 2))
            i, j = np.tril_indices(nf - no)
            for a in range(0, count, step):
                s = slice(a, a + step)
                update = F[s, no:, no:] + L21[s] @ np.swapaxes(L21[s], 1, 2)
                buffers[grp.parent][grp.rows[s][:, i] + grp.cols[s][:, j]] += update[:, i, j]
        if q + 1 == len(plan.fronts) or plan.fronts[q + 1].height != grp.height:
            del buffers[grp.height], F
        factor.append((inv, L21))
    return factor


def _skeleton_solve(plan: CondensationPlan, factor, b: np.ndarray) -> np.ndarray:
    """S^{-1} b, with S = -L L^T from `_factor`: the forward sweep in the
    order of elimination, the backward sweep in reverse, one group of fronts
    at a time."""
    y = -b
    for grp, (inv, L21) in zip(plan.fronts, factor):
        w = (inv @ y[grp.own][:, :, None])[:, :, 0]
        y[grp.own] = w
        np.subtract.at(y, grp.update, (L21 @ w[:, :, None])[:, :, 0])
    for grp, (inv, L21) in zip(reversed(plan.fronts), reversed(factor)):
        w = y[grp.own] - (y[grp.update][:, None, :] @ L21)[:, 0]
        y[grp.own] = (w[:, None, :] @ inv)[:, 0]
    return y


def _backward_error(system: SaddleSystem):
    """x -> (r, omega): r = b - K x and the componentwise backward error
    max_i |r_i| / (|K||x| + |b|)_i, 0 where both vanish. K is summed element
    by element from the stacks that the condensation factorizes, and |K| is
    bounded entrywise by the sum of the elements' absolute values. Both run in
    the same batches of triangles of at most BATCH_BYTES, each gathering the
    rows of its triangles, so that no copy of the stacks spans the mesh. The
    multiplier's row and column, the pressure means c >= 0, are added once."""
    s, el, se = system.blocks.spaces, system.blocks.elements, math.sqrt(system.eps)
    nW, nU, b, c = s.W.ndof, s.U.ndof, system.rhs, system.blocks.c
    dofs = np.hstack([s.W.cell_dofs, nW + s.U.cell_dofs, nW + nU + s.P.cell_dofs])
    (nT, nw), nu, pressure = s.W.cell_dofs.shape, el.A.shape[1], slice(nW + nU, -1)
    stacks = (el.M, el.B, el.A, el.D)
    step = max(1, BATCH_BYTES // sum(X[0].nbytes for X in stacks))
    mv = lambda X, v: (X @ v[:, :, None])[:, :, 0]  # X[t] v[t] for every t
    mtv = lambda X, v: (v[:, None, :] @ X)[:, 0]  # X[t]^T v[t]

    def error(x: np.ndarray) -> tuple[np.ndarray, float]:
        sides = ((-1.0, x, lambda X: X), (1.0, np.abs(x), np.abs))  # K x, then |K||x|
        local = [v[dofs] for _, v, _ in sides]
        y = [np.empty_like(v) for v in local]  # each triangle's terms
        for a in range(0, nT, step):
            t = slice(a, a + step)
            rows = [s.gather(X, t) for X in stacks]
            for (sign, v, part), loc, out in zip(sides, local, y):
                M, B, A, D = map(part, rows)
                w, u, p = loc[t, :nw], loc[t, nw:nw + nu], loc[t, nw + nu:]
                out[t, :nw] = se * mtv(B, u) + sign * mv(M, w)
                out[t, nw:nw + nu] = se * mv(B, w) + mv(A, u) + mtv(D, p)
                out[t, nw + nu:] = mv(D, u)
        Kx, absKx = (np.bincount(dofs.ravel(), out.ravel(), minlength=len(x)) for out in y)
        for (sign, v, _), out in zip(sides, (Kx, absKx)):
            out[pressure] += sign * v[-1] * c
            out[-1] = sign * (c @ v[pressure])
        r = b - Kx
        scale = absKx + np.abs(b)
        return r, float(np.divide(np.abs(r), scale, out=np.zeros_like(r), where=scale != 0).max())

    return error


def solve(system: SaddleSystem) -> DiscreteSolution:
    """Direct solve of the saddle system by static condensation of the
    element matrices, stage 0 taken from the blocks, then iterative
    refinement against the original element stacks."""
    plan, n = system.blocks.interior, sum(system.dims)
    el, g, se = system.blocks.elements, system.blocks.gradient, math.sqrt(system.eps)
    spaces = system.blocks.spaces
    W, U = spaces.W, spaces.U
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
        for a in range(0, count, step):
            b = min(a + step, count)
            K = _local_matrices(spaces, el, g, system.eps, cls.triangles[a:b].ravel(),
                                work[:(b - a) * m * nl * nl].reshape(-1, nl, nl))
            S1 = _condense(K, ni, "triangle", T1[a * m:b * m], inv1[a * m:b * m])
            # Sum the remainders into the batch's polygon matrices, each
            # entry over its polygon's triangles in increasing order; no
            # place repeats within one triangle.
            Kp = work[:(b - a) * N * N].reshape(-1, N, N)
            Kp.fill(0.0)
            for i, pos in enumerate(cls.position):
                Kp[:, pos[:, None], pos] += S1[i::m]
            del S1
            _condense(Kp, n2, "polygon", T2[a:b], inv2[a:b], out=S2[a:b])
        # One elimination record per stage: the unknowns it removes, those
        # it keeps, Kii^{-1} Kio and Kii^{-1}.
        local = plan.local[cls.triangles.ravel()]
        elims += [(local[:, :ni], local[:, ni:], T1, inv1), (cls.interior, cls.kept, T2, inv2)]
        at += S2.size
    del work, K, Kp, S2
    ns = len(plan.skeleton)
    schur[plan.pinned] = 0.0
    t1 = time.perf_counter()
    # Pinned, the skeleton is negative definite; its Cholesky finds out.
    factor = _factor(plan, schur)
    del schur
    # Entries of L: the lower triangle of each own block and the rows below.
    fill = sum(len(inv) * inv.shape[1] * (inv.shape[1] + 1 + 2 * L21.shape[1]) // 2
               for inv, L21 in factor)
    t2 = time.perf_counter()

    # Stage 0 rebuilds the W cell moments from M_ii^{-1} and the original
    # stacks, gathered in batches of triangles of at most BATCH_BYTES.
    g0 = plan.gradient
    go, gu = W.cell_dofs[:, W.edges], W.ndof + U.cell_dofs
    gou = np.hstack([go, gu]).ravel()
    (nT, no), nu = go.shape, gu.shape[1]
    Moi, Mio, Bui = el.M[:, W.edges, W.cell], el.M[:, W.cell, W.edges], el.B[:, :, W.cell]
    step = max(1, BATCH_BYTES // (8 * (g.Minv[0].size + Moi[0].size + Bui[0].size)))
    batches = [slice(a, a + step) for a in range(0, nT, step)]
    c, z = system.blocks.c, system.blocks.z
    pressure, cz = slice(n - len(z), n), c @ z

    def apply(b: np.ndarray) -> np.ndarray:
        # The multiplier puts the pressure rows in the range of the matrix
        # without it, whose kernel is z; b is then solved with the pinned
        # moment zero, and the multiple of z added that gives the mean.
        lam = -(z @ b[pressure]) / cz
        y0, moved = np.empty(g0.shape), np.empty((nT, no + nu))
        for t in batches:
            Minv, Mt, Bt = (spaces.gather(X, t) for X in (g.Minv, Moi, Bui))
            y0[t] = np.einsum("tij,tj->ti", Minv, b[g0[t]])
            moved[t, :no] = -np.einsum("toi,ti->to", Mt, y0[t])
            moved[t, no:] = se * np.einsum("tui,ti->tu", Bt, y0[t])
        r = b[:n] + np.bincount(gou, moved.ravel(), minlength=n)
        r[pressure] += lam * c
        held = []  # r of each stage's unknowns when it eliminates them
        for inner, outer, T, _ in elims:
            held.append(r[inner])
            r -= np.bincount(outer.ravel(), np.einsum("tio,ti->to", T, held[-1]).ravel(),
                             minlength=n)
        rs = r[plan.skeleton]
        rs[plan.pin] = 0.0
        x = np.empty(n + 1)
        x[plan.skeleton] = _skeleton_solve(plan, factor, rs)
        for (inner, outer, T, inv), bi in zip(reversed(elims), reversed(held)):
            x[inner] = np.einsum("tij,tj->ti", inv, bi) - np.einsum("tio,to->ti", T, x[outer])
        for t in batches:
            Minv, Mt, Bt = (spaces.gather(X, t) for X in (g.Minv, Mio, Bui))
            x[g0[t]] = -y0[t] - np.einsum("tij,tj->ti", Minv, np.einsum("tio,to->ti", Mt, x[go[t]])
                                          - se * np.einsum("tui,tu->ti", Bt, x[gu[t]]))
        x[pressure] -= (b[-1] + c @ x[pressure]) / cz * z
        x[-1] = lam
        return x

    x = apply(system.rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite values")
    t3 = time.perf_counter()
    backward_error, b = _backward_error(system), system.rhs
    best = x
    best_r, omega = backward_error(x)
    residuals = [omega]
    for _ in range(REFINE_STEPS):
        if omega <= REFINE_TARGET:
            break
        x = best + apply(best_r)
        r, w = backward_error(x)
        residuals.append(w)
        if not w < omega:  # no progress, or not finite
            break
        best, best_r, omega = x, r, w
    nW, nU, nP = system.dims
    return DiscreteSolution(
        L=DiscreteField("W", best[:nW].copy()),
        u=DiscreteField("U", best[nW:nW + nU].copy()),
        p=DiscreteField("P", best[nW + nU:nW + nU + nP].copy()),
        multiplier=float(best[-1]),
        residual=float(np.linalg.norm(best_r)) / max(float(np.linalg.norm(b)), 1.0),
        skeleton=ns,
        lu_fill=fill,
        residuals=residuals,
        timings={"condense": t1 - t0, "factorize": t2 - t1, "sweep": t3 - t2,
                 "refine": time.perf_counter() - t3},
    )


def solve_case(spaces: StaggeredSpaces, eps: float, alpha: float, f, g):
    """Assemble and solve in one step; returns (solution, system)."""
    blocks = assemble_blocks(spaces, alpha)
    rhs_F, rhs_G = forms.assemble_rhs(spaces, f, g)
    system = build_system(blocks, eps, alpha, rhs_F, rhs_G)
    return solve(system), system
