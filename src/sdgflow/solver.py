"""Monolithic saddle-point system for the three-field formulation.

Unknowns are stacked as (gradient coefficients, velocity coefficients,
pressure coefficients, mean multiplier). After negating the gradient and
divergence rows the global matrix is symmetric indefinite; a scalar Lagrange
multiplier enforces the zero-mean pressure condition without breaking
symmetry. The solve condenses the matrix without it, whose kernel is the
constant pressure z, and finds the multiplier and the multiple of z in
closed form.

The solve condenses element by element in two stages, once per viscosity,
one batch of polygons of one size at a time. The element stacks are kept
one per class of triangles with equal local inputs (see `spaces`), and so
is stage 1: each batch condenses the classes of its triangles, not the
triangles. A class's local matrix [[-M, se B^T], [se B, A]], bordered by D
(se = sqrt(eps)), has its W and U cell moments eliminated together by a
batched dense solve (stage 1), and the remainders are gathered back to the
batch's triangles (`StaggeredSpaces.gather`) and summed per polygon. Each
polygon's dual-edge W/U moments and cell P moments are eliminated by a
second batched solve (stage 2). Both stages go through one `_condense`, and
each takes its unknowns by the column ranges that the spaces' records name
(`primal`, `dual`, `cell` of `spaces.Space`). A batch's class matrices and
its polygon matrices each stay within BATCH_BYTES, and one work buffer per
solve holds them in turn, so the only dense stacks the solve makes over the
whole mesh are the eliminations that refinement reads back. The local Schur
complements sum into the primal-edge skeleton, the W and P moments of every
primal edge; with the edge-mean P moment of one edge pinned to zero it is
negative definite.

The skeleton is factored by a multifrontal Cholesky (Liu, SIAM Review 34,
1992) on a nested dissection of the polygons (George, SIAM J. Numer. Anal.
10, 1973). The polygons are bisected at the median of their interior points,
along the longer extent of the current set, down to leaves of at most
LEAF_POLYGONS. Each primal edge is eliminated by the lowest node of the tree
whose subdomain holds all of its polygons, so the edges a node eliminates
separate its two subtrees, and the skeleton lists the edges node by node in
postorder. A node's front holds the edges it eliminates and those its
subdomain's polygons touch that an ancestor eliminates. Each batch adds
its polygons' Schur complements to their leaf fronts as soon as it condenses
them; each node eliminates its own block by a Cholesky of its negation, a
pivot that is not negative raising SolverError, and adds what remains (the
update matrix) to its parent's front. One extend-add serves both. Nodes of
one height with fronts of one shape are eliminated as one batch, and the
factor is kept as the inverse of each own block's Cholesky factor and the
rows below it, so that the triangular sweeps are matrix products.

What depends only on the mesh and k is computed once per assembly, in a
CondensationPlan: the triangles of every polygon, one local layout per
polygon size (taken from its first polygon, checked on the others) with the
place of each triangle's unknowns in it, the skeleton order, the fronts,
and the extend-add maps of every polygon into its leaf's front and of every
node into its parent's front. A new viscosity redoes stages 1 and 2 and the
Cholesky. Iterative refinement applies the saddle operator and its absolute
value element by element from the original stacks, in one pass, and the
multiplier's row and column from the pressure means, so no global saddle
matrix is formed.
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
    rows: np.ndarray  # (count, nk) extend-add: entry (i, j) of polygon g's Schur complement
    cols: np.ndarray  # (count, nk) adds to entry rows[g, i] + cols[g, j] of the leaf buffer


@dataclass
class _FrontGroup:
    """Nodes of the dissection tree of one height whose fronts share a shape,
    whose parents share a height and are distinct. A front lists the node's
    own unknowns, which it eliminates, then those of its other edges, which
    an ancestor eliminates. The fronts are dense blocks of the buffer of
    their height."""

    height: int
    own: np.ndarray  # (G, no) skeleton places of the unknowns each node eliminates
    update: np.ndarray  # (G, nu) skeleton places of the rest of its front
    base: int  # offset of the first front in the buffer of this height
    parent: int  # height of the parents, -1 at the root
    rows: np.ndarray  # (G, nu) extend-add: entry (i, j) of node g's update matrix adds to
    cols: np.ndarray  # (G, nu) entry rows[g, i] + cols[g, j] of the buffer of the parents' height


@dataclass
class CondensationPlan:
    """Layout of the condensation; depends only on mesh and k.

    Stage 1 eliminates a triangle's W and U cell moments, stage 2 a
    polygon's `interior` unknowns (kept per size class); the skeleton is
    what both keep. Each triangle's local unknowns are its W and U cell
    moments, the num_inner that stage 1 eliminates, then per space its
    `primal` and `dual` columns, and the P `cell` ones: W edge moments, U
    edge moments and P cell_dofs.

    The skeleton is ordered by a nested dissection of the polygons: each
    primal edge is eliminated by the lowest node whose subdomain holds all of
    its polygons, and the skeleton lists the edges node by node in postorder.
    `fronts` groups the nodes for the multifrontal Cholesky, heights in
    increasing order; `front_sizes` is the size of the front buffer of each
    height. The plan keeps maps, not places: each size class maps its
    polygons' Schur complements into the buffer of the leaves, height 0, and
    each front group its update matrices into the buffer of its parents.
    """

    size: int  # number of eliminated unknowns
    num_inner: int
    local: np.ndarray  # (nT, nloc) local unknowns of each triangle
    classes: list[_SizeClass]
    skeleton: np.ndarray  # (ns,) saddle unknowns in elimination order
    fronts: list[_FrontGroup]
    front_sizes: list[int]
    pin: int  # skeleton place of the moment pinned to zero
    pinned: np.ndarray  # leaf-buffer places of its row and column off the diagonal


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


def _dissect(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nested dissection of the polygons at `points`: bisect them at the
    median along the longer extent of the current set, down to leaves of at
    most LEAF_POLYGONS. Returns each node's parent (-1 at the root) and height
    (0 at a leaf), nodes in postorder, and each polygon's leaf."""
    parent, height, leaf = [], [], np.empty(len(points), dtype=int)

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
        height.append(1 + max((height[child] for child in children), default=-1))
        for child in children:
            parent[child] = len(parent) - 1
        return len(parent) - 1

    split(np.arange(len(points)))
    return np.array(parent), np.array(height), leaf


def _fronts(parent: np.ndarray, height: np.ndarray, owner: np.ndarray,
            touch: tuple[np.ndarray, np.ndarray],
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
        groups.append(_FrontGroup(int(h), own, update, int(fbase[nodes[0]]), int(hp),
                                  fbase[up, None] + cols * (nfe[up, None] * k3), cols))
    return groups, sizes, fbase, nfe, keys


def _condensation_plan(spaces: StaggeredSpaces) -> CondensationPlan:
    mesh, W, U, P = spaces.mesh, spaces.W, spaces.U, spaces.P
    nW, nU, nT = W.ndof, U.ndof, mesh.num_triangles
    n = nW + nU + P.ndof
    tri_poly = mesh.tri_poly
    spaced = ((W, 0), (U, nW), (P, nW + nU))  # each space and its first unknown
    # Each triangle's local unknowns are its W and U cell moments, which
    # stage 1 removes, then per space its primal-side unknowns, which the
    # skeleton (0) keeps, and its dual-side ones, which stage 2 removes with
    # the P cell moments.
    parts = [(W.cell_dofs[:, W.cell], 1), (nW + U.cell_dofs[:, U.cell], 1)]
    for X, at in spaced:
        parts += [(at + X.cell_dofs[:, X.primal], 0), (at + X.cell_dofs[:, X.dual], 2)]
    parts.append((nW + nU + P.cell_dofs[:, P.cell], 2))
    local = np.hstack([dofs for dofs, _ in parts])
    stage = np.repeat([st for _, st in parts], [dofs.shape[1] for dofs, _ in parts])
    del parts
    ni = int(np.count_nonzero(stage == 1))
    _owners(n, local[:, :ni], np.arange(nT), "triangle")
    inner = _owners(n, local[:, stage == 2], tri_poly, "polygon") >= 0  # stage 2's unknowns

    # Skeleton order: the primal edges node by node of the dissection tree,
    # in mesh order within a node; per edge its W then its P moments. Each
    # edge is eliminated by the lowest node whose subtree, a postorder range
    # of nodes, holds the leaves of all its polygons: up from the first leaf
    # until the node passes the last.
    prim = mesh.primal_edge_ids
    parent, height, leaf = _dissect(mesh.primal.interior_points)
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
    fronts, front_sizes, fbase, nfe, keys = _fronts(parent, height, owner[order],
                                                    (tri_leaf, tri_edge), k3)
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
    layouts = []
    for m in np.unique(sizes):
        tris = by_poly[tri_first[sizes == m, None] + np.arange(m)]
        dofs = local[tris, ni:]  # (count, m, nr) outer unknowns
        first = dofs[0].ravel()
        uniq, position = np.unique(~inner[first] * n + first, return_inverse=True)
        position = position.reshape(dofs.shape[1:])
        n2 = np.count_nonzero(uniq < n)
        layout = np.empty((len(tris), len(uniq)), dtype=dofs.dtype)
        layout[:, position] = dofs
        # Every polygon must list one unknown per place, each in one place,
        # and its stage-2 unknowns in the first n2 places.
        if (np.any(layout[:, position] != dofs)
                or np.any(np.diff(np.sort(layout, axis=1), axis=1) == 0)
                or np.any(inner[layout] != (np.arange(len(uniq)) < n2))):
            raise SolverError(f"{m}-gon polygons have different local layouts")
        layouts.append((tris, position, layout[:, :n2], layout[:, n2:]))
    del inner
    where = np.full(n, -1)
    where[skeleton] = np.arange(ns)
    classes, pinned = [], []
    for tris, position, interior, kept in layouts:
        m, n2, nkept = tris.shape[1], interior.shape[1], kept.shape[1]
        # The triangle of each skeleton place; its unknowns must lie on that
        # triangle's primal edge, which the polygon's leaf front holds.
        tri_of = np.empty(nkept, dtype=int)
        outer = position >= n2
        tri_of[position[outer] - n2] = np.nonzero(outer)[0]
        rows = where[kept]
        if np.any(rows // k3 != tri_edge[tris][:, tri_of]):
            raise SolverError(f"{m}-gon polygons list skeleton unknowns off their primal edges")
        # Row and column of each skeleton unknown in the polygon's leaf front.
        node = tri_leaf[tris[:, 0], None]
        pos = (np.searchsorted(keys, node * len(prim) + rows // k3) - np.searchsorted(
            keys, node * len(prim))) * k3 + rows % k3
        cls = _SizeClass(tris, position, interior, kept, fbase[node] + pos * (nfe[node] * k3), pos)
        # The places of the pinned moment's row and column, off the diagonal.
        g, i = np.nonzero(rows == pin)
        c, ci = pos[g], pos[g, i, None]
        pinned.append(np.where(c < ci, cls.rows[g, i, None] + c, cls.rows[g] + ci)[c != ci])
        classes.append(cls)
    return CondensationPlan(n - len(skeleton), ni, local, classes, skeleton, fronts, front_sizes,
                            pin, np.concatenate(pinned))


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
class SystemBlocks:
    """Element stacks of the forms, one row per class of triangles, the
    pressure means c (sqrt(1/2) on each triangle's first P cell moment, 0
    elsewhere), the constant pressure z and the condensation plan. The
    global M, B, A and D are built on access, for inspection only."""

    spaces: StaggeredSpaces = field(repr=False)
    alpha: float  # reaction coefficient of the A stack
    elements: forms.ElementMatrices = field(repr=False)
    c: np.ndarray  # (nP,) pressure means
    z: np.ndarray  # (nP,) the constant pressure 1
    interior: CondensationPlan = field(repr=False)

    M = _global_block("W", "W", "M", "nW x nW gradient mass")
    B = _global_block("U", "W", "B", "nU x nW coupling")
    A = _global_block("U", "U", "A", "nU x nU reaction mass")
    D = _global_block("P", "U", "D", "nP x nU divergence coupling")


def assemble_blocks(spaces: StaggeredSpaces, alpha: float) -> SystemBlocks:
    el = forms.element_matrices(spaces, alpha)  # one row per class of triangles
    # int_T q is sqrt(1/2) times T's first P cell moment: all other modal functions have mean 0.
    c = np.zeros(spaces.P.ndof)
    c[spaces.P.cell_dofs[:, spaces.P.cell.start]] = math.sqrt(0.5)
    z = spaces.interpolate("P", lambda x: np.ones(len(x))).coeffs
    return SystemBlocks(spaces, alpha, el, c, z, _condensation_plan(spaces))


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
# Byte budget of one batch of polygons: the local matrices of the classes of
# its triangles, and then its polygon matrices, each stay within it. Every
# problem on an h = 1/4 grid, k <= 3, eliminates each size class in one batch.
BATCH_BYTES = 3 << 20
# Byte budget of the update matrices that one extend-add adds to their
# parents' fronts, so that they are added while in cache: at square h = 1/64,
# k = 2, the factorization took a median 0.93 s this way and 1.02 s with
# whole groups (five runs each, 1 BLAS thread).
EXTEND_BYTES = 1 << 19


def _local_matrices(spaces: StaggeredSpaces, el: forms.ElementMatrices, eps: float,
                    rows, K: np.ndarray) -> np.ndarray:
    """The saddle matrices of the classes of triangles `rows`, a slice or an
    index array, rows and columns in the plan's local order: W cell moments,
    U cell moments, W edge moments, U edge moments, P cell_dofs. They are
    written to K, which holds one per class."""
    W, U, se = spaces.W, spaces.U, math.sqrt(eps)
    nw, nu = el.M.shape[1], el.A.shape[1]
    ni = nw - W.cell.start + nu - U.cell.start
    K.fill(0.0)
    M, B, A, D = (X[rows] for X in (el.M, el.B, el.A, el.D))
    # (local, stack) slices of each field; the cell moments are moved first.
    w = ((slice(0, nw - W.cell.start), W.cell), (slice(ni, ni + W.cell.start), W.edges))
    u = ((slice(nw - W.cell.start, ni), U.cell), (slice(ni + W.cell.start, nw + nu), U.edges))
    p = ((slice(nw + nu, None), slice(None)),)
    Bt, Dt = np.swapaxes(B, 1, 2), np.swapaxes(D, 1, 2)
    # Copy the blocks by slices; fancy indexing is several times slower.
    for rows, cols, X, scale in ((w, w, M, -1.0), (u, w, B, se), (w, u, Bt, se),
                                 (u, u, A, 1.0), (p, u, D, 1.0), (u, p, Dt, 1.0)):
        for rt, rs in rows:
            for ct, cs in cols:
                np.multiply(X[:, rs, cs], scale, out=K[:, rt, ct])
    return K


def _condense(K: np.ndarray, ni: int, owner: str, T: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Batched Schur complements of the dense local matrices K onto their
    trailing unknowns. Writes Kii^{-1} Kio to T and Kii^{-1} to inv and
    returns the complements."""
    Kio = K[:, :ni, ni:]
    try:
        inv[...] = np.linalg.inv(K[:, :ni, :ni])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular {owner} block: {exc}") from exc
    np.matmul(inv, Kio, out=T)
    # K is symmetric, so Koi Kii^{-1} = T^T.
    S = np.swapaxes(Kio, 1, 2) @ T
    return np.subtract(K[:, ni:, ni:], S, out=S)


def _extend_add(out: np.ndarray, blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Add each entry (i, j) of block g on or below its front's diagonal,
    cols[g, i] >= cols[g, j], to out[rows[g, i] + cols[g, j]], repeated
    targets summed: the fronts hold the lower triangles that potrf reads."""
    lower = cols[:, :, None] >= cols[:, None, :]
    np.add.at(out, (rows[:, :, None] + cols[:, None, :])[lower], blocks[lower])


def _factor(plan: CondensationPlan,
            buffers: dict[int, np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Multifrontal Cholesky of the negated skeleton, A = -S = L L^T.

    `buffers` holds the front buffers by height, the leaves' (0) filled with
    the local Schur complements. Each group of fronts, heights in increasing
    order, eliminates its own block, F11 = -L11 L11^T, and adds its update
    matrix F22 + L21 L21^T to the parents' fronts, with L21 = -F21 L11^{-T};
    a buffer is dropped once its fronts are done. Returns L11^{-1} and L21 of
    every group, what the triangular sweeps of `_skeleton_solve` read."""
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
            for a in range(0, count, step):
                s = slice(a, a + step)
                update = F[s, no:, no:] + L21[s] @ np.swapaxes(L21[s], 1, 2)
                _extend_add(buffers[grp.parent], update, grp.rows[s], grp.cols[s])
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
    element matrices, then iterative refinement against the original element
    stacks."""
    plan, n = system.blocks.interior, sum(system.dims)
    el, spaces = system.blocks.elements, system.blocks.spaces
    tri_class = spaces.tri_class
    t0 = time.perf_counter()
    nl, ni = plan.local.shape[1], plan.num_inner
    # Stage 1 is kept one row per class, written by each batch whose
    # triangles are of that class.
    T1, inv1 = np.empty((spaces.num_classes, ni, nl - ni)), np.empty((spaces.num_classes, ni, ni))
    # Each batch adds its polygons' Schur complements to the leaf fronts.
    buffers, elims = {0: np.zeros(plan.front_sizes[0])}, []
    # One work buffer, allocated once per solve, holds a batch's class
    # matrices and then, once they are condensed, its polygon matrices. A
    # batch of p m-gons condenses at most min(p m, nc) classes, nc those of
    # the size class.
    steps, size, fit = [], 0, BATCH_BYTES // (8 * nl * nl)
    for cls in plan.classes:
        (count, m), N = cls.triangles.shape, cls.interior.shape[1] + cls.kept.shape[1]
        nc = len(np.unique(tri_class[cls.triangles]))
        polygons = min(count if nc <= fit else fit // m, BATCH_BYTES // (8 * N * N))
        steps.append(min(count, max(1, polygons)))
        size = max(size, min(steps[-1] * m, nc) * nl * nl, steps[-1] * N * N)
    work = np.empty(size)
    for cls, step in zip(plan.classes, steps):
        (count, m), n2, nk = cls.triangles.shape, cls.interior.shape[1], cls.kept.shape[1]
        N = n2 + nk
        T2, inv2 = np.empty((count, n2, nk)), np.empty((count, n2, n2))
        for a in range(0, count, step):
            b = min(a + step, count)
            # The classes of the batch's triangles, and the class of each.
            rows, of = np.unique(tri_class[cls.triangles[a:b]], return_inverse=True)
            of, K = of.reshape(b - a, m), work[:len(rows) * nl * nl].reshape(-1, nl, nl)
            if rows[-1] - rows[0] == len(rows) - 1:  # a run: views, not copies
                rows = slice(rows[0], rows[-1] + 1)
            T, inv = T1[rows], inv1[rows]
            S1 = _condense(_local_matrices(spaces, el, system.eps, rows, K), ni, "triangle", T, inv)
            if not isinstance(rows, slice):  # copies: write them back
                T1[rows], inv1[rows] = T, inv
            # Sum the remainders into the batch's polygon matrices, each
            # entry over its polygon's triangles in increasing order; no
            # place repeats within one triangle.
            Kp = work[:(b - a) * N * N].reshape(-1, N, N)
            Kp.fill(0.0)
            for i, pos in enumerate(cls.position):
                Kp[:, pos[:, None], pos] += S1[of[:, i]]
            del S1
            _extend_add(buffers[0], _condense(Kp, n2, "polygon", T2[a:b], inv2[a:b]),
                        cls.rows[a:b], cls.cols[a:b])
        # The stage-2 elimination record of the class: the unknowns it
        # removes, those it keeps, Kii^{-1} Kio and Kii^{-1}.
        elims.append((cls.interior, cls.kept, T2, inv2))
    del work, K, Kp
    ns = len(plan.skeleton)
    buffers[0][plan.pinned] = 0.0
    t1 = time.perf_counter()
    # Pinned, the skeleton is negative definite; its Cholesky finds out.
    factor = _factor(plan, buffers)
    # Entries of L: the lower triangle of each own block and the rows below.
    fill = sum(len(inv) * inv.shape[1] * (inv.shape[1] + 1 + 2 * L21.shape[1]) // 2
               for inv, L21 in factor)
    t2 = time.perf_counter()

    # Stage 1 runs over the triangles in batches of at most BATCH_BYTES of
    # the rows of T1 and inv1 that it gathers.
    cells, rest = plan.local[:, :ni], plan.local[:, ni:]
    step = max(1, BATCH_BYTES // (8 * (T1[0].size + inv1[0].size)))
    batches = [slice(a, a + step) for a in range(0, len(cells), step)]
    c, z = system.blocks.c, system.blocks.z
    pressure, cz = slice(n - len(z), n), c @ z

    def apply(b: np.ndarray) -> np.ndarray:
        # The multiplier puts the pressure rows in the range of the matrix
        # without it, whose kernel is z; b is then solved with the pinned
        # moment zero, and the multiple of z added that gives the mean.
        lam = -(z @ b[pressure]) / cz
        r = b[:n].copy()
        r[pressure] += lam * c
        # r of each stage's unknowns when it eliminates them; no other
        # elimination updates the cell moments of a triangle.
        held1, moved = r[cells], np.empty(rest.shape)
        for t in batches:
            moved[t] = np.einsum("tio,ti->to", spaces.gather(T1, t), held1[t])
        r -= np.bincount(rest.ravel(), moved.ravel(), minlength=n)
        del moved
        held = []
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
            x[cells[t]] = (np.einsum("tij,tj->ti", spaces.gather(inv1, t), held1[t])
                           - np.einsum("tio,to->ti", spaces.gather(T1, t), x[rest[t]]))
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
