"""Monolithic saddle-point system for the three-field formulation.

Unknowns are stacked as (gradient coefficients, velocity coefficients,
pressure coefficients, mean multiplier). After negating the gradient and
divergence rows the global matrix is symmetric indefinite; a scalar
Lagrange multiplier enforces the zero-mean pressure condition without
breaking symmetry.

The solve eliminates the cell W/U unknowns of each triangle (stage 1), then
the dual-edge W/U and cell P unknowns of each polygon (stage 2), and
factorizes what remains: the primal-edge W and P moments and the multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import forms
from .spaces import DiscreteField, StaggeredSpaces


class SolverError(RuntimeError):
    """Singular factorization; the discrete system should be uniquely solvable."""


@dataclass
class InteriorGroups:
    """Owner of each saddle unknown: its triangle in stage 1, its polygon in
    stage 2, -1 where the stage keeps it. Kept by both: the skeleton."""

    triangle: np.ndarray
    polygon: np.ndarray

    @property
    def size(self) -> int:
        """Number of eliminated unknowns."""
        return int(np.count_nonzero(self.triangle >= 0) + np.count_nonzero(self.polygon >= 0))


@dataclass
class SystemBlocks:
    M: sp.csr_matrix  # nW x nW gradient mass
    B: sp.csr_matrix  # nU x nW coupling
    A: sp.csr_matrix  # nU x nU reaction mass
    D: sp.csr_matrix  # nP x nU divergence coupling
    c: np.ndarray  # (nP,) pressure means
    interior: InteriorGroups = field(repr=False)


@dataclass
class SaddleSystem:
    blocks: SystemBlocks
    eps: float
    alpha: float
    rhs_F: np.ndarray
    rhs_G: np.ndarray
    matrix: sp.csc_matrix
    rhs: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int]:
        return (
            self.blocks.M.shape[0],
            self.blocks.A.shape[0],
            self.blocks.D.shape[0],
        )

    @property
    def num_unknowns(self) -> int:
        return self.matrix.shape[0]


@dataclass
class DiscreteSolution:
    L: DiscreteField
    u: DiscreteField
    p: DiscreteField
    multiplier: float
    residual: float
    skeleton: int  # size of the factorized matrix
    lu_fill: int  # nonzeros of its L and U factors
    residuals: list[float]  # relative residual after each refinement step


def _interior_groups(spaces: StaggeredSpaces) -> InteriorGroups:
    """Stage-1 triangle and stage-2 polygon owners of every saddle unknown."""
    W, U, P = spaces.W.dofmap, spaces.U.dofmap, spaces.P.dofmap
    k1, nW, nU = spaces.k + 1, W.ndof, U.ndof
    triangle = np.full(nW + nU + P.ndof + 1, -1)  # the multiplier is last
    polygon = triangle.copy()
    tri = np.arange(spaces.mesh.num_triangles)[:, None]
    poly = spaces.mesh.tri_poly[:, None]
    triangle[W.cell_entries] = triangle[nW + U.cell_entries] = tri
    # Local DOF order: primal side, the two dual sides, cell. Both triangles
    # of a dual edge lie in one polygon.
    polygon[W.cell_dofs[:, 2 * k1:4 * k1]] = polygon[nW + U.cell_dofs[:, :2 * k1]] = poly
    polygon[nW + nU + P.cell_entries] = poly
    return InteriorGroups(triangle, polygon)


def _prune(matrix: sp.csr_matrix, rel_tol: float = 1e-13) -> sp.csr_matrix:
    """Drop stored entries that are roundoff relative to the block's scale.

    The dual-basis products generate many analytically-zero integrals whose
    floating-point residue would otherwise dominate the sparsity pattern.
    """
    matrix = matrix.tocsr()
    scale = np.abs(matrix.data).max() if matrix.nnz else 0.0
    if scale > 0.0:
        matrix.data[np.abs(matrix.data) < rel_tol * scale] = 0.0
        matrix.eliminate_zeros()
    return matrix


def assemble_blocks(spaces: StaggeredSpaces, alpha: float) -> SystemBlocks:
    return SystemBlocks(
        M=_prune(forms.assemble_mass_W(spaces)),
        B=_prune(forms.assemble_B(spaces)),
        A=_prune(forms.assemble_mass_U(spaces, alpha)),
        D=_prune(forms.assemble_D(spaces)),
        c=forms.mean_vector(spaces),
        interior=_interior_groups(spaces),
    )


def build_system(blocks: SystemBlocks, eps: float, alpha: float,
                 rhs_F: np.ndarray, rhs_G: np.ndarray) -> SaddleSystem:
    """Assemble the symmetric saddle-point matrix and right-hand side."""
    if eps <= 0.0:
        raise ValueError("viscosity must be positive")
    nW = blocks.M.shape[0]
    nU, nP = blocks.A.shape[0], blocks.D.shape[0]
    if blocks.B.shape != (nU, nW) or blocks.D.shape[1] != nU or len(blocks.c) != nP:
        raise ValueError("block dimensions are inconsistent")
    if len(rhs_F) != nU or len(rhs_G) != nP:
        raise ValueError("right-hand side dimensions are inconsistent")
    se = math.sqrt(eps)
    ccol = sp.csr_matrix(blocks.c.reshape(-1, 1))
    K = sp.bmat(
        [
            [-blocks.M, se * blocks.B.T, None, None],
            [se * blocks.B, blocks.A, blocks.D.T, None],
            [None, blocks.D, None, -ccol],
            [None, None, -ccol.T, None],
        ],
        format="csc",
    )
    rhs = np.concatenate([np.zeros(nW), rhs_F, -rhs_G, [0.0]])
    return SaddleSystem(blocks, eps, alpha, rhs_F, rhs_G, K, rhs)


# Iterative refinement: cheap re-solves with the existing factorization that
# recover the digits lost to cancellation in ill-conditioned regimes (small
# viscosity), where a single factorized solve can be several digits short.
REFINE_STEPS = 5
REFINE_TARGET = 1e-12


def _eliminate(K: sp.spmatrix, group: np.ndarray, owner: str):
    """Schur complement of K onto the unknowns whose group is -1.

    The other unknowns must not couple across groups, so their block of K is
    block diagonal with one dense block per group; blocks of equal size are
    inverted in one batch. Returns the Schur complement and `lift`, which
    turns a solver of the Schur complement into a solver of K.
    """
    elim = np.flatnonzero(group >= 0)
    if not elim.size:
        return K, lambda inner: inner
    keep = np.flatnonzero(group < 0)
    _, gid, sizes = np.unique(group[elim], return_inverse=True, return_counts=True)
    # Order by block size, then by group: each size class is one run of
    # equal consecutive blocks.
    order = np.lexsort((gid, sizes[gid]))
    elim, gid = elim[order], gid[order]
    nr = len(keep)
    perm = np.concatenate([keep, elim])
    Kp = K.tocsr()[perm].tocsc()[:, perm].tocsr()
    Krr, Krc, Kcr = Kp[:nr, :nr], Kp[:nr, nr:], Kp[nr:, :nr]
    Kcc = Kp[nr:, nr:].tocoo()
    del Kp
    cross = gid[Kcc.row] != gid[Kcc.col]
    # Cross-group entries are roundoff from traces that vanish analytically;
    # anything larger means the elimination is invalid.
    if np.abs(Kcc.data[cross]).max(initial=0.0) > 1e-10 * np.abs(Kcc.data).max(initial=0.0):
        raise SolverError(f"interior unknowns couple across {owner}s")

    batches, start = [], 0
    for m, count in zip(*np.unique(sizes, return_counts=True)):
        end = start + m * count
        sel = ~cross & (Kcc.row >= start) & (Kcc.row < end)
        r, c = Kcc.row[sel] - start, Kcc.col[sel] - start
        dense = np.zeros((count, m, m))
        dense[r // m, r % m, c % m] = Kcc.data[sel]
        try:
            inv = np.linalg.inv(dense)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular {owner} block: {exc}") from exc
        batches.append(sp.bsr_matrix((inv, np.arange(count), np.arange(count + 1)),
                                     shape=(end - start, end - start)))
        start = end
    Kcc_inv = sp.block_diag(batches, format="csr")
    T = Krc @ Kcc_inv
    S = _prune(Krr - T @ Kcr)

    def lift(inner):
        def apply(b: np.ndarray) -> np.ndarray:
            bc = b[elim]
            xr = inner(b[keep] - T @ bc)
            x = np.empty(len(b))
            x[keep] = xr
            x[elim] = Kcc_inv @ (bc - Kcr @ xr)
            return x
        return apply

    return S, lift


def solve(system: SaddleSystem) -> DiscreteSolution:
    """Direct solve of the saddle system by two-stage static condensation,
    followed by iterative refinement against the full matrix."""
    groups = system.blocks.interior
    try:
        S1, lift1 = _eliminate(system.matrix, groups.triangle, "triangle")
        S, lift2 = _eliminate(S1, groups.polygon[groups.triangle < 0], "polygon")
        del S1
        # The skeleton Schur complement is symmetric: minimum-degree ordering
        # of A^T + A and diagonal pivots where they are at least 0.01 of the
        # column maximum (0.1 multiplies the fill at small viscosity).
        lu = spla.splu(S.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                       options=dict(SymmetricMode=True))
        apply = lift1(lift2(lu.solve))
        x = apply(system.rhs)
    except RuntimeError as exc:
        if isinstance(exc, SolverError):
            raise
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite values")
    bnorm = max(float(np.linalg.norm(system.rhs)), 1.0)
    best = x
    best_res = float(np.linalg.norm(system.matrix @ x - system.rhs)) / bnorm
    residuals = [best_res]
    for _ in range(REFINE_STEPS):
        if best_res <= REFINE_TARGET:
            break
        x = best + apply(system.rhs - system.matrix @ best)
        res = float(np.linalg.norm(system.matrix @ x - system.rhs)) / bnorm
        residuals.append(res)
        if not np.isfinite(res) or res >= best_res:
            break
        best, best_res = x, res
    nW, nU, nP = system.dims
    return DiscreteSolution(
        L=DiscreteField("W", best[:nW].copy()),
        u=DiscreteField("U", best[nW:nW + nU].copy()),
        p=DiscreteField("P", best[nW + nU:nW + nU + nP].copy()),
        multiplier=float(best[-1]),
        residual=best_res,
        skeleton=S.shape[0],
        lu_fill=lu.L.nnz + lu.U.nnz,
        residuals=residuals,
    )


def solve_case(spaces: StaggeredSpaces, eps: float, alpha: float, f, g):
    """Assemble and solve in one step; returns (solution, system)."""
    blocks = assemble_blocks(spaces, alpha)
    rhs_F, rhs_G = forms.assemble_rhs(spaces, f, g)
    system = build_system(blocks, eps, alpha, rhs_F, rhs_G)
    return solve(system), system
