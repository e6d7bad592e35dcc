"""Monolithic saddle-point system for the three-field formulation.

Unknowns are stacked as (gradient coefficients, velocity coefficients,
pressure coefficients, mean multiplier). After negating the gradient and
divergence rows the global matrix is symmetric indefinite; a scalar
Lagrange multiplier enforces the zero-mean pressure condition without
breaking symmetry.
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
class SystemBlocks:
    M: sp.csr_matrix  # nW x nW gradient mass
    B: sp.csr_matrix  # nU x nW coupling
    A: sp.csr_matrix  # nU x nU reaction mass
    D: sp.csr_matrix  # nP x nU divergence coupling
    c: np.ndarray  # (nP,) pressure means
    # Stacked indices of the interior (per-triangle) gradient/velocity
    # unknowns, shape (nT, m).  These never couple across triangles, so the
    # corresponding diagonal block of the saddle matrix is block-diagonal and
    # can be eliminated exactly before factorizing the rest.
    interior: np.ndarray | None = field(default=None, repr=False)


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


def _interior_indices(spaces: StaggeredSpaces) -> np.ndarray | None:
    """Per-triangle stacked indices of interior W and U unknowns, (nT, m)."""
    W, U = spaces.W.dofmap, spaces.U.dofmap
    interior = np.hstack([W.cell_entries, W.ndof + U.cell_entries])
    return interior if interior.shape[1] else None


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
        interior=_interior_indices(spaces),
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


# Systems above this size are solved through static condensation by default;
# below it a plain factorization is cheaper than the extra sparse algebra.
CONDENSE_THRESHOLD = 20_000

# Iterative refinement: cheap re-solves with the existing factorization that
# recover the digits lost to cancellation in ill-conditioned regimes (small
# viscosity), where a single factorized solve can be several digits short.
REFINE_STEPS = 5
REFINE_TARGET = 1e-12


def _direct_solver(system: SaddleSystem):
    lu = spla.splu(system.matrix)
    return lu.solve


def _condensed_solver(system: SaddleSystem):
    """Eliminate the per-triangle interior unknowns, then factorize the rest.

    The interior gradient/velocity block is block-diagonal (one small dense
    block per triangle) and symmetric quasi-definite, so it is inverted
    exactly and folded into a Schur complement on the skeleton unknowns.
    """
    cells = system.blocks.interior
    assert cells is not None
    nT, m = cells.shape
    n = system.matrix.shape[0]
    cidx = cells.reshape(-1)
    mask = np.ones(n, dtype=bool)
    mask[cidx] = False
    ridx = np.nonzero(mask)[0]
    nr = len(ridx)

    # Reorder skeleton unknowns first, interiors last, then slice the four
    # blocks from the single permuted copy.  The matrix is symmetric, so the
    # lower coupling block is the transpose of the upper one.
    perm = np.concatenate([ridx, cidx])
    Kp = system.matrix.tocsr()[perm].tocsc()[:, perm].tocsr()
    Krr = Kp[:nr, :nr]
    Krc = Kp[:nr, nr:].tocsr()
    Kcc = Kp[nr:, nr:].tocoo()
    del Kp

    br, bc = Kcc.row // m, Kcc.col // m
    off = br != bc
    if np.any(off):
        # Cross-triangle entries are roundoff from traces that vanish
        # analytically; anything larger means the elimination is invalid.
        scale = np.abs(Kcc.data[~off]).max()
        if np.abs(Kcc.data[off]).max() > 1e-10 * scale:
            raise SolverError("interior unknowns couple across triangles")
        keep = ~off
        br = br[keep]
        Kcc = sp.coo_matrix(
            (Kcc.data[keep], (Kcc.row[keep], Kcc.col[keep])), shape=Kcc.shape
        )
    dense = np.zeros((nT, m, m))
    dense[br, Kcc.row % m, Kcc.col % m] = Kcc.data
    del Kcc
    try:
        inv = np.linalg.inv(dense)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular interior block: {exc}") from exc
    del dense
    Kcc_inv = sp.bsr_matrix(
        (inv, np.arange(nT), np.arange(nT + 1)), shape=(nT * m, nT * m)
    ).tocsr()
    del inv

    T1 = Krc @ Kcc_inv
    S = _prune(Krr - T1 @ Krc.T).tocsc()
    lu = spla.splu(S)

    def apply(b: np.ndarray) -> np.ndarray:
        bc_ = b[cidx]
        xr = lu.solve(b[ridx] - T1 @ bc_)
        xc = Kcc_inv @ (bc_ - Krc.T @ xr)
        x = np.empty(n)
        x[ridx] = xr
        x[cidx] = xc
        return x

    return apply


def solve(system: SaddleSystem, method: str = "auto") -> DiscreteSolution:
    """Direct sparse solve of the saddle system.

    method: "auto" picks static condensation for large systems, "direct"
    factorizes the full matrix, "condensed" forces the condensed path.
    """
    if method not in ("auto", "direct", "condensed"):
        raise ValueError(f"unknown solve method {method!r}")
    condense = system.blocks.interior is not None and (
        method == "condensed"
        or (method == "auto" and system.num_unknowns > CONDENSE_THRESHOLD)
    )
    if method == "condensed" and system.blocks.interior is None:
        raise SolverError("no interior unknowns to condense at this order")
    try:
        apply = _condensed_solver(system) if condense else _direct_solver(system)
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
    for _ in range(REFINE_STEPS):
        if best_res <= REFINE_TARGET:
            break
        x = best + apply(system.rhs - system.matrix @ best)
        res = float(np.linalg.norm(system.matrix @ x - system.rhs)) / bnorm
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
    )


def solve_case(spaces: StaggeredSpaces, eps: float, alpha: float, f, g,
               method: str = "auto"):
    """Assemble and solve in one step; returns (solution, system)."""
    blocks = assemble_blocks(spaces, alpha)
    rhs_F, rhs_G = forms.assemble_rhs(spaces, f, g)
    system = build_system(blocks, eps, alpha, rhs_F, rhs_G)
    return solve(system, method=method), system
