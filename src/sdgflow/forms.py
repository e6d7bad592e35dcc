"""Element-by-element assembly of the staggered bilinear forms and load vectors.

The continuity constraints live in the basis: on each triangle the global
basis functions are the local dual basis (`dual_coeffs`, C below) in
orthonormal modal coefficients, so every form is a sum of small dense
per-triangle blocks C_test^T X C_trial, where X is the form on the broken
modal space of that triangle. Both depend only on the triangle's inputs that
`StaggeredSpaces` groups into classes, so the blocks of the first triangle
of every class come from one batched product and are kept one per class
(`element_matrices` returns them); the solver gathers them
(`StaggeredSpaces.gather`) a batch of triangles at a time to condense and
apply them, and `scatter` sums them into a global matrix through
`cell_dofs` where one is wanted.

X is a volume term plus edge terms on the triangle's own three sides. The
edge terms of the forms are averages {G n}, {(G n) . t} and {v . n} of a
component the space keeps single-valued across that edge, so on the
constrained spaces each average equals the triangle's own trace (for the
DOFs of that edge; it vanishes for all other DOFs). No pair of triangles
sharing an edge is visited; the own-side trace products are reference
products scaled by the half edge length, and quadrature is exact for all
polynomial integrands.

Matrix layouts (rows x cols): mass_W is nW x nW, B is nU x nW with B[i, j]
the form evaluated on (global W basis j, global U basis i), D is nP x nU.
Of each adjoint pair (B and its integrated-by-parts partner, D and its
partner) the library assembles one member; the test suite assembles the
other independently as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .spaces import StaggeredSpaces, Space

if TYPE_CHECKING:
    import scipy.sparse as sp


def _volume_derivative_blocks(spaces: StaggeredSpaces) -> np.ndarray:
    """D[t, a, i, j] = integral over class t's triangles of m_i * d_a m_j."""
    inv, detJ = spaces.by_class(spaces.invJT), spaces.by_class(spaces.detJ)  # (nC, 2, 2), (nC,)
    ref = np.stack([spaces.ref_dr, spaces.ref_ds])  # (2, nk, nk)
    return detJ[:, None, None, None] * np.einsum("tab,bij->taij", inv, ref)


def scatter(test: Space, trial: Space, local: np.ndarray) -> sp.csr_matrix:
    """Sum the element matrices local[t] (test x trial local DOFs) into the
    global matrix at the rows and columns of each triangle's cell_dofs."""
    # Imported here, the only place that builds a sparse matrix, so that
    # `import sdgflow` does not pay for scipy.sparse (about half its time).
    import scipy.sparse as sp

    # int32 indices, the CSR's own index type: int64 ones take twice the
    # bytes per entry and are copied again in the conversion.
    index = np.int32 if max(test.ndof, trial.ndof) <= np.iinfo(np.int32).max else np.int64
    rows = np.broadcast_to(test.cell_dofs.astype(index)[:, :, None], local.shape)
    cols = np.broadcast_to(trial.cell_dofs.astype(index)[:, None, :], local.shape)
    return sp.csr_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(test.ndof, trial.ndof))


def _mass(spaces: StaggeredSpaces, space: Space, scale: float) -> np.ndarray:
    # The modal basis is orthonormal on the reference triangle.
    C = space.dual_coeffs
    return (scale * spaces.by_class(spaces.detJ))[:, None, None] * (np.swapaxes(C, 1, 2) @ C)


def _side_terms(spaces: StaggeredSpaces):
    """Per (class, side): the own-trace product S[t, s, m, n] = int m_m m_n ds,
    the triangle's jump sign, the edge's normal and tangent, and whether it
    is a primal edge."""
    mesh = spaces.mesh
    te = spaces.by_class(mesh.tri_edges)
    S = (mesh.edge_length[te] / 2.0)[:, :, None, None] * spaces.side_products
    return (S, spaces.by_class(mesh.side_sign), mesh.edge_normal[te], mesh.edge_tangent[te],
            mesh.edge_primal[te])


def _reaction(spaces: StaggeredSpaces, alpha: float) -> np.ndarray:
    if not 0.0 < alpha < math.inf:
        raise ValueError("reaction coefficient must be positive and finite")
    return _mass(spaces, spaces.U, alpha)


def _coupling_B(spaces: StaggeredSpaces) -> np.ndarray:
    nk, nC = spaces.nk, spaces.num_classes
    D = _volume_derivative_blocks(spaces)  # (nC, 2, nk, nk)
    S, sign, n, tg, primal = _side_terms(spaces)
    # -[v] . {G n} over primal edges (one-sided on the boundary) and
    # -[v . t] {(G n) . t} over dual edges: rows (a, m), cols (r, c, n).
    frame = np.where(primal[:, :, None, None], np.eye(2), tg[:, :, :, None] * tg[:, :, None, :])
    coef = -sign[:, :, None, None, None] * frame[..., None] * n[:, :, None, None, :]
    # Plus the volume term int G_{ac} d_c v_a: rows (a, m), cols (a, c, n).
    X = (np.einsum("ar,tcnm->tamrcn", np.eye(2), D)
         + np.einsum("tsarc,tsmn->tamrcn", coef, S)).reshape(nC, 2 * nk, 4 * nk)
    return np.swapaxes(spaces.U.dual_coeffs, 1, 2) @ X @ spaces.W.dual_coeffs


def _divergence_D(spaces: StaggeredSpaces) -> np.ndarray:
    nk, nC = spaces.nk, spaces.num_classes
    Dv = _volume_derivative_blocks(spaces)
    S, sign, n, _tg, primal = _side_terms(spaces)
    # int v_a d_a q - {v . n} [q] over dual edges: rows q index, cols (a, m).
    coef = np.where(primal, 0.0, -sign)[:, :, None] * n
    X = (np.einsum("tamq->tqam", Dv)
         + np.einsum("tsa,tsqm->tqam", coef, S)).reshape(nC, nk, 2 * nk)
    return np.swapaxes(spaces.P.dual_coeffs, 1, 2) @ X @ spaces.U.dual_coeffs


@dataclass
class ElementMatrices:
    """Element stacks C_test^T X C_trial of the four forms, in the local DOF
    order of cell_dofs and laid out like the global blocks, one row per class
    of triangles."""

    M: np.ndarray  # (nC, nW_loc, nW_loc)
    B: np.ndarray  # (nC, nU_loc, nW_loc)
    A: np.ndarray  # (nC, nU_loc, nU_loc)
    D: np.ndarray  # (nC, nP_loc, nU_loc)


def element_matrices(spaces: StaggeredSpaces, alpha: float) -> ElementMatrices:
    """The stacks of the first triangle of each class of `spaces`, one row per
    class; `spaces.gather` reads them at the triangles."""
    return ElementMatrices(_mass(spaces, spaces.W, 1.0), _coupling_B(spaces),
                           _reaction(spaces, alpha), _divergence_D(spaces))


def assemble_B(spaces: StaggeredSpaces) -> sp.csr_matrix:
    return scatter(spaces.U, spaces.W, spaces.gather(_coupling_B(spaces)))


def assemble_D(spaces: StaggeredSpaces) -> sp.csr_matrix:
    return scatter(spaces.P, spaces.U, spaces.gather(_divergence_D(spaces)))


def _load(spaces: StaggeredSpaces, space: Space, local: np.ndarray) -> np.ndarray:
    """Global load vector: C^T local[t] summed through each triangle's cell_dofs."""
    C = spaces.gather(space.dual_coeffs)
    return np.bincount(space.cell_dofs.ravel(),
                       np.einsum("tij,ti->tj", C, local.reshape(len(local), -1)).ravel(),
                       minlength=space.ndof)


def assemble_rhs(spaces: StaggeredSpaces, f, g) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors (F, G) with F_i = int f . v_i and G_m = int g q_m."""
    X = spaces.data_points()
    nT, nq, _ = X.shape
    weighted = (spaces.data_vals * spaces.data_quad.weights).T  # (nq, nk)
    fv = np.asarray(f(X.reshape(-1, 2))).reshape(nT, nq, 2)
    Fb = spaces.detJ[:, None, None] * (np.swapaxes(fv, 1, 2) @ weighted)
    gv = np.asarray(g(X.reshape(-1, 2))).reshape(nT, nq)
    Gb = spaces.detJ[:, None] * (gv @ weighted)
    return _load(spaces, spaces.U, Fb), _load(spaces, spaces.P, Gb)
