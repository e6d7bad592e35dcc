"""Sparse assembly of the staggered bilinear forms and load vectors.

Every form is first assembled on the broken per-triangle modal space, then
compressed onto the staggered global spaces with the embedding matrices.
The assembly is batched: volume terms come from one stack of reference
derivative blocks, and each edge term from the spaces' edge pairs, whose
trace products are reference products scaled by the half edge length.
On the constrained spaces the averaged trace of a continuous component
coincides with its single value, so the assembled matrices realize the
forms exactly; quadrature is exact for all polynomial integrands.

Matrix layouts (rows x cols): mass_W is nW x nW, B is nU x nW with B[i, j]
the form evaluated on (global W basis j, global U basis i), D is nP x nU.
Of each adjoint pair (B and its integrated-by-parts partner, D and its
partner) the library assembles one member; the test suite assembles the
other independently as the oracle.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from .spaces import StaggeredSpaces


def _volume_derivative_blocks(spaces: StaggeredSpaces) -> np.ndarray:
    """D[t, a, i, j] = integral over triangle t of m_i * d_a m_j."""
    inv = spaces.invJT  # (nT, 2, 2)
    ref = np.stack([spaces.ref_dr, spaces.ref_ds])  # (2, nk, nk)
    return spaces.detJ[:, None, None, None] * np.einsum("tab,bij->taij", inv, ref)


def _block_triplets(row0: np.ndarray, col0: np.ndarray, vals: np.ndarray):
    """COO triplets placing block vals[p] (nr, nc) at corner (row0[p], col0[p])."""
    _, nr, nc = vals.shape
    rows = np.broadcast_to(row0[:, None, None] + np.arange(nr)[:, None], vals.shape)
    cols = np.broadcast_to(col0[:, None, None] + np.arange(nc), vals.shape)
    return rows.ravel(), cols.ravel(), vals.ravel()


def _csr(shape, triplets) -> sp.csr_matrix:
    rows, cols, vals = (np.concatenate(x) for x in zip(*triplets))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def _edge_pair_terms(spaces: StaggeredSpaces):
    """Per edge pair: S[p, m, n] = int_e m_m^(ti) m_n^(tj) ds, the averaged
    jump weight sign/N (N triangles on the edge), and the edge's frame."""
    pairs = spaces.edge_pairs
    e = pairs.edge
    S = (spaces.edge_length[e] / 2.0)[:, None, None] * spaces.trace_products[pairs.ai, pairs.aj]
    weight = pairs.sign / spaces.edge_ntris[e]
    return S, weight, spaces.edge_normal[e], spaces.edge_tangent[e], spaces.edge_primal[e]


def assemble_mass_W(spaces: StaggeredSpaces) -> sp.csr_matrix:
    nk = spaces.nk
    diag = np.repeat(spaces.detJ, 4 * nk)
    E = spaces.W.embedding
    return (E.T @ sp.diags(diag) @ E).tocsr()


def assemble_mass_U(spaces: StaggeredSpaces, alpha: float) -> sp.csr_matrix:
    if alpha <= 0.0:
        raise ValueError("reaction coefficient must be positive")
    nk = spaces.nk
    diag = alpha * np.repeat(spaces.detJ, 2 * nk)
    E = spaces.U.embedding
    return (E.T @ sp.diags(diag) @ E).tocsr()


def _assemble_B_broken(spaces: StaggeredSpaces) -> sp.csr_matrix:
    nk = spaces.nk
    nT = spaces.mesh.num_triangles
    t = np.arange(nT)
    D = _volume_derivative_blocks(spaces)  # (nT, 2, nk, nk)
    parts = []
    for a in range(2):
        for c in range(2):
            # int G_{ac} d_c v_a: rows (a, m), cols (a, c, n).
            parts.append(_block_triplets(t * 2 * nk + a * nk,
                                         t * 4 * nk + (2 * a + c) * nk,
                                         np.swapaxes(D[:, c], 1, 2)))
    pairs = spaces.edge_pairs
    S, weight, n, tg, primal = _edge_pair_terms(spaces)
    for a, r, c in itertools.product(range(2), repeat=3):
        # -[v] . {G n} over primal edges (one-sided on the boundary) and
        # -[v . t] {(G n) . t} over dual edges: rows (a, m), cols (r, c, n).
        coef = -weight * np.where(primal, float(a == r), tg[:, a] * tg[:, r]) * n[:, c]
        sel = coef != 0.0
        parts.append(_block_triplets(pairs.ti[sel] * 2 * nk + a * nk,
                                     pairs.tj[sel] * 4 * nk + (2 * r + c) * nk,
                                     coef[sel, None, None] * S[sel]))
    return _csr((nT * 2 * nk, nT * 4 * nk), parts)


def assemble_B(spaces: StaggeredSpaces) -> sp.csr_matrix:
    Bb = _assemble_B_broken(spaces)
    return (spaces.U.embedding.T @ Bb @ spaces.W.embedding).tocsr()


def assemble_D(spaces: StaggeredSpaces) -> sp.csr_matrix:
    nk = spaces.nk
    nT = spaces.mesh.num_triangles
    t = np.arange(nT)
    Dv = _volume_derivative_blocks(spaces)
    # int v_a d_a q: rows q index, cols (a, m).
    parts = [_block_triplets(t * nk, t * 2 * nk + a * nk, np.swapaxes(Dv[:, a], 1, 2))
             for a in range(2)]
    pairs = spaces.edge_pairs
    S, weight, n, _tg, primal = _edge_pair_terms(spaces)
    for a in range(2):
        # -{v . n} [q] over dual edges; S rows follow the q side ti.
        coef = np.where(primal, 0.0, -weight * n[:, a])
        sel = coef != 0.0
        parts.append(_block_triplets(pairs.ti[sel] * nk, pairs.tj[sel] * 2 * nk + a * nk,
                                     coef[sel, None, None] * S[sel]))
    Db = _csr((nT * nk, nT * 2 * nk), parts)
    return (spaces.P.embedding.T @ Db @ spaces.U.embedding).tocsr()


def assemble_rhs(spaces: StaggeredSpaces, f, g) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors (F, G) with F_i = int f . v_i and G_m = int g q_m."""
    X = spaces.data_points()
    nT, nq, _ = X.shape
    w = spaces.data_quad.weights
    fv = np.asarray(f(X.reshape(-1, 2))).reshape(nT, nq, 2)
    Fb = spaces.detJ[:, None, None] * np.einsum("tqa,iq,q->tai", fv, spaces.data_vals, w)
    gv = np.asarray(g(X.reshape(-1, 2))).reshape(nT, nq)
    Gb = spaces.detJ[:, None] * np.einsum("tq,iq,q->ti", gv, spaces.data_vals, w)
    return spaces.U.embedding.T @ Fb.ravel(), spaces.P.embedding.T @ Gb.ravel()


def mean_vector(spaces: StaggeredSpaces) -> np.ndarray:
    """c with c_m = integral of global pressure basis function m."""
    cb = spaces.detJ[:, None] * (spaces.data_vals @ spaces.data_quad.weights)[None, :]
    return spaces.P.embedding.T @ cb.ravel()
