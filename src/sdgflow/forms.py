"""Sparse assembly of the staggered bilinear forms and load vectors.

Every form is first assembled on the broken per-triangle modal space
(volume terms triangle by triangle, edge terms edge by edge with signed
jumps and averages of traces), then compressed onto the staggered global
spaces with the embedding matrices. On the constrained spaces the
averaged trace of a continuous component coincides with its single
value, so the assembled matrices realize the forms exactly; quadrature
is exact for all polynomial integrands.

Matrix layouts (rows x cols): mass_W is nW x nW, B and B* are nU x nW
with B[i, j] the form evaluated on (global W basis j, global U basis i),
D and D* are nP x nU. The starred variants are independent assemblies of
the adjoint expressions and must equal the transposed partners; the
solver only ever uses one member of each pair.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .spaces import StaggeredSpaces


def _volume_derivative_blocks(spaces: StaggeredSpaces) -> np.ndarray:
    """D[t, a, i, j] = integral over triangle t of m_i * d_a m_j."""
    inv = spaces.invJT  # (nT, 2, 2)
    ref = np.stack([spaces.ref_dr, spaces.ref_ds])  # (2, nk, nk)
    return spaces.detJ[:, None, None, None] * np.einsum("tab,bij->taij", inv, ref)


def _triplets_from_block(rows0: int, cols0: int, block: np.ndarray, acc) -> None:
    nr, nc = block.shape
    vals = block.ravel()
    mask = vals != 0.0
    if not mask.any():
        return
    rows = rows0 + np.repeat(np.arange(nr), nc)
    cols = cols0 + np.tile(np.arange(nc), nr)
    acc[0].append(rows[mask])
    acc[1].append(cols[mask])
    acc[2].append(vals[mask])


def _finish(acc, shape) -> sp.csr_matrix:
    if not acc[0]:
        return sp.csr_matrix(shape)
    return sp.csr_matrix(
        (np.concatenate(acc[2]), (np.concatenate(acc[0]), np.concatenate(acc[1]))),
        shape=shape,
    )


def _edge_pair_matrices(spaces: StaggeredSpaces, eid: int):
    """Yield (ti, si, tj, sj, S) with S[m, n] = int_e m_m^(i) m_n^(j) ds."""
    e = spaces.mesh.edges[eid]
    ws = spaces.form_edge_quad.weights * (e.length / 2.0)
    traces = spaces.side_traces(eid, spaces.form_traces)
    for (ti, si), Ti in zip(e.tris, traces):
        Tw = Ti * ws
        for (tj, sj), Tj in zip(e.tris, traces):
            yield ti, si, tj, sj, Tw @ Tj.T


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
    acc = ([], [], [])
    D = _volume_derivative_blocks(spaces)  # (nT, 2, nk, nk)
    for t in range(nT):
        blk = np.zeros((2 * nk, 4 * nk))
        for a in range(2):
            for c in range(2):
                # int G_{ac} d_c v_a: rows (a, m), cols (a, c, n).
                blk[a * nk:(a + 1) * nk, (2 * a + c) * nk:(2 * a + c + 1) * nk] = D[t, c].T
        _triplets_from_block(t * 2 * nk, t * 4 * nk, blk, acc)
    for eid, e in enumerate(spaces.mesh.edges):
        N = len(e.tris)
        n, tg = e.normal, e.tangent
        for ti, si, tj, _sj, S in _edge_pair_matrices(spaces, eid):
            blk = np.zeros((2 * nk, 4 * nk))
            if e.is_primal:
                # -[v] . {G n} over primal edges (one-sided on the boundary).
                for a in range(2):
                    for c in range(2):
                        blk[a * nk:(a + 1) * nk, (2 * a + c) * nk:(2 * a + c + 1) * nk] = (
                            -si * n[c] / N * S
                        )
            else:
                # -[v . t] {(G n) . t} over dual edges.
                for a in range(2):
                    for r in range(2):
                        for c in range(2):
                            coef = -si * tg[a] * tg[r] * n[c] / N
                            if coef != 0.0:
                                blk[a * nk:(a + 1) * nk, (2 * r + c) * nk:(2 * r + c + 1) * nk] += (
                                    coef * S
                                )
            _triplets_from_block(ti * 2 * nk, tj * 4 * nk, blk, acc)
    return _finish(acc, (nT * 2 * nk, nT * 4 * nk))


def assemble_B(spaces: StaggeredSpaces) -> sp.csr_matrix:
    Bb = _assemble_B_broken(spaces)
    return (spaces.U.embedding.T @ Bb @ spaces.W.embedding).tocsr()


def assemble_B_star(spaces: StaggeredSpaces) -> sp.csr_matrix:
    """Independent assembly of the adjoint partner; equals assemble_B."""
    nk = spaces.nk
    nT = spaces.mesh.num_triangles
    acc = ([], [], [])
    D = _volume_derivative_blocks(spaces)
    for t in range(nT):
        blk = np.zeros((2 * nk, 4 * nk))
        for a in range(2):
            for c in range(2):
                # -int v_a d_c G_{ac}: rows (a, m), cols (a, c, n).
                blk[a * nk:(a + 1) * nk, (2 * a + c) * nk:(2 * a + c + 1) * nk] = -D[t, c]
        _triplets_from_block(t * 2 * nk, t * 4 * nk, blk, acc)
    for eid, e in enumerate(spaces.mesh.edges):
        if e.is_primal:
            continue
        N = len(e.tris)
        n = e.normal
        for ti, si, tj, sj, S in _edge_pair_matrices(spaces, eid):
            # +{v . n} n . [G n] over dual edges.
            blk = np.zeros((2 * nk, 4 * nk))
            for a in range(2):
                for r in range(2):
                    for c in range(2):
                        coef = (n[a] / N) * sj * n[r] * n[c]
                        if coef != 0.0:
                            blk[a * nk:(a + 1) * nk, (2 * r + c) * nk:(2 * r + c + 1) * nk] += (
                                coef * S
                            )
            _triplets_from_block(ti * 2 * nk, tj * 4 * nk, blk, acc)
    Bb = _finish(acc, (nT * 2 * nk, nT * 4 * nk))
    return (spaces.U.embedding.T @ Bb @ spaces.W.embedding).tocsr()


def assemble_D(spaces: StaggeredSpaces) -> sp.csr_matrix:
    nk = spaces.nk
    nT = spaces.mesh.num_triangles
    acc = ([], [], [])
    Dv = _volume_derivative_blocks(spaces)
    for t in range(nT):
        blk = np.zeros((nk, 2 * nk))
        for a in range(2):
            # int v_a d_a q: rows q index, cols (a, m).
            blk[:, a * nk:(a + 1) * nk] = Dv[t, a].T
        _triplets_from_block(t * nk, t * 2 * nk, blk, acc)
    for eid, e in enumerate(spaces.mesh.edges):
        if e.is_primal:
            continue
        N = len(e.tris)
        n = e.normal
        for tq, sq, tu, _su, S in _edge_pair_matrices(spaces, eid):
            # -{v . n} [q] over dual edges; S rows follow the q side here.
            blk = np.zeros((nk, 2 * nk))
            for a in range(2):
                blk[:, a * nk:(a + 1) * nk] = -sq * (n[a] / N) * S
            _triplets_from_block(tq * nk, tu * 2 * nk, blk, acc)
    Db = _finish(acc, (nT * nk, nT * 2 * nk))
    return (spaces.P.embedding.T @ Db @ spaces.U.embedding).tocsr()


def assemble_D_star(spaces: StaggeredSpaces) -> sp.csr_matrix:
    """Independent assembly of the adjoint partner; equals assemble_D."""
    nk = spaces.nk
    nT = spaces.mesh.num_triangles
    acc = ([], [], [])
    Dv = _volume_derivative_blocks(spaces)
    for t in range(nT):
        blk = np.zeros((nk, 2 * nk))
        for a in range(2):
            # -int q d_a v_a.
            blk[:, a * nk:(a + 1) * nk] = -Dv[t, a]
        _triplets_from_block(t * nk, t * 2 * nk, blk, acc)
    for eid, e in enumerate(spaces.mesh.edges):
        if not e.is_primal:
            continue
        N = len(e.tris)
        n = e.normal
        for tq, _sq, tu, su, S in _edge_pair_matrices(spaces, eid):
            # +{q} [v . n] over primal edges (one-sided on the boundary).
            blk = np.zeros((nk, 2 * nk))
            for a in range(2):
                blk[:, a * nk:(a + 1) * nk] = su * (n[a] / N) * S
            _triplets_from_block(tq * nk, tu * 2 * nk, blk, acc)
    Db = _finish(acc, (nT * nk, nT * 2 * nk))
    return (spaces.P.embedding.T @ Db @ spaces.U.embedding).tocsr()


def _physical_quad_points(spaces: StaggeredSpaces) -> np.ndarray:
    """Data-quadrature points on all triangles, shape (nT, nq, 2)."""
    return (
        np.einsum("qa,tba->tqb", spaces.data_quad.points, spaces.jac)
        + spaces.origin[:, None, :]
    )


def assemble_rhs(spaces: StaggeredSpaces, f, g) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors (F, G) with F_i = int f . v_i and G_m = int g q_m."""
    X = _physical_quad_points(spaces)
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
