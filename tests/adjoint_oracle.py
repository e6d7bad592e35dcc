"""Independent loop assemblies of the adjoint forms B* and D*.

They integrate the volume terms by parts the other way and put the jumps
on the other edge kind, triangle by triangle and edge by edge, over every
pair of triangles on an edge, and map the broken forms to the global spaces
with a sparse embedding. On the staggered spaces they must equal the
library's assemble_B and assemble_D to roundoff, so they serve as the test
oracle for the batched assembly.
"""

import numpy as np
import scipy.sparse as sp

from sdgflow.forms import _volume_derivative_blocks
from sdgflow.spaces import StaggeredSpaces, Space


def embedding(spaces: StaggeredSpaces, space: Space) -> sp.csr_matrix:
    """(nT*nloc, ndof) map from global coefficients to broken per-triangle modal
    coefficients: row t*nloc + i holds row i of triangle t's dual basis."""
    C, dofs = spaces.gather(space.dual_coeffs), space.cell_dofs
    nT, nloc = dofs.shape
    rows, cols = np.broadcast_arrays(np.arange(nT * nloc).reshape(nT, nloc, 1), dofs[:, None, :])
    return sp.csr_matrix((C.ravel(), (rows.ravel(), cols.ravel())), shape=(nT * nloc, space.ndof))


def _edge_sides(mesh, eid: int):
    """(triangle, local side) pairs of edge eid, in triangle order."""
    return np.argwhere(mesh.tri_edges == eid)


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
    """Yield (ti, si, tj, sj, S) with si, sj the jump signs of triangles ti, tj
    and S[m, n] = int_e m_m^(i) m_n^(j) ds."""
    mesh = spaces.mesh
    ws = spaces.form_edge_quad.weights * (mesh.edge_length[eid] / 2.0)
    sides = _edge_sides(mesh, eid)
    traces = [spaces.form_traces[s, spaces.side_flip[t, s]] for t, s in sides]
    for (ti, s), Ti in zip(sides, traces):
        Tw = Ti * ws
        for (tj, r), Tj in zip(sides, traces):
            yield ti, mesh.side_sign[ti, s], tj, mesh.side_sign[tj, r], Tw @ Tj.T


def assemble_B_star(spaces: StaggeredSpaces) -> sp.csr_matrix:
    """Independent assembly of the adjoint partner; equals assemble_B."""
    nk = spaces.nk
    nT = spaces.mesh.num_triangles
    acc = ([], [], [])
    D = spaces.gather(_volume_derivative_blocks(spaces))
    for t in range(nT):
        blk = np.zeros((2 * nk, 4 * nk))
        for a in range(2):
            for c in range(2):
                # -int v_a d_c G_{ac}: rows (a, m), cols (a, c, n).
                blk[a * nk:(a + 1) * nk, (2 * a + c) * nk:(2 * a + c + 1) * nk] = -D[t, c]
        _triplets_from_block(t * 2 * nk, t * 4 * nk, blk, acc)
    for eid in spaces.mesh.dual_edge_ids:
        N = len(_edge_sides(spaces.mesh, eid))
        n = spaces.mesh.edge_normal[eid]
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
    return (embedding(spaces, spaces.U).T @ Bb @ embedding(spaces, spaces.W)).tocsr()


def assemble_D_star(spaces: StaggeredSpaces) -> sp.csr_matrix:
    """Independent assembly of the adjoint partner; equals assemble_D."""
    nk = spaces.nk
    nT = spaces.mesh.num_triangles
    acc = ([], [], [])
    Dv = spaces.gather(_volume_derivative_blocks(spaces))
    for t in range(nT):
        blk = np.zeros((nk, 2 * nk))
        for a in range(2):
            # -int q d_a v_a.
            blk[:, a * nk:(a + 1) * nk] = -Dv[t, a]
        _triplets_from_block(t * nk, t * 2 * nk, blk, acc)
    for eid in spaces.mesh.primal_edge_ids:
        N = len(_edge_sides(spaces.mesh, eid))
        n = spaces.mesh.edge_normal[eid]
        for tq, _sq, tu, su, S in _edge_pair_matrices(spaces, eid):
            # +{q} [v . n] over primal edges (one-sided on the boundary).
            blk = np.zeros((nk, 2 * nk))
            for a in range(2):
                blk[:, a * nk:(a + 1) * nk] = su * (n[a] / N) * S
            _triplets_from_block(tq * nk, tu * 2 * nk, blk, acc)
    Db = _finish(acc, (nT * nk, nT * 2 * nk))
    return (embedding(spaces, spaces.P).T @ Db @ embedding(spaces, spaces.U)).tocsr()
