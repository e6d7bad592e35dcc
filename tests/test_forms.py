"""Tests for the assembled bilinear forms and load vectors."""

import numpy as np
import pytest

from adjoint_oracle import assemble_B_star, assemble_D_star, embedding
from sdgflow import cases, forms, mesh as mm, solver
from sdgflow.polybasis import edge_quadrature
from sdgflow.spaces import StaggeredSpaces


MESHES = {
    "square": mm.build_staggered(mm.build_square_grid(3)),
    "distorted": mm.build_staggered(mm.build_distorted_grid(3, 0.25, 42)),
    "hanging": mm.build_staggered(mm.build_hanging_grid(4)),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh_name(request):
    return request.param


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_adjoint_pairs_are_transposes(name, k):
    # B and B*, D and D* are assembled from independent integration-by-parts
    # expressions; on the staggered spaces they must agree to roundoff.
    spaces = StaggeredSpaces(MESHES[name], k)
    B = forms.assemble_B(spaces)
    Bs = assemble_B_star(spaces)
    scale = max(1.0, np.abs(B.data).max())
    assert np.abs((B - Bs).toarray()).max() < 1e-12 * scale
    D = forms.assemble_D(spaces)
    Ds = assemble_D_star(spaces)
    scale = max(1.0, np.abs(D.data).max())
    assert np.abs((D - Ds).toarray()).max() < 1e-12 * scale


@pytest.mark.parametrize("k", [1, 2])
def test_mass_matrices_are_spd(k):
    spaces = StaggeredSpaces(MESHES["distorted"], k)
    blocks = solver.assemble_blocks(spaces, 2.5)
    for M in (blocks.M, blocks.A):
        Md = M.toarray()
        assert np.abs(Md - Md.T).max() < 1e-12
        assert np.linalg.eigvalsh(Md).min() > 0.0


def test_mass_U_scales_with_alpha():
    spaces = StaggeredSpaces(MESHES["square"], 1)
    A1 = solver.assemble_blocks(spaces, 1.0).A
    A3 = solver.assemble_blocks(spaces, 3.0).A
    assert np.abs((3.0 * A1 - A3).toarray()).max() < 1e-12
    with pytest.raises(ValueError):
        solver.assemble_blocks(spaces, 0.0)


def test_mass_W_gives_l2_norm():
    # detJ-weighted identity on the broken modal side: x^T M x equals the
    # squared L2 norm of the represented field.
    spaces = StaggeredSpaces(MESHES["distorted"], 1)
    M = solver.assemble_blocks(spaces, 1.0).M
    rng = np.random.default_rng(3)
    x = rng.standard_normal(spaces.W.ndof)
    broken = (embedding(spaces, spaces.W) @ x).reshape(-1, 4 * spaces.nk)
    norm_sq = float((spaces.detJ[:, None] * broken**2).sum())
    assert np.isclose(float(x @ M @ x), norm_sq, rtol=1e-12)


def boundary_normal_moments(spaces, fn_normal):
    """c_m = boundary integral of fn_normal(points, outward normal) times global
    pressure basis m.

    The pressure basis is evaluated directly at physical boundary points
    mapped back to the reference triangle, independently of the spaces'
    trace tables.
    """
    sm = spaces.mesh
    nk = spaces.nk
    rule = edge_quadrature(2 * spaces.k + 2)
    E = embedding(spaces, spaces.P)
    corr = np.zeros(spaces.P.ndof)
    # A boundary edge is the primal side of its one triangle.
    for t in np.flatnonzero(sm.edge_kind[sm.tri_edges[:, 0]] == mm.PRIMAL_BOUNDARY):
        e = sm.tri_edges[t, 0]
        lo, hi = sm.vertices[sm.edge_v0[e]], sm.vertices[sm.edge_v1[e]]
        pts = lo + np.outer((rule.points + 1.0) / 2.0, hi - lo)
        T = spaces.basis.eval((pts - spaces.origin[t]) @ spaces.invJT[t])
        w_eff = rule.weights * (sm.edge_length[e] / 2.0) * fn_normal(pts, sm.edge_normal[e])
        corr += E[t * nk:(t + 1) * nk, :].T @ (T @ w_eff)
    return corr


@pytest.mark.parametrize("k", [1, 2, 3])
def test_divergence_identity_for_polynomials(k, mesh_name):
    # For a globally polynomial velocity the assembled divergence form obeys
    # the integration-by-parts identity D u = -G(div u) + boundary flux.
    spaces = StaggeredSpaces(MESHES[mesh_name], k)

    def u(pts):
        x, y = pts[:, 0], pts[:, 1]
        ux = x + 0.5 * y
        uy = 2.0 + y
        if k >= 2:
            ux = ux + 0.3 * x * y
            uy = uy + 0.5 * y**2
        if k >= 3:
            ux = ux + x**3
            uy = uy + 0.2 * y**3
        return np.stack([ux, uy], axis=1)

    def div_u(pts):
        y = pts[:, 1]
        out = 2.0 * np.ones(len(pts))
        if k >= 2:
            out = out + 0.3 * y + y
        if k >= 3:
            out = out + 3.0 * pts[:, 0] ** 2 + 0.6 * y**2
        return out

    D = forms.assemble_D(spaces)
    uh = spaces.interpolate("U", u)
    _, G = forms.assemble_rhs(spaces, u, div_u)
    corr = boundary_normal_moments(spaces, lambda pts, n: u(pts) @ n)
    resid = D @ uh.coeffs + G - corr
    assert np.abs(resid).max() < 1e-10


def test_rhs_constant_load():
    # F against f = (1, 0) integrates the first velocity component of each
    # global basis function; sum over the interpolant of u = (1, 0) gives
    # the domain area.
    spaces = StaggeredSpaces(MESHES["square"], 1)
    F, G = forms.assemble_rhs(
        spaces,
        lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1),
        lambda p: np.ones(len(p)),
    )
    ones_u = spaces.interpolate(
        "U", lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], axis=1)
    )
    assert np.isclose(float(F @ ones_u.coeffs), 1.0, atol=1e-12)
    ones_p = spaces.interpolate("P", lambda p: np.ones(len(p)))
    assert np.isclose(float(G @ ones_p.coeffs), 1.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_mean_vector_integrates_pressure(name, k):
    spaces = StaggeredSpaces(MESHES[name], k)
    P = spaces.P
    c = solver.assemble_blocks(spaces, 1.0).c

    def p(pts):
        return 2.0 + pts[:, 0] - 3.0 * pts[:, 1] ** 2

    ph = spaces.interpolate("P", p)
    # Exact integral over the unit square: 2 + 1/2 - 1 = 3/2.
    assert np.isclose(float(c @ ph.coeffs), 1.5, atol=1e-12)
    # A pressure integrates over a triangle to sqrt(1/2) times its first
    # cell moment; no other basis function has a nonzero mean.
    first = P.cell_dofs[:, P.cell.start]
    assert np.all(c[first] == np.sqrt(0.5))
    assert not np.any(np.delete(c, first))


@pytest.mark.parametrize("k", [1, 2])
def test_B_partial_integration_consistency(k):
    # B encodes (G, grad v) with jump corrections; for the interpolant of a
    # globally smooth polynomial pair the two integration-by-parts forms
    # coincide, so B x against y must match the direct volume integral of
    # G : grad v computed by quadrature.
    spaces = StaggeredSpaces(MESHES["distorted"], k)
    B = forms.assemble_B(spaces)

    def G_fn(pts):
        x, y = pts[:, 0], pts[:, 1]
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = x
        out[:, 0, 1] = 1.0 - y
        out[:, 1, 0] = 2.0 * y
        out[:, 1, 1] = x + y
        return out

    def v_fn(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([x - y, 2.0 * x], axis=1)

    Gh = spaces.interpolate("W", G_fn)
    vh = spaces.interpolate("U", v_fn)
    # Exact volume integral of G : grad v over the unit square:
    # grad v = [[1, -1], [2, 0]]; integrand = x - (1-y) + 4y = x + 5y - 1.
    vol = 0.5 + 2.5 - 1.0
    # The primal-edge jump term is one-sided on the boundary, so the form
    # equals the volume integral minus the boundary flux of v . (G n).
    sm = spaces.mesh
    xi, wq = spaces.data_edge_quad.points, spaces.data_edge_quad.weights
    bnd = 0.0
    for e in np.flatnonzero(sm.edge_kind == mm.PRIMAL_BOUNDARY):
        lo, hi = sm.vertices[sm.edge_v0[e]], sm.vertices[sm.edge_v1[e]]
        pts = lo + np.outer((xi + 1.0) / 2.0, hi - lo)
        Gn = np.einsum("pab,b->pa", G_fn(pts), sm.edge_normal[e])
        bnd += float(np.sum(wq * (v_fn(pts) * Gn).sum(axis=1)) * sm.edge_length[e] / 2.0)
    assert np.isclose(float(vh.coeffs @ B @ Gh.coeffs), vol - bnd, atol=1e-10)


# -- pinned values --------------------------------------------------------
#
# Recorded pruned blocks of assemble_blocks (alpha=2.5, h=1/4): Frobenius
# norm, number of stored entries, and three seeded (row, col, value)
# entries. A change to how the forms are assembled must reproduce them to
# roundoff.

_PINNED_BLOCKS = {
    ("distorted", 1): {
        "M": (1629.4650189709869, 8096, (
            (411, 408, -24.914312013124256),
            (320, 320, 38.340933220835986),
            (11, 30, -0.3312384652234491),
        )),
        "B": (8347.85171999075, 4096, (
            (183, 122, -101.1312947219831),
            (133, 16, -56.739355372074236),
            (4, 15, -3.6205136182590323),
        )),
        "A": (1542.09209637069, 1920, (
            (193, 66, -4.708424457561133),
            (150, 22, -8.948718293405001),
            (4, 132, -3.7966581469238765),
        )),
        "D": (7181.9192112821565, 1120, (
            (105, 179, 157.11910939899542),
            (79, 127, 4.000000000000001),
            (3, 4, 7.0763203165812145),
        )),
    },
    ("distorted", 2): {
        "M": (3196.779564104983, 32800, (
            (922, 912, -21.666740470867744),
            (732, 741, -17.426171856992333),
            (22, 29, -0.1674273036847514),
        )),
        "B": (37876.20933490289, 16400, (
            (424, 895, -205.24853991240934),
            (322, 158, 33.899570529831344),
            (8, 452, 61.410156767732055),
        )),
        "A": (2876.9024647293395, 8000, (
            (438, 126, -4.180019514481169),
            (343, 79, -0.18644219513440907),
            (9, 207, -2.6058301193671407),
        )),
        "D": (26642.61885886081, 3936, (
            (231, 414, -553.7692840361829),
            (177, 53, -42.07433416527009),
            (5, 202, 1.3177547498403523),
        )),
    },
    ("distorted", 3): {
        "M": (4994.217482586564, 92320, (
            (1639, 1648, -15.69273303938179),
            (1318, 1305, -5.643987107333671),
            (36, 657, -1.6131136716873922),
        )),
        "B": (90165.487095085, 46304, (
            (770, 1601, -139.00027640356532),
            (599, 1260, -462.4175244012829),
            (14, 625, -18.312548202548943),
        )),
        "A": (4318.305182045817, 22784, (
            (785, 792, 17.9310040242812),
            (621, 627, -12.325742424104044),
            (15, 292, -0.10119541082674245),
        )),
        "D": (60667.51145641231, 10432, (
            (412, 169, -35.56736698208003),
            (324, 581, -394.7242073644693),
            (9, 11, 4.8348387618438515),
        )),
    },
    ("hanging", 1): {
        "M": (7422.448902248187, 14472, (
            (987, 322, 5.656854249492379),
            (720, 28, 5.65685424949238),
            (29, 26, 0.17677669529663673),
        )),
        "B": (72590.42158133266, 9192, (
            (436, 254, 384.0000000000001),
            (309, 1318, 110.85125168440815),
            (10, 28, 11.313708498984756),
        )),
        "A": (7922.808020233355, 2304, (
            (523, 190, -9.999999999999995),
            (428, 428, 479.99999999999994),
            (16, 347, 9.999999999999995),
        )),
        "D": (70513.00557687522, 2476, (
            (255, 135, -221.7025033688161),
            (188, 3, -221.70250336881608),
            (7, 3, 8.0),
        )),
    },
    ("hanging", 2): {
        "M": (14332.277661609698, 53892, (
            (2247, 2253, 52.255781179374466),
            (1699, 376, -7.698003589195017),
            (54, 1129, 2.5141574442188346),
        )),
        "B": (353294.17341809435, 35140, (
            (1017, 2108, -7390.083445627206),
            (701, 1465, 501.65549932199616),
            (18, 1138, 261.2789058968723),
        )),
        "A": (14743.11676288817, 10588, (
            (1163, 1158, -130.63945294843597),
            (934, 223, 2.9462782549439495),
            (30, 554, -4.714045207910327),
        )),
        "D": (260937.81595250298, 8116, (
            (569, 290, -233.69495786887143),
            (428, 144, 522.5578117937449),
            (15, 13, -9.237604307034013),
        )),
    },
    ("hanging", 3): {
        "M": (22148.45313436373, 148048, (
            (4063, 4055, -124.10748030101408),
            (3151, 3151, 223.99999999999986),
            (86, 1594, -2.213594362117859),
        )),
        "B": (849167.871222579, 93464, (
            (1862, 3819, -5068.541407545172),
            (1334, 471, 268.8000000000001),
            (29, 1557, 47.030203061436815),
        )),
        "A": (22057.898042561992, 30912, (
            (2046, 467, -0.06522943195923228),
            (1604, 1604, 99.99999999999994),
            (45, 794, -4.999999999999993),
        )),
        "D": (593394.430553319, 20772, (
            (1032, 437, -380.14060556588777),
            (805, 1515, -21503.999999999996),
            (24, 26, 8.944271909999147),
        )),
    },
}


@pytest.mark.parametrize("family", ["distorted", "hanging"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_blocks_match_pinned_values(family, k):
    spaces = StaggeredSpaces(cases.build_mesh(family, 4), k)
    blocks = solver.assemble_blocks(spaces, 2.5)
    for name, (frob, nnz, entries) in _PINNED_BLOCKS[family, k].items():
        X = getattr(blocks, name)
        assert X.nnz == nnz, name
        assert abs(np.linalg.norm(X.data) - frob) <= 1e-13 * frob, name
        # Entries are held relative to the largest entry of the block.
        scale = np.abs(X.data).max()
        for r, c, value in entries:
            assert abs(X[r, c] - value) <= 1e-13 * scale, (name, r, c)
