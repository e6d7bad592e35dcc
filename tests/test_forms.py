"""Tests for the assembled bilinear forms and load vectors."""

import numpy as np
import pytest

from adjoint_oracle import assemble_B_star, assemble_D_star
from sdgflow import forms, mesh as mm
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
    for M in (forms.assemble_mass_W(spaces), forms.assemble_mass_U(spaces, 2.5)):
        Md = M.toarray()
        assert np.abs(Md - Md.T).max() < 1e-12
        assert np.linalg.eigvalsh(Md).min() > 0.0


def test_mass_U_scales_with_alpha():
    spaces = StaggeredSpaces(MESHES["square"], 1)
    A1 = forms.assemble_mass_U(spaces, 1.0)
    A3 = forms.assemble_mass_U(spaces, 3.0)
    assert np.abs((3.0 * A1 - A3).toarray()).max() < 1e-12
    with pytest.raises(ValueError):
        forms.assemble_mass_U(spaces, 0.0)


def test_mass_W_gives_l2_norm():
    # detJ-weighted identity on the broken modal side: x^T M x equals the
    # squared L2 norm of the represented field.
    spaces = StaggeredSpaces(MESHES["distorted"], 1)
    M = forms.assemble_mass_W(spaces)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(spaces.W.ndof)
    broken = (spaces.W.embedding @ x).reshape(-1, 4 * spaces.nk)
    norm_sq = float((spaces.detJ[:, None] * broken**2).sum())
    assert np.isclose(float(x @ M @ x), norm_sq, rtol=1e-12)


def boundary_normal_moments(spaces, fn_normal):
    """c_m = boundary integral of fn_normal times global pressure basis m.

    The pressure basis is evaluated directly at physical boundary points
    mapped back to the reference triangle, independently of the spaces'
    trace tables.
    """
    sm = spaces.mesh
    nk = spaces.nk
    rule = edge_quadrature(2 * spaces.k + 2)
    corr = np.zeros(spaces.P.ndof)
    for e in sm.edges:
        if e.kind != mm.PRIMAL_BOUNDARY:
            continue
        t = e.tris[0][0]
        lo, hi = sm.vertices[e.v0], sm.vertices[e.v1]
        pts = lo + np.outer((rule.points + 1.0) / 2.0, hi - lo)
        T = spaces.basis.eval((pts - spaces.origin[t]) @ spaces.invJT[t])
        w_eff = rule.weights * (e.length / 2.0) * fn_normal(pts, e)
        corr += spaces.P.embedding[t * nk:(t + 1) * nk, :].T @ (T @ w_eff)
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
    corr = boundary_normal_moments(spaces, lambda pts, e: u(pts) @ e.normal)
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


def test_mean_vector_integrates_pressure():
    spaces = StaggeredSpaces(MESHES["distorted"], 2)
    c = forms.mean_vector(spaces)

    def p(pts):
        return 2.0 + pts[:, 0] - 3.0 * pts[:, 1] ** 2

    ph = spaces.interpolate("P", p)
    # Exact integral over the unit square: 2 + 1/2 - 1 = 3/2.
    assert np.isclose(float(c @ ph.coeffs), 1.5, atol=1e-12)


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
    for e in sm.edges:
        if e.kind != mm.PRIMAL_BOUNDARY:
            continue
        lo, hi = sm.vertices[e.v0], sm.vertices[e.v1]
        pts = lo + np.outer((xi + 1.0) / 2.0, hi - lo)
        Gn = np.einsum("pab,b->pa", G_fn(pts), e.normal)
        bnd += float(np.sum(wq * (v_fn(pts) * Gn).sum(axis=1)) * e.length / 2.0)
    assert np.isclose(float(vh.coeffs @ B @ Gh.coeffs), vol - bnd, atol=1e-10)
