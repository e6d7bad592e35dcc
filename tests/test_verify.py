"""Tests for manufactured cases, projections, norms and error measures."""

import math

import numpy as np
import pytest

from sdgflow import cases, verify
from sdgflow.spaces import DiscreteField, StaggeredSpaces
from sdgflow.verify import ConvergenceRow, ConvergenceTable, ManufacturedCase


@pytest.fixture(scope="module")
def spaces():
    return StaggeredSpaces(cases.build_mesh("distorted", 3), 2)


def forcing_residual(case: ManufacturedCase, points: np.ndarray, step: float = 1e-5) -> float:
    """Max mismatch between case.f and a finite-difference evaluation of the PDE."""
    pts = np.atleast_2d(points)
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    lap = (
        case.u(pts + ex) + case.u(pts - ex) + case.u(pts + ey) + case.u(pts - ey)
        - 4.0 * case.u(pts)
    ) / step ** 2
    grad_p = np.stack(
        [
            (case.p(pts + ex) - case.p(pts - ex)) / (2 * step),
            (case.p(pts + ey) - case.p(pts - ey)) / (2 * step),
        ],
        axis=1,
    )
    fd = -case.eps * lap + case.alpha * case.u(pts) + grad_p
    return float(np.abs(fd - case.f(pts)).max())


def test_trig_case_satisfies_pde():
    # The forcing must reproduce -eps lap(u) + alpha u + grad p at interior
    # points, checked against a finite-difference evaluation of the operator.
    rng = np.random.default_rng(0)
    pts = 0.2 + 0.6 * rng.random((20, 2))
    for eps, alpha in [(1.0, 1.0), (1e-4, 2.0), (1e-8, 1.0)]:
        case = verify.trig_case(eps, alpha)
        assert forcing_residual(case, pts) < 1e-5


def test_trig_case_divergence_and_boundary():
    case = verify.trig_case(1.0)
    # g equals div u (finite differences).
    rng = np.random.default_rng(1)
    pts = 0.1 + 0.8 * rng.random((10, 2))
    h = 1e-6
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    div = (case.u(pts + ex) - case.u(pts - ex))[:, 0] / (2 * h)
    div += (case.u(pts + ey) - case.u(pts - ey))[:, 1] / (2 * h)
    assert np.abs(div - case.g(pts)).max() < 1e-6
    # Velocity vanishes on the boundary of the unit square.
    t = np.linspace(0.0, 1.0, 11)
    for edge_pts in (
        np.stack([t, np.zeros_like(t)], axis=1),
        np.stack([t, np.ones_like(t)], axis=1),
        np.stack([np.zeros_like(t), t], axis=1),
        np.stack([np.ones_like(t), t], axis=1),
    ):
        assert np.abs(case.u(edge_pts)).max() < 1e-12


def test_trig_case_pressure_mean_zero():
    # The additive shift makes the pressure integrate to zero over the square.
    case = verify.trig_case(1.0)
    n = 400
    x = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(x, x)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    assert abs(case.p(pts).mean()) < 1e-6


def test_trig_case_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        verify.trig_case(0.0)
    with pytest.raises(ValueError):
        verify.trig_case(1.0, -1.0)


def test_scaled_gradient_field():
    case = verify.trig_case(1e-4)
    pts = np.array([[0.3, 0.7]])
    assert np.allclose(case.L(pts), 1e-2 * case.grad_u(pts))


# -- norms ----------------------------------------------------------------


def test_norm_eval_validates_ids(spaces):
    f = DiscreteField("U", np.zeros(spaces.U.ndof))
    with pytest.raises(ValueError, match="unknown norm"):
        verify.norm_eval(spaces, f, "H7")
    with pytest.raises(ValueError, match="unknown norm"):
        verify.norm_eval(spaces, f, "P0h")


def test_l2_norm_matches_analytic_value(spaces):
    # ||x||^2 over the unit square = 1/3; the interpolant of p(x,y)=x is
    # exact for k>=1 so the discrete norm matches the integral.
    ph = spaces.interpolate("P", lambda pts: pts[:, 0])
    assert np.isclose(verify.norm_eval(spaces, ph, "L2"), math.sqrt(1.0 / 3.0),
                      atol=1e-12)


def test_l2_norm_skips_edge_values(spaces, monkeypatch):
    # L2 has no edge term, so it must not walk the edges at all.
    def no_edges(*args):
        raise AssertionError("L2 evaluated edge traces")

    monkeypatch.setattr(verify, "_edge_jumps", no_edges)
    case = verify.trig_case(1e-2)
    rng = np.random.default_rng(2)
    for tag, exact in (("W", case.L), ("U", case.u), ("P", case.p)):
        f = DiscreteField(tag, rng.standard_normal(spaces.space(tag).ndof))
        assert verify.norm_eval(spaces, f, "L2") > 0.0
        assert verify.norm_eval(spaces, f, "L2", exact=exact) > 0.0
    # The patched helper is the one the edge terms go through.
    with pytest.raises(AssertionError, match="edge traces"):
        verify.error_Z2(spaces, DiscreteField("U", np.ones(spaces.U.ndof)), case)


def test_l2_norm_reads_no_gradient_table(spaces, monkeypatch):
    case = verify.trig_case(1e-2)
    uh = spaces.interpolate("U", case.u)
    norms = [verify.norm_eval(spaces, uh, "L2", exact=e) for e in (None, case.u)]
    monkeypatch.setattr(spaces, "data_grads", None)
    assert [verify.norm_eval(spaces, uh, "L2", exact=e) for e in (None, case.u)] == norms


def test_norms_scale_linearly(spaces):
    rng = np.random.default_rng(5)
    f = DiscreteField("U", rng.standard_normal(spaces.U.ndof))
    g = DiscreteField("U", 3.0 * f.coeffs)
    a = verify.norm_eval(spaces, f, "L2")
    b = verify.norm_eval(spaces, g, "L2")
    assert np.isclose(b, 3.0 * a, rtol=1e-12)
    assert a > 0.0


def test_error_l2_zero_for_exactly_represented_function(spaces):
    fn = lambda pts: 1.0 + 2.0 * pts[:, 0] - pts[:, 1] ** 2
    ph = spaces.interpolate("P", fn)
    assert verify.norm_eval(spaces, ph, "L2", exact=fn) < 1e-11
    # A non-polynomial reference leaves a small but nonzero residual.
    sin_fn = lambda pts: np.sin(pts[:, 0])
    sh = spaces.interpolate("P", sin_fn)
    assert 0.0 < verify.norm_eval(spaces, sh, "L2", exact=sin_fn) < 1e-3


def test_error_vs_interpolant_is_zero_on_nodal_interpolant(spaces):
    # Measuring the Lagrange interpolant of a polynomial against that same
    # polynomial gives exactly zero: both reduce to the same polynomial.
    fn = lambda pts: 1.0 + pts[:, 0] * pts[:, 1]
    ph = spaces.interpolate("P", fn)
    assert verify.error_vs_interpolant(spaces, ph, fn) < 1e-12


def test_error_vs_interpolant_tracks_l2(spaces):
    # For a non-polynomial reference the two measures agree to higher order.
    case = verify.trig_case(1.0)
    ph = spaces.interpolate("P", case.p)
    a = verify.norm_eval(spaces, ph, "L2", exact=case.p)
    b = verify.error_vs_interpolant(spaces, ph, case.p)
    assert abs(a - b) < 0.5 * max(a, b) + 1e-12


def test_superconvergence_error_of_projection_is_zero(spaces):
    case = verify.trig_case(1.0)
    jh = spaces.interpolate("U", case.u)
    assert verify.superconvergence_error(spaces, jh, case) < 1e-12


def test_error_z2_positive_and_finite(spaces):
    case = verify.trig_case(1.0)
    jh = spaces.interpolate("U", case.u)
    val = verify.error_Z2(spaces, jh, case)
    assert np.isfinite(val) and val > 0.0


@pytest.mark.parametrize("family", ["distorted", "hanging"])
@pytest.mark.parametrize("k", [2, 3])
def test_error_z2_vanishes_on_interpolant_of_quadratic(family, k):
    # A degree-2 velocity is reproduced by the degree-k interpolant for k >= 2,
    # so its gradient error and every edge jump of the error vanish.
    def u(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([x * x - 2.0 * x * y + 0.5, y * y + 3.0 * x * y - x], axis=1)

    def grad_u(pts):
        x, y = pts[:, 0], pts[:, 1]
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0], out[:, 0, 1] = 2.0 * x - 2.0 * y, -2.0 * x
        out[:, 1, 0], out[:, 1, 1] = 3.0 * y - 1.0, 2.0 * y + 3.0 * x
        return out

    spaces = StaggeredSpaces(cases.build_mesh(family, 4), k)
    case = ManufacturedCase(1.0, 1.0, u, None, grad_u, None, None)
    assert verify.error_Z2(spaces, spaces.interpolate("U", u), case) < 1e-11


def test_lagrange_nodes_counts():
    for k in range(1, 4):
        nodes = verify.lagrange_nodes(k)
        assert len(nodes) == (k + 1) * (k + 2) // 2
        assert nodes.min() >= 0.0
        assert (nodes.sum(axis=1) <= 1.0 + 1e-12).all()


# -- convergence tables ---------------------------------------------------


def test_convergence_table_orders():
    table = ConvergenceTable(k=1)
    for i, n in enumerate((4, 8, 16)):
        table.add(ConvergenceRow(level=n, h=1.0 / n, ndof=n * n,
                                 errors={"u": 4.0 ** -i}))
    assert table.rows[0].orders == {}
    assert np.isclose(table.rows[1].orders["u"], 2.0)
    assert np.isclose(table.rows[2].orders["u"], 2.0)
    assert all(set(row.orders) <= {"u"} for row in table.rows)


def test_convergence_table_skips_non_doubling_levels():
    table = ConvergenceTable(k=1)
    table.add(ConvergenceRow(level=4, h=0.25, ndof=16, errors={"u": 1.0}))
    table.add(ConvergenceRow(level=12, h=1 / 12, ndof=144, errors={"u": 0.1}))
    assert table.rows[1].orders == {}


# -- pinned values --------------------------------------------------------
#
# Recorded norms of seeded random fields (k=2, h=1/4) and of the gradient
# interpolant. A change to how traces, norms or the interpolant are computed
# must reproduce them to roundoff.

_PINNED_NORMS = {
    "distorted": {
        ("W", "L2", False): 238.37481807473034,
        ("W", "L2", True): 238.38367152439838,
        ("U", "L2", False): 152.48416869997638,
        ("U", "L2", True): 152.45931258737102,
        ("P", "L2", False): 94.83304251501625,
        ("P", "L2", True): 94.81851044756706,
        "error_Z2": 6302.516486100105,
        "interp_probe": -0.25590051649875645,
        "interp_L2": 0.014845881029685214,
    },
    "hanging": {
        ("W", "L2", False): 700.2498249950511,
        ("W", "L2", True): 700.2397791713761,
        ("U", "L2", False): 398.6749709807765,
        ("U", "L2", True): 398.6762908950031,
        ("P", "L2", False): 287.74368886227404,
        ("P", "L2", True): 287.75813450556035,
        "error_Z2": 35474.98705096986,
        "interp_probe": 0.022417244885474197,
        "interp_L2": 0.00801862538401697,
    },
}



@pytest.mark.parametrize("family", sorted(_PINNED_NORMS))
def test_norms_and_gradient_interpolant_match_pinned_values(family):
    spaces = StaggeredSpaces(cases.build_mesh(family, 4), 2)
    case = verify.trig_case(1e-2)
    exact = {"W": case.L, "U": case.u, "P": case.p}
    rng = np.random.default_rng(7)
    got = {}
    for tag in ("W", "U", "P"):
        f = DiscreteField(tag, rng.standard_normal(spaces.space(tag).ndof))
        got[tag, "L2", False] = verify.norm_eval(spaces, f, "L2")
        got[tag, "L2", True] = verify.norm_eval(spaces, f, "L2", exact=exact[tag])
    uh = DiscreteField("U", rng.standard_normal(spaces.U.ndof))
    got["error_Z2"] = verify.error_Z2(spaces, uh, case)
    Lh = spaces.interpolate("W", case.L)
    got["interp_probe"] = float(rng.standard_normal(spaces.W.ndof) @ Lh.coeffs)
    got["interp_L2"] = verify.norm_eval(spaces, Lh, "L2", exact=case.L)
    pinned = _PINNED_NORMS[family]
    assert set(got) == set(pinned)
    for key, value in pinned.items():
        assert abs(got[key] - value) <= 1e-12 * abs(value), key


# Recorded projection coefficients (h=1/4, k=1..3): Euclidean norm, a seeded
# random probe, and the entries at indices 0, 1, n//2 and n-1.
_PINNED_PROJECTIONS = {
    ("distorted", 1, "Ih"): (0.27838456137691076, -0.18300321971992106,
                             (-0.04639892538528596, 0.012638451362299194,
                              0.013827735398826127, 0.002176179835499807)),
    ("distorted", 1, "Jh"): (0.5322528360733844, -0.736360583433168,
                             (-0.05433957979411473, -0.026388811257747453,
                              0.0038294980079890887, 0.018594838909756328)),
    ("distorted", 2, "Ih"): (0.2784564623963611, 0.25777950204216177,
                             (-0.04639892538528596, 0.012638451362299194,
                              0.0092905663293436, 0.0008886064828105898)),
    ("distorted", 2, "Jh"): (0.5355060414677547, -1.0191449629921037,
                             (-0.05433957979411473, -0.026388811257747453,
                              0.018788288617171717, 0.0056010060924294985)),
    ("distorted", 3, "Ih"): (0.2784565141913488, -0.18437817581366478,
                             (-0.04639892538528596, 0.012638451362299194,
                              -1.7023326976292985e-05, -2.313273632924585e-05)),
    ("distorted", 3, "Jh"): (0.5356283766572574, -0.019857180549790097,
                             (-0.05433957979411473, -0.026388811257747453,
                              0.0006708146478636377, -0.0016024893196848378)),
    ("hanging", 1, "Ih"): (0.259695228471954, -0.20577705199593394,
                           (-0.028673498990962908, 0.003181969153333124,
                            -0.009128791519328319, 0.0015132231752202267)),
    ("hanging", 1, "Jh"): (0.5106404237513257, 0.6999219808743916,
                           (-0.008538735772973833, -0.0037756501792874384,
                            0.0002724840809221827, 0.014067442439954784)),
    ("hanging", 2, "Ih"): (0.25972659252390223, 0.11648951784393187,
                           (-0.028673498990962908, 0.003181969153333124,
                            0.001009692376666691, 0.00060485874280898)),
    ("hanging", 2, "Jh"): (0.5122235607867442, 0.0515827186523811,
                           (-0.008538735772973833, -0.0037756501792874384,
                            0.0020601292483556615, 0.004707651762012201)),
    ("hanging", 3, "Ih"): (0.2597266206637427, -0.3223415891376942,
                           (-0.028673498990962908, 0.003181969153333124,
                            6.052599784485231e-07, -1.321787146450454e-05)),
    ("hanging", 3, "Jh"): (0.5122710103763141, -0.11427863199827601,
                           (-0.008538735772973833, -0.0037756501792874384,
                            2.918482369848616e-06, -0.0007936022256579726)),
}


@pytest.mark.parametrize("family", ["distorted", "hanging"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_projections_match_pinned_values(family, k):
    spaces = StaggeredSpaces(cases.build_mesh(family, 4), k)
    case = verify.trig_case(1e-2)
    for name, tag, exact in (("Ih", "P", case.p), ("Jh", "U", case.u)):
        norm, probe, entries = _PINNED_PROJECTIONS[family, k, name]
        c = spaces.interpolate(tag, exact).coeffs
        n = len(c)
        assert abs(np.linalg.norm(c) - norm) <= 1e-12 * norm, name
        rng = np.random.default_rng(11)
        assert abs(rng.standard_normal(n) @ c - probe) <= 1e-12 * abs(probe), name
        # Entries are held relative to the vector norm: some are near zero.
        got = c[[0, 1, n // 2, n - 1]]
        assert np.abs(got - entries).max() <= 1e-12 * norm, name
