"""End-to-end acceptance suite.

Each test prints one summary line (PASS/FAIL with the measured margins) and
asserts the corresponding acceptance condition.  Solves are cached per
(mesh family, order, resolution, viscosity) so the criteria share work; only
scalar metrics are retained to keep the peak memory low.
"""

import math
import time

import numpy as np
import pytest

from adjoint_oracle import assemble_B_star, assemble_D_star
from sdgflow import cases, forms, mesh as mm, solver, verify
from sdgflow.polybasis import tri_dim
from sdgflow.spaces import StaggeredSpaces

ALPHA = 1.0

# Which viscosities each (family, k, n) combination is solved at.
_SQUARE_EPS = (1.0, 1e-2, 1e-4, 1e-8)
_DISTORTED_EPS = (1.0, 1e-8)

_EPS_PLAN = {}
for _k in (1, 2, 3):
    for _n in (8, 16, 32):
        _EPS_PLAN[("square", _k, _n)] = _SQUARE_EPS
        _EPS_PLAN[("distorted", _k, _n)] = _DISTORTED_EPS
for _n in (4, 8, 16):
    _EPS_PLAN[("hanging", 1, _n)] = (1.0,)

_CACHE: dict[tuple, dict] = {}


def metrics(family: str, k: int, n: int, eps: float) -> dict:
    key = (family, k, n, eps)
    if key in _CACHE:
        return _CACHE[key]
    spaces = StaggeredSpaces(cases.build_mesh(family, n), k)
    blocks = solver.assemble_blocks(spaces, ALPHA)
    for e in _EPS_PLAN[(family, k, n)]:
        case = verify.trig_case(e, ALPHA)
        F, G = forms.assemble_rhs(spaces, case.f, case.g)
        system = solver.build_system(blocks, e, ALPHA, F, G)
        sol = solver.solve(system)
        _CACHE[(family, k, n, e)] = {
            "u": verify.error_vs_interpolant(spaces, sol.u, case.u),
            "L": verify.error_vs_interpolant(spaces, sol.L, case.L),
            "p": verify.error_vs_interpolant(spaces, sol.p, case.p),
            "super": verify.superconvergence_error(spaces, sol.u, case),
            "z2": math.sqrt(e) * verify.error_Z2(spaces, sol.u, case),
            "resid": sol.residual,
        }
        del system, sol
    del blocks, spaces
    return _CACHE[key]


def order(e_coarse: float, e_fine: float, halvings: int = 1) -> float:
    return math.log2(e_coarse / e_fine) / halvings


def sweep_order(family, k, eps, key, levels=(8, 16, 32)) -> float:
    """Aggregate observed order from the coarsest to the finest level."""
    e0 = metrics(family, k, levels[0], eps)[key]
    e1 = metrics(family, k, levels[-1], eps)[key]
    halvings = round(math.log2(levels[-1] / levels[0]))
    return order(e0, e1, halvings)


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- criterion 1: benchmark error magnitudes ------------------------------

def test_criterion_1_benchmark_errors(capsys):
    targets = [
        (1, 8, {"u": 4.41e-2, "L": 3.79e-1, "p": 6.98e-2}),
        (2, 16, {"u": 2.30e-4, "L": 2.49e-3, "p": 5.76e-4}),
        (3, 8, {"u": 8.64e-5, "L": 9.09e-4, "p": 2.42e-4}),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for k, n, ref in targets:
        got = metrics("square", k, n, 1.0)
        for key, target in ref.items():
            worst = max(worst, abs(got[key] / target - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.10 and elapsed <= 120.0
    report(capsys, 1, ok,
           f"square eps=1 benchmark errors, max deviation {100 * worst:.1f}% "
           f"(limit 10%), {elapsed:.1f}s (limit 120s)")


# -- criterion 2: uniform-in-eps convergence orders -----------------------

def test_criterion_2_orders_uniform_in_eps(capsys):
    lines = []
    ok = True
    for k in (1, 2, 3):
        for eps in _SQUARE_EPS:
            ou = sweep_order("square", k, eps, "u")
            op = sweep_order("square", k, eps, "p")
            u_ok = k + 0.8 <= ou <= k + 1.2
            # Pressure is allowed to exceed the optimal rate: it genuinely
            # superconverges in the friction-dominated regime, so only the
            # lower bound is binding.
            p_ok = op >= k + 0.8
            ok = ok and u_ok and p_ok
            lines.append(f"k={k} eps={eps:g}: ord_u={ou:.2f} ord_p={op:.2f}")
    report(capsys, 2, ok,
           "square orders 8->32 within bands (ord_u two-sided, ord_p lower "
           "bound; pressure may superconverge for small eps) | "
           + "; ".join(lines))


# -- criterion 3: friction-dominated limit spot check ---------------------

def test_criterion_3_darcy_limit(capsys):
    got = metrics("square", 1, 32, 1e-8)
    du = abs(got["u"] / 2.79e-3 - 1.0)
    dp = abs(got["p"] / 3.64e-5 - 1.0)
    ord_L = order(metrics("square", 1, 16, 1e-8)["L"], got["L"])
    ok = du <= 0.10 and dp <= 0.25 and ord_L <= 1.8
    report(capsys, 3, ok,
           f"eps=1e-8 k=1 h=1/32: u deviation {100 * du:.1f}% (limit 10%), "
           f"p deviation {100 * dp:.1f}% (limit 25%), "
           f"finest gradient order {ord_L:.2f} (reported, limit 1.8)")


# -- criterion 4: velocity superconvergence -------------------------------

def test_criterion_4_superconvergence(capsys):
    o = sweep_order("square", 1, 1.0, "super")
    ok = o >= 2.7
    report(capsys, 4, ok,
           f"k=1 eps=1 order of the projected-velocity gap 8->32: {o:.2f} "
           f"(limit >= 2.7)")


# -- criterion 5: scaled gradient seminorm estimate -----------------------

def test_criterion_5_scaled_gradient_orders(capsys):
    lines = []
    ok = True
    for k in (1, 2):
        for eps in (1.0, 1e-2):
            o = sweep_order("square", k, eps, "z2")
            ok = ok and o >= k - 0.2
            lines.append(f"k={k} eps={eps:g}: {o:.2f}")
    report(capsys, 5, ok,
           "scaled gradient-seminorm orders >= k-0.2 | " + "; ".join(lines))


# -- criterion 6: distorted grids -----------------------------------------

def test_criterion_6_distorted_orders(capsys):
    lines = []
    ok = True
    for k in (1, 2, 3):
        for eps in _DISTORTED_EPS:
            ou = sweep_order("distorted", k, eps, "u")
            op = sweep_order("distorted", k, eps, "p")
            u_ok = k + 0.7 <= ou <= k + 1.3
            p_ok = op >= k + 0.7  # superconvergence allowed, as on squares
            ok = ok and u_ok and p_ok
            lines.append(f"k={k} eps={eps:g}: ord_u={ou:.2f} ord_p={op:.2f}")
    report(capsys, 6, ok,
           "distorted (seed 42) orders 8->32 within bands (ord_u two-sided, "
           "ord_p lower bound) | " + "; ".join(lines))


# -- criterion 7: structural property suite -------------------------------

def _structural_checks():
    failures = []

    meshes = {
        "square2": cases.build_mesh("square", 2),
        "square3": cases.build_mesh("square", 3),
        "distorted": cases.build_mesh("distorted", 3),
        "hanging": cases.build_mesh("hanging", 4),
        "two-rect": mm.build_staggered(mm.import_polygon_mesh(
            "6 2\n0 0\n1 0\n1 1\n0 1\n0 0.5\n1 0.5\n4 0 1 5 4\n4 4 5 2 3\n")),
    }

    # Counting identity: one dual edge per submesh triangle.
    for name, sm in meshes.items():
        if len(sm.dual_edge_ids) != sm.num_triangles:
            failures.append(f"dual-edge count on {name}")

    # Space dimension formulas, all meshes x k in 1..3.
    for name, sm in meshes.items():
        for k in range(1, 4):
            sp = StaggeredSpaces(sm, k)
            np_, nd = len(sm.primal_edge_ids), len(sm.dual_edge_ids)
            nk1 = tri_dim(k - 1)
            nT = sm.num_triangles
            if sp.W.ndof != 2 * (k + 1) * np_ + (k + 1) * nd + 4 * nk1 * nT:
                failures.append(f"dim W on {name} k={k}")
            if sp.U.ndof != (k + 1) * nd + 2 * nk1 * nT:
                failures.append(f"dim U on {name} k={k}")
            if sp.P.ndof != (k + 1) * np_ + nk1 * nT:
                failures.append(f"dim P on {name} k={k}")

    # Adjoint assemblies are exact transposes of each other.
    sp = StaggeredSpaces(meshes["distorted"], 2)
    B, Bs = forms.assemble_B(sp), assemble_B_star(sp)
    D, Ds = forms.assemble_D(sp), assemble_D_star(sp)
    if np.abs((B - Bs).toarray()).max() > 1e-12 * max(1.0, np.abs(B.data).max()):
        failures.append("B adjoint transpose")
    if np.abs((D - Ds).toarray()).max() > 1e-12 * max(1.0, np.abs(D.data).max()):
        failures.append("D adjoint transpose")

    # Polynomial reproduction of the projections and all three spaces.
    def vec(pts):
        base = 1.0 + pts[:, 0] - 0.5 * pts[:, 1] + 0.25 * pts[:, 0] * pts[:, 1]
        return np.stack([base, 2.0 * base - pts[:, 0]], axis=1)

    def mat(pts):
        v = vec(pts)
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = v[:, 0]
        out[:, 0, 1] = v[:, 1]
        out[:, 1, 0] = -v[:, 1]
        out[:, 1, 1] = v[:, 0] + 1.0
        return out

    sca = lambda pts: vec(pts)[:, 0]
    ref = np.array([[0.25, 0.25], [0.5, 0.2], [0.2, 0.55]])
    fields = {"P": sca, "U": vec, "W": mat}
    for tag, fn in fields.items():
        fh = sp.interpolate(tag, fn)
        worst = 0.0
        for t in range(sp.mesh.num_triangles):
            pts = ref @ sp.jac[t].T + sp.origin[t]
            worst = max(worst, float(np.abs(
                np.asarray(sp.eval_field(fh, t, pts)) - np.asarray(fn(pts))).max()))
        if worst > 1e-11:
            failures.append(f"reproduction in {tag} ({worst:.1e})")

    # Divergence-block identity against a velocity with known divergence.
    def u_div(pts):
        return np.stack(
            [pts[:, 0] * (1.0 - pts[:, 0]), pts[:, 1] * (1.0 - pts[:, 1])],
            axis=1,
        )

    def g_div(pts):
        return 2.0 - 2.0 * pts[:, 0] - 2.0 * pts[:, 1]

    uh = sp.interpolate("U", u_div)
    _, G = forms.assemble_rhs(sp, u_div, g_div)
    # u_div . n = 0 on the boundary, so no boundary correction is needed.
    resid = float(np.abs(forms.assemble_D(sp) @ uh.coeffs + G).max())
    if resid > 1e-10:
        failures.append(f"divergence-block residual {resid:.1e}")

    # Zero data must give the zero solution.
    zero_v = lambda pts: np.zeros((len(pts), 2))
    zero_s = lambda pts: np.zeros(len(pts))
    sp1 = StaggeredSpaces(meshes["square3"], 1)
    sol, _ = solver.solve_case(sp1, 1.0, ALPHA, zero_v, zero_s)
    zmax = max(verify.norm_eval(sp1, f, "L2") for f in (sol.L, sol.u, sol.p))
    if zmax > 1e-10:
        failures.append(f"zero-data solution norm {zmax:.1e}")

    # Hanging-node convergence over two refinements.
    o1 = order(metrics("hanging", 1, 4, 1.0)["u"], metrics("hanging", 1, 8, 1.0)["u"])
    o2 = order(metrics("hanging", 1, 8, 1.0)["u"], metrics("hanging", 1, 16, 1.0)["u"])
    if min(o1, o2) < 1.7:
        failures.append(f"hanging-node orders {o1:.2f}, {o2:.2f}")

    return failures, (o1, o2)


def test_criterion_7_structural_suite(capsys):
    failures, hanging = _structural_checks()
    ok = not failures
    detail = ("all structural checks passed (adjoints, dimensions, counting, "
              "reproduction, divergence identity, zero data, hanging orders "
              f"{hanging[0]:.2f}/{hanging[1]:.2f})"
              if ok else "failed: " + "; ".join(failures))
    report(capsys, 7, ok, detail)
