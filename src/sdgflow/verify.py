"""Manufactured solutions, projections, discrete norms and error tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import DUAL
from .spaces import DiscreteField, StaggeredSpaces

TWO_PI = 2.0 * math.pi


@dataclass
class ManufacturedCase:
    """Exact solution with derived data for the Brinkman system."""

    eps: float
    alpha: float
    u: callable  # (n,2) points -> (n,2)
    p: callable  # -> (n,)
    grad_u: callable  # -> (n,2,2)
    f: callable  # -> (n,2)
    g: callable  # -> (n,)

    def L(self, pts: np.ndarray) -> np.ndarray:
        """Scaled velocity gradient sqrt(eps) * grad(u)."""
        return math.sqrt(self.eps) * self.grad_u(pts)


def trig_case(eps: float, alpha: float = 1.0) -> ManufacturedCase:
    """Sinusoidal velocity with homogeneous boundary trace on the unit square."""
    if eps <= 0.0 or alpha <= 0.0:
        raise ValueError("coefficients must be positive")
    p_shift = math.sin(1.0) * (math.cos(1.0) - 1.0)

    def u(pts):
        pts = np.atleast_2d(pts)
        s = np.sin(TWO_PI * pts[:, 0]) * np.sin(TWO_PI * pts[:, 1])
        return np.stack([s, s], axis=1)

    def p(pts):
        pts = np.atleast_2d(pts)
        return np.sin(pts[:, 0]) * np.cos(pts[:, 1]) + p_shift

    def grad_u(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        dx = TWO_PI * np.cos(TWO_PI * x) * np.sin(TWO_PI * y)
        dy = TWO_PI * np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
        out = np.empty((len(pts), 2, 2))
        out[:, 0, 0] = dx
        out[:, 0, 1] = dy
        out[:, 1, 0] = dx
        out[:, 1, 1] = dy
        return out

    def f(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(TWO_PI * x) * np.sin(TWO_PI * y)
        react = (8.0 * math.pi ** 2 * eps + alpha) * s
        return np.stack(
            [react + np.cos(x) * np.cos(y), react - np.sin(x) * np.sin(y)], axis=1
        )

    def g(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return TWO_PI * (
            np.cos(TWO_PI * x) * np.sin(TWO_PI * y)
            + np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
        )

    return ManufacturedCase(eps, alpha, u, p, grad_u, f, g)


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


def project_Ih(case: ManufacturedCase, spaces: StaggeredSpaces) -> DiscreteField:
    """Pressure projection defined by primal-edge and interior moments."""
    return spaces.interpolate("P", case.p)


def project_Jh(case: ManufacturedCase, spaces: StaggeredSpaces) -> DiscreteField:
    """Velocity projection defined by dual-edge normal and interior moments."""
    return spaces.interpolate("U", case.u)


def interpolate_gradient(case: ManufacturedCase, spaces: StaggeredSpaces) -> DiscreteField:
    """Natural DOF interpolant of the scaled gradient into the W space."""
    return spaces.interpolate("W", case.L)


# -- norm evaluation ----------------------------------------------------

_NORM_SPACES = {
    "L2": ("W", "U", "P"),
    "X1": ("U",),
    "Z1": ("U",),
    "Z2": ("U",),
    "Xprime": ("W",),
    "Zprime": ("W",),
    "P0h": ("P",),
    "P1h": ("P",),
}


def _broken_tables(spaces: StaggeredSpaces, f: DiscreteField):
    """Values and gradients of the field at data quadrature points."""
    broken = spaces.broken(f)  # (nT, ncomp, nk)
    vals = np.einsum("tck,kq->tcq", broken, spaces.data_vals)
    grads = np.einsum("tck,kqb,tab->tcqa", broken, spaces.data_grads, spaces.invJT)
    return broken, vals, grads


def _exact_tables(spaces: StaggeredSpaces, tag: str, exact):
    X = spaces.data_points()
    nT, nq, _ = X.shape
    vals = np.asarray(exact(X.reshape(-1, 2)))
    if tag == "P":
        return vals.reshape(nT, 1, nq)
    if tag == "U":
        return np.moveaxis(vals.reshape(nT, nq, 2), 2, 1)
    return vals.reshape(nT, nq, 2, 2).transpose(0, 2, 3, 1).reshape(nT, 4, nq)


def _edge_values(spaces: StaggeredSpaces, f: DiscreteField, exact):
    """Per edge: quadrature weights and per-side trace values of (field - exact)."""
    broken = spaces.broken(f)
    rule = spaces.data_edge_quad
    mesh = spaces.mesh
    out = []
    for eid, e in enumerate(mesh.edges):
        ev = 0.0
        if exact is not None:
            lo, hi = mesh.vertices[e.v0], mesh.vertices[e.v1]
            pts = lo + np.outer((rule.points + 1.0) / 2.0, hi - lo)
            ev = np.asarray(exact(pts))
            if ev.ndim == 3:
                ev = ev.reshape(len(pts), 4).T
            elif ev.ndim == 2:
                ev = ev.T
            else:
                ev = ev[None, :]
        traces = spaces.side_traces(eid, spaces.data_traces)
        sides = [(sign, broken[t] @ T - ev) for (t, sign), T in zip(e.tris, traces)]
        out.append((e, rule.weights * (e.length / 2.0), sides))
    return out


def norm_eval(spaces: StaggeredSpaces, f: DiscreteField, norm_id: str, exact=None) -> float:
    """Discrete norm of a field, or of (field - exact) when `exact` is given.

    Edge jump terms use signed trace differences; trace averages stand in
    for the single-valued components the spaces guarantee.
    """
    if norm_id not in _NORM_SPACES:
        raise ValueError(f"unknown norm {norm_id!r}")
    if f.tag not in _NORM_SPACES[norm_id]:
        raise ValueError(f"norm {norm_id!r} is not defined on space {f.tag}")
    w = spaces.data_quad.weights
    _, vals, grads = _broken_tables(spaces, f)
    if exact is not None:
        vals = vals - _exact_tables(spaces, f.tag, exact)
    total = 0.0

    def cell_sum(sq):  # sq: (nT, nq) squared integrand
        return float(np.einsum("tq,q,t->", sq, w, spaces.detJ))

    if norm_id in ("L2", "X1", "Xprime", "P0h"):
        total += cell_sum((vals ** 2).sum(axis=1))
    if norm_id in ("Z1", "Zprime"):
        if exact is not None:
            raise ValueError("divergence seminorms of an error need a discrete difference")
        if f.tag == "U":
            div = grads[:, 0, :, 0] + grads[:, 1, :, 1]
            total += cell_sum(div ** 2)
        else:
            div = np.stack(
                [grads[:, 0, :, 0] + grads[:, 1, :, 1], grads[:, 2, :, 0] + grads[:, 3, :, 1]]
            )
            total += cell_sum((div ** 2).sum(axis=0))
    if norm_id in ("Z2", "P1h"):
        if exact is not None:
            raise NotImplementedError("gradient seminorm errors are handled by error_Z2")
        total += cell_sum((grads ** 2).sum(axis=(1, 3)))
    if norm_id == "L2":  # the only norm without edge terms
        return math.sqrt(total)

    for e, ws, sides in _edge_values(spaces, f, exact):
        he = e.length
        if norm_id == "X1" and e.kind == DUAL:
            vn = sum(tr for _s, tr in sides) / len(sides)
            vn = e.normal @ vn
            total += he * float(np.sum(ws * vn ** 2))
        elif norm_id == "Z1" and e.is_primal:
            jump = sum(s * (e.normal @ tr) for s, tr in sides)
            total += float(np.sum(ws * jump ** 2)) / he
        elif norm_id == "Z2":
            if e.is_primal:
                jump = sum(s * tr for s, tr in sides)
                total += float(np.sum(ws * (jump ** 2).sum(axis=0))) / he
            else:
                jump = sum(s * (e.tangent @ tr) for s, tr in sides)
                total += float(np.sum(ws * jump ** 2)) / he
        elif norm_id == "Xprime":
            mean = sum(tr for _s, tr in sides) / len(sides)
            gn = mean.reshape(2, 2, -1).transpose(0, 2, 1) @ e.normal  # (2, nq)
            if e.is_primal:
                total += he * float(np.sum(ws * (gn ** 2).sum(axis=0)))
            else:
                total += he * float(np.sum(ws * (e.tangent @ gn) ** 2))
        elif norm_id == "Zprime" and not e.is_primal:
            jump = sum(
                s * (tr.reshape(2, 2, -1).transpose(0, 2, 1) @ e.normal) for s, tr in sides
            )
            total += float(np.sum(ws * (jump ** 2).sum(axis=0))) / he
        elif norm_id == "P0h" and e.is_primal:
            mean = sum(tr for _s, tr in sides)[0] / len(sides)
            total += he * float(np.sum(ws * mean ** 2))
        elif norm_id == "P1h" and not e.is_primal:
            jump = sum(s * tr[0] for s, tr in sides)
            total += float(np.sum(ws * jump ** 2)) / he
    return math.sqrt(total)


def error_L2(spaces: StaggeredSpaces, f: DiscreteField, exact) -> float:
    """L2 distance between a discrete field and an exact callable."""
    return norm_eval(spaces, f, "L2", exact=exact)


def error_Z2(spaces: StaggeredSpaces, u_h: DiscreteField, case: ManufacturedCase) -> float:
    """Z2 norm of the velocity error, including the exact gradient volume term."""
    w = spaces.data_quad.weights
    _, _vals, grads = _broken_tables(spaces, u_h)
    X = spaces.data_points()
    nT, nq, _ = X.shape
    # Exact gradient rearranged to (nT, component, quad point, derivative).
    gx = case.grad_u(X.reshape(-1, 2)).reshape(nT, nq, 2, 2).transpose(0, 2, 1, 3)
    diff = grads - gx
    total = float(np.einsum("tcqa,tcqa,q,t->", diff, diff, w, spaces.detJ))
    for e, ws, sides in _edge_values(spaces, u_h, case.u):
        he = e.length
        if e.is_primal:
            jump = sum(s * tr for s, tr in sides)
            total += float(np.sum(ws * (jump ** 2).sum(axis=0))) / he
        else:
            jump = sum(s * (e.tangent @ tr) for s, tr in sides)
            total += float(np.sum(ws * jump ** 2)) / he
    return math.sqrt(total)


def lagrange_nodes(k: int) -> np.ndarray:
    """Uniform degree-k interpolation nodes on the reference triangle."""
    if k == 0:
        return np.array([[1.0 / 3.0, 1.0 / 3.0]])
    return np.array(
        [(i / k, j / k) for j in range(k + 1) for i in range(k + 1 - j)],
        dtype=float,
    )


def error_vs_interpolant(spaces: StaggeredSpaces, f: DiscreteField, exact) -> float:
    """L2 distance between a discrete field and the nodal interpolant of `exact`.

    The reference function is replaced by its per-triangle degree-k Lagrange
    interpolant at uniform nodes, so both arguments are piecewise polynomial
    and the integral is computed exactly. This measure has the same rate as
    the true L2 error; convergence tables report it because the interpolation
    step is a cheap, quadrature-free way to discretize the reference solution.
    """
    from . import polybasis as pb

    k = spaces.k
    P = lagrange_nodes(k)
    V = pb.tri_basis(k).eval(P)  # (nk, n_nodes), square for uniform nodes
    to_modal = np.linalg.inv(V.T)  # nodal values -> modal coefficients
    X = np.einsum("na,tba->tnb", P, spaces.jac) + spaces.origin[:, None, :]
    nT, nn, _ = X.shape
    vals = np.asarray(exact(X.reshape(-1, 2))).reshape(nT, nn, -1)
    coeffs = np.einsum("in,tnc->tci", to_modal, vals)
    diff = coeffs - spaces.broken(f)
    return math.sqrt(float((spaces.detJ[:, None, None] * diff ** 2).sum()))


def superconvergence_error(spaces: StaggeredSpaces, u_h: DiscreteField,
                           case: ManufacturedCase) -> float:
    """L2 norm of (J_h u - u_h)."""
    jh = project_Jh(case, spaces)
    return norm_eval(spaces, DiscreteField("U", jh.coeffs - u_h.coeffs), "L2")


# -- convergence tables -------------------------------------------------

@dataclass
class ConvergenceRow:
    level: int | None  # h^{-1}; None for a file mesh
    h: float
    ndof: int
    errors: dict[str, float]
    orders: dict[str, float] = field(default_factory=dict)


@dataclass
class ConvergenceTable:
    k: int
    eps: float
    family: str
    rows: list[ConvergenceRow] = field(default_factory=list)

    def add(self, row: ConvergenceRow) -> None:
        prev = self.rows[-1] if self.rows else None
        if prev is not None and prev.level * 2 == row.level:
            for key, err in row.errors.items():
                e0 = prev.errors.get(key)
                if e0 is not None and e0 > 0.0 and err > 0.0:
                    row.orders[key] = math.log2(e0 / err)
        self.rows.append(row)

    def order(self, key: str, level: int | None = None) -> float | None:
        rows = [r for r in self.rows if key in r.orders]
        if not rows:
            return None
        if level is None:
            return rows[-1].orders[key]
        for r in rows:
            if r.level == level:
                return r.orders[key]
        return None
