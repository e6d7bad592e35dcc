"""Manufactured solutions, projections, discrete norms and error tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def _edge_jump_mean(spaces: StaggeredSpaces, f: DiscreteField, exact):
    """Per edge: signed jump and mean of the traces of (field - exact) at the
    data edge rule points, which run from v0 to v1; each (nE, ncomp, nq)."""
    mesh = spaces.mesh
    te, nE = mesh.tri_edges, len(mesh.edge_length)
    T = spaces.data_traces[np.arange(3), spaces.side_flip]  # (nT, 3, nk, nq)
    tr = np.einsum("tck,tskq->tscq", spaces.broken(f), T)
    if exact is not None:
        rule = spaces.data_edge_quad
        lo, hi = mesh.vertices[mesh.edge_v0], mesh.vertices[mesh.edge_v1]
        pts = lo[:, None] + ((rule.points + 1.0) / 2.0)[:, None] * (hi - lo)[:, None]
        ev = np.asarray(exact(pts.reshape(-1, 2))).reshape(nE, len(rule.points), -1)
        tr = tr - np.swapaxes(ev, 1, 2)[te]
    per = tr[0, 0].size
    idx = (te[..., None] * per + np.arange(per)).ravel()

    def edge_sum(v):
        return np.bincount(idx, v.ravel(), minlength=nE * per).reshape(nE, *tr.shape[2:])

    ntris = np.bincount(te.ravel(), minlength=nE)
    return edge_sum(mesh.side_sign[..., None, None] * tr), edge_sum(tr) / ntris[:, None, None]


def _jump_sum(spaces: StaggeredSpaces, sq: np.ndarray, mask: np.ndarray) -> float:
    """Sum over the masked edges of h_e^-1 int_e sq ds, sq (nE, nq)."""
    return 0.5 * float((sq[mask] @ spaces.data_edge_quad.weights).sum())


def _mean_sum(spaces: StaggeredSpaces, sq: np.ndarray, mask: np.ndarray) -> float:
    """Sum over the masked edges of h_e int_e sq ds, sq (nE, nq)."""
    he = spaces.mesh.edge_length[mask]
    return 0.5 * float((he ** 2) @ (sq[mask] @ spaces.data_edge_quad.weights))


def _z2_edges(spaces: StaggeredSpaces, jump: np.ndarray) -> float:
    """Edge part of the Z2 norm from the jumps of a velocity field."""
    mesh = spaces.mesh
    tangential = np.einsum("ecq,ec->eq", jump, mesh.edge_tangent)
    return (_jump_sum(spaces, (jump ** 2).sum(axis=1), mesh.edge_primal)
            + _jump_sum(spaces, tangential ** 2, ~mesh.edge_primal))


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

    jump, mean = _edge_jump_mean(spaces, f, exact)
    mesh = spaces.mesh
    n, tg, primal = mesh.edge_normal, mesh.edge_tangent, mesh.edge_primal
    if norm_id == "X1":
        total += _mean_sum(spaces, np.einsum("ecq,ec->eq", mean, n) ** 2, ~primal)
    elif norm_id == "Z1":
        total += _jump_sum(spaces, np.einsum("ecq,ec->eq", jump, n) ** 2, primal)
    elif norm_id == "Z2":
        total += _z2_edges(spaces, jump)
    elif norm_id == "Xprime":
        gn = np.einsum("eabq,eb->eaq", mean.reshape(len(n), 2, 2, -1), n)
        total += _mean_sum(spaces, (gn ** 2).sum(axis=1), primal)
        total += _mean_sum(spaces, np.einsum("eaq,ea->eq", gn, tg) ** 2, ~primal)
    elif norm_id == "Zprime":
        gn = np.einsum("eabq,eb->eaq", jump.reshape(len(n), 2, 2, -1), n)
        total += _jump_sum(spaces, (gn ** 2).sum(axis=1), ~primal)
    elif norm_id == "P0h":
        total += _mean_sum(spaces, mean[:, 0] ** 2, primal)
    elif norm_id == "P1h":
        total += _jump_sum(spaces, jump[:, 0] ** 2, ~primal)
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
    jump, _ = _edge_jump_mean(spaces, u_h, case.u)
    return math.sqrt(total + _z2_edges(spaces, jump))


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
