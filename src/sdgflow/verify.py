"""Manufactured solutions, the reported error measures and convergence tables."""

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
    if not (0.0 < eps < math.inf and 0.0 < alpha < math.inf):
        raise ValueError("coefficients must be positive and finite")
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


def norm_eval(spaces: StaggeredSpaces, f: DiscreteField, norm_id: str, exact=None) -> float:
    """L2 norm of a field, or of (field - exact) when `exact` is given.

    `norm_id` must be "L2". The norm reads only the field's values at the
    data quadrature points: no gradient table and no edge trace.
    """
    if norm_id != "L2":
        raise ValueError(f"unknown norm {norm_id!r}")
    vals = np.einsum("tck,kq->tcq", spaces.broken(f), spaces.data_vals)
    if exact is not None:
        X = spaces.data_points()
        nT, nq, _ = X.shape
        ex = np.asarray(exact(X.reshape(-1, 2))).reshape(nT, nq, -1)
        vals = vals - np.moveaxis(ex, 2, 1)
    sq = (vals ** 2).sum(axis=1)
    return math.sqrt(float(np.einsum("tq,q,t->", sq, spaces.data_quad.weights, spaces.detJ)))


def _edge_jumps(spaces: StaggeredSpaces, broken: np.ndarray, exact) -> np.ndarray:
    """Per edge: signed jump of the traces of (field - exact) at the data edge
    rule points, which run from v0 to v1; (nE, ncomp, nq). `broken` holds the
    field's per-triangle modal coefficients."""
    mesh = spaces.mesh
    te, nE = mesh.tri_edges, len(mesh.edge_length)
    T = spaces.data_traces[np.arange(3), spaces.side_flip]  # (nT, 3, nk, nq)
    tr = np.einsum("tck,tskq->tscq", broken, T)
    pts = spaces.data_edge_points()
    ev = np.asarray(exact(pts.reshape(-1, 2))).reshape(pts.shape[:2] + (-1,))
    tr = mesh.side_sign[..., None, None] * (tr - np.swapaxes(ev, 1, 2)[te])
    per = tr[0, 0].size
    idx = (te[..., None] * per + np.arange(per)).ravel()
    return np.bincount(idx, tr.ravel(), minlength=nE * per).reshape(nE, *tr.shape[2:])


def error_Z2(spaces: StaggeredSpaces, u_h: DiscreteField, case: ManufacturedCase) -> float:
    """Z2 norm of the velocity error: the broken gradient error plus, per edge,
    h_e^-1 times the squared jump of the error, all of it on primal edges and
    its tangential component on dual edges."""
    mesh, w = spaces.mesh, spaces.data_quad.weights
    broken = spaces.broken(u_h)
    X = spaces.data_points()
    nT, nq, _ = X.shape
    # Reference gradients, then the chain rule, both as batched products.
    ref = (broken @ spaces.data_grads.reshape(spaces.nk, -1)).reshape(nT, -1, 2)
    grads = (ref @ np.swapaxes(spaces.invJT, 1, 2)).reshape(nT, -1, nq, 2)
    # Exact gradient rearranged to (nT, component, quad point, derivative).
    gx = case.grad_u(X.reshape(-1, 2)).reshape(nT, nq, 2, 2).transpose(0, 2, 1, 3)
    diff = grads - gx
    total = float(spaces.detJ @ ((diff * diff).sum(axis=(1, 3)) @ w))
    jump = _edge_jumps(spaces, broken, case.u)
    tangential = np.einsum("ecq,ec->eq", jump, mesh.edge_tangent)

    def edge_sum(sq, mask):  # sum over the masked edges of h_e^-1 int_e sq ds
        return 0.5 * float((sq[mask] @ spaces.data_edge_quad.weights).sum())

    edges = (edge_sum((jump ** 2).sum(axis=1), mesh.edge_primal)
             + edge_sum(tangential ** 2, ~mesh.edge_primal))
    return math.sqrt(total + edges)


def lagrange_nodes(k: int) -> np.ndarray:
    """Uniform degree-k interpolation nodes on the reference triangle, k >= 1."""
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
    P = lagrange_nodes(spaces.k)
    V = spaces.basis.eval(P)  # (nk, n_nodes), square for uniform nodes
    to_modal = np.linalg.inv(V.T)  # nodal values -> modal coefficients
    X = spaces.physical(P)
    nT, nn, _ = X.shape
    vals = np.asarray(exact(X.reshape(-1, 2))).reshape(nT, nn, -1)
    coeffs = np.swapaxes(vals, 1, 2) @ to_modal.T
    diff = coeffs - spaces.broken(f)
    return math.sqrt(float((spaces.detJ[:, None, None] * diff ** 2).sum()))


def superconvergence_error(spaces: StaggeredSpaces, u_h: DiscreteField,
                           case: ManufacturedCase) -> float:
    """L2 norm of (J_h u - u_h)."""
    jh = spaces.interpolate("U", case.u)
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
    rows: list[ConvergenceRow] = field(default_factory=list)

    def add(self, row: ConvergenceRow) -> None:
        prev = self.rows[-1] if self.rows else None
        if prev is not None and prev.level * 2 == row.level:
            for key, err in row.errors.items():
                e0 = prev.errors.get(key)
                if e0 is not None and e0 > 0.0 and err > 0.0:
                    row.orders[key] = math.log2(e0 / err)
        self.rows.append(row)
