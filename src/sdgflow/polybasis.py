"""Reference-element polynomial bases and quadrature.

All volume computations live on the reference triangle with vertices
(0,0), (1,0), (0,1); edge computations live on the reference interval
[-1, 1]. Triangle bases are modal (Dubiner-type, L2-orthonormal) and
ordered by total degree, so the first dim(P^{k-1}) functions span P^{k-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_jacobi, gammaln, roots_jacobi

MAX_ORDER = 6
MAX_QUAD_DEGREE = 20

_SQRT2 = math.sqrt(2.0)


def tri_dim(k: int) -> int:
    """Dimension of P^k on a triangle."""
    return (k + 1) * (k + 2) // 2


def _jacobi_normalized(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    # Orthonormal w.r.t. the weight (1-x)^alpha (1+x)^beta on [-1, 1].
    lognorm = (
        (alpha + beta + 1) * math.log(2.0)
        + gammaln(n + alpha + 1)
        + gammaln(n + beta + 1)
        - math.log(2 * n + alpha + beta + 1)
        - gammaln(n + 1)
        - gammaln(n + alpha + beta + 1)
    )
    return eval_jacobi(n, alpha, beta, x) / math.sqrt(math.exp(lognorm))


def _jacobi_normalized_deriv(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    if n == 0:
        return np.zeros_like(x)
    return math.sqrt(n * (n + alpha + beta + 1)) * _jacobi_normalized(n - 1, alpha + 1, beta + 1, x)


def _collapsed_coords(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Map reference-triangle coords to the collapsed square [-1,1]^2.
    b = 2.0 * y - 1.0
    denom = 1.0 - b
    safe = np.where(np.abs(denom) < 1e-14, 1.0, denom)
    a = np.where(np.abs(denom) < 1e-14, -1.0, (4.0 * x) / safe - 1.0)
    return a, b


@dataclass(frozen=True)
class TriBasis:
    """Orthonormal modal basis of P^k on the reference triangle."""

    k: int

    @property
    def dim(self) -> int:
        return tri_dim(self.k)

    @property
    def orders(self) -> list[tuple[int, int]]:
        # (i, j) Dubiner mode pairs, ordered by total degree i + j.
        return [(i, d - i) for d in range(self.k + 1) for i in range(d + 1)]

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Basis values at points (npts, 2); returns (dim, npts)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a, b = _collapsed_coords(pts[:, 0], pts[:, 1])
        out = np.empty((self.dim, len(pts)))
        for row, (i, j) in enumerate(self.orders):
            fa = _jacobi_normalized(i, 0.0, 0.0, a)
            gb = _jacobi_normalized(j, 2.0 * i + 1.0, 0.0, b)
            out[row] = 2.0 * _SQRT2 * fa * gb * (1.0 - b) ** i
        return out

    def grad(self, points: np.ndarray) -> np.ndarray:
        """Basis gradients at points (npts, 2); returns (dim, npts, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a, b = _collapsed_coords(pts[:, 0], pts[:, 1])
        out = np.empty((self.dim, len(pts), 2))
        for row, (i, j) in enumerate(self.orders):
            fa = _jacobi_normalized(i, 0.0, 0.0, a)
            dfa = _jacobi_normalized_deriv(i, 0.0, 0.0, a)
            gb = _jacobi_normalized(j, 2.0 * i + 1.0, 0.0, b)
            dgb = _jacobi_normalized_deriv(j, 2.0 * i + 1.0, 0.0, b)
            pow_i = (1.0 - b) ** i
            pow_im1 = (1.0 - b) ** (i - 1) if i > 0 else np.zeros_like(b)
            dr = 2.0 * _SQRT2 * dfa * gb * pow_im1
            ds = _SQRT2 * (
                dfa * gb * (1.0 + a) * pow_im1 + fa * (dgb * pow_i - i * gb * pow_im1)
            )
            # Chain rule for (r,s) = (2x-1, 2y-1) and the factor-2 rescaling
            # that makes the basis orthonormal on the area-1/2 reference triangle.
            out[row, :, 0] = 4.0 * dr
            out[row, :, 1] = 4.0 * ds
        return out


@dataclass(frozen=True)
class EdgeBasis:
    """Orthonormal Legendre basis of P^k on [-1, 1]."""

    k: int

    @property
    def dim(self) -> int:
        return self.k + 1

    def eval(self, xi: np.ndarray) -> np.ndarray:
        """Basis values at xi (npts,); returns (dim, npts)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.empty((self.dim, len(xi)))
        for n in range(self.dim):
            out[n] = _jacobi_normalized(n, 0.0, 0.0, xi)
        return out


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (npts, dim) for triangles, (npts,) for edges
    weights: np.ndarray
    degree: int


def tri_basis(k: int) -> TriBasis:
    if not 0 <= k <= MAX_ORDER:
        raise ValueError(f"unsupported triangle basis order {k} (need 0..{MAX_ORDER})")
    return TriBasis(k)


def edge_basis(k: int) -> EdgeBasis:
    if not 0 <= k <= MAX_ORDER:
        raise ValueError(f"unsupported edge basis order {k} (need 0..{MAX_ORDER})")
    return EdgeBasis(k)


def tri_quadrature(degree: int) -> QuadratureRule:
    """Positive rule on the reference triangle, exact for P^degree.

    Collapsed tensor rule: Gauss-Legendre in the first direction and
    Gauss-Jacobi(1,0) in the second, which absorbs the Duffy Jacobian.
    """
    if not 0 <= degree <= MAX_QUAD_DEGREE:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    n = max(1, (degree + 2) // 2)
    xa, wa = np.polynomial.legendre.leggauss(n)
    xb, wb = roots_jacobi(n, 1.0, 0.0)
    A, B = np.meshgrid(xa, xb, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    x = (1.0 + A) * (1.0 - B) / 4.0
    y = (1.0 + B) / 2.0
    w = WA * WB / 8.0
    pts = np.column_stack([x.ravel(), y.ravel()])
    return QuadratureRule(pts, w.ravel(), degree)


def edge_quadrature(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact for P^degree."""
    if not 0 <= degree <= MAX_QUAD_DEGREE:
        raise ValueError(f"unsupported edge quadrature degree {degree}")
    n = max(1, (degree + 2) // 2)
    xi, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(xi, w, degree)
