"""Reference-element polynomial bases and quadrature.

All volume computations live on the reference triangle with vertices
(0,0), (1,0), (0,1); edge computations live on the reference interval
[-1, 1]. Triangle bases are modal (Dubiner-type, L2-orthonormal) and
ordered by total degree, so the first dim(P^{k-1}) functions span P^{k-1}.
Everything here is numpy only: Jacobi polynomials come from their
three-term recurrence and the Gauss-Jacobi rule from its Jacobi matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 6
MAX_QUAD_DEGREE = 20

_SQRT2 = math.sqrt(2.0)


def tri_dim(k: int) -> int:
    """Dimension of P^k on a triangle."""
    return (k + 1) * (k + 2) // 2


def _jacobi(nmax: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Jacobi polynomials P_n^(alpha, beta)(x) for n = 0..nmax, shape (nmax+1, npts).

    Standard normalization, P_n(1) = binom(n + alpha, n), by the three-term
    recurrence (Abramowitz and Stegun 22.7.1).
    """
    out = np.empty((nmax + 1, len(x)))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    ab = alpha + beta
    for n in range(2, nmax + 1):
        c = 2 * n + ab
        out[n] = ((c - 1) * (c * (c - 2) * x + alpha**2 - beta**2) * out[n - 1]
                  - 2 * (n + alpha - 1) * (n + beta - 1) * c * out[n - 2]) / (
                      2 * n * (n + ab) * (c - 2))
    return out


def _jacobi_normalized(nmax: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    # Orthonormal w.r.t. the weight (1-x)^alpha (1+x)^beta on [-1, 1].
    norms = [math.sqrt(math.exp(
        (alpha + beta + 1) * math.log(2.0)
        + math.lgamma(n + alpha + 1)
        + math.lgamma(n + beta + 1)
        - math.log(2 * n + alpha + beta + 1)
        - math.lgamma(n + 1)
        - math.lgamma(n + alpha + beta + 1)
    )) for n in range(nmax + 1)]
    return _jacobi(nmax, alpha, beta, x) / np.array(norms)[:, None]


def _jacobi_normalized_deriv(nmax: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    out = np.zeros((nmax + 1, len(x)))
    if nmax:
        n = np.arange(1, nmax + 1)
        out[1:] = (np.sqrt(n * (n + alpha + beta + 1))[:, None]
                   * _jacobi_normalized(nmax - 1, alpha + 1, beta + 1, x))
    return out


def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi rule for (1-x)^alpha (1+x)^beta, alpha + beta > 0.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the monic recurrence, the weights mu0 times the squared first
    eigenvector components.
    """
    ab = alpha + beta
    c = 2 * np.arange(n) + ab
    diag = (beta**2 - alpha**2) / (c * (c + 2))
    m, c = np.arange(1, n), c[1:]
    off = np.sqrt(4 * m * (m + alpha) * (m + beta) * (m + ab) / (c**2 * (c + 1) * (c - 1)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (ab + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1) / math.gamma(ab + 2)
    return nodes, mu0 * vecs[0] ** 2


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

    def _rows(self, i: int) -> np.ndarray:
        # Rows of the Dubiner modes (i, j), j = 0..k-i. Modes are ordered by
        # total degree d = i + j, then by i, so (i, j) follows the
        # dim(P^{d-1}) modes of lower degree.
        d = np.arange(i, self.k + 1)
        return d * (d + 1) // 2 + i

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Basis values at points (npts, 2); returns (dim, npts)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a, b = _collapsed_coords(pts[:, 0], pts[:, 1])
        out = np.empty((self.dim, len(pts)))
        fa = _jacobi_normalized(self.k, 0.0, 0.0, a)
        for i in range(self.k + 1):
            gb = _jacobi_normalized(self.k - i, 2.0 * i + 1.0, 0.0, b)
            out[self._rows(i)] = 2.0 * _SQRT2 * fa[i] * gb * (1.0 - b) ** i
        return out

    def grad(self, points: np.ndarray) -> np.ndarray:
        """Basis gradients at points (npts, 2); returns (dim, npts, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        a, b = _collapsed_coords(pts[:, 0], pts[:, 1])
        out = np.empty((self.dim, len(pts), 2))
        fa = _jacobi_normalized(self.k, 0.0, 0.0, a)
        dfa = _jacobi_normalized_deriv(self.k, 0.0, 0.0, a)
        for i in range(self.k + 1):
            gb = _jacobi_normalized(self.k - i, 2.0 * i + 1.0, 0.0, b)
            dgb = _jacobi_normalized_deriv(self.k - i, 2.0 * i + 1.0, 0.0, b)
            pow_i = (1.0 - b) ** i
            pow_im1 = (1.0 - b) ** (i - 1) if i > 0 else np.zeros_like(b)
            dr = 2.0 * _SQRT2 * dfa[i] * gb * pow_im1
            ds = _SQRT2 * (
                dfa[i] * gb * (1.0 + a) * pow_im1 + fa[i] * (dgb * pow_i - i * gb * pow_im1)
            )
            # Chain rule for (r,s) = (2x-1, 2y-1) and the factor-2 rescaling
            # that makes the basis orthonormal on the area-1/2 reference triangle.
            rows = self._rows(i)
            out[rows, :, 0] = 4.0 * dr
            out[rows, :, 1] = 4.0 * ds
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
        return _jacobi_normalized(self.k, 0.0, 0.0, xi)


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (npts, dim) for triangles, (npts,) for edges
    weights: np.ndarray


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
    xb, wb = _gauss_jacobi(n, 1.0, 0.0)
    A, B = np.meshgrid(xa, xb, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    x = (1.0 + A) * (1.0 - B) / 4.0
    y = (1.0 + B) / 2.0
    w = WA * WB / 8.0
    pts = np.column_stack([x.ravel(), y.ravel()])
    return QuadratureRule(pts, w.ravel())


def edge_quadrature(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact for P^degree."""
    if not 0 <= degree <= MAX_QUAD_DEGREE:
        raise ValueError(f"unsupported edge quadrature degree {degree}")
    n = max(1, (degree + 2) // 2)
    xi, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(xi, w)
