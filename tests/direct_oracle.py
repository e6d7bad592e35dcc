"""Plain sparse LU of the whole saddle matrix, the oracle of solver.solve.

It assembles the global saddle matrix from the element stacks with
forms.scatter, factorizes it with SuperLU's default column ordering and no
elimination, then refines against the same matrix to the solver's
componentwise target, so it shares nothing with the two-stage condensation
but the element stacks and that target.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sdgflow import forms, solver

REFINE_STEPS = 5


def saddle_matrix(system) -> sp.csc_matrix:
    """The symmetric saddle matrix of a solver.SaddleSystem, unknowns stacked
    as (L, u, p, multiplier), with the gradient and divergence rows negated."""
    s, el = system.blocks.spaces, system.blocks.elements
    M, B = forms.scatter(s.W, s.W, s.gather(el.M)), forms.scatter(s.U, s.W, s.gather(el.B))
    A, D = forms.scatter(s.U, s.U, s.gather(el.A)), forms.scatter(s.P, s.U, s.gather(el.D))
    c = sp.csr_matrix(system.blocks.c.reshape(-1, 1))
    se = math.sqrt(system.eps)
    return sp.bmat([[-M, se * B.T, None, None],
                    [se * B, A, D.T, None],
                    [None, D, None, -c],
                    [None, None, -c.T, None]], format="csc")


def residual(system, x) -> float:
    """Relative residual ||K x - b|| / max(||b||, 1), the measure solve reports."""
    K, b = saddle_matrix(system), system.rhs
    return float(np.linalg.norm(K @ x - b)) / max(float(np.linalg.norm(b)), 1.0)


def backward_error(K, x, b) -> float:
    """Componentwise backward error max_i |r_i| / (|K||x| + |b|)_i of x,
    0 where both vanish and NaN where x is not finite."""
    r, scale = np.abs(K @ x - b), abs(K) @ np.abs(x) + np.abs(b)
    # `!= 0` rather than `> 0`: a NaN scale must divide, so that a non-finite
    # x gives a NaN error and fails every comparison with a bound.
    return float(np.divide(r, scale, out=np.zeros_like(r), where=scale != 0).max())


def direct_solve(system) -> np.ndarray:
    """Stacked solution (L, u, p, multiplier) of a solver.SaddleSystem,
    refined until its backward error meets solver.REFINE_TARGET or stops
    falling."""
    K, b = saddle_matrix(system), system.rhs
    lu = spla.splu(K)
    x = lu.solve(b)
    omega = backward_error(K, x, b)
    for _ in range(REFINE_STEPS):
        if omega <= solver.REFINE_TARGET:
            break
        y = x + lu.solve(b - K @ x)
        w = backward_error(K, y, b)
        if not w < omega:  # no progress, or not finite
            break
        x, omega = y, w
    return x
