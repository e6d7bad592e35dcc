"""Plain sparse LU of the whole saddle matrix, the oracle of solver.solve.

It factorizes the full system with SuperLU's default column ordering and no
elimination, then refines against the same matrix, so it shares nothing with
the two-stage condensation but the assembled system.
"""

import numpy as np
import scipy.sparse.linalg as spla

REFINE_STEPS = 5
REFINE_TARGET = 1e-12


def direct_solve(system) -> np.ndarray:
    """Stacked solution (L, u, p, multiplier) of a solver.SaddleSystem."""
    K, b = system.matrix, system.rhs
    lu = spla.splu(K)
    x = lu.solve(b)
    bnorm = max(float(np.linalg.norm(b)), 1.0)
    for _ in range(REFINE_STEPS):
        if np.linalg.norm(K @ x - b) / bnorm <= REFINE_TARGET:
            break
        x = x + lu.solve(b - K @ x)
    return x
