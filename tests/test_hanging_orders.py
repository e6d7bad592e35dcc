"""Convergence orders on the hanging-node grid at k = 2 and 3, at both ends
of the viscosity range.

The acceptance suite checks hanging-node orders at k = 1 and eps = 1 only
(criterion 7). Here the velocity and pressure orders of every halving
4 -> 8 -> 16 are held in the bands of criterion 6, which the distorted grids
meet, at eps = 1 and eps = 1e-8.
"""

import numpy as np
import pytest

from sdgflow import cases, forms, solver, verify
from sdgflow.spaces import StaggeredSpaces

ALPHA = 1.0
LEVELS = (4, 8, 16)
EPS = (1.0, 1e-8)


def errors(k: int) -> dict[float, np.ndarray]:
    """Errors of u and p against their interpolants, per eps, one row per
    level. The mesh, spaces and blocks of each level are built once and
    solved at every eps."""
    out = {eps: [] for eps in EPS}
    for n in LEVELS:
        spaces = StaggeredSpaces(cases.build_mesh("hanging", n), k)
        blocks = solver.assemble_blocks(spaces, ALPHA)
        for eps in EPS:
            case = verify.trig_case(eps, ALPHA)
            F, G = forms.assemble_rhs(spaces, case.f, case.g)
            sol = solver.solve(solver.build_system(blocks, eps, ALPHA, F, G))
            out[eps].append([verify.error_vs_interpolant(spaces, sol.u, case.u),
                             verify.error_vs_interpolant(spaces, sol.p, case.p)])
    return {eps: np.array(rows) for eps, rows in out.items()}


@pytest.mark.parametrize("k", [2, 3])
def test_hanging_orders_hold_at_both_ends_of_eps(k):
    # Criterion 6's bands: u at k + 1 within 0.3 either way, p at k + 0.7 or
    # faster. Measured: u 2.92-2.99 at k = 2 and 3.99-4.00 at k = 3; p 3.0
    # and 4.0 at eps = 1, and superconvergent at eps = 1e-8 (3.6-3.9 and 5.0).
    for eps, err in errors(k).items():
        orders = np.log2(err[:-1] / err[1:])  # (halvings, [u, p])
        assert np.all((k + 0.7 <= orders[:, 0]) & (orders[:, 0] <= k + 1.3)), (eps, orders)
        assert np.all(orders[:, 1] >= k + 0.7), (eps, orders)
