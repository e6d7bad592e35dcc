"""Workload definitions, the pipeline that drives sdgflow through its public
API, and the correctness gate.

The pipeline calls into five layers, named after the sdgflow modules that do
the work: ``mesh`` (cases.build_mesh), ``spaces`` (StaggeredSpaces),
``forms`` (solver.assemble_blocks, forms.assemble_rhs), ``solver``
(solver.build_system, solver.solve) and ``verify`` (the error and norm
functions). Every call is wrapped in a span of the tracer passed in, so one
code path serves the timed and the traced runs.

This module imports sdgflow only inside ``run_pipeline``, so that the sample
process can time ``import sdgflow`` itself before it calls the pipeline.
"""

from __future__ import annotations

import json
import math
import resource
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

ALPHA = 1.0
# Relative tolerance of the gate against values recorded for the same seed.
# Switching between the direct and the condensed solve path moves these
# values by at most 4e-8 relative (distorted mesh, h = 1/16, eps = 1e-8).
REF_RTOL = 1e-6
# For a distortion seed without recorded values, each value must lie within
# this factor of the value recorded for the default seed. Across distortion
# seeds the errors vary by about 10%; a broken discretization is off by
# orders of magnitude.
BAND = 2.0
# The solver's iterative-refinement target. Kept here as a constant so that a
# change to the solver's own target cannot loosen the gate.
RESIDUAL_MAX = 1e-12
DEFAULT_SEED = 42
TINY_LEVEL = 4


@dataclass(frozen=True)
class Workload:
    family: str
    levels: tuple[int, ...]
    orders: tuple[int, ...]
    eps: tuple[float, ...]
    full_report: bool  # superconvergence, Z2 and norms besides the interpolant errors
    why: str

    @property
    def seeded(self) -> bool:
        return self.family == "distorted"

    def scaled(self, tiny: bool) -> "Workload":
        if not tiny:
            return self
        return Workload(self.family, (TINY_LEVEL,), self.orders, self.eps,
                        self.full_report, self.why)

    @property
    def solves(self) -> int:
        return len(self.levels) * len(self.orders) * len(self.eps)


WORKLOADS = {
    "single_solve": Workload(
        family="distorted", levels=(16,), orders=(2,), eps=(1e-8,), full_report=True,
        why="one `sdgflow solve` with the full error report: every layer loaded, "
            "condensed path and refinement at the Darcy end",
    ),
    "eps_ladder": Workload(
        family="distorted", levels=(16,), orders=(2,), eps=(1.0, 1e-2, 1e-4, 1e-8),
        full_report=False,
        why="spaces and blocks built once, four viscosities solved on them: "
            "the solver dominates and super/Z2 errors are skipped",
    ),
    "hanging_sweep": Workload(
        family="hanging", levels=(4, 8), orders=(1, 2, 3), eps=(1e-4,), full_report=True,
        why="six small problems on 5-gon polygons, four below and two above "
            "CONDENSE_THRESHOLD: both solve paths measured",
    ),
}


def case_key(w: Workload, level: int, seed: int, k: int, eps: float) -> str:
    mesh = f"{w.family}-{level}" + (f"-s{seed}" if w.seeded else "")
    return f"{mesh}/k{k}/eps{eps:g}"


def load_reference() -> dict[str, dict[str, float]]:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check(key: str, values: dict[str, float], residual: float,
          reference: dict[str, dict[str, float]]) -> list[str]:
    """Problems found with one solve's outputs; empty when it passes.

    Values recorded for the same case and seed must match to ``REF_RTOL``.
    A distortion seed without recorded values is held to ``BAND`` around the
    default seed's values.
    """
    problems = []
    if not residual <= RESIDUAL_MAX:
        problems.append(f"residual {residual:.3g} above {RESIDUAL_MAX:g}")
    ref = reference.get(key)
    if ref is not None:
        bounds = lambda r: (r * (1 - REF_RTOL), r * (1 + REF_RTOL))
    else:
        mesh, rest = key.split("/", 1)
        ref = reference.get(f"{mesh.rsplit('-s', 1)[0]}-s{DEFAULT_SEED}/{rest}", {})
        bounds = lambda r: (r / BAND, r * BAND)
    for name, got in values.items():
        if name not in ref:
            problems.append(f"{name}: no reference value for {key}")
            continue
        lo, hi = bounds(ref[name])
        if not lo <= got <= hi:
            problems.append(f"{name} = {got!r}, expected within [{lo:.6g}, {hi:.6g}]")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Counters(dict):
    def add(self, name: str, value: float) -> None:
        self[name] = self.get(name, 0) + value

    def max(self, name: str, value: float) -> None:
        self[name] = max(self.get(name, value), value)


def run_pipeline(w: Workload, seed: int, tracer, reference, log=None) -> dict:
    """Run every solve of the workload once; returns counts, counters, values.

    A typed ``SolverError``, ``SpaceError`` or ``MeshError`` fails the solves
    it prevents and the run continues; any other exception propagates. With
    ``reference`` None the gate is skipped (used to record reference values).
    """
    from sdgflow import cases, forms, solver, verify
    from sdgflow.mesh import MeshError
    from sdgflow.spaces import SpaceError, StaggeredSpaces

    typed = (solver.SolverError, SpaceError, MeshError)
    span = tracer.span
    counters = Counters()
    values: dict[str, dict[str, float]] = {}
    failed = 0

    def fail(n: int, where: str, why: str) -> None:
        nonlocal failed
        failed += n
        if log:
            log(f"{where}: {why}")

    def grow(name: str, before: float) -> None:
        counters.add(name, peak_rss_mb() - before)

    per_level = len(w.orders) * len(w.eps)
    for level in w.levels:
        try:
            with span("mesh.build"):
                mesh = cases.build_mesh(w.family, level, seed=seed)
        except typed as exc:
            fail(per_level, f"mesh {w.family}-{level}", repr(exc))
            continue
        counters.add("mesh.triangles", mesh.num_triangles)
        for k in w.orders:
            try:
                rss = peak_rss_mb()
                with span("spaces.build"):
                    spaces = StaggeredSpaces(mesh, k)
                grow("spaces.rss_growth_mb", rss)
                with span("forms.assemble"):
                    blocks = solver.assemble_blocks(spaces, ALPHA)
            except typed as exc:
                fail(len(w.eps), f"spaces {w.family}-{level} k={k}", repr(exc))
                continue
            fields = (spaces.W, spaces.U, spaces.P)
            counters.add("spaces.ndof", sum(s.ndof for s in fields))
            counters.max("spaces.cond_max", max(float(s.conds.max()) for s in fields))
            counters.add("forms.nnz", sum(m.nnz for m in (blocks.M, blocks.B, blocks.A, blocks.D)))
            if blocks.interior is not None:
                counters.add("solver.interior", blocks.interior.size)
            for eps in w.eps:
                key = case_key(w, level, seed, k, eps)
                case = verify.trig_case(eps, ALPHA)
                try:
                    with span("forms.rhs"):
                        rhs_F, rhs_G = forms.assemble_rhs(spaces, case.f, case.g)
                    with span("solver.build"):
                        system = solver.build_system(blocks, eps, ALPHA, rhs_F, rhs_G)
                    rss = peak_rss_mb()
                    with span("solver.solve"):
                        sol = solver.solve(system)
                    grow("solver.rss_growth_mb", rss)
                except typed as exc:
                    fail(1, key, repr(exc))
                    continue
                counters.add("solver.unknowns", system.num_unknowns)
                counters.max("solver.residual_max", sol.residual)
                out = {}
                with span("verify.interp"):
                    out["err_u"] = verify.error_vs_interpolant(spaces, sol.u, case.u)
                    out["err_L"] = verify.error_vs_interpolant(spaces, sol.L, case.L)
                    out["err_p"] = verify.error_vs_interpolant(spaces, sol.p, case.p)
                if w.full_report:
                    with span("verify.super"):
                        out["err_super"] = verify.superconvergence_error(spaces, sol.u, case)
                    with span("verify.z2"):
                        out["err_z2_scaled"] = math.sqrt(eps) * verify.error_Z2(spaces, sol.u, case)
                    with span("verify.norms"):
                        for name in ("u", "L", "p"):
                            out[f"norm_{name}"] = verify.norm_eval(
                                spaces, getattr(sol, name), "L2")
                values[key] = out
                if reference is None:
                    continue
                with span("gate"):
                    problems = check(key, out, sol.residual, reference)
                if problems:
                    fail(1, key, "; ".join(problems))
    return {"attempted": w.solves, "failed": failed, "counters": dict(counters),
            "values": values}
