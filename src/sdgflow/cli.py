"""Command-line driver: single solves, convergence sweeps, CSV and SVG output."""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import cases, forms, mesh as meshmod, verify
from .solver import assemble_blocks, build_system, solve
from .spaces import StaggeredSpaces
from .verify import ConvergenceRow, ConvergenceTable

MESH_FAMILIES = ("square", "distorted", "hanging")
ERROR_KEYS = ("u", "L", "p", "super", "z2_scaled")
CSV_COLUMNS = (
    "level,h,n_dof,err_u,ord_u,err_L,ord_L,err_p,ord_p,"
    "err_super,ord_super,err_z2_scaled,ord_z2"
)


class ConfigError(ValueError):
    """Invalid run configuration; message aggregates all problems found."""


@dataclass
class RunConfig:
    k: int = 1
    epsilon: float = 1.0
    alpha: float = 1.0
    mesh: str = "square"
    mesh_file: str | None = None
    levels: tuple[int, ...] = (8,)
    delta: float = 0.25
    seed: int = 42
    out_csv: str | None = None
    out_svg: str | None = None

    def validate(self) -> None:
        problems = []
        if not 1 <= self.k <= 3:
            problems.append(f"k must be in 1..3, got {self.k}")
        if not 0.0 < self.epsilon < math.inf:
            problems.append(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 < self.alpha < math.inf:
            problems.append(f"alpha must be positive and finite, got {self.alpha}")
        if self.mesh not in MESH_FAMILIES and self.mesh != "file":
            problems.append(
                f"mesh must be one of {MESH_FAMILIES} or 'file', got {self.mesh!r}"
            )
        if self.mesh == "file" and not self.mesh_file:
            problems.append("mesh 'file' requires --mesh-file PATH")
        if self.mesh == "file" and len(self.levels) > 1:
            problems.append("mesh 'file' is a single mesh and takes one level, "
                            f"got {self.levels}")
        if not self.levels:
            problems.append("at least one level is required")
        elif any(n < 1 for n in self.levels):
            problems.append(f"levels must be positive, got {self.levels}")
        elif any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            problems.append(f"levels must be strictly increasing, got {self.levels}")
        if self.mesh == "hanging" and any(n % 2 for n in self.levels):
            problems.append(f"hanging grid needs even levels, got {self.levels}")
        if not 0.0 <= self.delta < 0.5:
            problems.append(f"delta must lie in [0, 0.5), got {self.delta}")
        if self.seed < 0:
            problems.append(f"seed must be non-negative, got {self.seed}")
        if problems:
            raise ConfigError("; ".join(problems))


def config_from_preset(preset: cases.ExperimentPreset) -> RunConfig:
    """Expand a named preset into a RunConfig at its first order."""
    return RunConfig(
        k=preset.orders[0],
        epsilon=preset.eps,
        alpha=preset.alpha,
        mesh=preset.family,
        levels=tuple(preset.levels),
        delta=preset.delta,
        seed=preset.seed,
    )


@dataclass
class RunReport:
    """Results of one solve: errors, solution norms, sizes, wall times."""

    config: RunConfig
    level: int | None  # None for a file mesh, which has no level
    h: float  # nominal 1/level on a grid family, as in the paper; mesh.h on a file
    ndof: int
    dims: tuple[int, int, int]
    cond_max: float  # worst 1-norm condition number of a local DOF system of W, U or P
    triangles: int
    classes: int  # classes of triangles whose local bases and stacks are built once
    stack_entries: int  # entries of the element stacks, one row per class
    skeleton: int
    lu_fill: int
    residuals: list[float]
    errors: dict[str, float]
    norms: dict[str, float]
    peak_rss_mb: float  # peak resident memory of the process when the run ended
    timings: dict[str, float] = field(default_factory=dict)
    solve_timings: dict[str, float] = field(default_factory=dict)  # sub-phases of "solve"

    def summary(self) -> str:
        nW, nU, nP = self.dims
        h = f"h={self.h:.4g}" if self.level is None else f"h=1/{self.level}"
        lines = [
            f"mesh {self.config.mesh} {h}  k={self.config.k}"
            f"  epsilon={self.config.epsilon:g}  alpha={self.config.alpha:g}"
            f"  triangles {self.triangles} in {self.classes} classes"
            f"  stack_entries {self.stack_entries}",
            f"unknowns {self.ndof} (gradient {nW}, velocity {nU}, pressure {nP})"
            f"  cond_max {self.cond_max:.3e}",
            f"skeleton {self.skeleton}  lu_fill {self.lu_fill}  residuals "
            + " ".join(f"{r:.2e}" for r in self.residuals) + "  "
            + " ".join(f"{k}={v:.3f}s" for k, v in self.solve_timings.items()),
        ]
        for key in ERROR_KEYS:
            lines.append(f"err_{key:<10s} {self.errors[key]:.3e}")
        for key, val in self.norms.items():
            lines.append(f"norm_{key:<9s} {val:.3e}")
        total = sum(self.timings.values())
        lines.append(f"wall time {total:.2f}s "
                     + " ".join(f"{k}={v:.2f}s" for k, v in self.timings.items())
                     + f"  peak_rss {self.peak_rss_mb:.1f} MB")
        return "\n".join(lines)


def _build_mesh(config: RunConfig, n: int) -> meshmod.StaggeredMesh:
    if config.mesh == "file":
        with open(config.mesh_file, "r", encoding="utf-8") as fh:
            primal = meshmod.import_polygon_mesh(fh.read())
        return meshmod.build_staggered(primal)
    return cases.build_mesh(config.mesh, n, delta=config.delta, seed=config.seed)


def run_single(config: RunConfig, n: int | None = None) -> RunReport:
    """Solve one resolution and report errors, norms, sizes and timings."""
    config.validate()
    level = None if config.mesh == "file" else (config.levels[0] if n is None else n)
    case = verify.trig_case(config.epsilon, config.alpha)
    timings = {}
    t0 = time.perf_counter()
    mesh = _build_mesh(config, level)
    timings["mesh"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    spaces = StaggeredSpaces(mesh, config.k)
    timings["spaces"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    blocks = assemble_blocks(spaces, config.alpha)
    rhs_F, rhs_G = forms.assemble_rhs(spaces, case.f, case.g)
    system = build_system(blocks, config.epsilon, config.alpha, rhs_F, rhs_G)
    timings["assemble"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    solution = solve(system)
    timings["solve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    errors = {
        "u": verify.error_vs_interpolant(spaces, solution.u, case.u),
        "L": verify.error_vs_interpolant(spaces, solution.L, case.L),
        "p": verify.error_vs_interpolant(spaces, solution.p, case.p),
        "super": verify.superconvergence_error(spaces, solution.u, case),
        "z2_scaled": math.sqrt(config.epsilon)
        * verify.error_Z2(spaces, solution.u, case),
    }
    norms = {
        "u": verify.norm_eval(spaces, solution.u, "L2"),
        "L": verify.norm_eval(spaces, solution.L, "L2"),
        "p": verify.norm_eval(spaces, solution.p, "L2"),
    }
    timings["errors"] = time.perf_counter() - t0
    return RunReport(
        config=config,
        level=level,
        h=mesh.h if level is None else 1.0 / level,
        ndof=system.num_unknowns,
        dims=system.dims,
        cond_max=max(float(s.conds.max()) for s in (spaces.W, spaces.U, spaces.P)),
        triangles=mesh.num_triangles,
        classes=spaces.num_classes,
        stack_entries=sum(x.size for x in vars(blocks.elements).values()),
        skeleton=solution.skeleton,
        lu_fill=solution.lu_fill,
        residuals=solution.residuals,
        solve_timings=solution.timings,
        errors=errors,
        norms=norms,
        # ru_maxrss is in kilobytes on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        timings=timings,
    )


def run_convergence(config: RunConfig) -> ConvergenceTable:
    """Run all configured levels and collect errors with observed orders."""
    config.validate()
    table = ConvergenceTable(k=config.k)
    for n in config.levels:
        report = run_single(config, n=n)
        table.add(ConvergenceRow(
            level=report.level, h=report.h, ndof=report.ndof, errors=dict(report.errors)))
    return table


# -- output formatting --------------------------------------------------

def _fmt_err(v: float) -> str:
    return f"{v:.2e}"


def _fmt_ord(v: float | None) -> str:
    return "N/A" if v is None else f"{v:.2f}"


def table_to_csv(table: ConvergenceTable) -> str:
    lines = [CSV_COLUMNS]
    for row in table.rows:
        fields = ["N/A" if row.level is None else str(row.level), f"{row.h:.6g}", str(row.ndof)]
        for key in ERROR_KEYS:
            fields.append(_fmt_err(row.errors[key]))
            fields.append(_fmt_ord(row.orders.get(key)))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def table_to_svg(table: ConvergenceTable) -> str:
    """Self-contained log-log error plot with reference slope guide lines."""
    width, height = 640, 480
    series = [("u", "#1f77b4"), ("L", "#d62728"), ("p", "#2ca02c")]
    hs = [row.h for row in table.rows]
    margin = 60
    x0, x1 = margin, width - margin
    y0, y1 = height - margin, margin  # y grows downward in SVG
    all_errs = [row.errors[key] for row in table.rows for key, _c in series
                if row.errors[key] > 0.0]
    if not all_errs or len(hs) < 1:
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                f'height="{height}"><text x="20" y="40">empty table</text></svg>')
    lh = [math.log10(h) for h in hs]
    le_min = math.floor(math.log10(min(all_errs)))
    le_max = math.ceil(math.log10(max(all_errs)))
    lh_min, lh_max = min(lh), max(lh)
    if lh_max == lh_min:
        lh_min -= 0.5
        lh_max += 0.5
    if le_max == le_min:
        le_max += 1

    def sx(h):  # h descending left to right: large h at left
        return x0 + (lh_max - math.log10(h)) / (lh_max - lh_min) * (x1 - x0)

    def sy(e):
        return y0 - (math.log10(e) - le_min) / (le_max - le_min) * (y0 - y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{height - 15}" '
        f'text-anchor="middle">h (log scale, decreasing)</text>',
        f'<text x="15" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 15 {(y0 + y1) / 2:.0f})">error (log scale)</text>',
    ]
    for row in table.rows:
        label = f"{row.h:.4g}" if row.level is None else f"1/{row.level}"
        parts.append(f'<text x="{sx(row.h):.1f}" y="{y0 + 18}" text-anchor="middle">'
                     f'{label}</text>')
    for d in range(le_min, le_max + 1):
        yy = sy(10.0 ** d)
        parts.append(f'<line x1="{x0 - 4}" y1="{yy:.1f}" x2="{x0}" y2="{yy:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{yy + 4:.1f}" text-anchor="end">'
                     f'1e{d}</text>')
    for key, color in series:
        pts = " ".join(f"{sx(row.h):.1f},{sy(row.errors[key]):.1f}"
                       for row in table.rows if row.errors[key] > 0.0)
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
    if len(table.rows) >= 2:
        # Reference slopes k and k+1 anchored at the finest-level u error.
        last = table.rows[-1]
        first = table.rows[0]
        anchor = last.errors["u"]
        for slope, dash in ((table.k, "4 3"), (table.k + 1, "1 3")):
            e_first = anchor * (first.h / last.h) ** slope
            parts.append(
                f'<polyline points="{sx(first.h):.1f},{sy(e_first):.1f} '
                f'{sx(last.h):.1f},{sy(anchor):.1f}" fill="none" stroke="gray" '
                f'stroke-dasharray="{dash}"/>')
            parts.append(f'<text x="{sx(first.h) + 5:.1f}" y="{sy(e_first):.1f}" '
                         f'fill="gray">slope {slope}</text>')
    for i, (key, color) in enumerate(series):
        yy = y1 + 15 * i
        parts.append(f'<line x1="{x1 - 90}" y1="{yy}" x2="{x1 - 70}" y2="{yy}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{x1 - 65}" y="{yy + 4}">err_{key}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_outputs(table: ConvergenceTable, out_csv: str | None,
                 out_svg: str | None) -> None:
    if out_csv:
        with open(out_csv, "w", encoding="utf-8") as fh:
            fh.write(table_to_csv(table))
    if out_svg:
        with open(out_svg, "w", encoding="utf-8") as fh:
            fh.write(table_to_svg(table))


# -- argument handling --------------------------------------------------

def _integer(value) -> int:
    """An integral number, not a bool; a string is read by int()."""
    if not isinstance(value, str) and (isinstance(value, bool) or not float(value).is_integer()):
        raise ValueError(value)
    return int(value)


def _real(value) -> float:
    """A number, not a bool; a string is read by float()."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _text(value) -> str:
    """A string; str() would make a file name of null or 5."""
    if not isinstance(value, str):
        raise TypeError(type(value).__name__)
    return value


def _parse_levels(value) -> tuple[int, ...]:
    if isinstance(value, str):
        return tuple(_integer(part) for part in value.split(",") if part.strip())
    return tuple(_integer(v) for v in value)


# Every run setting: its parser (of a JSON value or a string) and the help of its flag.
_CONFIG_KEYS = {
    "k": (_integer, "polynomial order 1..3"),
    "epsilon": (_real, "viscosity coefficient"),
    "alpha": (_real, "reaction coefficient"),
    "mesh": (_text, "square|distorted|hanging|file"),
    "mesh_file": (_text, "polygon mesh file (with --mesh file)"),
    "levels": (_parse_levels, "comma-separated h^-1 values, e.g. 2,4,8"),
    "delta": (_real, "distortion amplitude"),
    "seed": (_integer, "distortion seed"),
    "out_csv": (_text, "CSV output path"),
    "out_svg": (_text, "SVG plot output path"),
}


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--preset", help="named experiment preset, e.g. table1")
    for key, (_, text) in _CONFIG_KEYS.items():
        sub.add_argument(f"--{key.replace('_', '-')}", help=text)


def build_config(args: argparse.Namespace) -> RunConfig:
    """Assemble a RunConfig: preset first, JSON config next, flags last."""
    config = RunConfig()
    if args.preset:
        try:
            config = config_from_preset(cases.preset(args.preset))
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
    values = []  # (source, key, value) in the order they apply
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        values += [(f"config key {key!r}", key, value) for key, value in data.items()]
    values += [(f"--{key.replace('_', '-')}", key, getattr(args, key)) for key in _CONFIG_KEYS
               if getattr(args, key, None) is not None]
    problems = []
    for source, key, value in values:
        if key not in _CONFIG_KEYS:
            problems.append(f"unknown config key {key!r}")
            continue
        try:
            config = replace(config, **{key: _CONFIG_KEYS[key][0](value)})
        except (TypeError, ValueError):
            problems.append(f"{source} has an invalid value {value!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdgflow",
        description="Staggered DG solver for Brinkman flow with a convergence harness.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    solve_p = subs.add_parser("solve", help="single solve at one resolution")
    _add_run_flags(solve_p)
    conv_p = subs.add_parser("converge", help="convergence sweep over levels")
    _add_run_flags(conv_p)
    mesh_p = subs.add_parser("mesh", help="mesh utilities")
    mesh_subs = mesh_p.add_subparsers(dest="mesh_command", required=True)
    check_p = mesh_subs.add_parser("check", help="build and validate a mesh")
    _add_run_flags(check_p)
    preset_p = subs.add_parser("preset", help="preset utilities")
    preset_subs = preset_p.add_subparsers(dest="preset_command", required=True)
    preset_subs.add_parser("list", help="list registered presets")

    args = parser.parse_args(argv)
    try:
        if args.command == "preset":
            for name in cases.preset_names():
                pr = cases.preset(name)
                print(f"{name}: {pr.family}, eps={pr.eps:g}, alpha={pr.alpha:g}, "
                      f"k={list(pr.orders)}, levels={list(pr.levels)}")
            return 0
        config = build_config(args)
        if args.command == "mesh":
            config.validate()
            for n in config.levels:
                mesh = _build_mesh(config, n)  # builds and validates
                counts = dict(zip(meshmod.EDGE_KINDS,
                                  np.bincount(mesh.edge_kind, minlength=3).tolist()))
                where = "file" if config.mesh == "file" else f"level 1/{n}"
                print(f"{where}: {mesh.primal.num_polygons} polygons, "
                      f"{mesh.num_triangles} triangles, "
                      f"edges {counts}, h={mesh.h:.4g}: OK")
            return 0
        if args.command == "solve":
            report = run_single(config)
            print(report.summary())
            single = ConvergenceTable(k=config.k)
            single.add(ConvergenceRow(level=report.level, h=report.h,
                                      ndof=report.ndof,
                                      errors=dict(report.errors)))
            emit_outputs(single, config.out_csv, config.out_svg)
            return 0
        if args.command == "converge":
            table = run_convergence(config)
            print(table_to_csv(table), end="")
            emit_outputs(table, config.out_csv, config.out_svg)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except meshmod.MeshError as exc:
        print(f"error: mesh: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # solver or IO failure
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
