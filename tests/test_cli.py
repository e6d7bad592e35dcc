"""Tests for the command-line driver: configs, subcommands, CSV/SVG output."""

import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sdgflow
from sdgflow import cases, cli
from sdgflow import mesh as mm
from sdgflow.cli import ConfigError, RunConfig
from sdgflow.spaces import StaggeredSpaces
from sdgflow.verify import ConvergenceRow, ConvergenceTable


MESH_FILE = "6 2\n0 0\n1 0\n1 1\n0 1\n0 0.5\n1 0.5\n4 0 1 5 4\n4 4 5 2 3\n"


def parse_csv(text: str) -> list[dict]:
    """Parse a convergence CSV back into row dictionaries."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    out = []
    for ln in lines[1:]:
        vals = ln.split(",")
        row = {}
        for name, val in zip(header, vals):
            if val == "N/A":
                row[name] = None
            elif name == "level" or name == "n_dof":
                row[name] = int(val)
            else:
                row[name] = float(val)
        out.append(row)
    return out


# -- config handling ------------------------------------------------------


def test_config_validation_aggregates_problems():
    bad = RunConfig(k=7, epsilon=-1.0, mesh="weird", levels=())
    with pytest.raises(ConfigError) as err:
        bad.validate()
    msg = str(err.value)
    for frag in ("k must be", "epsilon must be", "mesh must be", "level"):
        assert frag in msg


def test_config_rejects_unsorted_levels():
    with pytest.raises(ConfigError, match="increasing"):
        RunConfig(levels=(8, 4)).validate()


def test_config_from_preset_narrowing():
    from sdgflow import cases

    config = cli.config_from_preset(cases.preset("table4"))
    assert config.k == 1
    assert config.epsilon == 1e-8
    assert config.mesh == "square"
    assert config.levels == (2, 4, 8, 16, 32)


def test_build_config_precedence(tmp_path):
    # Preset expands first, JSON config next, flags last.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 2, "levels": [4, 8]}))
    parser_args = _parse(["solve", "--preset", "table1", "--config", str(cfg),
                          "--k", "3"])
    config = cli.build_config(parser_args)
    assert config.k == 3  # flag wins
    assert config.levels == (4, 8)  # JSON wins over preset
    assert config.epsilon == 1.0  # preset value survives


def test_build_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"order": 2}))
    with pytest.raises(ConfigError, match="unknown config key"):
        cli.build_config(_parse(["solve", "--config", str(cfg)]))


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser()
    subs = parser.add_subparsers(dest="command")
    sub = subs.add_parser("solve")
    cli._add_run_flags(sub)
    return parser.parse_args(argv)


# -- runs -----------------------------------------------------------------


def test_run_single_reports_errors_and_sizes():
    report = cli.run_single(RunConfig(k=1, levels=(4,)))
    assert set(report.errors) == {"u", "L", "p", "super", "z2_scaled"}
    assert all(v > 0.0 for v in report.errors.values())
    assert report.ndof == sum(report.dims) + 1
    assert report.h == 0.25
    # Skeleton: 3(k+1) moments on each of the 40 primal edges.
    assert report.skeleton == 6 * 40
    assert report.lu_fill > 0 and report.residuals[-1] < 1e-12
    text = report.summary()
    assert "err_u" in text and "unknowns" in text
    assert f"skeleton {report.skeleton}  lu_fill {report.lu_fill}  residuals" in text


def test_run_single_reports_the_worst_local_condition_number():
    # The worst 1-norm condition number of a local DOF system over W, U and
    # P, on the size line.
    report = cli.run_single(RunConfig(k=2, mesh="distorted", levels=(4,)))
    spaces = StaggeredSpaces(cases.build_mesh("distorted", 4, delta=0.25, seed=42), 2)
    conds = [float(s.conds.max()) for s in (spaces.W, spaces.U, spaces.P)]
    assert report.cond_max == max(conds) >= 1.0
    sizes = next(line for line in report.summary().splitlines() if line.startswith("unknowns"))
    assert sizes.endswith(f"  cond_max {report.cond_max:.3e}")


@pytest.mark.parametrize("family,classes", [("square", 6), ("distorted", 64)])
def test_run_single_reports_the_triangle_classes(family, classes):
    # A square grid repeats six triangles; on a distorted grid each triangle
    # is its own class. The counts end the mesh line.
    report = cli.run_single(RunConfig(k=1, mesh=family, levels=(4,)))
    assert (report.triangles, report.classes) == (64, classes)
    assert report.summary().splitlines()[0].endswith(
        f"  triangles 64 in {classes} classes  stack_entries {report.stack_entries}")


def test_run_single_reports_the_stack_entries():
    # The element stacks (M, B, A, D) are stored one row per class: a square
    # grid has six classes at any h, so h = 1/8 and h = 1/32 store the same
    # entries. At k = 1 a class holds 12x12, 6x12, 6x6 and 3x6 entries.
    per_class = 144 + 72 + 36 + 18
    reports = [cli.run_single(RunConfig(k=1, mesh="square", levels=(n,))) for n in (8, 32)]
    assert [r.stack_entries for r in reports] == [6 * per_class] * 2


def test_solve_loads_no_scipy_linalg():
    # The solver is numpy only: `sdgflow solve` loads neither SuperLU
    # (scipy.sparse.linalg) nor scipy.linalg. A fresh process, since the
    # tests' direct oracle loads SuperLU into this one.
    code = ("import sys\n"
            "from sdgflow import cli\n"
            "assert cli.main(['solve', '--mesh', 'distorted', '--levels', '4']) == 0\n"
            "linalg = ('scipy.sparse.linalg', 'scipy.linalg')\n"
            "print(sorted(m for m in linalg if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(sdgflow.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0].startswith("mesh distorted h=1/4")
    assert out[-1] == "[]"


def test_commands_load_no_scipy_until_a_global_block_is_read():
    # Only forms.scatter builds sparse matrices, and it imports scipy.sparse
    # itself: importing every submodule and running `solve` and `converge`
    # load no scipy at all. Reading a global block then loads it.
    code = ("import importlib, pkgutil, sys, sdgflow\n"
            "for m in pkgutil.iter_modules(sdgflow.__path__):\n"
            "    importlib.import_module('sdgflow.' + m.name)\n"
            "from sdgflow import cases, cli, solver\n"
            "from sdgflow.spaces import StaggeredSpaces\n"
            "assert cli.main(['solve', '--mesh', 'distorted', '--levels', '4']) == 0\n"
            "assert cli.main(['converge', '--k', '1', '--levels', '4,8']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "spaces = StaggeredSpaces(cases.build_mesh('distorted', 4, delta=0.25, seed=42), 1)\n"
            "M = solver.assemble_blocks(spaces, 1.0).M\n"
            "print(sys.modules['scipy.sparse'].issparse(M), M.shape == (spaces.W.ndof,) * 2)\n")
    src = os.path.dirname(os.path.dirname(sdgflow.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0].startswith("mesh distorted h=1/4")
    assert any(line.startswith("8,0.125,") for line in out)
    assert out[-2:] == ["[]", "True True"]


def test_run_single_reports_peak_memory():
    # ru_maxrss is in kilobytes on Linux; the report gives megabytes.
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = cli.run_single(RunConfig(k=1, levels=(4,)))
    assert before <= report.peak_rss_mb <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = next(line for line in report.summary().splitlines() if line.startswith("wall time"))
    assert wall.endswith(f"  peak_rss {report.peak_rss_mb:.1f} MB")


def test_run_single_times_each_phase():
    # Assembly (blocks, load vectors, saddle matrix) is timed apart from the solve.
    report = cli.run_single(RunConfig(k=1, levels=(4,)))
    assert list(report.timings) == ["mesh", "spaces", "assemble", "solve", "errors"]
    assert all(v >= 0.0 for v in report.timings.values())
    assert "assemble=" in report.summary()


def test_run_single_times_the_solve_phases():
    report = cli.run_single(RunConfig(k=1, levels=(4,)))
    assert list(report.solve_timings) == ["condense", "factorize", "sweep", "refine"]
    assert all(v >= 0.0 for v in report.solve_timings.values())
    skeleton_line = next(line for line in report.summary().splitlines()
                         if line.startswith("skeleton"))
    assert all(f"{key}=" in skeleton_line for key in report.solve_timings)


def test_run_single_is_deterministic():
    config = RunConfig(k=1, levels=(4,), mesh="distorted")
    a = cli.run_single(config)
    b = cli.run_single(config)
    assert a.errors == b.errors


def test_run_convergence_orders():
    table = cli.run_convergence(RunConfig(k=1, levels=(4, 8, 16)))
    assert len(table.rows) == 3
    assert not table.rows[0].orders
    assert 1.5 < table.rows[-1].orders["u"] < 2.5


# -- output formats -------------------------------------------------------


def _demo_table():
    table = ConvergenceTable(k=1)
    for i, n in enumerate((4, 8)):
        table.add(ConvergenceRow(
            level=n, h=1.0 / n, ndof=10 * n,
            errors={"u": 10.0 ** -i, "L": 2.0 * 10.0 ** -i, "p": 3.0 * 10.0 ** -i,
                    "super": 4.0 * 10.0 ** -i, "z2_scaled": 5.0 * 10.0 ** -i}))
    return table


def test_csv_round_trip():
    table = _demo_table()
    text = cli.table_to_csv(table)
    assert text.splitlines()[0] == cli.CSV_COLUMNS
    rows = parse_csv(text)
    assert len(rows) == 2
    assert rows[0]["ord_u"] is None
    assert rows[1]["level"] == 8
    # Values round-trip exactly at the emitted precision.
    assert rows[1]["err_u"] == float(f"{table.rows[1].errors['u']:.2e}")
    assert rows[1]["ord_u"] == float(f"{table.rows[1].orders['u']:.2f}")


def test_empty_table_outputs():
    table = ConvergenceTable(k=1)
    assert cli.table_to_csv(table) == cli.CSV_COLUMNS + "\n"
    svg = cli.table_to_svg(table)
    assert svg.startswith("<svg") and "empty table" in svg


def test_svg_plot_contents():
    svg = cli.table_to_svg(_demo_table())
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "polyline" in svg
    assert "slope 1" in svg and "slope 2" in svg
    assert "err_u" in svg and "err_p" in svg


def test_svg_labels_file_mesh_rows_by_h():
    # A grid row is labelled 1/level; a file mesh has no level, so its row is
    # labelled by its h, here 0.6, not by the nearest 1/n.
    table = _demo_table()
    table.rows[0] = dataclasses.replace(table.rows[0], level=None, h=0.6)
    svg = cli.table_to_svg(table)
    assert ">0.6</text>" in svg and ">1/8</text>" in svg
    assert ">1/2</text>" not in svg and ">1/4</text>" not in svg


def test_emit_outputs_writes_files(tmp_path):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    cli.emit_outputs(_demo_table(), str(csv_path), str(svg_path))
    assert csv_path.read_text().startswith(cli.CSV_COLUMNS)
    assert svg_path.read_text().startswith("<svg")


# -- main entry point -----------------------------------------------------


def test_main_solve_and_converge(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    code = cli.main(["converge", "--k", "1", "--levels", "4,8",
                     "--out-csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == cli.CSV_COLUMNS
    assert csv_path.exists()

    code = cli.main(["solve", "--k", "1", "--levels", "4"])
    assert code == 0
    assert "err_u" in capsys.readouterr().out


def test_main_solve_same_config_is_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert cli.main(["solve", "--k", "1", "--levels", "4",
                         "--out-csv", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_mesh_check_builds_a_valid_mesh_near_the_largest_delta(capsys):
    # Seed 3 draws quads with a side shorter than RHO times their diameter;
    # the grid redraws them instead of handing validation a bad mesh.
    assert cli.main(["mesh", "check", "--mesh", "distorted", "--levels", "32",
                     "--delta", "0.49", "--seed", "3"]) == 0
    assert "OK" in capsys.readouterr().out


def test_main_mesh_check_and_file_import(tmp_path, capsys):
    assert cli.main(["mesh", "check", "--mesh", "square", "--levels", "2,4"]) == 0
    assert "OK" in capsys.readouterr().out

    mesh_path = tmp_path / "two.txt"
    mesh_path.write_text(MESH_FILE)
    code = cli.main(["solve", "--k", "1", "--mesh", "file",
                     "--mesh-file", str(mesh_path)])
    assert code == 0


def test_mesh_check_on_a_file_mesh(tmp_path, capsys, monkeypatch):
    # A file mesh has no level: the check names the file and its own h, and
    # validates the submesh once, inside the build.
    mesh_path = tmp_path / "two.txt"
    mesh_path.write_text(MESH_FILE)
    calls = []
    validate = mm.StaggeredMesh.validate
    monkeypatch.setattr(mm.StaggeredMesh, "validate",
                        lambda self: calls.append(1) or validate(self))
    assert cli.main(["mesh", "check", "--mesh", "file", "--mesh-file", str(mesh_path)]) == 0
    out = capsys.readouterr().out
    assert out == ("file: 2 polygons, 8 triangles, edges {'primal-interior': 1, "
                   "'primal-boundary': 6, 'dual': 8}, h=1: OK\n")
    assert len(calls) == 1


def test_main_rejects_nonconforming_mesh_file(tmp_path, capsys):
    # The coarse right polygon misses the hanging node 6 of its neighbours.
    text = ("8 3\n0 0\n0.5 0\n1 0\n1 1\n0.5 1\n0 1\n0.5 0.5\n0 0.5\n"
            "4 0 1 6 7\n4 7 6 4 5\n4 1 2 3 4\n")
    mesh_path = tmp_path / "hanging.txt"
    mesh_path.write_text(text)
    args = ["solve", "--k", "1", "--epsilon", "1", "--mesh", "file", "--mesh-file", str(mesh_path)]
    assert cli.main(args) == 3
    assert "not conforming" in capsys.readouterr().err
    mesh_path.write_text(text.replace("4 1 2 3 4\n", "5 1 2 3 4 6\n"))
    assert cli.main(args) == 0


def test_file_mesh_reports_its_own_h(tmp_path, capsys):
    # The nominal 1/level of the grid families does not apply to a file mesh:
    # the two-rectangle mesh has unit-length primal sides, so h = 1.
    mesh_path = tmp_path / "two.txt"
    mesh_path.write_text(MESH_FILE)
    report = cli.run_single(RunConfig(k=1, mesh="file", mesh_file=str(mesh_path)))
    assert report.h == 1.0
    csv_path = tmp_path / "out.csv"
    code = cli.main(["solve", "--k", "1", "--mesh", "file",
                     "--mesh-file", str(mesh_path), "--out-csv", str(csv_path)])
    assert code == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("mesh file h=1 ")
    # A file mesh has no level, so the CSV row says N/A and reads back as None.
    text = csv_path.read_text()
    assert text.splitlines()[1].startswith("N/A,1,")
    assert parse_csv(text)[0]["level"] is None


def test_main_rejects_several_levels_on_a_mesh_file(tmp_path, capsys):
    mesh_path = tmp_path / "two.txt"
    mesh_path.write_text(MESH_FILE)
    code = cli.main(["converge", "--k", "1", "--mesh", "file",
                     "--mesh-file", str(mesh_path), "--levels", "2,4"])
    assert code == 2
    assert "one level" in capsys.readouterr().err


def test_main_preset_list(capsys):
    assert cli.main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 9):
        assert f"table{i}:" in out


def test_main_config_error_exit_code(capsys):
    assert cli.main(["solve", "--k", "9"]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--quad-degree", "12"), ("--case", "trig")])
def test_main_rejects_removed_flags(flag, value, capsys):
    # The data quadrature and the manufactured case are fixed: no flag sets them.
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_main_rejects_removed_config_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"quad_degree": 12, "case": "trig"}))
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'quad_degree'; unknown config key 'case'" in err


def test_run_flags_config_keys_and_fields_agree():
    # Every setting is a RunConfig field, a config key and a flag (--config
    # and --preset choose where settings come from and are no setting).
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert list(cli._CONFIG_KEYS) == fields
    flags = vars(_parse(["solve"]))
    assert sorted(flags) == sorted(fields + ["command", "config", "preset"])


@pytest.mark.parametrize("argv,problem", [
    (["solve", "--mesh", "hanging", "--levels", "3"], "hanging grid needs even levels"),
    (["mesh", "check", "--mesh", "hanging", "--levels", "5"], "hanging grid needs even levels"),
    (["solve", "--mesh", "distorted", "--delta", "0.6"], "delta must lie in [0, 0.5)"),
    (["solve", "--mesh", "distorted", "--delta", "nan"], "delta must lie in [0, 0.5)"),
    (["solve", "--mesh", "distorted", "--seed", "-1"], "seed must be non-negative"),
    (["solve", "--epsilon", "inf"], "epsilon must be positive and finite"),
    (["solve", "--alpha", "inf"], "alpha must be positive and finite"),
    (["solve", "--k", "0"], "k must be in 1..3, got 0"),
    (["converge", "--levels", "2,2"], "levels must be strictly increasing, got (2, 2)"),
])
def test_main_invalid_values_are_config_errors(argv, problem, capsys):
    # Caught by RunConfig.validate before any mesh is built: no numpy warning
    # and no runtime error from the mesh builders or the factorization.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and problem in err


@pytest.mark.parametrize("text,problem", [
    ("[1]", "config must be a JSON object, got list"),
    ('{"k": "x"}', "config key 'k' has an invalid value 'x'"),
    ('{"levels": 5}', "config key 'levels' has an invalid value 5"),
    ('{"k": 2.7}', "config key 'k' has an invalid value 2.7"),
    ('{"k": true}', "config key 'k' has an invalid value True"),
    ('{"seed": 4.5}', "config key 'seed'"),
    ('{"delta": [0.25]}', "config key 'delta' has an invalid value"),
    ('{"levels": [4, 8.5]}', "config key 'levels'"),
    ('{"epsilon": false}', "config key 'epsilon'"),
    ('{"out_csv": null}', "config key 'out_csv' has an invalid value None"),
    ('{"mesh_file": 5}', "config key 'mesh_file' has an invalid value 5"),
])
def test_main_malformed_config_values_are_config_errors(text, problem, tmp_path, capsys):
    # A value its key cannot hold is refused, not truncated (2.7 read as k=2,
    # true as k=1), not made a file name (null as "None") and not left to
    # fail later as a runtime error.
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert cli.main(["mesh", "check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and problem in err


@pytest.mark.parametrize("flag,value", [("--levels", "4,x"), ("--k", "2.7"), ("--seed", "x")])
def test_main_malformed_flags_are_config_errors(flag, value, capsys):
    assert cli.main(["mesh", "check", flag, value]) == 2
    assert f"{flag} has an invalid value '{value}'" in capsys.readouterr().err


def test_build_config_takes_integral_numbers(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 2.0, "levels": "4, 8", "seed": "7"}))
    config = cli.build_config(_parse(["solve", "--config", str(cfg)]))
    assert (config.k, config.levels, config.seed) == (2, (4, 8), 7)
    assert type(config.k) is int


def test_main_mesh_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n1 0\n0 1\n3 0 2 1\n")  # clockwise polygon
    code = cli.main(["mesh", "check", "--mesh", "file",
                     "--mesh-file", str(bad), "--levels", "2"])
    assert code == 3
    assert "mesh" in capsys.readouterr().err


def test_main_bad_header_counts_are_mesh_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n")
    code = cli.main(["mesh", "check", "--mesh", "file", "--mesh-file", str(bad)])
    assert code == 3
    assert "error: mesh: line 1: header needs NV >= 3" in capsys.readouterr().err


def test_main_empty_polygon_is_a_mesh_error_without_warnings(tmp_path, capsys):
    # A polygon line `0` parses; the mesh check names the empty cycle, and no
    # numpy warning about its vertex mean comes first.
    bad = tmp_path / "empty.txt"
    bad.write_text("3 2\n0 0\n1 0\n0 1\n0\n3 0 1 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["mesh", "check", "--mesh", "file", "--mesh-file", str(bad)])
    assert code == 3
    assert "polygon 0 has fewer than 3 vertices" in capsys.readouterr().err


def test_main_runtime_error_exit_code(capsys):
    code = cli.main(["solve", "--mesh", "file", "--mesh-file", "/nope/missing"])
    assert code == 1
