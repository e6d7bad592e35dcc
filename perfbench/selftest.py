"""Self-test of the benchmark harness on h = 1/4 meshes; runs in seconds.

    python3 perfbench/selftest.py

Checks the plumbing, the metric names and units against BENCHMARK.json, the
correctness gate, and that run.py refuses to run without sdgflow sources.
It checks no timing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl
from run import MIN_SAMPLES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_runs_report_declared_metrics() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(wl.WORKLOADS)
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in wl.WORKLOADS:
        for trace, metrics in declared.items():
            proc = run_py(ROOT, "--workload", workload, "--seed", str(wl.DEFAULT_SEED),
                          "--seconds", "1", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] == MIN_SAMPLES * wl.WORKLOADS[workload].scaled(True).solves
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in metrics}, (workload, trace)
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_gate() -> None:
    reference = wl.load_reference()
    key = "distorted-4-s42/k2/eps1e-08"
    values = dict(reference[key])
    assert wl.check(key, values, 1e-14, reference) == []
    assert wl.check(key, values, 1e-10, reference)  # residual above target
    off = dict(values, err_u=values["err_u"] * (1 + 1e-5))
    assert wl.check(key, off, 1e-14, reference)
    # A seed without recorded values is held to the band around seed 42.
    other = "distorted-4-s12345/k2/eps1e-08"
    assert wl.check(other, values, 1e-14, reference) == []
    assert wl.check(other, dict(values, err_p=values["err_p"] * 3), 1e-14, reference)
    assert wl.check(other, dict(values, err_L=math.nan), 1e-14, reference)
    assert wl.check("hanging-4/k9/eps1", values, 1e-14, reference)  # nothing recorded


def test_refuses_without_sources() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_py(bare, "--workload", "single_solve", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
