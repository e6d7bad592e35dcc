"""The benchmark's pipeline, run on its h = 1/4 meshes against the library.

perfbench/workloads.py drives sdgflow through its public API. Running the
small form of each workload here makes a library change that breaks a call
the benchmark makes fail in this suite rather than at benchmark time.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_the_gate(name):
    w = workloads.WORKLOADS[name].scaled(True)
    problems = []
    result = workloads.run_pipeline(w, workloads.DEFAULT_SEED, spans.Tracer("t", False),
                                    workloads.load_reference(), log=problems.append)
    assert result["attempted"] == w.solves
    assert result["failed"] == 0, problems
