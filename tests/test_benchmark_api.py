"""The benchmark's pipeline, run against the library.

perfbench/workloads.py drives sdgflow through its public API. Running the
small form of each workload here makes a library change that breaks a call
the benchmark makes fail in this suite rather than at benchmark time; running
each at full size for the default seed does the same for a drift of its
errors beyond the gate's tolerance.
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


def run_gated(w):
    problems = []
    result = workloads.run_pipeline(w, workloads.DEFAULT_SEED, spans.Tracer("t", False),
                                    workloads.load_reference(), log=problems.append)
    assert result["attempted"] == w.solves
    assert result["failed"] == 0, problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_the_gate(name):
    run_gated(workloads.WORKLOADS[name].scaled(True))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_size_workload_passes_the_gate(name):
    run_gated(workloads.WORKLOADS[name])
