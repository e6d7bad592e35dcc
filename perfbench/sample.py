"""One benchmark sample: import sdgflow, run one workload once, check it.

    python3 perfbench/sample.py --workload eps_ladder --seed 42 --trace 1 --run-id 0

run.py starts this script in a fresh process with a fixed environment. It
prints one JSON record on stdout: wall and set-up time, peak RSS, solves
attempted and failed, time per span name, the layer counters, and with
``--trace 1`` the spans, the self time per layer and what recording the
spans cost. Gate failures are logged on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import workloads as wl
from spans import Tracer, record_cost_s, self_times

SRC = Path(__file__).resolve().parent.parent / "src"


def env_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--tiny", action="store_true", help="h = 1/4 meshes (self-test)")
    args = ap.parse_args()

    workload = wl.WORKLOADS[args.workload].scaled(args.tiny)
    reference = wl.load_reference()
    tracer = Tracer(args.run_id, record=bool(args.trace))
    with tracer.span("sample"):
        with tracer.span("import"):
            # Every module the pipeline calls, so that all of the import is timed here.
            import sdgflow
            from sdgflow import cases, forms, mesh, solver, spaces, verify  # noqa: F401
        loaded = Path(sdgflow.__file__).resolve()
        if SRC.resolve() not in loaded.parents:
            print(f"sdgflow was imported from {loaded}, not from {SRC}", file=sys.stderr)
            return 1
        result = wl.run_pipeline(workload, args.seed, tracer, reference,
                                 log=lambda msg: print(msg, file=sys.stderr))
    totals = tracer.totals
    record = {
        "wall_s": totals["sample"],
        "setup_s": totals["import"] + totals.get("mesh.build", 0.0)
        + totals.get("spaces.build", 0.0),
        "peak_rss_mb": wl.peak_rss_mb(),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "span_s": totals,
        "counters": result["counters"],
        "env": env_info(),
    }
    if args.trace:
        record["self_s"] = self_times(tracer.spans)
        record["spans"] = tracer.spans
        record["record_cost_s"] = record_cost_s(len(tracer.spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
