"""Record the correctness gate's reference values from the sdgflow sources.

    python3 perfbench/record.py

Runs every workload, at full size and at the self-test's h = 1/4, for the
distortion seeds in SEEDS (workloads on undistorted meshes once), with the
gate off, and writes perfbench/reference.json. The committed file was
recorded from the commit that introduced the benchmark; a change that keeps
the numerics must pass the gate without recording again.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.pop("SDG_QUAD_DEGREE", None)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

# The default seed, then the small seeds most runs are made with.
SEEDS = (wl.DEFAULT_SEED, *range(0, 21))


def main() -> int:
    reference: dict[str, dict[str, float]] = {}
    for name, base in wl.WORKLOADS.items():
        for tiny in (False, True):
            w = base.scaled(tiny)
            for seed in SEEDS if w.seeded else (wl.DEFAULT_SEED,):
                result = wl.run_pipeline(w, seed, Tracer("record", False), None,
                                         log=lambda msg: print(msg, file=sys.stderr))
                residual = result["counters"]["solver.residual_max"]
                if result["failed"] or not residual <= wl.RESIDUAL_MAX:
                    print(f"{name} seed {seed}: {result['failed']} solves failed, "
                          f"worst residual {residual:.3g}", file=sys.stderr)
                    return 1
                for key, values in result["values"].items():
                    reference.setdefault(key, {}).update(values)
                print(f"{name} tiny={tiny} seed={seed}: {len(result['values'])} solves",
                      file=sys.stderr)
    with open(wl.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
