"""Run every workload and print every metric: the benchmark in one command.

    python3 perfbench/report.py
    python3 perfbench/report.py --runs 10 --out perfbench/baseline.json

For each workload this makes ``--runs`` untraced runs of run.py, with seeds
1, 2, ..., and one traced run at the default seed, each as long as
BENCHMARK.json's ``run_seconds``. It prints ``failed_frac`` over all runs,
each end-to-end metric's median over the runs and the distance between its
first and third quartile as a share of the median (the spread that
BENCHMARK.json's bounds are set against), then the traced run's report: the
per-layer metrics, the verify timings that are not in its result line, and
the self time of every layer. ``--out`` writes the figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run of run.py: its result line and the report lines before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    print(f"  {workload} seed={seed} trace={trace}: attempted {result['attempted']}, "
          f"failed {result['failed']}", file=sys.stderr, flush=True)
    return result, lines


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "iqr_share": None, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "iqr_share": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description="sdgflow benchmark: all workloads")
    ap.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    ap.add_argument("--out", type=Path, help="write the figures as JSON")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in sorted(wl.WORKLOADS):
        runs = [run(workload, seed, seconds, 0)[0] for seed in range(1, args.runs + 1)]
        traced, traced_report = run(workload, wl.DEFAULT_SEED, seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        end_to_end = {}
        print(f"{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'failed_frac':<22} {failed / attempted:12.4f} 1     "
              f"{failed} of {attempted} solves")
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            end_to_end[name] = s
            share = "n/a" if s["iqr_share"] is None else f"{s['iqr_share']:.4f}"
            print(f"  {name:<22} {s['median']:12.4f} {s['unit']:<5} "
                  f"quartile spread {share} of median, bound {bound}; runs: "
                  + " ".join(f"{v:.4g}" for v in s["values"]))
        print(f"  traced run, seed {wl.DEFAULT_SEED}:")
        for line in traced_report:
            print(f"  {line}")
        report["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "traced_report": traced_report,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    failed = sum(w["failed"] for w in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
