"""Benchmark entry point: one workload, sampled in fresh processes for a fixed time.

    python3 perfbench/run.py --workload single_solve --seed 42 --seconds 40 --trace 0

Each sample runs perfbench/sample.py in a new process with a fixed
environment: PYTHONPATH is the checkout's ``src`` (nothing is installed),
BLAS runs on one thread, and no other variable is passed on, so a stray
``SDG_QUAD_DEGREE`` cannot change the work. One caller, closed loop: the next
sample starts when the previous one has ended, and no sample starts that
would end after ``--seconds``. At least three samples are taken, so that
every median is one of three or more; a workload whose samples last longer
than a third of ``--seconds`` runs past it.

``--trace 0`` reports the end-to-end metrics (medians over samples).
``--trace 1`` records spans in every sample, reports the per-layer metrics
(medians over samples) and the tracing overhead, which each sample measures
as the cost of recording its spans, and writes the spans to perfbench/out/.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 2 when the checkout has
no sdgflow sources, 1 when a sample crashes or runs out of time; neither
prints a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1
MIN_SAMPLES = 3
# Every run must end within 180 s.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "passed_frac": "1"}
# Per-layer metric -> (where it comes from in a traced sample, unit).
PER_LAYER = {
    "mesh.build_s": ("span_s", "mesh.build", "s"),
    "mesh.triangles": ("counters", "mesh.triangles", "count"),
    "spaces.build_s": ("span_s", "spaces.build", "s"),
    "spaces.ndof": ("counters", "spaces.ndof", "count"),
    "spaces.cond_max": ("counters", "spaces.cond_max", "1"),
    "spaces.rss_growth_mb": ("counters", "spaces.rss_growth_mb", "MB"),
    "forms.assemble_s": ("span_s", "forms.assemble", "s"),
    "forms.rhs_s": ("span_s", "forms.rhs", "s"),
    "forms.nnz": ("counters", "forms.nnz", "count"),
    "solver.build_s": ("span_s", "solver.build", "s"),
    "solver.solve_s": ("span_s", "solver.solve", "s"),
    "solver.unknowns": ("counters", "solver.unknowns", "count"),
    "solver.interior": ("counters", "solver.interior", "count"),
    "solver.residual_max": ("counters", "solver.residual_max", "1"),
    "solver.rss_growth_mb": ("counters", "solver.rss_growth_mb", "MB"),
    "verify.interp_s": ("span_s", "verify.interp", "s"),
    "verify.self_s": ("self_s", "verify", "s"),
    "import.self_s": ("self_s", "import", "s"),
    "harness.self_s": ("self_s", "sample", "s"),
}
# Layers shown in the self-time table; "sample" is the harness's own code
# between spans, "gate" the correctness checks.
SELF_TIME_ROWS = ("import", "mesh", "spaces", "forms", "solver", "verify", "gate", "sample")
VERIFY_SPANS = ("verify.interp", "verify.super", "verify.z2", "verify.norms")


def child_env() -> dict[str, str]:
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    if "LD_LIBRARY_PATH" in os.environ:
        env["LD_LIBRARY_PATH"] = os.environ["LD_LIBRARY_PATH"]
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or f"unknown ({out.stderr.strip()})"


def source_digest() -> str:
    """Identifies the sdgflow sources where no git commit is available."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class SampleError(RuntimeError):
    pass


def run_sample(args, index: int, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--run-id", f"{os.getpid()}-{index}"]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample {index} did not end within {timeout:.0f} s") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SampleError(f"sample {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median_of(samples: list[dict], section: str, key: str) -> float:
    return statistics.median(s[section].get(key, 0.0) for s in samples)


def end_to_end(samples: list[dict], attempted: int, failed: int) -> dict:
    out = {name: statistics.median(s[name] for s in samples)
           for name in ("wall_s", "setup_s", "peak_rss_mb")}
    out["passed_frac"] = 1.0 - failed / attempted
    return out


def per_layer(samples: list[dict]) -> dict:
    out = {name: median_of(samples, section, key)
           for name, (section, key, _unit) in PER_LAYER.items()}
    out["trace.spans"] = statistics.median(len(s["spans"]) for s in samples)
    out["trace.wall_s"] = statistics.median(s["wall_s"] for s in samples)
    out["trace.overhead_s"] = statistics.median(s["record_cost_s"] for s in samples)
    return out


def per_layer_units() -> dict[str, str]:
    units = {name: unit for name, (_s, _k, unit) in PER_LAYER.items()}
    units.update({"trace.spans": "count", "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


def print_report(args, samples, attempted, failed) -> None:
    say = lambda line="": print(line, flush=True)
    say(f"# workload {args.workload}: {wl.WORKLOADS[args.workload].why}")
    say(f"# seed {args.seed}, {args.seconds} s, trace {args.trace}, "
        f"{len(samples)} samples")
    env = dict(samples[0]["env"], git_commit=git_commit(), src_sha256=source_digest())
    say("# env " + json.dumps(env, sort_keys=True))
    say(f"solves attempted {attempted}, failed {failed}, "
        f"failed_frac {failed / attempted:.4f}")
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        q1, q2, q3 = quartiles([s[name] for s in samples])
        say(f"{name:<22} {q2:12.4f} {END_TO_END_UNITS[name]:<5} median of "
            f"{len(samples)} samples, quartiles {q1:.4f} .. {q3:.4f}")
    if not args.trace:
        return
    say(f"per layer, median of {len(samples)} traced samples:")
    units = per_layer_units()
    for name, value in per_layer(samples).items():
        say(f"  {name:<22} {value:14.6g} {units[name]}")
    for name in VERIFY_SPANS:
        if name + "_s" not in PER_LAYER:
            say(f"  {name + '_s':<22} {median_of(samples, 'span_s', name):14.6g} s")
    wall = statistics.median(s["wall_s"] for s in samples)
    say("self time by layer (sample = harness code between spans):")
    for layer in SELF_TIME_ROWS:
        secs = median_of(samples, "self_s", layer)
        say(f"  {layer:<10} {secs:10.4f} s {100 * secs / wall:6.1f} % of traced wall_s")


def write_trace(args, samples: list[dict]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}.trace.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": samples[0]["env"],
                   "spans": [sp for s in samples for sp in s["spans"]]}, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sdgflow benchmark: one workload")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="h = 1/4 meshes (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sdgflow" / "__init__.py").is_file():
        print(f"no sdgflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    samples: list[dict] = []
    spent: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_SAMPLES and elapsed + statistics.median(spent) > args.seconds:
            break
        t0 = time.perf_counter()
        try:
            samples.append(run_sample(args, len(samples), RUN_LIMIT_S - elapsed))
        except SampleError as exc:
            print(exc, file=sys.stderr)
            return 1
        spent.append(time.perf_counter() - t0)

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    print_report(args, samples, attempted, failed)
    if args.trace:
        print(f"# spans written to {write_trace(args, samples).relative_to(ROOT)}")
        values = per_layer(samples)
        units = per_layer_units()
    else:
        values = end_to_end(samples, attempted, failed)
        units = END_TO_END_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
