"""klbasis benchmark: per-subcommand CLI latency on one workload.

Run from the repository root:

    python3 bench/run.py --workload ground1s --seed 1 --seconds 50 --trace 0

With --trace 0 it runs one child process that calls `klbasis.cli.main` for
gen-basis, solve, scan-energy and compare-bases, one call after another
(closed loop, one client), times fresh-interpreter set-up between calls,
checks every output, and prints the end-to-end metrics, each command's
latency being its median call. With --trace 1 it runs three children for a
third of --seconds each: untraced single-threaded, traced single-threaded,
and traced with the BLAS library's default threads, and prints the
per-layer metrics. The last line of standard output is the
result object; the lines before it record the environment and details.
Metric names and units are listed in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import COMMANDS, WORKLOADS  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LIBRARY_DEFAULT: dict[str, str] = {}
SETUP_SPAWNS = 16
# The whole run, all children included, must end within 180 s.
RUN_LIMIT_S = 170
# Spans whose self time calls into BLAS/LAPACK, reported again from the
# default-threads trace.
BLAS_SPANS = (
    "klcore.covariance",
    "klcore.eig_sym",
    "klcore.projection_mse",
    "basisfn.differentiation_matrix",
    "basisfn.interpolate",
    "spectral.assemble",
    "spectral.solve",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: Path, threads: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(threads)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(
    root: Path, work: Path, args, seconds: float, threads, trace: bool, setup_spawns: int = 0
) -> dict:
    timeout = args.deadline - time.monotonic()
    label = f"{'traced' if trace else 'untraced'}-{'default' if not threads else 'single'}"
    out_dir = work / label
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--config", str(work / "config.json"),
        "--out-dir", str(out_dir),
        "--setup-spawns", str(setup_spawns),
    ]
    if trace:
        cmd.append("--trace")
    try:
        out = subprocess.run(
            cmd, env=child_env(root, threads), cwd=root,
            capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{label} child ran past the {RUN_LIMIT_S} s run limit") from err
    if out.returncode != 0 or not out.stdout.strip():
        raise BenchError(f"{label} child exited {out.returncode}:\n{out.stderr}")
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    summary["threads"] = threads or "library default"
    shutil.rmtree(out_dir, ignore_errors=True)
    return summary


def percentile_summary(samples: list[float]) -> dict:
    """Sample count, minimum, median, and the highest of p75/p90/p99 that
    has at least ten samples beyond it."""
    ordered = sorted(samples)
    doc = {"n": len(ordered), "min_ms": ordered[0], "median_ms": statistics.median(ordered)}
    for p in (99, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            doc[f"p{p}_ms"] = ordered[int(len(ordered) * p / 100)]
            break
    return doc


def metric_key(cmd: str) -> str:
    return cmd.replace("-", "_") + "_ms"


def end_to_end(worker: dict) -> dict[str, tuple[float, str]]:
    acc = worker["accuracy"]
    for key in ("solve_rel_err", "scan_energy_err"):
        if key not in acc:
            raise BenchError(f"no call produced {key}; failures: {worker['failures']}")
    metrics = {"setup_s": (statistics.median(worker["setup_s"]), "s")}
    medians = {cmd: statistics.median(worker["times_ms"][cmd]) for cmd in COMMANDS}
    for cmd in COMMANDS:
        metrics[metric_key(cmd)] = (medians[cmd], "ms")
    metrics["ops_per_s"] = (len(COMMANDS) / (sum(medians.values()) / 1e3), "1/s")
    metrics["ops_ok_ratio"] = (1.0 - worker["failed"] / worker["attempted"], "ratio")
    metrics["peak_rss_mb"] = (worker["peak_rss_mb"], "MB")
    metrics["solve_rel_err"] = (acc["solve_rel_err"], "ratio")
    metrics["scan_energy_err"] = (acc["scan_energy_err"], "Ha")
    return metrics


def per_layer(base: dict, traced: dict, traced_default: dict) -> dict[str, tuple[float, str]]:
    metrics = {}
    for key, value in traced["layers"].items():
        metrics[key] = (value, _layer_unit(key))
    for span in BLAS_SPANS + ("cli.main",):
        key = f"{span}.self_ms"
        metrics[f"threads_default.{key}"] = (traced_default["layers"][key], "ms")
    metrics["threads_default.cli.main.total_ms"] = (
        traced_default["layers"]["cli.main.total_ms"], "ms")
    for cmd in COMMANDS:
        over = statistics.median(traced["times_ms"][cmd]) - statistics.median(base["times_ms"][cmd])
        metrics[f"trace_overhead.{metric_key(cmd)}"] = (over, "ms")
    metrics["warmup_cycle_ms"] = (base["warmup_ms"], "ms")
    return metrics


def _layer_unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("ratio"):
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


def environment(root: Path, args, workers: list[dict]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": workers[0]["numpy"],
        "blas": workers[0]["blas"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "child_threads": [w["threads"] for w in workers],
    }


def details(worker: dict) -> dict:
    return {
        "timed_calls": worker["timed_calls"],
        "warmup_ms": worker["warmup_ms"],
        "commands": {cmd: percentile_summary(worker["times_ms"][cmd]) for cmd in COMMANDS},
        "failures": worker["failures"],
        "failure_messages": worker["failure_messages"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="klbasis CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    args.deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "klbasis" / "cli.py").is_file():
        print("bench: no src/klbasis in the current directory; run from the repository root",
              file=sys.stderr)
        return 2
    work_root = root / ".bench_run"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        (work / "config.json").write_text(json.dumps(WORKLOADS[args.workload].config))
        if args.trace:
            third = args.seconds / 3.0
            workers = [
                run_worker(root, work, args, third, SINGLE_THREAD, trace=False),
                run_worker(root, work, args, third, SINGLE_THREAD, trace=True),
                run_worker(root, work, args, third, LIBRARY_DEFAULT, trace=True),
            ]
            metrics = per_layer(*workers)
        else:
            workers = [run_worker(root, work, args, float(args.seconds), SINGLE_THREAD,
                                  trace=False, setup_spawns=SETUP_SPAWNS)]
            metrics = end_to_end(workers[0])
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(json.dumps({"environment": environment(root, args, workers)}))
    for worker in workers:
        print(json.dumps({"details": details(worker)}))
    result = {
        "correct": all(w["wrong_outputs"] == 0 for w in workers),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
