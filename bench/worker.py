"""One benchmark child: run a workload's subcommand cycle through
`klbasis.cli.main` in a closed loop, check every output, and print a JSON
summary as the last line of standard output.

bench/run.py starts it in a fresh interpreter with PYTHONPATH at src/ and
the BLAS/OpenMP thread variables already set:

    python3 bench/worker.py --workload ground1s --seed 1 --seconds 5 \\
        --config CFG.json --out-dir DIR --setup-spawns 16 [--trace]

The first cycle of the four commands is an untimed warm-up. Timed calls
follow until they add up to --seconds. Untraced, each next call goes to the
command with the least timed seconds so far plus CALL_WEIGHT_S per timed
call. Commands much cheaper than CALL_WEIGHT_S so alternate as in the fixed
cycle, while a command of several seconds a call gets about an equal share
of the time instead of holding the cheap ones to one call per cycle.
Traced, calls run in the fixed cycle, since the per-layer figures are given
per cycle. Between calls, untimed, it spawns fresh interpreters to time
set-up, spread evenly over the run so that set-up is sampled in the same
machine conditions as the calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
from klbasis import cli

from spans import Tracer
from workloads import COMMANDS, WORKLOADS, Workload

EXPECTED_FILES = {
    "gen-basis": {"samples.csv", "covariance.csv", "eigenvalues.csv", "basis.csv", "basis.json"},
    "solve": {"solution.csv", "residual.csv", "report.json"},
    "scan-energy": {"scan.csv", "report.json"},
    "compare-bases": {"comparison.csv"},
}


# Seconds one call weighs in the untraced schedule on top of its own time.
CALL_WEIGHT_S = 0.5


class CheckFailed(Exception):
    """A call exited 0 but its output is wrong."""


def _check_finite_csv(name: str, text: str) -> None:
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise CheckFailed(f"{name}: non-finite value {cell!r}")


def _check_finite_json(name: str, doc) -> None:
    stack = [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float) and not math.isfinite(item):
            raise CheckFailed(f"{name}: non-finite value {item!r}")


def check_outputs(cmd: str, files: dict[str, bytes], wl: Workload) -> dict[str, float]:
    """Check one call's artifacts against tolerances; return the accuracy
    figures it carries."""
    if set(files) != EXPECTED_FILES[cmd]:
        raise CheckFailed(f"wrote {sorted(files)}, expected {sorted(EXPECTED_FILES[cmd])}")
    docs = {}
    for name, data in files.items():
        text = data.decode()
        if name.endswith(".csv"):
            _check_finite_csv(name, text)
        else:
            docs[name] = json.loads(text)
            _check_finite_json(name, docs[name])

    if cmd == "solve":
        err = docs["report.json"]["rel_l2_error_mid"]
        if err is None or not err <= wl.solve_tol:
            raise CheckFailed(f"rel_l2_error_mid {err} exceeds {wl.solve_tol}")
        return {"solve_rel_err": err}
    if cmd == "scan-energy":
        report = docs["report.json"]
        if report["argmin_status"] != "interior" or report["n_failed"] != 0:
            raise CheckFailed(
                f"argmin_status {report['argmin_status']!r}, n_failed {report['n_failed']}"
            )
        cfg = report["config"]
        exact = -cfg["family"]["Z"] ** 2 / (2.0 * cfg["problem"]["n"] ** 2)
        err = abs(report["argmin_energy"] - exact)
        if not err <= wl.scan_tol:
            raise CheckFailed(f"scan minimum off the eigenvalue by {err}, tolerance {wl.scan_tol}")
        return {"scan_energy_err": err}
    if cmd == "compare-bases":
        header, *rows = (line.split(",") for line in files["comparison.csv"].decode().splitlines())
        col = header.index("reconstruction_mse")
        mse = {row[0]: float(row[col]) for row in rows}
        if min(mse, key=mse.get) != "kl":
            raise CheckFailed(f"kl is not the smallest reconstruction_mse: {mse}")
    return {}


class Run:
    """Calls, timings, failures and accuracy figures of one child."""

    def __init__(self, args: argparse.Namespace, main, tracer: Tracer | None):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.main = main
        self.tracer = tracer
        self.out_root = Path(args.out_dir)
        self.first_files: dict[str, dict[str, bytes]] = {}
        self.times_ms: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
        self.timed_s = dict.fromkeys(COMMANDS, 0.0)
        self.timed_total_s = 0.0
        self.attempted = 0
        self.failures: dict[str, Counter] = defaultdict(Counter)
        self.messages: dict[str, str] = {}
        self.wrong_outputs = 0
        self.accuracy: dict[str, float] = {}

    def call(self, op: int, cmd: str) -> tuple[float, bool]:
        """Run one subcommand; return its wall time in seconds and whether
        it succeeded with correct output."""
        out = self.out_root / cmd
        shutil.rmtree(out, ignore_errors=True)
        argv = [cmd, "--config", self.args.config, "--out-dir", str(out), "--seed", str(self.args.seed)]
        if self.tracer is not None:
            self.tracer.op = op
        sink = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.main(argv)
        except Exception as err:  # counted as a failed call under its class name
            error = err
        elapsed = time.perf_counter() - start

        self.attempted += 1
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
        if self.tracer is not None:
            self.tracer.count("cli.artifact_bytes", sum(len(b) for b in files.values()))
        if error is not None:
            self._fail(cmd, type(error).__name__, traceback.format_exception_only(error)[-1])
        elif code != 0:
            self._fail(cmd, f"exit {code}", sink.getvalue())
        else:
            try:
                self.accuracy.update(check_outputs(cmd, files, self.workload))
                reference = self.first_files.setdefault(cmd, files)
                if files != reference:
                    changed = sorted(n for n in files.keys() | reference.keys()
                                     if files.get(n) != reference.get(n))
                    raise CheckFailed(f"artifacts differ from the run's first call: {changed}")
            except (CheckFailed, KeyError, IndexError, TypeError, ValueError) as err:
                # A malformed artifact is a wrong output, not a benchmark crash.
                self.wrong_outputs += 1
                self._fail(cmd, "CheckFailed", f"{type(err).__name__}: {err}")
            else:
                return elapsed, True
        return elapsed, False

    def _fail(self, cmd: str, cause: str, message: str) -> None:
        self.failures[cmd][cause] += 1
        self.messages.setdefault(cause, message.strip().splitlines()[-1] if message.strip() else "")

    def cycle(self, index: int) -> list[tuple[float, bool]]:
        return [self.call(index * len(COMMANDS) + k, cmd) for k, cmd in enumerate(COMMANDS)]

    def timed_call(self, op: int, cmd: str) -> None:
        seconds, _ = self.call(op, cmd)
        self.times_ms[cmd].append(seconds * 1e3)
        self.timed_s[cmd] += seconds
        self.timed_total_s += seconds

    def next_command(self) -> str:
        """The command with the least timed seconds plus CALL_WEIGHT_S per
        timed call; ties go to the earlier command of the cycle."""
        return min(
            COMMANDS,
            key=lambda cmd: self.timed_s[cmd] + CALL_WEIGHT_S * len(self.times_ms[cmd]),
        )


def setup_seconds() -> float:
    """Time from spawning a fresh interpreter, in this process's environment,
    until `import klbasis.cli` returns in it. perf_counter is
    CLOCK_MONOTONIC, shared across processes on Linux."""
    code = "import klbasis.cli, time; print(repr(time.perf_counter()))"
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout.split()[-1]) - start


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-spawns", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    run = Run(args, tracer.install() if tracer else cli.main, tracer)
    warmup_ms = sum(seconds for seconds, _ in run.cycle(0)) * 1e3
    op, setup_s = len(COMMANDS), []
    while run.timed_total_s < args.seconds or not all(run.times_ms.values()):
        for cmd in COMMANDS if args.trace else (run.next_command(),):
            run.timed_call(op, cmd)
            op += 1
        while len(setup_s) < args.setup_spawns * min(1.0, run.timed_total_s / args.seconds):
            setup_s.append(setup_seconds())

    summary = {
        "timed_calls": op - len(COMMANDS),
        "warmup_ms": warmup_ms,
        "setup_s": setup_s,
        "times_ms": run.times_ms,
        "attempted": run.attempted,
        "failed": sum(sum(c.values()) for c in run.failures.values()),
        "wrong_outputs": run.wrong_outputs,
        "failures": {cmd: dict(c) for cmd, c in run.failures.items()},
        "failure_messages": run.messages,
        "accuracy": run.accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": _blas(),
    }
    if tracer is not None:
        summary["layers"] = tracer.layer_metrics(len(COMMANDS))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
