"""Smoke test of the benchmark: each workload in bench/workloads.py (the ones
BENCHMARK.json lists and `wide`), run at minimum length in both modes,
prints a result line that parses and carries every metric BENCHMARK.json
names; without src/ the benchmark fails and prints no result.

The file name keeps it out of the default pytest collection, so the
tier-1 suite stays fast. Run it from the repository root (about 2 minutes):

    python3 -m pytest bench/tests/bench_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_result_carries_every_metric(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert out.stdout == ""
