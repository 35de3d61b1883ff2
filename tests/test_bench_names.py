"""The benchmark tracer patches klbasis functions by name and reads
attributes of their results; a rename in the library must fail here
rather than only in the slow benchmark smoke test."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from klbasis import basisfn

_ROOT = Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("dotted", SPANS.FUNCTIONS)
def test_traced_function_resolves(dotted):
    module, name = dotted.split(".")
    assert callable(getattr(importlib.import_module(f"klbasis.{module}"), name, None))


@pytest.mark.parametrize("method", SPANS.METHODS)
def test_traced_basis_method_resolves(method):
    assert callable(getattr(basisfn.BasisFunction, method, None))


# Two cycles of the four subcommands, the first the warm-up that
# `layer_metrics` drops, on the default config and on the 2p problem off
# its eigenvalue, where the Numerov oracle is the reference. It runs in a
# child process: `Tracer.install` patches the library for good.
_TRACED_CYCLES = """
import json, sys
from spans import Tracer
from workloads import COMMANDS

configs = [{}, {"problem": {"n": 2, "l": 1, "E": -0.1251, "E_range": [-0.2, -0.05], "b": 20.0}}]
tracer = Tracer()
main = tracer.install()
op = 0
for cycle in range(2):
    for i, config in enumerate(configs):
        with open(f"config{i}.json", "w") as fh:
            json.dump(config, fh)
        for command in COMMANDS:
            tracer.op = op
            op += 1
            code = main([command, "--config", f"config{i}.json", "--out-dir", f"out{i}"])
            assert code == 0, (command, config, code)
print(json.dumps(tracer.layer_metrics(ops_per_cycle=len(configs) * len(COMMANDS))))
"""


def test_traced_cycle_reads_every_counter(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "bench")]))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_CYCLES],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])
    assert metrics["cli.main.calls"] == 8
    assert metrics["cli.main.errors"] == 0
    assert metrics["hydrogenic.numerov_oracle.calls"] == 2
    assert metrics["hydrogenic.numerov_oracle.iterations"] == 2
    assert metrics["klcore.eig_sym.n"] == 20
    assert metrics["klcore.kept_ratio"] == 8 / 20
    solves = metrics["spectral.solve.direct"] + metrics["spectral.solve.least_squares"]
    assert solves == metrics["spectral.solve.calls"] > 0
    assert metrics["spectral.scan.ok_ratio"] == 1.0
    assert metrics["basisfn.BasisFunction.eval.points"] > 0
    assert metrics["csvio.csv_text.bytes"] > 0
