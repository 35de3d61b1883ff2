"""The benchmark tracer patches klbasis functions by name; a rename in
the library must fail here rather than only in the slow benchmark smoke
test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from klbasis import basisfn

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
