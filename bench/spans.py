"""In-memory call spans around the public functions of each klbasis layer.

`Tracer.install` replaces every module attribute (and every `cli._COMMANDS`
entry) that holds one of the traced functions with a wrapper recording a
span: name, start, end, parent span and op, where an op is one
`cli.main` call. Names are patched where they are looked up, since `cli`
and `sampling` import some functions by name. Nothing under src/ changes;
the wrappers exist only in the process that installs them.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "cli.main"
FUNCTIONS = (
    "hydrogenic.radial_wavefunction",
    "hydrogenic.numerov_oracle",
    "sampling.build_sample_matrix",
    "sampling.sample_matrix_csv_text",
    "klcore.covariance",
    "klcore.eig_sym",
    "klcore.projection_mse",
    "klcore.eigenvalues_csv_text",
    "klcore.vectors_csv_text",
    "klcore.basis_json_doc",
    "basisfn.barycentric_weights",
    "basisfn.differentiation_matrix",
    "basisfn.interpolate",
    "spectral.assemble",
    "spectral.solve",
    "spectral.energy_scan",
    "spectral.residual",
    "spectral.relative_residual_norm",
    "csvio.csv_text",
    "cli.load_config",
    "cli.run_pipeline",
    "cli.cmd_gen_basis",
    "cli.cmd_solve",
    "cli.cmd_scan_energy",
    "cli.cmd_compare_bases",
)
METHODS = ("eval", "deriv")
SPANS = (ROOT,) + FUNCTIONS + tuple(f"basisfn.BasisFunction.{m}" for m in METHODS)

# Work counted at a span boundary from the call's arguments and result,
# summed per cycle; `layer_metrics` turns some sums into ratios.
_COUNTERS = {
    "hydrogenic.numerov_oracle": lambda args, res: {"iterations": res.iterations},
    "klcore.eig_sym": lambda args, res: {"order_sum": res.n},
    "basisfn.interpolate": lambda args, res: {
        "kept": args[0].M,
        "computed": args[0].vectors.shape[0],
    },
    "basisfn.BasisFunction.eval": lambda args, res: {"points": np.size(args[1])},
    "spectral.solve": lambda args, res: {
        "direct": res.method == "direct",
        "least_squares": res.method == "least-squares",
    },
    "spectral.energy_scan": lambda args, res: {
        "ok": sum(s == "ok" for s in res.statuses),
        "points": len(res.statuses),
    },
    "csvio.csv_text": lambda args, res: {"bytes": len(res.encode())},
}
# Every key the counters above produce, so a span that never ran reads 0.
COUNTED = (
    "hydrogenic.numerov_oracle.iterations",
    "klcore.eig_sym.order_sum",
    "basisfn.interpolate.kept",
    "basisfn.interpolate.computed",
    "basisfn.BasisFunction.eval.points",
    "spectral.solve.direct",
    "spectral.solve.least_squares",
    "spectral.energy_scan.ok",
    "spectral.energy_scan.points",
    "csvio.csv_text.bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters; set `op` before each `cli.main` call."""

    def __init__(self):
        self.op = -1
        # [name, start, end, parent index or -1, op, 1 if an exception left it]
        self.spans: list[list] = []
        # (op, metric name, amount)
        self.counters: list[tuple[int, str, float]] = []
        self._stack: list[int] = []

    def count(self, key: str, amount: float) -> None:
        self.counters.append((self.op, key, amount))

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.counters.append((span[4], f"{name}.{key}", amount))
            return result

        return traced

    def install(self):
        """Wrap every traced function and method; return the traced
        `cli.main` the caller must use for each op."""
        from klbasis import basisfn, cli

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "klbasis"]
        for dotted in FUNCTIONS:
            mod, attr = dotted.split(".")
            original = getattr(sys.modules[f"klbasis.{mod}"], attr)
            traced = self.wrap(dotted, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
            for key, value in list(cli._COMMANDS.items()):
                if value is original:
                    cli._COMMANDS[key] = traced
        cls = basisfn.BasisFunction
        for method in METHODS:
            setattr(cls, method, self.wrap(f"basisfn.BasisFunction.{method}", getattr(cls, method)))
        cls.__call__ = cls.eval
        return self.wrap(ROOT, cli.main)

    def layer_metrics(self, ops_per_cycle: int) -> dict[str, float]:
        """Per-cycle medians over every cycle but the first (the warm-up):
        self time, calls and errors of each span, the counters, and the
        traced time of the whole cycle."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, op, err in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        cycles: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op, err) in enumerate(self.spans):
            acc = cycles[op // ops_per_cycle]
            acc[f"{name}.self_ms"] += (end - start - child_s[i]) * 1e3
            acc[f"{name}.calls"] += 1
            acc[f"{name}.errors"] += err
            if parent < 0:
                acc["cli.main.total_ms"] += (end - start) * 1e3
        for op, key, amount in self.counters:
            cycles[op // ops_per_cycle][key] += amount
        timed = [acc for cycle, acc in cycles.items() if cycle > 0]

        keys = {f"{s}.{q}" for s in SPANS for q in ("self_ms", "calls", "errors")}
        keys |= set(COUNTED) | {key for acc in timed for key in acc}
        m = {key: statistics.median(acc[key] for acc in timed) for key in keys}
        m["klcore.eig_sym.n"] = _ratio(m.pop("klcore.eig_sym.order_sum"), m["klcore.eig_sym.calls"])
        m["klcore.kept_ratio"] = _ratio(
            m.pop("basisfn.interpolate.kept"), m.pop("basisfn.interpolate.computed")
        )
        m["spectral.scan.ok_ratio"] = _ratio(
            m.pop("spectral.energy_scan.ok"), m.pop("spectral.energy_scan.points")
        )
        return m
