"""The benchmark's workloads and the subcommand cycle each one runs.

Each workload is one config document merged over the CLI defaults, plus
the tolerances the output checks hold its `solve` and `scan-energy`
results to. Why each workload exists is written in BENCHMARK.json and
bench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# The closed-loop cycle: one client, each command waits for the previous.
COMMANDS = ("gen-basis", "solve", "scan-energy", "compare-bases")


@dataclass(frozen=True)
class Workload:
    config: dict
    # Upper bound on report.json `rel_l2_error_mid` of `solve`.
    solve_tol: float
    # Upper bound on |argmin_energy - (-Z^2 / 2n^2)| of `scan-energy`.
    scan_tol: float


# ground1s reuses the acceptance gate's bounds; the others allow about
# ten times the first measured value (3.08e-3 / 6.7e-7 on excited2p,
# 1.72e-9 / 3.18e-4 on wide).
WORKLOADS = {
    "ground1s": Workload(config={}, solve_tol=0.05, scan_tol=0.02),
    "excited2p": Workload(
        config={
            "problem": {"n": 2, "l": 1, "E": -0.125, "E_range": [-0.2, -0.05], "b": 20.0}
        },
        solve_tol=0.03,
        scan_tol=1e-5,
    ),
    "wide": Workload(
        config={
            "family": {"n_max": 10},
            "sampling": {"kind": "chebyshev-lobatto", "N_s": 80, "b": 80.0},
            "truncation": {"criterion": "energy_fraction", "value": 0.99999},
        },
        solve_tol=2e-8,
        scan_tol=3e-3,
    ),
}
