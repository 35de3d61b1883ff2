"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
from pathlib import Path

import numpy as np

from klbasis import basisfn, cli, klcore, spectral
from klbasis.hydrogenic import (
    OrbitalSpec,
    numerov_oracle,
    radial_norm,
    radial_wavefunction,
    reduced_eigenstate,
)
from klbasis.klcore import energy_fraction_modes, reconstruction_mse, truncate_basis
from klbasis.spectral import CollocationProblem, energy_scan, residual, solve
from conftest import scaled_rel_l2


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_wavefunction_correctness(family28):
    worst_norm = 0.0
    nodes_ok = True
    for orb in family28:
        worst_norm = max(worst_norm, abs(radial_norm(orb) - 1.0))
        r = np.linspace(1e-6, 40.0 * orb.n, 60_000)
        vals = radial_wavefunction(orb, r)
        keep = np.abs(vals) > 1e-12 * np.max(np.abs(vals))
        signs = np.sign(vals[keep])
        if int(np.sum(signs[1:] != signs[:-1])) != orb.n - orb.l - 1:
            nodes_ok = False
    r10_err = abs(radial_wavefunction(family28[0], 1.0) - 2.0 * math.exp(-1.0))
    ok = worst_norm <= 1e-8 and nodes_ok and r10_err <= 1e-12
    _report(
        1,
        ok,
        f"28 orbitals: worst |norm-1|={worst_norm:.2e} (<=1e-8), "
        f"node counts {'all correct' if nodes_ok else 'WRONG'}, "
        f"|R10(1)-2/e|={r10_err:.2e} (<=1e-12)",
    )


def test_criterion_2_kl_invariants(reproduction_pipeline):
    basis = reproduction_pipeline["basis"]
    K = reproduction_pipeline["cov"]
    lam, phi = basis.eigenvalues, basis.vectors
    trace = float(np.trace(K))
    sorted_ok = bool(np.all(np.diff(lam) <= 0))
    nonneg_ok = bool(np.all(lam >= -1e-12 * trace))
    orth = float(np.max(np.abs(phi.T @ phi - np.eye(20))))
    diag = float(np.max(np.abs(phi.T @ K @ phi - np.diag(lam))))
    trace_err = abs(float(lam.sum()) - trace) / trace
    ok = sorted_ok and nonneg_ok and orth <= 1e-10 and diag <= 1e-10 * lam[0] and trace_err <= 1e-12
    _report(
        2,
        ok,
        f"eigenvalues sorted={sorted_ok}, non-negative={nonneg_ok}, "
        f"orthonormality err={orth:.2e} (<=1e-10), "
        f"diagonalization err={diag:.2e} (<={1e-10 * lam[0]:.2e}), "
        f"trace rel err={trace_err:.2e} (<=1e-12)",
    )


def test_criterion_3_eigenvalue_decay(reproduction_pipeline):
    basis = reproduction_pipeline["basis"]
    tb = truncate_basis(basis, energy_fraction_modes(basis, 0.9999))
    # M == 7 is the frozen first-run regression value
    ok = tb.M <= 10 and tb.M == 7
    _report(3, ok, f"energy_fraction_modes(basis, 0.9999) keeps M={tb.M} modes (<=10; frozen value 7)")


def test_criterion_4_kl_optimality(reproduction_pipeline):
    Yc = reproduction_pipeline["centered"]
    basis = reproduction_pipeline["basis"]
    trace = float(np.trace(reproduction_pipeline["cov"]))
    n_w = Yc.shape[1]
    kl_mse = np.array([reconstruction_mse(Yc, basis, m) for m in range(1, 21)])
    tails = np.array([float(basis.eigenvalues[m:].sum()) for m in range(1, 21)])
    tail_ok = bool(np.all(np.abs(kl_mse - tails) <= 1e-9 * trace))

    rng = np.random.default_rng(20080556)
    beats_all = True
    worst_margin = -np.inf
    for _ in range(100):
        A = rng.standard_normal((20, 20))
        Q, R = np.linalg.qr(A)
        Q = Q * np.sign(np.diag(R))
        energies = np.sum((Q.T @ Yc) ** 2, axis=1) / n_w
        captured = np.cumsum(np.sort(energies)[::-1])
        # best possible M-subset of Q's columns for every M at once
        q_mse = trace - captured
        margin = np.max(kl_mse - q_mse)
        worst_margin = max(worst_margin, margin)
        if np.any(kl_mse > q_mse + 1e-12 * trace):
            beats_all = False
    ok = tail_ok and beats_all
    _report(
        4,
        ok,
        f"KL MSE = eigenvalue tail to 1e-9*trace: {tail_ok}; "
        f"KL <= best-M-subset of 100 random orthonormal bases for all M in 1..20: "
        f"{beats_all} (worst margin {worst_margin:.2e})",
    )


def test_criterion_5_reproduction_solve(reproduction_funcs8, reproduction_bvp):
    sol = solve(CollocationProblem(reproduction_bvp, reproduction_funcs8))
    xs = np.linspace(0.5, 5.0, 201)
    ref = reduced_eigenstate(OrbitalSpec(1, 0), reproduction_bvp.b, reproduction_bvp.y_f, xs)
    rel = scaled_rel_l2(np.atleast_1d(sol.eval(xs)), ref)

    grid = np.linspace(reproduction_bvp.a, reproduction_bvp.b, 501)
    res = np.abs(residual(sol, grid))
    span = reproduction_bvp.b - reproduction_bvp.a
    outer = (grid <= reproduction_bvp.a + 0.1 * span) | (grid >= reproduction_bvp.b - 0.1 * span)
    middle = (grid >= reproduction_bvp.a + 0.25 * span) & (
        grid <= reproduction_bvp.b - 0.25 * span
    )
    shape_ok = bool(res[outer].max() > np.median(res[middle]))
    ok = rel <= 5e-2 and shape_ok
    _report(
        5,
        ok,
        f"M=8 solve vs closed form on [0.5,5]: rel L2 (scale-fitted) = {rel:.4f} (<=0.05); "
        f"residual grows toward boundaries: {shape_ok} "
        f"(outer max {res[outer].max():.2e} > middle median {np.median(res[middle]):.2e})",
    )


def test_criterion_6_oracle_agreement(reproduction_funcs8, reproduction_bvp):
    oracle = numerov_oracle(reproduction_bvp, 100_000)
    mask = oracle.x >= 0.7
    ref = reduced_eigenstate(
        OrbitalSpec(1, 0), reproduction_bvp.b, reproduction_bvp.y_f, oracle.x[mask]
    )
    oracle_dev = float(np.max(np.abs(oracle.y[mask] - ref) / np.abs(ref)))

    sol = solve(CollocationProblem(reproduction_bvp, reproduction_funcs8))
    xs = np.linspace(0.5, 5.0, 201)
    y = np.atleast_1d(sol.eval(xs))
    err_closed = scaled_rel_l2(
        y, reduced_eigenstate(OrbitalSpec(1, 0), reproduction_bvp.b, reproduction_bvp.y_f, xs)
    )
    err_numerov = scaled_rel_l2(y, np.interp(xs, oracle.x, oracle.y))
    cross = abs(err_closed - err_numerov)
    ok = oracle_dev <= 1e-6 and cross < 0.1 * err_closed
    _report(
        6,
        ok,
        f"Numerov vs closed form on [0.7,7]: {oracle_dev:.2e} (<=1e-6); "
        f"solve error vs either reference: {err_closed:.4f} / {err_numerov:.4f} "
        f"(difference {cross:.2e} < 10% of itself)",
    )


def test_criterion_7_energy_scan(reproduction_funcs8, reproduction_bvp):
    scan = energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, 41)
    dev = abs(scan.argmin_energy - (-0.5))
    ok = scan.argmin_status == "interior" and dev <= 0.02
    _report(
        7,
        ok,
        f"refined argmin {scan.argmin_energy:.4f} ({scan.argmin_status}), "
        f"|argmin + 0.5| = {dev:.4f} (<=0.02)",
    )


def test_criterion_8_cli_determinism(tmp_path):
    commands = ["gen-basis", "solve", "scan-energy", "compare-bases"]
    all_ok = True
    details = []
    for command in commands:
        out = tmp_path / command
        code = cli.main([command, "--out-dir", str(out), "--seed", "20080556"])
        assert code == 0, f"{command} exited {code}"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        code = cli.main([command, "--out-dir", str(out), "--seed", "20080556"])
        assert code == 0, f"{command} exited {code}"
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        same = first == second
        all_ok = all_ok and same
        details.append(f"{command}:{'identical' if same else 'DIFFERS'}")
    _report(8, all_ok, "two seeded runs byte-identical for " + ", ".join(details))
