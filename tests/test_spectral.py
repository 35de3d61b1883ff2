from dataclasses import replace

import numpy as np
import pytest
from conftest import count_kernel_calls, scaled_rel_l2

from klbasis import basisfn, cli, klcore, spectral
from klbasis.errors import NumericalError
from klbasis.hydrogenic import (
    BoundaryValueProblem,
    numerov_oracle,
    reduced_ground_state,
)
from klbasis.sampling import GridKind, make_grid
from klbasis.spectral import (
    assemble,
    energy_scan,
    make_collocation_problem,
    relative_residual_norm,
    residual,
    solve,
)


def eigenmode_basis(extra=()):
    """Exact reduced ground state interpolated on a fine grid, plus any
    extra sample vectors on the same nodes."""
    nodes = make_grid(GridKind.CHEBYSHEV_LOBATTO, 30, 0.0, 7.0).points
    columns = [nodes * np.exp(-nodes)] + [samples(nodes) for samples in extra]
    return nodes, basisfn.BasisFunction(nodes, np.column_stack(columns))


GROUND_BVP = BoundaryValueProblem(
    l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=1e-4, epsilon=1e-10
)


def pipeline_case(overrides: dict):
    config = cli.validate_config(overrides)
    return cli.problem_from_config(config), cli.run_pipeline(config).interpolant


EXCITED_2P = {"problem": {"n": 2, "l": 1, "E": -0.125, "E_range": [-0.2, -0.05], "b": 20.0}}
# a square 12 x 12 stack with sigma_min/sigma_max just above the 1e-14 gate
# (2.1-2.8e-14), so every energy takes the direct solve, and 30 of the 41
# default scan energies miss the boundary values: the scan has failed rows
FAILING_ROWS = {
    "sampling": {"N_s": 16, "b": 80.0},
    "truncation": {"value": 12},
    "problem": {"a": 0.5, "b": 20.0, "y_a": 1e-4, "y_f": 1.0},
}

# a square 20 x 20 system that passes the singular-value gate and takes
# the direct solve, good to 3.1e-7 on the mid window
DIRECT_PATH = {
    "family": {"n_max": 6},
    "sampling": {"N_s": 22, "b": 10.0},
    "truncation": {"value": 20},
    "problem": {"E": -0.499, "a": 1.0, "b": 7.0},
}


SCAN_CASES = pytest.mark.parametrize(
    "overrides, e_lo, e_hi, n_failed",
    [({}, -0.7, -0.3, 0), (EXCITED_2P, -0.2, -0.05, 0), (FAILING_ROWS, -0.7, -0.3, 30)],
    ids=["1s", "2p", "failing-rows"],
)


class TestAssemble:
    def test_exact_eigenfunction_annihilates_interior_rows(self):
        _, funcs = eigenmode_basis()
        bvp = BoundaryValueProblem(
            l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=1e-4, epsilon=1e-300
        )
        # one mode: its 28 interior nodes are the points
        matrix, _ = assemble(make_collocation_problem(bvp, funcs))
        assert matrix.shape == (30, 1)
        assert np.max(np.abs(matrix[:-2, 0])) <= 1e-10

    def test_boundary_rhs(self):
        _, funcs = eigenmode_basis()
        _, rhs = assemble(make_collocation_problem(GROUND_BVP, funcs))
        assert rhs.shape == (30,)
        assert rhs[-2] == 0.0
        assert rhs[-1] == 1e-4
        assert np.all(rhs[:-2] == 0.0)

    def test_energy_shift_is_linear(self):
        _, funcs = eigenmode_basis()
        delta = 0.1
        shifted = BoundaryValueProblem(
            l=0, Z=1.0, E=GROUND_BVP.E + delta, a=0.0, b=7.0, y_a=0.0, y_f=1e-4, epsilon=1e-10
        )
        prob = make_collocation_problem(GROUND_BVP, funcs)
        A1, _ = assemble(prob)
        A2, _ = assemble(make_collocation_problem(shifted, funcs))
        expected = -delta * funcs.eval(prob.interior_points)
        assert np.allclose(A2[:-2] - A1[:-2], expected, rtol=0, atol=1e-14)

    def test_stacked_operator_rows_match_assemble(self, reproduction_funcs8, reproduction_bvp):
        problem = make_collocation_problem(reproduction_bvp, reproduction_funcs8)
        energies = np.linspace(-0.7, -0.3, 41)
        stack = problem._interior.operator(energies)
        assert stack.shape == (41, problem.interior_points.size, problem.n_modes)
        for e, rows in zip(energies, stack):
            at_e = make_collocation_problem(replace(reproduction_bvp, E=e), reproduction_funcs8)
            assert np.array_equal(rows, assemble(at_e)[0][:-2])

    def test_domain_not_covered_rejected(self):
        nodes = make_grid(GridKind.CHEBYSHEV_LOBATTO, 10, 0.0, 5.0).points
        funcs = basisfn.BasisFunction(nodes, np.sin(nodes)[:, None])
        with pytest.raises(ValueError):
            make_collocation_problem(GROUND_BVP, funcs)


class TestSolve:
    def test_exact_mode_containment(self):
        _, funcs = eigenmode_basis(
            extra=[lambda x: np.cos(np.pi * x / 14.0), lambda x: np.exp(-x / 3.0)]
        )
        prob = make_collocation_problem(GROUND_BVP, funcs)
        sol = solve(prob)
        expected_scale = 1e-4 / (7.0 * np.exp(-7.0))
        assert sol.coefficients[0] == pytest.approx(expected_scale, rel=1e-6)
        assert np.all(np.abs(sol.coefficients[1:]) <= 1e-8 * abs(sol.coefficients[0]))

    def test_homogeneous_problem_zero_solution(self):
        _, funcs = eigenmode_basis(
            extra=[lambda x: np.cos(np.pi * x / 14.0), lambda x: np.exp(-x / 3.0)]
        )
        bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=0.0)
        sol = solve(make_collocation_problem(bvp, funcs))
        assert np.max(np.abs(sol.coefficients)) <= 1e-12

    def test_reproduction_solve(self, reproduction_funcs8, reproduction_bvp):
        # frozen regression: measured 0.0419 against the 5e-2 gate, with
        # the free global coefficient fitted (the boundary value only
        # fixes the scale; the comparison is between normalized shapes)
        prob = make_collocation_problem(reproduction_bvp, reproduction_funcs8)
        assert prob.interior_points.size == 6
        sol = solve(prob)
        xs = np.linspace(0.5, 5.0, 201)
        ref = reduced_ground_state(reproduction_bvp.b, reproduction_bvp.y_f, xs)
        rel = scaled_rel_l2(np.atleast_1d(sol.eval(xs)), ref)
        assert rel <= 5e-2
        assert rel == pytest.approx(0.0419, abs=0.01)

    def test_square_system_keeps_the_direct_solve(self):
        # why a square system that passes the singular-value gate is solved
        # directly: the weighted least-squares path gives 2.5e-3 here
        report = cli.cmd_solve(cli.validate_config(DIRECT_PATH))["report.json"]
        assert report["method"] == "direct"
        assert report["rel_l2_error_mid"] <= 1e-6

    def test_boundary_enforcement(self, reproduction_funcs8, reproduction_bvp):
        sol = solve(make_collocation_problem(reproduction_bvp, reproduction_funcs8))
        tol = 1e-8 * max(1.0, abs(reproduction_bvp.y_f))
        assert abs(sol.eval(reproduction_bvp.a) - reproduction_bvp.y_a) <= tol
        assert abs(sol.eval(reproduction_bvp.b) - reproduction_bvp.y_f) <= tol
        assert sol.condition_estimate >= 1.0

    def test_linear_in_boundary_data(self, reproduction_funcs8, reproduction_bvp):
        sol1 = solve(make_collocation_problem(reproduction_bvp, reproduction_funcs8))
        doubled = BoundaryValueProblem(
            l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=2e-4, epsilon=1e-10
        )
        sol2 = solve(make_collocation_problem(doubled, reproduction_funcs8))
        scale = np.max(np.abs(sol2.coefficients))
        assert np.max(np.abs(sol2.coefficients - 2.0 * sol1.coefficients)) <= 1e-10 * scale

    def test_degenerate_basis_that_cannot_meet_boundary(self):
        # every mode vanishes at both endpoints: y(b) = 1e-4 is unreachable
        nodes = make_grid(GridKind.CHEBYSHEV_LOBATTO, 12, 0.0, 7.0).points
        funcs = basisfn.BasisFunction(
            nodes, np.column_stack([np.sin(k * np.pi * nodes / 7.0) for k in (1, 2, 3)])
        )
        with pytest.raises(NumericalError):
            solve(make_collocation_problem(GROUND_BVP, funcs))

    def test_non_finite_matrix_is_a_numerical_error(self, reproduction_funcs8, reproduction_bvp):
        # LAPACK would fail on it with a LinAlgError, which is no NumericalError
        problem = make_collocation_problem(replace(reproduction_bvp, E=np.inf), reproduction_funcs8)
        with pytest.raises(NumericalError, match="not finite"):
            solve(problem)

    def test_overflowing_weighted_rhs_is_a_numerical_error(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # 1e6 times the row scale times y_f overflows; gelsd would return NaN
        calls = []
        monkeypatch.setattr(spectral, "_lstsq", lambda *a: calls.append(1))
        bvp = replace(reproduction_bvp, y_f=1e305)
        problem = make_collocation_problem(bvp, reproduction_funcs8)
        with pytest.raises(NumericalError, match=f"^{spectral._WEIGHTED_NOT_FINITE}$"):
            solve(problem)
        assert calls == []

    def test_nan_coefficients_miss_the_boundary_values(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # a NaN boundary value compares False with the tolerance either way;
        # only a value within it counts as met
        lstsq = spectral._lstsq

        def nan_solution(a, b):
            x, sv = lstsq(a, b)
            return np.full_like(x, np.nan), sv

        monkeypatch.setattr(spectral, "_lstsq", nan_solution)
        problem = make_collocation_problem(reproduction_bvp, reproduction_funcs8)
        with pytest.raises(NumericalError, match="^boundary conditions not met"):
            solve(problem)


class TestResidual:
    def test_exact_mode_residual_small(self):
        _, funcs = eigenmode_basis(
            extra=[lambda x: np.cos(np.pi * x / 14.0), lambda x: np.exp(-x / 3.0)]
        )
        sol = solve(make_collocation_problem(GROUND_BVP, funcs))
        xs = np.linspace(0.2, 6.8, 101)
        res = residual(sol, xs)
        y = np.atleast_1d(sol.eval(xs))
        assert np.max(np.abs(res)) <= 1e-6 * np.max(np.abs(GROUND_BVP.E * y))

    def test_collocation_row_backward_error(self):
        prob = make_collocation_problem(*pipeline_case(DIRECT_PATH))
        sol = solve(prob)
        assert sol.method == "direct"
        matrix, rhs = assemble(prob)
        assert matrix.shape == (20, 20)
        rows = matrix @ sol.coefficients - rhs
        bound = 1e-8 * np.linalg.norm(matrix) * np.linalg.norm(sol.coefficients)
        assert np.max(np.abs(rows)) <= bound

    def test_reproduction_residual_grows_toward_boundaries(
        self, reproduction_funcs8, reproduction_bvp
    ):
        sol = solve(make_collocation_problem(reproduction_bvp, reproduction_funcs8))
        xs = np.linspace(reproduction_bvp.a, reproduction_bvp.b, 501)
        res = np.abs(residual(sol, xs))
        span = reproduction_bvp.b - reproduction_bvp.a
        outer = (xs <= reproduction_bvp.a + 0.1 * span) | (xs >= reproduction_bvp.b - 0.1 * span)
        middle = (xs >= reproduction_bvp.a + 0.25 * span) & (xs <= reproduction_bvp.b - 0.25 * span)
        assert res[outer].max() > np.median(res[middle])


class TestResidualNormAndMonotonicity:
    def test_one_kernel_call_per_matrix(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # the norm evaluates the solution once: its values and its second
        # derivative, and gives the bits of the plain formula
        sol = solve(make_collocation_problem(reproduction_bvp, reproduction_funcs8))
        dense = spectral._scan_grid(reproduction_bvp)
        y = sol.eval(dense)
        res = -0.5 * sol.deriv(dense, order=2) + (
            reproduction_bvp.potential(dense) - reproduction_bvp.E
        ) * y
        expected = float(np.sqrt(np.mean(res * res))) / float(np.sqrt(np.mean(y * y)))
        calls = count_kernel_calls(monkeypatch)
        assert relative_residual_norm(sol, dense) == expected
        assert len(calls) == 2

    def test_completeness_monotonicity(self, reproduction_pipeline, reproduction_bvp):
        dense = spectral._scan_grid(reproduction_bvp)
        norms = {}
        for m in (4, 6, 8, 10):
            tb = klcore.truncate_basis(reproduction_pipeline["basis"], klcore.FixedM(m))
            funcs = basisfn.interpolate(tb)
            sol = solve(make_collocation_problem(reproduction_bvp, funcs))
            norms[m] = relative_residual_norm(sol, dense)
        for m in (4, 6, 8):
            assert norms[m + 2] <= norms[m] + 1e-12

    def test_oracle_equivalence(self, reproduction_funcs8, reproduction_bvp):
        sol = solve(make_collocation_problem(reproduction_bvp, reproduction_funcs8))
        xs = np.linspace(0.5, 5.0, 201)
        y = np.atleast_1d(sol.eval(xs))
        ref_closed = reduced_ground_state(reproduction_bvp.b, reproduction_bvp.y_f, xs)
        oracle = numerov_oracle(reproduction_bvp, 100_000)
        ref_numerov = np.interp(xs, oracle.x, oracle.y)
        err_closed = scaled_rel_l2(y, ref_closed)
        err_numerov = scaled_rel_l2(y, ref_numerov)
        assert abs(err_closed - err_numerov) < 0.1 * err_closed


class TestEnergyScan:
    @SCAN_CASES
    def test_matches_per_energy_solve(self, overrides, e_lo, e_hi, n_failed):
        bvp, basis = pipeline_case(overrides)
        scan = energy_scan(bvp, basis, e_lo, e_hi, 41)
        dense = spectral._scan_grid(bvp)
        for e, norm, status in zip(scan.energies, scan.residual_norms, scan.statuses):
            try:
                sol = solve(make_collocation_problem(replace(bvp, E=e), basis))
            except NumericalError as err:
                assert status == f"failed: {err}"
                assert np.isnan(norm)
                continue
            assert status == "ok"
            expected = relative_residual_norm(sol, dense)
            assert abs(norm - expected) <= 1e-12 * expected
        assert sum(s.startswith("failed:") for s in scan.statuses) == n_failed

    @SCAN_CASES
    def test_bit_identical_to_per_energy_solve(self, overrides, e_lo, e_hi, n_failed):
        bvp, basis = pipeline_case(overrides)
        scan = energy_scan(bvp, basis, e_lo, e_hi, 41)
        dense = spectral._scan_grid(bvp)
        expected_norms, expected_statuses = [], []
        for e in scan.energies:
            try:
                sol = solve(make_collocation_problem(replace(bvp, E=e), basis))
            except NumericalError as err:
                expected_norms.append(np.nan)
                expected_statuses.append(f"failed: {err}")
                continue
            expected_norms.append(relative_residual_norm(sol, dense))
            expected_statuses.append("ok")
        assert scan.statuses == tuple(expected_statuses)
        assert np.array_equal(scan.residual_norms, expected_norms, equal_nan=True)

    def test_one_svd_per_scan(self, monkeypatch, reproduction_funcs8, reproduction_bvp):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for n_steps in (5, 41):
            calls.clear()
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, n_steps)
            assert len(calls) == 1

    def test_one_batched_least_squares_call_per_scan(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # every matrix of this scan takes the weighted least-squares path
        batched, single = [], []
        stacked, lstsq = spectral._lstsq, np.linalg.lstsq
        monkeypatch.setattr(
            spectral, "_lstsq", lambda *a: batched.append(1) or stacked(*a)
        )
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: single.append(1) or lstsq(*a, **k)
        )
        for n_steps in (5, 41):
            batched.clear()
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, n_steps)
            assert len(batched) == 1
        assert single == []

    def test_basis_evaluated_once_per_scan(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        calls = count_kernel_calls(monkeypatch)
        counts = []
        for n_steps in (5, 41):
            calls.clear()
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, n_steps)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_reproduction_scan(self, reproduction_funcs8, reproduction_bvp):
        scan = energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, 41)
        assert scan.argmin_status == "interior"
        assert abs(scan.argmin_energy - (-0.5)) <= 0.02

    def test_range_without_eigenvalues_flags_boundary(
        self, reproduction_funcs8, reproduction_bvp
    ):
        # the operator's own quasi-eigenvalues sit near -0.50 and -0.12;
        # this window excludes both
        scan = energy_scan(reproduction_bvp, reproduction_funcs8, -0.3, -0.15, 11)
        assert scan.argmin_status == "boundary-minimum"

    def test_three_point_parabola(self, reproduction_funcs8, reproduction_bvp):
        scan = energy_scan(reproduction_bvp, reproduction_funcs8, -0.52, -0.48, 3)
        e, r = scan.energies, scan.residual_norms
        vertex = e[1] + 0.5 * (e[1] - e[0]) * (r[0] - r[2]) / (r[0] - 2 * r[1] + r[2])
        assert scan.argmin_status == "interior"
        assert scan.argmin_energy == pytest.approx(vertex, abs=1e-15)
        # refinement moves off the grid point toward the true minimum
        assert e[0] < scan.argmin_energy < e[2]

    def test_failures_marked_not_fatal(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # the scan solves its energies as one stack; poison the matrix at
        # E = -0.5 in it
        original = spectral._stack

        def poisoned(problem, energies):
            stack, rhs = original(problem, energies)
            stack[np.asarray(energies) == -0.5, 0, 0] = np.nan
            return stack, rhs

        monkeypatch.setattr(spectral, "_stack", poisoned)
        scan = energy_scan(reproduction_bvp, reproduction_funcs8, -0.52, -0.48, 5)
        assert scan.statuses[2].startswith("failed:")
        assert np.isnan(scan.residual_norms[2])
        assert sum(s == "ok" for s in scan.statuses) == 4

    def test_scan_argument_validation(self, reproduction_funcs8, reproduction_bvp):
        with pytest.raises(ValueError):
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.3, -0.7, 5)
        with pytest.raises(ValueError):
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, 2)


def per_matrix_solve(problem, A, rhs):
    """The solve of one collocation matrix on public numpy calls, one matrix
    at a time: what `_solve_stack` must reproduce bit for bit, as
    (coefficients, condition estimate, method) or a failure message."""
    bvp = problem.bvp
    if not np.isfinite(A).all():
        return spectral._NOT_FINITE
    with np.errstate(over="ignore"):
        row_scale = np.linalg.norm(A[:-2], axis=1).max() if len(A) > 2 else 1.0
    if not np.isfinite(row_scale):
        return spectral._WEIGHT_NOT_FINITE
    sv = np.linalg.svd(A, compute_uv=False)
    if A.shape[0] == A.shape[1] and sv[-1] >= 1e-14 * sv[0]:
        coeffs = np.linalg.solve(A, rhs)
        cond, method = float(sv[0] / sv[-1]), "direct"
    else:
        weight = 1e6 * row_scale
        Aw, rw = A.copy(), rhs.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            Aw[-2:] *= weight
            rw[-2:] *= weight
        if not np.isfinite(rw).all():
            return spectral._WEIGHTED_NOT_FINITE
        coeffs, _, _, svw = np.linalg.lstsq(Aw, rw, rcond=1e-14)
        kept = svw[svw >= 1e-14 * svw[0]]
        cond, method = float(svw[0] / kept[-1]), "least-squares"
    tol = 1e-8 * max(1.0, abs(bvp.y_f))
    y_a, y_b = problem._boundary @ coeffs
    if not (abs(y_a - bvp.y_a) <= tol and abs(y_b - bvp.y_f) <= tol):
        return (
            "boundary conditions not met; the collocation matrix is numerically "
            f"singular as posed (sigma_min/sigma_max = {sv[-1] / sv[0]:.2e})"
        )
    return coeffs, cond, method


class TestBatchedSolve:
    """The stacked LAPACK calls of `_solve_stack` against one public call per
    matrix; a numpy that changes or drops the private gufunc fails here."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            EXCITED_2P,
            FAILING_ROWS,
            {"family": {"n_max": 200}},
            {"sampling": {"N_s": 120}, "truncation": {"value": 30}},
            # non-square, and every scan energy misses its boundary values
            {"problem": {**EXCITED_2P["problem"], "y_a": 0.3}},
            # every weighted right-hand side overflows
            {"problem": {"y_f": 1e305}},
        ],
        ids=[
            "default", "2p", "failing-rows", "n_max-200", "uniform-120-M30", "2p-y_a", "y_f-1e305"
        ],
    )
    def test_bit_identical_to_per_matrix_lapack(self, overrides):
        config = cli.validate_config(overrides)
        bvp, basis = pipeline_case(overrides)
        problem = make_collocation_problem(bvp, basis)
        for energies in (np.linspace(*config["problem"]["E_range"], 41), [bvp.E]):
            results = spectral._solve_stack(problem, energies)
            assert len(results) == len(energies)
            for e, got in zip(energies, results):
                matrix, rhs = assemble(make_collocation_problem(replace(bvp, E=e), basis))
                want = per_matrix_solve(problem, matrix, rhs)
                if isinstance(want, str):
                    assert isinstance(got, NumericalError)
                    assert str(got) == want
                    continue
                assert not isinstance(got, NumericalError), got
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]

    def test_singular_value_cut_matches_lstsq(self):
        # singular values on both sides of the 1e-14 cut, which the
        # collocation stacks above do not probe
        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.standard_normal((3, 6, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 4, 4)))
        s = np.array([1.0, 1e-3, 3e-14, 5e-15])
        a = u * s @ v
        b = rng.standard_normal((3, 6))
        x, sv = spectral._lstsq(a, b)
        for k in range(3):
            want_x, _, rank, want_sv = np.linalg.lstsq(a[k], b[k], rcond=1e-14)
            assert rank == 3
            assert np.array_equal(x[k], want_x)
            assert np.array_equal(sv[k], want_sv)

    def test_lapack_failure_raises(self):
        # gelsd fails on a NaN entry (which the gate would have stopped); one
        # failed matrix raises for the stack, as `lstsq` raises, not as NaN
        a = np.random.default_rng(0).standard_normal((2, 4, 3))
        a[1, 0, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            spectral._lstsq(a, np.ones((2, 4)))
