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
# 35 of the 41 default scan energies miss the boundary values (numerically
# singular collocation matrix), so the scan has failed rows
FAILING_ROWS = {
    "family": {"n_max": 3},
    "sampling": {"N_s": 20, "b": 80.0, "representation": "R"},
    "truncation": {"value": 11},
    "problem": {"l": 2, "n": 3, "y_a": 0.3, "y_f": 1.0},
}


SCAN_CASES = pytest.mark.parametrize(
    "overrides, e_lo, e_hi, n_failed",
    [({}, -0.7, -0.3, 0), (EXCITED_2P, -0.2, -0.05, 0), (FAILING_ROWS, -0.7, -0.3, 35)],
    ids=["1s", "2p", "failing-rows"],
)


class TestAssemble:
    def test_exact_eigenfunction_annihilates_interior_rows(self):
        _, funcs = eigenmode_basis()
        bvp = BoundaryValueProblem(
            l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=1e-4, epsilon=1e-300
        )
        prob = make_collocation_problem(bvp, funcs, interior_points=np.array([1.0, 2.5, 4.0]))
        system = assemble(prob)
        assert np.max(np.abs(system.matrix[:-2, 0])) <= 1e-10

    def test_boundary_rhs(self):
        _, funcs = eigenmode_basis()
        prob = make_collocation_problem(GROUND_BVP, funcs, interior_points=np.array([2.0]))
        system = assemble(prob)
        assert system.rhs[-2] == 0.0
        assert system.rhs[-1] == 1e-4
        assert np.all(system.rhs[:-2] == 0.0)

    def test_energy_shift_is_linear(self):
        _, funcs = eigenmode_basis()
        pts = np.array([1.0, 2.5])
        delta = 0.1
        shifted = BoundaryValueProblem(
            l=0, Z=1.0, E=GROUND_BVP.E + delta, a=0.0, b=7.0, y_a=0.0, y_f=1e-4, epsilon=1e-10
        )
        A1 = assemble(make_collocation_problem(GROUND_BVP, funcs, interior_points=pts)).matrix
        A2 = assemble(make_collocation_problem(shifted, funcs, interior_points=pts)).matrix
        expected = -delta * funcs.eval(pts)
        assert np.allclose(A2[:-2] - A1[:-2], expected, rtol=0, atol=1e-14)

    def test_stacked_operator_rows_match_assemble(self, reproduction_funcs8, reproduction_bvp):
        problem = make_collocation_problem(reproduction_bvp, reproduction_funcs8)
        energies = np.linspace(-0.7, -0.3, 41)
        stack = problem._interior.operator(energies)
        assert stack.shape == (41, problem.interior_points.size, problem.n_modes)
        for e, rows in zip(energies, stack):
            assert np.array_equal(rows, assemble(problem.at_energy(e)).matrix[:-2])

    def test_under_determined_rejected(self):
        _, funcs = eigenmode_basis(
            extra=[lambda x: np.cos(x), lambda x: np.exp(-x / 3.0), lambda x: x**2]
        )
        with pytest.raises(ValueError):
            make_collocation_problem(GROUND_BVP, funcs, interior_points=np.array([3.0]))

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
        problem = make_collocation_problem(reproduction_bvp, reproduction_funcs8)
        with pytest.raises(NumericalError, match="not finite"):
            solve(problem.at_energy(np.inf))


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
        # square, non-singular system: junk modes keep the left row alive
        _, funcs = eigenmode_basis(
            extra=[lambda x: np.cos(np.pi * x / 14.0), lambda x: np.exp(-x / 3.0)]
        )
        prob = make_collocation_problem(GROUND_BVP, funcs, interior_points=np.array([2.0]))
        sol = solve(prob)
        assert sol.method == "direct"
        system = assemble(prob)
        rows = system.matrix @ sol.coefficients - system.rhs
        bound = 1e-8 * np.linalg.norm(system.matrix) * np.linalg.norm(sol.coefficients)
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
        # the scan solves each energy in the per-matrix step it shares
        # with `solve`; fail it on the matrix at E = -0.5
        original = spectral._solve_matrix

        def flaky(problem, A, *rest):
            if np.array_equal(A[:-2], problem._interior.operator(-0.5)):
                raise NumericalError("forced failure")
            return original(problem, A, *rest)

        monkeypatch.setattr(spectral, "_solve_matrix", flaky)
        scan = energy_scan(reproduction_bvp, reproduction_funcs8, -0.52, -0.48, 5)
        assert scan.statuses[2].startswith("failed:")
        assert np.isnan(scan.residual_norms[2])
        assert sum(s == "ok" for s in scan.statuses) == 4

    def test_scan_argument_validation(self, reproduction_funcs8, reproduction_bvp):
        with pytest.raises(ValueError):
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.3, -0.7, 5)
        with pytest.raises(ValueError):
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, 2)
