import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import count_kernel_calls, scaled_rel_l2
from hypothesis import event, given, settings
from hypothesis import strategies as st

from klbasis import basisfn, cli, klcore, spectral
from klbasis.errors import NumericalError
from klbasis.hydrogenic import (
    BoundaryValueProblem,
    OrbitalSpec,
    numerov_oracle,
    reduced_eigenstate,
)
from klbasis.sampling import make_grid
from klbasis.spectral import (
    CollocationProblem,
    assemble,
    energy_scan,
    relative_residual_norm,
    residual,
    solve,
)


def eigenmode_basis(extra=()):
    """Exact reduced ground state interpolated on a fine grid, plus any
    extra sample vectors on the same nodes."""
    nodes = make_grid("chebyshev-lobatto", 30, 0.0, 7.0)
    columns = [nodes * np.exp(-nodes)] + [samples(nodes) for samples in extra]
    return nodes, basisfn.BasisFunction(nodes, np.column_stack(columns))


GROUND_BVP = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=1e-4)


def pipeline_case(overrides: dict):
    config = cli.validate_config(overrides)
    return cli.problem_from_config(config), cli.run_pipeline(config).interpolant


EXCITED_2P = {"problem": {"n": 2, "l": 1, "E": -0.125, "E_range": [-0.2, -0.05], "b": 20.0}}
# 12 modes on a domain that misses the origin: rank-2 boundary rows leave a
# square 10 x 10 interior system A N with condition 3.9e11-6.7e11, so every
# energy solves directly, to coefficients of 5e6-3e7 times y_f. At y_f 1e300
# they overflow at 14 of the 41 default scan energies (boundary values not
# met) and the residual norm at 15 more: the scan has failed rows of both kinds
FAILING_ROWS = {
    "sampling": {"N_s": 16, "b": 80.0},
    "truncation": {"value": 12},
    "problem": {"a": 0.5, "b": 20.0, "y_a": 1e-4, "y_f": 1e300},
}

# 20 modes and rank-2 boundary rows leave a square 18 x 18 interior system
# A N with no singular value cut: the direct solve, good to 3.1e-7 on the
# mid window
DIRECT_PATH = {
    "family": {"n_max": 6},
    "sampling": {"N_s": 22, "b": 10.0},
    "truncation": {"value": 20},
    "problem": {"E": -0.499, "a": 1.0, "b": 7.0},
}

# 30 modes on 60 Chebyshev nodes, 58 of them strictly inside (0, 7)
CHEBYSHEV_60 = {"sampling": {"kind": "chebyshev-lobatto", "N_s": 60}, "truncation": {"value": 30}}


SCAN_CASES = pytest.mark.parametrize(
    "overrides, e_lo, e_hi, n_failed",
    [({}, -0.7, -0.3, 0), (EXCITED_2P, -0.2, -0.05, 0), (FAILING_ROWS, -0.7, -0.3, 29)],
    ids=["1s", "2p", "failing-rows"],
)


class TestAssemble:
    def test_exact_eigenfunction_annihilates_interior_rows(self):
        _, funcs = eigenmode_basis()
        bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=1e-4)
        # one mode: its 28 interior nodes are the points
        matrix, _ = assemble(CollocationProblem(bvp, funcs))
        assert matrix.shape == (30, 1)
        assert np.max(np.abs(matrix[:-2, 0])) <= 1e-10

    def test_boundary_rhs(self):
        _, funcs = eigenmode_basis()
        _, rhs = assemble(CollocationProblem(GROUND_BVP, funcs))
        assert rhs.shape == (30,)
        assert rhs[-2] == 0.0
        assert rhs[-1] == 1e-4
        assert np.all(rhs[:-2] == 0.0)

    def test_energy_shift_is_linear(self):
        _, funcs = eigenmode_basis()
        delta = 0.1
        shifted = BoundaryValueProblem(
            l=0, Z=1.0, E=GROUND_BVP.E + delta, a=0.0, b=7.0, y_a=0.0, y_f=1e-4
        )
        prob = CollocationProblem(GROUND_BVP, funcs)
        A1, _ = assemble(prob)
        A2, _ = assemble(CollocationProblem(shifted, funcs))
        expected = -delta * funcs.eval(prob.interior_points)
        assert np.allclose(A2[:-2] - A1[:-2], expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("energy", [1.7e308, -1.7e308], ids=["E+", "E-"])
    def test_overflowing_rows_are_returned_without_a_warning(
        self, reproduction_funcs8, reproduction_bvp, energy
    ):
        # (V - E) phi overflows; RuntimeWarnings are errors in this suite
        bvp = replace(reproduction_bvp, E=energy)
        matrix, rhs = assemble(spectral.CollocationProblem(bvp, reproduction_funcs8))
        assert not np.isfinite(matrix[:-2]).all()
        assert np.isfinite(matrix[-2:]).all()
        assert rhs[-2:].tolist() == [bvp.y_a, bvp.y_f]

    def test_stacked_operator_rows_match_assemble(self, reproduction_funcs8, reproduction_bvp):
        problem = CollocationProblem(reproduction_bvp, reproduction_funcs8)
        energies = np.linspace(-0.7, -0.3, 41)
        stack = problem._interior.operator(energies)
        assert stack.shape == (41, problem.interior_points.size, problem.n_modes)
        for e, rows in zip(energies, stack):
            at_e = CollocationProblem(replace(reproduction_bvp, E=e), reproduction_funcs8)
            assert np.array_equal(rows, assemble(at_e)[0][:-2])

    @pytest.mark.parametrize(
        "overrides",
        [{}, EXCITED_2P, FAILING_ROWS, DIRECT_PATH, CHEBYSHEV_60],
        ids=["1s", "2p", "failing-rows", "direct-path", "chebyshev-60"],
    )
    def test_one_read_equals_separate_reads(self, overrides):
        # the interior and boundary rows come from one kernel on the interior
        # points followed by a and b, with the bits of three separate reads
        bvp, funcs = pipeline_case(overrides)
        problem = CollocationProblem(bvp, funcs)
        pts = problem.interior_points
        assert np.array_equal(problem._boundary, funcs.eval([bvp.a, bvp.b]))
        assert np.array_equal(problem._interior.values, funcs.eval(pts))
        assert np.array_equal(problem._interior.second, funcs.deriv(pts, order=2))
        assert np.array_equal(problem._interior.potential, bvp.potential(pts))

    def test_single_function_basis_rejected(self):
        # a 1-d BasisFunction is one function, not an (N_s x M) basis
        nodes = make_grid("chebyshev-lobatto", 12, 0.0, 7.0)
        funcs = basisfn.BasisFunction(nodes, nodes * np.exp(-nodes))
        with pytest.raises(ValueError, match="^need an \\(N_s x M\\) basis with at least one mode$"):
            CollocationProblem(GROUND_BVP, funcs)

    def test_domain_not_covered_rejected(self):
        nodes = make_grid("chebyshev-lobatto", 10, 0.0, 5.0)
        funcs = basisfn.BasisFunction(nodes, np.sin(nodes)[:, None])
        with pytest.raises(ValueError):
            CollocationProblem(GROUND_BVP, funcs)


class TestSolve:
    def test_exact_mode_containment(self):
        _, funcs = eigenmode_basis(
            extra=[lambda x: np.cos(np.pi * x / 14.0), lambda x: np.exp(-x / 3.0)]
        )
        prob = CollocationProblem(GROUND_BVP, funcs)
        sol = solve(prob)
        expected_scale = 1e-4 / (7.0 * np.exp(-7.0))
        assert sol.coefficients[0] == pytest.approx(expected_scale, rel=1e-6)
        assert np.all(np.abs(sol.coefficients[1:]) <= 1e-8 * abs(sol.coefficients[0]))

    def test_homogeneous_problem_zero_solution(self):
        _, funcs = eigenmode_basis(
            extra=[lambda x: np.cos(np.pi * x / 14.0), lambda x: np.exp(-x / 3.0)]
        )
        bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=0.0)
        sol = solve(CollocationProblem(bvp, funcs))
        assert np.max(np.abs(sol.coefficients)) <= 1e-12

    def test_reproduction_solve(self, reproduction_funcs8, reproduction_bvp):
        # frozen regression: measured 0.0419 against the 5e-2 gate, with
        # the free global coefficient fitted (the boundary value only
        # fixes the scale; the comparison is between normalized shapes)
        prob = CollocationProblem(reproduction_bvp, reproduction_funcs8)
        assert prob.interior_points.size == 6
        sol = solve(prob)
        xs = np.linspace(0.5, 5.0, 201)
        ref = reduced_eigenstate(OrbitalSpec(1, 0), reproduction_bvp.b, reproduction_bvp.y_f, xs)
        rel = scaled_rel_l2(np.atleast_1d(sol.eval(xs)), ref)
        assert rel <= 5e-2
        assert rel == pytest.approx(0.0419, abs=0.01)

    def test_square_system_keeps_the_direct_solve(self):
        # a square A N with no singular value cut reports the direct method
        report = cli.cmd_solve(cli.validate_config(DIRECT_PATH))["report.json"]
        assert report["method"] == "direct"
        assert report["rel_l2_error_mid"] <= 1e-6

    def test_boundary_enforcement(self, reproduction_funcs8, reproduction_bvp):
        sol = solve(CollocationProblem(reproduction_bvp, reproduction_funcs8))
        tol = 1e-8 * max(1.0, abs(reproduction_bvp.y_f))
        assert abs(sol.eval(reproduction_bvp.a) - reproduction_bvp.y_a) <= tol
        assert abs(sol.eval(reproduction_bvp.b) - reproduction_bvp.y_f) <= tol
        assert sol.condition_estimate >= 1.0

    def test_subnormal_boundary_value(self, reproduction_funcs8, reproduction_bvp):
        # subnormal values carry no relative precision: the check holds the
        # boundary values to the smallest normal double instead
        bvp = replace(reproduction_bvp, y_f=math.ldexp(1e-4, -1060))
        sol = solve(CollocationProblem(bvp, reproduction_funcs8))
        assert abs(sol.eval(bvp.b) - bvp.y_f) <= np.finfo(float).tiny

    def test_linear_in_boundary_data(self, reproduction_funcs8, reproduction_bvp):
        sol1 = solve(CollocationProblem(reproduction_bvp, reproduction_funcs8))
        doubled = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=2e-4)
        sol2 = solve(CollocationProblem(doubled, reproduction_funcs8))
        scale = np.max(np.abs(sol2.coefficients))
        assert np.max(np.abs(sol2.coefficients - 2.0 * sol1.coefficients)) <= 1e-10 * scale

    def test_degenerate_basis_that_cannot_meet_boundary(self):
        # every mode vanishes at both endpoints: y(b) = 1e-4 is unreachable
        nodes = make_grid("chebyshev-lobatto", 12, 0.0, 7.0)
        funcs = basisfn.BasisFunction(
            nodes, np.column_stack([np.sin(k * np.pi * nodes / 7.0) for k in (1, 2, 3)])
        )
        with pytest.raises(NumericalError):
            solve(CollocationProblem(GROUND_BVP, funcs))

    def test_non_finite_matrix_is_a_numerical_error(self, reproduction_funcs8, reproduction_bvp):
        # LAPACK would fail on it with a LinAlgError, which is no NumericalError
        problem = CollocationProblem(replace(reproduction_bvp, E=np.inf), reproduction_funcs8)
        with pytest.raises(NumericalError, match="not finite"):
            solve(problem)

    def test_overflowing_particular_solution_is_a_numerical_error(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # at E = -1e300 the interior rows times c_p overflow; the SVD would
        # raise LinAlgError on them
        bvp = replace(reproduction_bvp, E=-1e300, y_f=1e10)
        problem = CollocationProblem(bvp, reproduction_funcs8)
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1))
        with pytest.raises(NumericalError, match=f"^{spectral._NOT_FINITE}$"):
            solve(problem)
        assert calls == []

    def test_coefficients_that_overflow_miss_the_boundary_values(self):
        # at y_f 1e308, c_p and A c_p are finite and the coefficients are
        # not; the library solves at the data's scale (the CLI at unit scale)
        bvp, basis = pipeline_case({"problem": {"y_f": 1e308}})
        message = r"^boundary conditions not met \(boundary rank 1 of 2, "
        with pytest.raises(NumericalError, match=message):
            solve(CollocationProblem(bvp, basis))

    def test_nan_coefficients_miss_the_boundary_values(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # a NaN boundary value compares False with the tolerance either way;
        # only a value within it counts as met
        problem = CollocationProblem(reproduction_bvp, reproduction_funcs8)
        svd = np.linalg.svd

        def nan_factors(*args, **kwargs):
            u, s, vt = svd(*args, **kwargs)
            return np.full_like(u, np.nan), s, vt

        monkeypatch.setattr(np.linalg, "svd", nan_factors)
        with pytest.raises(NumericalError, match="^boundary conditions not met"):
            solve(problem)

    def test_singular_value_cut_makes_a_square_system_least_squares(self):
        # 30 modes on 30 Chebyshev nodes: A N is square (28 x 28), but 11 of
        # its singular values fall below 1e-14 of the largest and are cut
        config = cli.validate_config(
            {"sampling": {"kind": "chebyshev-lobatto", "N_s": 30}, "truncation": {"value": 30}}
        )
        problem = CollocationProblem(*pipeline_case(config))
        assert problem.interior_points.size == problem._null.shape[1] == 28
        sol = solve(problem)
        assert sol.method == "least-squares"
        assert 1e12 <= sol.condition_estimate <= 1e14
        report = cli.cmd_solve(config)["report.json"]
        assert report["method"] == "least-squares"
        assert report["rel_l2_error_mid"] <= 3e-8

    @pytest.mark.parametrize(
        "overrides, bound",
        [
            # measured 3.9e-10
            ({"sampling": {"N_s": 30}, "truncation": {"value": 20}}, 3.9e-9),
            # measured 1.07e-9; 4.4e-9 with eps added to V at every point
            (
                {"sampling": {"kind": "chebyshev-lobatto", "N_s": 60}, "truncation": {"value": 30}},
                2e-9,
            ),
            # measured 2.0e-7
            ({"sampling": {"N_s": 40}, "truncation": {"value": 12}}, 2.0e-6),
            # measured 3.1e-13; 2.9e-9 with eps added to V at every point
            (
                {"sampling": {"kind": "chebyshev-lobatto", "N_s": 40}, "truncation": {"value": 28}},
                1e-12,
            ),
            # measured 5.6e-13; 3.2e-9 with eps added to V at every point
            (
                {
                    "family": {"n_max": 10},
                    "sampling": {"kind": "chebyshev-lobatto", "N_s": 80, "b": 80.0},
                    "truncation": {"criterion": "energy_fraction", "value": 0.99999},
                },
                1e-12,
            ),
        ],
        ids=["uniform-30-M20", "chebyshev-60-M30", "uniform-40-M12", "chebyshev-40-M28", "wide"],
    )
    def test_large_bases_meet_the_equation(self, overrides, bound):
        # the 1e-14 singular value cut acts on the interior system's own
        # scale. A well-resolved basis reaches 1e-12 only because V is exact
        # away from the origin, as in the closed-form reference
        report = cli.cmd_solve(cli.validate_config(overrides))["report.json"]
        assert report["rel_l2_error_mid"] <= bound

    def test_coefficients_linear_in_y_f_to_the_bit(self, reproduction_funcs8, reproduction_bvp):
        # every step is linear in (y_a, y_f), so a power-of-two scale is exact
        sol = solve(CollocationProblem(reproduction_bvp, reproduction_funcs8))
        huge = replace(reproduction_bvp, y_f=math.ldexp(reproduction_bvp.y_f, 700))
        scaled = solve(CollocationProblem(huge, reproduction_funcs8))
        assert np.array_equal(scaled.coefficients, np.ldexp(sol.coefficients, 700))
        assert scaled.condition_estimate == sol.condition_estimate


class TestResidual:
    def test_exact_mode_residual_small(self):
        _, funcs = eigenmode_basis(
            extra=[lambda x: np.cos(np.pi * x / 14.0), lambda x: np.exp(-x / 3.0)]
        )
        sol = solve(CollocationProblem(GROUND_BVP, funcs))
        xs = np.linspace(0.2, 6.8, 101)
        res = residual(sol, xs)
        y = np.atleast_1d(sol.eval(xs))
        assert np.max(np.abs(res)) <= 1e-6 * np.max(np.abs(GROUND_BVP.E * y))

    def test_collocation_row_backward_error(self):
        prob = CollocationProblem(*pipeline_case(DIRECT_PATH))
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
        sol = solve(CollocationProblem(reproduction_bvp, reproduction_funcs8))
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
        # the norm reads the solution's values and second derivative from
        # one kernel, and gives the bits of the plain formula
        sol = solve(CollocationProblem(reproduction_bvp, reproduction_funcs8))
        dense = spectral._scan_grid(reproduction_bvp)
        y = sol.eval(dense)
        res = -0.5 * sol.deriv(dense, order=2) + (
            reproduction_bvp.potential(dense) - reproduction_bvp.E
        ) * y
        expected = float(np.sqrt(np.mean(res * res))) / float(np.sqrt(np.mean(y * y)))
        calls = count_kernel_calls(monkeypatch)
        assert relative_residual_norm(sol, dense) == expected
        assert len(calls) == 1

    def test_completeness_monotonicity(self, reproduction_pipeline, reproduction_bvp):
        dense = spectral._scan_grid(reproduction_bvp)
        norms = {}
        for m in (4, 6, 8, 10):
            tb = klcore.truncate_basis(reproduction_pipeline["basis"], m)
            funcs = basisfn.interpolate(tb)
            sol = solve(CollocationProblem(reproduction_bvp, funcs))
            norms[m] = relative_residual_norm(sol, dense)
        for m in (4, 6, 8):
            assert norms[m + 2] <= norms[m] + 1e-12

    def test_oracle_equivalence(self, reproduction_funcs8, reproduction_bvp):
        sol = solve(CollocationProblem(reproduction_bvp, reproduction_funcs8))
        xs = np.linspace(0.5, 5.0, 201)
        y = np.atleast_1d(sol.eval(xs))
        ref_closed = reduced_eigenstate(
            OrbitalSpec(1, 0), reproduction_bvp.b, reproduction_bvp.y_f, xs
        )
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
                sol = solve(CollocationProblem(replace(bvp, E=e), basis))
            except NumericalError as err:
                assert status == f"failed: {err}"
                assert np.isnan(norm)
                continue
            expected = relative_residual_norm(sol, dense)
            if not np.isfinite(expected):
                assert status == f"failed: {spectral._NORM_NOT_FINITE}"
                assert np.isnan(norm)
                continue
            assert status == "ok"
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
                sol = solve(CollocationProblem(replace(bvp, E=e), basis))
            except NumericalError as err:
                expected_norms.append(np.nan)
                expected_statuses.append(f"failed: {err}")
                continue
            norm = relative_residual_norm(sol, dense)
            finite = bool(np.isfinite(norm))
            expected_norms.append(norm if finite else np.nan)
            expected_statuses.append("ok" if finite else f"failed: {spectral._NORM_NOT_FINITE}")
        assert scan.statuses == tuple(expected_statuses)
        assert np.array_equal(scan.residual_norms, expected_norms, equal_nan=True)

    def test_one_svd_per_scan(self, monkeypatch, reproduction_funcs8, reproduction_bvp):
        # one SVD stacked over every energy, besides the one of the boundary
        # rows when the problem is built; no other LAPACK solver runs
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.ndim(a))
            return svd(a, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("a per-matrix LAPACK solver ran")

        monkeypatch.setattr(np.linalg, "svd", counted)
        for name in ("solve", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name, refused)
        for n_steps in (5, 41):
            calls.clear()
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, n_steps)
            assert calls == [2, 3]

    def test_one_batched_least_squares_call_per_scan(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # every energy of the scan goes through one stacked least-squares
        # solve; the per-matrix lstsq never runs
        batched, single = [], []
        stacked, lstsq = spectral._solve_stack, np.linalg.lstsq
        monkeypatch.setattr(
            spectral,
            "_solve_stack",
            lambda problem, energies: batched.append(len(energies))
            or stacked(problem, energies),
        )
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: single.append(1) or lstsq(*a, **k)
        )
        for n_steps in (5, 41):
            batched.clear()
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, n_steps)
            assert batched == [n_steps]
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
        # the collocation problem's points and the residual-norm grid
        assert counts == [2, 2]

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

    def test_refines_norms_whose_double_overflows(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # 2 r_0 overflows here, but the rises r_-1 - r_0 and r_1 - r_0 do not
        norms = [1.5e308, 1.2e308, 1.0e308, 1.1e308, 1.4e308]
        monkeypatch.setattr(
            spectral._Tabulation, "relative_norm", lambda self, c, e: np.array(norms)
        )
        scan = energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, 5)
        assert scan.argmin_status == "interior"
        assert scan.argmin_energy == -0.48333333333333334  # -0.5 + 0.1 / 6

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        norms=st.lists(st.floats(0.0, np.finfo(float).max), min_size=3, max_size=9),
        e_lo=st.floats(-1.0, -0.2),
        width=st.floats(1e-6, 0.8),
    )
    def test_refinement_within_half_a_step(
        self, reproduction_funcs8, reproduction_bvp, norms, e_lo, width
    ):
        # ties included: the first minimum has d- > 0 and d+ >= 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                spectral._Tabulation, "relative_norm", lambda self, c, e: np.array(norms)
            )
            scan = energy_scan(
                reproduction_bvp, reproduction_funcs8, e_lo, e_lo + width, len(norms)
            )
        event(scan.argmin_status)
        if scan.argmin_status != "interior":
            return
        e = scan.energies
        e_min, half = e[np.argmin(norms)], 0.5 * (e[1] - e[0])
        assert e_min - half <= scan.argmin_energy <= e_min + half

    def test_failures_marked_not_fatal(
        self, monkeypatch, reproduction_funcs8, reproduction_bvp
    ):
        # the scan solves its energies as one stack; poison the interior
        # rows at E = -0.5 in it
        original = spectral._Tabulation.operator

        def poisoned(self, energies):
            rows = original(self, energies)
            rows[np.asarray(energies) == -0.5, 0, 0] = np.nan
            return rows

        monkeypatch.setattr(spectral._Tabulation, "operator", poisoned)
        scan = energy_scan(reproduction_bvp, reproduction_funcs8, -0.52, -0.48, 5)
        assert scan.statuses[2].startswith("failed:")
        assert np.isnan(scan.residual_norms[2])
        assert sum(s == "ok" for s in scan.statuses) == 4

    def test_scan_argument_validation(self, reproduction_funcs8, reproduction_bvp):
        with pytest.raises(ValueError):
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.3, -0.7, 5)
        with pytest.raises(ValueError):
            energy_scan(reproduction_bvp, reproduction_funcs8, -0.7, -0.3, 2)


def per_matrix_solve(problem, A):
    """The solve of one matrix of interior rows on public numpy calls, one
    matrix at a time: what `_solve_stack` must reproduce bit for bit, as
    (coefficients, condition estimate, method) or a failure message."""
    bvp, N, B = problem.bvp, problem._null, problem._boundary
    c_p = problem._particular
    with np.errstate(over="ignore", invalid="ignore"):
        R = A @ N
        r = -(A @ c_p)
    if not (np.isfinite(R).all() and np.isfinite(r).all()):
        return spectral._NOT_FINITE
    z, cond = np.zeros(R.shape[1]), 1.0
    method = "direct" if R.shape[0] == R.shape[1] else "least-squares"
    if R.size:
        u, s, vt = np.linalg.svd(R, full_matrices=False)
        kept = s > 1e-14 * s[0]
        with np.errstate(over="ignore", invalid="ignore"):
            z = vt.T @ (np.where(kept, 1.0 / s, 0.0) * (u.T @ r))
        cond = float(s[0] / s[kept].min()) if kept.any() else 0.0
        if not kept.all():
            method = "least-squares"
    t = np.array([bvp.y_a, bvp.y_f])
    with np.errstate(over="ignore", invalid="ignore"):
        c = c_p + N @ z
        c = c + problem._pinv @ (t - B @ c)
        y = B @ c
        tol = 1e-8 * np.max(np.abs(t)) + B.shape[1] * np.finfo(float).eps * (np.abs(B) @ np.abs(c))
    tol = np.clip(tol, np.finfo(float).tiny, np.finfo(float).max)
    if not (abs(y[0] - t[0]) <= tol[0] and abs(y[1] - t[1]) <= tol[1]):
        rank = N.shape[0] - N.shape[1]
        return (
            f"boundary conditions not met (boundary rank {rank} of 2, "
            f"interior condition estimate {cond:.2e})"
        )
    return c, cond, method


class TestBatchedSolve:
    """The stacked path of `_solve_stack` against one public call per matrix."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            EXCITED_2P,
            FAILING_ROWS,
            DIRECT_PATH,
            {"family": {"n_max": 200}},
            {"sampling": {"N_s": 120}, "truncation": {"value": 30}},
            # singular values of A N cut at every energy
            {"sampling": {"N_s": 200}, "truncation": {"value": 20}},
            # non-square, and every scan energy misses its boundary values
            {"problem": {**EXCITED_2P["problem"], "y_a": 0.3}},
            {"problem": {"y_f": 1e305}},
            # no interior row (no node inside (0.5, 1), and M - 2 = 0), and a
            # boundary system of rank 2 that leaves no null space
            {"truncation": {"value": 2}, "problem": {"a": 0.5, "b": 1.0, "y_a": 1e-4}},
            # overflows at every energy
            {"problem": {"E": -1e300, "E_range": [-1e300, -1e299], "y_f": 1e10}},
        ],
        ids=[
            "default", "2p", "failing-rows", "direct", "n_max-200", "uniform-120-M30",
            "uniform-200-M20", "2p-y_a", "y_f-1e305", "no-interior-rows", "overflow",
        ],
    )
    def test_bit_identical_to_per_matrix_lapack(self, overrides):
        config = cli.validate_config(overrides)
        bvp, basis = pipeline_case(overrides)
        problem = CollocationProblem(bvp, basis)
        for energies in (np.linspace(*config["problem"]["E_range"], 41), [bvp.E]):
            stack = spectral._solve_stack(problem, energies)
            assert stack.coefficients.shape == (len(energies), problem.n_modes)
            assert len(stack.errors) == len(energies)
            for k, e in enumerate(energies):
                matrix, _ = assemble(CollocationProblem(replace(bvp, E=e), basis))
                want = per_matrix_solve(problem, matrix[:-2])
                if isinstance(want, str):
                    assert stack.errors[k] == want
                    assert np.isnan(stack.coefficients[k]).all()
                    continue
                assert stack.errors[k] is None, stack.errors[k]
                assert np.array_equal(stack.coefficients[k], want[0])
                method = "direct" if stack.direct[k] else "least-squares"
                assert (stack.conditions[k], method) == want[1:]

    def test_lapack_failure_raises(self, monkeypatch, reproduction_funcs8, reproduction_bvp):
        # a failed SVD fails the whole stack, as a NumericalError
        problem = CollocationProblem(reproduction_bvp, reproduction_funcs8)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(NumericalError, match="^collocation SVD failed: SVD did not converge$"):
            spectral._solve_stack(problem, [-0.6, -0.5])
