import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_bvp
from scipy.special import eval_genlaguerre

from klbasis import hydrogenic
from klbasis.errors import NumericalError
from klbasis.hydrogenic import (
    BoundaryValueProblem,
    OrbitalSpec,
    laguerre,
    make_family,
    numerov_oracle,
    radial_norm,
    radial_wavefunction,
    reduced_ground_state,
)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 1.0, 3.7) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 2.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_degree_two_hand_value(self):
        # L_2^1(x) = 3 - 3x + x^2/2, so L_2^1(2) = -1
        assert laguerre(2, 1.0, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(ValueError):
            laguerre(2, 0.0, float("nan"))
        with pytest.raises(ValueError):
            laguerre(2, 0.0, float("inf"))

    def test_array_input_matches_scipy(self):
        x = np.linspace(0.0, 60.0, 17)
        for k in (0, 1, 3, 6):
            for alpha in (0.0, 1.0, 5.0, 13.0):
                ours = laguerre(k, alpha, x)
                ref = eval_genlaguerre(k, alpha, x)
                scale = np.maximum(np.abs(ref), 1.0)
                assert np.max(np.abs(ours - ref) / scale) < 1e-12

    @settings(max_examples=75, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=12),
        alpha=st.floats(min_value=-0.9, max_value=13.0),
        x=st.floats(min_value=0.0, max_value=80.0),
    )
    def test_three_term_recurrence_identity(self, k, alpha, x):
        # (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}
        lhs = (k + 1) * laguerre(k + 1, alpha, x)
        rhs = (2 * k + 1 + alpha - x) * laguerre(k, alpha, x) - (k + alpha) * laguerre(
            k - 1, alpha, x
        )
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestRadialWavefunction:
    def test_ground_state_at_origin(self):
        assert radial_wavefunction(OrbitalSpec(1, 0), 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_l_positive_vanishes_at_origin(self):
        assert radial_wavefunction(OrbitalSpec(2, 1), 0.0) == 0.0

    def test_ground_state_value(self):
        assert radial_wavefunction(OrbitalSpec(1, 0), 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-12
        )

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            radial_wavefunction(OrbitalSpec(1, 0), -0.1)

    def test_invalid_orbital_rejected(self):
        with pytest.raises(ValueError):
            OrbitalSpec(1, 1)
        with pytest.raises(ValueError):
            OrbitalSpec(0, 0)
        with pytest.raises(ValueError):
            OrbitalSpec(2, 0, Z=0.0)

    def test_matches_independent_formula(self):
        # closed form assembled from scipy's Laguerre evaluator
        r = np.linspace(0.0, 30.0, 50)
        for n, l in ((2, 0), (3, 2), (5, 1), (7, 6)):
            rho = 2.0 * r / n
            norm = math.sqrt(
                (2.0 / n) ** 3 * math.factorial(n - l - 1) / (2 * n * math.factorial(n + l))
            )
            ref = norm * np.exp(-rho / 2) * rho**l * eval_genlaguerre(n - l - 1, 2 * l + 1, rho)
            ours = radial_wavefunction(OrbitalSpec(n, l), r)
            assert np.allclose(ours, ref, rtol=1e-12, atol=1e-15)

    def test_z_scaling(self):
        # R(Z; r) = Z^{3/2} R(1; Z r)
        r = np.linspace(0.0, 10.0, 21)
        for n, l, Z in ((1, 0, 2.0), (3, 1, 1.5)):
            ours = radial_wavefunction(OrbitalSpec(n, l, Z=Z), r)
            ref = Z**1.5 * radial_wavefunction(OrbitalSpec(n, l), Z * r)
            assert np.allclose(ours, ref, rtol=1e-12, atol=1e-300)

    def test_all_family_orbitals_unit_normalized(self, family28):
        for orb in family28.orbitals:
            assert abs(radial_norm(orb) - 1.0) <= 1e-8, orb.label

    def test_normalization_against_adaptive_quadrature(self):
        for n, l in ((1, 0), (4, 2), (7, 0)):
            orb = OrbitalSpec(n, l)
            val, err = quad(
                lambda r: radial_wavefunction(orb, r) ** 2 * r * r,
                0.0,
                40.0 * n,
                limit=200,
            )
            assert abs(val - 1.0) < 1e-8

    @pytest.mark.parametrize("n, l", [(171, 0), (171, 170), (200, 0), (200, 199)])
    def test_large_n_finite_and_normalized(self, n, l):
        # (n + l)! overflows a double from n = 171; the orbital reaches
        # out to about 2 n^2
        orb = OrbitalSpec(n, l)
        r = np.linspace(0.0, 4.0 * n * n, 200_001)
        vals = radial_wavefunction(orb, r)
        assert np.all(np.isfinite(vals))
        assert abs(np.trapezoid(vals * vals * r * r, r) - 1.0) <= 1e-8
        if l == 0:
            assert vals[0] == pytest.approx(2.0 / n**1.5, rel=1e-12)

    @pytest.mark.parametrize("n, l", [(11, 0), (171, 0), (200, 199)])
    def test_radial_norm_covers_large_n(self, n, l):
        # these orbitals reach past 40 n, where the quadrature used to stop
        assert abs(radial_norm(OrbitalSpec(n, l)) - 1.0) <= 1e-8

    def test_node_counts(self, family28):
        for orb in family28.orbitals:
            r = np.linspace(1e-6, 40.0 * orb.n, 60_000)
            vals = radial_wavefunction(orb, r)
            keep = np.abs(vals) > 1e-12 * np.max(np.abs(vals))
            signs = np.sign(vals[keep])
            nodes = int(np.sum(signs[1:] != signs[:-1]))
            assert nodes == orb.n - orb.l - 1, orb.label


class TestReducedGroundState:
    def test_boundary_values(self):
        assert reduced_ground_state(7.0, 1e-4, 7.0) == pytest.approx(1e-4, rel=1e-15)
        assert reduced_ground_state(7.0, 1e-4, 0.0) == 0.0

    def test_interior_value(self):
        # y(1) = 1e-4 * (1/7) * e^6
        expected = 1e-4 * math.exp(6.0) / 7.0
        assert reduced_ground_state(7.0, 1e-4, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(5.763268478467644e-3, rel=1e-12)

    def test_rejects_points_outside_domain(self):
        with pytest.raises(ValueError):
            reduced_ground_state(7.0, 1e-4, 7.5)
        with pytest.raises(ValueError):
            reduced_ground_state(7.0, 1e-4, -0.1)

    def test_satisfies_radial_equation(self):
        # y = C x e^{b-x} gives y'' = C (x-2) e^{b-x}; check
        # -y''/2 - y/x - E y = 0 with E = -1/2 at the rounding level.
        b, y_f = 7.0, 1e-4
        x = np.linspace(0.011, b, 500)
        y = reduced_ground_state(b, y_f, x)
        ypp = (y_f / b) * (x - 2.0) * np.exp(b - x)
        res = -0.5 * ypp - y / x + 0.5 * y
        assert np.max(np.abs(res) - 1e-10 * np.abs(0.5 * y)) <= 0.0


class TestNumerovOracle:
    def test_matches_closed_form(self, reproduction_bvp):
        sol = numerov_oracle(reproduction_bvp, 100_000)
        mask = sol.x >= 0.1 * reproduction_bvp.b
        ref = reduced_ground_state(reproduction_bvp.b, reproduction_bvp.y_f, sol.x[mask])
        rel = np.max(np.abs(sol.y[mask] - ref) / np.abs(ref))
        assert rel <= 1e-6
        assert abs(sol.y[-1] - reproduction_bvp.y_f) <= 1e-12 * reproduction_bvp.y_f
        assert sol.iterations == 1

    def test_zero_boundary_gives_zero_solution(self):
        bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=0.0)
        sol = numerov_oracle(bvp, 1000)
        assert np.all(sol.y == 0.0)

    def test_2p_state(self):
        # exact reduced 2p solution x^2 e^{-x/2} at E = -1/8
        y_f = 400.0 * math.exp(-10.0)
        bvp = BoundaryValueProblem(l=1, Z=1.0, E=-0.125, a=0.0, b=20.0, y_a=0.0, y_f=y_f)
        sol = numerov_oracle(bvp, 100_000)
        mask = (sol.x >= 1.0) & (sol.x <= 15.0)
        ref = sol.x[mask] ** 2 * np.exp(-sol.x[mask] / 2.0)
        rel = np.max(np.abs(sol.y[mask] - ref) / np.abs(ref))
        assert rel <= 1e-5
        assert abs(sol.y[-1] - y_f) <= 1e-12 * y_f
        assert sol.iterations == 1

    @pytest.mark.parametrize(
        "bvp",
        [
            BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=1.0, b=7.0, y_a=0.5, y_f=0.5),
            # u(b) is ~2e4 against y_f = 1e-6: u + s v cancels to ~1e-7 relative
            # at b, so the boundary is met only after the residual correction
            BoundaryValueProblem(l=2, Z=1.0, E=-0.3, a=0.5, b=15.0, y_a=0.1, y_f=1e-6),
        ],
        ids=["l0", "l2-cancelling"],
    )
    def test_general_start_matches_collocation_bvp_solver(self, bvp):
        def rhs(x, Y):
            return np.vstack([Y[1], 2.0 * (bvp.potential(x) - bvp.E) * Y[0]])

        def bc(ya, yb):
            return np.array([ya[0] - bvp.y_a, yb[0] - bvp.y_f])

        mesh = np.linspace(bvp.a, bvp.b, 400)
        guess = np.vstack([np.linspace(bvp.y_a, bvp.y_f, mesh.size), np.zeros(mesh.size)])
        ref = solve_bvp(rhs, bc, mesh, guess, tol=1e-10, max_nodes=200_000)
        assert ref.status == 0
        sol = numerov_oracle(bvp, 100_000)
        err = np.max(np.abs(sol.y - ref.sol(sol.x)[0])) / np.max(np.abs(sol.y))
        assert err <= 1e-6
        assert abs(sol.y[-1] - bvp.y_f) <= 1e-12 * abs(bvp.y_f)
        assert sol.y[0] == bvp.y_a
        assert sol.iterations == 2

    def test_rejects_coarse_grid(self, reproduction_bvp):
        with pytest.raises(ValueError):
            numerov_oracle(reproduction_bvp, 999)

    def test_unreachable_boundary_reported(self):
        # zero target with nonzero left value cannot bracket a slope
        bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=1.0, b=7.0, y_a=0.5, y_f=0.0)
        with pytest.raises(NumericalError):
            numerov_oracle(bvp, 1000)

    def test_step_instability_reported(self):
        # a huge classically forbidden region overflows the growing solution
        bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=800.0, y_a=0.0, y_f=1e-4)
        with pytest.raises(NumericalError):
            numerov_oracle(bvp, 5000)


class TestFamily:
    def test_family_size_and_order(self, family28):
        assert family28.count == 28
        assert family28.labels[:6] == ["1s", "2s", "2p", "3s", "3p", "3d"]
        assert family28.labels[-1] == "7i"

    def test_labels_beyond_i(self):
        assert make_family(10).labels[-3:] == ["10k", "10l", "10m"]

    def test_labels_unique_past_letter_table(self):
        labels = make_family(25).labels
        assert len(set(labels)) == len(labels)
        assert OrbitalSpec(21, 20).label == "21z"
        assert OrbitalSpec(22, 21).label == "22[l=21]"

    def test_bvp_validation(self):
        with pytest.raises(ValueError):
            BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=1.0, b=1.0, y_a=0.0, y_f=0.0)
        with pytest.raises(ValueError):
            BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=0.0, epsilon=0.0)


class TestCubicReadOut:
    """NumerovSolution.at: 4-point Lagrange interpolation on the grid."""

    @staticmethod
    def _solution(x, y):
        return hydrogenic.NumerovSolution(x=x, y=y, slope=0.0, iterations=1)

    @staticmethod
    def _cubic(x):
        return ((0.3 * x - 1.1) * x + 0.4) * x - 2.0

    def test_node_values_exact(self):
        sol = numerov_oracle(_ORACLE_CASES["2p"], 1000)
        assert np.array_equal(sol.at(sol.x), sol.y)
        assert sol.at(float(sol.x[-1])) == sol.y[-1]
        assert sol.at(float(sol.x[417])) == sol.y[417]

    def test_reproduces_a_cubic_between_nodes(self):
        x = np.linspace(0.5, 3.2, 12)
        h = x[1] - x[0]
        sol = self._solution(x, self._cubic(x))
        # points in the first and last cells take one-sided stencils
        edges = h * np.array([1e-9, 0.3, 0.9])
        xs = np.concatenate([x[0] + edges, np.linspace(0.5, 3.2, 101)[1:-1], x[-1] - edges])
        err = np.abs(sol.at(xs) - self._cubic(xs))
        assert np.max(err) <= 1e-13 * np.max(np.abs(sol.y))

    @pytest.mark.parametrize("x", [0.5 - 1e-12, 3.2 + 1e-12, -1.0, float("nan")])
    def test_rejects_points_outside_grid(self, x):
        grid = np.linspace(0.5, 3.2, 12)
        sol = self._solution(grid, self._cubic(grid))
        with pytest.raises(ValueError, match="no extrapolation"):
            sol.at(x)
        with pytest.raises(ValueError, match="no extrapolation"):
            sol.at(np.array([1.0, x]))


def _reference_sweep(start: list, coef: list, incr: list) -> list:
    """The per-point Numerov sweep the blocked scan replaced, kept as it
    was (overflow limit inlined) as the reference it must reproduce."""
    n = len(coef)
    y = [0.0] * n
    y[: len(start)] = start
    i0 = len(start)
    w_prev = coef[i0 - 2] * y[i0 - 2]
    w = coef[i0 - 1] * y[i0 - 1]
    y_cur = y[i0 - 1]
    d = w - w_prev
    comp_d = 0.0
    comp_w = 0.0
    for i in range(i0, n):
        t = incr[i - 1] * y_cur - comp_d
        d_new = d + t
        comp_d = (d_new - d) - t
        d = d_new
        t = d - comp_w
        w_new = w + t
        comp_w = (w_new - w) - t
        w = w_new
        y_cur = w / coef[i]
        if y_cur > 1e250 or y_cur < -1e250:
            raise NumericalError(f"Numerov step instability at grid index {i}")
        y[i] = y_cur
    return y


_ORACLE_CASES = {
    "1s": BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=1e-4),
    "2p": BoundaryValueProblem(
        l=1, Z=1.0, E=-0.125, a=0.0, b=20.0, y_a=0.0, y_f=400.0 * math.exp(-10.0)
    ),
    "general-l0": BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=1.0, b=7.0, y_a=0.5, y_f=0.5),
    "general-l2": BoundaryValueProblem(l=2, Z=1.0, E=-0.3, a=0.5, b=15.0, y_a=0.1, y_f=1e-6),
}


def _record_sweeps(monkeypatch) -> list:
    """Make the oracle's sweeps record their inputs (start, coef, incr)."""
    calls = []
    blocked = hydrogenic._numerov_sweep

    def recorded(start, coef, incr):
        calls.append((start, coef, incr))
        return blocked(start, coef, incr)

    monkeypatch.setattr(hydrogenic, "_numerov_sweep", recorded)
    return calls


def _blocked_and_reference(start, coef, incr):
    y = hydrogenic._numerov_sweep(start, coef, incr)
    ref = np.asarray(_reference_sweep(start, coef.tolist(), incr.tolist()))
    assert y.shape == ref.shape
    return y, ref


class TestBlockedSweep:
    """The blocked numpy sweep against the per-point reference. Agreement is
    measured against the largest |y| of the sweep: in a decaying tail both
    sweeps carry rounding that the growing solution amplifies, and on
    coarse grids the blocks' transfer products round that mode more.
    At the CLI reference's 2e4 points and at 1e5 it also holds pointwise."""

    @pytest.mark.parametrize("n_points", [1000, 1001, 20_000, 100_000])
    @pytest.mark.parametrize("case", list(_ORACLE_CASES))
    def test_oracle_sweeps_match_reference(self, monkeypatch, case, n_points):
        calls = _record_sweeps(monkeypatch)
        sol = numerov_oracle(_ORACLE_CASES[case], n_points)
        monkeypatch.undo()
        assert len(calls) == sol.iterations == (1 if case in ("1s", "2p") else 2)
        for start, coef, incr in calls:
            y, ref = _blocked_and_reference(start, coef, incr)
            gap = np.abs(y - ref)
            assert np.max(gap) <= 1e-12 * np.max(np.abs(ref))
            if n_points >= 20_000:
                assert np.all(gap <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize(
        "n_points",
        [50, hydrogenic._BLOCK + 2, 2 * hydrogenic._BLOCK + 2, 3 * hydrogenic._BLOCK + 7],
        ids=["shorter-than-block", "one-block", "two-blocks", "ragged-last-block"],
    )
    @pytest.mark.parametrize("g", [0.8, -0.8], ids=["growing", "oscillating"])
    def test_sweep_lengths(self, n_points, g):
        # a two-point start leaves n_points - 2 steps
        h = 4.0 / (n_points - 1)
        gx = g + np.linspace(0.0, 0.3, n_points)
        start = [0.2, 0.2 + 0.7 * h]
        y, ref = _blocked_and_reference(start, 1.0 - (h * h / 12.0) * gx, (h * h) * gx)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_overflow_raises_at_reference_index_without_warnings(self, monkeypatch):
        bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=800.0, y_a=0.0, y_f=1e-4)
        calls = _record_sweeps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as raised:
                numerov_oracle(bvp, 5000)
        start, coef, incr = calls[0]
        with pytest.raises(NumericalError) as expected:
            _reference_sweep(start, coef.tolist(), incr.tolist())
        assert "grid index" in str(expected.value)
        assert str(raised.value) == str(expected.value)
