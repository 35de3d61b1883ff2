import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
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
    reduced_eigenstate,
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
        for orb in family28:
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
        for orb in family28:
            r = np.linspace(1e-6, 40.0 * orb.n, 60_000)
            vals = radial_wavefunction(orb, r)
            keep = np.abs(vals) > 1e-12 * np.max(np.abs(vals))
            signs = np.sign(vals[keep])
            nodes = int(np.sum(signs[1:] != signs[:-1]))
            assert nodes == orb.n - orb.l - 1, orb.label


class TestReducedGroundState:
    def test_boundary_values(self):
        y_b = reduced_eigenstate(OrbitalSpec(1, 0), 7.0, 1e-4, 7.0)
        assert y_b == pytest.approx(1e-4, rel=1e-15)
        assert reduced_eigenstate(OrbitalSpec(1, 0), 7.0, 1e-4, 0.0) == 0.0

    def test_interior_value(self):
        # y(1) = 1e-4 * (1/7) * e^6
        expected = 1e-4 * math.exp(6.0) / 7.0
        y_1 = reduced_eigenstate(OrbitalSpec(1, 0), 7.0, 1e-4, 1.0)
        assert y_1 == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(5.763268478467644e-3, rel=1e-12)

    def test_rejects_points_outside_domain(self):
        with pytest.raises(ValueError):
            reduced_eigenstate(OrbitalSpec(1, 0), 7.0, 1e-4, 7.5)
        with pytest.raises(ValueError):
            reduced_eigenstate(OrbitalSpec(1, 0), 7.0, 1e-4, -0.1)

    def test_satisfies_radial_equation(self):
        # y = C x e^{b-x} gives y'' = C (x-2) e^{b-x}; check
        # -y''/2 - y/x - E y = 0 with E = -1/2 at the rounding level.
        b, y_f = 7.0, 1e-4
        x = np.linspace(0.011, b, 500)
        y = reduced_eigenstate(OrbitalSpec(1, 0), b, y_f, x)
        ypp = (y_f / b) * (x - 2.0) * np.exp(b - x)
        res = -0.5 * ypp - y / x + 0.5 * y
        assert np.max(np.abs(res) - 1e-10 * np.abs(0.5 * y)) <= 0.0


class TestReducedEigenstate:
    @pytest.mark.parametrize(
        "n, l, Z, b",
        [(1, 0, 1.0, 7.0), (2, 0, 1.0, 10.0), (2, 1, 1.0, 20.0), (3, 2, 1.0, 30.0),
         (3, 1, 1.5, 12.0)],
        ids=["1s", "2s", "2p", "3d", "3p-Z1.5"],
    )
    def test_is_the_scaled_reduced_orbital(self, n, l, Z, b):
        orb = OrbitalSpec(n, l, Z)
        x = np.linspace(0.0, b, 401)
        exact = x * radial_wavefunction(orb, x)
        y_f = float(exact[-1])
        y = reduced_eigenstate(orb, b, y_f, x)
        assert np.max(np.abs(y - exact)) <= 1e-13 * np.max(np.abs(exact))
        assert reduced_eigenstate(orb, b, y_f, b) == pytest.approx(y_f, rel=1e-15)

    def test_ground_state_case_keeps_the_ground_state_bits(self):
        # the (1, 0, 1) case multiplies y_f (x/b) exp(b - x) by an exact 1.0
        b, y_f = 7.0, 1e-4
        x = np.linspace(0.0, b, 201)
        y = reduced_eigenstate(OrbitalSpec(1, 0, 1.0), b, y_f, x)
        assert np.array_equal(y, y_f * (x / b) * np.exp(b - x))

    def test_boundary_on_a_node_raises(self):
        # L_1^1(rho) = 2 - rho vanishes at rho = 2 kappa b = 2: 2s at b = 2
        with pytest.raises(NumericalError, match="node of the 2s state"):
            reduced_eigenstate(OrbitalSpec(2, 0), 2.0, 1e-4, np.linspace(0.0, 2.0, 5))

    def test_domain_without_width_rejected(self):
        with pytest.raises(ValueError, match="^b must be positive, got 0.0$"):
            reduced_eigenstate(OrbitalSpec(1, 0), 0.0, 1e-4, 0.0)

    def test_overflow_raises(self):
        # y_f (x/b) exp(b - x) passes 1e308 near the origin on [0, 1000]
        with pytest.raises(NumericalError, match="1s reference overflows"):
            reduced_eigenstate(OrbitalSpec(1, 0), 1000.0, 1e-4, np.linspace(0.0, 1000.0, 201))


_ORACLE_1S = {"l": 0, "Z": 1.0, "E": -0.5, "a": 0.0, "b": 7.0, "y_a": 0.0, "y_f": 1e-4}

_SUPERPOSED_OVERFLOW = "the superposed solution y = u + s v overflows a double"

_SLOPE_UNDERFLOW = "y(b) misses y_f: the slope underflows"

_SLOPE_OVERFLOW = "the slope (y_f - u(b)) / v(b) overflows a double"

_BOUNDARY_VALUES = st.one_of(
    st.just(0.0),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _shooting_problems(draw):
    """Problems from the origin or from a general left end, with boundary
    values of every scale, subnormal and near the largest double included."""
    a = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return {
        "l": draw(st.integers(0, 3)),
        "Z": 1.0,
        "E": draw(st.floats(-1.0, 0.5)),
        "a": a,
        "b": a + draw(st.floats(1.0, 100.0)),
        "y_a": draw(_BOUNDARY_VALUES),
        "y_f": draw(_BOUNDARY_VALUES),
    }


class TestNumerovOracle:
    def test_matches_closed_form(self, reproduction_bvp):
        sol = numerov_oracle(reproduction_bvp, 100_000)
        mask = sol.x >= 0.1 * reproduction_bvp.b
        ref = reduced_eigenstate(
            OrbitalSpec(1, 0), reproduction_bvp.b, reproduction_bvp.y_f, sol.x[mask]
        )
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

    def test_zero_target_is_the_superposition_of_two_shots(self):
        # y(b) = 0 from y(a) = 1 is well posed: by linearity it is the
        # y_a = y_f = 1 solution minus the y_a = 0, y_f = 1 one
        def shoot(y_a, y_f):
            bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=1.0, b=7.0, y_a=y_a, y_f=y_f)
            return numerov_oracle(bvp, 20_000).y

        y = shoot(1.0, 0.0)
        assert y[0] == 1.0
        assert abs(y[-1]) <= 1e-12
        assert np.max(np.abs(y - (shoot(1.0, 1.0) - shoot(0.0, 1.0)))) <= 1e-15 * np.max(np.abs(y))

    def test_step_instability_reported(self):
        # a huge classically forbidden region overflows the growing solution
        bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.0, b=800.0, y_a=0.0, y_f=1e-4)
        with pytest.raises(NumericalError):
            numerov_oracle(bvp, 5000)

    @pytest.mark.parametrize(
        "scale",
        [1e-4, math.ldexp(1e-4, -1040), math.ldexp(1.0, -1040)],
        ids=["normal", "1e-4*2**-1040", "2**-1040"],
    )
    def test_subnormal_data(self, scale):
        # y(b) is held by the collocation solve's rule, so subnormal data
        # are met to the smallest normal double instead of failing
        bvp = BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=0.5, b=20.0, y_a=scale, y_f=scale)
        sol = numerov_oracle(bvp, 20_000)
        assert sol.y[0] == scale
        assert bvp.meets([sol.y[0], sol.y[-1]], 0.0)

    @pytest.mark.parametrize(
        "problem, message",
        [
            # v(b) = 6.38e-3, so s = 1e308 / v(b) is past the largest double
            ({"y_f": 1e308}, f"{_SLOPE_OVERFLOW}, v(b) = 0.00638"),
            # a numpy-scalar y_f overflows the slope without a warning too
            ({"E": -0.1, "y_f": np.finfo(float).max}, f"{_SLOPE_OVERFLOW}, v(b) = -0.327"),
            ({"E": 0.0, "y_f": np.finfo(float).max}, f"{_SLOPE_OVERFLOW}, v(b) = 0.245"),
            # a general start puts y_a itself on the grid, before any step
            ({"a": 0.5, "y_a": 1e308, "y_f": 1.0}, "y_a = 1e+308 is past the sweep's limit 1e+250"),
            # s is finite, but s v(b) rounds past the largest double
            ({"E": -0.45, "y_f": sys.float_info.max}, _SUPERPOSED_OVERFLOW),
            # b sits near a node of v, and y = s v is finite at b but
            # overflows on the hump before it
            ({"l": 10, "E": 0.5, "b": 17.634, "y_f": 1e305}, _SUPERPOSED_OVERFLOW),
            # x^(l+1) underflows at both seed points, from l 102 on [0, 7] at 2e4
            # points, so v would be zero throughout
            (
                {"l": 200},
                "the regular series x^(l+1) underflows to 0 at both start points, l = 200",
            ),
            (
                {"l": 102, "E": -0.1},
                "the regular series x^(l+1) underflows to 0 at both start points, l = 102",
            ),
            # s = 1e-300 / v(b) is below the subnormals and rounds to 0, so
            # y = s v is 0 everywhere: finite, but y(b) is not y_f
            ({"E": -0.45, "b": 100.0, "y_f": 1e-300}, f"{_SLOPE_UNDERFLOW}, v(b) = -1.76e+37"),
        ],
        ids=[
            "slope", "slope-numpy-E-0.1", "slope-numpy-E0", "y_a", "superposed-at-b",
            "superposed-inside", "seed-underflow", "seed-underflow-l102", "slope-under",
        ],
    )
    def test_failure_names_its_cause(self, problem, message):
        bvp = BoundaryValueProblem(**{**_ORACLE_1S, **problem})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
                numerov_oracle(bvp, 20_000)

    def test_one_subnormal_seed_starts_the_sweep(self, monkeypatch):
        # on [0, 7] at 2e4 points l 101 is the last l whose seeds are not
        # both 0: x_1^102 underflows, x_2^102 is subnormal
        bvp = BoundaryValueProblem(**{**_ORACLE_1S, "l": 101, "E": -0.1})
        calls = _record_sweeps(monkeypatch)
        sol = numerov_oracle(bvp, 20_000)
        [(start, _, _)] = calls
        assert start[:2] == [0.0, 0.0] and 0.0 < start[2] < sys.float_info.min
        assert sol.y[-1] == bvp.y_f

    def test_vanishing_unit_slope_sweep(self, monkeypatch):
        # no seeded sweep is known to end on exactly 0, so a sweep is made to
        monkeypatch.setattr(hydrogenic, "_numerov_sweep", lambda start, coef, incr: 0.0 * coef)
        bvp = BoundaryValueProblem(**_ORACLE_1S)
        message = "unit-slope sweep vanishes at b; no slope matches y(b)"
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            numerov_oracle(bvp, 1000)

    @example(problem={**_ORACLE_1S, "E": -0.45, "b": 100.0, "y_f": 1e-300})
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(problem=_shooting_problems())
    def test_superposition_meets_the_boundary_values(self, problem):
        # the correction along v leaves y(b) within rounding of y_f unless a
        # value overflows or the slope underflows: a solution meets y(b), and
        # a raised underflow has a slope below the normal doubles
        bvp = BoundaryValueProblem(**problem)
        sol, message = None, ""
        with pytest.MonkeyPatch.context() as patch:
            calls = _record_sweeps(patch)
            try:
                sol = numerov_oracle(bvp, 1000)
            except NumericalError as err:
                message = str(err)
        if sol is None and not message.startswith(_SLOPE_UNDERFLOW):
            event("raised: another cause")
            return
        u_b = float(hydrogenic._numerov_sweep(*calls[0])[-1]) if len(calls) == 2 else 0.0
        if sol is None:
            event("raised: the slope underflows")
            v_b = float(hydrogenic._numerov_sweep(*calls[-1])[-1])
            assert abs((bvp.y_f - u_b) / v_b) < sys.float_info.min
            return
        event("solved")
        rounding = 2.0 * sys.float_info.epsilon * (abs(u_b) + abs(bvp.y_f - u_b))
        assert sol.y[0] == bvp.y_a
        assert np.isfinite(sol.y).all()
        assert bvp.meets([sol.y[0], sol.y[-1]], rounding)


def _exact(l, Z, x):
    return -Z / x + l * (l + 1) / (2.0 * x * x)


def _regularized(l, Z, x):
    with np.errstate(divide="ignore"):
        return -Z / (x + 1e-10) + l * (l + 1) / (2.0 * x * x + 1e-10)


class TestPotential:
    """`BoundaryValueProblem.potential`, the one V(x) that every solver reads."""

    @staticmethod
    def bvp(l, Z):
        return BoundaryValueProblem(l=l, Z=Z, E=-0.5, a=0.0, b=7.0, y_a=0.0, y_f=1e-4)

    @pytest.mark.parametrize(
        "grid",
        [
            np.linspace(0.0, 7.0, 20_000),
            np.linspace(0.0, 20.0, 1000),
            np.concatenate([np.linspace(-1.0, 0.0, 11), np.linspace(0.0, 15.0, 2001)[1:]]),
        ],
        ids=["oracle-1s", "oracle-2p", "through-origin"],
    )
    @pytest.mark.parametrize("Z", [1.0, 2.5])
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_exact_where_x_is_positive(self, l, Z, grid):
        # bit for bit the arithmetic of `_exact`, on which the Numerov
        # oracle's output depends; the 1e-10 enters only at x <= 0
        bvp = self.bvp(l, Z)
        v = bvp.potential(grid)
        pos = grid > 0
        assert np.array_equal(v[pos], _exact(l, Z, grid[pos]))
        assert np.array_equal(v[~pos], _regularized(l, Z, grid[~pos]))

    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-200, -1e-10, -1.0])
    @pytest.mark.parametrize("l", [0, 2])
    def test_regularized_where_the_exact_form_divides_by_zero(self, l, x):
        # at x <= 0, and where 2x^2 underflows to 0; a scalar in, a float out
        bvp = self.bvp(l, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = bvp.potential(x)
        assert type(v) is float
        assert v == _regularized(l, 1.0, np.float64(x))


class TestBoundaryRule:
    """`BoundaryValueProblem.meets`, the collocation solve's boundary rule."""

    @staticmethod
    def bvp(y_a, y_f):
        return BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=1.0, b=7.0, y_a=y_a, y_f=y_f)

    def test_relative_to_the_larger_target(self):
        bvp = self.bvp(-0.5, 2.0)  # tolerance 2e-8 at both ends
        assert bvp.meets([-0.5 + 1.5e-8, 2.0 - 1.5e-8], 0.0)
        assert not bvp.meets([-0.5 + 2.5e-8, 2.0], 0.0)
        assert not bvp.meets([-0.5, 2.0 + 2.5e-8], 0.0)
        # the caller's rounding bound widens it
        assert bvp.meets([-0.5, 2.0 + 2.5e-8], 1e-8)

    def test_zero_targets_held_to_the_smallest_normal(self):
        tiny = np.finfo(float).tiny
        bvp = self.bvp(0.0, 0.0)
        assert bvp.meets([0.0, tiny], 0.0) and bvp.meets([-tiny, 0.0], 0.0)
        assert not bvp.meets([0.0, 2.0 * tiny], 0.0)

    def test_subnormal_targets_held_to_the_smallest_normal(self):
        tiny = np.finfo(float).tiny
        t = math.ldexp(1.0, -1040)
        assert 0.0 < t < tiny
        bvp = self.bvp(t, -t)
        assert bvp.meets([0.0, 0.0], 0.0)
        assert bvp.meets([t + 0.5 * tiny, -t - 0.5 * tiny], 0.0)
        assert not bvp.meets([t + 2.0 * tiny, -t], 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_fail(self, value):
        bvp = self.bvp(1.0, 1.0)
        assert not bvp.meets([value, 1.0], 0.0)
        assert not bvp.meets([1.0, value], 0.0)
        # not even under an unbounded rounding bound
        assert not bvp.meets([1.0, value], math.inf)

    def test_overflowing_rounding_bound_is_clipped(self):
        # 1e-8 |y_f| plus the bound overflows (without a warning) and is
        # clipped to the largest finite double
        big = np.finfo(float).max
        bvp = self.bvp(1.0, big)
        assert bvp.meets([-big, 0.0], big)
        assert not bvp.meets([1.0, math.inf], big)

    def test_stack_of_pairs(self):
        bvp = self.bvp(1.0, -1.0)
        values = np.array([[1.0, -1.0], [1.0 + 1e-7, -1.0], [1.0, math.nan], [1.0, -1.0 - 1e-7]])
        rounding = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1e-6]])
        got = bvp.meets(values, rounding)
        assert got.shape == (4,)
        assert got.tolist() == [True, False, False, True]
        assert got.tolist() == [bool(bvp.meets(v, r)) for v, r in zip(values, rounding)]


class TestFamily:
    def test_family_size_and_order(self, family28):
        labels = [orb.label for orb in family28]
        assert len(family28) == 28
        assert labels[:6] == ["1s", "2s", "2p", "3s", "3p", "3d"]
        assert labels[-1] == "7i"

    def test_labels_beyond_i(self):
        assert [orb.label for orb in make_family(10)[-3:]] == ["10k", "10l", "10m"]

    def test_labels_unique_past_letter_table(self):
        labels = [orb.label for orb in make_family(25)]
        assert len(set(labels)) == len(labels)
        assert OrbitalSpec(21, 20).label == "21z"
        assert OrbitalSpec(22, 21).label == "22[l=21]"

    def test_bvp_validation(self):
        with pytest.raises(ValueError):
            BoundaryValueProblem(l=0, Z=1.0, E=-0.5, a=1.0, b=1.0, y_a=0.0, y_f=0.0)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="^n_max must be >= 1, got 0$"):
            make_family(0)

    @pytest.mark.parametrize(
        "field, message",
        [({"l": -1}, "l must be non-negative, got -1"), ({"Z": 0.0}, "Z must be positive, got 0.0")],
        ids=["l", "Z"],
    )
    def test_bvp_quantum_numbers_checked(self, field, message):
        values = {"l": 0, "Z": 1.0, "E": -0.5, "a": 0.0, "b": 7.0, "y_a": 0.0, "y_f": 1e-4}
        with pytest.raises(ValueError, match=f"^{message}$"):
            BoundaryValueProblem(**{**values, **field})


class TestCubicReadOut:
    """NumerovSolution.at: 4-point Lagrange interpolation on the grid."""

    @staticmethod
    def _solution(x, y):
        return hydrogenic.NumerovSolution(x=x, y=y, iterations=1)

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
