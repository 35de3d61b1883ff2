import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klbasis.csvio import read_csv, write_text
from klbasis.errors import NumericalError
from klbasis.hydrogenic import (
    OrbitalSpec,
    family_values,
    laguerre,
    make_family,
    radial_wavefunction,
)
from klbasis.sampling import (
    GRID_KINDS,
    build_sample_matrix,
    make_grid,
    sample_matrix_csv_text,
)


class TestMakeGrid:
    def test_uniform_three_points(self):
        assert make_grid("uniform", 3, 0.0, 1.0).tolist() == [0.0, 0.5, 1.0]

    def test_chebyshev_three_points(self):
        g = make_grid("chebyshev-lobatto", 3, -1.0, 1.0)
        assert np.allclose(g, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_chebyshev_five_points(self):
        g = make_grid("chebyshev-lobatto", 5, 0.0, 1.0)
        expected = [0.0, 0.14644660940672624, 0.5, 0.8535533905932737, 1.0]
        assert np.allclose(g, expected, atol=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_grid("uniform", 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            make_grid("uniform", 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_grid("uniform", 5, 2.0, 1.0)
        with pytest.raises(ValueError, match="unknown grid kind 'gauss'"):
            make_grid("gauss", 5, 0.0, 1.0)

    def test_endpoints_exact(self):
        for kind in GRID_KINDS:
            g = make_grid(kind, 17, 0.3, 41.7)
            assert g[0] == 0.3
            assert g[-1] == 41.7

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=50),
        a=st.floats(min_value=-100.0, max_value=100.0),
        width=st.floats(min_value=1e-3, max_value=200.0),
    )
    def test_chebyshev_symmetry(self, n, a, width):
        g = make_grid("chebyshev-lobatto", n, a, a + width)
        sums = g + g[::-1]
        scale = max(abs(a), abs(a + width), 1.0)
        assert np.max(np.abs(sums - (2 * a + width))) <= 1e-14 * scale

    def test_grid_invariants_enforced(self):
        # [1, 1 + 2 eps] holds two doubles: room for 2 points, not for 3
        a, b = 1.0, 1.0000000000000002
        named = r"on the sampling domain \[1.0, 1.0000000000000002\]"
        for kind in GRID_KINDS:
            assert make_grid(kind, 2, a, b).tolist() == [a, b]
            with pytest.raises(NumericalError, match=named):
                make_grid(kind, 3, a, b)

    @pytest.mark.parametrize("kind", GRID_KINDS)
    def test_a_and_b_are_the_endpoints(self, kind):
        g = make_grid(kind, 17, 0.3, 41.7)
        assert g.shape == (17,) and g.dtype == float
        assert (g[0], g[-1]) == (0.3, 41.7)
        assert np.all(np.diff(g) > 0)


class TestSampleMatrix:
    def test_family_has_28_columns(self, reproduction_pipeline):
        assert reproduction_pipeline["sample"].shape == (20, 28)

    def test_reduced_representation_zero_first_row(self, reproduction_pipeline):
        assert np.all(reproduction_pipeline["sample"][0] == 0.0)

    def test_single_orbital_column(self):
        # x R_10(x) is 0 at the origin and R_10(1) = 2/e at x = 1
        sm = build_sample_matrix((OrbitalSpec(1, 0),), make_grid("uniform", 2, 0.0, 1.0))
        assert sm[:, 0] == pytest.approx([0.0, 0.7357588823428847], abs=1e-12)

    def test_column_permutation_equivariance(self):
        grid = make_grid("uniform", 7, 0.0, 20.0)
        orbs = (OrbitalSpec(1, 0), OrbitalSpec(2, 1), OrbitalSpec(3, 0))
        fwd = build_sample_matrix(orbs, grid)
        rev = build_sample_matrix(orbs[::-1], grid)
        assert np.array_equal(fwd, rev[:, ::-1])

    def test_deterministic(self, family28):
        grid = make_grid("uniform", 9, 0.0, 40.0)
        a = build_sample_matrix(family28, grid)
        b = build_sample_matrix(family28, grid)
        assert np.array_equal(a, b)

    def test_csv_layout_and_roundtrip(self, tmp_path, family28, reproduction_pipeline):
        sample = reproduction_pipeline["sample"]
        text = sample_matrix_csv_text(family28, reproduction_pipeline["points"], sample)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["x", "orb_1s", "orb_2s", "orb_2p"]
        assert len(header) == 29
        assert len(lines) == 21
        path = write_text(tmp_path / "samples.csv", text)
        hdr, rows = read_csv(path)
        assert hdr == header
        # 17 significant digits round-trip exactly
        back = np.array([[float(c) for c in row[1:]] for row in rows])
        assert np.array_equal(back, sample)


def _loop_laguerre(k, alpha, x):
    """The scalar-degree three-term recurrence, one orbital at a time."""
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for i in range(k):
        prev, cur = cur, ((2 * i + 1 + alpha - x) * cur - (i + alpha) * prev) / (i + 1)
    return cur


def _loop_radial(orb, r):
    """R_{nl}(r) evaluated for one orbital, as the per-orbital loop did."""
    n, l, Z = orb.n, orb.l, orb.Z
    rho = 2.0 * Z * r / n
    log_norm = 0.5 * (
        3.0 * math.log(2.0 * Z / n) + math.lgamma(n - l) - math.log(2.0 * n) - math.lgamma(n + l + 1)
    )
    with np.errstate(divide="ignore"):
        log_envelope = log_norm - rho / 2.0 + (l * np.log(rho) if l else 0.0)
    return np.exp(log_envelope) * _loop_laguerre(n - l - 1, 2 * l + 1, rho)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def _laguerre_columns(draw):
    """Unsorted degrees (ties and zeros likely: 1 to 16 columns drawn from
    0..12), one alpha per column, and x with one entry per column (1-d) or
    a few rows of them (2-d)."""
    cols = draw(st.integers(1, 16))
    degrees = draw(st.lists(st.integers(0, 12), min_size=cols, max_size=cols))
    alphas = draw(st.lists(st.floats(-0.9, 40.0), min_size=cols, max_size=cols))
    rows = draw(st.sampled_from([None, 1, 3]))
    shape = (cols,) if rows is None else (rows, cols)
    values = draw(st.lists(st.floats(-20.0, 120.0), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    return degrees, alphas, np.array(values).reshape(shape)


class TestLaguerre:
    """`laguerre` with per-column degrees keeps every bit of the scalar-degree
    recurrence run one column at a time."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=_laguerre_columns())
    @example(case=([3, 0, 7, 3, 0, 12], [1.0, 3.0, 0.5, 1.0, 7.0, 25.0], np.linspace(-5, 90, 6)))
    @example(case=([2, 5, 5, 0], [1.0, 2.0, 3.0, 4.0], np.linspace(0, 40, 12).reshape(3, 4)))
    def test_bit_identical_to_per_column_loop(self, case):
        degrees, alphas, x = case
        got = laguerre(np.array(degrees), np.array(alphas), x)
        assert got.shape == x.shape and got.flags.c_contiguous
        for j, (k, alpha) in enumerate(zip(degrees, alphas)):
            want = _loop_laguerre(k, alpha, x[..., j])
            assert np.array_equal(_bits(got[..., j]), _bits(want))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(0, 30), alpha=st.floats(-0.9, 60.0), x=st.floats(-20.0, 120.0))
    def test_scalar_x_and_degree(self, k, alpha, x):
        got = laguerre(k, alpha, x)
        assert isinstance(got, float)
        assert _bits(got) == _bits(_loop_laguerre(k, alpha, np.float64(x)))


class TestFamilyPass:
    """The one-pass family evaluation keeps every bit of the per-orbital
    loop it replaced, and the C order the covariance products depend on."""

    @pytest.mark.parametrize(
        "n_max, Z, kind, n_s, b",
        [
            (7, 1.0, "uniform", 20, 40.0),
            (10, 1.0, "chebyshev-lobatto", 80, 80.0),
            (30, 1.0, "chebyshev-lobatto", 300, 1800.0),
            (7, 2.0, "uniform", 20, 40.0),
        ],
        ids=["default", "wide", "n_max-30", "Z-2"],
    )
    def test_bit_identical_to_per_orbital_loop(self, n_max, Z, kind, n_s, b):
        family = make_family(n_max, Z)
        x = make_grid(kind, n_s, 0.0, b)
        columns = [_loop_radial(orb, x) for orb in family]
        want = np.column_stack([x * col for col in columns])
        values = build_sample_matrix(family, x)
        assert values.flags.c_contiguous
        assert np.array_equal(values, want)
        # far out a finite product that underflows keeps its sign: -0.0
        assert np.array_equal(np.signbit(values), np.signbit(want))
        for orb, col in zip(family, columns):
            assert np.array_equal(radial_wavefunction(orb, x), col)

    @pytest.mark.parametrize("n_max, Z", [(7, 1.0), (30, 1.0), (7, 10.0)])
    def test_zero_where_the_laguerre_factor_overflows(self, n_max, Z):
        # past rho ~ 1e51 L overflows while the envelope is 0; no warning
        # escapes (RuntimeWarnings are errors in this suite)
        family = make_family(n_max, Z)
        r = np.array([0.0, 1.0, 1e60, 1e200, 1e300])
        values = family_values(family, r)
        assert np.all(values[2:] == 0.0)
        expected = np.column_stack([_loop_radial(orb, r[:2]) for orb in family])
        assert np.array_equal(values[:2], expected)

    def test_scalar_radius(self):
        family = make_family(3)
        vals = family_values(family, 1.5)
        assert vals.shape == (len(family),)
        for orb, v in zip(family, vals):
            assert v == _loop_radial(orb, np.asarray(1.5))
            assert radial_wavefunction(orb, 1.5) == v

    @pytest.mark.parametrize(
        "points, message",
        [
            ([0.0, np.nan, 1.0], "r must be finite"),
            ([0.0, 1.0, np.inf], "r must be finite"),
            ([-1.0, 0.0, 1.0], "r must be non-negative"),
        ],
    )
    def test_bad_grid_point_rejected(self, points, message):
        pts = np.array(points)
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_sample_matrix(make_family(3), pts)
        with pytest.raises(ValueError, match=f"^{message}$"):
            radial_wavefunction(OrbitalSpec(2, 1), pts)

    def test_empty_family_rejected(self):
        message = "^family must contain at least one orbital$"
        with pytest.raises(ValueError, match=message):
            family_values((), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=message):
            build_sample_matrix((), make_grid("uniform", 3, 0.0, 1.0))
