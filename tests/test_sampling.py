import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klbasis.csvio import read_csv, write_text
from klbasis.hydrogenic import (
    OrbitalSpec,
    RadialFamily,
    family_values,
    make_family,
    radial_wavefunction,
)
from klbasis.sampling import (
    Grid,
    GridKind,
    Representation,
    build_sample_matrix,
    make_grid,
    sample_matrix_csv_text,
)


class TestMakeGrid:
    def test_uniform_three_points(self):
        g = make_grid(GridKind.UNIFORM, 3, 0.0, 1.0)
        assert g.points.tolist() == [0.0, 0.5, 1.0]

    def test_chebyshev_three_points(self):
        g = make_grid(GridKind.CHEBYSHEV_LOBATTO, 3, -1.0, 1.0)
        assert np.allclose(g.points, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_chebyshev_five_points(self):
        g = make_grid(GridKind.CHEBYSHEV_LOBATTO, 5, 0.0, 1.0)
        expected = [0.0, 0.14644660940672624, 0.5, 0.8535533905932737, 1.0]
        assert np.allclose(g.points, expected, atol=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_grid(GridKind.UNIFORM, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            make_grid(GridKind.UNIFORM, 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_grid(GridKind.UNIFORM, 5, 2.0, 1.0)

    def test_endpoints_exact(self):
        for kind in GridKind:
            g = make_grid(kind, 17, 0.3, 41.7)
            assert g.points[0] == 0.3
            assert g.points[-1] == 41.7

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=50),
        a=st.floats(min_value=-100.0, max_value=100.0),
        width=st.floats(min_value=1e-3, max_value=200.0),
    )
    def test_chebyshev_symmetry(self, n, a, width):
        g = make_grid(GridKind.CHEBYSHEV_LOBATTO, n, a, a + width)
        sums = g.points + g.points[::-1]
        scale = max(abs(a), abs(a + width), 1.0)
        assert np.max(np.abs(sums - (2 * a + width))) <= 1e-14 * scale

    def test_grid_invariants_enforced(self):
        with pytest.raises(ValueError):
            Grid(kind=GridKind.UNIFORM, points=np.array([0.0, 0.0, 1.0]), a=0.0, b=1.0)
        with pytest.raises(ValueError):
            Grid(kind=GridKind.UNIFORM, points=np.array([0.1, 0.5, 1.0]), a=0.0, b=1.0)


class TestSampleMatrix:
    def test_family_has_28_columns(self, reproduction_pipeline):
        assert reproduction_pipeline["sample"].values.shape == (20, 28)

    def test_reduced_representation_zero_first_row(self, reproduction_pipeline):
        assert np.all(reproduction_pipeline["sample"].values[0] == 0.0)

    def test_single_orbital_column(self):
        fam = RadialFamily(orbitals=(OrbitalSpec(1, 0),))
        grid = make_grid(GridKind.UNIFORM, 2, 0.0, 1.0)
        sm = build_sample_matrix(fam, grid, Representation.R)
        assert sm.values[:, 0] == pytest.approx([2.0, 0.735758882342884], abs=1e-12)

    def test_column_permutation_equivariance(self):
        grid = make_grid(GridKind.UNIFORM, 7, 0.0, 20.0)
        orbs = (OrbitalSpec(1, 0), OrbitalSpec(2, 1), OrbitalSpec(3, 0))
        fwd = build_sample_matrix(RadialFamily(orbitals=orbs), grid)
        rev = build_sample_matrix(RadialFamily(orbitals=orbs[::-1]), grid)
        assert np.array_equal(fwd.values, rev.values[:, ::-1])

    def test_deterministic(self, family28):
        grid = make_grid(GridKind.UNIFORM, 9, 0.0, 40.0)
        a = build_sample_matrix(family28, grid)
        b = build_sample_matrix(family28, grid)
        assert np.array_equal(a.values, b.values)

    def test_csv_layout_and_roundtrip(self, tmp_path, reproduction_pipeline):
        sample = reproduction_pipeline["sample"]
        text = sample_matrix_csv_text(sample)
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
        assert np.array_equal(back, sample.values)


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


class TestFamilyPass:
    """The one-pass family evaluation keeps every bit of the per-orbital
    loop it replaced, and the C order the covariance products depend on."""

    @pytest.mark.parametrize(
        "n_max, Z, kind, n_s, b",
        [
            (7, 1.0, GridKind.UNIFORM, 20, 40.0),
            (10, 1.0, GridKind.CHEBYSHEV_LOBATTO, 80, 80.0),
            (30, 1.0, GridKind.CHEBYSHEV_LOBATTO, 300, 1800.0),
            (7, 2.0, GridKind.UNIFORM, 20, 40.0),
        ],
        ids=["default", "wide", "n_max-30", "Z-2"],
    )
    def test_bit_identical_to_per_orbital_loop(self, n_max, Z, kind, n_s, b):
        family = make_family(n_max, Z)
        grid = make_grid(kind, n_s, 0.0, b)
        x = grid.points
        columns = [_loop_radial(orb, x) for orb in family.orbitals]
        expected = {
            Representation.R: np.column_stack(columns),
            Representation.RR: np.column_stack([x * col for col in columns]),
        }
        for rep, want in expected.items():
            values = build_sample_matrix(family, grid, rep).values
            assert values.flags.c_contiguous
            assert np.array_equal(values, want)
        for orb, col in zip(family.orbitals, columns):
            assert np.array_equal(radial_wavefunction(orb, x), col)

    def test_scalar_radius(self):
        family = make_family(3)
        vals = family_values(family, 1.5)
        assert vals.shape == (family.count,)
        for orb, v in zip(family.orbitals, vals):
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
        grid = Grid(kind=GridKind.UNIFORM, points=pts, a=pts[0], b=pts[-1])
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_sample_matrix(make_family(3), grid)
        with pytest.raises(ValueError, match=f"^{message}$"):
            radial_wavefunction(OrbitalSpec(2, 1), pts)
