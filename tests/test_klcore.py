import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klbasis import klcore
from klbasis.errors import NumericalError
from klbasis.sampling import make_grid
from klbasis.klcore import (
    KLBasis,
    center_columns,
    covariance,
    eig_sym,
    energy_fraction_modes,
    projection_mse,
    reconstruction_mse,
    truncate_basis,
)


def unit_grid(n):
    return make_grid("uniform", n, 0.0, 1.0)


def eig(K):
    """`eig_sym` of K on an n-point grid, for tests where the points do not matter."""
    return eig_sym(K, unit_grid(len(K)))


def random_psd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n + 3))
    K = A @ A.T / (n + 3)
    return 0.5 * (K + K.T)


class TestCentering:
    def test_identical_columns_annihilated(self):
        Y = np.column_stack([np.arange(5.0), np.arange(5.0)])
        assert np.all(center_columns(Y) == 0.0)

    def test_hand_example(self):
        out = center_columns(np.array([[1.0, 3.0], [2.0, 2.0]]))
        assert out.tolist() == [[-1.0, 1.0], [0.0, 0.0]]

    def test_rejects_single_column(self):
        with pytest.raises(ValueError, match="at least 2 columns"):
            center_columns(np.ones((4, 1)))
        with pytest.raises(ValueError, match="2-d"):
            center_columns(np.ones(4))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        Y = rng.uniform(-5, 5, size=(6, 9))
        out = center_columns(Y)
        scale = np.max(np.abs(out), initial=1e-300)
        assert np.max(np.abs(out.sum(axis=1))) <= 1e-12 * 9 * scale


class TestCovariance:
    def test_hand_example(self):
        Yc = center_columns(np.array([[1.0, 3.0], [2.0, 2.0]]))
        K = covariance(Yc)
        assert K.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_zero_input(self):
        Yc = center_columns(np.zeros((3, 4)))
        assert np.all(covariance(Yc) == 0.0)

    def test_trace_identity(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"]
        K = reproduction_pipeline["cov"]
        frob = np.sum(Yc**2) / Yc.shape[1]
        assert abs(np.trace(K) - frob) <= 1e-12 * frob

    def test_exact_symmetry(self, reproduction_pipeline):
        K = reproduction_pipeline["cov"]
        assert np.array_equal(K, K.T)


class TestEigSym:
    def test_identity(self):
        basis = eig(np.eye(4))
        assert np.all(basis.eigenvalues == 1.0)
        assert np.array_equal(basis.vectors, np.eye(4))

    def test_two_by_two(self):
        basis = eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert basis.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert basis.vectors[:, 0] == pytest.approx([s, s], abs=1e-12)
        # sign convention: largest-magnitude entry (tie -> lowest index) positive
        assert basis.vectors[:, 1] == pytest.approx([s, -s], abs=1e-12)

    def test_diagonal(self):
        basis = eig(np.diag([5.0, 2.0, 9.0]))
        assert basis.eigenvalues.tolist() == [9.0, 5.0, 2.0]
        expected = np.zeros((3, 3))
        expected[2, 0] = expected[0, 1] = expected[1, 2] = 1.0
        assert np.array_equal(basis.vectors, expected)

    def test_matches_lapack_oracle(self):
        for seed in (0, 1, 2):
            K = random_psd(12, seed)
            ours = eig(K)
            ref = np.linalg.eigvalsh(K)[::-1]
            assert np.allclose(ours.eigenvalues, ref, rtol=0, atol=1e-12 * max(ref[0], 1.0))

    def test_invariants_on_reproduction_config(self, reproduction_pipeline):
        basis = reproduction_pipeline["basis"]
        K = reproduction_pipeline["cov"]
        lam, phi = basis.eigenvalues, basis.vectors
        assert np.all(np.diff(lam) <= 0)
        assert np.all(lam >= -1e-12 * np.trace(K))
        assert np.max(np.abs(phi.T @ phi - np.eye(20))) <= 1e-10
        assert np.max(np.abs(phi.T @ K @ phi - np.diag(lam))) <= 1e-10 * lam[0]
        assert abs(lam.sum() - np.trace(K)) <= 1e-12 * np.trace(K)

    def test_deterministic(self, reproduction_pipeline):
        again = eig_sym(reproduction_pipeline["cov"], reproduction_pipeline["points"])
        assert np.array_equal(again.vectors, reproduction_pipeline["basis"].vectors)
        assert np.array_equal(again.eigenvalues, reproduction_pipeline["basis"].eigenvalues)

    def test_scale_equivariance(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"]
        base = reproduction_pipeline["basis"]
        scaled = eig_sym(covariance(3.0 * Yc), reproduction_pipeline["points"])
        # eigenvalues at the rounding floor of the spectrum cannot carry a
        # relative comparison; allow dust at the 1e-14 * lambda_0 level
        dust = 1e-14 * 9.0 * base.eigenvalues[0]
        assert np.allclose(scaled.eigenvalues, 9.0 * base.eigenvalues, rtol=1e-12, atol=dust)
        meaningful = base.eigenvalues > 1e-10 * base.eigenvalues[0]
        assert np.allclose(
            scaled.vectors[:, meaningful], base.vectors[:, meaningful], atol=1e-9
        )

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(klcore.np.linalg, "eigh", fail)
        with pytest.raises(NumericalError):
            eig(random_psd(4, 0))

    def test_rejects_a_matrix_not_square_or_not_exactly_symmetric(self):
        with pytest.raises(ValueError, match="must be square"):
            eig_sym(np.ones((3, 2)), unit_grid(3))
        with pytest.raises(ValueError, match="must be square"):
            eig_sym(np.ones(3), unit_grid(3))
        K = random_psd(4, 0)
        K[0, 1] = np.nextafter(K[0, 1], np.inf)
        with pytest.raises(ValueError, match="must be exactly symmetric"):
            eig(K)


class TestTruncation:
    def test_energy_fraction_hand_case(self):
        basis = eig(np.diag([5.0, 2.0, 9.0]))
        assert energy_fraction_modes(basis, 0.5) == 1

    def test_fixed_m_full(self):
        basis = eig(np.diag([5.0, 2.0, 9.0]))
        tb = truncate_basis(basis, 3)
        assert tb.M == 3
        assert np.array_equal(tb.vectors, basis.vectors)

    @pytest.mark.parametrize("m", [1, 8, 20])
    def test_leading_columns_of_the_same_basis(self, reproduction_pipeline, m):
        basis = reproduction_pipeline["basis"]
        tb = truncate_basis(basis, m)
        assert isinstance(tb, KLBasis)
        assert (tb.M, tb.n) == (m, basis.n)
        assert tb.points is basis.points
        assert tb.vectors.flags.c_contiguous
        assert np.array_equal(tb.vectors, basis.vectors[:, :m])
        assert np.array_equal(tb.eigenvalues, basis.eigenvalues[:m])

    def test_rows_must_match_the_grid(self, reproduction_pipeline):
        basis = reproduction_pipeline["basis"]
        with pytest.raises(ValueError, match="one row per grid point and 1 to"):
            KLBasis(basis.eigenvalues[:5], basis.vectors[:-1, :5], basis.points)
        with pytest.raises(ValueError, match="one row per grid point and 1 to"):
            KLBasis(basis.eigenvalues[:3], np.eye(3), unit_grid(4))
        with pytest.raises(ValueError, match="one row per grid point and 1 to"):
            KLBasis(basis.eigenvalues[:0], basis.vectors[:, :0], basis.points)

    def test_rejects_out_of_range(self):
        basis = eig(np.eye(3))
        with pytest.raises(ValueError):
            truncate_basis(basis, 0)
        with pytest.raises(ValueError):
            truncate_basis(basis, 4)
        with pytest.raises(ValueError):
            energy_fraction_modes(basis, 0.0)
        with pytest.raises(ValueError):
            energy_fraction_modes(basis, 1.1)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        eigenvalues=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
        fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2, max_size=2),
    )
    def test_energy_fraction_modes_is_the_first_index_reaching_f(self, eigenvalues, fractions):
        lam = np.sort(eigenvalues)[::-1]
        basis = KLBasis(lam, np.eye(lam.size), np.arange(lam.size, dtype=float))
        total = float(lam.sum())
        cum = np.cumsum(lam).tolist()
        lo, hi = sorted(fractions)
        for f in (lo, hi):
            # past the last partial sum (rounding at f = 1) it keeps all M
            scan = next((k + 1 for k, c in enumerate(cum) if c >= f * total), basis.M)
            assert energy_fraction_modes(basis, f) == scan
            assert 1 <= scan <= basis.M
        assert energy_fraction_modes(basis, lo) <= energy_fraction_modes(basis, hi)

    def test_reproduction_energy_fraction(self, reproduction_pipeline):
        # regression value from the first pipeline run; the claim under
        # test is only M <= 10
        m = energy_fraction_modes(reproduction_pipeline["basis"], 0.9999)
        assert m == 7
        assert m <= 10


class TestKLBasisChecks:
    @pytest.mark.parametrize(
        "eigenvalues, vectors, message",
        [
            ([1.0, 2.0], np.eye(2), "eigenvalues must be sorted in descending order"),
            ([1.0, -0.5], np.eye(2), "covariance eigenvalues must be non-negative up to rounding"),
            ([2.0, 1.0], [[1.0, 1.0], [0.0, 1.0]], r"eigenvector columns not orthonormal"),
        ],
        ids=["ascending", "negative", "not-orthonormal"],
    )
    def test_rejected(self, eigenvalues, vectors, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            KLBasis(np.array(eigenvalues), np.array(vectors), unit_grid(2))


class TestTransformAndMse:
    def test_single_eigenvector_column(self, reproduction_pipeline):
        basis = reproduction_pipeline["basis"]
        Y = basis.vectors[:, [0]]
        Z = basis.vectors.T @ Y
        e0 = np.zeros((20, 1))
        e0[0, 0] = 1.0
        assert np.allclose(Z, e0, atol=1e-12)

    def test_transformed_covariance_diagonal(self, reproduction_pipeline):
        basis = reproduction_pipeline["basis"]
        Yc = reproduction_pipeline["centered"]
        Z = basis.vectors.T @ Yc
        Kz = Z @ Z.T / Z.shape[1]
        off = Kz - np.diag(np.diag(Kz))
        assert np.max(np.abs(off)) <= 1e-10 * basis.eigenvalues[0]

    def test_complete_basis_zero_mse(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"]
        basis = reproduction_pipeline["basis"]
        trace = np.trace(reproduction_pipeline["cov"])
        assert reconstruction_mse(Yc, basis, 20) <= 1e-10 * trace

    def test_mse_equals_eigenvalue_tail(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"]
        basis = reproduction_pipeline["basis"]
        trace = np.trace(reproduction_pipeline["cov"])
        for m in range(1, 21):
            tail = float(basis.eigenvalues[m:].sum())
            assert abs(reconstruction_mse(Yc, basis, m) - tail) <= 1e-9 * trace

    def test_rank_one_data_single_mode(self):
        Yc = center_columns(np.array([[1.0, 3.0], [2.0, 2.0]]))
        basis = eig(covariance(Yc))
        assert reconstruction_mse(Yc, basis, 1) <= 1e-14

    def test_mode_count_checked(self):
        Yc = center_columns(np.array([[1.0, 3.0], [2.0, 2.0]]))
        with pytest.raises(ValueError, match=r"^M must be in \[1, 2\], got 0$"):
            reconstruction_mse(Yc, eig(covariance(Yc)), 0)

    def test_kl_beats_random_bases(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"]
        basis = reproduction_pipeline["basis"]
        trace = np.trace(reproduction_pipeline["cov"])
        rng = np.random.default_rng(20080556)
        for _ in range(20):
            A = rng.standard_normal((20, 20))
            Q, R = np.linalg.qr(A)
            Q = Q * np.sign(np.diag(R))
            energies = np.sum((Q.T @ Yc) ** 2, axis=1) / Yc.shape[1]
            order = np.argsort(-energies)
            for m in (1, 4, 8, 15, 20):
                kl_mse = reconstruction_mse(Yc, basis, m)
                best_q = projection_mse(Yc, Q[:, order[:m]])
                assert kl_mse <= best_q + 1e-12 * trace


class TestSerialization:
    def test_eigenvalues_csv(self, reproduction_pipeline):
        text = klcore.eigenvalues_csv_text(reproduction_pipeline["basis"])
        lines = text.strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 21
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_vectors_csv(self, reproduction_pipeline):
        text = klcore.vectors_csv_text(reproduction_pipeline["basis"])
        lines = text.strip().split("\n")
        assert lines[0].split(",")[:3] == ["x", "phi_0", "phi_1"]
        assert len(lines) == 21


def _loop_sign_convention(phi):
    """Column signs fixed one column at a time, as the per-column loop did."""
    out = phi.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        if out[k, j] < 0:
            out[:, j] = -out[:, j]
    return out


class TestSignConvention:
    @pytest.mark.parametrize("n", [1, 2, 12, 80])
    def test_bit_identical_to_per_column_loop(self, n):
        lam, V = np.linalg.eigh(random_psd(n, n))
        phi = V[:, np.argsort(-lam, kind="stable")]
        ours = klcore._apply_sign_convention(phi)
        assert np.array_equal(ours, _loop_sign_convention(phi))
        assert np.array_equal(np.signbit(ours), np.signbit(_loop_sign_convention(phi)))
        assert ours.flags.c_contiguous

    def test_ties_and_zeros(self):
        phi = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.5, -0.0]])
        ours = klcore._apply_sign_convention(np.asfortranarray(phi))
        assert np.array_equal(ours, _loop_sign_convention(phi))
        assert np.array_equal(np.signbit(ours), np.signbit(_loop_sign_convention(phi)))
        assert ours.flags.c_contiguous

    def test_eig_sym_vectors_c_ordered(self, reproduction_pipeline):
        # the covariance and projection products round differently on an
        # F-ordered eigenvector matrix
        assert reproduction_pipeline["basis"].vectors.flags.c_contiguous
        assert eig(random_psd(12, 0)).vectors.flags.c_contiguous
