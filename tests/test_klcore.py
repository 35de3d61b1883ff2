import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klbasis import klcore
from klbasis.errors import NumericalError
from klbasis.klcore import (
    CovarianceMatrix,
    EnergyFraction,
    FixedM,
    center_columns,
    covariance,
    eig_sym,
    kl_transform,
    projection_mse,
    reconstruction_mse,
    truncate_basis,
)


def random_psd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n + 3))
    K = A @ A.T / (n + 3)
    return CovarianceMatrix(0.5 * (K + K.T))


class TestCentering:
    def test_identical_columns_annihilated(self):
        Y = np.column_stack([np.arange(5.0), np.arange(5.0)])
        assert np.all(center_columns(Y).values == 0.0)

    def test_hand_example(self):
        out = center_columns(np.array([[1.0, 3.0], [2.0, 2.0]]))
        assert out.values.tolist() == [[-1.0, 1.0], [0.0, 0.0]]
        assert out.row_means.tolist() == [2.0, 2.0]

    def test_rejects_single_column(self):
        with pytest.raises(ValueError):
            center_columns(np.ones((4, 1)))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        Y = rng.uniform(-5, 5, size=(6, 9))
        out = center_columns(Y)
        scale = np.max(np.abs(out.values), initial=1e-300)
        assert np.max(np.abs(out.values.sum(axis=1))) <= 1e-12 * 9 * scale


class TestCovariance:
    def test_hand_example(self):
        Yc = center_columns(np.array([[1.0, 3.0], [2.0, 2.0]]))
        K = covariance(Yc)
        assert K.K.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_zero_input(self):
        Yc = center_columns(np.zeros((3, 4)))
        assert np.all(covariance(Yc).K == 0.0)

    def test_trace_identity(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"]
        K = reproduction_pipeline["cov"].K
        frob = np.sum(Yc.values**2) / Yc.values.shape[1]
        assert abs(np.trace(K) - frob) <= 1e-12 * frob

    def test_exact_symmetry(self, reproduction_pipeline):
        K = reproduction_pipeline["cov"].K
        assert np.array_equal(K, K.T)


class TestEigSym:
    def test_identity(self):
        basis = eig_sym(CovarianceMatrix(np.eye(4)))
        assert np.all(basis.eigenvalues == 1.0)
        assert np.array_equal(basis.vectors, np.eye(4))

    def test_two_by_two(self):
        basis = eig_sym(CovarianceMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert basis.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert basis.vectors[:, 0] == pytest.approx([s, s], abs=1e-12)
        # sign convention: largest-magnitude entry (tie -> lowest index) positive
        assert basis.vectors[:, 1] == pytest.approx([s, -s], abs=1e-12)

    def test_diagonal(self):
        basis = eig_sym(CovarianceMatrix(np.diag([5.0, 2.0, 9.0])))
        assert basis.eigenvalues.tolist() == [9.0, 5.0, 2.0]
        expected = np.zeros((3, 3))
        expected[2, 0] = expected[0, 1] = expected[1, 2] = 1.0
        assert np.array_equal(basis.vectors, expected)

    def test_matches_lapack_oracle(self):
        for seed in (0, 1, 2):
            K = random_psd(12, seed)
            ours = eig_sym(K)
            ref = np.linalg.eigvalsh(K.K)[::-1]
            assert np.allclose(ours.eigenvalues, ref, rtol=0, atol=1e-12 * max(ref[0], 1.0))

    def test_invariants_on_reproduction_config(self, reproduction_pipeline):
        basis = reproduction_pipeline["basis"]
        K = reproduction_pipeline["cov"].K
        lam, phi = basis.eigenvalues, basis.vectors
        assert np.all(np.diff(lam) <= 0)
        assert np.all(lam >= -1e-12 * np.trace(K))
        assert np.max(np.abs(phi.T @ phi - np.eye(20))) <= 1e-10
        assert np.max(np.abs(phi.T @ K @ phi - np.diag(lam))) <= 1e-10 * lam[0]
        assert abs(lam.sum() - np.trace(K)) <= 1e-12 * np.trace(K)

    def test_deterministic(self, reproduction_pipeline):
        again = eig_sym(reproduction_pipeline["cov"], grid=reproduction_pipeline["grid"])
        assert np.array_equal(again.vectors, reproduction_pipeline["basis"].vectors)
        assert np.array_equal(again.eigenvalues, reproduction_pipeline["basis"].eigenvalues)

    def test_scale_equivariance(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"].values
        base = reproduction_pipeline["basis"]
        scaled = eig_sym(covariance(klcore.CenteredMatrix(3.0 * Yc, np.zeros(20))))
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
            eig_sym(random_psd(4, 0))


class TestTruncation:
    def test_energy_fraction_hand_case(self):
        basis = eig_sym(CovarianceMatrix(np.diag([5.0, 2.0, 9.0])))
        assert truncate_basis(basis, EnergyFraction(0.5)).M == 1

    def test_fixed_m_full(self):
        basis = eig_sym(CovarianceMatrix(np.diag([5.0, 2.0, 9.0])))
        tb = truncate_basis(basis, FixedM(3))
        assert tb.M == 3
        assert np.array_equal(tb.vectors, basis.vectors)

    def test_rejects_out_of_range(self):
        basis = eig_sym(CovarianceMatrix(np.eye(3)))
        with pytest.raises(ValueError):
            truncate_basis(basis, FixedM(0))
        with pytest.raises(ValueError):
            truncate_basis(basis, FixedM(4))
        with pytest.raises(ValueError):
            truncate_basis(basis, EnergyFraction(0.0))
        with pytest.raises(ValueError):
            truncate_basis(basis, EnergyFraction(1.1))

    def test_reproduction_energy_fraction(self, reproduction_pipeline):
        # regression value from the first pipeline run; the claim under
        # test is only M <= 10
        tb = truncate_basis(reproduction_pipeline["basis"], EnergyFraction(0.9999))
        assert tb.M == 7
        assert tb.M <= 10


class TestTransformAndMse:
    def test_identity_transform(self):
        basis = eig_sym(CovarianceMatrix(np.eye(3)))
        Y = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(kl_transform(basis, Y), Y)

    def test_single_eigenvector_column(self, reproduction_pipeline):
        basis = reproduction_pipeline["basis"]
        Y = basis.vectors[:, [0]]
        Z = kl_transform(basis, Y)
        e0 = np.zeros((20, 1))
        e0[0, 0] = 1.0
        assert np.allclose(Z, e0, atol=1e-12)

    def test_transformed_covariance_diagonal(self, reproduction_pipeline):
        basis = reproduction_pipeline["basis"]
        Yc = reproduction_pipeline["centered"]
        Z = kl_transform(basis, Yc)
        Kz = Z @ Z.T / Z.shape[1]
        off = Kz - np.diag(np.diag(Kz))
        assert np.max(np.abs(off)) <= 1e-10 * basis.eigenvalues[0]

    def test_dimension_mismatch_rejected(self, reproduction_pipeline):
        with pytest.raises(ValueError):
            kl_transform(reproduction_pipeline["basis"], np.ones((5, 2)))

    def test_complete_basis_zero_mse(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"]
        basis = reproduction_pipeline["basis"]
        trace = np.trace(reproduction_pipeline["cov"].K)
        assert reconstruction_mse(Yc, basis, 20) <= 1e-10 * trace

    def test_mse_equals_eigenvalue_tail(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"]
        basis = reproduction_pipeline["basis"]
        trace = np.trace(reproduction_pipeline["cov"].K)
        for m in range(1, 21):
            tail = float(basis.eigenvalues[m:].sum())
            assert abs(reconstruction_mse(Yc, basis, m) - tail) <= 1e-9 * trace

    def test_rank_one_data_single_mode(self):
        Yc = center_columns(np.array([[1.0, 3.0], [2.0, 2.0]]))
        basis = eig_sym(covariance(Yc))
        assert reconstruction_mse(Yc, basis, 1) <= 1e-14

    def test_kl_beats_random_bases(self, reproduction_pipeline):
        Yc = reproduction_pipeline["centered"]
        basis = reproduction_pipeline["basis"]
        trace = np.trace(reproduction_pipeline["cov"].K)
        rng = np.random.default_rng(20080556)
        for _ in range(20):
            A = rng.standard_normal((20, 20))
            Q, R = np.linalg.qr(A)
            Q = Q * np.sign(np.diag(R))
            energies = np.sum((Q.T @ Yc.values) ** 2, axis=1) / Yc.values.shape[1]
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

    def test_json_doc_roundtrip(self, reproduction_pipeline):
        doc = klcore.basis_json_doc(reproduction_pipeline["basis"])
        again = json.loads(json.dumps(doc))
        assert again["grid"]["kind"] == "uniform"
        assert np.array_equal(
            np.array(again["vectors"]).T, reproduction_pipeline["basis"].vectors
        )
        assert np.array_equal(
            np.array(again["eigenvalues"]), reproduction_pipeline["basis"].eigenvalues
        )


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
        lam, V = np.linalg.eigh(random_psd(n, n).K)
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
        assert eig_sym(random_psd(12, 0)).vectors.flags.c_contiguous
