"""Covariance-based construction of the optimal truncated basis.

Pipeline: center the sample matrix row-wise, form the covariance matrix
K = (1/N_w) Yc Yc^T, diagonalize it, and keep the modes with the largest
eigenvalues. Columns of the eigenvector matrix sample the basis functions
on the grid; truncating to the top modes minimizes the mean-square
reconstruction error among all bases of the same size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csvio
from .errors import NumericalError

__all__ = [
    "KLBasis",
    "center_columns",
    "covariance",
    "eig_sym",
    "truncate_basis",
    "energy_fraction_modes",
    "reconstruction_mse",
    "projection_mse",
    "eigenvalues_csv_text",
    "vectors_csv_text",
    "basis_json_doc",
]


def center_columns(Y) -> np.ndarray:
    """Subtract, within each row, the mean over the column index:
    Yc[i, j] = Y[i, j] - mean_j Y[i, j]. Requires a 2-d array with at
    least two columns; with one column centering would annihilate the data.
    """
    mat = np.asarray(Y, dtype=float)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d sample matrix")
    if mat.shape[1] < 2:
        raise ValueError(f"need at least 2 columns to center, got {mat.shape[1]}")
    return mat - mat.mean(axis=1)[:, None]


def covariance(Yc: np.ndarray) -> np.ndarray:
    """K = (1/N_w) Yc Yc^T, symmetrized as (K + K^T)/2 to remove the
    rounding asymmetry of the matrix product."""
    K = (Yc @ Yc.T) / Yc.shape[1]
    return 0.5 * (K + K.T)


@dataclass(frozen=True)
class KLBasis:
    """The leading M eigenpairs of a covariance matrix on its grid points:
    all n of them from `eig_sym`, fewer after truncation. Eigenvalues
    descending, eigenvector columns orthonormal with a deterministic sign."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        phi = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "vectors", phi)
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        n = self.n
        if phi.shape != (n, lam.size) or not 1 <= lam.size <= n:
            raise ValueError(
                f"vectors need one row per grid point and 1 to {n} columns, one per "
                f"eigenvalue; got {phi.shape} for {lam.size} eigenvalues"
            )
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted in descending order")
        if np.any(lam < -1e-12 * max(lam[0], 1e-300)):
            raise ValueError("covariance eigenvalues must be non-negative up to rounding")
        gram_err = np.max(np.abs(phi.T @ phi - np.eye(lam.size)))
        if gram_err > 1e-10:
            raise ValueError(f"eigenvector columns not orthonormal (error {gram_err:.2e})")

    @property
    def M(self) -> int:
        """The number of modes."""
        return self.eigenvalues.size

    @property
    def n(self) -> int:
        """The grid size: the order of the covariance matrix."""
        return self.points.size


def _apply_sign_convention(phi: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive,
    ties broken by the lowest index. The result is C-ordered: the BLAS
    products downstream round differently on an F-ordered matrix."""
    peaks = phi[np.argmax(np.abs(phi), axis=0), np.arange(phi.shape[1])]
    return np.multiply(phi, np.where(peaks < 0, -1.0, 1.0), order="C")


def eig_sym(K: np.ndarray, points: np.ndarray) -> KLBasis:
    """All eigenpairs of a symmetric matrix, eigenvalues descending, as the
    basis on the grid points.

    K must be square and exactly symmetric (ValueError otherwise).
    LAPACK's symmetric eigensolver (`np.linalg.eigh`) does the work; the
    eigenvalues are then ordered descending by a stable sort, and each
    eigenvector gets a deterministic sign: its entry of largest absolute
    value is positive (ties broken by lowest index). A solver failure is
    reported as NumericalError.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("covariance matrix must be square")
    if not np.array_equal(K, K.T):
        raise ValueError("covariance matrix must be exactly symmetric")
    try:
        lam, V = np.linalg.eigh(K)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"symmetric eigensolver failed: {err}") from err
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = _apply_sign_convention(V[:, order])
    return KLBasis(eigenvalues=lam, vectors=V, points=points)


def truncate_basis(basis: KLBasis, m: int) -> KLBasis:
    """The leading m modes of the basis, 1 <= m <= M."""
    if not 1 <= m <= basis.M:
        raise ValueError(f"M must be in [1, {basis.M}], got {m}")
    return KLBasis(basis.eigenvalues[:m].copy(), basis.vectors[:, :m].copy(), basis.points)


def energy_fraction_modes(basis: KLBasis, f: float) -> int:
    """The smallest mode count whose eigenvalue sum reaches fraction f of
    the total, 0 < f <= 1; 1 when the total is not positive."""
    if not 0.0 < f <= 1.0:
        raise ValueError(f"energy fraction must be in (0, 1], got {f}")
    total = float(basis.eigenvalues.sum())
    if total <= 0.0:
        return 1
    cum = np.cumsum(basis.eigenvalues)
    return min(int(np.searchsorted(cum, f * total) + 1), basis.M)


def projection_mse(Yc: np.ndarray, B: np.ndarray) -> float:
    """Mean-square residual of projecting the centered columns onto the
    span of the orthonormal columns of B: (1/N_w) ||Yc - B B^T Yc||_F^2."""
    resid = Yc - B @ (B.T @ Yc)
    return float(np.sum(resid * resid) / Yc.shape[1])


def reconstruction_mse(Yc: np.ndarray, basis: KLBasis, M: int) -> float:
    """Truncation error of keeping the top M modes; equals the eigenvalue
    tail sum up to rounding."""
    if not 1 <= M <= basis.M:
        raise ValueError(f"M must be in [1, {basis.M}], got {M}")
    return projection_mse(Yc, basis.vectors[:, :M])


# -- serialization -----------------------------------------------------------


def eigenvalues_csv_text(basis: KLBasis) -> str:
    rows = np.column_stack((np.arange(basis.M), basis.eigenvalues))
    return csvio.csv_text(["index", "eigenvalue"], rows)


def vectors_csv_text(basis: KLBasis) -> str:
    header = ["x"] + [f"phi_{j}" for j in range(basis.M)]
    return csvio.csv_text(header, np.column_stack((basis.points, basis.vectors)))


def basis_json_doc(basis: KLBasis, kind: str) -> dict:
    """The grid of the `basis.json` manifest: its kind and end points. The
    points, eigenvalues and vectors are in `basis.csv` and `eigenvalues.csv`."""
    a, b = basis.points[[0, -1]].tolist()
    return {"grid": {"kind": kind, "a": a, "b": b}}
