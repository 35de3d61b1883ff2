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
from .sampling import Grid, SampleMatrix

__all__ = [
    "CenteredMatrix",
    "CovarianceMatrix",
    "KLBasis",
    "TruncatedBasis",
    "FixedM",
    "EnergyFraction",
    "center_columns",
    "covariance",
    "eig_sym",
    "truncate_basis",
    "kl_transform",
    "reconstruction_mse",
    "projection_mse",
    "eigenvalues_csv_text",
    "vectors_csv_text",
    "basis_json_doc",
]


def _as_matrix(Y) -> np.ndarray:
    if isinstance(Y, SampleMatrix):
        return Y.values
    if isinstance(Y, CenteredMatrix):
        return Y.values
    return np.asarray(Y, dtype=float)


@dataclass(frozen=True)
class CenteredMatrix:
    """Sample matrix with the per-row mean over columns removed."""

    values: np.ndarray
    row_means: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "row_means", np.asarray(self.row_means, dtype=float))
        scale = np.max(np.abs(vals), initial=0.0)
        if np.any(np.abs(vals.sum(axis=1)) > 1e-12 * vals.shape[1] * max(scale, 1e-300)):
            raise ValueError("rows of a centered matrix must sum to zero")


@dataclass(frozen=True)
class CovarianceMatrix:
    K: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        object.__setattr__(self, "K", K)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("covariance matrix must be square")
        if not np.array_equal(K, K.T):
            raise ValueError("covariance matrix must be exactly symmetric")

    @property
    def n(self) -> int:
        return self.K.shape[0]


def center_columns(Y) -> CenteredMatrix:
    """Subtract, within each row, the mean over the column index.

    values[i, j] = Y[i, j] - mean_j Y[i, j]. Requires at least two
    columns; with one column centering would annihilate the data.
    """
    mat = _as_matrix(Y)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d sample matrix")
    if mat.shape[1] < 2:
        raise ValueError(f"need at least 2 columns to center, got {mat.shape[1]}")
    means = mat.mean(axis=1)
    return CenteredMatrix(values=mat - means[:, None], row_means=means)


def covariance(Yc: CenteredMatrix) -> CovarianceMatrix:
    """K = (1/N_w) Yc Yc^T, symmetrized as (K + K^T)/2 to remove the
    rounding asymmetry of the matrix product."""
    mat = _as_matrix(Yc)
    n_w = mat.shape[1]
    K = (mat @ mat.T) / n_w
    K = 0.5 * (K + K.T)
    return CovarianceMatrix(K=K)


@dataclass(frozen=True)
class KLBasis:
    """All eigenpairs of a covariance matrix, eigenvalues descending,
    eigenvector columns orthonormal with a deterministic sign."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    grid: Grid | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        phi = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "vectors", phi)
        if phi.shape != (lam.size, lam.size):
            raise ValueError("vectors must be square with one column per eigenvalue")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted in descending order")
        lam0 = max(lam[0], 0.0) if lam.size else 0.0
        if np.any(lam < -1e-12 * max(lam0, 1e-300)):
            raise ValueError("covariance eigenvalues must be non-negative up to rounding")
        gram_err = np.max(np.abs(phi.T @ phi - np.eye(lam.size)))
        if gram_err > 1e-10:
            raise ValueError(f"eigenvector columns not orthonormal (error {gram_err:.2e})")

    @property
    def n(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class TruncatedBasis:
    """The first M modes of a KLBasis."""

    M: int
    vectors: np.ndarray
    eigenvalues: np.ndarray
    grid: Grid | None = None

    def __post_init__(self):
        if not 1 <= self.M:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.vectors.shape[1] != self.M or self.eigenvalues.size != self.M:
            raise ValueError("truncated basis shape does not match M")


@dataclass(frozen=True)
class FixedM:
    """Keep exactly M modes."""

    M: int


@dataclass(frozen=True)
class EnergyFraction:
    """Keep the smallest M whose eigenvalue sum reaches fraction f of the total."""

    f: float


def _apply_sign_convention(phi: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive,
    ties broken by the lowest index. The result is C-ordered: the BLAS
    products downstream round differently on an F-ordered matrix."""
    peaks = phi[np.argmax(np.abs(phi), axis=0), np.arange(phi.shape[1])]
    return np.multiply(phi, np.where(peaks < 0, -1.0, 1.0), order="C")


def eig_sym(K: CovarianceMatrix, grid: Grid | None = None) -> KLBasis:
    """All eigenpairs of a symmetric matrix, eigenvalues descending.

    LAPACK's symmetric eigensolver (`np.linalg.eigh`) does the work; the
    eigenvalues are then ordered descending by a stable sort, and each
    eigenvector gets a deterministic sign: its entry of largest absolute
    value is positive (ties broken by lowest index). A solver failure is
    reported as NumericalError.
    """
    try:
        lam, V = np.linalg.eigh(K.K)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"symmetric eigensolver failed: {err}") from err
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = _apply_sign_convention(V[:, order])
    return KLBasis(eigenvalues=lam, vectors=V, grid=grid)


def truncate_basis(basis: KLBasis, criterion: FixedM | EnergyFraction) -> TruncatedBasis:
    """Keep the leading modes, either a fixed count or enough of them to
    capture a fraction of the total eigenvalue sum."""
    n = basis.n
    if isinstance(criterion, FixedM):
        m = criterion.M
        if not 1 <= m <= n:
            raise ValueError(f"M must be in [1, {n}], got {m}")
    elif isinstance(criterion, EnergyFraction):
        f = criterion.f
        if not 0.0 < f <= 1.0:
            raise ValueError(f"energy fraction must be in (0, 1], got {f}")
        total = float(basis.eigenvalues.sum())
        if total <= 0.0:
            m = 1
        else:
            cum = np.cumsum(basis.eigenvalues)
            m = int(np.searchsorted(cum, f * total) + 1)
            m = min(m, n)
    else:
        raise TypeError(f"unsupported truncation criterion: {criterion!r}")
    return TruncatedBasis(
        M=m,
        vectors=basis.vectors[:, :m].copy(),
        eigenvalues=basis.eigenvalues[:m].copy(),
        grid=basis.grid,
    )


def kl_transform(basis: KLBasis, Y) -> np.ndarray:
    """Coordinates of the samples in the eigenvector basis: Z = Phi^T Y."""
    mat = _as_matrix(Y)
    if mat.shape[0] != basis.n:
        raise ValueError(
            f"row count {mat.shape[0]} does not match basis dimension {basis.n}"
        )
    return basis.vectors.T @ mat


def projection_mse(Yc, B: np.ndarray) -> float:
    """Mean-square residual of projecting the centered columns onto the
    span of the orthonormal columns of B: (1/N_w) ||Yc - B B^T Yc||_F^2."""
    mat = _as_matrix(Yc)
    resid = mat - B @ (B.T @ mat)
    return float(np.sum(resid * resid) / mat.shape[1])


def reconstruction_mse(Yc: CenteredMatrix, basis: KLBasis, M: int) -> float:
    """Truncation error of keeping the top M modes; equals the eigenvalue
    tail sum up to rounding."""
    if not 1 <= M <= basis.n:
        raise ValueError(f"M must be in [1, {basis.n}], got {M}")
    return projection_mse(Yc, basis.vectors[:, :M])


# -- serialization -----------------------------------------------------------


def eigenvalues_csv_text(basis: KLBasis) -> str:
    rows = ([i, lam] for i, lam in enumerate(basis.eigenvalues))
    return csvio.csv_text(["index", "eigenvalue"], rows)


def vectors_csv_text(basis: KLBasis) -> str:
    if basis.grid is None:
        raise ValueError("basis has no grid attached; cannot serialize vectors")
    header = ["x"] + [f"phi_{j}" for j in range(basis.n)]
    rows = (
        [basis.grid.points[i]] + list(basis.vectors[i])
        for i in range(basis.n)
    )
    return csvio.csv_text(header, rows)


def basis_json_doc(basis: KLBasis) -> dict:
    if basis.grid is None:
        raise ValueError("basis has no grid attached; cannot serialize")
    return {
        "grid": {
            "kind": basis.grid.kind.value,
            "a": basis.grid.a,
            "b": basis.grid.b,
            "points": basis.grid.points.tolist(),
        },
        "eigenvalues": basis.eigenvalues.tolist(),
        "vectors": [basis.vectors[:, j].tolist() for j in range(basis.n)],
    }
