"""Sampling grids and assembly of the wavefunction sample matrix.

A grid is its points, ascending. The sample matrix has one row per grid
point and one column per orbital; column order follows the family order.
Each column samples the reduced radial function x*R(x), the unknown the
collocation solve expands.
"""

from __future__ import annotations

import numpy as np

from . import csvio
from .errors import NumericalError
from .hydrogenic import OrbitalSpec, family_values

__all__ = [
    "GRID_KINDS",
    "make_grid",
    "build_sample_matrix",
    "sample_matrix_csv_text",
]

# The grid kinds `make_grid` builds, by the names the config uses.
GRID_KINDS = ("uniform", "chebyshev-lobatto")


def make_grid(kind: str, n_s: int, a: float, b: float) -> np.ndarray:
    """The n_s points of a sampling grid on [a, b], ascending.

    Uniform: x_j = a + j (b-a)/(n_s-1).
    Chebyshev-Lobatto: x_j = a + (b-a) (1 - cos(j pi/(n_s-1))) / 2,
    clustering points toward both endpoints.
    Raises NumericalError when [a, b] is too narrow for n_s strictly
    increasing doubles.
    """
    if kind not in GRID_KINDS:
        raise ValueError(f"unknown grid kind {kind!r}; expected one of {GRID_KINDS}")
    if n_s < 2:
        raise ValueError(f"need at least 2 grid points, got {n_s}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if kind == "uniform":
        pts = np.linspace(a, b, n_s)
    else:
        j = np.arange(n_s)
        pts = a + (b - a) * (1.0 - np.cos(j * np.pi / (n_s - 1))) / 2.0
        pts[0] = a
        pts[-1] = b
    if not np.all(np.diff(pts) > 0):
        raise NumericalError(
            f"{n_s} {kind} grid points are not strictly increasing on the sampling "
            f"domain [{a}, {b}]; the domain is too narrow"
        )
    return pts


def build_sample_matrix(
    family: tuple[OrbitalSpec, ...], points: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Sample every orbital of the family at the points, the whole family
    in one pass: values[i, j] = x_i * R_j(x_i), the reduced radial form
    that vanishes at the origin. Written into `out` when given, a
    (points, orbitals) array the caller sized before building the family."""
    x = np.asarray(points, dtype=float)
    return np.multiply(x[:, None], family_values(family, x), out=out)


def sample_matrix_csv_text(
    family: tuple[OrbitalSpec, ...], points: np.ndarray, values: np.ndarray
) -> str:
    header = ["x"] + [f"orb_{orb.label}" for orb in family]
    return csvio.csv_text(header, np.column_stack((points, values)))
