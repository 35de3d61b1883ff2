"""Sampling grids and assembly of the wavefunction sample matrix.

The sample matrix has one row per grid point and one column per orbital;
column order follows the family order. Each column samples the reduced
radial function x*R(x), the unknown the collocation solve expands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import csvio
from .hydrogenic import RadialFamily, family_values

__all__ = [
    "GridKind",
    "Grid",
    "SampleMatrix",
    "make_grid",
    "build_sample_matrix",
    "sample_matrix_csv_text",
]


class GridKind(str, enum.Enum):
    UNIFORM = "uniform"
    CHEBYSHEV_LOBATTO = "chebyshev-lobatto"


@dataclass(frozen=True)
class Grid:
    kind: GridKind
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def n_points(self) -> int:
        return self.points.size


def make_grid(kind: GridKind, n_s: int, a: float, b: float) -> Grid:
    """Build a sampling grid of n_s points on [a, b].

    Uniform: x_j = a + j (b-a)/(n_s-1).
    Chebyshev-Lobatto: x_j = a + (b-a) (1 - cos(j pi/(n_s-1))) / 2,
    clustering points toward both endpoints.
    """
    kind = GridKind(kind)
    if n_s < 2:
        raise ValueError(f"need at least 2 grid points, got {n_s}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if kind is GridKind.UNIFORM:
        pts = np.linspace(a, b, n_s)
    else:
        j = np.arange(n_s)
        pts = a + (b - a) * (1.0 - np.cos(j * np.pi / (n_s - 1))) / 2.0
        pts[0] = a
        pts[-1] = b
    return Grid(kind=kind, points=pts)


@dataclass(frozen=True)
class SampleMatrix:
    """values[i, j] = sample of orbital j at grid point i."""

    values: np.ndarray
    grid: Grid
    family: RadialFamily

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n_points, self.family.count):
            raise ValueError(
                f"values shape {vals.shape} does not match grid x family "
                f"({self.grid.n_points} x {self.family.count})"
            )


def build_sample_matrix(family: RadialFamily, grid: Grid) -> SampleMatrix:
    """Sample every orbital of the family on the grid, the whole family in
    one pass: x_i * R_{nl}(x_i), the reduced radial form that vanishes at
    the origin."""
    values = grid.points[:, None] * family_values(family, grid.points)
    return SampleMatrix(values=values, grid=grid, family=family)


def sample_matrix_csv_text(sample: SampleMatrix) -> str:
    header = ["x"] + [f"orb_{lbl}" for lbl in sample.family.labels]
    return csvio.csv_text(header, np.column_stack((sample.grid.points, sample.values)))
