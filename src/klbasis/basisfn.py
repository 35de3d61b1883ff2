"""Continuously evaluable basis functions from discrete eigenvectors.

The kept eigenvectors are promoted together to the unique
degree-(N_s - 1) polynomials through their samples, evaluated in
barycentric Lagrange form. Derivatives come from the differentiation
matrix of the node set applied to the samples, then interpolated the
same way; expanding the interpolant into monomial coefficients would be
numerically toxic at these degrees while representing the very same
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .klcore import TruncatedBasis

__all__ = [
    "BasisFunction",
    "barycentric_weights",
    "differentiation_matrix",
    "interpolate",
]


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights w_j = 1 / prod_{k != j} (x_j - x_k), with the
    differences rescaled by 4/(b - a) so the products stay in range for
    larger node counts."""
    nodes = np.asarray(nodes, dtype=float)
    scale = 4.0 / (nodes[-1] - nodes[0])
    diffs = (nodes[:, None] - nodes[None, :]) * scale
    np.fill_diagonal(diffs, 1.0)
    return 1.0 / np.prod(diffs, axis=1)


def differentiation_matrix(nodes: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """First-derivative collocation matrix of the node set:
    D[i, j] = (w_j / w_i) / (x_i - x_j) off the diagonal, and each
    diagonal entry is the negated row sum, which keeps constants exactly
    in the null space."""
    nodes = np.asarray(nodes, dtype=float)
    if weights is None:
        weights = barycentric_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (weights[None, :] / weights[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


@dataclass(frozen=True)
class BasisFunction:
    """All kept modes as one interpolant on a shared node set.

    `samples` is (N_s x M), one column per mode; a 1-d array is a single
    function. The barycentric weights and the derivative samples D S and
    D^2 S are computed once, at construction. Immutable.
    """

    nodes: np.ndarray
    samples: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)
    _derivs: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
        if nodes.ndim != 1 or samples.ndim not in (1, 2) or samples.shape[0] != nodes.size:
            raise ValueError("samples need one row per interpolation node")
        if np.unique(nodes).size != nodes.size:
            raise ValueError("interpolation nodes must be distinct")
        weights = barycentric_weights(nodes)
        D = differentiation_matrix(nodes, weights)
        # D scales like 1/span, so a narrow enough node span overflows D^2 S
        with np.errstate(over="ignore", invalid="ignore"):
            d1 = D @ samples
            d2 = D @ d1
        if not (np.isfinite(d1).all() and np.isfinite(d2).all()):
            raise NumericalError(
                f"derivatives of the interpolant are not finite on nodes spanning "
                f"[{nodes[0]}, {nodes[-1]}]; the node span is too narrow"
            )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_derivs", (d1, d2))

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    def _interpolate(self, values: np.ndarray, x):
        """Barycentric interpolant of `values` (one row per node) at x:
        (len(x) x M) for array x, (M,) for scalar x. A point on a node
        returns that node's row exactly. Raises NumericalError when the
        result is not finite: on many equispaced nodes the weights span so
        many orders of magnitude that the kernel's denominator cancels."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        if (xa < self.nodes[0]).any() or (xa > self.nodes[-1]).any():
            raise ValueError(
                f"evaluation point outside [{self.a}, {self.b}]; no extrapolation"
            )
        diff = xa[:, None] - self.nodes[None, :]
        hit = diff == 0.0
        on_node = hit.any(axis=1)
        with np.errstate(all="ignore"):
            # rows with a node hit divide by zero here and are replaced
            L = self.weights / diff
            L[on_node] = hit[on_node]
            out = (L / L.sum(axis=1, keepdims=True)) @ values
        if not np.isfinite(out).all():
            raise NumericalError(
                f"barycentric interpolation on {self.nodes.size} nodes is not finite; "
                "use fewer nodes or Chebyshev-Lobatto sampling"
            )
        return out if np.ndim(x) else out[0]

    def eval(self, x):
        return self._interpolate(self.samples, x)

    def deriv(self, x, order: int = 1):
        if order not in (1, 2):
            raise ValueError(f"derivative order must be 1 or 2, got {order}")
        return self._interpolate(self._derivs[order - 1], x)


def interpolate(basis: TruncatedBasis) -> BasisFunction:
    """One interpolant over all retained modes, on the basis's grid."""
    if basis.grid is None:
        raise ValueError("truncated basis carries no grid to interpolate on")
    return BasisFunction(basis.grid.points, basis.vectors)
