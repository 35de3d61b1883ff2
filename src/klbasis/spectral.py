"""Collocation solver for the regularized radial boundary-value problem
in a truncated basis of interpolated modes.

The unknown is expanded as y(x) = sum_i c_i phi_i(x); the differential
equation is imposed at interior collocation points and the two boundary
values close the system.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .basisfn import BasisFunction
from .errors import NumericalError
from .hydrogenic import BoundaryValueProblem

__all__ = [
    "CollocationProblem",
    "AssembledSystem",
    "SpectralSolution",
    "EnergyScan",
    "default_collocation_points",
    "make_collocation_problem",
    "assemble",
    "solve",
    "residual",
    "relative_residual_norm",
    "energy_scan",
]

_SINGULAR_GATE = 1e-14
_BOUNDARY_WEIGHT = 1e6
_BOUNDARY_TOL = 1e-8
_NOT_FINITE = "the collocation matrix is not finite"  # LAPACK would raise LinAlgError


@dataclass(frozen=True)
class _Tabulation:
    """The basis values phi(x), second derivatives phi''(x) and the
    potential V(x) at fixed points: everything in -y''/2 + (V - E) y that
    does not depend on the energy."""

    values: np.ndarray
    second: np.ndarray
    potential: np.ndarray

    @classmethod
    def at(cls, bvp: BoundaryValueProblem, basis: BasisFunction, x) -> _Tabulation:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(basis.eval(x), basis.deriv(x, order=2), bvp.potential(x))

    def operator(self, energy) -> np.ndarray:
        """Rows -phi''/2 + (V - E) phi, one per point; (K, points, M) for K energies."""
        shift = self.potential - np.asarray(energy)[..., None]
        return -0.5 * self.second + shift[..., None] * self.values

    def defect(self, coefficients: np.ndarray, energy) -> tuple[np.ndarray, np.ndarray]:
        """The defect -y''/2 + (V - E) y of y = phi c at the points, and y.
        For (K, M) coefficients, (K, points) stacks of mat-vec products, which
        keep the bits of K single calls (a (points, M) @ (M, K) gemm would not)."""
        c = np.asarray(coefficients)[..., None]
        y = (self.values @ c)[..., 0]
        shift = self.potential - np.asarray(energy)[..., None]
        return -0.5 * (self.second @ c)[..., 0] + shift * y, y

    def relative_norm(self, coefficients: np.ndarray, energy) -> np.ndarray:
        """RMS of the defect over the RMS of y, per row; the plain RMS
        defect where y is zero."""
        res, y = self.defect(coefficients, energy)
        res_rms = np.sqrt(np.mean(res * res, axis=-1))
        y_rms = np.sqrt(np.mean(y * y, axis=-1))
        return np.divide(res_rms, y_rms, out=np.array(res_rms), where=y_rms > 0.0)


@dataclass(frozen=True)
class CollocationProblem:
    """A boundary-value problem, the basis to expand in, and the interior
    points where the equation is imposed (the boundary rows are implied).
    Construction tabulates the basis at the interior points and at a and
    b; none of it depends on E, which `at_energy` changes."""

    bvp: BoundaryValueProblem
    basis: BasisFunction
    interior_points: np.ndarray
    _interior: _Tabulation = field(init=False, repr=False, compare=False)
    _boundary: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.interior_points, dtype=float)
        object.__setattr__(self, "interior_points", pts)
        basis = self.basis
        if basis.samples.ndim != 2 or basis.samples.shape[1] == 0:
            raise ValueError("need an (N_s x M) basis with at least one mode")
        if basis.a > self.bvp.a or basis.b < self.bvp.b:
            raise ValueError(
                f"basis domain [{basis.a}, {basis.b}] does not cover problem domain "
                f"[{self.bvp.a}, {self.bvp.b}]"
            )
        if np.any(pts <= self.bvp.a) or np.any(pts >= self.bvp.b):
            raise ValueError("interior collocation points must lie strictly inside (a, b)")
        if pts.size + 2 < self.n_modes:
            raise ValueError(
                f"{pts.size} interior points + 2 boundary rows under-determine "
                f"{self.n_modes} coefficients"
            )
        object.__setattr__(self, "_interior", _Tabulation.at(self.bvp, basis, pts))
        object.__setattr__(self, "_boundary", basis.eval([self.bvp.a, self.bvp.b]))

    @property
    def n_modes(self) -> int:
        return self.basis.samples.shape[1]

    def at_energy(self, energy: float) -> CollocationProblem:
        """The same problem at another energy, sharing the tabulated basis."""
        other = copy.copy(self)
        object.__setattr__(other, "bvp", replace(self.bvp, E=energy))
        return other


def default_collocation_points(bvp: BoundaryValueProblem, basis: BasisFunction) -> np.ndarray:
    """Interior collocation points for a basis of M functions.

    Prefers the basis functions' own interpolation nodes that fall
    strictly inside (a, b); when those are too few to determine M
    coefficients (the usual case when the basis was built on a wider
    domain than the problem), a fresh uniform grid of M - 2 interior
    points makes the system square.
    """
    m = basis.samples.shape[1]
    nodes = basis.nodes
    inside = nodes[(nodes > bvp.a) & (nodes < bvp.b)]
    if inside.size + 2 >= m:
        return inside
    if m < 3:
        return np.empty(0)
    return np.linspace(bvp.a, bvp.b, m)[1:-1]


def make_collocation_problem(
    bvp: BoundaryValueProblem, basis: BasisFunction, interior_points=None
) -> CollocationProblem:
    if interior_points is None:
        interior_points = default_collocation_points(bvp, basis)
    return CollocationProblem(bvp=bvp, basis=basis, interior_points=interior_points)


@dataclass(frozen=True)
class AssembledSystem:
    """Collocation matrix and right-hand side; interior rows first, then
    the boundary rows at a and b."""

    matrix: np.ndarray
    rhs: np.ndarray
    n_interior: int


def assemble(problem: CollocationProblem) -> AssembledSystem:
    """Rows for interior points x_j:

        A[j, i] = -phi_i''(x_j)/2 + [V(x_j) - E] phi_i(x_j),  rhs 0,

    with V the regularized potential; then one row per boundary condition
    pinning y(a) = y_a and y(b) = y_f. Only the (V - E) diagonal is formed
    here; the basis matrices come from the problem.
    """
    bvp = problem.bvp
    n_interior = problem.interior_points.size
    A = np.vstack([problem._interior.operator(bvp.E), problem._boundary])
    rhs = np.zeros(n_interior + 2)
    rhs[-2] = bvp.y_a
    rhs[-1] = bvp.y_f
    return AssembledSystem(matrix=A, rhs=rhs, n_interior=n_interior)


@dataclass(frozen=True)
class SpectralSolution:
    """Expansion coefficients of y(x) = sum_i c_i phi_i(x)."""

    coefficients: np.ndarray
    condition_estimate: float
    problem: CollocationProblem
    method: str

    def eval(self, x):
        return self.problem.basis.eval(x) @ self.coefficients

    def deriv(self, x, order: int = 1):
        return self.problem.basis.deriv(x, order=order) @ self.coefficients


def solve(problem: CollocationProblem) -> SpectralSolution:
    """Solve the collocation system for the coefficients.

    The basis matrices were built with the problem; per call only the
    (V - E) diagonal is assembled and the singular values taken. The solve
    and the check of the boundary values against the problem's boundary
    rows are the per-matrix step that `energy_scan` shares.

    A square system goes through a direct partial-pivoting solve. An
    overdetermined one is solved in the least-squares sense with the two
    boundary rows weighted by 1e6 times the largest interior row norm, so
    the boundary conditions hold essentially exactly. A square system
    whose smallest singular value falls below 1e-14 of the largest is
    rank-deficient as posed (a basis whose members all satisfy one
    boundary condition produces a vacuous row); it is re-solved as the
    weighted minimum-norm least-squares problem, and the solve only
    counts as successful if the boundary values come out right.

    The condition estimate is the ratio of the extreme singular values
    of the solved matrix, ignoring singular values under the 1e-14 gate.
    """
    system = assemble(problem)
    A = system.matrix
    if not np.isfinite(A).all():
        raise NumericalError(_NOT_FINITE)
    sv = np.linalg.svd(A, compute_uv=False)
    coeffs, cond, method = _solve_matrix(problem, A, system.rhs, sv, _row_scale(A))
    return SpectralSolution(coeffs, cond, problem, method)


def _row_scale(A: np.ndarray) -> np.ndarray:
    """The largest interior row norm of each matrix in A (..., rows, M),
    whose last two rows are the boundary rows; 1.0 without interior rows."""
    if A.shape[-2] <= 2:
        return np.ones(A.shape[:-2])
    return np.max(np.linalg.norm(A[..., :-2, :], axis=-1), axis=-1)


def _solve_matrix(
    problem: CollocationProblem, A: np.ndarray, rhs: np.ndarray, sv: np.ndarray, row_scale: float
) -> tuple[np.ndarray, float, str]:
    """Coefficients, condition estimate and method for one finite matrix A
    with singular values sv and largest interior row norm row_scale;
    `NumericalError` if the solution misses the boundary values y_a, y_f
    of the problem (whose E is not read)."""
    n_rows, m = A.shape
    bvp = problem.bvp
    if n_rows == m and sv[-1] >= _SINGULAR_GATE * sv[0]:
        coeffs = np.linalg.solve(A, rhs)
        cond = float(sv[0] / sv[-1])
        method = "direct"
    else:
        weight = _BOUNDARY_WEIGHT * row_scale
        Aw = A.copy()
        rw = rhs.copy()
        Aw[-2:] *= weight
        rw[-2:] *= weight
        coeffs, _, _, svw = np.linalg.lstsq(Aw, rw, rcond=_SINGULAR_GATE)
        kept = svw[svw >= _SINGULAR_GATE * svw[0]]
        cond = float(svw[0] / kept[-1])
        method = "least-squares"

    tol = _BOUNDARY_TOL * max(1.0, abs(bvp.y_f))
    y_a, y_b = problem._boundary @ coeffs
    if abs(y_a - bvp.y_a) > tol or abs(y_b - bvp.y_f) > tol:
        raise NumericalError(
            f"boundary conditions not met; the collocation matrix is "
            f"numerically singular as posed (sigma_min/sigma_max = {sv[-1] / sv[0]:.2e})"
        )
    return coeffs, cond, method


def residual(sol: SpectralSolution, eval_points) -> np.ndarray:
    """Pointwise defect L[y](x) - E y(x) of the represented solution,
    where L is the left side of the radial equation."""
    bvp = sol.problem.bvp
    tab = _Tabulation.at(bvp, sol.problem.basis, eval_points)
    return tab.defect(sol.coefficients, bvp.E)[0]


def relative_residual_norm(sol: SpectralSolution, eval_points) -> float:
    """RMS of the defect divided by the RMS of the solution itself.

    Normalizing by the solution size is what makes the norm dip at an
    eigenvalue: near resonance the solution amplitude grows with the
    well-represented mode, while off resonance the boundary forcing
    drags in shapes the basis renders poorly. A zero solution reports
    the plain RMS defect (zero for the trivial problem).
    """
    bvp = sol.problem.bvp
    tab = _Tabulation.at(bvp, sol.problem.basis, eval_points)
    return float(tab.relative_norm(sol.coefficients, bvp.E))


@dataclass(frozen=True)
class EnergyScan:
    """Residual-norm scan over trial energies."""

    energies: np.ndarray
    residual_norms: np.ndarray
    statuses: tuple[str, ...]
    argmin_energy: float
    argmin_status: str


def _scan_grid(bvp: BoundaryValueProblem, n: int = 201) -> np.ndarray:
    span = bvp.b - bvp.a
    return bvp.a + (np.arange(n) + 0.5) * span / n


def energy_scan(
    bvp: BoundaryValueProblem,
    basis: BasisFunction,
    e_lo: float,
    e_hi: float,
    n_steps: int,
) -> EnergyScan:
    """Solve the problem on a uniform energy grid and record the
    solution-relative residual norm on a fixed dense interior grid of
    201 points.

    The basis is evaluated once per scan, not per energy: the collocation
    problem and the dense grid's basis values, second derivatives and
    potential are built first. The K matrices are one (K, rows, M) stack,
    gated by one stacked SVD of the finite ones; their boundary-row weights
    come from one stack of row norms, and the K residual norms from one
    stack of mat-vec products. Per energy only `solve`'s per-matrix step (the
    solve and the boundary check) remains. A non-finite matrix or a failed
    solve marks its row 'failed: <reason>'.

    The discrete minimum is refined by the vertex of the parabola through
    it and its neighbors; a minimum on the scan edge is reported with
    status 'boundary-minimum' instead.
    """
    if not e_lo < e_hi:
        raise ValueError(f"need e_lo < e_hi, got {e_lo}, {e_hi}")
    if n_steps < 3:
        raise ValueError(f"need at least 3 scan steps, got {n_steps}")
    energies = np.linspace(e_lo, e_hi, n_steps)
    problem = make_collocation_problem(bvp, basis)
    dense = _Tabulation.at(bvp, basis, _scan_grid(bvp))
    boundary = np.broadcast_to(problem._boundary, (n_steps,) + problem._boundary.shape)
    stack = np.concatenate([problem._interior.operator(energies), boundary], axis=1)
    finite = np.isfinite(stack).all(axis=(1, 2))
    sv = np.full((n_steps, min(stack.shape[1:])), np.nan)
    solvable = stack[finite]
    sv[finite] = np.linalg.svd(solvable, compute_uv=False)
    row_scale = np.full(n_steps, np.nan)
    row_scale[finite] = _row_scale(solvable)
    rhs = assemble(problem).rhs
    coeffs = np.full((n_steps, problem.n_modes), np.nan)
    statuses: list[str] = []
    for k in range(n_steps):
        try:
            if not finite[k]:
                raise NumericalError(_NOT_FINITE)
            coeffs[k] = _solve_matrix(problem, stack[k], rhs, sv[k], row_scale[k])[0]
            statuses.append("ok")
        except NumericalError as err:
            statuses.append(f"failed: {err}")
    norms = dense.relative_norm(coeffs, energies)
    ok = np.isfinite(norms)
    if not np.any(ok):
        raise NumericalError("no scan point solved successfully")
    idx = int(np.nanargmin(norms))
    if idx == 0 or idx == n_steps - 1 or not (ok[idx - 1] and ok[idx + 1]):
        refined = float(energies[idx])
        status = "boundary-minimum"
    else:
        r_prev, r_mid, r_next = norms[idx - 1], norms[idx], norms[idx + 1]
        denom = r_prev - 2.0 * r_mid + r_next
        step = energies[1] - energies[0]
        if denom <= 0.0:
            refined = float(energies[idx])
        else:
            refined = float(energies[idx] + 0.5 * step * (r_prev - r_next) / denom)
        status = "interior"
    return EnergyScan(
        energies=energies,
        residual_norms=norms,
        statuses=tuple(statuses),
        argmin_energy=refined,
        argmin_status=status,
    )
