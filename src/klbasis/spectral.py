"""Collocation solver for the radial boundary-value problem in a
truncated basis of interpolated modes.

The unknown is expanded as y(x) = sum_i c_i phi_i(x); the two boundary
values are imposed exactly, and the differential equation in the least-
squares sense at interior collocation points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basisfn import BasisFunction
from .errors import NumericalError
from .hydrogenic import BoundaryValueProblem

__all__ = [
    "CollocationProblem",
    "SpectralSolution",
    "EnergyScan",
    "assemble",
    "solve",
    "residual",
    "relative_residual_norm",
    "energy_scan",
]

_CUT = 1e-14
_EPS = np.finfo(float).eps
_NOT_FINITE = "the collocation system is not finite"  # the SVD would raise LinAlgError
_UNMET = "boundary conditions not met (boundary rank {} of 2, interior condition estimate {:.2e})"
_NORM_NOT_FINITE = "the residual norm is not finite"
_SCAN_POINTS = 201


def _pow2_scaled(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v with each row (last axis) divided by the power of two 2**e that
    brings its largest magnitude into [0.5, 1), and the exponents e. The
    division is exact, so a norm of the result is the row's norm over 2**e
    to the bit, and no square of it overflows."""
    _, exp = np.frexp(np.max(np.abs(v), axis=-1, keepdims=True, initial=0.0))
    return np.ldexp(v, -exp), exp[..., 0]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for each vector of a stack v, as a stack of mat-vec
    products, which keep the bits of single calls."""
    return (a @ v[..., None])[..., 0]


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
        return cls(*basis.tabulate(x, 0, 2), bvp.potential(x))

    def operator(self, energy) -> np.ndarray:
        """Rows -phi''/2 + (V - E) phi, one per point; (K, points, M) for K energies."""
        shift = self.potential - np.asarray(energy)[..., None]
        return -0.5 * self.second + shift[..., None] * self.values

    def defect(self, coefficients: np.ndarray, energy) -> tuple[np.ndarray, np.ndarray]:
        """The defect -y''/2 + (V - E) y of y = phi c at the points, and y.
        For (K, M) coefficients, (K, points) stacks (`_matvec`: a
        (points, M) @ (M, K) gemm would not keep the bits of K single calls)."""
        y = _matvec(self.values, coefficients)
        shift = self.potential - np.asarray(energy)[..., None]
        return -0.5 * _matvec(self.second, coefficients) + shift * y, y

    def relative_norm(self, coefficients: np.ndarray, energy) -> np.ndarray:
        """RMS of the defect over the RMS of y, per row; the plain RMS
        defect where y is zero. The rows are power-of-two scaled first
        (`_pow2_scaled`), so the squares cannot overflow; not finite only
        where the defect or y, or the ratio itself, is not."""
        with np.errstate(over="ignore", invalid="ignore"):
            res, y = self.defect(coefficients, energy)
            res, res_exp = _pow2_scaled(res)
            y, y_exp = _pow2_scaled(y)
            res_rms = np.sqrt(np.mean(res * res, axis=-1))
            y_rms = np.sqrt(np.mean(y * y, axis=-1))
            ratio = np.divide(res_rms, y_rms, out=np.array(res_rms), where=y_rms > 0.0)
            # a zero y has exponent 0, leaving the plain RMS defect
            return np.ldexp(ratio, res_exp - y_exp)


@dataclass(frozen=True)
class CollocationProblem:
    """A boundary-value problem and the basis to expand in. Construction
    picks the interior points where the equation is imposed: the basis
    nodes strictly inside (a, b) when they and the two boundary rows
    determine the M coefficients, else M - 2 uniform ones (the usual case
    for a basis built on a wider domain). One kernel reads the basis there
    and at a and b. The SVD of the boundary rows B c = (y_a, y_f) gives the
    pseudo-inverse B+, the minimum-norm c_p = B+ (y_a, y_f) and the null
    space N of B; its rank counts singular values above 1e-14 of the largest
    mode sample, so a row zero on the modes' own scale (y(0) of rR modes)
    removes no direction. None of it depends on E."""

    bvp: BoundaryValueProblem
    basis: BasisFunction
    interior_points: np.ndarray = field(init=False)
    _interior: _Tabulation = field(init=False, repr=False, compare=False)
    _boundary: np.ndarray = field(init=False, repr=False, compare=False)
    _pinv: np.ndarray = field(init=False, repr=False, compare=False)
    _particular: np.ndarray = field(init=False, repr=False, compare=False)
    _null: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bvp, basis = self.bvp, self.basis
        if basis.samples.ndim != 2 or basis.samples.shape[1] == 0:
            raise ValueError("need an (N_s x M) basis with at least one mode")
        if basis.a > bvp.a or basis.b < bvp.b:
            raise ValueError(
                f"basis domain [{basis.a}, {basis.b}] does not cover problem domain "
                f"[{bvp.a}, {bvp.b}]"
            )
        m = self.n_modes
        pts = basis.nodes[(basis.nodes > bvp.a) & (basis.nodes < bvp.b)]
        if pts.size + 2 < m:
            pts = np.linspace(bvp.a, bvp.b, m)[1:-1]
            # on a domain a few ulps wide the grid rounds onto a or b
            if np.any(pts <= bvp.a) or np.any(pts >= bvp.b):
                raise NumericalError(
                    f"{m - 2} interior collocation points do not fit strictly inside "
                    f"the problem domain [{bvp.a}, {bvp.b}]"
                )
        values, second = basis.tabulate(np.r_[pts, bvp.a, bvp.b], 0, 2)
        boundary = values[-2:]
        u, s, vt = np.linalg.svd(boundary)
        rank = int(np.count_nonzero(s > _CUT * np.max(np.abs(basis.samples))))
        pinv = vt[:rank].T / s[:rank] @ u[:, :rank].T
        with np.errstate(over="ignore", invalid="ignore"):
            particular = pinv @ [bvp.y_a, bvp.y_f]
        object.__setattr__(self, "interior_points", pts)
        interior = _Tabulation(values[:-2], second[:-2], bvp.potential(pts))
        object.__setattr__(self, "_interior", interior)
        object.__setattr__(self, "_boundary", boundary)
        object.__setattr__(self, "_pinv", pinv)
        object.__setattr__(self, "_particular", particular)
        object.__setattr__(self, "_null", vt[rank:].T)

    @property
    def n_modes(self) -> int:
        return self.basis.samples.shape[1]


def assemble(problem: CollocationProblem) -> tuple[np.ndarray, np.ndarray]:
    """The collocation matrix and right-hand side, interior rows first. Rows
    for interior points x_j:

        A[j, i] = -phi_i''(x_j)/2 + [V(x_j) - E] phi_i(x_j),  rhs 0,

    with V = `BoundaryValueProblem.potential`; then one row per boundary
    condition pinning y(a) = y_a and y(b) = y_f. Only the (V - E) diagonal
    is formed per call. At |E| near the largest double the rows overflow;
    they are returned as they are, not finite, for the caller to classify.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        interior = problem._interior.operator(problem.bvp.E)
    rhs = np.zeros(len(interior) + 2)
    rhs[-2:] = problem.bvp.y_a, problem.bvp.y_f
    return np.vstack((interior, problem._boundary)), rhs


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
    """Solve the collocation system for the coefficients: the one-energy
    case of `energy_scan`'s stacked path.

    The boundary values are imposed exactly (the null-space method for
    equality-constrained least squares): c = c_p + N z, with c_p and N from
    the problem's boundary rows, and z the minimum-norm least-squares
    solution of the interior rows A N z = -A c_p, singular values of A N
    below 1e-14 of the largest cut. One correction c += B+ (t - B c)
    removes the rounding left in the boundary values, and the solve only
    counts if B c then meets them (`BoundaryValueProblem.meets`, given
    M eps (|B| |c|) per row, the rounding bound of B c). The method is
    "direct" when A N is square and nothing is cut, else "least-squares";
    the condition estimate is the ratio of the extreme kept singular values
    of A N.
    """
    stack = _solve_stack(problem, [problem.bvp.E])
    if stack.errors[0] is not None:
        raise NumericalError(stack.errors[0])
    method = "direct" if stack.direct[0] else "least-squares"
    return SpectralSolution(stack.coefficients[0], float(stack.conditions[0]), problem, method)


@dataclass(frozen=True)
class _SolveStack:
    """The solves of one problem at K energies: (K, M) coefficients with
    NaN rows where a solve failed, the K condition estimates of A N, whether
    each solve was direct, and per energy the failure message or None."""

    coefficients: np.ndarray
    conditions: np.ndarray
    direct: np.ndarray
    errors: tuple[str | None, ...]


def _solve_stack(problem: CollocationProblem, energies) -> _SolveStack:
    """The solves of the problem at each energy. An energy whose reduced
    system A N, -A c_p is not finite fails before LAPACK sees it; the others
    take one stacked SVD, whose matrices each keep the bits of their own
    call. The boundary checks and condition estimates are array operations
    over the stack; Python only formats the failure messages."""
    bvp, null, pinv, boundary = problem.bvp, problem._null, problem._pinv, problem._boundary
    with np.errstate(over="ignore", invalid="ignore"):
        a = problem._interior.operator(energies)
        reduced = a @ null
        rhs = -_matvec(a, problem._particular)
    k, rows, cols = reduced.shape
    finite = np.isfinite(reduced).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    z = np.zeros((k, cols))
    cond = np.ones(k)
    direct = np.full(k, rows == cols)
    if rows and cols and finite.any():
        try:
            u, s, vt = np.linalg.svd(reduced[finite], full_matrices=False)
        except np.linalg.LinAlgError as err:
            raise NumericalError(f"collocation SVD failed: {err}") from err
        kept = s > _CUT * s[:, :1]
        with np.errstate(over="ignore", invalid="ignore"):
            s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
            ut_r = _matvec(u.swapaxes(-1, -2), rhs[finite])
            z[finite] = _matvec(vt.swapaxes(-1, -2), s_inv * ut_r)
        cond[finite] = s[:, 0] / np.minimum.reduce(s, axis=-1, where=kept, initial=np.inf)
        direct[finite] &= kept.all(axis=-1)

    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = problem._particular + _matvec(null, z)
        coeffs += _matvec(pinv, [bvp.y_a, bvp.y_f] - _matvec(boundary, coeffs))
        # the rounding bound of the M-term sums B c
        rounding = boundary.shape[1] * _EPS * _matvec(np.abs(boundary), np.abs(coeffs))
        solved = finite & bvp.meets(_matvec(boundary, coeffs), rounding)
    coeffs[~solved] = np.nan
    rank = null.shape[0] - cols
    errors = tuple(
        None if ok else _UNMET.format(rank, cond_k) if is_finite else _NOT_FINITE
        for ok, is_finite, cond_k in zip(solved.tolist(), finite.tolist(), cond.tolist())
    )
    return _SolveStack(coeffs, cond, direct, errors)


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


def _scan_grid(bvp: BoundaryValueProblem) -> np.ndarray:
    span = bvp.b - bvp.a
    return bvp.a + (np.arange(_SCAN_POINTS) + 0.5) * span / _SCAN_POINTS


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
    potential are built first. The K systems take the stacked path whose
    one-energy case is `solve`: one (K, rows, M) stack of interior rows,
    reduced to the boundary rows' null space, and one stacked SVD. The K
    residual norms are one stack of mat-vec products.
    A failed solve, or a residual norm that is not finite (its squares
    overflow), marks its row 'failed: <reason>' and its norm NaN.

    The first discrete minimum E_0 is refined by the vertex of the parabola
    through it and its neighbors, E_0 + (h/2) (d- - d+) / (d- + d+) in
    their rises d- > 0 and d+ >= 0 above it, so within half a step h of
    E_0; a minimum on the scan edge or next to a failed row is reported
    unrefined with status 'boundary-minimum'.
    """
    if not e_lo < e_hi:
        raise ValueError(f"need e_lo < e_hi, got {e_lo}, {e_hi}")
    if n_steps < 3:
        raise ValueError(f"need at least 3 scan steps, got {n_steps}")
    energies = np.linspace(e_lo, e_hi, n_steps)
    problem = CollocationProblem(bvp, basis)
    dense = _Tabulation.at(bvp, basis, _scan_grid(bvp))
    stack = _solve_stack(problem, energies)
    norms = dense.relative_norm(stack.coefficients, energies)
    ok = np.isfinite(norms)
    norms[~ok] = np.nan
    statuses = [
        "ok" if row_ok else f"failed: {error or _NORM_NOT_FINITE}"
        for error, row_ok in zip(stack.errors, ok.tolist())
    ]
    if not np.any(ok):
        raise NumericalError("no scan point solved successfully")
    idx = int(np.nanargmin(norms))
    refined = float(energies[idx])
    if idx == 0 or idx == n_steps - 1 or not (ok[idx - 1] and ok[idx + 1]):
        status = "boundary-minimum"
    else:
        # Python floats, whose sum overflows to inf without a warning
        rise_prev, rise_next = (norms[[idx - 1, idx + 1]] - norms[idx]).tolist()
        half_step = 0.5 * float(energies[1] - energies[0])
        refined += half_step * ((rise_prev - rise_next) / (rise_prev + rise_next))
        status = "interior"
    return EnergyScan(
        energies=energies,
        residual_norms=norms,
        statuses=tuple(statuses),
        argmin_energy=refined,
        argmin_status=status,
    )
