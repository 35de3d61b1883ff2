"""Collocation solver for the regularized radial boundary-value problem
in a truncated basis of interpolated modes.

The unknown is expanded as y(x) = sum_i c_i phi_i(x); the differential
equation is imposed at interior collocation points and the two boundary
values close the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .basisfn import BasisFunction
from .errors import NumericalError
from .hydrogenic import BoundaryValueProblem

__all__ = [
    "CollocationProblem",
    "SpectralSolution",
    "EnergyScan",
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
_WEIGHT_NOT_FINITE = "the collocation row norms overflow"  # so would the weighted solve
_WEIGHTED_NOT_FINITE = "the weighted boundary values overflow"  # gelsd would return NaN
_NORM_NOT_FINITE = "the residual norm is not finite"
_SCAN_POINTS = 201


def _pow2_scaled(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v with each row (last axis) divided by the power of two 2**e that
    brings its largest magnitude into [0.5, 1), and the exponents e. The
    division is exact, so a norm of the result is the row's norm over 2**e
    to the bit, and no square of it overflows."""
    _, exp = np.frexp(np.max(np.abs(v), axis=-1, keepdims=True, initial=0.0))
    return np.ldexp(v, -exp), exp[..., 0]


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
        defect where y is zero. The rows are power-of-two scaled first
        (`_pow2_scaled`), so the squares cannot overflow; not finite only
        where the defect or y, or the ratio itself, is not."""
        res, y = self.defect(coefficients, energy)
        with np.errstate(over="ignore", invalid="ignore"):
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
    for a basis built on a wider domain). It tabulates the basis there and
    at a and b; none of it depends on E."""

    bvp: BoundaryValueProblem
    basis: BasisFunction
    interior_points: np.ndarray = field(init=False)
    _interior: _Tabulation = field(init=False, repr=False, compare=False)
    _boundary: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "interior_points", pts)
        object.__setattr__(self, "_interior", _Tabulation.at(bvp, basis, pts))
        object.__setattr__(self, "_boundary", basis.eval([bvp.a, bvp.b]))

    @property
    def n_modes(self) -> int:
        return self.basis.samples.shape[1]


# the name the library examples build a problem by
make_collocation_problem = CollocationProblem


def _stack(problem: CollocationProblem, energies) -> tuple[np.ndarray, np.ndarray]:
    """`assemble`'s matrix at K energies as one (K, rows, M) stack, and its rhs."""
    interior = problem._interior.operator(energies)
    k, n_interior, m = interior.shape
    stack = np.empty((k, n_interior + 2, m))
    stack[:, :-2] = interior
    stack[:, -2:] = problem._boundary
    rhs = np.zeros(n_interior + 2)
    rhs[-2:] = problem.bvp.y_a, problem.bvp.y_f
    return stack, rhs


def assemble(problem: CollocationProblem) -> tuple[np.ndarray, np.ndarray]:
    """The collocation matrix and right-hand side, interior rows first. Rows
    for interior points x_j:

        A[j, i] = -phi_i''(x_j)/2 + [V(x_j) - E] phi_i(x_j),  rhs 0,

    with V the regularized potential; then one row per boundary condition
    pinning y(a) = y_a and y(b) = y_f. Only the (V - E) diagonal is formed
    per call: the one-energy case of the stack `solve` and the scan build.
    """
    stack, rhs = _stack(problem, [problem.bvp.E])
    return stack[0], rhs


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

    The one-energy case of `energy_scan`'s stacked path: per call only the
    (V - E) diagonal is formed, a square matrix gated by its singular values,
    solved by the same stacked LAPACK call a scan makes for all of its
    energies, and its boundary values checked against the problem's.

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
    result = _solve_stack(problem, [problem.bvp.E])[0]
    if isinstance(result, NumericalError):
        raise result
    coeffs, cond, method = result
    return SpectralSolution(coeffs, cond, problem, method)


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.linalg.lstsq(a[k], b[k], rcond=1e-14)` for every k of a (K, rows, M)
    stack: the (K, M) solutions and the (K, min(rows, M)) singular values.

    It calls the LAPACK gelsd gufunc that `lstsq` itself calls, broadcast over
    the stack, so each row keeps the bits of its single call, and it raises
    `LinAlgError` on a LAPACK failure as `lstsq` does."""
    with np.errstate(
        call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        x, _, _, sv = _umath_linalg.lstsq(a, b[..., None], _SINGULAR_GATE, signature="ddd->ddid")
    return x[..., 0], sv


def _solve_stack(problem: CollocationProblem, energies) -> list:
    """Per energy, (coefficients, condition estimate, method) or the
    `NumericalError` that stopped it.

    A matrix that is not finite, or whose largest interior row norm (the
    boundary weight's scale) overflows, fails before LAPACK sees it; in a
    square stack one stacked SVD gates the others. The square matrices
    that pass the gate take one stacked `np.linalg.solve`, the rest one
    stacked weighted least-squares call (`_lstsq`), unless their weighted
    right-hand side overflows; each matrix gets the bits its own `solve`
    or `lstsq` call would give. A solve counts only where both boundary
    values come out within tolerance, so a NaN fails. A non-square stack
    takes singular values only for the failure messages of the matrices
    that miss their boundary values. The boundary checks and condition
    estimates are array operations over the stack, so Python only builds
    the result list and the failure messages."""
    stack, rhs = _stack(problem, energies)
    n_rows, m = stack.shape[1:]
    if n_rows > 2:
        interior = stack[:, :-2]
        # np.linalg.norm's own formula for row 2-norms, without its call overhead
        with np.errstate(over="ignore"):
            row_scale = np.sqrt((interior * interior).sum(axis=-1)).max(axis=-1)
    else:
        row_scale = np.ones(len(stack))
    # the basis values at a and b are finite (BasisFunction raises otherwise),
    # so a NaN or inf entry of a matrix makes its row scale non-finite too
    solvable = np.isfinite(row_scale)
    square = n_rows == m
    sv = np.full((len(stack), min(n_rows, m)), np.nan)
    if square:
        sv[solvable] = np.linalg.svd(stack[solvable], compute_uv=False)

    # rows without singular values have NaN ones, which compare False
    direct = sv[:, -1] >= _SINGULAR_GATE * sv[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        weight = _BOUNDARY_WEIGHT * row_scale
        # rhs is zero outside the boundary rows, so scaling all of it
        # weights just those
        rhs_w = weight[:, None] * rhs
    weighted = solvable & ~direct
    overflow = weighted & ~np.isfinite(rhs_w).all(axis=-1)
    weighted &= ~overflow
    coeffs = np.full((len(stack), m), np.nan)
    cond = np.full(len(stack), np.nan)
    if np.count_nonzero(direct):
        coeffs[direct] = np.linalg.solve(stack[direct], rhs)
        cond[direct] = sv[direct, 0] / sv[direct, -1]
    if np.count_nonzero(weighted):
        Aw = stack[weighted]
        Aw[:, -2:] *= weight[weighted, None, None]
        coeffs[weighted], svw = _lstsq(Aw, rhs_w[weighted])
        kept = svw >= _SINGULAR_GATE * svw[:, :1]
        cond[weighted] = svw[:, 0] / np.minimum.reduce(svw, axis=-1, where=kept, initial=np.inf)

    tol = _BOUNDARY_TOL * max(1.0, abs(problem.bvp.y_f))
    with np.errstate(over="ignore", invalid="ignore"):
        y = (problem._boundary @ coeffs[..., None])[..., 0]
        met = (np.abs(y - rhs[-2:]) <= tol).all(axis=-1)
    missed = (direct | weighted) & ~met
    if not square and missed.any():
        sv[missed] = np.linalg.svd(stack[missed], compute_uv=False)
    results = []
    rows = zip(*(a.tolist() for a in (solvable, overflow, missed, direct, cond)))
    for k, (ok, over, miss, is_direct, cond_k) in enumerate(rows):
        if not ok:
            finite = np.isfinite(stack[k]).all()
            results.append(NumericalError(_WEIGHT_NOT_FINITE if finite else _NOT_FINITE))
        elif over:
            results.append(NumericalError(_WEIGHTED_NOT_FINITE))
        elif miss:
            results.append(
                NumericalError(
                    f"boundary conditions not met; the collocation matrix is numerically "
                    f"singular as posed (sigma_min/sigma_max = {sv[k, -1] / sv[k, 0]:.2e})"
                )
            )
        else:
            results.append((coeffs[k], cond_k, "direct" if is_direct else "least-squares"))
    return results


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
    one-energy case is `solve`: one (K, rows, M) stack, one row-norm gate
    and, for square matrices, one SVD gate, then one stacked direct solve
    and one stacked weighted least-squares call, each over the matrices that
    take that path. The K residual norms are one stack of mat-vec products.
    A failed solve, or a residual norm that is not finite (its squares
    overflow), marks its row 'failed: <reason>' and its norm NaN.

    The discrete minimum is refined by the vertex of the parabola through
    it and its neighbors; a minimum on the scan edge is reported with
    status 'boundary-minimum' instead.
    """
    if not e_lo < e_hi:
        raise ValueError(f"need e_lo < e_hi, got {e_lo}, {e_hi}")
    if n_steps < 3:
        raise ValueError(f"need at least 3 scan steps, got {n_steps}")
    energies = np.linspace(e_lo, e_hi, n_steps)
    problem = CollocationProblem(bvp, basis)
    dense = _Tabulation.at(bvp, basis, _scan_grid(bvp))
    coeffs = np.full((n_steps, problem.n_modes), np.nan)
    results = _solve_stack(problem, energies)
    for k, result in enumerate(results):
        if not isinstance(result, NumericalError):
            coeffs[k] = result[0]
    norms = dense.relative_norm(coeffs, energies)
    ok = np.isfinite(norms)
    norms[~ok] = np.nan
    statuses = []
    for result, row_ok in zip(results, ok.tolist()):
        if isinstance(result, NumericalError):
            statuses.append(f"failed: {result}")
        else:
            statuses.append("ok" if row_ok else f"failed: {_NORM_NOT_FINITE}")
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
