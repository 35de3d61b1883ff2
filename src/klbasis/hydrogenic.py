"""Hydrogen-like radial wavefunctions and reference solutions of the
regularized radial boundary-value problem.

All lengths are in Bohr radii and all energies in Hartree. The radial
functions follow the closed form

    R_{nl}(r) = N * exp(-rho/2) * rho^l * L_{n-l-1}^{2l+1}(rho)
    rho = 2 Z r / n
    N = sqrt((2Z/n)^3 * (n-l-1)! / (2n (n+l)!))

which is unit-normalized: the integral of R^2 r^2 over [0, inf) is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# Standard spectroscopic letters for l = 0..20: s p d f, then alphabetical
# from g, skipping j and the letters already used.
_SHELL_LETTERS = "spdfghiklmnoqrtuvwxyz"

__all__ = [
    "OrbitalSpec",
    "RadialFamily",
    "BoundaryValueProblem",
    "NumerovSolution",
    "laguerre",
    "radial_wavefunction",
    "radial_norm",
    "make_family",
    "reduced_ground_state",
    "numerov_oracle",
]


@dataclass(frozen=True)
class OrbitalSpec:
    """Quantum numbers (n, l) and nuclear charge Z of one radial orbital."""

    n: int
    l: int
    Z: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got n={self.n}")
        if not 0 <= self.l < self.n:
            raise ValueError(f"need 0 <= l < n, got l={self.l}, n={self.n}")
        if not self.Z > 0:
            raise ValueError(f"nuclear charge must be positive, got Z={self.Z}")

    @property
    def label(self) -> str:
        """Spectroscopic label, e.g. '1s', '3d', '10m'; past the letter
        table (l > 20) the label spells l out, e.g. '22[l=21]'."""
        if self.l < len(_SHELL_LETTERS):
            return f"{self.n}{_SHELL_LETTERS[self.l]}"
        return f"{self.n}[l={self.l}]"


@dataclass(frozen=True)
class RadialFamily:
    """An ordered collection of orbitals sampled together."""

    orbitals: tuple[OrbitalSpec, ...]

    def __post_init__(self):
        if not self.orbitals:
            raise ValueError("family must contain at least one orbital")

    @property
    def count(self) -> int:
        return len(self.orbitals)

    @property
    def labels(self) -> list[str]:
        return [orb.label for orb in self.orbitals]


def make_family(n_max: int, Z: float = 1.0) -> RadialFamily:
    """All (n, l) orbitals with n = 1..n_max and l = 0..n-1, in that order.

    n_max = 7 gives the 28-orbital family used throughout this package.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    orbitals = tuple(
        OrbitalSpec(n=n, l=l, Z=Z) for n in range(1, n_max + 1) for l in range(n)
    )
    return RadialFamily(orbitals=orbitals)


@dataclass(frozen=True)
class BoundaryValueProblem:
    """The regularized radial equation on [a, b] at fixed energy E:

        -y''/2 + [-Z/(x + eps) + l(l+1)/(2 x^2 + eps)] y = E y

    with y(a) = y_a and y(b) = y_f. The small eps keeps the potential
    finite at the origin.
    """

    l: int
    Z: float
    E: float
    a: float
    b: float
    y_a: float
    y_f: float
    epsilon: float = 1e-10

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.l < 0:
            raise ValueError(f"l must be non-negative, got {self.l}")
        if not self.Z > 0:
            raise ValueError(f"Z must be positive, got {self.Z}")

    def potential(self, x):
        """Effective potential -Z/(x+eps) + l(l+1)/(2x^2+eps)."""
        x = np.asarray(x, dtype=float)
        v = -self.Z / (x + self.epsilon)
        if self.l > 0:
            v = v + self.l * (self.l + 1) / (2.0 * x * x + self.epsilon)
        return v if v.ndim else float(v)


def laguerre(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^alpha(x).

    Uses the stable three-term recurrence

        (i+1) L_{i+1} = (2i + 1 + alpha - x) L_i - (i + alpha) L_{i-1}

    with L_0 = 1 and L_1 = 1 + alpha - x. Accepts scalar or array x.
    """
    if k < 0:
        raise ValueError(f"polynomial degree must be >= 0, got k={k}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("x must be finite")
    prev = np.zeros_like(xa)
    cur = np.ones_like(xa)
    for i in range(k):
        prev, cur = cur, ((2 * i + 1 + alpha - xa) * cur - (i + alpha) * prev) / (i + 1)
    return cur if cur.ndim else float(cur)


def radial_wavefunction(orb: OrbitalSpec, r):
    """Evaluate R_{nl}(r) for r >= 0 (scalar or array, in Bohr radii)."""
    ra = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(ra)):
        raise ValueError("r must be finite")
    if np.any(ra < 0):
        raise ValueError("r must be non-negative")
    n, l, Z = orb.n, orb.l, orb.Z
    rho = 2.0 * Z * ra / n
    # N * exp(-rho/2) * rho^l in log space: the factorials overflow a
    # double from n = 171, and N underflows where rho^l overflows.
    log_norm = 0.5 * (
        3.0 * math.log(2.0 * Z / n) + math.lgamma(n - l) - math.log(2.0 * n) - math.lgamma(n + l + 1)
    )
    with np.errstate(divide="ignore"):
        log_envelope = log_norm - rho / 2.0 + (l * np.log(rho) if l else 0.0)
    vals = np.exp(log_envelope) * laguerre(n - l - 1, 2 * l + 1, rho)
    return vals if vals.ndim else float(vals)


def radial_norm(orb: OrbitalSpec, n_gauss: int = 16) -> float:
    """Quadrature of R^2 r^2 over [0, 40n/Z] by composite Gauss-Legendre
    panels of width n/(4Z); the integrand is below 1e-30 beyond that range.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
    width = orb.n / (4.0 * orb.Z)
    edges = np.arange(161) * width
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * width
    pts = (mids[:, None] + half * nodes[None, :]).ravel()
    wts = np.broadcast_to(half * weights, (160, n_gauss)).ravel()
    rr = radial_wavefunction(orb, pts)
    return float(np.sum(wts * rr * rr * pts * pts))


def reduced_ground_state(b: float, y_f: float, x):
    """Closed-form reference y(x) = y_f (x/b) exp(b - x).

    This is the exact reduced radial ground-state solution (Z=1, l=0,
    E=-1/2, vanishing regularization) with y(0) = 0 and y(b) = y_f.
    """
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0) or np.any(xa > b):
        raise ValueError(f"x must lie in [0, {b}]")
    vals = y_f * (xa / b) * np.exp(b - xa)
    return vals if vals.ndim else float(vals)


@dataclass(frozen=True)
class NumerovSolution:
    """Shooting result: samples y on the uniform grid x, plus diagnostics.

    `iterations` is the number of Numerov sweeps run: 0 for the trivial
    zero solution, 1 from the origin, 2 from a general left endpoint.
    """

    x: np.ndarray
    y: np.ndarray
    slope: float
    iterations: int


_OVERFLOW_LIMIT = 1e250


def _numerov_sweep(start: list, coef: list, incr: list) -> list:
    """March y'' = g(x) y across the grid from the given leading samples.

    Works on the transformed variable w_n = coef[n] * y_n with
    coef[n] = 1 - (h^2/12) g(x_n) and incr[n] = h^2 g(x_n), so one step is

        w_{n+1} = 2 w_n - w_{n-1} + incr[n] * y_n.

    The update is kept in summed form (accumulating the first difference
    of w) with compensated additions: the textbook three-term form loses
    accuracy like 1/h^2 in rounding, which dominates exactly the fine
    grids this oracle exists for. Raises on overflow, which signals a
    step instability.
    """
    n = len(coef)
    y = [0.0] * n
    y[: len(start)] = start
    i0 = len(start)
    w_prev = coef[i0 - 2] * y[i0 - 2]
    w = coef[i0 - 1] * y[i0 - 1]
    y_cur = y[i0 - 1]
    d = w - w_prev
    comp_d = 0.0
    comp_w = 0.0
    for i in range(i0, n):
        t = incr[i - 1] * y_cur - comp_d
        d_new = d + t
        comp_d = (d_new - d) - t
        d = d_new
        t = d - comp_w
        w_new = w + t
        comp_w = (w_new - w) - t
        w = w_new
        y_cur = w / coef[i]
        if y_cur > _OVERFLOW_LIMIT or y_cur < -_OVERFLOW_LIMIT:
            raise NumericalError(f"Numerov step instability at grid index {i}")
        y[i] = y_cur
    return y


def _regular_series(bvp: BoundaryValueProblem, x):
    """Leading Frobenius series x^(l+1) (1 + b1 x + b2 x^2 + b3 x^3) of the
    solution regular at the origin, with unit leading amplitude.

    Used to seed the first two grid values when integrating away from the
    Coulomb/centrifugal origin, where the plain two-point start loses the
    scheme's accuracy. The O(x^4) truncation is far below the step size
    effects for any admissible grid.
    """
    l, Z, E = bvp.l, bvp.Z, bvp.E
    b1 = -Z / (l + 1.0)
    b2 = (-2.0 * Z * b1 - 2.0 * E) / (2.0 * (2.0 * l + 3.0))
    b3 = (-2.0 * Z * b2 - 2.0 * E * b1) / (3.0 * (2.0 * l + 4.0))
    return x ** (l + 1) * (1.0 + x * (b1 + x * (b2 + x * b3)))


def _oracle_potential(bvp: BoundaryValueProblem, x: np.ndarray) -> np.ndarray:
    """Potential used by the integration oracle.

    Away from the origin this is the exact -Z/x + l(l+1)/(2x^2); the
    epsilon term exists to avoid the singularity at x = 0, so it enters
    only there (where the potential value multiplies y(0) = 0 anyway).
    Folding epsilon into every point instead would shift the solution by
    a first-order-in-epsilon admixture of the growing solution, visibly
    above the oracle's own accuracy.
    """
    v = np.empty_like(x)
    pos = x > 0
    xp = x[pos]
    v[pos] = -bvp.Z / xp + bvp.l * (bvp.l + 1) / (2.0 * xp * xp)
    v[~pos] = bvp.potential(x[~pos])
    return v


def numerov_oracle(bvp: BoundaryValueProblem, n_points: int) -> NumerovSolution:
    """Integrate the boundary-value problem with the Numerov scheme,
    fixing the initial slope by linear shooting (superposition).

    The equation is linear, so a sweep from y(a) = y_a with initial slope s
    is y = u + s v, where u is the sweep with slope 0 and v the sweep from
    y(a) = 0 with unit slope; y(b) = y_f then gives s = (y_f - u(b)) / v(b)
    directly. When the left endpoint is the origin with y(0) = 0, u vanishes
    and v starts from the regular series (for l = 0, s is the literal slope),
    so one sweep suffices; otherwise two are run. The result must meet y(b)
    to 1e-12 |y_f|; if rounding in u + s v misses that, the residual is
    removed along v once more and 1e-8 |y_f| is accepted.
    """
    if n_points < 1000:
        raise ValueError(f"n_points must be >= 1000, got {n_points}")
    x = np.linspace(bvp.a, bvp.b, n_points)
    h = (bvp.b - bvp.a) / (n_points - 1)
    g = 2.0 * (_oracle_potential(bvp, x) - bvp.E)
    incr = ((h * h) * g).tolist()
    coef = (1.0 - (h * h / 12.0) * g).tolist()

    if bvp.y_f == 0.0:
        if bvp.y_a == 0.0:
            return NumerovSolution(x=x, y=np.zeros(n_points), slope=0.0, iterations=0)
        raise NumericalError("cannot shoot onto y(b) = 0 from a nonzero y(a)")

    if bvp.a == 0.0 and bvp.y_a == 0.0:
        seed1 = float(_regular_series(bvp, x[1]))
        seed2 = float(_regular_series(bvp, x[2]))
        u = np.zeros(n_points)
        v = np.asarray(_numerov_sweep([0.0, seed1, seed2], coef, incr))
        sweeps = 1
    else:
        u = np.asarray(_numerov_sweep([bvp.y_a, bvp.y_a], coef, incr))
        v = np.asarray(_numerov_sweep([0.0, h], coef, incr))
        sweeps = 2

    v_b = float(v[-1])
    slope = (bvp.y_f - float(u[-1])) / v_b if v_b != 0.0 else math.inf
    if not math.isfinite(slope):
        raise NumericalError("unit-slope sweep vanishes at b; no slope matches y(b)")
    y = u + slope * v
    if abs(y[-1] - bvp.y_f) > 1e-12 * abs(bvp.y_f):
        correction = (bvp.y_f - float(y[-1])) / v_b
        slope += correction
        y = y + correction * v
    if not abs(y[-1] - bvp.y_f) <= 1e-8 * abs(bvp.y_f):
        raise NumericalError("superposed sweeps do not match y(b)")
    return NumerovSolution(x=x, y=y, slope=slope, iterations=sweeps)
