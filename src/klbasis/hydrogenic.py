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
    "family_values",
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
    def log_norm(self) -> float:
        """log N of the closed form; in log space because the factorials
        overflow a double from n = 171."""
        n, l, Z = self.n, self.l, self.Z
        return 0.5 * (
            3.0 * math.log(2.0 * Z / n) + math.lgamma(n - l)
            - math.log(2.0 * n) - math.lgamma(n + l + 1)
        )

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


def laguerre(k, alpha, x):
    """Generalized Laguerre polynomial L_k^alpha(x).

    Uses the stable three-term recurrence

        (i+1) L_{i+1} = (2i + 1 + alpha - x) L_i - (i + alpha) L_{i-1}

    with L_0 = 1 and L_1 = 1 + alpha - x. Accepts scalar or array x; k and
    alpha may also hold one entry per column (last axis) of x. The columns
    are sorted by descending degree once, so step i updates only the
    leading block of columns whose degree exceeds i.
    """
    degrees = np.asarray(k)
    if np.any(degrees < 0):
        raise ValueError(f"polynomial degree must be >= 0, got k={k}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("x must be finite")
    shape = xa.shape or (1,)
    xs = xa.reshape(math.prod(shape[:-1]), shape[-1]).T  # one row per column of x
    degrees = np.broadcast_to(degrees, xs.shape[:1])
    order = np.argsort(-degrees, kind="stable")
    xs, degrees = np.ascontiguousarray(xs[order]), degrees[order]
    al = np.broadcast_to(alpha, degrees.shape)[order][:, None]
    # active[i]: the number of leading rows with degree > i
    active = np.searchsorted(-degrees, -np.arange(degrees.max(initial=0)))
    prev, cur = np.zeros_like(xs), np.ones_like(xs)
    tmp, finished = np.empty_like(xs), np.empty_like(xs)
    n_active = len(degrees)
    for i, c in enumerate(active):
        # rows of degree i hold L_i in cur and take no further steps
        finished[c:n_active] = cur[c:n_active]
        n_active = c
        step = np.subtract(2 * i + 1 + al[:c], xs[:c], out=tmp[:c])
        step *= cur[:c]
        step -= np.multiply(i + al[:c], prev[:c], out=prev[:c])
        np.divide(step, i + 1, out=prev[:c])
        prev, cur = cur, prev
    finished[:n_active] = cur[:n_active]
    out = np.empty_like(finished)
    out[order] = finished
    out = np.ascontiguousarray(out.T).reshape(xa.shape)
    return out if out.ndim else float(out)


def family_values(family: RadialFamily, r) -> np.ndarray:
    """R_{nl}(r) for every orbital of the family in one pass (r >= 0, scalar
    or array, in Bohr radii): a C-ordered r.shape + (family.count,) array,
    one column per orbital in family order."""
    ra = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(ra)):
        raise ValueError("r must be finite")
    if np.any(ra < 0):
        raise ValueError("r must be non-negative")
    n, l, Z, log_norm = (
        np.array(col) for col in zip(*((o.n, o.l, o.Z, o.log_norm) for o in family.orbitals))
    )
    rho = 2.0 * Z * ra[..., None] / n
    # N * exp(-rho/2) * rho^l in log space, since N underflows where
    # rho^l overflows
    with np.errstate(divide="ignore"):
        # l = 0 columns add 0 * 0.0, not 0 * log(0) = nan at the origin
        log_rho = np.log(rho, out=np.zeros_like(rho), where=l > 0)
        log_envelope = log_norm - rho / 2.0 + l * log_rho
    return np.exp(log_envelope) * laguerre(n - l - 1, 2 * l + 1, rho)


def radial_wavefunction(orb: OrbitalSpec, r):
    """Evaluate R_{nl}(r) for r >= 0 (scalar or array, in Bohr radii): the
    one-orbital case of `family_values`."""
    vals = family_values(RadialFamily((orb,)), r)[..., 0]
    return vals if vals.ndim else float(vals)


def radial_norm(orb: OrbitalSpec, n_gauss: int = 16) -> float:
    """Quadrature of R^2 r^2 over [0, max(40n, 4n^2)/Z] by composite
    Gauss-Legendre panels of width n/(4Z). The outer classical turning
    point lies at most at 2n^2/Z, and the tail past twice that is
    negligible; up to n = 10 the range is 40n/Z, where the integrand is
    below 1e-30 at the end.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
    width = orb.n / (4.0 * orb.Z)
    panels = max(160, 16 * orb.n)
    edges = np.arange(panels + 1) * width
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * width
    pts = (mids[:, None] + half * nodes[None, :]).ravel()
    wts = np.broadcast_to(half * weights, (panels, n_gauss)).ravel()
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

    def at(self, x):
        """Cubic read-out of y at x in [a, b] (scalar or array): 4-point
        Lagrange interpolation on the grid, centred on the cell that holds x
        and one-sided in the first and last cells. A point on a grid node
        returns that node's sample exactly. No extrapolation.

        Its O(h^4) error matches the Numerov scheme's own, so a coarse grid
        read this way is as accurate as a far finer one read linearly."""
        xa = np.asarray(x, dtype=float)
        n = self.x.size
        if not np.all((xa >= self.x[0]) & (xa <= self.x[-1])):
            raise ValueError(f"x must lie in [{self.x[0]}, {self.x[-1]}]; no extrapolation")
        # x[cell] <= x < x[cell + 1], or cell = n - 1 at x = b
        cell = np.searchsorted(self.x, xa, side="right") - 1
        k = np.clip(cell - 1, 0, n - 4)
        # s is x in steps h from node k; the stencil is nodes k .. k+3
        h = (self.x[-1] - self.x[0]) / (n - 1)
        s = (xa - self.x[k]) / h
        s1, s2, s3 = s - 1.0, s - 2.0, s - 3.0
        y0, y1, y2, y3 = (self.y[k + j] for j in range(4))
        cubic = (s1 * s2 * (s * y3 - s3 * y0) / 6.0) + (s * s3 * (s2 * y1 - s1 * y2) / 2.0)
        vals = np.where(self.x[cell] == xa, self.y[cell], cubic)
        return vals if vals.ndim else float(vals)


_OVERFLOW_LIMIT = 1e250

# Steps per block of the Numerov sweep. The K = steps/_BLOCK blocks are
# marched in lockstep, so one sweep costs _BLOCK vector steps on (2, K)
# arrays plus K scalar 2x2 steps; about 128 balances the two at 1e5 grid
# points. At the CLI reference's 2e4 points a block of about 48 would be
# quickest, but saves only about 0.3 ms of a 2 ms call.
_BLOCK = 128


def _numerov_sweep(start: list, coef: np.ndarray, incr: np.ndarray) -> np.ndarray:
    """March y'' = g(x) y across the grid from the given leading samples.

    Works on the transformed variable w_n = coef[n] * y_n with
    coef[n] = 1 - (h^2/12) g(x_n) and incr[n] = h^2 g(x_n), so one step is

        w_{n+1} = 2 w_n - w_{n-1} + incr[n] * y_n.

    The update is kept in summed form (accumulating the first difference
    d of w) with compensated additions: the textbook three-term form loses
    accuracy like 1/h^2 in rounding, which dominates exactly the fine
    grids this oracle exists for.

    The step is linear in the state (w, d), so it is run as a blocked
    scan: the steps are cut into blocks of _BLOCK, and all blocks march in
    lockstep from the two unit states (1, 0) and (0, 1), giving w-values
    W1, W2 and a 2x2 transfer matrix per block. Chaining those matrices
    from the true start state gives each block's entry state (alpha, beta),
    and y = (alpha W1 + beta W2) / coef on the block. Raises on overflow
    past 1e250, which signals a step instability, naming the first grid
    index past it.
    """
    n = coef.size
    i0 = len(start)
    steps = n - i0
    blocks = -(-steps // _BLOCK)
    # step i reads coef/incr at i - 1 and writes y at i; padded steps
    # (incr 0, coef 1) only fill the last block and are dropped
    pad = blocks * _BLOCK - steps
    c_prev = np.concatenate([coef[i0 - 1 : n - 1], np.ones(pad)]).reshape(blocks, _BLOCK).T
    g_prev = np.concatenate([incr[i0 - 1 : n - 1], np.zeros(pad)]).reshape(blocks, _BLOCK).T
    # row 0 starts every block from (w, d) = (1, 0), row 1 from (0, 1)
    w = np.zeros((2, blocks))
    d = np.zeros((2, blocks))
    w[0] = d[1] = 1.0
    comp_w = np.zeros_like(w)
    comp_d = np.zeros_like(d)
    W = np.empty((2, _BLOCK, blocks))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(_BLOCK):
            t = g_prev[j] * (w / c_prev[j]) - comp_d
            d_new = d + t
            comp_d = (d_new - d) - t
            d = d_new
            t = d - comp_w
            w_new = w + t
            comp_w = (w_new - w) - t
            w = w_new
            W[:, j] = w
        # block k maps its entry state (a, b) to (a, b) + (T - I)(a, b), with
        # T = [[w1, w2], [d1, d2]] read off the unit sweeps net of their
        # compensation terms; on fine grids the increment is small next to
        # (a, b), so adding it with compensation, as the sweep does, rounds
        # the chained state no worse than the per-point sweep would
        ew1 = ((w[0] - 1.0) - comp_w[0]).tolist()
        w2 = (w[1] - comp_w[1]).tolist()
        d1 = (d[0] - comp_d[0]).tolist()
        ed2 = ((d[1] - 1.0) - comp_d[1]).tolist()
        alpha = np.empty(blocks)
        beta = np.empty(blocks)
        a = float(coef[i0 - 1] * start[-1])
        b = a - float(coef[i0 - 2] * start[-2])
        ca = cb = 0.0
        for k in range(blocks):
            alpha[k] = a
            beta[k] = b
            ta = (ew1[k] * a + w2[k] * b) - ca
            tb = (d1[k] * a + ed2[k] * b) - cb
            a_new = a + ta
            ca = (a_new - a) - ta
            b_new = b + tb
            cb = (b_new - b) - tb
            a, b = a_new, b_new
        y = np.empty(n)
        y[:i0] = start
        y[i0:] = (alpha * W[0] + beta * W[1]).T.ravel()[:steps] / coef[i0:]
    # NaN, from inf - inf once the growing solution overflowed, is past too
    past = np.flatnonzero(~(np.abs(y) <= _OVERFLOW_LIMIT))
    if past.size:
        raise NumericalError(f"Numerov step instability at grid index {past[0]}")
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
    """Potential used by the integration oracle on the ascending grid x.

    Away from the origin this is the exact -Z/x + l(l+1)/(2x^2); the
    epsilon term exists to avoid the singularity at x = 0, so it enters
    only there (where the potential value multiplies y(0) = 0 anyway).
    Folding epsilon into every point instead would shift the solution by
    a first-order-in-epsilon admixture of the growing solution, visibly
    above the oracle's own accuracy.
    """
    k = int(np.searchsorted(x, 0.0, side="right"))
    xp = x[k:]
    v = np.empty_like(x)
    v[:k] = bvp.potential(x[:k])
    np.divide(-bvp.Z, xp, out=v[k:])
    v[k:] += bvp.l * (bvp.l + 1) / (2.0 * xp * xp)
    return v


def numerov_oracle(bvp: BoundaryValueProblem, n_points: int) -> NumerovSolution:
    """Integrate the boundary-value problem with the Numerov scheme,
    fixing the initial slope by linear shooting (superposition).

    The equation is linear, so a sweep from y(a) = y_a with initial slope s
    is y = u + s v, where u is the sweep with slope 0 and v the sweep from
    y(a) = 0 with unit slope; y(b) = y_f then gives s = (y_f - u(b)) / v(b)
    directly. When the left endpoint is the origin with y(0) = 0, u vanishes
    and v starts from the regular series (for l = 0, s is the literal slope),
    so one sweep suffices; otherwise two are run. Each sweep is one blocked
    numpy scan (see _numerov_sweep). The result must meet y(b) to
    1e-12 |y_f|; if rounding in u + s v misses that, the residual is
    removed along v once more and 1e-8 |y_f| is accepted.
    """
    if n_points < 1000:
        raise ValueError(f"n_points must be >= 1000, got {n_points}")
    x = np.linspace(bvp.a, bvp.b, n_points)
    h = (bvp.b - bvp.a) / (n_points - 1)
    g = 2.0 * (_oracle_potential(bvp, x) - bvp.E)
    incr = (h * h) * g
    coef = 1.0 - (h * h / 12.0) * g

    if bvp.y_f == 0.0:
        if bvp.y_a == 0.0:
            return NumerovSolution(x=x, y=np.zeros(n_points), slope=0.0, iterations=0)
        raise NumericalError("cannot shoot onto y(b) = 0 from a nonzero y(a)")

    if bvp.a == 0.0 and bvp.y_a == 0.0:
        seed1 = float(_regular_series(bvp, x[1]))
        seed2 = float(_regular_series(bvp, x[2]))
        u = np.zeros(n_points)
        v = _numerov_sweep([0.0, seed1, seed2], coef, incr)
        sweeps = 1
    else:
        u = _numerov_sweep([bvp.y_a, bvp.y_a], coef, incr)
        v = _numerov_sweep([0.0, h], coef, incr)
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
