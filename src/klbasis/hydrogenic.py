"""Hydrogen-like radial wavefunctions and reference solutions of the
radial boundary-value problem.

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

_FINFO = np.finfo(float)

__all__ = [
    "OrbitalSpec",
    "BoundaryValueProblem",
    "NumerovSolution",
    "laguerre",
    "family_values",
    "radial_wavefunction",
    "radial_norm",
    "make_family",
    "reduced_eigenstate",
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


def make_family(n_max: int, Z: float = 1.0) -> tuple[OrbitalSpec, ...]:
    """All (n, l) orbitals with n = 1..n_max and l = 0..n-1, in that order.

    n_max = 7 gives the 28-orbital family used throughout this package.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return tuple(OrbitalSpec(n=n, l=l, Z=Z) for n in range(1, n_max + 1) for l in range(n))


@dataclass(frozen=True)
class BoundaryValueProblem:
    """The radial equation on [a, b] at fixed energy E:

        -y''/2 + [-Z/x + l(l+1)/(2 x^2)] y = E y

    with y(a) = y_a and y(b) = y_f: its domain, its boundary values, its
    energy and the V(x) that l and Z set (see `potential`).
    """

    l: int
    Z: float
    E: float
    a: float
    b: float
    y_a: float
    y_f: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if self.l < 0:
            raise ValueError(f"l must be non-negative, got {self.l}")
        if not self.Z > 0:
            raise ValueError(f"Z must be positive, got {self.Z}")

    def potential(self, x):
        """V(x): the exact -Z/x + l(l+1)/(2x^2), regularized by a fixed 1e-10
        to -Z/(x+1e-10) + l(l+1)/(2x^2+1e-10) only where that divides by
        zero: at x <= 0 and where 2x^2 underflows, where every sampled
        x R(x) is zero up to rounding. The shift at every point would add the
        growing solution at first order, above every solver's accuracy."""
        x = np.asarray(x, dtype=float)
        x2 = 2.0 * x * x
        eps = np.where((x > 0) & (x2 > 0), 0.0, 1e-10)
        with np.errstate(divide="ignore", over="ignore"):
            v = -self.Z / (x + eps) + self.l * (self.l + 1) / (x2 + eps)
        return v if v.ndim else float(v)

    def meets(self, values, rounding) -> np.ndarray:
        """Whether each (y(a), y(b)) pair, the last axis of `values`, meets
        (y_a, y_f): each end within 1e-8 max(|y_a|, |y_f|) plus `rounding`,
        the caller's bound on its rounding. The tolerance is clipped to the
        normal doubles: subnormal data carry no relative precision, and an
        overflowed or NaN value fails."""
        target = np.array([self.y_a, self.y_f])
        with np.errstate(over="ignore", invalid="ignore"):
            tol = np.clip(1e-8 * np.max(np.abs(target)) + rounding, _FINFO.tiny, _FINFO.max)
            return (np.abs(np.asarray(values) - target) <= tol).all(axis=-1)


def laguerre(k, alpha, x):
    """Generalized Laguerre polynomial L_k^alpha(x).

    Uses the stable three-term recurrence

        (i+1) L_{i+1} = (2i + 1 + alpha - x) L_i - (i + alpha) L_{i-1}

    with L_0 = 1 and L_1 = 1 + alpha - x. Accepts scalar or array x; k and
    alpha may also hold one entry per column (last axis) of x. The columns
    are sorted by descending degree once, so step i updates in place only
    the leading block of columns, those of degree above i; a column past
    its degree keeps its L_k.
    """
    degrees = np.asarray(k)
    if np.any(degrees < 0):
        raise ValueError(f"polynomial degree must be >= 0, got k={k}")
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("x must be finite")
    xs = np.atleast_1d(xa)
    degrees = np.broadcast_to(degrees, xs.shape[-1:])
    order = np.argsort(-degrees, kind="stable")
    xs, degrees = xs[..., order], degrees[order]
    al = np.broadcast_to(alpha, degrees.shape)[order]
    prev, cur = np.zeros_like(xs), np.ones_like(xs)
    for i in range(degrees.max(initial=0)):
        c = np.count_nonzero(degrees > i)
        prev_c, cur_c = prev[..., :c], cur[..., :c]
        step = (2 * i + 1 + al[:c] - xs[..., :c]) * cur_c
        step -= np.multiply(i + al[:c], prev_c, out=prev_c)
        prev_c[...] = cur_c
        np.divide(step, i + 1, out=cur_c)
    out = np.empty(xs.shape)
    out[..., order] = cur
    return out if xa.ndim else float(out[0])


def family_values(family: tuple[OrbitalSpec, ...], r) -> np.ndarray:
    """R_{nl}(r) for every orbital of the family in one pass (r >= 0, scalar
    or array, in Bohr radii): a C-ordered r.shape + (len(family),) array,
    one column per orbital in family order."""
    if not family:
        raise ValueError("family must contain at least one orbital")
    ra = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(ra)):
        raise ValueError("r must be finite")
    if np.any(ra < 0):
        raise ValueError("r must be non-negative")
    n, l, Z, log_norm = (
        np.array(col) for col in zip(*((o.n, o.l, o.Z, o.log_norm) for o in family))
    )
    rho = 2.0 * Z * ra[..., None] / n
    # N * exp(-rho/2) * rho^l in log space, since N underflows where
    # rho^l overflows
    with np.errstate(divide="ignore"):
        # l = 0 columns add 0 * 0.0, not 0 * log(0) = nan at the origin
        log_rho = np.log(rho, out=np.zeros_like(rho), where=l > 0)
        log_envelope = log_norm - rho / 2.0 + l * log_rho
    # far out L overflows, at radii where the envelope has long underflowed
    # to 0; there the orbital is 0 (a finite product keeps its sign, even -0)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(log_envelope) * laguerre(n - l - 1, 2 * l + 1, rho)
    values[~np.isfinite(values)] = 0.0
    return values


def radial_wavefunction(orb: OrbitalSpec, r):
    """Evaluate R_{nl}(r) for r >= 0 (scalar or array, in Bohr radii): the
    one-orbital case of `family_values`."""
    vals = family_values((orb,), r)[..., 0]
    return vals if vals.ndim else float(vals)


def radial_norm(orb: OrbitalSpec) -> float:
    """Quadrature of R^2 r^2 over [0, max(40n, 4n^2)/Z] by composite
    16-point Gauss-Legendre panels of width n/(4Z). The outer classical
    turning point lies at most at 2n^2/Z, and the tail past twice that is
    negligible; up to n = 10 the range is 40n/Z, where the integrand is
    below 1e-30 at the end.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    width = orb.n / (4.0 * orb.Z)
    panels = max(160, 16 * orb.n)
    edges = np.arange(panels + 1) * width
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * width
    pts = (mids[:, None] + half * nodes[None, :]).ravel()
    wts = np.broadcast_to(half * weights, (panels, nodes.size)).ravel()
    rr = radial_wavefunction(orb, pts)
    return float(np.sum(wts * rr * rr * pts * pts))


def reduced_eigenstate(orb: OrbitalSpec, b: float, y_f: float, x):
    """Closed-form reference for an eigenstate,

        y(x) = y_f (x/b)^(l+1) exp(kappa (b - x)) L(2 kappa x) / L(2 kappa b)

    with kappa = Z/n and L = L_{n-l-1}^{2l+1}: the reduced radial function
    x R_nl(x), which solves the problem exactly at E = -Z^2/(2n^2) on
    x > 0, scaled so that y(0) = 0 and y(b) = y_f.

    Raises NumericalError when b is a node of the state (L(2 kappa b) = 0,
    so no multiple of it meets y(b) = y_f) or when a value, or L(2 kappa b),
    overflows a double.
    """
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0) or np.any(xa > b):
        raise ValueError(f"x must lie in [0, {b}]")
    kappa = orb.Z / orb.n
    degree, alpha = orb.n - orb.l - 1, 2 * orb.l + 1
    at_b = 1.0  # L_0 = 1: the nodeless states, l = n - 1, take no ratio
    with np.errstate(over="ignore", invalid="ignore"):
        vals = y_f * (xa / b) ** (orb.l + 1) * np.exp(kappa * (b - xa))
        if degree > 0:
            at_b = laguerre(degree, alpha, 2.0 * kappa * b)
            if at_b == 0.0:
                raise NumericalError(f"b = {b} is a node of the {orb.label} state")
            vals = vals * (laguerre(degree, alpha, 2.0 * kappa * xa) / at_b)
    if not (math.isfinite(at_b) and np.all(np.isfinite(vals))):
        raise NumericalError(f"the closed-form {orb.label} reference overflows on [0, {b}]")
    return vals if vals.ndim else float(vals)


@dataclass(frozen=True)
class NumerovSolution:
    """Shooting result: samples y on the uniform grid x, plus diagnostics.

    `iterations` is the number of Numerov sweeps run: 0 for the trivial
    zero solution, 1 from the origin, 2 from a general left endpoint.
    """

    x: np.ndarray
    y: np.ndarray
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
    # at |E| near the largest double the coefficients overflow to inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        return x ** (l + 1) * (1.0 + x * (b1 + x * (b2 + x * b3)))


def numerov_oracle(bvp: BoundaryValueProblem, n_points: int) -> NumerovSolution:
    """Integrate the boundary-value problem with the Numerov scheme,
    fixing the initial slope by linear shooting (superposition).

    The equation is linear, so a sweep from y(a) = y_a with initial slope s
    is y = u + s v, where u is the sweep with slope 0 and v the sweep from
    y(a) = 0 with unit slope; y(b) = y_f then gives s = (y_f - u(b)) / v(b)
    directly. When the left endpoint is the origin with y(0) = 0, u vanishes
    and v starts from the regular series (for l = 0, s is the literal slope),
    so one sweep suffices; otherwise two are run. Each sweep is one blocked
    numpy scan (see _numerov_sweep). The residual that rounding in u + s v
    leaves at b is removed along v once more, and y(b) must then meet y_f by
    `BoundaryValueProblem.meets`; each failure raises NumericalError naming it.
    """
    if n_points < 1000:
        raise ValueError(f"n_points must be >= 1000, got {n_points}")
    x = np.linspace(bvp.a, bvp.b, n_points)
    h = (bvp.b - bvp.a) / (n_points - 1)
    # at |E| near the largest double g overflows before any step
    with np.errstate(over="ignore", invalid="ignore"):
        g = 2.0 * (bvp.potential(x) - bvp.E)
        incr = (h * h) * g
        coef = 1.0 - (h * h / 12.0) * g

    if bvp.y_f == 0.0 and bvp.y_a == 0.0:
        return NumerovSolution(x=x, y=np.zeros(n_points), iterations=0)
    if not (np.isfinite(g).all() and np.isfinite(incr).all() and np.isfinite(coef).all()):
        raise NumericalError(f"the Numerov coefficients overflow a double at E = {bvp.E}")
    if not abs(bvp.y_a) <= _OVERFLOW_LIMIT:
        raise NumericalError(f"y_a = {bvp.y_a} is past the sweep's limit {_OVERFLOW_LIMIT:g}")

    from_origin = bvp.a == 0.0 and bvp.y_a == 0.0
    if from_origin:
        seeds = [float(_regular_series(bvp, t)) for t in x[1:3]]
        if not any(seeds):
            raise NumericalError(
                f"the regular series x^(l+1) underflows to 0 at both start points, l = {bvp.l}"
            )
        u = np.zeros(n_points)
        v = _numerov_sweep([0.0, *seeds], coef, incr)
    else:
        u = _numerov_sweep([bvp.y_a, bvp.y_a], coef, incr)
        v = _numerov_sweep([0.0, h], coef, incr)

    v_b = float(v[-1])
    if v_b == 0.0:
        raise NumericalError("unit-slope sweep vanishes at b; no slope matches y(b)")
    # in Python floats, which overflow to inf without a warning
    slope = (float(bvp.y_f) - float(u[-1])) / v_b
    if not math.isfinite(slope):
        raise NumericalError(f"the slope (y_f - u(b)) / v(b) overflows a double, v(b) = {v_b:.3g}")
    with np.errstate(over="ignore", invalid="ignore"):
        y = u + slope * v
        correction = (bvp.y_f - float(y[-1])) / v_b
        y += correction * v
    if not np.isfinite(y).all():
        raise NumericalError("the superposed solution y = u + s v overflows a double")
    rounding = 2.0 * float(_FINFO.eps) * (abs(float(u[-1])) + abs((slope + correction) * v_b))
    if not bvp.meets([y[0], y[-1]], rounding):
        raise NumericalError(f"y(b) misses y_f: the slope underflows, v(b) = {v_b:.3g}")
    return NumerovSolution(x=x, y=y, iterations=1 if from_origin else 2)
