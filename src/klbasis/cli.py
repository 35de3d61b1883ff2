"""Command-line front end for the basis-construction and solver pipeline.

Subcommands:

    gen-basis      samples.csv, covariance.csv, eigenvalues.csv, basis.csv, basis.json
    solve          solution.csv, residual.csv, report.json
    scan-energy    scan.csv, report.json
    compare-bases  comparison.csv

Configuration is a single JSON document whose keys, defaults and checks
form one table, `_SCHEMA`; ``--config`` points at it and ``--out-dir`` /
``--seed`` override the corresponding entries. Each subcommand returns its
artifacts and `main` writes them. Exit codes: 0 success, 1 a usage or
configuration error or an artifact the OS refuses to write, 2 a classified
numerical failure (`NumericalError`) or an allocation the host refuses;
any other exception is a defect and propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import json
import math
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import basisfn, csvio, klcore, sampling, spectral
from .errors import ConfigError, NumericalError
from .hydrogenic import (
    BoundaryValueProblem,
    OrbitalSpec,
    make_family,
    numerov_oracle,
    reduced_eigenstate,
)

# -- configuration ------------------------------------------------------------
# Each check takes a value as written and its dotted key name, and raises
# ConfigError if the value is unusable; none rewrites the value.


def _json(value) -> str:
    """A config value as JSON writes it (null, true, "text"), for messages."""
    return json.dumps(value, default=repr)


def _number(value, name: str) -> float:
    """A finite JSON number, within a double's range; booleans are not
    numbers here."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{name} must be a finite number, got {_json(value)}")
    return float(value)


def _integer(value, name: str) -> int:
    """A whole number of magnitude at most 2**53 - 1: the integers a double
    holds exactly, the range I-JSON (RFC 7493) calls interoperable."""
    number = _number(value, name)
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {_json(value)}")
    if abs(number) > 2**53 - 1:
        raise ConfigError(f"{name} must be at most 2**53 - 1 in magnitude, got {_json(value)}")
    return int(value)


def _at_least(low, kind=_integer, why: str = "") -> Callable:
    def check(value, name: str) -> None:
        number = kind(value, name)
        if number < low:
            raise ConfigError(f"{name} must be >= {low}{why}, got {number}")

    return check


def _positive(value, name: str) -> None:
    if not _number(value, name) > 0:
        raise ConfigError(f"{name} must be positive, got {value}")


def _one_of(*choices: str) -> Callable:
    def check(value, name: str) -> None:
        if value not in choices:
            raise ConfigError(f"unknown {name} {_json(value)}")

    return check


def _energy_range(value, name: str) -> None:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be [lo, hi], got {_json(value)}")
    lo, hi = _number(value[0], f"{name}[0]"), _number(value[1], f"{name}[1]")
    if not lo < hi:
        raise ConfigError(f"{name} must have lo < hi, got {_json(value)}")
    # the scan steps by (hi - lo) / (n_steps - 1)
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{name} must have a finite width hi - lo, got {_json(value)}")


def _directory(value, name: str) -> None:
    """A string naming a directory that exists or can be created: no NUL
    character (`Path.exists` reports such a path as missing), and neither
    it nor any parent may be an existing non-directory or a path the OS
    refuses to look up (a component too long, say)."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {_json(value)}")
    if "\0" in value:
        raise ConfigError(f"{name} must not contain a NUL character, got {_json(value)}")
    for path in (Path(value), *Path(value).parents):
        try:
            blocked = path.exists() and not path.is_dir()
        except OSError as err:
            raise ConfigError(f"{name} cannot be created: {err.strerror}") from None
        if blocked:
            raise ConfigError(f"{name} cannot be created: {path} exists and is not a directory")


# Every config key: (dotted name, default, check). The defaults reproduce
# the 28-orbital experiment; a name without a dot is a top-level key.
_SCHEMA = (
    ("family.n_max", 7, _at_least(2, why="; a single orbital centers to zero")),
    ("family.Z", 1.0, _positive),
    ("sampling.kind", "uniform", _one_of(*sampling.GRID_KINDS)),
    ("sampling.N_s", 20, _at_least(2)),
    ("sampling.a", 0.0, _at_least(0, _number, "; orbitals are sampled at radii r >= 0")),
    ("sampling.b", 40.0, _number),
    ("truncation.criterion", "fixed_m", _one_of("fixed_m", "energy_fraction")),
    ("truncation.value", 8, _number),
    ("problem.n", 1, _at_least(1)),
    ("problem.l", 0, _at_least(0)),
    ("problem.E", -0.5, _number),
    ("problem.E_range", [-0.7, -0.3], _energy_range),
    ("problem.n_steps", 41, _at_least(3)),
    ("problem.a", 0.0, _number),
    ("problem.b", 7.0, _number),
    ("problem.y_a", 0.0, _number),
    ("problem.y_f", 1e-4, _number),
    ("output.directory", "out", _directory),
    ("output.export_points", 201, _at_least(2)),
    ("seed", 20080556, _at_least(0)),
)


def _nested(values) -> dict:
    """(dotted name, value) pairs as a config document."""
    doc: dict = {}
    for name, value in values:
        section, _, key = name.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


DEFAULT_CONFIG = _nested((name, default) for name, default, _ in _SCHEMA)


def load_config(path: str | None, out_dir: str | None = None, seed: int | None = None) -> dict:
    """Read the config file, apply the defaults and the command-line
    overrides, and validate everything the run will rely on: the
    `validate_config` document. Raises ConfigError before any computation."""
    user = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError, int digit limit
            raise ConfigError(f"config file is not valid JSON: {err}") from err
    overrides = {"output.directory": out_dir, "seed": seed}
    return validate_config(user, {k: v for k, v in overrides.items() if v is not None})


def validate_config(doc: dict, overrides: dict | None = None) -> dict:
    """Apply the defaults to a config document and check it: first its
    shape (no unknown key, every section an object), then each value,
    with `overrides` (dotted name -> value) taking the place of the
    document's, then the checks that relate several keys. Returns the
    complete document, every key in `_SCHEMA` order: the run's config,
    which its reports and `basis.json` copy as they are."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    values = {name: default for name, default, _ in _SCHEMA}
    for key, value in doc.items():
        if isinstance(DEFAULT_CONFIG.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be a JSON object")
            given = {f"{key}.{sub}": leaf for sub, leaf in value.items()}
        else:
            given = {key: value}
        for name, leaf in given.items():
            if name not in values:
                raise ConfigError(f"unknown config key {name!r}")
            values[name] = leaf
    values.update(overrides or {})
    for name, _, check in _SCHEMA:
        check(values[name], name)
    cfg = _nested((name, copy.deepcopy(value)) for name, value in values.items())

    samp, trunc, prob = cfg["sampling"], cfg["truncation"], cfg["problem"]
    if not samp["a"] < samp["b"]:
        raise ConfigError("sampling requires a < b")
    if trunc["criterion"] == "fixed_m":
        if not 1 <= _integer(trunc["value"], "truncation.value") <= samp["N_s"]:
            raise ConfigError(f"truncation.value must be in [1, N_s], got {trunc['value']}")
    elif not 0.0 < trunc["value"] <= 1.0:
        raise ConfigError(f"truncation.value must be in (0, 1], got {trunc['value']}")
    if not prob["l"] < prob["n"]:
        raise ConfigError(f"problem quantum numbers need l < n, got l={prob['l']}, n={prob['n']}")
    # the orbitals are evaluated at rho = 2 Z r / n, up to 2 Z b
    Z = cfg["family"]["Z"]
    if not math.isfinite(2.0 * Z * samp["b"]):
        raise ConfigError(f"sampling.b must keep 2*Z*b finite, got b={samp['b']}, Z={Z}")
    if not prob["a"] < prob["b"]:
        raise ConfigError("problem requires a < b")
    if prob["a"] < samp["a"] or prob["b"] > samp["b"]:
        raise ConfigError(
            f"problem domain [a, b] = [{prob['a']}, {prob['b']}] must lie within the sampling "
            f"domain [{samp['a']}, {samp['b']}]; the basis cannot be evaluated outside it"
        )
    return cfg


# -- pipeline pieces ----------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    family: tuple[OrbitalSpec, ...]
    samples: np.ndarray
    centered: np.ndarray
    K: np.ndarray
    basis: klcore.KLBasis
    truncated: klcore.KLBasis
    interpolant: basisfn.BasisFunction


def run_pipeline(config: dict) -> PipelineResult:
    """Samples -> centering -> covariance -> eigenbasis -> truncation ->
    interpolated basis functions."""
    fam, samp, trunc = config["family"], config["sampling"], config["truncation"]
    n_max, n_s = int(fam["n_max"]), int(samp["N_s"])
    # sized before the family is built, so one the host cannot hold fails at once
    try:
        samples = np.empty((n_s, n_max * (n_max + 1) // 2))
    except ValueError as err:  # past the largest array numpy can index
        raise MemoryError(str(err)) from err
    family = make_family(n_max, float(fam["Z"]))
    points = sampling.make_grid(samp["kind"], n_s, float(samp["a"]), float(samp["b"]))
    sampling.build_sample_matrix(family, points, out=samples)
    centered = klcore.center_columns(samples)
    K = klcore.covariance(centered)
    trace = float(np.trace(K))
    if not trace > 0.0:
        raise NumericalError(f"the sample covariance has trace {trace}, so it defines no basis")
    basis = klcore.eig_sym(K, points)
    if trunc["criterion"] == "fixed_m":
        m = int(trunc["value"])
    else:
        m = klcore.energy_fraction_modes(basis, float(trunc["value"]))
    truncated = klcore.truncate_basis(basis, m)
    return PipelineResult(
        family=family, samples=samples, centered=centered, K=K, basis=basis,
        truncated=truncated, interpolant=basisfn.interpolate(truncated),
    )


def problem_from_config(config: dict) -> BoundaryValueProblem:
    prob = config["problem"]
    return BoundaryValueProblem(
        l=int(prob["l"]),
        Z=float(config["family"]["Z"]),
        E=float(prob["E"]),
        a=float(prob["a"]),
        b=float(prob["b"]),
        y_a=float(prob["y_a"]),
        y_f=float(prob["y_f"]),
    )


def _unit_problem(config: dict) -> tuple[BoundaryValueProblem, int]:
    """The config's problem with y_a and y_f divided by the power of two 2**e
    that brings the larger into [0.5, 1), and e. The problem is linear, so
    its solution times 2**e (`np.ldexp`, exact) is the config's."""
    bvp = problem_from_config(config)
    _, exp = math.frexp(max(abs(bvp.y_a), abs(bvp.y_f)))
    return replace(bvp, y_a=math.ldexp(bvp.y_a, -exp), y_f=math.ldexp(bvp.y_f, -exp)), exp


# Grid points of the Numerov reference
_ORACLE_POINTS = 20_000


def _mid_window(
    config: dict, bvp: BoundaryValueProblem
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray], str]:
    """The 201 points where errors are reported, on a window bounded by
    fixed fractions of the domain ([0.5, 5] for the reproduction on [0, 7]),
    the reference there, and the reference as a function of x with its kind.
    It is zero ("trivial") when y_a = y_f = 0. From the origin with y(0) = 0
    at E == -Z^2/(2n^2) exactly, n being `problem.n`, it is the closed-form
    eigenstate (`reduced_eigenstate`, which raises NumericalError when b is
    one of its nodes). Otherwise it is the Numerov oracle, integrated once
    here on 2e4 points and read cubically at each call. The cubic read-out's
    O(h^4) error matches the scheme's own, so this grid gives a reference
    good to about 1e-12 after the scale fit; 1e5 points read linearly cost
    five times the sweep for about 1e-9."""
    span = bvp.b - bvp.a
    xm = np.linspace(bvp.a + (1.0 / 14.0) * span, bvp.a + (5.0 / 7.0) * span, 201)
    n = int(config["problem"]["n"])
    if bvp.y_f == 0.0 and bvp.y_a == 0.0:
        reference, kind = np.zeros_like, "trivial"
    elif bvp.a == 0.0 and bvp.y_a == 0.0 and bvp.E == -(bvp.Z * bvp.Z) / (2 * n * n):
        orbital = OrbitalSpec(n, bvp.l, bvp.Z)
        reference = functools.partial(reduced_eigenstate, orbital, bvp.b, bvp.y_f)
        kind = "closed-form"
    else:
        reference, kind = numerov_oracle(bvp, _ORACLE_POINTS).at, "numerov"
    return xm, reference(xm), reference, kind


def _mid_errors(y: np.ndarray, ref: np.ndarray) -> tuple[float | None, float | None]:
    """Relative L2 errors of y against ref, after a least-squares fit of the
    solution's free global coefficient (the boundary value only sets the
    scale) and raw. ref is divided by the power of two that brings it into
    [0.5, 1), y by the same for the raw error and by its own for the fit, so
    no square overflows. None where ref, or y for the fit, is zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        ref, exp = spectral._pow2_scaled(ref)
        denom = float(np.linalg.norm(ref))
        if denom == 0.0:
            return None, None
        raw = float(np.linalg.norm(np.ldexp(y, -exp) - ref) / denom)
        y, _ = spectral._pow2_scaled(y)
        yy = float(y @ y)
        if yy == 0.0:
            return None, raw
        return float(np.linalg.norm(float(y @ ref) / yy * y - ref) / denom), raw


# -- subcommands --------------------------------------------------------------
# Each subcommand returns its artifacts, file name -> CSV text or JSON
# document; `main` writes them once the command has returned, so a run
# that fails writes nothing.

Artifacts = dict[str, "str | dict"]


def cmd_gen_basis(config: dict) -> Artifacts:
    """sample wavefunctions and write the basis artifact set"""
    pipe = run_pipeline(config)
    doc = klcore.basis_json_doc(pipe.basis, config["sampling"]["kind"])
    doc["truncation"] = {
        "criterion": config["truncation"]["criterion"],
        "value": config["truncation"]["value"],
        "M": pipe.truncated.M,
    }
    doc["config"] = config
    points = pipe.basis.points
    return {
        "samples.csv": sampling.sample_matrix_csv_text(pipe.family, points, pipe.samples),
        "covariance.csv": csvio.csv_text([f"k_{j}" for j in range(pipe.basis.n)], pipe.K),
        "eigenvalues.csv": klcore.eigenvalues_csv_text(pipe.basis),
        "basis.csv": klcore.vectors_csv_text(pipe.basis),
        "basis.json": doc,
    }


def cmd_solve(config: dict) -> Artifacts:
    """solve the boundary-value problem in the truncated basis"""
    pipe = run_pipeline(config)
    bvp, exp = _unit_problem(config)
    problem = spectral.CollocationProblem(bvp, pipe.interpolant)
    sol = spectral.solve(problem)

    xs = np.linspace(bvp.a, bvp.b, int(config["output"]["export_points"]))
    # one tabulation of the export grid gives both the solution and its defect
    with np.errstate(over="ignore", invalid="ignore"):
        res, y = spectral._Tabulation.at(bvp, problem.basis, xs).defect(sol.coefficients, bvp.E)
    xm, refm, reference, ref_kind = _mid_window(config, bvp)
    with np.errstate(over="ignore"):  # back at the config's scale
        table = np.column_stack((xs, np.ldexp(np.column_stack((y, reference(xs), res)), exp)))
        coefficients = np.ldexp(sol.coefficients, exp)

    fitted, raw = _mid_errors(sol.eval(xm), refm)
    figures = {
        "rel_l2_error_mid": fitted,
        "rel_l2_error_mid_raw": raw,
        "residual_norm": spectral.relative_residual_norm(sol, spectral._scan_grid(bvp)),
    }
    finite_figures = all(v is None or math.isfinite(v) for v in figures.values())
    if not (finite_figures and np.isfinite(table).all() and np.isfinite(coefficients).all()):
        raise NumericalError("the exported solution or its residual is not finite")
    report = {
        "config": config,
        "M": problem.n_modes,
        "coefficients": coefficients.tolist(),
        "condition_estimate": sol.condition_estimate,
        "method": sol.method,
        **figures,
        "mid_window": [float(xm[0]), float(xm[-1])],
        "reference": ref_kind,
    }
    return {
        "solution.csv": csvio.csv_text(["x", "y_numeric", "y_reference", "residual"], table),
        "residual.csv": csvio.csv_text(["x", "residual"], table[:, ::3]),
        "report.json": report,
    }


def cmd_scan_energy(config: dict) -> Artifacts:
    """scan trial energies and locate the residual minimum"""
    prob = config["problem"]
    e_range = prob["E_range"]
    pipe = run_pipeline(config)
    bvp, _ = _unit_problem(config)
    scan = spectral.energy_scan(
        bvp, pipe.interpolant, float(e_range[0]), float(e_range[1]), int(prob["n_steps"])
    )
    rows = zip(scan.energies.tolist(), scan.residual_norms.tolist(), scan.statuses)
    return {
        "scan.csv": csvio.csv_text(["E", "residual_norm", "status"], rows),
        "report.json": {
            "config": config,
            "argmin_energy": scan.argmin_energy,
            "argmin_status": scan.argmin_status,
            "n_failed": sum(1 for s in scan.statuses if s != "ok"),
        },
    }


def _random_orthonormal(n: int, m: int, seed: int) -> np.ndarray:
    """m orthonormal columns of length n: the Q of an n x m Gaussian matrix,
    with R's diagonal made positive. The Gaussians, row by row, come from
    the standard library's seeded `random.Random(seed).gauss`, which numpy
    has already imported; numpy.random costs about 6 MB and 15 ms to load."""
    rng = random.Random(seed)
    Q, R = np.linalg.qr(np.array([[rng.gauss(0.0, 1.0) for _ in range(m)] for _ in range(n)]))
    return Q * np.sign(np.diag(R))


def _monomial_basis(grid_points: np.ndarray, m: int) -> np.ndarray:
    """Orthonormalized raised powers x^1 .. x^m sampled on the grid; the
    raised exponent keeps every member zero at the origin, as every
    reduced-wavefunction sample is."""
    scaled = grid_points / grid_points[-1]
    V = np.column_stack([scaled ** (k + 1) for k in range(m)])
    Q, R = np.linalg.qr(V)
    return Q * np.sign(np.diag(R))


def cmd_compare_bases(config: dict) -> Artifacts:
    """compare reconstruction and solve errors across basis sets"""
    pipe = run_pipeline(config)
    m = pipe.truncated.M
    points = pipe.basis.points
    bvp, _ = _unit_problem(config)
    xm, refm, _, _ = _mid_window(config, bvp)

    drawn = _random_orthonormal(points.size, m, int(config["seed"]))
    monomial = _monomial_basis(points, m)
    candidates = [
        ("kl", pipe.truncated.vectors, pipe.interpolant),
        ("random-orthonormal", drawn, basisfn.BasisFunction(points, drawn)),
        ("monomial", monomial, basisfn.BasisFunction(points, monomial)),
    ]
    rows = []
    for name, B, interpolant in candidates:
        mse = klcore.projection_mse(pipe.centered, B)
        try:
            sol = spectral.solve(spectral.CollocationProblem(bvp, interpolant))
            # a solution too large to evaluate has an error that is not finite
            with np.errstate(over="ignore", invalid="ignore"):
                rel, _ = _mid_errors(sol.eval(xm), refm)
        except NumericalError:
            rel = None
        finite = rel is not None and math.isfinite(rel)
        rows.append([name, str(m), mse, rel if finite else math.nan])
    header = ["basis_name", "M", "reconstruction_mse", "solve_rel_error"]
    return {"comparison.csv": csvio.csv_text(header, rows)}


# -- entry point --------------------------------------------------------------


_COMMANDS = {
    "gen-basis": cmd_gen_basis,
    "solve": cmd_solve,
    "scan-energy": cmd_scan_energy,
    "compare-bases": cmd_compare_bases,
}


class _UsageError(Exception):
    """A command line argparse rejects, with argparse's usage and message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: argparse
    asks for the terminal size once per option it adds."""
    parser = _Parser(
        prog="klbasis",
        description="Covariance-optimal basis construction and radial collocation solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", default=None, help="path to a JSON config file")
        p.add_argument("--out-dir", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="random seed (overrides config)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config, out_dir=args.out_dir, seed=args.seed)
        artifacts = _COMMANDS[args.command](config)
    except _UsageError as err:
        print(err, end="", file=sys.stderr)
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""  # numpy names the allocation
        print(f"numerical error: out of memory{detail}", file=sys.stderr)
        return 2
    # a failed write removes every artifact this run wrote, a partial one too
    out_dir = Path(config["output"]["directory"])
    target, written = out_dir, []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in artifacts.items():
            target = out_dir / name
            written.append(target)
            write = csvio.write_json if name.endswith(".json") else csvio.write_text
            write(target, content)
    except OSError as err:
        for path in written:
            with contextlib.suppress(OSError):  # a directory in an artifact's place stays
                path.unlink()
        print(f"output error: cannot write {target}: {err.strerror or err}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
