"""Command-line front end for the basis-construction and solver pipeline.

Subcommands:

    gen-basis      samples.csv, covariance.csv, eigenvalues.csv, basis.csv, basis.json
    solve          solution.csv, residual.csv, report.json
    scan-energy    scan.csv, report.json
    compare-bases  comparison.csv

Configuration is a single JSON document whose keys, defaults and checks
form one table, `_SCHEMA`; ``--config`` points at it and ``--out-dir`` /
``--seed`` override the corresponding entries. Each subcommand returns its
artifacts and `main` writes them. Exit codes: 0 success, 1 configuration
error, 2 a classified numerical failure (`NumericalError`); any other
exception is a defect and propagates.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import basisfn, csvio, klcore, sampling, spectral
from .errors import ConfigError, NumericalError
from .hydrogenic import (
    BoundaryValueProblem,
    make_family,
    numerov_oracle,
    reduced_ground_state,
)

# -- configuration ------------------------------------------------------------
# Each check takes a value as written and its dotted key name, and raises
# ConfigError if the value is unusable; none rewrites the value.


def _number(value, name: str) -> float:
    """A finite JSON number, within a double's range; booleans are not
    numbers here."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    if not _number(value, name).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
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
            raise ConfigError(f"unknown {name} {value!r}")

    return check


def _energy_range(value, name: str) -> None:
    if value is None:
        return
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be [lo, hi], got {value!r}")
    if not _number(value[0], f"{name}[0]") < _number(value[1], f"{name}[1]"):
        raise ConfigError(f"{name} must have lo < hi, got {value}")


def _directory(value, name: str) -> None:
    """A string naming a directory that exists or can be created: neither
    it nor any parent may be an existing non-directory."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    for path in (Path(value), *Path(value).parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"{name} cannot be created: {path} exists and is not a directory")


# Every config key: (dotted name, default, check). The defaults reproduce
# the 28-orbital experiment; a name without a dot is a top-level key.
_SCHEMA = (
    ("family.n_max", 7, _at_least(2, why="; a single orbital centers to zero")),
    ("family.Z", 1.0, _positive),
    ("sampling.kind", "uniform", _one_of("uniform", "chebyshev-lobatto")),
    ("sampling.N_s", 20, _at_least(2)),
    ("sampling.a", 0.0, _at_least(0, _number, "; orbitals are sampled at radii r >= 0")),
    ("sampling.b", 40.0, _number),
    ("sampling.representation", "rR", _one_of("R", "rR")),
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
    ("problem.epsilon", 1e-10, _positive),
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


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; round-trips losslessly to JSON."""

    family: dict
    sampling: dict
    truncation: dict
    problem: dict
    output: dict
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path: str | None, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Read the config file, apply the defaults and the command-line
    overrides, and validate everything the run will rely on. Raises
    ConfigError before any computation."""
    user = {}
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError, int digit limit
            raise ConfigError(f"config file is not valid JSON: {err}") from err
    overrides = {"output.directory": out_dir, "seed": seed}
    return validate_config(user, {k: v for k, v in overrides.items() if v is not None})


def validate_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    """Apply the defaults to a config document and check it: first its
    shape (no unknown key, every section an object), then each value,
    with `overrides` (dotted name -> value) taking the place of the
    document's, then the checks that relate several keys."""
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
    # the potential reaches -Z/epsilon and l(l+1)/epsilon at x = 0
    eps, l = prob["epsilon"], prob["l"]
    if not (math.isfinite(cfg["family"]["Z"] / eps) and math.isfinite(l * (l + 1) / eps)):
        raise ConfigError(
            f"problem.epsilon must keep Z/epsilon and l(l+1)/epsilon finite, got {eps}"
        )
    if not prob["a"] < prob["b"]:
        raise ConfigError("problem requires a < b")
    if prob["a"] < samp["a"] or prob["b"] > samp["b"]:
        raise ConfigError(
            f"problem domain [a, b] = [{prob['a']}, {prob['b']}] must lie within the sampling "
            f"domain [{samp['a']}, {samp['b']}]; the basis cannot be evaluated outside it"
        )
    return RunConfig(**cfg)


# -- pipeline pieces ----------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    sample: sampling.SampleMatrix
    centered: klcore.CenteredMatrix
    cov: klcore.CovarianceMatrix
    basis: klcore.KLBasis
    truncated: klcore.TruncatedBasis
    interpolant: basisfn.BasisFunction


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Samples -> centering -> covariance -> eigenbasis -> truncation ->
    interpolated basis functions."""
    family = make_family(int(config.family["n_max"]), float(config.family["Z"]))
    grid = sampling.make_grid(
        sampling.GridKind(config.sampling["kind"]),
        int(config.sampling["N_s"]),
        float(config.sampling["a"]),
        float(config.sampling["b"]),
    )
    sample = sampling.build_sample_matrix(
        family, grid, sampling.Representation(config.sampling["representation"])
    )
    centered = klcore.center_columns(sample)
    cov = klcore.covariance(centered)
    basis = klcore.eig_sym(cov, grid=grid)
    if config.truncation["criterion"] == "fixed_m":
        criterion = klcore.FixedM(int(config.truncation["value"]))
    else:
        criterion = klcore.EnergyFraction(float(config.truncation["value"]))
    truncated = klcore.truncate_basis(basis, criterion)
    return PipelineResult(
        sample=sample, centered=centered, cov=cov, basis=basis,
        truncated=truncated, interpolant=basisfn.interpolate(truncated),
    )


def problem_from_config(config: RunConfig) -> BoundaryValueProblem:
    prob = config.problem
    return BoundaryValueProblem(
        l=int(prob["l"]),
        Z=float(config.family["Z"]),
        E=float(prob["E"]),
        a=float(prob["a"]),
        b=float(prob["b"]),
        y_a=float(prob["y_a"]),
        y_f=float(prob["y_f"]),
        epsilon=float(prob["epsilon"]),
    )


def _reference(
    config: RunConfig, bvp: BoundaryValueProblem
) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
    """Reference solution as a function of x, and its kind: the closed form
    for the ground-state configuration, otherwise the Numerov oracle,
    integrated once here on 2e4 points and read cubically at each call.
    The cubic read-out's O(h^4) error matches the scheme's own, so this
    grid gives a reference good to about 1e-12 after the scale fit; 1e5
    points read linearly cost five times the sweep for about 1e-9."""
    if bvp.y_f == 0.0 and bvp.y_a == 0.0:
        return np.zeros_like, "trivial"
    if (
        bvp.l == 0
        and float(config.family["Z"]) == 1.0
        and bvp.E == -0.5
        and bvp.y_a == 0.0
        and bvp.a == 0.0
    ):
        return (lambda xs: np.asarray(reduced_ground_state(bvp.b, bvp.y_f, xs))), "closed-form"
    return numerov_oracle(bvp, 20_000).at, "numerov"


def _mid_window(bvp: BoundaryValueProblem) -> np.ndarray:
    """The 201 points where errors are reported, on a window bounded by
    fixed fractions of the domain: [0.5, 5] for the reproduction on [0, 7]."""
    span = bvp.b - bvp.a
    return np.linspace(bvp.a + (1.0 / 14.0) * span, bvp.a + (5.0 / 7.0) * span, 201)


def _rel_l2(y: np.ndarray, ref: np.ndarray) -> float | None:
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        return None
    return float(np.linalg.norm(y - ref) / denom)


def _rel_l2_scaled(y: np.ndarray, ref: np.ndarray) -> float | None:
    """Relative L2 after fixing the solution's free global coefficient by
    a least-squares fit; the boundary value only sets the scale."""
    denom = float(np.linalg.norm(ref))
    yy = float(y @ y)
    if denom == 0.0 or yy == 0.0:
        return None
    alpha = float(y @ ref) / yy
    return float(np.linalg.norm(alpha * y - ref) / denom)


# -- subcommands --------------------------------------------------------------
# Each subcommand returns its artifacts, file name -> CSV text or JSON
# document; `main` writes them once the command has returned, so a run
# that fails writes nothing.

Artifacts = dict[str, "str | dict"]


def cmd_gen_basis(config: RunConfig) -> Artifacts:
    """sample wavefunctions and write the basis artifact set"""
    pipe = run_pipeline(config)
    doc = klcore.basis_json_doc(pipe.basis)
    doc["truncation"] = {
        "criterion": config.truncation["criterion"],
        "value": config.truncation["value"],
        "M": pipe.truncated.M,
    }
    doc["config"] = config.to_dict()
    return {
        "samples.csv": sampling.sample_matrix_csv_text(pipe.sample),
        "covariance.csv": csvio.csv_text([f"k_{j}" for j in range(pipe.cov.n)], pipe.cov.K),
        "eigenvalues.csv": klcore.eigenvalues_csv_text(pipe.basis),
        "basis.csv": klcore.vectors_csv_text(pipe.basis),
        "basis.json": doc,
    }


def cmd_solve(config: RunConfig) -> Artifacts:
    """solve the boundary-value problem in the truncated basis"""
    pipe = run_pipeline(config)
    bvp = problem_from_config(config)
    problem = spectral.make_collocation_problem(bvp, pipe.interpolant)
    sol = spectral.solve(problem)

    xs = np.linspace(bvp.a, bvp.b, int(config.output["export_points"]))
    # one tabulation of the export grid gives both the solution and its defect
    res, y = spectral._Tabulation.at(bvp, problem.basis, xs).defect(sol.coefficients, bvp.E)
    reference, ref_kind = _reference(config, bvp)
    ref = reference(xs)

    xm = _mid_window(bvp)
    ym = sol.eval(xm)
    refm = reference(xm)
    dense = spectral._scan_grid(bvp)
    report = {
        "config": config.to_dict(),
        "M": problem.n_modes,
        "coefficients": sol.coefficients.tolist(),
        "condition_estimate": sol.condition_estimate,
        "method": sol.method,
        "rel_l2_error_mid": _rel_l2_scaled(ym, refm),
        "rel_l2_error_mid_raw": _rel_l2(ym, refm),
        "residual_norm": spectral.relative_residual_norm(sol, dense),
        "mid_window": [float(xm[0]), float(xm[-1])],
        "reference": ref_kind,
    }
    return {
        "solution.csv": csvio.csv_text(
            ["x", "y_numeric", "y_reference", "residual"], zip(xs, y, ref, res)
        ),
        "residual.csv": csvio.csv_text(["x", "residual"], zip(xs, res)),
        "report.json": report,
    }


def cmd_scan_energy(config: RunConfig) -> Artifacts:
    """scan trial energies and locate the residual minimum"""
    e_range = config.problem["E_range"]
    if e_range is None:
        raise ConfigError("scan-energy requires problem.E_range")
    pipe = run_pipeline(config)
    bvp = problem_from_config(config)
    scan = spectral.energy_scan(
        bvp, pipe.interpolant, float(e_range[0]), float(e_range[1]), int(config.problem["n_steps"])
    )
    rows = zip(scan.energies, scan.residual_norms, scan.statuses)
    return {
        "scan.csv": csvio.csv_text(["E", "residual_norm", "status"], rows),
        "report.json": {
            "config": config.to_dict(),
            "argmin_energy": scan.argmin_energy,
            "argmin_status": scan.argmin_status,
            "n_failed": sum(1 for s in scan.statuses if s != "ok"),
        },
    }


def _random_orthonormal(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def _monomial_basis(grid_points: np.ndarray, m: int) -> np.ndarray:
    """Orthonormalized raised powers x^1 .. x^m sampled on the grid; the
    raised exponent keeps every member zero at the origin, matching the
    reduced-wavefunction representation."""
    scaled = grid_points / grid_points[-1]
    V = np.column_stack([scaled ** (k + 1) for k in range(m)])
    Q, R = np.linalg.qr(V)
    return Q * np.sign(np.diag(R))


def cmd_compare_bases(config: RunConfig) -> Artifacts:
    """compare reconstruction and solve errors across basis sets"""
    pipe = run_pipeline(config)
    m = pipe.truncated.M
    grid = pipe.sample.grid
    rng = np.random.default_rng(int(config.seed))

    candidates = [
        ("kl", pipe.basis.vectors[:, :m]),
        ("random-orthonormal", _random_orthonormal(grid.n_points, rng)[:, :m]),
        ("monomial", _monomial_basis(grid.points, m)),
    ]

    bvp = problem_from_config(config)
    xm = _mid_window(bvp)
    reference, _ = _reference(config, bvp)
    refm = reference(xm)

    rows = []
    for name, B in candidates:
        mse = klcore.projection_mse(pipe.centered, B)
        interpolant = basisfn.BasisFunction(grid.points, B)
        try:
            sol = spectral.solve(spectral.make_collocation_problem(bvp, interpolant))
            rel = _rel_l2_scaled(sol.eval(xm), refm)
        except NumericalError:
            rel = None
        rows.append([name, str(m), mse, "nan" if rel is None else rel])
    header = ["basis_name", "M", "reconstruction_mse", "solve_rel_error"]
    return {"comparison.csv": csvio.csv_text(header, rows)}


# -- entry point --------------------------------------------------------------


_COMMANDS = {
    "gen-basis": cmd_gen_basis,
    "solve": cmd_solve,
    "scan-energy": cmd_scan_energy,
    "compare-bases": cmd_compare_bases,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, out_dir=args.out_dir, seed=args.seed)
        artifacts = _COMMANDS[args.command](config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(config.output["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        write = csvio.write_json if name.endswith(".json") else csvio.write_text
        print(f"wrote {write(out_dir / name, content)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
