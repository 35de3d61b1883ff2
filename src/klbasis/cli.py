"""Command-line front end for the basis-construction and solver pipeline.

Subcommands:

    gen-basis      samples.csv, covariance.csv, eigenvalues.csv, basis.csv, basis.json
    solve          solution.csv, residual.csv, report.json
    scan-energy    scan.csv, report.json
    compare-bases  comparison.csv

Configuration is a single JSON document; ``--config`` points at it and
``--out-dir`` / ``--seed`` override the corresponding entries. Exit codes:
0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
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

DEFAULT_CONFIG = {
    "family": {"n_max": 7, "Z": 1.0},
    "sampling": {"kind": "uniform", "N_s": 20, "a": 0.0, "b": 40.0, "representation": "rR"},
    "truncation": {"criterion": "fixed_m", "value": 8},
    "problem": {
        "n": 1,
        "l": 0,
        "E": -0.5,
        "E_range": [-0.7, -0.3],
        "n_steps": 41,
        "a": 0.0,
        "b": 7.0,
        "y_a": 0.0,
        "y_f": 1e-4,
        "epsilon": 1e-10,
    },
    "output": {"directory": "out", "export_points": 201},
    "seed": 20080556,
}

# fractions of the solve domain bounding the mid-window error report;
# for the 28-orbital reproduction on [0, 7] they give [0.5, 5].
_MID_LO = 1.0 / 14.0
_MID_HI = 5.0 / 7.0


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


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
        return {
            "family": copy.deepcopy(self.family),
            "sampling": copy.deepcopy(self.sampling),
            "truncation": copy.deepcopy(self.truncation),
            "problem": copy.deepcopy(self.problem),
            "output": copy.deepcopy(self.output),
            "seed": self.seed,
        }


def load_config(path: str | None, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Merge the config file over the defaults and validate everything the
    run will rely on. Raises ConfigError before any computation."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(user, dict):
            raise ConfigError("config document must be a JSON object")
        # before the overrides below can merge over a non-object section
        _reject_unknown_keys(user, DEFAULT_CONFIG)
        merged = _deep_merge(merged, user)
    overrides = {}
    if out_dir is not None:
        overrides["output"] = {"directory": out_dir}
    if seed is not None:
        overrides["seed"] = seed
    return validate_config(_deep_merge(merged, overrides))


def _reject_unknown_keys(doc: dict, known: dict, where: str = "") -> None:
    for key, value in doc.items():
        name = f"{where}{key}"
        if key not in known:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(known[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be a JSON object")
            _reject_unknown_keys(value, known[key], f"{name}.")


def _number(value, name: str) -> float:
    """A finite JSON number; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    if not _number(value, name).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def validate_config(cfg: dict) -> RunConfig:
    try:
        _reject_unknown_keys(cfg, DEFAULT_CONFIG)
        fam = cfg["family"]
        samp = cfg["sampling"]
        trunc = cfg["truncation"]
        prob = cfg["problem"]
        out = cfg["output"]
        n_max = _integer(fam["n_max"], "family.n_max")
        if n_max < 2:
            raise ConfigError(
                f"family.n_max must be >= 2; a single orbital centers to zero, got {n_max}"
            )
        if not _number(fam["Z"], "family.Z") > 0:
            raise ConfigError(f"family.Z must be positive, got {fam['Z']}")
        if samp["kind"] not in ("uniform", "chebyshev-lobatto"):
            raise ConfigError(f"unknown sampling.kind {samp['kind']!r}")
        n_s = _integer(samp["N_s"], "sampling.N_s")
        if n_s < 2:
            raise ConfigError(f"sampling.N_s must be >= 2, got {n_s}")
        samp_a = _number(samp["a"], "sampling.a")
        samp_b = _number(samp["b"], "sampling.b")
        if not samp_a < samp_b:
            raise ConfigError("sampling requires a < b")
        if samp["representation"] not in ("R", "rR"):
            raise ConfigError(f"unknown sampling.representation {samp['representation']!r}")
        if trunc["criterion"] not in ("fixed_m", "energy_fraction"):
            raise ConfigError(f"unknown truncation.criterion {trunc['criterion']!r}")
        if trunc["criterion"] == "fixed_m":
            if not 1 <= _integer(trunc["value"], "truncation.value") <= n_s:
                raise ConfigError(f"truncation.value must be in [1, N_s], got {trunc['value']}")
        else:
            if not 0.0 < _number(trunc["value"], "truncation.value") <= 1.0:
                raise ConfigError(f"truncation.value must be in (0, 1], got {trunc['value']}")
        n = _integer(prob["n"], "problem.n")
        l = _integer(prob["l"], "problem.l")
        if n < 1 or l < 0 or l >= n:
            raise ConfigError(f"problem quantum numbers need 0 <= l < n, got l={l}, n={n}")
        for key in ("E", "y_a", "y_f"):
            _number(prob[key], f"problem.{key}")
        prob_a = _number(prob["a"], "problem.a")
        prob_b = _number(prob["b"], "problem.b")
        if not prob_a < prob_b:
            raise ConfigError("problem requires a < b")
        if not _number(prob["epsilon"], "problem.epsilon") > 0:
            raise ConfigError("problem.epsilon must be positive")
        if prob_a < samp_a or prob_b > samp_b:
            raise ConfigError(
                "problem domain must lie within the sampling domain; "
                "the basis cannot be evaluated outside it"
            )
        e_range = prob["E_range"]
        if e_range is not None:
            if not isinstance(e_range, list) or len(e_range) != 2:
                raise ConfigError(f"problem.E_range must be [lo, hi], got {e_range!r}")
            if not _number(e_range[0], "problem.E_range[0]") < _number(
                e_range[1], "problem.E_range[1]"
            ):
                raise ConfigError(f"problem.E_range must have lo < hi, got {e_range}")
        if _integer(prob["n_steps"], "problem.n_steps") < 3:
            raise ConfigError("problem.n_steps must be >= 3")
        if not isinstance(out["directory"], str):
            raise ConfigError(f"output.directory must be a string, got {out['directory']!r}")
        if _integer(out["export_points"], "output.export_points") < 2:
            raise ConfigError("output.export_points must be >= 2")
        seed = _integer(cfg["seed"], "seed")
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"malformed config: {err}") from err
    return RunConfig(
        family=fam, sampling=samp, truncation=trunc, problem=prob, output=out, seed=seed
    )


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


def problem_from_config(config: RunConfig, energy: float | None = None) -> BoundaryValueProblem:
    prob = config.problem
    e = float(prob["E"]) if energy is None else energy
    return BoundaryValueProblem(
        l=int(prob["l"]),
        Z=float(config.family["Z"]),
        E=e,
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
    integrated once here and interpolated at each call."""
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
    oracle = numerov_oracle(bvp, 100_000)
    return (lambda xs: np.interp(xs, oracle.x, oracle.y)), "numerov"


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


def _emit(path: Path) -> None:
    print(f"wrote {path}")


# -- subcommands --------------------------------------------------------------
# Each subcommand computes every number before it creates the output
# directory, so a run that fails writes nothing.


def cmd_gen_basis(config: RunConfig) -> int:
    pipe = run_pipeline(config)
    out_dir = Path(config.output["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)

    path = csvio.write_text(out_dir / "samples.csv", sampling.sample_matrix_csv_text(pipe.sample))
    _emit(path)

    n = pipe.cov.n
    header = [f"k_{j}" for j in range(n)]
    path = csvio.write_csv(out_dir / "covariance.csv", header, (row for row in pipe.cov.K))
    _emit(path)

    path = csvio.write_text(out_dir / "eigenvalues.csv", klcore.eigenvalues_csv_text(pipe.basis))
    _emit(path)

    path = csvio.write_text(out_dir / "basis.csv", klcore.vectors_csv_text(pipe.basis))
    _emit(path)

    doc = klcore.basis_json_doc(pipe.basis)
    doc["truncation"] = {
        "criterion": config.truncation["criterion"],
        "value": config.truncation["value"],
        "M": pipe.truncated.M,
    }
    doc["config"] = config.to_dict()
    path = csvio.write_json(out_dir / "basis.json", doc)
    _emit(path)
    return 0


def cmd_solve(config: RunConfig) -> int:
    pipe = run_pipeline(config)
    bvp = problem_from_config(config)
    problem = spectral.make_collocation_problem(bvp, pipe.interpolant)
    sol = spectral.solve(problem)

    xs = np.linspace(bvp.a, bvp.b, int(config.output["export_points"]))
    y = np.atleast_1d(sol.eval(xs))
    res = spectral.residual(sol, xs)
    reference, ref_kind = _reference(config, bvp)
    ref = reference(xs)

    span = bvp.b - bvp.a
    lo, hi = bvp.a + _MID_LO * span, bvp.a + _MID_HI * span
    xm = np.linspace(lo, hi, 201)
    ym = np.atleast_1d(sol.eval(xm))
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
        "mid_window": [lo, hi],
        "reference": ref_kind,
    }

    out_dir = Path(config.output["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = csvio.write_csv(
        out_dir / "solution.csv",
        ["x", "y_numeric", "y_reference", "residual"],
        ([xs[i], y[i], ref[i], res[i]] for i in range(xs.size)),
    )
    _emit(path)
    path = csvio.write_csv(
        out_dir / "residual.csv",
        ["x", "residual"],
        ([xs[i], res[i]] for i in range(xs.size)),
    )
    _emit(path)
    path = csvio.write_json(out_dir / "report.json", report)
    _emit(path)
    return 0


def cmd_scan_energy(config: RunConfig) -> int:
    e_range = config.problem["E_range"]
    if e_range is None:
        raise ConfigError("scan-energy requires problem.E_range")
    pipe = run_pipeline(config)
    bvp = problem_from_config(config)
    scan = spectral.energy_scan(
        bvp, pipe.interpolant, float(e_range[0]), float(e_range[1]), int(config.problem["n_steps"])
    )
    out_dir = Path(config.output["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = (
        [scan.energies[i], scan.residual_norms[i], scan.statuses[i]]
        for i in range(scan.energies.size)
    )
    path = csvio.write_csv(out_dir / "scan.csv", ["E", "residual_norm", "status"], rows)
    _emit(path)
    report = {
        "config": config.to_dict(),
        "argmin_energy": scan.argmin_energy,
        "argmin_status": scan.argmin_status,
        "n_failed": sum(1 for s in scan.statuses if s != "ok"),
    }
    path = csvio.write_json(out_dir / "report.json", report)
    _emit(path)
    return 0


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


def cmd_compare_bases(config: RunConfig) -> int:
    pipe = run_pipeline(config)
    m = pipe.truncated.M
    grid = pipe.sample.grid
    rng = np.random.default_rng(config.seed)

    candidates = [
        ("kl", pipe.basis.vectors[:, :m]),
        ("random-orthonormal", _random_orthonormal(grid.n_points, rng)[:, :m]),
        ("monomial", _monomial_basis(grid.points, m)),
    ]

    bvp = problem_from_config(config)
    span = bvp.b - bvp.a
    xm = np.linspace(bvp.a + _MID_LO * span, bvp.a + _MID_HI * span, 201)
    reference, _ = _reference(config, bvp)
    refm = reference(xm)

    rows = []
    for name, B in candidates:
        mse = klcore.projection_mse(pipe.centered, B)
        interpolant = basisfn.BasisFunction(grid.points, B)
        try:
            sol = spectral.solve(spectral.make_collocation_problem(bvp, interpolant))
            ym = np.atleast_1d(sol.eval(xm))
            rel = _rel_l2_scaled(ym, refm)
            rel_s = csvio.fmt(rel) if rel is not None else "nan"
        except NumericalError:
            rel_s = "nan"
        rows.append([name, m, mse, rel_s])
    out_dir = Path(config.output["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = csvio.write_csv(
        out_dir / "comparison.csv",
        ["basis_name", "M", "reconstruction_mse", "solve_rel_error"],
        ([name, str(mm), mse, rel] for name, mm, mse, rel in rows),
    )
    _emit(path)
    return 0


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klbasis",
        description="Covariance-optimal basis construction and radial collocation solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("gen-basis", "sample wavefunctions and write the basis artifact set"),
        ("solve", "solve the boundary-value problem in the truncated basis"),
        ("scan-energy", "scan trial energies and locate the residual minimum"),
        ("compare-bases", "compare reconstruction and solve errors across basis sets"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to a JSON config file")
        p.add_argument("--out-dir", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="random seed (overrides config)")
    return parser


_COMMANDS = {
    "gen-basis": cmd_gen_basis,
    "solve": cmd_solve,
    "scan-energy": cmd_scan_energy,
    "compare-bases": cmd_compare_bases,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, out_dir=args.out_dir, seed=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (NumericalError, ValueError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
