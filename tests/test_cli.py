import copy
import errno
import inspect
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import count_kernel_calls

from klbasis import cli, csvio, klcore, sampling
from klbasis.csvio import read_csv
from klbasis.errors import ConfigError, NumericalError
from klbasis.hydrogenic import OrbitalSpec, numerov_oracle, radial_wavefunction

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path: Path, overrides: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return path


def run(args) -> int:
    return cli.main(args)


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# An energy near the largest double: the interior rows (V - E) phi overflow
_OVERFLOWING_ROWS = {"E": -1.7e308, "E_range": [-1.75e308, -1.65e308]}


class TestConfig:
    def test_defaults_round_trip(self):
        config = cli.validate_config(cli.DEFAULT_CONFIG)
        assert cli.validate_config(config) == config

    def test_invalid_quantum_numbers(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"l": 3, "n": 1}})
        code = run(["gen-basis", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        assert run(["gen-basis", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 1

    def test_domain_coverage_checked(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"b": 99.0}})
        assert run(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"problem": {"E": float("nan")}},
            {"problem": {"y_f": float("inf")}},
            {"problem": {"E_range": [-0.7, float("inf")]}},
            {"problem": {"E_range": [-1e308, 1e308]}},
            {"family": {"n_max": 1.5}},
            {"family": {"n_max": True}},
            {"family": {"n_max": 1}},
            {"sampling": {"N_S": 40}},
            {"output": {"formats": ["csv", "json"]}},
            {"problme": {"E": -0.5}},
            {"seed": -1},
        ],
        ids=[
            "E-nan",
            "y_f-inf",
            "E_range-inf",
            "E_range-width-overflows",
            "n_max-fraction",
            "n_max-bool",
            "n_max-one",
            "unknown-key",
            "dropped-formats",
            "unknown-section",
            "negative-seed",
        ],
    )
    def test_rejected_before_any_output(self, tmp_path, overrides):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "config document must be a JSON object"),
            ({"sampling": {"b": 0.0}}, "sampling requires a < b"),
            (
                {"truncation": {"criterion": "energy_fraction", "value": 1.5}},
                "truncation.value must be in (0, 1], got 1.5",
            ),
            ({"problem": {"a": 7.0}}, "problem requires a < b"),
        ],
        ids=["top-level-list", "sampling-domain", "energy-fraction", "problem-domain"],
    )
    def test_rejected_with_its_message(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        missing = tmp_path / "missing.json"
        assert run(["solve", "--config", str(missing), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file: [Errno 2] ")
        assert str(missing) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-basis", "solve", "scan-energy", "compare-bases"])
    def test_null_energy_range_rejected(self, tmp_path, monkeypatch, capsys, command):
        # every subcommand validates the same document, before any computation
        def no_computation(config):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(cli, "run_pipeline", no_computation)
        cfg = write_config(tmp_path, {"problem": {"E_range": None}})
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: problem.E_range must be [lo, hi], got null\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"problem": {"E": None}}, "problem.E must be a finite number, got null"),
            ({"problem": {"y_f": True}}, "problem.y_f must be a finite number, got true"),
            ({"problem": {"E": "-0.5"}}, 'problem.E must be a finite number, got "-0.5"'),
            ({"family": {"n_max": 2.5}}, "family.n_max must be an integer, got 2.5"),
            ({"sampling": {"kind": None}}, "unknown sampling.kind null"),
            ({"sampling": {"kind": "gauss"}}, 'unknown sampling.kind "gauss"'),
            ({"problem": {"E_range": True}}, "problem.E_range must be [lo, hi], got true"),
            (
                {"problem": {"E_range": [-0.3, -0.7]}},
                "problem.E_range must have lo < hi, got [-0.3, -0.7]",
            ),
            (
                {"problem": {"E_range": [-1e308, 1e308]}},
                "problem.E_range must have a finite width hi - lo, got [-1e+308, 1e+308]",
            ),
            ({"output": {"directory": None}}, "output.directory must be a string, got null"),
        ],
        ids=["null", "true", "string", "integer", "one-of-null", "one-of-string",
             "range-true", "range-order", "range-width", "directory-null"],
    )
    def test_offending_value_echoed_as_json(self, overrides, message):
        with pytest.raises(ConfigError) as err:
            cli.validate_config(overrides)
        assert str(err.value) == message

    def test_sampling_kind_choices_are_the_grid_kinds(self):
        check = {name: check for name, _, check in cli._SCHEMA}["sampling.kind"]
        assert inspect.getclosurevars(check).nonlocals["choices"] == sampling.GRID_KINDS
        for kind in sampling.GRID_KINDS:
            cli.validate_config({"sampling": {"kind": kind}})

    def test_sample_representation_key_rejected(self, tmp_path, capsys):
        # samples are always x*R(x); the key that chose R(x) instead is gone
        cfg = write_config(tmp_path, {"sampling": {"representation": "rR"}})
        out = tmp_path / "out"
        assert run(["gen-basis", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: unknown config key 'sampling.representation'\n"
        )
        assert not out.exists()

    def test_non_object_section_named_before_overrides(self, tmp_path, capsys):
        # --out-dir merges an "output" object; the file's non-object must be
        # reported as such, not as a key missing from the merged object
        cfg = write_config(tmp_path, {"output": 3})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "config error: output must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        # the basis samples x*R(x), which vanishes at the origin, so it cannot
        # meet a nonzero left boundary
        cfg = write_config(tmp_path, {"problem": {"y_a": 1.0, "y_f": 1.0}})
        assert run(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["gen-basis", "solve", "scan-energy", "compare-bases"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            # the potential's regularization at the origin is a fixed 1e-10:
            # the key changed no artifact at any value that gave finite outputs
            ({"problem": {"epsilon": 1e-10}}, "unknown config key 'problem.epsilon'"),
            # l(l+1) of l = 1e160 overflows a double; no check may reach it
            (
                {"problem": {"n": 1e200, "l": 1e160}},
                "problem.n must be at most 2**53 - 1 in magnitude, got 1e+200",
            ),
        ],
        ids=["removed-epsilon", "float-quantum-numbers"],
    )
    def test_rejected_by_every_subcommand(self, tmp_path, capsys, doc, message, command):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["family.n_max", "sampling.N_s", "problem.n", "seed"])
    @pytest.mark.parametrize("kind", [int, float])
    def test_integers_bounded_by_what_a_double_holds(self, name, kind):
        # 2**53 - 1 is the largest magnitude I-JSON (RFC 7493) calls
        # interoperable, and the largest a double holds with every integer below
        section, _, key = name.rpartition(".")

        def doc(value):
            return {section: {key: kind(value)}} if section else {key: kind(value)}

        config = cli.validate_config(doc(2**53 - 1))
        assert (config[section] if section else config)[key] == 2**53 - 1
        with pytest.raises(ConfigError) as err:
            cli.validate_config(doc(2**53))
        assert str(err.value) == (
            f"{name} must be at most 2**53 - 1 in magnitude, got {json.dumps(kind(2**53))}"
        )

    @pytest.mark.parametrize("command", ["gen-basis", "solve"])
    def test_domain_too_narrow_to_differentiate(self, tmp_path, capsys, command):
        # on a 1e-155 span the derivative samples D^2 S of the unit
        # eigenvectors, about 1/span^2, overflow; from a span of about 1e-162
        # the samples (about 2r) give a covariance whose trace underflows to
        # zero, and the trace gate fires instead
        cfg = write_config(tmp_path, {"sampling": {"b": 1e-155}, "problem": {"b": 1e-156}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: derivatives of the interpolant")
        assert "[0.0, 1e-155]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-basis", "solve", "scan-energy", "compare-bases"])
    def test_sampling_domain_too_narrow_for_the_grid(self, tmp_path, capsys, command):
        # [1, 1 + 2 eps] holds two doubles, so 20 grid points collapse
        b = 1.0000000000000002
        domain = {"a": 1.0, "b": b}
        cfg = write_config(tmp_path, {"sampling": domain, "problem": domain})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numerical error: 20 uniform grid points are not strictly increasing on the "
            "sampling domain [1.0, 1.0000000000000002]; the domain is too narrow\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, problem, message",
        [
            ("solve", {"E": 1.7e308}, "the collocation system is not finite"),
            ("solve", {"E": -1.7e308}, "the collocation system is not finite"),
            ("scan-energy", {"E_range": [1e308, 1.7e308]}, "no scan point solved successfully"),
            (
                "compare-bases",
                {"E": 1.7e308},
                "the Numerov coefficients overflow a double at E = 1.7e+308",
            ),
            (
                "compare-bases",
                {"E": -1.7e308},
                "the Numerov coefficients overflow a double at E = -1.7e+308",
            ),
        ],
        ids=["solve-E+", "solve-E-", "scan", "compare-E+", "compare-E-"],
    )
    def test_energy_near_the_largest_double(self, tmp_path, capsys, command, problem, message):
        # the interior rows (V - E) phi and the oracle's 2 (V - E) overflow
        cfg = write_config(tmp_path, {"problem": problem})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"numerical error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "scan-energy", "compare-bases"])
    def test_narrow_domain_with_huge_interior_rows_solves(self, tmp_path, capsys, command):
        # the derivative samples (about 1/span^2) stay finite, and the squares
        # of the interior rows overflow; no step of the solve squares them
        cfg = write_config(tmp_path, {"sampling": {"b": 1e-140}, "problem": {"b": 1e-141}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if command == "solve":
            rel = read_json(out / "report.json")["rel_l2_error_mid"]
            assert rel == pytest.approx(7.64e-4, rel=1e-2)
        elif command == "scan-energy":
            _, rows = read_csv(out / "scan.csv")
            assert all(r[2] == "ok" and math.isfinite(float(r[1])) for r in rows)
        else:
            _, rows = read_csv(out / "comparison.csv")
            assert all(math.isfinite(float(row[3])) for row in rows)

    @pytest.mark.parametrize(
        "command, code", [("gen-basis", 2), ("solve", 2), ("scan-energy", 2), ("compare-bases", 2)]
    )
    def test_sampling_domain_past_laguerre_overflow(self, tmp_path, capsys, command, code):
        # on [0, 1e60] the Laguerre factor overflows where the envelope is 0,
        # and every sample is 0: a zero covariance defines no basis
        cfg = write_config(tmp_path, {"sampling": {"b": 1e60}, "problem": {"b": 7.0}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == code
        err = capsys.readouterr().err
        assert err == (
            "numerical error: the sample covariance has trace 0.0, so it defines no basis\n"
        )
        assert not out.exists()

    def test_sampling_domain_that_overflows_rho(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"family": {"Z": 10}, "sampling": {"b": 1e308}, "problem": {"b": 7.0}}
        )
        out = tmp_path / "out"
        assert run(["gen-basis", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "config error: sampling.b must keep 2*Z*b finite" in capsys.readouterr().err
        assert not out.exists()

    def test_boundary_value_that_overflows_the_norms(self, tmp_path):
        # the squares in the norms would pass 1e308 from |y_f| of about
        # 1e152; the CLI solves at unit scale, so a run at 2**700 times the
        # default y_f reports the default's figures to the bit
        def figures(y_f, name):
            cfg = write_config(tmp_path, {"problem": {"y_f": y_f}}, f"{name}.json")
            out = tmp_path / name
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for command in ("solve", "scan-energy", "compare-bases"):
                    args = [command, "--config", str(cfg), "--out-dir", str(out / command)]
                    assert run(args) == 0
            solve = read_json(out / "solve" / "report.json")
            _, scan = read_csv(out / "scan-energy" / "scan.csv")
            _, comparison = read_csv(out / "compare-bases" / "comparison.csv")
            return (
                [solve[k] for k in ("rel_l2_error_mid", "rel_l2_error_mid_raw", "residual_norm")]
                + [read_json(out / "scan-energy" / "report.json")["argmin_energy"]]
                + [float(r[1]) for r in scan if r[2] == "ok"]
                + [float(r[3]) for r in comparison]
            )

        default = np.array(figures(1e-4, "default"))
        assert len(default) == 3 + 1 + 41 + 3
        assert np.array_equal(figures(math.ldexp(1e-4, 700), "pow2"), default)
        # a y_f that is not a power-of-two multiple rounds the solve itself
        # differently: y_f 3e-4 moves these figures by up to about 2.3e-11
        # (the monomial basis's solve error; rel_l2_error_mid by 2.4e-13)
        huge = np.array(figures(1e200, "huge"))
        assert np.max(np.abs(huge - default) / np.abs(default)) <= 1e-7

    def test_rel_error_linear_in_boundary_value(self):
        # y_f only scales the solution, and the error is taken after a scale fit
        def rel(y_f):
            report = cli.cmd_solve(cli.validate_config({"problem": {"y_f": y_f}}))
            return report["report.json"]["rel_l2_error_mid"]

        assert rel(3e-4) == pytest.approx(rel(1e-4), rel=1e-12, abs=0)

    @pytest.mark.parametrize("command", ["solve", "scan-energy", "compare-bases"])
    def test_huge_boundary_value_solves(self, tmp_path, capsys, command):
        # 1e305 is within a factor 1e3 of overflow; the boundary values are
        # imposed exactly and only the solution scales with y_f, so the run
        # reports the default's figures
        figures, cells = {}, {}
        for name, y_f in (("default", 1e-4), ("huge", 1e305)):
            cfg = write_config(tmp_path, {"problem": {"y_f": y_f}}, f"{name}.json")
            out = tmp_path / name
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
            assert "numerical error" not in capsys.readouterr().err
            for path in out.glob("[rs]*.csv"):  # solution, residual or scan
                _, rows = read_csv(path)
                cells = [c for r in rows for c in (r[:2] if path.name == "scan.csv" else r)]
                assert all(math.isfinite(float(c)) for c in cells), path
            if command == "compare-bases":
                _, rows = read_csv(out / "comparison.csv")
                figures[name] = float(rows[0][3])  # the kl basis
                cells[name] = [float(c) for r in rows for c in r[2:]]
                assert all(math.isfinite(c) for c in cells[name])
            else:
                key = "rel_l2_error_mid" if command == "solve" else "argmin_energy"
                figures[name] = read_json(out / "report.json")[key]
        assert figures["huge"] == pytest.approx(figures["default"], rel=1e-11, abs=0)
        if command == "compare-bases":
            # the CLI solves at unit scale, so every basis solves as at the default
            assert cells["huge"] == pytest.approx(cells["default"], rel=1e-9, abs=0)

    @pytest.mark.parametrize(
        "command, problem, message",
        [
            # the CLI solves at unit scale, where c_p is of order one, so the
            # interior rows times c_p overflow only with the rows themselves
            ("solve", _OVERFLOWING_ROWS, "the collocation system is not finite"),
            ("scan-energy", _OVERFLOWING_ROWS, "no scan point solved successfully"),
            # the unit-scale solve passes, and its coefficients and values
            # overflow only when taken back to y_f's scale: the solve exports
            # them, a scan only its relative norms, which are the default's
            ("solve", {"y_f": 1e308}, "the exported solution or its residual is not finite"),
            ("scan-energy", {"y_f": 1e308}, None),
        ],
        ids=["A-c_p-solve", "A-c_p-scan-energy", "coefficients-solve", "coefficients-scan-energy"],
    )
    def test_boundary_value_whose_solution_overflows(
        self, tmp_path, capsys, command, problem, message
    ):
        cfg = write_config(tmp_path, {"problem": problem})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        if message is not None:
            assert code == 2
            assert err == f"numerical error: {message}\n"
            assert not out.exists()
            return
        assert (code, err) == (0, "")
        default = cli.cmd_scan_energy(cli.validate_config({}))
        expected = default["report.json"]["argmin_energy"]
        assert read_json(out / "report.json")["argmin_energy"] == pytest.approx(expected, rel=1e-12)
        _, rows = read_csv(out / "scan.csv")
        assert [r[2] for r in rows] == ["ok"] * 41
        norms = [float(line.split(",")[1]) for line in default["scan.csv"].splitlines()[1:]]
        assert [float(r[1]) for r in rows] == pytest.approx(norms, rel=1e-9)

    @pytest.mark.parametrize("command", ["solve", "scan-energy", "compare-bases"])
    def test_domain_too_narrow_for_the_collocation_points(self, tmp_path, capsys, command):
        # no basis node lies inside a domain one ulp wide, and the M - 2 = 6
        # uniform points round onto its end points
        cfg = write_config(tmp_path, {"problem": {"a": 5.0, "b": 5.000000000000001, "y_a": 1e-4}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        if command == "compare-bases":
            assert code == 0
            assert err == ""
            _, rows = read_csv(out / "comparison.csv")
            assert [row[3] for row in rows] == ["nan"] * 3
        else:
            assert code == 2
            assert err == (
                "numerical error: 6 interior collocation points do not fit strictly inside "
                "the problem domain [5.0, 5.000000000000001]\n"
            )
            assert not out.exists()

    def test_scan_rows_whose_norm_overflows_fail(self, tmp_path, monkeypatch):
        # a row whose defect or solution is not finite has a norm that is
        # not finite; here rows 3 and 7 are made so
        relative_norm = cli.spectral._Tabulation.relative_norm

        def overflowing(self, coefficients, energy):
            norms = relative_norm(self, coefficients, energy)
            norms[[3, 7]] = np.inf
            return norms

        monkeypatch.setattr(cli.spectral._Tabulation, "relative_norm", overflowing)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["scan-energy", "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "scan.csv")
        failed = [r for r in rows if r[2] != "ok"]
        assert {(r[1], r[2]) for r in failed} == {
            ("nan", "failed: the residual norm is not finite")
        }
        assert [rows.index(r) for r in failed] == [3, 7]
        assert all(math.isfinite(float(r[1])) for r in rows if r[2] == "ok")
        assert read_json(out / "report.json")["n_failed"] == len(failed)

    def test_readme_block_is_the_defaults(self):
        block = README.read_text().split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == cli.DEFAULT_CONFIG

    def test_readme_python_blocks_run(self):
        # the documented library API must keep working as written
        blocks = [part.split("```", 1)[0] for part in README.read_text().split("```python\n")[1:]]
        assert blocks
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for block in blocks:
                exec(compile(block, str(README), "exec"), {})

    @pytest.mark.parametrize("name", [name for name, _, _ in cli._SCHEMA])
    def test_every_key_rejects_an_object(self, tmp_path, monkeypatch, capsys, name):
        # no --out-dir, so output.directory is checked as the file gives it
        section, _, key = name.rpartition(".")
        cfg = write_config(tmp_path, {section: {key: {}}} if section else {key: {}})
        monkeypatch.chdir(tmp_path)
        assert run(["solve", "--config", str(cfg)]) == 1
        assert name in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_values_kept_as_written(self):
        doc = cli.validate_config({"family": {"Z": 2}, "sampling": {"N_s": 20.0}})
        assert type(doc["family"]["Z"]) is int and type(doc["sampling"]["N_s"]) is float

    @pytest.mark.parametrize("via_config", [False, True], ids=["out-dir-file", "under-a-file"])
    def test_output_directory_blocked_by_a_file(self, tmp_path, capsys, via_config):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        if via_config:
            cfg = write_config(tmp_path, {"output": {"directory": str(blocker / "out")}})
            argv = ["gen-basis", "--config", str(cfg)]
        else:
            argv = ["gen-basis", "--out-dir", str(blocker)]
        assert run(argv) == 1
        assert "config error: output.directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept"
        assert {p.name for p in tmp_path.iterdir()} <= {"blocker", "config.json"}

    @pytest.mark.parametrize(
        "directory, message",
        [
            ("x" * 300 + "/out", "cannot be created: File name too long"),
            ("nul\u0000dir", 'must not contain a NUL character, got "nul\\u0000dir"'),
        ],
        ids=["long-component", "nul-byte"],
    )
    def test_output_directory_the_os_cannot_look_up(
        self, tmp_path, monkeypatch, capsys, directory, message
    ):
        # the OS refuses the first path and cannot take the second: a config
        # error before any computation, not a traceback
        cfg = write_config(tmp_path, {"output": {"directory": directory}})
        monkeypatch.chdir(tmp_path)
        assert run(["gen-basis", "--config", str(cfg)]) == 1
        assert f"config error: output.directory {message}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_value_error_is_not_a_numerical_failure(self, tmp_path, monkeypatch):
        def broken(config):
            raise ValueError("a defect, not numerics")

        monkeypatch.setitem(cli._COMMANDS, "solve", broken)
        with pytest.raises(ValueError, match="a defect"):
            run(["solve", "--out-dir", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--seed", "abc"], "solve: error: argument --seed: invalid int value"),
            (["solve", "--bogus", "1"], "klbasis: error: unrecognized arguments: --bogus 1"),
            ([], "klbasis: error: the following arguments are required: command"),
            (["frobnicate"], "klbasis: error: argument command: invalid choice: 'frobnicate'"),
            (["solve", "--config"], "solve: error: argument --config: expected one argument"),
        ],
        ids=["seed-abc", "unknown-option", "no-subcommand", "bad-subcommand", "config-no-value"],
    )
    def test_usage_error_is_exit_1(self, tmp_path, monkeypatch, capsys, argv, message):
        # exit 2 is kept for NumericalError, so argparse's own exit 2 is not used
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: klbasis")
        assert message in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit:
            run(["solve", "--help"])
        assert exit.value.code == 0
        assert "--seed SEED" in capsys.readouterr().out


class TestGenBasis:
    def test_default_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run(["gen-basis", "--out-dir", str(out)]) == 0
        for name in ("samples.csv", "covariance.csv", "eigenvalues.csv", "basis.csv", "basis.json"):
            assert (out / name).exists()
        hdr, rows = read_csv(out / "eigenvalues.csv")
        assert hdr == ["index", "eigenvalue"]
        assert len(rows) == 20
        vals = [float(r[1]) for r in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_small_covariance_table(self, tmp_path):
        cfg = write_config(
            tmp_path, {"sampling": {"N_s": 6}, "truncation": {"criterion": "fixed_m", "value": 3}}
        )
        out = tmp_path / "out"
        assert run(["gen-basis", "--config", str(cfg), "--out-dir", str(out)]) == 0
        hdr, rows = read_csv(out / "covariance.csv")
        assert len(hdr) == 6
        assert len(rows) == 6
        K = np.array([[float(c) for c in row] for row in rows])
        assert np.array_equal(K, K.T)

    def test_truncation_recorded(self, tmp_path):
        out = tmp_path / "out"
        assert run(["gen-basis", "--out-dir", str(out)]) == 0
        doc = read_json(out / "basis.json")
        assert doc["truncation"]["M"] == 8
        assert len(read_csv(out / "eigenvalues.csv")[1]) == 20
        assert doc["config"]["sampling"]["N_s"] == 20

    def test_manifest_keys(self, tmp_path):
        # basis.json repeats no array of the CSV tables
        out = tmp_path / "out"
        assert run(["gen-basis", "--out-dir", str(out)]) == 0
        doc = read_json(out / "basis.json")
        assert set(doc) == {"grid", "truncation", "config"}
        assert doc["grid"] == {"kind": "uniform", "a": 0.0, "b": 40.0}
        assert doc["truncation"] == {"criterion": "fixed_m", "value": 8, "M": 8}
        assert doc["config"] == cli.validate_config({}, {"output.directory": str(out)})

    def test_csv_tables_hold_the_basis_bit_for_bit(self, tmp_path):
        out = tmp_path / "out"
        assert run(["gen-basis", "--out-dir", str(out)]) == 0
        basis = cli.run_pipeline(cli.validate_config({})).basis
        _, rows = read_csv(out / "basis.csv")
        table = np.array(rows, dtype=float)
        assert np.array_equal(table[:, 0], basis.points)
        assert np.array_equal(table[:, 1:], basis.vectors)
        _, rows = read_csv(out / "eigenvalues.csv")
        assert np.array_equal(np.array(rows, dtype=float)[:, 1], basis.eigenvalues)

    def test_high_angular_momentum_family(self, tmp_path):
        # n_max = 10 includes l = 8, 9, past the first eight shell letters
        cfg = write_config(
            tmp_path,
            {
                "family": {"n_max": 10},
                "sampling": {"kind": "chebyshev-lobatto", "N_s": 80, "b": 80.0},
                "truncation": {"criterion": "energy_fraction", "value": 0.99999},
            },
        )
        out = tmp_path / "out"
        assert run(["gen-basis", "--config", str(cfg), "--out-dir", str(out)]) == 0
        hdr, rows = read_csv(out / "samples.csv")
        assert hdr[-1] == "orb_10m"
        assert len(rows) == 80


_EXCITED_2P = {"problem": {"n": 2, "l": 1, "E": -0.125, "E_range": [-0.2, -0.05], "b": 20.0}}
# Boundary values that rounding leaves 5e-8-4e-7 (relative) off: behind
# coefficients of 1e6 on the Chebyshev grid, boundary rows of norm 9e7 on
# the uniform one
_SCALE_CASES = {
    "chebyshev-3p": {
        "sampling": {"kind": "chebyshev-lobatto", "N_s": 31},
        "truncation": {"value": 21},
        "problem": {"n": 3, "l": 1, "E": -1 / 18, "a": 1.0, "b": 7.0},
    },
    "uniform-1s": {
        "sampling": {"N_s": 38},
        "truncation": {"value": 30},
        "problem": {"a": 0.5, "b": 20.0, "y_a": 1.0},
    },
}


class TestSolve:
    def test_reproduction_report(self, tmp_path):
        out = tmp_path / "out"
        assert run(["solve", "--out-dir", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["rel_l2_error_mid"] <= 0.05
        assert report["M"] == 8
        assert report["reference"] == "closed-form"
        assert report["config"]["problem"]["E"] == -0.5
        hdr, rows = read_csv(out / "solution.csv")
        assert hdr == ["x", "y_numeric", "y_reference", "residual"]
        assert len(rows) == 201

    @pytest.mark.parametrize("overrides", [{}, _EXCITED_2P], ids=["default", "excited2p"])
    def test_residual_table_is_the_solution_columns(self, tmp_path, overrides):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "solution.csv").read_bytes().splitlines()
        columns = b"".join(b"%s,%s\n" % tuple(line.split(b",")[::3]) for line in lines)
        assert (out / "residual.csv").read_bytes() == columns

    @pytest.mark.parametrize(
        "overrides, outcome",
        [
            ({}, "ok"),
            *((_SCALE_CASES[name], "ok") for name in _SCALE_CASES),
            # one mode cannot meet two boundary values
            ({"truncation": {"value": 1}, "problem": {"a": 0.5, "y_a": 1.0}}, "boundary"),
        ],
        ids=["default", *_SCALE_CASES, "one-mode"],
    )
    def test_classification_free_of_the_data_scale(self, overrides, outcome):
        # the CLI solves at unit scale, so scaled copies of a problem
        # classify alike, on subnormal data (2**-1040) too; y_a is given as
        # a multiple of y_f
        def classify(y_f: float) -> str:
            doc = copy.deepcopy(overrides)
            problem = doc.setdefault("problem", {})
            problem["y_a"] = problem.get("y_a", 0.0) * y_f
            problem["y_f"] = y_f
            try:
                cli.cmd_solve(cli.validate_config(doc))
            except NumericalError as err:
                return str(err).split()[0]
            return "ok"

        scales = (-200, 0, 200, -1040)
        outcomes = {classify(math.ldexp(y_f, k)) for y_f in (1e-4, 3e-4, 1.0) for k in scales}
        assert outcomes == {outcome}

    def test_figures_free_of_the_data_scale(self):
        # the CLI solves at unit scale: a power-of-two multiple of the
        # boundary values reports the same figures, to the bit while they
        # are normal doubles. At 1e-4 * 2**-1040 they are subnormal, with
        # about 21 bits of precision
        def figures(y):
            problem = {"a": 0.5, "b": 20.0, "y_a": y, "y_f": y}
            doc = {"sampling": {"N_s": 38}, "truncation": {"value": 30}, "problem": problem}
            report = cli.cmd_solve(cli.validate_config(doc))["report.json"]
            return [report[k] for k in ("rel_l2_error_mid", "rel_l2_error_mid_raw", "residual_norm")]

        normal = figures(1e-4)
        assert normal[0] == 0.001195170552237075
        assert figures(math.ldexp(1e-4, -1000)) == normal
        assert figures(math.ldexp(1e-4, -1040)) == pytest.approx(normal, rel=1e-6, abs=0)

    def test_exported_residual_that_overflows(self, tmp_path, capsys):
        # 12 modes with coefficients of about 3e7 times y_f. The CLI solves
        # at unit scale, so at y_f 4e299 the solve, its defect and its
        # figures are finite, and so is the export at y_f's scale. At 1e308
        # that export overflows: exit 2 with no warning, not an inf cell
        def solve(y_f):
            problem = {"E": -0.65, "a": 0.5, "b": 20.0, "y_a": 1e-4, "y_f": y_f}
            overrides = {"sampling": {"N_s": 16, "b": 80.0}, "truncation": {"value": 12}}
            cfg = write_config(tmp_path, {**overrides, "problem": problem}, f"{y_f}.json")
            out = tmp_path / str(y_f)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(["solve", "--config", str(cfg), "--out-dir", str(out)])
            return code, capsys.readouterr().err, out

        code, err, out = solve(4e299)
        assert (code, err) == (0, "")
        for name in ("solution.csv", "residual.csv"):
            _, rows = read_csv(out / name)
            assert all(math.isfinite(float(c)) for r in rows for c in r), name
        coefficients = read_json(out / "report.json")["coefficients"]
        assert all(math.isfinite(c) for c in coefficients)
        assert max(abs(c) for c in coefficients) > 1e306

        code, err, out = solve(1e308)
        assert code == 2
        assert err == "numerical error: the exported solution or its residual is not finite\n"
        assert not out.exists()

    def test_many_orbital_family(self, tmp_path):
        # n_max = 200 samples 20,100 orbitals, up to n = 200 where the
        # normalization factorials overflow a double; the value is the one
        # the per-orbital sampler gave
        cfg = write_config(tmp_path, {"family": {"n_max": 200}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert read_json(out / "report.json")["rel_l2_error_mid"] == 0.04904602714646398

    def test_zero_boundary_solution(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"y_f": 0.0}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["rel_l2_error_mid"] is None
        assert report["rel_l2_error_mid_raw"] is None
        _, rows = read_csv(out / "solution.csv")
        assert max(abs(float(r[1])) for r in rows) == 0.0

    def test_zero_target_from_nonzero_start(self, tmp_path):
        # the Numerov reference shoots onto y(b) = 0 from y(a) = 1
        cfg = write_config(tmp_path, {"problem": {"a": 1.0, "y_a": 1.0, "y_f": 0.0}})
        for command in ("solve", "compare-bases"):
            out = tmp_path / command
            assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = read_json(tmp_path / "solve" / "report.json")
        assert report["reference"] == "numerov"
        assert report["rel_l2_error_mid"] < 1e-2

    def test_more_modes_do_not_raise_residual(self, tmp_path):
        norms = {}
        for m in (8, 12):
            cfg = write_config(
                tmp_path, {"truncation": {"criterion": "fixed_m", "value": m}}, f"c{m}.json"
            )
            out = tmp_path / f"out{m}"
            assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
            norms[m] = read_json(out / "report.json")["residual_norm"]
        assert norms[12] <= norms[8]

    def test_excited_state_uses_numerov_reference_once(self, tmp_path, monkeypatch):
        calls = []
        oracle = cli.numerov_oracle

        def counted(bvp, n_points):
            calls.append(n_points)
            return oracle(bvp, n_points)

        monkeypatch.setattr(cli, "numerov_oracle", counted)
        # 1e-4 off the 2p eigenvalue, so the reference is the oracle; further
        # off, the 8 modes miss the solution (error 0.52 at E = -0.13)
        cfg = write_config(tmp_path, {"problem": {"n": 2, "l": 1, "E": -0.1251, "b": 20.0}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["reference"] == "numerov"
        assert report["rel_l2_error_mid"] <= 0.03
        assert len(calls) == 1

    def test_eigenstate_uses_closed_form_without_the_oracle(self, tmp_path, monkeypatch):
        def no_oracle(bvp, n_points):
            raise AssertionError("the Numerov oracle ran")

        monkeypatch.setattr(cli, "numerov_oracle", no_oracle)
        cfg = write_config(tmp_path, {"problem": {"n": 2, "l": 1, "E": -0.125, "b": 20.0}})
        for command in ("solve", "compare-bases"):
            assert run([command, "--config", str(cfg), "--out-dir", str(tmp_path / command)]) == 0
        report = read_json(tmp_path / "solve" / "report.json")
        assert report["reference"] == "closed-form"
        # the exact 2p solution x^2 e^{-x/2}, as in the test below
        exact = 0.003076836889356907
        assert abs(report["rel_l2_error_mid"] - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_zero_boundary_values_use_the_trivial_reference(self, tmp_path, monkeypatch, a):
        def no_oracle(bvp, n_points):
            raise AssertionError("the Numerov oracle ran")

        monkeypatch.setattr(cli, "numerov_oracle", no_oracle)
        cfg = write_config(tmp_path, {"problem": {"a": a, "y_a": 0.0, "y_f": 0.0}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["reference"] == "trivial"
        assert report["rel_l2_error_mid"] is None
        assert report["rel_l2_error_mid_raw"] is None
        assert report["residual_norm"] == 0.0
        _, rows = read_csv(out / "solution.csv")
        assert all(float(r[2]) == 0.0 for r in rows)

    @pytest.mark.parametrize(
        "problem",
        [
            {"n": 2, "l": 1, "E": math.nextafter(-0.125, 0.0), "b": 20.0},
            {"n": 2, "l": 1, "E": math.nextafter(-0.125, -1.0), "b": 20.0},
            {"n": 3, "l": 1, "E": -0.125, "b": 20.0},
            {"n": 2, "l": 1, "E": -0.125, "b": 20.0, "a": 0.5},
            {"n": 2, "l": 1, "E": -0.125, "b": 20.0, "y_a": 1e-6},
        ],
        ids=["ulp-above", "ulp-below", "n-names-3p", "a-not-0", "y_a-not-0"],
    )
    def test_oracle_reference_off_the_eigenstate(self, problem):
        config = cli.validate_config({"problem": problem})
        assert cli._mid_window(config, cli.problem_from_config(config))[3] == "numerov"

    @pytest.mark.parametrize("command", ["solve", "compare-bases"])
    def test_boundary_on_a_node_of_the_eigenstate(self, tmp_path, capsys, command):
        # the 2s state vanishes at x = 2, so no multiple of it meets y(2) = y_f
        cfg = write_config(tmp_path, {"problem": {"n": 2, "l": 0, "E": -0.125, "b": 2.0}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "numerical error: b = 2.0 is a node of the 2s state"
        )
        assert not out.exists()

    def test_oracle_seed_underflow_exits_2(self, tmp_path, capsys):
        # off its eigenvalue the l 120 state takes the Numerov reference, whose
        # regular-series start x^121 is 0 at both of its first grid points
        problem = {"n": 121, "l": 120, "E": -0.1}
        cfg = write_config(tmp_path, {"problem": problem})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numerical error: the regular series x^(l+1) underflows to 0 at both "
            "start points, l = 120\n"
        )
        assert not out.exists()

    def test_excited_state_error_against_exact_solution(self, tmp_path):
        # the same metric computed against the exact 2p solution x^2 e^{-x/2}
        exact = 0.003076836889356907
        cfg = write_config(tmp_path, {"problem": {"n": 2, "l": 1, "E": -0.125, "b": 20.0}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rel = read_json(out / "report.json")["rel_l2_error_mid"]
        assert abs(rel - exact) <= 1e-9 * exact

    def test_export_grid_tabulated_once(self, tmp_path, monkeypatch):
        # one kernel each: the collocation problem's interior and boundary
        # points, the export grid, the mid window and the residual-norm grid
        calls = count_kernel_calls(monkeypatch)
        assert run(["solve", "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 4

    def test_unstable_interpolant_fails_without_warnings(self, tmp_path, capsys):
        # on 120 equispaced nodes the barycentric weights span about 35
        # orders of magnitude and the kernel's denominator cancels to zero
        cfg = write_config(tmp_path, {"sampling": {"N_s": 120}, "truncation": {"value": 30}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: barycentric interpolation")
        assert "Warning" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            # fails on the mid window, after the export grid
            {"sampling": {"N_s": 120}, "truncation": {"value": 30}},
            # fails on the residual-norm grid, after the mid window
            {
                "sampling": {"N_s": 80, "b": 20.0},
                "truncation": {"value": 6},
                "problem": {"E": -0.95, "y_f": 1.0},
            },
        ],
        ids=["N_s-120", "80-nodes"],
    )
    def test_numerical_failure_writes_nothing(self, tmp_path, overrides):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())


def _reduced_orbital(n: int, l: int):
    return lambda x: x * radial_wavefunction(OrbitalSpec(n, l), x)


# Problems for the Numerov reference, with their exact reduced solution
# where one is known; the others are checked against a 4e5-point oracle
# read cubically. The CLI's reference for the three eigenstates is their
# closed form, so their oracle is called directly.
_REFERENCE_PROBES = {
    "2p": ({"n": 2, "l": 1, "E": -0.125, "b": 20.0}, _reduced_orbital(2, 1)),
    "2s": ({"n": 2, "l": 0, "E": -0.125, "b": 30.0}, _reduced_orbital(2, 0)),
    "3d": ({"n": 3, "l": 2, "E": -1.0 / 18.0, "b": 40.0}, _reduced_orbital(3, 2)),
    "1s-40": ({"E": -0.45, "b": 40.0}, None),
    "general-start": ({"E": -0.3, "a": 1.0, "y_a": 0.5, "y_f": 0.5}, None),
    "1s-80": ({"E": -0.49, "b": 80.0}, None),
}


class TestReference:
    @pytest.mark.parametrize("probe", list(_REFERENCE_PROBES))
    def test_no_less_accurate_than_fine_linear_read_out(self, probe):
        # the mid-window error after the scale fit, which is what the
        # reported metric sees, against the former 1e5-point linear reference
        problem, exact = _REFERENCE_PROBES[probe]
        if exact is not None:
            problem = {**problem, "y_f": float(exact(problem["b"]))}
        config = cli.validate_config({"sampling": {"b": 80.0}, "problem": problem})
        bvp = cli.problem_from_config(config)
        xm, refm, _, kind = cli._mid_window(config, bvp)
        if exact is not None:
            refm = numerov_oracle(bvp, cli._ORACLE_POINTS).at(xm)
        else:
            assert kind == "numerov"
        truth = exact(xm) if exact is not None else numerov_oracle(bvp, 400_000).at(xm)
        fine = numerov_oracle(bvp, 100_000)
        linear = np.interp(xm, fine.x, fine.y)
        assert cli._mid_errors(refm, truth)[0] <= cli._mid_errors(linear, truth)[0]

    def test_zero_solution_has_no_fitted_error(self):
        # no multiple of y = 0 fits ref; the raw error is exactly 1
        assert cli._mid_errors(np.zeros(201), np.linspace(1.0, 2.0, 201)) == (None, 1.0)


class TestScanEnergy:
    def test_reproduction_scan(self, tmp_path):
        out = tmp_path / "out"
        assert run(["scan-energy", "--out-dir", str(out)]) == 0
        report = read_json(out / "report.json")
        assert abs(report["argmin_energy"] - (-0.5)) <= 0.02
        assert report["argmin_status"] == "interior"
        hdr, rows = read_csv(out / "scan.csv")
        assert hdr == ["E", "residual_norm", "status"]
        assert len(rows) == 41
        assert all(r[2] == "ok" for r in rows)

    def test_three_step_scan_row_count(self, tmp_path):
        cfg = write_config(
            tmp_path, {"problem": {"E_range": [-0.52, -0.48], "n_steps": 3}}
        )
        out = tmp_path / "out"
        assert run(["scan-energy", "--config", str(cfg), "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "scan.csv")
        assert len(rows) == 3

    def test_eigenvalue_free_range_boundary_minimum(self, tmp_path):
        cfg = write_config(
            tmp_path, {"problem": {"E_range": [-0.3, -0.15], "n_steps": 11}}
        )
        out = tmp_path / "out"
        assert run(["scan-energy", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert read_json(out / "report.json")["argmin_status"] == "boundary-minimum"


class TestCompareBases:
    def test_two_kernels_per_basis(self, tmp_path, monkeypatch):
        # per candidate basis: its collocation problem and its mid window
        calls = count_kernel_calls(monkeypatch)
        assert run(["compare-bases", "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 6

    def test_kl_wins_reconstruction(self, tmp_path):
        out = tmp_path / "out"
        assert run(["compare-bases", "--out-dir", str(out)]) == 0
        hdr, rows = read_csv(out / "comparison.csv")
        assert hdr == ["basis_name", "M", "reconstruction_mse", "solve_rel_error"]
        table = {r[0]: r for r in rows}
        assert set(table) == {"kl", "random-orthonormal", "monomial"}
        kl_mse = float(table["kl"][2])
        assert kl_mse <= float(table["random-orthonormal"][2])
        assert kl_mse <= float(table["monomial"][2])

    def test_complete_bases_reconstruct_exactly(self, tmp_path, reproduction_pipeline):
        cfg = write_config(tmp_path, {"truncation": {"criterion": "fixed_m", "value": 20}})
        out = tmp_path / "out"
        assert run(["compare-bases", "--config", str(cfg), "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "comparison.csv")
        trace = float(np.trace(reproduction_pipeline["cov"]))
        for row in rows:
            assert float(row[2]) <= 1e-9 * trace

    def test_kl_row_matches_library_value(self, tmp_path, reproduction_pipeline):
        out = tmp_path / "out"
        assert run(["compare-bases", "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "comparison.csv")
        kl_row = next(r for r in rows if r[0] == "kl")
        direct = klcore.reconstruction_mse(
            reproduction_pipeline["centered"], reproduction_pipeline["basis"], 8
        )
        assert float(kl_row[2]) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            ({}, 0.04193221884106675),
            (
                {"problem": {"n": 2, "l": 1, "E": -0.125, "E_range": [-0.2, -0.05], "b": 20.0}},
                0.003076836889356907,
            ),
        ],
        ids=["default", "excited2p"],
    )
    def test_kl_row_solve_error_is_solves(self, tmp_path, overrides, expected):
        # the kl row solves in the pipeline's own interpolant, as `solve` does
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run(["compare-bases", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "comparison.csv")
        kl_error = float(next(r for r in rows if r[0] == "kl")[3])
        assert kl_error == read_json(out / "report.json")["rel_l2_error_mid"]
        assert kl_error == pytest.approx(expected, rel=1e-9)


class TestRandomOrthonormal:
    def test_columns_orthonormal(self):
        Q = cli._random_orthonormal(20, 8, 20080556)
        assert Q.shape == (20, 8)
        assert np.max(np.abs(Q.T @ Q - np.eye(8))) <= 1e-12

    def test_seeded(self):
        draw = cli._random_orthonormal(20, 8, 7)
        assert draw.tobytes() == cli._random_orthonormal(20, 8, 7).tobytes()
        assert not np.array_equal(
            cli._random_orthonormal(20, 8, 0), cli._random_orthonormal(20, 8, 1)
        )

    def test_leading_value_of_the_default_seed(self):
        leading = cli._random_orthonormal(20, 8, 20080556)[0, 0]
        assert leading == pytest.approx(0.21792755981551415, rel=1e-12)


# Run in a fresh interpreter: each subcommand on the default config, then a
# check that it loaded neither module (numpy.matrixlib shares the prefix)
_IMPORT_GUARD = """
import contextlib, io, sys
from klbasis import cli
for command in cli._COMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--out-dir", sys.argv[1]]) == 0, command
    loaded = sorted({"numpy.ma", "numpy.random"}.intersection(sys.modules))
    assert not loaded, f"{command} imported {loaded}"
"""


def run_python(args, limit=None, timeout=None, env=None) -> subprocess.CompletedProcess:
    """A child Python process that imports klbasis from this tree, its
    address space capped at `limit` bytes when one is given, killed after
    `timeout` seconds (raising `subprocess.TimeoutExpired`), with the
    variables in `env` added to this process's environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cap = None if limit is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", **(env or {})},
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_subcommands_import_neither_numpy_ma_nor_numpy_random(tmp_path):
    result = run_python(["-c", _IMPORT_GUARD, str(tmp_path / "out")])
    assert result.returncode == 0, result.stderr


class TestProcess:
    @pytest.mark.parametrize(
        "command, overrides, code, stderr",
        [
            ("gen-basis", {}, 0, ""),
            (
                "gen-basis",
                {"problem": {"epsilon": 1e-10}},
                1,
                "config error: unknown config key 'problem.epsilon'\n",
            ),
            (
                "solve",
                {"sampling": {"b": 1e-150}, "problem": {"b": 1e-151, "n": 2, "l": 1}},
                2,
                "numerical error: the Numerov coefficients overflow a double at E = -0.5\n",
            ),
        ],
        ids=["success", "config-error", "numerical-error"],
    )
    def test_exit_code(self, tmp_path, command, overrides, code, stderr):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        args = ["-m", "klbasis.cli", command, "--config", str(cfg), "--out-dir", str(out)]
        result = run_python(args)
        assert (result.returncode, result.stderr) == (code, stderr)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_refused_allocation_exits_2(self, tmp_path, command):
        # the (2e7, 28) family values need 4.17 GiB, past a 2 GiB address space
        cfg = write_config(tmp_path, {"sampling": {"N_s": 20_000_000}})
        out = tmp_path / "out"
        args = ["-m", "klbasis.cli", command, "--config", str(cfg), "--out-dir", str(out)]
        result = run_python(args, limit=2 << 30)
        assert result.returncode == 2
        refused = r"numerical error: out of memory: Unable to allocate [^\n]*\n"
        assert re.fullmatch(refused, result.stderr)
        assert result.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_max, refused",
        [(100_000, "Unable to allocate "), (2**53 - 1, "")],
        ids=["n_max-1e5", "n_max-past-numpy"],
    )
    def test_huge_family_exits_2_at_once(self, tmp_path, n_max, refused):
        # the 20 x n_max (n_max + 1) / 2 sample matrix is sized before any of
        # its orbitals is built: 745 GiB at 1e5, past numpy's largest array
        # at 2**53 - 1, which raises ValueError, not MemoryError
        cfg = write_config(tmp_path, {"family": {"n_max": n_max}})
        out = tmp_path / "out"
        args = ["-m", "klbasis.cli", "gen-basis", "--config", str(cfg), "--out-dir", str(out)]
        result = run_python(args, limit=1 << 30, timeout=10)
        assert result.returncode == 2
        pattern = rf"numerical error: out of memory: {refused}[^\n]+\n"
        assert re.fullmatch(pattern, result.stderr)
        assert not out.exists()

    @pytest.mark.parametrize("artifact", ["solution.csv", "residual.csv", "report.json"])
    def test_artifact_path_taken_by_a_directory(self, tmp_path, artifact):
        # the OS refuses the write; the artifacts written before it are deleted
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        result = run_python(["-m", "klbasis.cli", "solve", "--out-dir", str(out)])
        assert result.returncode == 1
        assert result.stderr == f"output error: cannot write {out / artifact}: Is a directory\n"
        assert result.stdout == ""
        assert [p.name for p in out.iterdir()] == [artifact]

    def test_config_is_utf8_under_an_ascii_locale(self, tmp_path):
        # RFC 8259 section 8.1: JSON text is UTF-8 whatever the locale says
        cfg = tmp_path / "config.json"
        cfg.write_bytes('{"problem": {"\u00e9nergie": 1}}'.encode())
        ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        args = ["-m", "klbasis.cli", "solve", "--config", str(cfg)]
        result = run_python(args, env=ascii_locale)
        assert result.returncode == 1
        assert result.stderr.startswith("config error: unknown config key 'problem.")

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_file_opened_with_an_encoding(self, tmp_path, command):
        cfg = write_config(tmp_path, {})
        out = tmp_path / "out"
        args = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m",
                "klbasis.cli", command, "--config", str(cfg), "--out-dir", str(out)]
        result = run_python(args)
        assert (result.returncode, result.stderr) == (0, "")

    def test_memory_error_without_a_message(self, tmp_path, monkeypatch, capsys):
        # Python's own MemoryError, as a list or tuple too large to allocate
        # raises, is empty
        def exhausted(config):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "gen-basis", exhausted)
        assert run(["gen-basis", "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "numerical error: out of memory\n"
        assert not (tmp_path / "out").exists()


class TestFailedWrite:
    def test_partial_artifact_deleted(self, tmp_path, monkeypatch, capsys):
        # the disk fills halfway through the second artifact
        write_text = csvio.write_text

        def full_disk(path, text):
            if path.name == "residual.csv":
                write_text(path, text[:10])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, text)

        monkeypatch.setattr(csvio, "write_text", full_disk)
        out = tmp_path / "out"
        assert run(["solve", "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        message = f"output error: cannot write {out / 'residual.csv'}: No space left on device\n"
        assert (captured.out, captured.err) == ("", message)
        assert list(out.iterdir()) == []

    def test_output_directory_refused(self, tmp_path, monkeypatch, capsys):
        def refused(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(Path, "mkdir", refused)
        out = tmp_path / "out"
        assert run(["gen-basis", "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        message = f"output error: cannot write {out}: Permission denied\n"
        assert (captured.out, captured.err) == ("", message)
        assert not out.exists()


class TestDeterminism:
    @pytest.mark.parametrize("command", ["gen-basis", "solve", "scan-energy", "compare-bases"])
    def test_byte_identical_reruns(self, tmp_path, command):
        cfg = write_config(
            tmp_path,
            {"problem": {"E_range": [-0.52, -0.48], "n_steps": 5}},
        )
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out-dir", str(out), "--seed", "42"]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run([command, "--config", str(cfg), "--out-dir", str(out), "--seed", "42"]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name


# One leaf set to a value that validation must reject, or that the run may
# fail on numerically.
_BAD_LEAVES = [
    ("family", "n_max", 1),
    ("family", "Z", 0.0),
    ("sampling", "N_s", 12.5),
    ("sampling", "kind", "gauss"),
    ("truncation", "value", 0),
    ("problem", "E", float("nan")),
    ("problem", "l", 4),
    ("problem", "b", 99.0),
    ("problem", "E_range", [-0.3, -0.7]),
    ("problem", "n_steps", 2),
    ("problem", "y_a", 1.0),
    ("problem", "epsilon", 5e-324),  # a removed key
    ("output", "export_points", 1),
    ("output", "formats", ["csv"]),
    # integers past 2**53 - 1: each ended solve or scan-energy in a traceback
    # before integer values were bounded
    ("problem", "n", 10**200),
    ("sampling", "N_s", 10**30),
    ("output", "export_points", 10**30),
    ("problem", "n_steps", 10**30),
]


def _leaf_id(leaf) -> str:
    section, key, value = leaf
    past_bound = isinstance(value, int) and abs(value) > 2**53 - 1
    return f"{section}.{key}" + ("-past-2**53" if past_bound else "")


@st.composite
def run_configs(draw):
    n_s = draw(st.integers(4, 40))
    l = draw(st.integers(0, 2))
    e_lo = draw(st.floats(-1.0, -0.1))
    truncation = draw(
        st.one_of(
            st.builds(lambda v: {"criterion": "fixed_m", "value": v}, st.integers(1, n_s)),
            st.builds(
                lambda v: {"criterion": "energy_fraction", "value": v}, st.floats(0.5, 1.0)
            ),
        )
    )
    cfg = {
        "family": {"n_max": draw(st.integers(2, 5)), "Z": draw(st.sampled_from([1.0, 2.0]))},
        "sampling": {
            "kind": draw(st.sampled_from(["uniform", "chebyshev-lobatto"])),
            "N_s": n_s,
            "b": draw(st.sampled_from([20.0, 40.0, 1e60])),
        },
        "truncation": truncation,
        "problem": {
            "n": l + draw(st.integers(1, 2)),
            "l": l,
            "E": draw(st.floats(-1.0, -0.05)),
            "E_range": [e_lo, e_lo + draw(st.floats(0.01, 0.5))],
            "n_steps": draw(st.integers(3, 9)),
            "b": draw(st.floats(2.0, 20.0)),
            "y_a": draw(st.sampled_from([0.0, 0.0, 0.3])),
            "y_f": draw(st.sampled_from([0.0, 1e-4, 1.0, 1e200])),
        },
        "output": {"export_points": draw(st.integers(2, 50))},
    }
    bad = draw(st.one_of(st.none(), st.none(), st.sampled_from(_BAD_LEAVES)))
    if bad is not None:
        section, key, value = bad
        cfg[section][key] = value
    return cfg


def _reject_constant(name):
    raise AssertionError(f"report.json holds {name}")


def _assert_finite_numbers(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            _assert_finite_numbers(value)
    elif isinstance(doc, list):
        for value in doc:
            _assert_finite_numbers(value)
    elif isinstance(doc, float):
        assert math.isfinite(doc)


_ARTIFACTS = {
    "gen-basis": {"samples.csv", "covariance.csv", "eigenvalues.csv", "basis.csv", "basis.json"},
    "solve": {"solution.csv", "residual.csv", "report.json"},
    "scan-energy": {"scan.csv", "report.json"},
    "compare-bases": {"comparison.csv"},
}


class TestExitCodeProperties:
    """Every config ends in exit 0 with finite outputs, exit 1 before any
    output, or exit 2 leaving no files; no exception escapes `main`."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(cfg=run_configs(), command=st.sampled_from(sorted(_ARTIFACTS)))
    def test_exit_code_contract(self, cfg, command):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            path = write_config(tmp_path, cfg)
            out = tmp_path / "out"
            code = run([command, "--config", str(path), "--out-dir", str(out)])
            assert code in (0, 1, 2)
            event(f"{command} exit {code}")
            if code == 1:
                assert not out.exists()
            elif code == 2:
                assert not out.exists() or not any(out.iterdir())
            else:
                assert {p.name for p in out.iterdir()} == _ARTIFACTS[command]
                if "report.json" in _ARTIFACTS[command]:
                    with open(out / "report.json") as fh:
                        _assert_finite_numbers(json.load(fh, parse_constant=_reject_constant))
                if command == "solve":
                    for name in ("solution.csv", "residual.csv"):
                        _, rows = read_csv(out / name)
                        assert all(math.isfinite(float(c)) for r in rows for c in r), name
                if command == "scan-energy":
                    _, rows = read_csv(out / "scan.csv")
                    assert all(math.isfinite(float(r[1])) for r in rows if r[2] == "ok")

    # the derandomized property test draws only some of the leaves
    @pytest.mark.parametrize("command", ["solve", "scan-energy"])
    @pytest.mark.parametrize("leaf", _BAD_LEAVES, ids=_leaf_id)
    def test_every_bad_leaf_over_the_defaults(self, tmp_path, capsys, leaf, command):
        section, key, value = leaf
        path = write_config(tmp_path, {section: {key: value}})
        out = tmp_path / "out"
        code = run([command, "--config", str(path), "--out-dir", str(out)])
        err = capsys.readouterr().err
        if leaf == ("problem", "y_a", 1.0):
            # valid, but the default rR basis vanishes at a = 0
            assert code == 2
            assert err.startswith("numerical error: ")
        else:
            assert code == 1
            assert re.match(rf"config error: .*\b{key}\b", err), err
        assert not out.exists()
