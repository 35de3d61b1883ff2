import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from klbasis import cli, klcore
from klbasis.csvio import read_csv


def write_config(tmp_path: Path, overrides: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return path


def run(args) -> int:
    return cli.main(args)


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class TestConfig:
    def test_defaults_round_trip(self):
        config = cli.validate_config(cli.DEFAULT_CONFIG)
        assert cli.validate_config(config.to_dict()).to_dict() == config.to_dict()

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

    def test_non_object_section_named_before_overrides(self, tmp_path, capsys):
        # --out-dir merges an "output" object; the file's non-object must be
        # reported as such, not as a key missing from the merged object
        cfg = write_config(tmp_path, {"output": 3})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "config error: output must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        # reduced-representation basis cannot meet a nonzero left boundary
        cfg = write_config(tmp_path, {"problem": {"y_a": 1.0, "y_f": 1.0}})
        assert run(["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


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
        assert len(doc["eigenvalues"]) == 20
        assert doc["config"]["sampling"]["N_s"] == 20

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

    def test_zero_boundary_solution(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"y_f": 0.0}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["rel_l2_error_mid"] is None
        assert report["rel_l2_error_mid_raw"] is None
        _, rows = read_csv(out / "solution.csv")
        assert max(abs(float(r[1])) for r in rows) == 0.0

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
        cfg = write_config(tmp_path, {"problem": {"n": 2, "l": 1, "E": -0.125, "b": 20.0}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["reference"] == "numerov"
        assert report["rel_l2_error_mid"] <= 0.03
        assert len(calls) == 1

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
        trace = float(np.trace(reproduction_pipeline["cov"].K))
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
