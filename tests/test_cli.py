import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import count_kernel_calls

from klbasis import cli, klcore
from klbasis.csvio import read_csv
from klbasis.hydrogenic import OrbitalSpec, numerov_oracle, radial_wavefunction

README = Path(__file__).resolve().parents[1] / "README.md"


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

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-320])
    def test_epsilon_that_overflows_the_potential(self, tmp_path, capsys, epsilon):
        # -Z/epsilon overflows to inf at the origin and puts nan in the artifacts
        cfg = write_config(tmp_path, {"problem": {"epsilon": epsilon}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "config error: problem.epsilon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-basis", "solve"])
    def test_domain_too_narrow_to_differentiate(self, tmp_path, capsys, command):
        # on nodes 1e-300 apart the derivative samples D^2 S overflow
        cfg = write_config(tmp_path, {"sampling": {"b": 1e-300}, "problem": {"b": 1e-301}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: derivatives of the interpolant")
        assert "[0.0, 1e-300]" in err
        assert not out.exists()

    def test_readme_block_is_the_defaults(self):
        block = README.read_text().split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == cli.DEFAULT_CONFIG

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
        config = cli.validate_config({"family": {"Z": 2}, "sampling": {"N_s": 20.0}})
        doc = config.to_dict()
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

    def test_value_error_is_not_a_numerical_failure(self, tmp_path, monkeypatch):
        def broken(config):
            raise ValueError("a defect, not numerics")

        monkeypatch.setitem(cli._COMMANDS, "solve", broken)
        with pytest.raises(ValueError, match="a defect"):
            run(["solve", "--out-dir", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()


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

    def test_many_orbital_family(self, tmp_path):
        # n_max = 200 samples 20,100 orbitals, up to n = 200 where the
        # normalization factorials overflow a double; the value is the one
        # the per-orbital sampler gave
        cfg = write_config(tmp_path, {"family": {"n_max": 200}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert read_json(out / "report.json")["rel_l2_error_mid"] == 0.04904603824761954

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

    def test_excited_state_error_against_exact_solution(self, tmp_path):
        # the same metric computed against the exact 2p solution x^2 e^{-x/2}
        exact = 0.0030768370346592644
        cfg = write_config(tmp_path, {"problem": {"n": 2, "l": 1, "E": -0.125, "b": 20.0}})
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rel = read_json(out / "report.json")["rel_l2_error_mid"]
        assert abs(rel - exact) <= 1e-9 * exact

    def test_export_grid_tabulated_once(self, tmp_path, monkeypatch):
        # 3 kernel calls build the collocation problem, 2 tabulate the export
        # grid, 1 the mid window and 2 the residual-norm grid
        calls = count_kernel_calls(monkeypatch)
        assert run(["solve", "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 8

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
                "family": {"n_max": 7},
                "sampling": {"N_s": 80, "b": 20.0, "representation": "R"},
                "truncation": {"value": 6},
                "problem": {"E": -0.95, "y_f": 1.0},
            },
        ],
        ids=["N_s-120", "R-80-nodes"],
    )
    def test_numerical_failure_writes_nothing(self, tmp_path, overrides):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())


def _reduced_orbital(n: int, l: int):
    return lambda x: x * radial_wavefunction(OrbitalSpec(n, l), x)


# Problems whose reference is the Numerov oracle, with their exact reduced
# solution where one is known; the others are checked against a 4e5-point
# oracle read cubically.
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
        reference, kind = cli._reference(config, bvp)
        assert kind == "numerov"
        xm = cli._mid_window(bvp)
        truth = exact(xm) if exact is not None else numerov_oracle(bvp, 400_000).at(xm)
        fine = numerov_oracle(bvp, 100_000)
        linear = np.interp(xm, fine.x, fine.y)
        assert cli._rel_l2_scaled(reference(xm), truth) <= cli._rel_l2_scaled(linear, truth)


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
    ("problem", "epsilon", 5e-324),
    ("output", "export_points", 1),
    ("output", "formats", ["csv"]),
]


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
            "b": draw(st.sampled_from([20.0, 40.0])),
            "representation": draw(st.sampled_from(["R", "rR"])),
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
            "y_f": draw(st.sampled_from([0.0, 1e-4, 1.0])),
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
    @pytest.mark.parametrize("leaf", _BAD_LEAVES, ids=lambda leaf: f"{leaf[0]}.{leaf[1]}")
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
