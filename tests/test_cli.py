import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biham.cli import COMMANDS, build_parser, load_config, main, run_config, validate_config

FIXTURES = Path(__file__).parent / "fixtures"

FROZEN_SWEEP_MAX_DEVIATION = 1.885917503558e-07


def run_cli(command, config, out_dir, *extra):
    return main([command, "--config", str(config), "--out", str(out_dir), *extra])


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_gives_one_namespace_for_every_command(command):
    args = build_parser().parse_args([command, "--config", "c", "--out", "o", "--seed", "3",
                                      "--validate-only"])
    assert args == argparse.Namespace(command=command, config="c", out="o", seed=3,
                                      validate_only=True)
    assert build_parser().parse_args([command, "--config", "c"]) == argparse.Namespace(
        command=command, config="c", out=".", seed=None, validate_only=False)


@pytest.mark.parametrize("argv", [["frobnicate", "--config", "c"], ["evolve"]])
def test_parser_refuses_a_bad_argv(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


class TestValidate:
    def test_valid_fixtures_have_no_diagnostics(self):
        for fixture in FIXTURES.glob("*.json"):
            cfg = load_config(fixture)
            assert validate_config(cfg) == [], fixture.name

    def test_regime_violation_diagnostic(self):
        cfg = load_config(FIXTURES / "sweep_reference.json")
        cfg["params"]["path"].update({"x1": 2.0, "z1": 1.0})
        diags = validate_config(cfg)
        assert any("real-spectrum" in d for d in diags)

    def test_negative_dt_schema_diagnostic(self):
        cfg = load_config(FIXTURES / "sweep_reference.json")
        cfg["params"]["dt"] = -0.01
        diags = validate_config(cfg)
        assert any("dt" in d for d in diags)

    def test_unknown_field_rejected(self):
        cfg = load_config(FIXTURES / "decompose_upper.json")
        cfg["params"]["extra_knob"] = 1
        diags = validate_config(cfg)
        assert any("extra_knob" in d for d in diags)

    def test_unknown_command(self):
        assert validate_config({"command": "frobnicate", "params": {}}) != []

    def test_stability_guard_diagnostic(self):
        cfg = load_config(FIXTURES / "evolve_phase_flip.json")
        cfg["params"]["method"] = "rk4"
        cfg["params"]["dt"] = 2.0
        diags = validate_config(cfg)
        assert any("stability" in d for d in diags)

    def test_mutually_exclusive_initials(self):
        cfg = load_config(FIXTURES / "evolve_phase_flip.json")
        cfg["params"]["phibar0"] = {"re": [1.0, 0.0], "im": [0.0, 0.0]}
        cfg["params"]["csq"] = [1.0, 0.0]
        diags = validate_config(cfg)
        assert any("mutually exclusive" in d for d in diags)

    def test_validate_only_flag(self, tmp_path, capsys):
        code = run_cli("decompose", FIXTURES / "decompose_upper.json", tmp_path,
                       "--validate-only")
        assert code == 0
        assert json.loads(capsys.readouterr().out) == []
        assert not list(tmp_path.iterdir())  # nothing executed


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert run_cli("decompose", tmp_path / "nope.json", tmp_path) == 4

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("decompose", bad, tmp_path) == 2

    def test_schema_violation(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "decompose", "params": {}}))
        assert run_cli("decompose", cfg, tmp_path) == 2

    def test_command_mismatch(self, tmp_path):
        assert run_cli("evolve", FIXTURES / "decompose_upper.json", tmp_path) == 2

    def test_compute_error_surfaces(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "decompose",
            "params": {"matrix": {"n": 2, "re": [[1, 1], [-1, -1]],
                                  "im": [[0, 0], [0, 0]]}},
        }))
        assert run_cli("decompose", cfg, tmp_path) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "not_diagonalizable"

    def test_all_fixtures_exit_zero(self, tmp_path):
        for fixture in sorted(FIXTURES.glob("*.json")):
            out = tmp_path / fixture.stem
            out.mkdir()
            assert run_cli(fixture.stem.split("_")[0], fixture, out) == 0, fixture.name


class TestArtifacts:
    def test_decompose_report(self, tmp_path):
        assert run_cli("decompose", FIXTURES / "decompose_upper.json", tmp_path) == 0
        report = json.loads((tmp_path / "decompose.json").read_text())
        assert report["eigenvalues_re"] == [1.0, 2.0]
        assert report["eigenvalues_im"] == [0.0, 0.0]
        assert report["biorthonormality_residual"] <= 1e-12
        assert report["completeness_residual"] <= 1e-12
        assert report["spectrum_is_real"] is True

    def test_evolve_phase_flip_final_row(self, tmp_path):
        assert run_cli("evolve", FIXTURES / "evolve_phase_flip.json", tmp_path) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        final = dict(zip(header, rows[-1]))
        s = 1 / np.sqrt(2)
        assert final["t"] == pytest.approx(np.pi, abs=1e-12)
        assert final["psi0_re"] == pytest.approx(-s, abs=1e-12)
        assert final["psi1_re"] == pytest.approx(-s, abs=1e-12)
        assert abs(final["psi0_im"]) <= 1e-12
        assert final["overlap_re"] == pytest.approx(1.0, abs=1e-12)
        assert final["right_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_verify_report(self, tmp_path):
        assert run_cli("verify", FIXTURES / "verify_random.json", tmp_path) == 0
        report = json.loads((tmp_path / "canonical.json").read_text())
        assert report["rhs_mismatch"] <= 1e-12
        assert report["grad_mismatch"] <= 1e-6
        gap = np.hypot(report["hamiltonian_value_re"] - report["modal_value_re"],
                       report["hamiltonian_value_im"] - report["modal_value_im"])
        assert gap <= 1e-10

    def test_sweep_matches_frozen_regression(self, tmp_path):
        assert run_cli("sweep", FIXTURES / "sweep_reference.json", tmp_path) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        dev = dict(zip(header, rows.T))
        max_dev = max(dev["deviation_1"].max(), dev["deviation_2"].max())
        assert max_dev == pytest.approx(FROZEN_SWEEP_MAX_DEVIATION, abs=1e-6)
        # the conserved overlap stays put even though h is time dependent
        assert np.max(np.abs(dev["overlap_re"] - dev["overlap_re"][0])) <= 1e-9
        assert np.max(np.abs(dev["overlap_im"])) <= 1e-9

    def test_continuum_charge_columns(self, tmp_path):
        assert run_cli("continuum", FIXTURES / "continuum_gaussian.json", tmp_path) == 0
        header, rows = read_csv(tmp_path / "continuum.csv")
        cols = dict(zip(header, rows.T))
        assert np.max(np.abs(cols["Q_re"] - cols["Q_re"][0])) <= 1e-8
        assert np.max(np.abs(cols["Q_im"] - cols["Q_im"][0])) <= 1e-8
        assert np.isnan(cols["continuity_residual"][0])
        assert np.all(np.isfinite(cols["continuity_residual"][1:-1]))


class TestDeterminism:
    @pytest.mark.parametrize("fixture", [
        "decompose_upper.json",
        "evolve_phase_flip.json",
        "verify_random.json",
        "sweep_reference.json",
        "continuum_gaussian.json",
    ])
    def test_byte_identical_reruns(self, tmp_path, fixture):
        command = fixture.split("_")[0]
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            assert run_cli(command, FIXTURES / fixture, out) == 0
            artifact = next(out.iterdir())
            outputs.append(artifact.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_controls_verify_state(self, tmp_path):
        values = []
        for seed in ("1", "1", "2"):
            out = tmp_path / f"s{seed}_{len(values)}"
            out.mkdir()
            assert run_cli("verify", FIXTURES / "verify_random.json", out,
                           "--seed", seed) == 0
            values.append(json.loads((out / "canonical.json").read_text()))
        assert values[0] == values[1]
        assert values[0]["hamiltonian_value_re"] != values[2]["hamiltonian_value_re"]


def test_run_config_returns_artifact_path(tmp_path):
    cfg = load_config(FIXTURES / "decompose_upper.json")
    path = run_config(cfg, tmp_path)
    assert path == tmp_path / "decompose.json"
    assert path.exists()


def run_python(code, *argv, env=()):
    """Run ``code`` in a fresh interpreter with ``src`` on the path: (stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"), **dict(env))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout, proc.stderr


def test_evolve_does_not_import_numpy_random(tmp_path):
    # only verify without psi0 draws a state; every other run leaves numpy.random unloaded
    code = ("import sys; from biham.cli import main; "
            "assert main(sys.argv[1:]) == 0; print('numpy.random' in sys.modules)")
    config = FIXTURES / "evolve_phase_flip.json"
    out, _ = run_python(code, "evolve", "--config", str(config), "--out", str(tmp_path))
    assert out == "False\n"


def test_readme_quick_start_runs():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    assert run_python(blocks[0].split("```")[0]) == ("", "")


def test_importing_the_package_loads_no_module():
    code = "import sys, biham; print(sorted(m for m in sys.modules if m.startswith('biham.')))"
    assert run_python(code) == ("[]\n", "")


def test_successful_run_leaves_stderr_empty(tmp_path):
    # stderr carries errors only, whatever the environment asks for
    code = "import sys; from biham.cli import main; sys.exit(main(sys.argv[1:]))"
    config = FIXTURES / "evolve_phase_flip.json"
    assert run_python(code, "evolve", "--config", str(config), "--out", str(tmp_path),
                      env={"BIHAM_LOG": "info"}) == ("", "")
    assert (tmp_path / "trajectory.csv").exists()


def test_main_adds_no_handler_to_the_root_logger(tmp_path):
    # main() runs in-process in other programs, whose logging it must leave alone
    code = ("import logging, sys; from biham.cli import main; "
            "assert main(sys.argv[1:]) == 0; print(logging.getLogger().handlers)")
    config = FIXTURES / "evolve_phase_flip.json"
    out, _ = run_python(code, "evolve", "--config", str(config), "--out", str(tmp_path))
    assert out == "[]\n"
