import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from biham import canonical, cli, continuum, dynamics, io, spectral
from biham.cli import COMMANDS, build_parser, load_config, main, run_config, validate_config
from biham.dynamics import StatePair
from biham.errors import NonFinite, NotDiagonalizable, StepTooLarge, ZeroModalCoefficient

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


def test_main_shares_one_parser_and_writes_what_a_fresh_process_writes(tmp_path, capsys):
    # the parser is built once per process; a refused argv leaves it as it was
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "c"])
    assert exc.value.code == 2
    capsys.readouterr()
    code = "import sys; from biham.cli import main; sys.exit(main(sys.argv[1:]))"
    for fixture in sorted(FIXTURES.glob("*.json")):
        command = load_config(fixture)["command"]
        fresh = tmp_path / fixture.stem / "fresh"
        fresh.mkdir(parents=True)
        assert run_python(code, command, "--config", str(fixture), "--out", str(fresh)) \
            == ("", "")
        written = {p.name: p.read_bytes() for p in fresh.iterdir()}
        for call in ("first", "second"):
            out = tmp_path / fixture.stem / call
            out.mkdir()
            assert run_cli(command, fixture, out) == 0
            assert capsys.readouterr() == ("", "")
            assert {p.name: p.read_bytes() for p in out.iterdir()} == written, fixture.name


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


# verify with phibar0 runs its state checks beside the decomposition: the same
# artifacts and errors as one thread

def verify_with_phibar0(**params):
    cfg = load_config(FIXTURES / "verify_random.json")
    cfg["params"]["phibar0"] = {"re": [0.3, -0.5, 0.8], "im": [0.1, 0.2, -0.4]}
    cfg["params"].update(params)
    return cfg


def run_refused(tmp_path, capsys, cfg):
    """Run ``cfg`` through ``main``: (exit code, error code of its one stderr line)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    before = threading.active_count()
    code = run_cli(cfg["command"], path, tmp_path / "out")
    out, err = capsys.readouterr()
    assert threading.active_count() == before
    assert out == "" and len(err.strip().split("\n")) == 1
    assert not (tmp_path / "out").exists()
    return code, json.loads(err)["error"]


def raiser(error):
    def fail(*args, **kwargs):
        raise error("injected")
    return fail


@pytest.mark.parametrize("cfg", [
    # the decomposition fails before the FD check would overflow
    verify_with_phibar0(matrix={"n": 2, "re": [[1, 1], [0, 1]], "im": [[0, 0], [0, 0]]},
                        psi0={"re": [1.0, 0.5], "im": [0.0, 0.0]},
                        phibar0={"re": [0.5, 1.0], "im": [0.0, 0.0]}, fd_step=5e-324),
    verify_with_phibar0(matrix={"n": 2, "re": [[1, 1], [0, 1]], "im": [[0, 0], [0, 0]]},
                        phibar0={"re": [0.5, 1.0], "im": [0.0, 0.0]}),
], ids=["both_fail", "decomposition_fails"])
def test_verify_ends_with_the_decomposition_error(tmp_path, capsys, cfg):
    assert run_refused(tmp_path, capsys, cfg) == (3, "not_diagonalizable")


@pytest.mark.parametrize("cfg", [verify_with_phibar0(fd_step=5e-324),
                                 verify_with_phibar0(hbar=5e-324)],
                         ids=["fd_step", "hbar"])
def test_verify_refuses_an_overflowing_check(tmp_path, capsys, cfg):
    # fd_step raises NonFinite in the FD check; hbar gives an inf field, which the
    # report refuses
    assert run_refused(tmp_path, capsys, cfg) == (3, "non_finite")


@pytest.mark.parametrize("cfg", [verify_with_phibar0(),
                                 load_config(FIXTURES / "verify_random.json")],
                         ids=["phibar0", "eigenbasis"])
def test_verify_runs_on_the_calling_thread(tmp_path, monkeypatch, cfg):
    threads = []
    check = canonical.gradient_fd_mismatch

    def record_thread(*args, **kwargs):
        threads.append(threading.current_thread())
        return check(*args, **kwargs)

    monkeypatch.setattr(cli, "_beside", raiser(AssertionError))
    monkeypatch.setattr(canonical, "gradient_fd_mismatch", record_thread)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("verify", path, tmp_path) == 0
    assert threads == [threading.current_thread()]


# decompose takes its residuals, then cond(S), on the calling thread

@pytest.mark.parametrize("residual, cond, error", [
    (NotDiagonalizable, None, "not_diagonalizable"),
    (None, NonFinite, "non_finite"),
    (NotDiagonalizable, NonFinite, "not_diagonalizable"),  # the residuals come first
], ids=["residuals", "cond", "both"])
def test_decompose_error_in_either_step(tmp_path, capsys, monkeypatch, residual, cond, error):
    if residual is not None:
        monkeypatch.setattr(spectral, "completeness_residual", raiser(residual))
    if cond is not None:
        monkeypatch.setattr(spectral.BiorthogonalSystem, "cond", property(raiser(cond)))
    cfg = load_config(FIXTURES / "decompose_upper.json")
    assert run_refused(tmp_path, capsys, cfg) == (3, error)


def test_decompose_runs_on_the_calling_thread(tmp_path, monkeypatch):
    threads = []
    cond = spectral.BiorthogonalSystem.cond

    def record_thread(system):
        threads.append(threading.current_thread())
        return cond.__get__(system)

    monkeypatch.setattr(cli, "_beside", raiser(AssertionError))
    monkeypatch.setattr(spectral.BiorthogonalSystem, "cond", property(record_thread))
    assert run_cli("decompose", FIXTURES / "decompose_upper.json", tmp_path) == 0
    assert threads == [threading.current_thread()]


# continuum builds its RK4 step maps beside the lattice eigenbasis and phibar0

@pytest.mark.parametrize("eigenbasis, maps, error", [
    (NotDiagonalizable, None, "not_diagonalizable"),
    (None, StepTooLarge, "step_too_large"),
    (ZeroModalCoefficient, StepTooLarge, "zero_modal_coefficient"),  # the eigenbasis first
    (NonFinite, MemoryError, "non_finite"),
], ids=["main", "helper", "both", "both_non_finite"])
def test_continuum_error_in_either_thread(tmp_path, capsys, monkeypatch, eigenbasis, maps,
                                          error):
    # the decomposition fails as NotDiagonalizable, phibar0's construction otherwise
    if eigenbasis is NotDiagonalizable:
        monkeypatch.setattr(spectral, "biorthogonal_decompose", raiser(eigenbasis))
    elif eigenbasis is not None:
        monkeypatch.setattr(dynamics, "conjugate_field", raiser(eigenbasis))
    if maps is not None:
        monkeypatch.setattr(dynamics, "_step_maps", raiser(maps))
    cfg = load_config(FIXTURES / "continuum_gaussian.json")
    assert run_refused(tmp_path, capsys, cfg) == (3, error)


def test_continuum_error_waits_for_the_helper_thread(tmp_path, capsys, monkeypatch):
    # the eigenbasis fails at once, while the maps on the helper are still being built
    done = []
    build = dynamics._step_maps

    def slow_maps(*args):
        time.sleep(0.2)
        done.append(True)
        return build(*args)

    monkeypatch.setattr(spectral, "biorthogonal_decompose", raiser(NotDiagonalizable))
    monkeypatch.setattr(dynamics, "_step_maps", slow_maps)
    cfg = load_config(FIXTURES / "continuum_gaussian.json")
    assert run_refused(tmp_path, capsys, cfg) == (3, "not_diagonalizable")
    assert done == [True]


def lattice_config(N, snapshot_every, steps):
    cfg = load_config(FIXTURES / "continuum_gaussian.json")
    cfg["params"].update(N=N, snapshot_every=snapshot_every,
                         t_final=steps * cfg["params"]["dt"])
    return cfg


@pytest.mark.parametrize("cfg", [
    load_config(FIXTURES / "continuum_gaussian.json"),
    lattice_config(64, 7, 100),   # a shorter last interval: two composed powers
    lattice_config(16, 1, 40),    # every step recorded
], ids=["fixture", "N64_uneven", "N16_every_step"])
def test_continuum_artifact_has_the_bits_of_the_sequential_order(tmp_path, capsys,
                                                                 monkeypatch, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    before = threading.active_count()
    assert run_cli("continuum", path, tmp_path / "beside") == 0
    assert threading.active_count() == before
    monkeypatch.setattr(cli, "_beside", lambda main, side: (main(), side()))
    assert run_cli("continuum", path, tmp_path / "sequential") == 0
    assert capsys.readouterr() == ("", "")
    name = cfg["output"]
    assert ((tmp_path / "beside" / name).read_bytes()
            == (tmp_path / "sequential" / name).read_bytes())


@pytest.mark.parametrize("cfg", [
    load_config(FIXTURES / "continuum_gaussian.json"),
    lattice_config(64, 7, 100),   # a shorter last interval: one more NaN residual
], ids=["fixture", "N64_uneven"])
def test_continuum_csv_has_the_bits_of_the_library(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("continuum", path, tmp_path) == 0
    header, got = read_csv(tmp_path / cfg["output"])  # float() parses each repr exactly

    params = cfg["params"]
    config = continuum.ContinuumConfig(L=params["L"], N=params["N"], m=params["m"],
                                       hbar=params["hbar"])
    x = config.grid()
    pot, init = params["potential"], params["psi0"]
    V = continuum.complex_gaussian_potential(x, pot["center"], pot["width"],
                                             pot["amp_re"] + 1j * pot["amp_im"])
    psi0 = continuum.gaussian_packet(x, init["center"], init["width"], init["momentum"],
                                     config.hbar)
    state0 = continuum.initial_lattice_state(config, V, psi0)
    steps, every = round(params["t_final"] / params["dt"]), params["snapshot_every"]
    snaps = dynamics.rk4_trajectory(continuum.discretize(config, V), state0, params["dt"],
                                    steps, record_every=every)
    # no time stencil in the end rows, nor before a shorter last interval
    last = len(snaps) - 1 if steps % every == 0 else len(snaps) - 2
    resid = np.full(len(snaps), np.nan)
    resid[1:last] = continuum.continuity_residuals(snaps[:last + 1], config)
    q = np.array([continuum.lattice_charge(s, config.dx) for s in snaps])
    norm = np.array([dynamics.right_norm(s) * config.dx for s in snaps])
    want = np.column_stack([snaps.t, q.real, q.imag, resid, norm])

    assert header == cli.CONTINUUM_HEADER
    assert got.tobytes() == want.tobytes()
    # the initial state and its record carry the same charge
    assert continuum.lattice_charge(state0, config.dx) == q[0]


@pytest.mark.parametrize("command, cfg", [
    ("decompose", load_config(FIXTURES / "decompose_upper.json")),
    ("verify", verify_with_phibar0()),
    ("verify", load_config(FIXTURES / "verify_random.json")),
    ("continuum", load_config(FIXTURES / "continuum_gaussian.json")),
], ids=["decompose", "verify_phibar0", "verify", "continuum"])
def test_successful_run_leaves_no_thread(tmp_path, capsys, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    before = threading.active_count()
    assert run_cli(command, path, tmp_path) == 0
    assert threading.active_count() == before
    assert capsys.readouterr() == ("", "")


def random_verify_config(n):
    rng = np.random.default_rng(64)
    h, psi0, phibar0 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                        for shape in ((n, n), n, n))
    re_im = lambda a: {"re": a.real.tolist(), "im": a.imag.tolist()}  # noqa: E731
    return {"command": "verify", "output": "canonical.json",
            "params": {"matrix": {"n": n, **re_im(h)}, "hbar": 0.7,
                       "psi0": re_im(psi0), "phibar0": re_im(phibar0)}}


@pytest.mark.parametrize("cfg", [verify_with_phibar0(), random_verify_config(64)],
                         ids=["n3", "n64"])
def test_verify_report_has_the_bits_of_canonical_report(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("verify", path, tmp_path) == 0
    got = json.loads((tmp_path / "canonical.json").read_text())
    params = cfg["params"]
    h = io.matrix_from_json(params["matrix"])
    n = h.shape[0]
    if "psi0" in params:
        psi0 = io.vector_from_json(params["psi0"], n)
    else:  # the state the CLI draws from the config's seed
        rng = np.random.default_rng(cfg["seed"])
        psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi0 /= np.linalg.norm(psi0)
    state = StatePair(psi=psi0,
                      phibar=io.vector_from_json(params["phibar0"], n),
                      hbar=params.get("hbar", 1.0))
    report = canonical.canonical_report(h, state)
    want = [report.hamiltonian_value.real, report.hamiltonian_value.imag,
            report.modal_value.real, report.modal_value.imag,
            report.rhs_mismatch, report.grad_mismatch]
    keys = ["hamiltonian_value_re", "hamiltonian_value_im", "modal_value_re",
            "modal_value_im", "rhs_mismatch", "grad_mismatch"]
    assert np.array([got[k] for k in keys]).tobytes() == np.array(want).tobytes()
