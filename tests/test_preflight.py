"""One physics preflight: validation and the run apply the same exact checks.

A linear sweep stays in the real regime exactly when z keeps its sign and
both endpoints are strictly inside; its step guard is exact at the endpoints.
Configs that fail a check end with a stable JSON error code, never with a
traceback or an artifact.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import biham
from biham.cli import load_config, main, run_config, validate_config
from biham.dynamics import MAX_STEP_FRACTION, StatePair, evolve_exact
from biham.errors import ConfigError, NonFinite, OutsideRealRegime, StepTooLarge
from biham.io import read_json
from biham.lorentzian import (
    SweepPath,
    check_real_regime,
    check_sweep_step,
    initial_sweep_state,
    sweep_adiabatic,
)
from biham.spectral import biorthogonal_decompose

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(biham.__file__).resolve().parent.parent
FLOAT_MAX = sys.float_info.max

IDENTITY_2 = {"n": 2, "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


def sweep_config(start, end, T=10.0, dt=0.01):
    (x0, y0, z0), (x1, y1, z1) = start, end
    return {
        "command": "sweep",
        "params": {
            "path": {"x0": x0, "y0": y0, "z0": z0, "x1": x1, "y1": y1, "z1": z1,
                     "interpolation": "linear"},
            "T": T, "dt": dt, "csq": [1.0, 0.0],
        },
    }


def evolve_config(**params):
    base = {"matrix": IDENTITY_2, "psi0": {"re": [1.0, 0.0], "im": [0.0, 0.0]},
            "method": "rk4", "t_final": 1.0, "dt": 0.1}
    return {"command": "evolve", "params": {**base, **params}}


GRAZING = ((3e-4, 0.0, 1.0), (3e-4, 0.0, -1.1))
FLAT_CROSSING = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))


class TestExactRegime:
    @pytest.mark.parametrize("start, end", [GRAZING, FLAT_CROSSING])
    def test_sign_change_rejected_by_validation_and_sweep(self, start, end):
        diags = validate_config(sweep_config(start, end))
        assert len(diags) == 1 and "real-spectrum" in diags[0]
        path = SweepPath.linear(start, end, T=10.0)
        with pytest.raises(OutsideRealRegime):
            sweep_adiabatic(path, initial_sweep_state(path, [1.0, 0.0]), dt=0.01)

    def test_grazing_path_slips_between_samples(self):
        # the margin z^2 - x^2 - y^2 is negative only in a window of width
        # ~3e-4 in s, which 257 evenly spaced samples all miss
        path = SweepPath.linear(*GRAZING, T=10.0)
        samples = [path.params_at(s).discriminant for s in np.linspace(0.0, 1.0, 257)]
        assert min(samples) > 0.0
        with pytest.raises(OutsideRealRegime):
            check_real_regime(path)

    def test_endpoint_on_boundary_rejected(self):
        with pytest.raises(OutsideRealRegime):
            check_real_regime(SweepPath.linear((0.0, 0.0, 2.0), (1.0, 0.0, 1.0), T=1.0))

    def test_interior_paths_accepted_for_both_signs_of_z(self):
        for sign in (1.0, -1.0):
            check_real_regime(SweepPath.linear((0.5, 0.5, 2.0 * sign), (-0.9, 0.3, 1.0 * sign),
                                               T=1.0))

    def test_agrees_with_the_exact_minimum_on_random_segments(self):
        rng = np.random.default_rng(11)
        s_grid = np.linspace(0.0, 1.0, 401)
        for _ in range(400):
            start, end = rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)
            path = SweepPath.linear(start, end, T=1.0)
            points = list(s_grid)
            if start[2] != end[2]:
                crossing = start[2] / (start[2] - end[2])
                if 0.0 <= crossing <= 1.0:
                    points.append(crossing)
            margin = min(path.params_at(s).discriminant for s in points)
            try:
                check_real_regime(path)
            except OutsideRealRegime:
                assert margin <= 1e-12
            else:
                assert margin > 0.0


class TestExactStepGuard:
    def test_guard_is_maximal_at_an_endpoint(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            start, end = rng.uniform(-3.0, 3.0, 3), rng.uniform(-3.0, 3.0, 3)
            path = SweepPath.linear(start, end, T=1.0)
            dt = rng.uniform(0.01, 0.3)
            sampled = max(path.params_at(s).spectral_norm for s in np.linspace(0, 1, 201))
            steps = max(1, round(path.T / dt))
            try:
                assert check_sweep_step(path, dt) == steps
            except StepTooLarge:
                assert path.T / steps * sampled > MAX_STEP_FRACTION
            else:
                assert path.T / steps * sampled <= MAX_STEP_FRACTION

    def test_validator_uses_the_run_step(self):
        # dt = 0.44 passes the guard at ||h|| = 1.1, but the run steps with
        # dt_eff = T / round(T/dt) = 0.5, which does not
        cfg = sweep_config((0.0, 0.0, 1.1), (0.0, 0.0, 1.1), T=1.0, dt=0.44)
        diags = validate_config(cfg)
        assert len(diags) == 1 and "stability" in diags[0]
        path = SweepPath.linear((0.0, 0.0, 1.1), (0.0, 0.0, 1.1), T=1.0)
        with pytest.raises(StepTooLarge):
            sweep_adiabatic(path, initial_sweep_state(path, [1.0, 0.0]), dt=0.44)

    def test_both_rules_broken_gives_two_diagnostics(self):
        diags = validate_config(sweep_config((1.0, 0.0, 30.0), (1.0, 0.0, -40.0), dt=0.05))
        assert len(diags) == 2
        assert any("stability" in d for d in diags)
        assert any("real-spectrum" in d for d in diags)


class TestConfigRules:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_rejected(self, tmp_path, constant):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(evolve_config()).replace('"dt": 0.1', f'"dt": {constant}'))
        with pytest.raises(ConfigError, match=constant):
            read_json(path)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_undecodable_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"command": "\xff"}')
        with pytest.raises(ConfigError):
            read_json(path)

    @pytest.mark.parametrize("command", ["evolve", "continuum"])
    def test_horizon_must_be_whole_steps(self, tmp_path, command):
        if command == "evolve":
            cfg = evolve_config(t_final=1.0, dt=0.3)
        else:
            cfg = load_config(FIXTURES / "continuum_gaussian.json")
            cfg["params"].update(t_final=0.05, dt=0.0003)
        diags = validate_config(cfg)
        assert len(diags) == 1 and diags[0].startswith("params.t_final")
        with pytest.raises(ConfigError, match="whole number of steps"):
            run_config(cfg, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_horizon_accepts_rounding_of_whole_steps(self):
        # 30 steps of 0.1 end at 3.0000000000000004: a rounding-level miss
        assert validate_config(evolve_config(t_final=1.0, dt=0.1)) == []
        assert validate_config(evolve_config(t_final=3.0, dt=0.1)) == []

    def test_step_count_overflow_is_a_config_error(self):
        diags = validate_config(evolve_config(t_final=1e300, dt=1e-300))
        assert len(diags) == 1 and "finite" in diags[0]

    def test_exact_overflow_raises_non_finite(self):
        h = np.diag([5j, -5j])
        system = biorthogonal_decompose(h)
        state = StatePair(psi=np.array([1.0, 1.0]), phibar=np.array([1.0, 1.0]))
        assert np.all(np.isfinite(evolve_exact(system, state, 100.0).psi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(NonFinite):
                evolve_exact(system, state, 200.0)


# ---------------------------------------------------------------------------
# CLI contract: a failing config ends with one JSON error line and no artifact

OVERFLOW = evolve_config(
    matrix={"n": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[5.0, 0.0], [0.0, -5.0]]},
    psi0={"re": [1.0, 1.0], "im": [0.0, 0.0]}, method="exact", t_final=200.0, dt=0.1)

CONTRACT_CASES = {
    "nan_dt": (json.dumps(evolve_config()).replace('"dt": 0.1', '"dt": NaN'),
               2, "config_error"),
    "infinite_t_final": (json.dumps(evolve_config()).replace('"t_final": 1.0',
                                                            '"t_final": Infinity'),
                         2, "config_error"),
    "exact_overflow": (json.dumps(OVERFLOW), 3, "non_finite"),
    "short_horizon": (json.dumps(evolve_config(t_final=1.0, dt=0.3)), 2, "config_error"),
    "grazing_sweep": (json.dumps(sweep_config(*GRAZING)), 3, "outside_real_regime"),
    "flat_crossing_sweep": (json.dumps(sweep_config(*FLAT_CROSSING)), 3,
                            "outside_real_regime"),
    "sweep_breaks_both_rules": (json.dumps(sweep_config((1.0, 0.0, 30.0), (1.0, 0.0, -40.0),
                                                        dt=0.05)),
                                3, "step_too_large"),
}


def matrix_with(re):
    return evolve_config(matrix={"n": 2, "re": re, "im": [[0.0, 0.0], [0.0, 0.0]]})


HUGE = 10 ** 400  # a 400-digit integer literal, beyond float range

# number-grid faults found by io, and scalars or step counts beyond float range
CONTRACT_CASES.update({
    "bool_matrix_entry": (json.dumps(matrix_with([[True, 0.0], [0.0, -1.0]])), 2,
                          "config_error"),
    "string_matrix_entry": (json.dumps(matrix_with([["1.5", 0.0], [0.0, -1.0]])), 2,
                            "config_error"),
    "ragged_matrix_row": (json.dumps(matrix_with([[1.0, 0.0], [0.0]])), 2, "config_error"),
    "huge_integer_in_re": (json.dumps(matrix_with([[HUGE, 0.0], [0.0, -1.0]])), 2,
                           "config_error"),
    "huge_integer_in_psi0": (json.dumps(evolve_config(psi0={"re": [HUGE, 0.0],
                                                            "im": [0.0, 0.0]})),
                             2, "config_error"),
    # 1j*inf must not add a RuntimeWarning to the one JSON error line
    "overflowing_matrix_entry": (json.dumps(matrix_with([[1.0, 0.0], [0.0, -1.0]]))
                                 .replace('"im": [[0.0', '"im": [[1e999'), 2, "config_error"),
    "overflowing_hbar": (json.dumps(evolve_config(hbar=1.0)).replace('"hbar": 1.0',
                                                                     '"hbar": 1e999'),
                         2, "config_error"),
    "sweep_step_count_overflow": (json.dumps(sweep_config((1.0, 0.0, 3.0), (1.0, 0.0, 5.0),
                                                          T=1e300, dt=1e-300)),
                                  2, "config_error"),
})



def sweep_with_samples(samples):
    cfg = sweep_config((1.0, 0.0, 3.0), (1.0, 0.0, 5.0))
    cfg["params"]["samples"] = samples
    return cfg


# step counts above dynamics.MAX_STEPS and sweep samples above dynamics.MAX_RECORDS
CONTRACT_CASES.update({
    "sweep_step_cap": (json.dumps(sweep_config((1.0, 0.0, 3.0), (1.0, 0.0, 5.0),
                                               T=1e300, dt=0.05)), 2, "config_error"),
    "evolve_step_cap": (json.dumps(evolve_config(t_final=1e20, dt=0.1)), 2, "config_error"),
    "sweep_samples_cap": (json.dumps(sweep_with_samples(HUGE)), 2, "config_error"),
})

# 10**6 steps recorded at every step make 10**6 + 1 rows, one above dynamics.MAX_RECORDS
ROWS_OVER_CAP = {"t_final": 1e5, "dt": 0.1}
CONTRACT_CASES.update({
    "evolve_rk4_rows_cap": (json.dumps(evolve_config(**ROWS_OVER_CAP)), 2, "config_error"),
    "evolve_exact_rows_cap": (json.dumps(evolve_config(method="exact", **ROWS_OVER_CAP)), 2,
                              "config_error"),
})

# integral floats in integer fields: JSON integers only, as range and numpy need
CONTINUUM = load_config(FIXTURES / "continuum_gaussian.json")
CONTRACT_CASES.update({
    "evolve_integral_snapshot_every": (json.dumps(evolve_config(snapshot_every=2.0)), 2,
                                       "config_error"),
    "continuum_integral_snapshot_every": (json.dumps(
        {**CONTINUUM, "params": {**CONTINUUM["params"], "snapshot_every": 2.0}}), 2,
        "config_error"),
    "continuum_integral_N": (json.dumps({**CONTINUUM, "params": {**CONTINUUM["params"],
                                                                 "N": 64.0}}),
                             2, "config_error"),
    "sweep_integral_samples": (json.dumps(sweep_with_samples(11.0)), 2, "config_error"),
    "integral_seed": (json.dumps({**evolve_config(), "seed": 3.0}), 2, "config_error"),
})

# output names that os.fsencode cannot encode, and names whose temp name
# .<name>.<8 characters>.tmp is above the 255-byte file name limit
CONTRACT_CASES.update({
    "surrogate_output": (json.dumps({**evolve_config(), "output": "\ud800x.json"}), 2,
                         "config_error"),
    "output_over_the_name_limit": (json.dumps({**evolve_config(), "output": "a" * 242}), 2,
                                   "config_error"),
})


def continuum_with(key, **fields):
    """The continuum fixture with ``params[key]`` replaced by ``fields``."""
    return {**CONTINUUM, "params": {**CONTINUUM["params"], key: fields}}


# faults found past the schema: a document that is not an object, a csq of the
# wrong length, and a field that a potential or psi0 kind needs
CONTRACT_CASES.update({
    "config_not_an_object": ("[]", 2, "config_error"),
    "evolve_csq_wrong_length": (json.dumps(evolve_config(csq=[1.0])), 2, "config_error"),
    "complex_gaussian_without_width": (json.dumps(continuum_with(
        "potential", kind="complex_gaussian", center=8.0)), 2, "config_error"),
    "gaussian_psi0_without_center": (json.dumps(continuum_with(
        "psi0", kind="gaussian", width=1.2)), 2, "config_error"),
    "plane_wave_psi0_without_mode": (json.dumps(continuum_with("psi0", kind="plane_wave")),
                                     2, "config_error"),
})


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_cli_contract_on_failing_configs(tmp_path, case):
    text, exit_code, error = CONTRACT_CASES[case]
    doc = json.loads(text)
    command = doc["command"] if isinstance(doc, dict) else "decompose"
    config = tmp_path / "cfg.json"
    config.write_text(text)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "biham.cli", command, "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert exit_code in (2, 3)
    assert proc.returncode == exit_code
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert not out.exists() or not list(out.iterdir())


def test_grazing_sweep_both_routes(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(sweep_config(*GRAZING)))
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv + ["--validate-only"]) == 2
    diags = json.loads(capsys.readouterr().out)
    assert any("real-spectrum" in d for d in diags)
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "outside_real_regime"
    assert not (tmp_path / "out").exists()


# sweeps at the ends of the float range, where z^2 overflows or underflows:
# the regime test compares the signs of z and takes the discriminants scaled


def extreme_sweep(start, end, hbar):
    cfg = sweep_config(start, end, T=1.0)
    cfg["params"]["hbar"] = hbar
    return cfg


def test_grazing_sweep_at_a_huge_scale_both_routes(tmp_path, capfd):
    # starts on the exceptional surface, where z^2 - x^2 overflows to nan
    cfg = extreme_sweep((1e155, 0.0, 1e155), (0.0, 0.0, 5e154), hbar=1e300)
    assert_refused(tmp_path, cfg, capfd, 2, 3, "outside_real_regime", "params.path")


@pytest.mark.parametrize("start, end, hbar", [
    ((5e154, 0.0, 1e155), (0.0, 0.0, 5e154), 1e300),
    ((5e-170, 0.0, 1e-169), (0.0, 0.0, 2e-169), 1.0),   # z0 * z1 underflows to 0
], ids=["huge", "tiny"])
def test_sweep_inside_the_regime_at_extreme_scales_both_routes(tmp_path, capfd, start, end,
                                                               hbar):
    assert both_routes(tmp_path, extreme_sweep(start, end, hbar), capfd) == (0, [], 0, [])
    rows = np.loadtxt(tmp_path / "out" / "sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (101, 7) and np.isfinite(rows).all()



# ---------------------------------------------------------------------------
# resource caps: recorded rows (evolve, continuum) and continuum grid points


def routes(tmp_path, cfg, capsys):
    """Exit codes and outputs of ``--validate-only`` and of the run through ``main()``."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    argv = [cfg["command"], "--config", str(config), "--out", str(tmp_path / "out")]
    validate = main(argv + ["--validate-only"])
    diags = json.loads(capsys.readouterr().out)
    run = main(argv)
    err = capsys.readouterr().err.strip().split("\n")
    return validate, diags, run, err


@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("t_final, every, rows", [
    (99999.9, 1, 10 ** 6),
    (1e5, 1, 10 ** 6 + 1),
    (1e5, 2, 500001),
    (199999.7, 2, 10 ** 6),       # 1999997 steps: the last is recorded too
    (199999.9, 2, 10 ** 6 + 1),
    (1e5, 10 ** 6, 2),
])
def test_evolve_rows_cap_counts_every_recorded_row(method, t_final, every, rows):
    cfg = evolve_config(method=method, t_final=t_final, dt=0.1, snapshot_every=every)
    diags = validate_config(cfg)
    if rows <= biham.dynamics.MAX_RECORDS:
        assert diags == []
    else:
        assert len(diags) == 1 and diags[0].startswith("params.snapshot_every: ")
        assert f" make {rows} rows" in diags[0]


def continuum_config(**params):
    cfg = load_config(FIXTURES / "continuum_gaussian.json")
    cfg["params"].update(params)
    return cfg


def test_continuum_rows_cap_both_routes(tmp_path, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("an over-cap run must not start")

    # dt = 0.0005: 10**6 steps
    assert validate_config(continuum_config(t_final=500.0, snapshot_every=2)) == []
    monkeypatch.setitem(biham.cli._RUNNERS, "continuum", forbidden)
    validate, diags, run, err = routes(tmp_path, continuum_config(t_final=500.0,
                                                                  snapshot_every=1), capsys)
    assert validate == 2 and len(diags) == 1 and diags[0].startswith("params.snapshot_every: ")
    assert run == 2 and len(err) == 1 and json.loads(err[0])["error"] == "config_error"
    assert not (tmp_path / "out").exists()


def identity_evolve(n, steps):
    """An rk4 evolve of the n x n identity: 4n + 4 CSV cells per row."""
    eye = np.eye(n).tolist()
    return evolve_config(matrix={"n": n, "re": eye, "im": np.zeros((n, n)).tolist()},
                         psi0={"re": [1.0] * n, "im": [0.0] * n},
                         t_final=steps * 0.1, dt=0.1)


# a continuum row holds 2N complex entries and 5 CSV cells, an evolve row 2n entries
# and 4n + 4 cells: the entry cap binds the first, the cell cap the second
MEMORY_CAPS = {  # module, cap, what it counts, config of so many rows, count per row
    "entries": (biham.dynamics, "MAX_RECORD_ENTRIES", "recorded complex entries",
                lambda rows: continuum_config(N=32, t_final=(rows - 1) * 0.0005,
                                              snapshot_every=1), 64),
    "cells": (biham.io, "MAX_CSV_CELLS", "CSV cells",
              lambda rows: identity_evolve(7, rows - 1), 32),
}


@pytest.mark.parametrize("cap", MEMORY_CAPS)
def test_memory_caps_at_the_cap_and_one_row_above(cap):
    module, name, what, config, width = MEMORY_CAPS[cap]
    limit = getattr(module, name)
    assert limit % width == 0
    assert validate_config(config(limit // width)) == []
    diags = validate_config(config(limit // width + 1))
    assert len(diags) == 1 and diags[0].startswith("params.snapshot_every: ")
    assert f"of {width} {what}, {limit + width} in all, above the limit of {limit}" in diags[0]


@pytest.mark.parametrize("cap", MEMORY_CAPS)
def test_memory_caps_both_routes(tmp_path, capsys, monkeypatch, cap):
    # the caps lowered to 6 rows, so a run at the cap is cheap
    module, name, what, config, width = MEMORY_CAPS[cap]
    monkeypatch.setattr(module, name, 6 * width)
    (tmp_path / "at").mkdir()
    (tmp_path / "above").mkdir()
    validate, diags, run, err = routes(tmp_path / "at", config(6), capsys)
    assert (validate, diags, run, err) == (0, [], 0, [""])
    assert len(list((tmp_path / "at" / "out").iterdir())) == 1
    validate, diags, run, err = routes(tmp_path / "above", config(7), capsys)
    assert validate == 2 and len(diags) == 1 and what in diags[0]
    assert run == 2 and len(err) == 1 and json.loads(err[0])["error"] == "config_error"
    assert not (tmp_path / "above" / "out").exists()


def test_continuum_grid_cap_both_routes(tmp_path, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("an over-cap generator must not be built")

    monkeypatch.setattr(biham.continuum, "discretize", forbidden)
    validate, diags, run, err = routes(
        tmp_path, continuum_config(N=biham.continuum.MAX_SITES + 1), capsys)
    assert validate == 2 and diags == [
        f"params: N exceeds the limit of {biham.continuum.MAX_SITES} grid points"]
    assert run == 2 and len(err) == 1 and json.loads(err[0])["error"] == "config_error"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# overflow and uneven records: typed on both routes, with no warning


def both_routes(tmp_path, cfg, capfd):
    """``routes`` at the file-descriptor level, with the warnings raised on the way."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    argv = [cfg["command"], "--config", str(config), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate = main(argv + ["--validate-only"])
        out, err = capfd.readouterr()
        assert err == ""
        diags = json.loads(out)
        run = main(argv)
        out, err = capfd.readouterr()
    assert out == "" and caught == []
    return validate, diags, run, err.strip().split("\n") if err else []


def assert_refused(tmp_path, cfg, capfd, validate_code, run_code, error, where):
    validate, diags, run, err = both_routes(tmp_path, cfg, capfd)
    assert validate == validate_code
    if validate_code == 0:
        assert diags == []
    else:
        assert len(diags) == 1 and diags[0].startswith(where)
    assert run == run_code and len(err) == 1
    assert json.loads(err[0])["error"] == error
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params", [{"hbar": 1e300}, {"L": 1e-300}, {"hbar": 1e154}])
def test_continuum_kinetic_scale_beyond_float_range(tmp_path, capfd, params):
    assert_refused(tmp_path, continuum_config(**params), capfd, 2, 2, "config_error",
                   "params: the kinetic scale")


@pytest.mark.parametrize("psi0", [
    {"kind": "gaussian", "center": 12.0, "width": 1e-3},  # underflows at every grid point
    {"kind": "plane_wave", "mode": 1e308},                 # its phase k x overflows
    {"kind": "table", "re": [0.0] * 32, "im": [0.0] * 32},
])
def test_continuum_initial_state_must_be_finite_and_nonzero(tmp_path, capfd, psi0):
    assert_refused(tmp_path, continuum_config(psi0=psi0), capfd, 2, 2, "config_error",
                   "params.psi0: ")


def test_continuum_generator_beyond_float_range(tmp_path, capfd):
    # the kinetic scale is in range, but 2 hbar^2/(2 m dx^2) + V is not
    potential = {"kind": "complex_gaussian", "center": 8.0, "width": 1.5, "amp_re": 1.7e308}
    assert_refused(tmp_path, continuum_config(hbar=4.4e153, potential=potential), capfd,
                   2, 2, "config_error", "params: the generator diagonal")


HUGE_PSI0 = {"re": [1e300, 1e300], "im": [0.0, 0.0]}


@pytest.mark.parametrize("method, validate_code", [("rk4", 2), ("exact", 2)])
def test_evolve_conjugate_field_overflow_is_non_finite(tmp_path, capfd, method,
                                                       validate_code):
    # |c_j|^2 passes the float range
    cfg = evolve_config(psi0=HUGE_PSI0, method=method)
    assert_refused(tmp_path, cfg, capfd, validate_code, 3, "non_finite", "params.psi0: ")


@pytest.mark.parametrize("method", ["rk4", "exact"])
def test_evolve_modal_coefficient_overflow_is_non_finite(tmp_path, capfd, method):
    # c = (-psi_2, sqrt(2) psi_2) of h = [[1, 1], [0, 2]] passes the float range:
    # refused without a numpy warning, and not read as a state with every mode absent
    cfg = evolve_config(matrix={"n": 2, "re": [[1.0, 1.0], [0.0, 2.0]], "im": [[0.0] * 2] * 2},
                        psi0={"re": [0.0, 1.5e308], "im": [0.0, 0.0]}, method=method)
    assert_refused(tmp_path, cfg, capfd, 2, 3, "non_finite", "params.psi0: ")


def counted_decompositions(monkeypatch):
    """The ``h`` of every ``biorthogonal_decompose`` call from here on."""
    calls = []
    decompose = biham.spectral.biorthogonal_decompose

    def counted(h):
        calls.append(h)
        return decompose(h)

    monkeypatch.setattr(biham.spectral, "biorthogonal_decompose", counted)
    return calls


def test_exact_overflow_found_by_validation(tmp_path, capfd, monkeypatch):
    # the preflight evaluates the last record; the run reuses its system and state
    calls = counted_decompositions(monkeypatch)
    assert_refused(tmp_path, OVERFLOW, capfd, 2, 3, "non_finite", "params.t_final: ")
    assert len(calls) == 2  # once per route
    calls.clear()
    # by t = 70 the right norm is e^700; from t = 71 it leaves the float range
    cfg = {**OVERFLOW, "params": {**OVERFLOW["params"], "t_final": 70.0}}
    validate, diags, run, err = both_routes(tmp_path, cfg, capfd)
    assert (validate, diags, run, err) == (0, [], 0, [])
    assert len(calls) == 2


def test_rk4_overflow_found_by_the_run(tmp_path, capfd):
    # no eigenbasis check is exact for RK4's own trajectory: rounding seeds
    # growing modes that psi0 leaves empty, so only the run decides
    cfg = {**OVERFLOW, "params": {**OVERFLOW["params"], "method": "rk4"}}
    assert_refused(tmp_path, cfg, capfd, 0, 3, "non_finite", "")


def test_continuum_nan_residual_is_non_finite(tmp_path, capfd):
    # the density overflows, so the residual is inf - inf: a nan, which must
    # not reach the CSV as 0.0, "charge exactly conserved"
    gaussian = {"center": 5e-151, "width": 2e-151}
    cfg = {"command": "continuum", "params": {
        "L": 1e-150, "N": 8, "psi0": {"kind": "gaussian", **gaussian},
        "potential": {"kind": "complex_gaussian", **gaussian},
        "dt": 3e-303, "t_final": 1.8e-302, "snapshot_every": 1}}
    assert_refused(tmp_path, cfg, capfd, 0, 3, "non_finite", "")


BEYOND_FLOAT_SPECTRUM = {"n": 2, "re": [[1e308, 1e308], [1e308, 1e308]],
                         "im": [[0.0, 0.0], [0.0, 0.0]]}  # eigenvalues 0 and 2e308


@pytest.mark.parametrize("command, validate_code, where", [
    ("decompose", 0, ""), ("verify", 0, ""), ("evolve", 2, "params.matrix: ")])
def test_eigenvalue_beyond_float_range_is_non_finite(tmp_path, capfd, command,
                                                     validate_code, where):
    params = {"matrix": BEYOND_FLOAT_SPECTRUM}
    if command == "evolve":
        params.update(psi0={"re": [1.0, 0.0], "im": [0.0, 0.0]}, method="exact",
                      t_final=1e-300, dt=1e-300)
    assert_refused(tmp_path, {"command": command, "params": params}, capfd,
                   validate_code, 3, "non_finite", where)


@pytest.mark.parametrize("re, eigenvalues", [
    ([[1.7e308, 0.0], [0.0, -1.7e308]], [-1.7e308, 1.7e308]),  # their gap overflows
    # ||h||_2 overflows: the SVD of an unscaled adjoint residual did not converge
    ([[FLOAT_MAX / 2, 0.0], [FLOAT_MAX, 0.0]], [0.0, FLOAT_MAX / 2]),
])
def test_spectrum_near_the_float_maximum_decomposes_without_warning(tmp_path, capfd, re,
                                                                     eigenvalues):
    matrix = {"n": 2, "re": re, "im": [[0.0, 0.0], [0.0, 0.0]]}
    validate, diags, run, err = both_routes(
        tmp_path, {"command": "decompose", "params": {"matrix": matrix}}, capfd)
    assert (validate, diags, run, err) == (0, [], 0, [])
    report = json.loads((tmp_path / "out" / "decompose.json").read_text())
    assert report["eigenvalues_re"] == eigenvalues


def test_rk4_decomposes_once_per_route(tmp_path, capfd, monkeypatch):
    # the run takes its system and state from the preflight, phibar0 given or not
    calls = counted_decompositions(monkeypatch)
    for cfg in (evolve_config(), evolve_config(phibar0={"re": [1.0, 0.0], "im": [0.0, 0.0]})):
        validate, diags, run, err = both_routes(tmp_path, cfg, capfd)
        assert (validate, diags, run, err) == (0, [], 0, [])
        assert len(calls) == 2
        calls.clear()


DEFECTIVE = {"n": 2, "re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("params, error, where", [
    ({"matrix": DEFECTIVE}, "not_diagonalizable", "params.matrix: "),
    ({"csq": [1.0, 1.0]}, "zero_modal_coefficient", "params.psi0: "),  # psi0 is one mode
])
def test_decomposition_faults_found_by_validation(tmp_path, capfd, method, params, error,
                                                  where):
    assert_refused(tmp_path, evolve_config(method=method, **params), capfd, 2, 3, error, where)


def test_continuum_snapshots_not_dividing_the_steps(tmp_path, capfd):
    # 100 steps recorded every 3: the row at step 99 has gaps 3 and 1
    validate, diags, run, err = both_routes(tmp_path, continuum_config(snapshot_every=3),
                                            capfd)
    assert (validate, diags, run, err) == (0, [], 0, [])
    header, *lines = (tmp_path / "out" / "continuum.csv").read_text().strip().split("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    resid = rows[:, header.split(",").index("continuity_residual")]
    assert len(rows) == 35 and rows[-2, 0] == pytest.approx(0.0495)
    assert np.isnan(resid[[0, -2, -1]]).all() and np.isfinite(resid[1:-2]).all()


@pytest.mark.parametrize("output", ["../escape.csv", "absolute", "sub/x.csv", ".", "..",
                                    "a\\b.csv", "a\0b.csv"])
def test_output_must_be_a_bare_file_name(tmp_path, capfd, output):
    if output == "absolute":
        output = str(tmp_path / "abs.csv")
    cfg = {**evolve_config(), "output": output}
    assert_refused(tmp_path, cfg, capfd, 2, 2, "config_error", "output: ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_output_name_at_the_byte_limit_is_written(tmp_path, capfd):
    name = "\u00e9" * 120 + "x"  # 121 characters, 241 bytes
    assert len(os.fsencode(name)) == biham.io.MAX_NAME_BYTES
    validate, diags, run, err = both_routes(tmp_path, {**evolve_config(), "output": name},
                                            capfd)
    assert (validate, diags, run, err) == (0, [], 0, [])
    assert [p.name for p in (tmp_path / "out").iterdir()] == [name]
    (tmp_path / "over").mkdir()
    assert_refused(tmp_path / "over", {**evolve_config(), "output": "\u00e9" + name}, capfd,
                   2, 2, "config_error", "output: ")


def test_bare_output_name_is_written_in_out(tmp_path, capfd):
    validate, diags, run, err = both_routes(tmp_path, {**evolve_config(), "output": "..x.csv"},
                                            capfd)
    assert (validate, diags, run, err) == (0, [], 0, [])
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["..x.csv"]


# extreme scalars that overflowed with a traceback, a warning or nan in the artifact

@pytest.mark.parametrize("params", [
    {"psi0": {"kind": "gaussian", "center": 4.0, "width": 1e300}},
    {"potential": {"kind": "complex_gaussian", "center": 8.0, "width": 1e300, "amp_re": 0.8}},
])
def test_continuum_gaussian_wider_than_the_float_range_squares(tmp_path, capfd, params):
    # width^2 is inf: a flat envelope, not an OverflowError traceback
    validate, diags, run, err = both_routes(tmp_path, continuum_config(**params), capfd)
    assert (validate, diags, run, err) == (0, [], 0, [])


def verify_config(**params):
    cfg = load_config(FIXTURES / "verify_random.json")
    cfg["params"].update(params)
    return cfg


@pytest.mark.parametrize("params", [
    {"hbar": 5e-324},                      # 1/hbar overflows: rhs_mismatch was NaN
    {"fd_step": 5e-324},                   # the quotients overflow: grad_mismatch was 0.0
])
def test_verify_report_beyond_float_range(tmp_path, capfd, params):
    assert_refused(tmp_path, verify_config(**params), capfd, 0, 3, "non_finite", "")


def test_verify_fd_step_at_the_float_maximum(tmp_path, capfd):
    # H is bilinear, so central differences are exact at any step in range
    validate, diags, run, err = both_routes(tmp_path, verify_config(fd_step=sys.float_info.max),
                                            capfd)
    assert (validate, diags, run, err) == (0, [], 0, [])
    report = json.loads((tmp_path / "out" / "canonical.json").read_text())
    assert report["grad_mismatch"] <= 1e-12


def test_decompose_tol_at_the_float_maximum(tmp_path, capfd):
    cfg = load_config(FIXTURES / "decompose_upper.json")
    cfg["params"]["tol"] = sys.float_info.max
    assert_refused(tmp_path, cfg, capfd, 0, 3, "not_diagonalizable", "")


# derived columns that overflow while the state is finite: no inf or nan cell is written

HUGE_PAIR = {"psi0": {"re": [1e200, 1e200], "im": [0.0, 0.0]},
             "phibar0": {"re": [1e200, 1e200], "im": [0.0, 0.0]}}
HUGE_CSQ = sweep_config((1.0, 0.0, 3.0), (1.0, 0.0, 5.0), T=1.0)
HUGE_CSQ["params"]["csq"] = [1.7e308, 1.7e308]
GAIN = {"kind": "complex_gaussian", "center": 8.0, "width": 100.0, "amp_im": 50.0}


@pytest.mark.parametrize("cfg", [
    evolve_config(**HUGE_PAIR),                  # overlap and right_norm at t = 0
    evolve_config(method="exact", **HUGE_PAIR),
    HUGE_CSQ,                                    # the overlap csq_1 + csq_2
    {**OVERFLOW, "params": {**OVERFLOW["params"], "t_final": 100.0}},  # right_norm from t = 71
    continuum_config(potential=GAIN, t_final=8.0, dt=0.005, snapshot_every=100),  # right_norm
], ids=["evolve_rk4", "evolve_exact", "sweep", "evolve_exact_growth", "continuum"])
def test_derived_column_overflow_is_non_finite(tmp_path, capfd, cfg):
    assert_refused(tmp_path, cfg, capfd, 0, 3, "non_finite", "")
