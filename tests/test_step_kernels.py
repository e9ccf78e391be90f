"""The time-stepping kernels: RK4 as its stability polynomial, and the sweep kernel.

``rk4_trajectory`` applies one precomputed matrix per step and field; it
must agree with classical RK4 taken stage by stage.  The sweep kernel's
output is pinned to the frozen maximum deviation far below the looser
acceptance gates.  Step counts and sweep samples have hard caps.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from biham import cli, continuum
from biham.cli import main
from biham.dynamics import MAX_STEPS, StatePair, check_step, rk4_trajectory, step_count
from biham.errors import ConfigError, NonFinite, StepTooLarge

from helpers import random_diagonalizable, random_state

FIXTURES = Path(__file__).parent / "fixtures"

FROZEN_SWEEP_MAX_DEVIATION = 1.885917503558e-07


def stagewise_rk4(h, state0, dt, steps, record_every):
    """Classical RK4 with its four stages per step: [(t, psi, phibar), ...]."""
    hbar = state0.hbar

    def f(psi, phibar):
        return (-1j / hbar) * (h @ psi), (1j / hbar) * (phibar @ h)

    psi, phibar = state0.psi, state0.phibar
    out = [(state0.t, psi, phibar)]
    for k in range(1, steps + 1):
        k1p, k1b = f(psi, phibar)
        k2p, k2b = f(psi + 0.5 * dt * k1p, phibar + 0.5 * dt * k1b)
        k3p, k3b = f(psi + 0.5 * dt * k2p, phibar + 0.5 * dt * k2b)
        k4p, k4b = f(psi + dt * k3p, phibar + dt * k3b)
        psi = psi + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        phibar = phibar + (dt / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        if k % record_every == 0 or k == steps:
            out.append((state0.t + k * dt, psi, phibar))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_rk4_trajectory_matches_stagewise_rk4(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 17))
    steps = int(rng.integers(1, 2001))
    record_every = int(rng.integers(1, steps + 1))
    hbar = float(rng.uniform(0.5, 2.0))
    ratio = float(rng.uniform(0.01, 0.5))  # dt * ||h|| / hbar
    # non-normal, with a spectrum close enough to real that 2000 steps stay bounded
    h, _, _ = random_diagonalizable(rng, n, scale=float(rng.uniform(0.1, 10.0)),
                                    imag_scale=1e-3)
    dt = ratio * hbar / np.linalg.norm(h, 2)
    state0 = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n),
                       t=float(rng.uniform(-1.0, 1.0)), hbar=hbar)

    got = rk4_trajectory(h, state0, dt, steps, record_every=record_every)
    want = stagewise_rk4(h, state0, dt, steps, record_every)

    assert [s.t for s in got] == [t for t, _, _ in want]
    for snap, (_, psi, phibar) in zip(got, want):
        assert np.linalg.norm(snap.psi - psi) <= 1e-12 * np.linalg.norm(psi)
        assert np.linalg.norm(snap.phibar - phibar) <= 1e-12 * np.linalg.norm(phibar)


def test_overflow_between_records_is_reported_at_the_next_record():
    # R(0.5)^k passes the float range near k = 1420; records fall every 1000 steps
    h = np.diag([5j, -5j])
    state0 = StatePair(psi=np.array([1.0, 1.0]), phibar=np.array([1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="by step 2000"):
            rk4_trajectory(h, state0, dt=0.1, steps=3000, record_every=1000)


def test_sweep_fixture_deviation_is_frozen(tmp_path):
    assert main(["sweep", "--config", str(FIXTURES / "sweep_reference.json"),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    cols = dict(zip(header, rows.T))
    max_dev = max(cols["deviation_1"].max(), cols["deviation_2"].max())
    assert max_dev == pytest.approx(FROZEN_SWEEP_MAX_DEVIATION, rel=1e-12, abs=0)


def test_step_count_cap():
    assert step_count(MAX_STEPS * 0.5, 0.5) == MAX_STEPS
    with pytest.raises(ConfigError, match="exceeds the limit"):
        step_count((MAX_STEPS + 1) * 0.5, 0.5)


def test_overflowing_step_ratio_is_refused_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooLarge, match="inf"):
            check_step(np.eye(2) * 10.0, 1e308, 1.0)


def test_continuum_run_builds_its_generator_once(tmp_path, monkeypatch):
    calls = []
    build = continuum.discretize

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(continuum, "discretize", counted)
    cfg = json.loads((FIXTURES / "continuum_gaussian.json").read_text())
    cli.run_config(cfg, tmp_path)
    assert len(calls) == 1
