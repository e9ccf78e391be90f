"""The time-stepping kernels: RK4 as its stability polynomial, and the sweep kernel.

``rk4_trajectory`` applies one composed increment per recorded interval
and field; it must agree with classical RK4 taken stage by stage and with
per-step RK4 in extended precision over a long horizon, apply the one-step
increment itself when every step is recorded, and step singly through an
interval whose composed increment overflows, until the state overflows.  The sweep kernel
composes blocked one-step RK4 maps between samples; it must agree with the
scalar stage-by-stage sweep kept here, report overflow at the same sample
and use memory that does not grow with the step count.  It builds psi's
maps only and samples after the steps; it must equal, bit for bit, the
two-field kernel with per-sample actions kept here.  Its output is
pinned to the frozen maximum deviation far below the looser acceptance
gates.  Step counts and sweep samples have hard caps, and the step guard
refuses a non-finite generator or step ratio.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from biham import cli, continuum, lorentzian
from biham.cli import main
from biham.dynamics import (
    ABSENT_MODE_CUTOFF,
    MAX_STEPS,
    StatePair,
    _rk4_increments,
    check_step,
    rk4_trajectory,
    step_count,
)
from biham.errors import ConfigError, NonFinite, StepTooLarge
from biham.lorentzian import (
    SweepPath,
    check_sweep_step,
    initial_sweep_state,
    lorentzian_uv,
    sweep_adiabatic,
)

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


def rk4_increment(z):
    """``R(z) - 1`` of one field, smallest terms first: the reference of ``_rk4_increments``."""
    z2 = z @ z
    return z + (z2 / 2.0 + ((z2 @ z) / 6.0 + (z2 @ z2) / 24.0))


def lattice_generator(rng, n):
    """A periodic lattice generator under a random complex potential."""
    cfg = continuum.ContinuumConfig(L=float(rng.uniform(5.0, 30.0)), N=n)
    V = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-0.1, 0.1, n)
    V[rng.random(n) < 0.3] = 0.0  # sites without potential: exact zeros
    return continuum.discretize(cfg, V)


def test_phibar_increment_from_psi_powers_is_bitwise():
    # phibar's increment reuses psi's w^2, w^3 and w^4; it must keep the bits of its own
    # evaluation at z = +i dt h / hbar, signed zeros included: dense draws, n = 1-40,
    # with exact zeros, and lattices with N = 8-128
    rng = np.random.default_rng(5000)
    for draw in range(220):
        if draw % 2:
            n = int(rng.integers(1, 41))
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h[rng.random((n, n)) < 0.2] = 0.0
        else:
            h = lattice_generator(rng, int(rng.choice([8, 16, 32, 64, 128])))
        hbar = float(rng.uniform(0.5, 2.0))
        dt = float(rng.uniform(0.01, 0.5)) * hbar / (np.linalg.norm(h, 2) or 1.0)
        d_psi, d_phibar = _rk4_increments((-1j * dt / hbar) * h)
        for got, z in ((d_psi, (-1j * dt / hbar) * h), (d_phibar, (1j * dt / hbar) * h)):
            assert np.array_equal(got.view(np.int64), rk4_increment(z).view(np.int64)), draw


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


def longdouble_rk4(h, state0, dt, steps, record_every):
    """Per-step RK4 ``x + (R(z) - 1) x`` in extended precision, from the same double ``z``."""
    hbar = state0.hbar

    def increment(rate):
        z = ((rate * dt / hbar) * h).astype(np.clongdouble)
        z2 = z @ z
        return z + z2 / 2 + z2 @ z / 6 + z2 @ z2 / 24

    d_psi, d_phibar = increment(-1j), increment(1j)
    psi = state0.psi.astype(np.clongdouble)
    phibar = state0.phibar.astype(np.clongdouble)
    out = [(psi, phibar)]
    for k in range(1, steps + 1):
        psi = psi + d_psi @ psi
        phibar = phibar + phibar @ d_phibar
        if k % record_every == 0 or k == steps:
            out.append((psi, phibar))
    return out


def relative_error(got, want):
    want = np.asarray(want, dtype=np.clongdouble)
    return float(np.linalg.norm((got - want).astype(complex)) /
                 np.linalg.norm(want.astype(complex)))


@pytest.mark.parametrize("seed", range(3))
def test_composed_increments_hold_over_a_long_horizon(seed):
    # the long-horizon benchmark's evolve scenario: n = 8, real spectrum in
    # [-1, 1], cond(S) in [3, 10], dt ||h|| / hbar = 0.4, 16 000 steps
    rng = np.random.default_rng(3000 + seed)
    h, _, s = random_diagonalizable(rng, 8, cond=float(rng.uniform(3.0, 10.0)), imag_scale=0.0)
    assert 3.0 <= np.linalg.cond(s) <= 10.0
    dt = 0.4 / np.linalg.norm(h, 2)
    state0 = StatePair(psi=random_state(rng, 8), phibar=random_state(rng, 8))

    got = rk4_trajectory(h, state0, dt, 16000, record_every=500)
    want = longdouble_rk4(h, state0, dt, 16000, 500)

    assert len(got) == len(want) == 33
    for snap, (psi, phibar) in zip(got, want):
        assert relative_error(snap.psi, psi) <= 2e-12
        assert relative_error(snap.phibar, phibar) <= 2e-12


@pytest.mark.parametrize("seed", range(2))
def test_composed_increments_keep_small_steps_exact(seed):
    # at dt ||h|| / hbar = 1e-3 the increments are small: composing them as
    # products of I + E would lose about eps per step (measured 1.1-2.9e-12
    # over these 16 000 steps), the increment form stays near 1e-15
    rng = np.random.default_rng(3100 + seed)
    h, _, _ = random_diagonalizable(rng, 8, cond=float(rng.uniform(3.0, 10.0)), imag_scale=0.0)
    dt = 1e-3 / np.linalg.norm(h, 2)
    state0 = StatePair(psi=random_state(rng, 8), phibar=random_state(rng, 8))

    got = rk4_trajectory(h, state0, dt, 16000, record_every=500)
    want = longdouble_rk4(h, state0, dt, 16000, 500)

    for snap, (psi, phibar) in zip(got, want):
        assert relative_error(snap.psi, psi) <= 1e-13
        assert relative_error(snap.phibar, phibar) <= 1e-13


@pytest.mark.parametrize("steps, record_every", [(1001, 250), (37, 5), (2000, 1999),
                                                 (700, 1000)])
def test_shorter_last_interval_matches_stagewise_rk4(steps, record_every):
    rng = np.random.default_rng(steps)
    h, _, _ = random_diagonalizable(rng, 6, scale=2.0, imag_scale=1e-3)
    dt = 0.3 / np.linalg.norm(h, 2)
    state0 = StatePair(psi=random_state(rng, 6), phibar=random_state(rng, 6), t=0.25)

    got = rk4_trajectory(h, state0, dt, steps, record_every=record_every)
    want = stagewise_rk4(h, state0, dt, steps, record_every)

    assert [s.t for s in got] == [t for t, _, _ in want]
    assert len(got) == -(-steps // record_every) + 1
    for snap, (_, psi, phibar) in zip(got, want):
        assert np.linalg.norm(snap.psi - psi) <= 1e-12 * np.linalg.norm(psi)
        assert np.linalg.norm(snap.phibar - phibar) <= 1e-12 * np.linalg.norm(phibar)


def test_every_step_recording_applies_the_one_step_increment():
    rng = np.random.default_rng(7)
    h, _, _ = random_diagonalizable(rng, 5)
    dt, hbar = 0.4 / np.linalg.norm(h, 2), 1.3
    state0 = StatePair(psi=random_state(rng, 5), phibar=random_state(rng, 5), hbar=hbar)
    d_psi = rk4_increment((-1j * dt / hbar) * h)
    d_phibar = rk4_increment((1j * dt / hbar) * h)

    got = rk4_trajectory(h, state0, dt, 50, record_every=1)

    psi, phibar = state0.psi, state0.phibar
    for snap in got[1:]:
        psi = psi + d_psi @ psi
        phibar = phibar + phibar @ d_phibar
        assert np.array_equal(snap.psi, psi) and np.array_equal(snap.phibar, phibar)


def test_overflowing_increment_falls_back_to_single_steps():
    # R(0.5)^1500 ~ e^750 passes the float range, so both composed increments
    # overflow, while the tiny coefficients keep the state near 4e25
    h = np.diag([5j, -5j])
    state0 = StatePair(psi=np.array([1e-300, 1.0]), phibar=np.array([1.0, 1e-300]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rk4_trajectory(h, state0, dt=0.1, steps=1500, record_every=1500)
    _, psi, phibar = stagewise_rk4(h, state0, 0.1, 1500, 1500)[-1]
    assert 1e25 < abs(got[-1].psi[0]) < 1e26
    assert np.linalg.norm(got[-1].psi - psi) <= 1e-12 * np.linalg.norm(psi)
    assert np.linalg.norm(got[-1].phibar - phibar) <= 1e-12 * np.linalg.norm(phibar)


def test_overflowing_interval_ends_soon_after_the_state_overflows(tmp_path, capfd):
    # the fixture's gain at dt = 0.08: R(z)^500000 overflows, so each interval is
    # stepped singly, and the state overflows near step 31 000 of the first one
    cfg = json.loads((FIXTURES / "continuum_gaussian.json").read_text())
    cfg["params"].update(dt=0.08, t_final=0.08 * 10 ** 6, snapshot_every=500000)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    assert main(["continuum", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 1.0
    # reported at the interval's end, as when the whole interval was stepped
    assert capfd.readouterr().err == ('{"error": "non_finite", "message": '
                                      '"state overflowed by step 500000 (t=40000)"}\n')


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


def test_non_finite_generator_is_refused_silently(capfd):
    h = np.eye(4)
    h[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        check_step(h, 0.1, 1.0)
    h[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        check_step(h, 0.1, 1.0)
    assert capfd.readouterr() == ("", "")


def test_nan_step_ratio_is_refused():
    # a nan dt is refused earlier, as not positive
    with pytest.raises(StepTooLarge, match="nan"):
        check_step(np.eye(2), 0.1, float("nan"))


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


# ---------------------------------------------------------------------------
# sweep kernel: blocked one-step RK4 maps against RK4 taken stage by stage


def instantaneous_actions(p, psi, phibar, hbar, tolerant=False):
    """Actions ``hbar * cbar_j * c_j`` at one sample from the closed-form eigenvectors."""
    if tolerant and p.discriminant <= 0.0:
        # closed forms break down; report the breakdown instead of raising
        return np.array([np.nan, np.nan], dtype=complex)
    pair = lorentzian_uv(p)
    c = pair.left_vectors().conj().T @ psi
    cbar = phibar @ pair.right_vectors()
    return hbar * cbar * c


def stagewise_sweep(path, state0, dt, tolerant=False):
    """The sweep as scalar RK4, four stages per step: (times, actions, deviations, overlaps).

    ``tolerant`` records NaN actions outside the real regime instead of raising.
    """
    hbar = state0.hbar
    steps = check_sweep_step(path, dt, hbar)
    dt_eff = path.T / steps
    marks = set(np.unique(np.round(np.linspace(0, steps, path.samples)).astype(int)).tolist())
    times, actions, overlaps = [], [], []

    def record(k, psi, phibar):
        times.append(k * dt_eff)
        actions.append(instantaneous_actions(path.params_at(k / steps), psi, phibar, hbar,
                                             tolerant=tolerant))
        overlaps.append(np.sum(phibar * psi))

    (x0, y0, z0), (x1, y1, z1) = path.start, path.end

    def entries(s):
        return complex(z0 + (z1 - z0) * s), (x0 + (x1 - x0) * s) + 1j * (y0 + (y1 - y0) * s)

    a, b = -1j / hbar, 1j / hbar

    def rhs(z, w, p1, p2, f1, f2):
        wc = w.conjugate()
        return (a * (z * p1 + w * p2), a * (-wc * p1 - z * p2),
                b * (f1 * z - f2 * wc), b * (f1 * w - f2 * z))

    p1, p2 = complex(state0.psi[0]), complex(state0.psi[1])
    f1, f2 = complex(state0.phibar[0]), complex(state0.phibar[1])
    record(0, np.array([p1, p2]), np.array([f1, f2]))
    half, sixth = 0.5 * dt_eff, dt_eff / 6.0
    for k in range(steps):
        zs, ws = entries(k / steps)
        zm, wm = entries((k + 0.5) / steps)
        ze, we = entries((k + 1) / steps)
        a1, a2, a3, a4 = rhs(zs, ws, p1, p2, f1, f2)
        b1, b2, b3, b4 = rhs(zm, wm, p1 + half * a1, p2 + half * a2,
                             f1 + half * a3, f2 + half * a4)
        c1, c2, c3, c4 = rhs(zm, wm, p1 + half * b1, p2 + half * b2,
                             f1 + half * b3, f2 + half * b4)
        d1, d2, d3, d4 = rhs(ze, we, p1 + dt_eff * c1, p2 + dt_eff * c2,
                             f1 + dt_eff * c3, f2 + dt_eff * c4)
        p1 += sixth * (a1 + 2 * b1 + 2 * c1 + d1)
        p2 += sixth * (a2 + 2 * b2 + 2 * c2 + d2)
        f1 += sixth * (a3 + 2 * b3 + 2 * c3 + d3)
        f2 += sixth * (a4 + 2 * b4 + 2 * c4 + d4)
        if k + 1 in marks:
            psi, phibar = np.array([p1, p2]), np.array([f1, f2])
            if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(phibar))):
                raise NonFinite(f"sweep state overflowed at step {k + 1}")
            record(k + 1, psi, phibar)

    actions = np.asarray(actions)
    base = actions[0]
    absent = np.sum(ABSENT_MODE_CUTOFF * np.abs(base))  # relative to the total action
    scale = np.where(np.abs(base) > absent, np.abs(base), 1.0)
    return np.asarray(times), actions, np.abs(actions - base) / scale, np.asarray(overlaps)


def assert_same_sweep(record, want):
    times, actions, deviations, overlaps = want
    assert np.array_equal(record.times, times)
    assert np.max(np.abs(record.actions - actions)) <= 1e-12 * np.max(np.abs(actions))
    assert np.max(np.abs(record.overlaps - overlaps)) <= 1e-12 * np.max(np.abs(overlaps))
    # deviations are already relative to |I_j(0)| (absolute for an empty mode)
    assert np.max(np.abs(record.deviations - deviations)) <= 1e-12


def random_segment(rng):
    """Endpoints strictly inside the real regime with one sign of z, and csq."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    ends = []
    for _ in range(2):
        z = sign * rng.uniform(0.5, 4.0)
        r, angle = abs(z) * rng.uniform(0.0, 0.9), rng.uniform(0.0, 2 * np.pi)
        ends.append((r * np.cos(angle), r * np.sin(angle), z))
    csq = rng.uniform(0.2, 2.0, 2)
    if rng.random() < 0.3:
        csq[rng.integers(2)] = 0.0  # one mode empty
    return ends[0], ends[1], csq


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("samples", [2, 3, 201, None])  # None: every step
def test_sweep_kernel_matches_stagewise_rk4(seed, samples):
    rng = np.random.default_rng(2000 + seed)
    start, end, csq = random_segment(rng)
    hbar = float(rng.uniform(0.5, 2.0))
    T, dt = float(rng.uniform(1.0, 20.0)), float(rng.uniform(0.005, 0.02))
    steps = step_count(T, dt)
    path = SweepPath.linear(start, end, T, samples=samples or steps + 1)
    state0 = initial_sweep_state(path, csq, hbar)
    assert_same_sweep(sweep_adiabatic(path, state0, dt), stagewise_sweep(path, state0, dt))


B = lorentzian._BLOCK


@pytest.mark.parametrize("block, steps, samples", [
    (1, 101, 37),
    (1, 12, 13),             # every step recorded
    (7, 28, 5),              # marks on the edges of 7-step blocks
    (7, 101, 37),
    (64, 256, 5),
    (64, 2 * 64 + 3, 201),   # more samples than steps
    (B, 2 * B + 3, 3),       # not a multiple of the block
    (B, 4 * B, 5),           # marks on the edges of full blocks
    (B, 4 * B, 9),
])
def test_sweep_kernel_block_edges(monkeypatch, block, steps, samples):
    monkeypatch.setattr(lorentzian, "_BLOCK", block)
    path = SweepPath.linear((0.4, -0.3, 2.0), (0.9, 0.5, 3.5), T=steps * 0.01, samples=samples)
    state0 = initial_sweep_state(path, [1.0, 0.3])
    assert_same_sweep(sweep_adiabatic(path, state0, 0.01), stagewise_sweep(path, state0, 0.01))


@pytest.mark.parametrize("block", [64, lorentzian._BLOCK])
def test_sweep_overflow_reported_at_the_same_sample(monkeypatch, block):
    # outside the real regime the modes grow as exp(10 t): the state passes
    # the float range near t = 71, between the samples at t = 70 and t = 80
    monkeypatch.setattr(lorentzian, "_BLOCK", block)
    path = SweepPath.linear((10.0, 0.0, 0.5), (10.0, 0.0, 1.0), T=100.0, samples=11)
    state0 = StatePair(psi=np.array([1.0, 0.5j]), phibar=np.array([0.5, 1.0]))
    # the reference's overlaps overflow at the samples before the state does
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite, match="at step 8000$"):
        stagewise_sweep(path, state0, 0.01, tolerant=True)
    # the sweep refuses the path before it steps; without that guard the kernel's
    # own overflow check must still stop it
    monkeypatch.setattr(lorentzian, "check_real_regime", lambda path: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="at step 8000$"):
            sweep_adiabatic(path, state0, 0.01)


def test_sweep_memory_does_not_grow_with_steps():
    def peak(steps):
        path = SweepPath.linear((1.0, 0.0, 3.0), (1.0, 0.0, 5.0), T=steps * 0.0025, samples=2)
        state0 = initial_sweep_state(path, [1.0, 0.0])
        tracemalloc.start()
        try:
            sweep_adiabatic(path, state0, 0.0025)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * 10 ** 4), peak(2 * 10 ** 5)
    assert large - small <= 2 ** 20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
@pytest.mark.parametrize("pad", [0, 64, 512, 2048, 8192])
def test_sweep_chunks_reuse_their_heap(pad):
    # a chunk's freed heap is reused by the next chunk, not returned to the system and
    # faulted back in; measured in a fresh interpreter, whose heap layout the size of
    # its environment shifts
    code = textwrap.dedent("""
        import resource
        from biham.lorentzian import SweepPath, initial_sweep_state, sweep_adiabatic
        path = SweepPath.linear((0.3, 0.1, 2.0), (0.6, -0.2, 3.0), T=1600.0)
        state0 = initial_sweep_state(path, [1.0, 0.4])
        sweep_adiabatic(path, state0, 0.01)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sweep_adiabatic(path, state0, 0.01)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"), PAD="x" * pad)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    # 27 chunks of 6144 steps; with chunks of 8 blocks, whose freed heap the next chunk
    # does not reuse at most environment sizes, a sweep faults about 190 pages back in
    assert int(out) <= 100


# ---------------------------------------------------------------------------
# sweep kernel: psi's pieces only, samples after the steps, against the
# two-field kernel with per-sample actions, bit for bit


def two_field_mul(p, q):
    (pa, pb), (qa, qb) = p, q
    return np.array([pa * qa + pb * qb.conj(), pa * qb + pb * qa.conj()])


def two_field_increments(path, dt, hbar, steps, k0, k1):
    """One-step increments for psi (field 0) and phibar as a column (field 1): (2, 2, k)."""
    (x0, y0, z0), (x1, y1, z1) = path.start, path.end
    s = np.arange(2 * k0, 2 * k1 + 1) / 2 / steps
    a = (-1j * dt / hbar) * (z0 + (z1 - z0) * s)
    b = (-1j * dt / hbar) * ((x0 + (x1 - x0) * s) + 1j * (y0 + (y1 - y0) * s))
    g = np.array([[a, -a], [b, -b.conj()]])
    a0, am, a1 = g[..., 0:-1:2], g[..., 1::2], g[..., 2::2]
    k2 = am + 0.5 * two_field_mul(am, a0)
    k3 = am + 0.5 * two_field_mul(am, k2)
    k4 = a1 + two_field_mul(a1, k3)
    return (a0 + 2.0 * (k2 + k3) + k4) / 6.0


def two_field_compose(inc, cuts):
    """Increment-form pairwise tree over each piece ``cuts[p] <= k < cuts[p + 1]``."""
    lengths = np.diff(cuts)
    offsets = np.arange(lengths.max())
    at = np.where(offsets < lengths[:, None], cuts[:-1, None] + offsets, inc.shape[-1])
    inc = np.concatenate((inc, np.zeros(inc.shape[:-1] + (1,), complex)), axis=-1)[..., at]
    while inc.shape[-1] > 1:
        n = inc.shape[-1]
        first, then = inc[..., 0:n - 1:2], inc[..., 1:n:2]
        pairs = first + then + two_field_mul(then, first)
        inc = pairs if n % 2 == 0 else np.concatenate((pairs, inc[..., -1:]), axis=-1)
    return inc[..., 0]


def two_field_sweep(path, state0, dt):
    """The sweep with both fields' pieces composed, a block per call, and actions per sample.

    Returns (times, actions, deviations, overlaps).
    """
    hbar = state0.hbar
    steps = check_sweep_step(path, dt, hbar)
    dt_eff = path.T / steps
    block = lorentzian._BLOCK
    marks = np.unique(np.round(np.linspace(0, steps, path.samples)).astype(int))
    times, actions, overlaps = [], [], []

    def record(k, x):
        psi, phibar = x[:, 0], x[:, 1]
        times.append(k * dt_eff)
        actions.append(instantaneous_actions(path.params_at(k / steps), psi, phibar, hbar))
        overlaps.append(np.sum(phibar * psi))

    x = np.stack([state0.psi, state0.phibar], axis=1)
    record(0, x)
    next_mark = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, steps, block):
            k1 = min(k0 + block, steps)
            inner = marks[np.searchsorted(marks, k0, "right"):np.searchsorted(marks, k1)]
            cuts = np.concatenate(([k0], inner, [k1]))
            pieces = two_field_compose(two_field_increments(path, dt_eff, hbar, steps, k0, k1),
                                       cuts - k0)
            for end, (a, b) in zip(cuts[1:].tolist(), np.moveaxis(pieces, -1, 0)):
                x = x + np.array([a * x[0] + b * x[1], b.conj() * x[0] + a.conj() * x[1]])
                if end == marks[next_mark]:
                    if not np.all(np.isfinite(x)):
                        raise NonFinite(f"sweep state overflowed at step {end}")
                    record(end, x)
                    next_mark += 1
        actions = np.asarray(actions)
        base = actions[0]
        absent = np.sum(ABSENT_MODE_CUTOFF * np.abs(base))  # relative to the total action
        scale = np.where(np.abs(base) > absent, np.abs(base), 1.0)
        deviations = np.abs(actions - base) / scale
    return np.asarray(times), actions, deviations, np.asarray(overlaps)


def same_bits(got, want):
    """Equal arrays, signed zeros and NaN payloads included."""
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def python_float_segment(rng, axis_only=False):
    """``random_segment`` with the endpoints as Python floats, as a JSON config gives them."""
    start, end, csq = random_segment(rng)
    if axis_only:  # x = y = 0: every b of the kernel is a signed zero
        start, end = (0.0, 0.0, start[2]), (0.0, 0.0, end[2])
    return tuple(map(float, start)), tuple(map(float, end)), csq


@pytest.mark.parametrize("seed", range(40))
def test_phibar_pieces_are_psi_pieces_conjugated(seed):
    rng = np.random.default_rng(3000 + seed)
    start, end, _ = python_float_segment(rng, axis_only=seed % 5 == 0)
    steps = int(rng.integers(5, 3001))
    samples = int(rng.integers(2, 51))
    hbar = float(rng.choice([1.0, rng.uniform(0.5, 2.0)]))
    path = SweepPath.linear(start, end, T=steps * 0.01, samples=samples)
    marks = np.unique(np.round(np.linspace(0, steps, samples)).astype(int))
    cuts = np.union1d(marks, np.append(np.arange(0, steps, lorentzian._BLOCK), steps))
    dt = path.T / steps
    want = two_field_compose(two_field_increments(path, dt, hbar, steps, 0, steps), cuts)
    pa, pb = lorentzian._compose(*lorentzian._rk4_increments(path, dt, hbar, steps, 0, steps),
                                 cuts)
    assert same_bits(pa, want[0, 0]) and same_bits(pb, want[1, 0])
    assert same_bits(pa.conj(), want[0, 1])
    # on x = y = 0 paths every b is zero, and the two kernels' zero signs differ;
    # the sweep's output does not show it (pinned on the z axis below)
    got, ref = (-pb.conj()).view(float), want[1, 1].view(float)
    assert np.array_equal(got, ref) and same_bits(got[ref != 0], ref[ref != 0])
    assert seed % 5 == 0 or same_bits(got, ref)


def assert_bitwise_sweep(record, want):
    times, actions, deviations, overlaps = want
    assert same_bits(record.times, times)
    assert same_bits(record.actions, actions)
    assert same_bits(record.deviations, deviations)
    assert same_bits(record.overlaps, overlaps)


@pytest.mark.parametrize("seed", range(24))
def test_sweep_equals_the_two_field_kernel_bitwise(seed):
    rng = np.random.default_rng(4000 + seed)
    start, end, csq = python_float_segment(rng, axis_only=seed % 6 == 0)
    steps = int(rng.integers(5, 3001))
    samples = int(rng.integers(2, 51))
    hbar = float(rng.choice([1.0, rng.uniform(0.5, 2.0)]))
    path = SweepPath.linear(start, end, T=steps * 0.01, samples=samples)
    state0 = initial_sweep_state(path, csq, hbar)
    assert_bitwise_sweep(sweep_adiabatic(path, state0, 0.01), two_field_sweep(path, state0, 0.01))


def chunk_cut_cases(C):
    return [
        (7, 4 * C * 7, 5),           # marks on the edges of chunks
        (7, 4 * C * 7, 4 * C + 1),   # marks on every block edge
        (7, 3 * C * 7 + 2, 4),       # pieces that span block edges
        (64, C * 64 - 1, 2),         # one chunk, last block short
        (64, C * 64 + 1, 50),        # a one-step last chunk
        (B, 2 * C * B, 3),           # marks on the edges of full chunks
        (B, 2 * C * B + 5, 2),       # samples far apart: pieces are whole blocks
    ]


def assert_chunked_sweep_bitwise(monkeypatch, chunk, block, steps, samples):
    monkeypatch.setattr(lorentzian, "_CHUNK", chunk)
    monkeypatch.setattr(lorentzian, "_BLOCK", block)
    path = SweepPath.linear((0.4, -0.3, -2.0), (0.9, 0.5, -3.5), T=steps * 0.01, samples=samples)
    state0 = initial_sweep_state(path, [1.0, 0.3], hbar=0.8)
    assert_bitwise_sweep(sweep_adiabatic(path, state0, 0.01), two_field_sweep(path, state0, 0.01))


@pytest.mark.parametrize("block, steps, samples", chunk_cut_cases(4))
def test_sweep_chunks_keep_the_block_cuts(monkeypatch, block, steps, samples):
    # chunks of four blocks; an even chunk size other than the shipped one
    assert_chunked_sweep_bitwise(monkeypatch, 4, block, steps, samples)


@pytest.mark.parametrize("block, steps, samples", chunk_cut_cases(lorentzian._CHUNK))
def test_sweep_chunks_of_the_shipped_size_keep_the_block_cuts(monkeypatch, block, steps,
                                                              samples):
    assert_chunked_sweep_bitwise(monkeypatch, lorentzian._CHUNK, block, steps, samples)


def test_sweep_fixture_equals_the_two_field_kernel_bitwise():
    params = json.loads((FIXTURES / "sweep_reference.json").read_text())["params"]
    p = params["path"]
    path = SweepPath.linear((p["x0"], p["y0"], p["z0"]), (p["x1"], p["y1"], p["z1"]),
                            params["T"])
    state0 = initial_sweep_state(path, params["csq"])
    assert_bitwise_sweep(sweep_adiabatic(path, state0, params["dt"]),
                         two_field_sweep(path, state0, params["dt"]))


@pytest.mark.parametrize("zeros", [(0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 0.0, -0.0),
                                   (0.0, -0.0, -0.0, 0.0), (-0.0, -0.0, -0.0, -0.0)])
@pytest.mark.parametrize("csq", [[1.0, 0.0], [0.0, 1.0], [0.5, 0.7]])
def test_sweep_on_the_z_axis_equals_the_two_field_kernel_bitwise(zeros, csq):
    # an empty mode leaves exact zeros in the state, whose signs the zero b's could flip
    x0, y0, x1, y1 = zeros
    path = SweepPath.linear((x0, y0, -3.0), (x1, y1, -5.0), T=12.0, samples=7)
    state0 = initial_sweep_state(path, csq, hbar=0.7)
    assert_bitwise_sweep(sweep_adiabatic(path, state0, 0.0025),
                         two_field_sweep(path, state0, 0.0025))
