"""Verdicts decided by norm bounds, and the SVDs a run still takes.

``check_step`` passes a step from ``||h||_2 <= sqrt(||h||_1 ||h||_inf)`` and
takes ``||h||_2`` only where that bound leaves the verdict open; it must
give the verdict and message of the SVD-only guard kept here.  The
condition number of a decomposition is computed only when read.  Counting
``np.linalg.svd`` calls pins which runs take an SVD: the benchmark-like
continuum and verify runs none, an evolve run one per step guard the bound
cannot decide, and ``decompose`` one, for the condition number it reports.
"""

import json

import numpy as np
import pytest

from biham import spectral
from biham.cli import main
from biham.dynamics import MAX_STEP_FRACTION, check_step
from biham.errors import StepTooLarge

from helpers import count_svds, random_diagonalizable, random_hermitian, random_unitary


def reference_check_step(h, dt, hbar):
    """The guard with ``||h||_2`` from an SVD on every call."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):
        ratio = dt * np.linalg.norm(h, 2) / hbar
    if not ratio <= MAX_STEP_FRACTION:
        raise StepTooLarge(
            f"dt*||h||/hbar = {ratio:.3g} exceeds the stability guard {MAX_STEP_FRACTION}")


def verdict(guard, h, dt, hbar):
    try:
        guard(h, dt, hbar)
    except (ValueError, StepTooLarge) as exc:
        return type(exc).__name__, str(exc)
    return "ok", None


def assert_same_verdict(h, dt, hbar=1.0):
    got = verdict(check_step, h, dt, hbar)
    assert got == verdict(reference_check_step, h, dt, hbar)
    return got[0]


def norm_bound(h):
    magnitude = np.abs(h)
    return np.sqrt(np.max(magnitude.sum(axis=0)) * np.max(magnitude.sum(axis=1)))


@pytest.mark.parametrize("seed", range(30))
def test_step_guard_matches_the_svd_guard_on_random_draws(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(1, 40))
    kind = seed % 3
    if kind == 0:
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    elif kind == 1:
        h, _, _ = random_diagonalizable(rng, n)
    else:
        h = random_hermitian(rng, n, norm=float(rng.uniform(0.1, 10.0)))
    hbar = float(rng.choice([1.0, rng.uniform(0.3, 3.0)]))
    norm = np.linalg.norm(h, 2)
    verdicts = set()
    # ratios on both sides of the guard, by the exact norm and by the bound
    for factor in (0.5, 0.9, 0.999, 1.0, 1.001, 1.5):
        verdicts.add(assert_same_verdict(h, factor * MAX_STEP_FRACTION * hbar / norm, hbar))
        assert_same_verdict(h, factor * MAX_STEP_FRACTION * hbar / norm_bound(h), hbar)
    assert verdicts == {"ok", "StepTooLarge"}


def test_step_guard_in_the_undecided_band():
    # a random n x n matrix has a bound about sqrt(n) / 2 times ||h||_2, so each of
    # these ratios is left open by the bound and decided by the SVD
    rng = np.random.default_rng(17)
    for n in (64, 128):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norm = np.linalg.norm(h, 2)
        for factor in (0.6, 0.99, 1.0, 1.01, 2.0):
            dt = factor * MAX_STEP_FRACTION / norm
            assert dt * norm_bound(h) > MAX_STEP_FRACTION
            assert assert_same_verdict(h, dt) == ("ok" if factor <= 1.0 else "StepTooLarge")


def test_step_guard_at_the_guard_exactly():
    # for a diagonal h the bound equals ||h||_2, so the margin sends a ratio of
    # exactly MAX_STEP_FRACTION to the SVD, which passes it
    h = np.diag([2.0, -0.5, 1j])
    assert assert_same_verdict(h, MAX_STEP_FRACTION / 2.0) == "ok"
    assert assert_same_verdict(h, np.nextafter(MAX_STEP_FRACTION / 2.0, 1.0)) == "StepTooLarge"


@pytest.mark.parametrize("h, dt, hbar", [
    (np.eye(3), float("nan"), 1.0),                 # a nan step is not positive
    (np.eye(2) * 10.0, 1e308, 1.0),                 # an overflowing ratio is inf
    (np.eye(2), 0.1, 1e-308),                       # overflow through hbar
    (np.array([[1, 1], [1, -1]]) * 1e308, 1e-309, 1.0),  # the sums overflow, the norm not
    (np.diag([1e-200, 2e-200]), 1e200, 1.0),        # the sums' product underflows to 0
    (np.diag([3e-161, 1.5e-161]), MAX_STEP_FRACTION / 3e-161 * (1 + 1e-5), 1.0),
    # ^ a subnormal product of the sums, the ratio just above the guard
    (np.diag([1e-310, 5e-311]), 1e300, 1.99998e-10),  # subnormal sums, ratio 0.500005
    (np.diag([1.5495936876730596e-28, 7.7e-29]), 3.0129964973017175e-294, 189 * 5e-324),
    # ^ dt * ||h||_2 subnormal: a margin taken after the rounding of dt * bound passes this
    (np.zeros((4, 4)), 1.0, 1.0),                   # a zero generator passes
    (np.eye(2), 5e-324, 1.0),                       # a subnormal step
    (np.eye(2), -1.0, 1.0),                         # not positive
    (np.array([[np.inf, 0], [0, 1]]), 0.1, 1.0),    # not finite
], ids=["nan_dt", "overflow_dt", "overflow_hbar", "overflow_sums", "underflow_sums",
        "subnormal_product", "subnormal_sums", "subnormal_ratio", "zero", "subnormal",
        "negative", "inf_entry"])
def test_step_guard_edge_cases_match_the_svd_guard(h, dt, hbar):
    assert_same_verdict(np.asarray(h, dtype=complex), dt, hbar)


@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-200, 3e-161, 1e-100, 1.0, 1e100, 1e200,
                                   1e300])
def test_step_guard_matches_the_svd_guard_across_scales(scale):
    # the bound's sums and the ratio's products may underflow or round as
    # subnormals at these scales; the verdict must still be the SVD guard's,
    # also for an hbar that makes dt * ||h||_2 subnormal
    rng = np.random.default_rng(31)
    verdicts = set()
    for base in (np.diag([1.0, 0.5, 1j]), rng.standard_normal((5, 5)) + 0j):
        h = base * scale
        norm = np.linalg.norm(h, 2)
        for hbar in (1.0, scale, 1e-300, 2e-310):
            for factor in (0.5, 0.999, 1.0, 1.00001, 1.001, 2.0):
                with np.errstate(over="ignore"):
                    dt = factor * MAX_STEP_FRACTION * hbar / norm
                if 0.0 < dt < np.inf:
                    verdicts.add(assert_same_verdict(h, dt, hbar))
    assert verdicts == {"ok", "StepTooLarge"}


@pytest.mark.parametrize("N", [64, 256])
def test_step_guard_decides_the_lattice_without_an_svd(monkeypatch, N):
    h, _ = lattice(np.random.default_rng(3), N)
    dt = 0.4 / np.linalg.norm(h, 2)
    calls = count_svds(monkeypatch)
    check_step(h, dt, 1.0)
    assert calls == []
    with pytest.raises(StepTooLarge):
        check_step(h, 1.3 * dt, 1.0)
    assert calls == [(N, N)]


# ---------------------------------------------------------------------------
# SVDs per run


def matrix(h):
    return {"n": h.shape[0], "re": h.real.tolist(), "im": h.imag.tolist()}


def vector(v):
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def dense(rng, n):
    """A jittered real spectrum in [-1, 1] with cond(S) in [3, 10], as the benchmark draws."""
    e = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.25, 0.25, n) * (2.0 / n)
    cond = float(rng.uniform(3.0, 10.0))
    s = (random_unitary(rng, n) * np.logspace(0.0, np.log10(cond), n)) @ random_unitary(rng, n)
    return s @ np.diag(e) @ np.linalg.inv(s)


def lattice(rng, N, L=20.0):
    """A periodic central-stencil ring with a PT-symmetric random potential."""
    mirror = (-np.arange(N)) % N
    r, q = rng.uniform(-1.0, 1.0, (2, N))
    V = 0.7 * (r + r[mirror]) / 2 + 0.02j * (q - q[mirror]) / 2
    coeff = 1.0 / (2.0 * (L / N) ** 2)
    idx = np.arange(N)
    h = np.diag(2.0 * coeff + V)
    h[idx, (idx + 1) % N] -= coeff
    h[idx, (idx - 1) % N] -= coeff
    return h, V


def run(tmp_path, cfg, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    calls = count_svds(monkeypatch)
    assert main([cfg["command"], "--config", str(path), "--out", str(tmp_path)]) == 0
    return calls


def test_continuum_takes_no_svd(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    h, V = lattice(rng, 64)
    dt = 0.4 / np.linalg.norm(h, 2)
    cfg = {"command": "continuum",
           "params": {"L": 20.0, "N": 64, "potential": {"kind": "table", "re": V.real.tolist(),
                                                       "im": V.imag.tolist()},
                      "psi0": {"kind": "gaussian", "center": 10.0, "width": 1.3,
                               "momentum": 0.5},
                      "dt": dt, "t_final": 200 * dt, "snapshot_every": 50}}
    assert run(tmp_path, cfg, monkeypatch) == []


def test_verify_takes_no_svd(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    h = dense(rng, 32)
    cfg = {"command": "verify", "params": {"matrix": matrix(h), "psi0": vector(unit(rng, 32)),
                                           "phibar0": vector(unit(rng, 32))}}
    assert run(tmp_path, cfg, monkeypatch) == []


def test_decompose_takes_one_svd_for_its_condition_number(tmp_path, monkeypatch):
    h = dense(np.random.default_rng(7), 32)
    cfg = {"command": "decompose", "params": {"matrix": matrix(h)}}
    assert run(tmp_path, cfg, monkeypatch) == [(32, 32)]
    report = json.loads((tmp_path / "decompose.json").read_text())
    assert report["condition_number"] == np.linalg.cond(spectral.biorthogonal_decompose(h).right)


@pytest.mark.parametrize("kind", ["dense", "hermitian"])
def test_evolve_takes_an_svd_only_where_the_bound_is_open(tmp_path, monkeypatch, kind):
    rng = np.random.default_rng(8)
    h = dense(rng, 8) if kind == "dense" else np.diag(rng.uniform(-1.0, 1.0, 8)).astype(complex)
    dt = 0.4 / np.linalg.norm(h, 2)
    open_band = dt * norm_bound(h) * (1.0 + 1e-6) > MAX_STEP_FRACTION
    assert open_band == (kind == "dense")
    cfg = {"command": "evolve",
           "params": {"matrix": matrix(h), "psi0": vector(unit(rng, 8)), "method": "rk4",
                      "t_final": 100 * dt, "dt": dt, "snapshot_every": 10}}
    # the guard runs once, in the preflight; the run builds its step maps without it
    assert run(tmp_path, cfg, monkeypatch) == [(8, 8)] * (1 if open_band else 0)


def test_condition_number_is_computed_when_read(monkeypatch):
    h, _, _ = random_diagonalizable(np.random.default_rng(9), 6)
    calls = count_svds(monkeypatch)
    system = spectral.biorthogonal_decompose(h)
    assert calls == []
    svals = np.linalg.svd(system.right, compute_uv=False)
    assert system.cond == float(svals[0] / svals[-1])
    assert system.cond == system.cond and len(calls) == 2  # cached after the first read
    given = spectral.BiorthogonalSystem(system.eigenvalues, system.right, system.left, cond=2.5)
    assert given.cond == 2.5 and len(calls) == 2
