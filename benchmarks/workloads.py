"""Seeded scenario configs for the benchmark workloads.

``generate(workload, seed)`` returns the scenarios of one workload: each has
the config the program reads and the ground truth its oracle checks
against.  Only the config is written to disk for the program; the truth
stays with the benchmark.  The same seed always gives the same configs.

Every generator is built to run without error: dense generators are
``h = S diag(E) S^-1`` with real, separated ``E`` and a modestly conditioned
``S``; lattices use a PT-symmetric potential whose spectrum is checked to
be real; sweeps stay inside the real
regime with margin.  Real spectra keep long horizons bounded (a random
Gaussian n = 64 matrix overflows within a few thousand steps), and every
time step sits at ``dt*||h||/hbar = STEP_RATIO``, below the program's 0.5
stability guard.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STEP_RATIO = 0.4

# smallest level spacing accepted in a lattice spectrum
MIN_GAP = 1e-4

SWEEP_FIXTURE = Path("tests") / "fixtures" / "sweep_reference.json"

# Pool size per workload.  The closed loop cycles through the pool, so
# every config runs several times and each rerun is checked for
# byte-identical output.
POOL = 4


@dataclass
class Scenario:
    """One config the program runs, plus what its oracle needs."""

    id: str
    command: str
    config: dict
    truth: dict = field(default_factory=dict)

    def write(self, directory: Path) -> Path:
        path = Path(directory) / f"{self.id}.json"
        path.write_text(json.dumps(self.config) + "\n")
        return path


def _matrix(h):
    return {"n": int(h.shape[0]), "re": h.real.tolist(), "im": h.imag.tolist()}


def _vector(v):
    return {"re": np.real(v).tolist(), "im": np.imag(v).tolist()}


def _unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def dense_generator(rng, n):
    """``h = S diag(E) S^-1`` with real E in [-1, 1] and cond(S) in [3, 10].

    E is a jittered grid, so eigenvalues are at least half a grid spacing
    apart and the program never sees a near-exceptional point.
    """
    spacing = 2.0 / n
    e = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.25, 0.25, n) * spacing
    cond = float(rng.uniform(3.0, 10.0))
    s = (_unitary(rng, n) * np.logspace(0.0, np.log10(cond), n)) @ _unitary(rng, n)
    h = s @ np.diag(e) @ np.linalg.inv(s)
    return h, e, s


def decompose_scenario(rng, sid, n):
    h, e, s = dense_generator(rng, n)
    config = {"command": "decompose", "params": {"matrix": _matrix(h)},
              "output": "decompose.json", "seed": 0}
    return Scenario(sid, "decompose", config, {"eigenvalues": e, "S": s})


def verify_scenario(rng, sid, n):
    h, e, s = dense_generator(rng, n)
    psi, phibar = _unit_vector(rng, n), _unit_vector(rng, n)
    config = {"command": "verify",
              "params": {"matrix": _matrix(h), "psi0": _vector(psi),
                         "phibar0": _vector(phibar)},
              "output": "canonical.json", "seed": 0}
    return Scenario(sid, "verify", config,
                    {"h": h, "eigenvalues": e, "S": s, "psi": psi, "phibar": phibar})


def evolve_scenario(rng, sid, n, steps, every):
    """RK4 evolution of a random unit state; phibar0 is left to the program."""
    h, e, s = dense_generator(rng, n)
    dt = STEP_RATIO / float(np.linalg.norm(h, 2))
    psi = _unit_vector(rng, n)
    config = {"command": "evolve",
              "params": {"matrix": _matrix(h), "psi0": _vector(psi), "method": "rk4",
                         "t_final": steps * dt, "dt": dt, "snapshot_every": every},
              "output": "trajectory.csv", "seed": 0}
    return Scenario(sid, "evolve", config,
                    {"eigenvalues": e, "S": s, "psi": psi, "dt": dt, "steps": steps,
                     "every": every, "hbar": 1.0})


def lattice_generator(N, L, V, hbar=1.0, m=1.0):
    """Central-stencil periodic lattice generator ``-hbar^2/2m d^2/dx^2 + V``."""
    dx = L / N
    coeff = hbar ** 2 / (2.0 * m * dx ** 2)
    idx = np.arange(N)
    h = np.diag(2.0 * coeff + np.asarray(V, dtype=complex))
    h[idx, (idx + 1) % N] -= coeff
    h[idx, (idx - 1) % N] -= coeff
    return h


def continuum_scenario(rng, sid, N, steps, every):
    """Gaussian packet on a ring with a random PT-symmetric potential.

    ``V(-x) = V(x)*``: an even random real part of amplitude ``a`` and an
    odd imaginary part of amplitude ``b << a``.  Draws are kept only if
    the lattice spectrum is real, its levels are at least ``MIN_GAP``
    apart and the eigenvectors are well conditioned.  A smooth potential
    would leave the free ring's +-k pairs numerically degenerate, and the
    default conjugate field would then depend on the basis chosen inside
    each pair.
    """
    L = 20.0
    mirror = (-np.arange(N)) % N
    while True:
        a = float(rng.uniform(0.5, 1.0))
        b = float(rng.uniform(0.01, 0.03))
        r, q = rng.uniform(-1.0, 1.0, (2, N))
        V = a * (r + r[mirror]) / 2 + 1j * b * (q - q[mirror]) / 2
        h = lattice_generator(N, L, V)
        e, s = np.linalg.eig(h)
        s /= np.linalg.norm(s, axis=0)
        if (np.max(np.abs(e.imag)) <= 1e-9 * np.max(np.abs(e))
                and np.min(np.diff(np.sort(e.real))) >= MIN_GAP
                and np.linalg.cond(s) <= 10.0):
            break
    dt = STEP_RATIO / float(np.linalg.norm(h, 2))
    packet = {"kind": "gaussian", "center": float(rng.uniform(0.3, 0.7) * L),
              "width": float(rng.uniform(1.2, 1.5)),
              "momentum": float(rng.uniform(-1.0, 1.0))}
    config = {"command": "continuum",
              "params": {"L": L, "N": N, "m": 1.0, "hbar": 1.0,
                         "potential": {"kind": "table", "re": V.real.tolist(),
                                       "im": V.imag.tolist()},
                         "psi0": packet, "dt": dt, "t_final": steps * dt,
                         "snapshot_every": every},
              "output": "continuum.csv", "seed": 0}
    return Scenario(sid, "continuum", config,
                    {"L": L, "N": N, "V": V, "packet": packet, "dt": dt,
                     "steps": steps, "every": every, "hbar": 1.0, "m": 1.0})


SWEEP_T = 100.0
SWEEP_DT = 0.0025  # 4e4 steps over SWEEP_T, as in the committed fixture


def sweep_scenario(rng, sid, T=SWEEP_T):
    """Slow linear path whose z keeps one sign and |z| >= 3 hypot(x, y) at both ends.

    On a segment |z| is linear and hypot(x, y) convex, so the margin holds
    along the whole path, well inside the real regime z^2 > x^2 + y^2.
    (x, y) moves by at most 0.5 per component over the default T, so the
    sweep stays adiabatic like the committed fixture.
    """
    x0, y0 = rng.uniform(-1.0, 1.0, 2)
    x1, y1 = np.array([x0, y0]) + rng.uniform(-0.5, 0.5, 2)
    radius = max(np.hypot(x0, y0), np.hypot(x1, y1), 0.5)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    z0, z1 = sign * radius * rng.uniform(3.0, 5.0, 2)
    path = {"x0": float(x0), "y0": float(y0), "z0": float(z0),
            "x1": float(x1), "y1": float(y1), "z1": float(z1),
            "interpolation": "linear"}
    csq = [float(c) for c in rng.uniform(0.2, 1.5, 2)]
    config = {"command": "sweep",
              "params": {"path": path, "T": T, "dt": SWEEP_DT, "csq": csq},
              "output": "sweep.csv", "seed": 0}
    return Scenario(sid, "sweep", config, _sweep_truth(config))


def _sweep_truth(config):
    p = config["params"]
    return {"path": p["path"], "T": p["T"], "dt": p["dt"], "csq": p["csq"],
            "samples": p.get("samples", 201), "hbar": p.get("hbar", 1.0)}


def sweep_fixture_scenario(root: Path):
    config = json.loads((Path(root) / SWEEP_FIXTURE).read_text())
    truth = _sweep_truth(config)
    truth["frozen_max_deviation"] = 1.885917503558e-07
    return Scenario("sweep-fixture", "sweep", config, truth)


# The workloads BENCHMARK.json lists; together they run every command.
WORKLOADS = ("dense-ingest", "long-horizon")
# Runnable by name but not listed.  The time allowed for all runs of the
# benchmark is fixed, so fewer listed workloads get longer, steadier runs.
# long-horizon also runs the sweep kernel; what only record-dense stresses
# is every-step recording.
EXTRA_WORKLOADS = ("adiabatic-sweep", "record-dense")


def generate(workload: str, seed: int, root: Path = Path(".")) -> list:
    """The scenario pool of one workload, alternating scenario types."""
    rng = np.random.default_rng([seed, (WORKLOADS + EXTRA_WORKLOADS).index(workload)])
    if workload == "dense-ingest":
        # Ingest without stepping: a 3 MB config whose schema validation,
        # parsing, decomposition and canonical checks dominate the run.
        return [decompose_scenario(rng, "decompose-0", 256),
                verify_scenario(rng, "verify-0", 256),
                decompose_scenario(rng, "decompose-1", 256),
                verify_scenario(rng, "verify-1", 256)]
    if workload == "long-horizon":
        # Many steps, sparse snapshots: the per-step propagation kernels
        # dominate while ingest and output stay negligible.  Step counts
        # are set so that the scenario types take a similar time.  The 2x2
        # sweep kernel rides along (committed fixture included), so the
        # lorentzian layer is measured without a workload of its own.
        return [evolve_scenario(rng, "evolve-0", 8, 16000, 500),
                continuum_scenario(rng, "continuum-0", 64, 14000, 500),
                sweep_fixture_scenario(root),
                evolve_scenario(rng, "evolve-1", 8, 16000, 500),
                continuum_scenario(rng, "continuum-1", 64, 14000, 500),
                sweep_scenario(rng, "sweep-0")]
    if workload == "adiabatic-sweep":
        # Only the 2x2 time-dependent kernel: no spectral decomposition
        # and no dense RK4, so it is the no-change control for dense
        # propagator work.  The committed fixture pins the frozen value.
        return [sweep_fixture_scenario(root)] + [
            sweep_scenario(rng, f"sweep-{k}") for k in range(POOL - 1)]
    if workload == "record-dense":
        # The long-horizon propagators, recording every step: snapshot
        # objects, row building, post-processing and CSV formatting
        # dominate instead of stepping.
        return [evolve_scenario(rng, "evolve-0", 64, 1000, 1),
                continuum_scenario(rng, "continuum-0", 256, 1000, 1),
                evolve_scenario(rng, "evolve-1", 64, 1000, 1),
                continuum_scenario(rng, "continuum-1", 256, 1000, 1)]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {WORKLOADS + EXTRA_WORKLOADS}")
