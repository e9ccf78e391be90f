"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from biham.canonical import (
    gradient_fd_mismatch,
    hamiltonian_value,
    modal_hamiltonian,
    rhs_mismatch,
)
from biham.cli import main as cli_main
from biham.continuum import (
    ContinuumConfig,
    complex_gaussian_potential,
    continuity_residual,
    discretize,
    gaussian_packet,
    initial_lattice_state,
    lattice_charge,
)
from biham.dynamics import (
    ModalCoordinates,
    StatePair,
    conjugate_field,
    evolve_exact,
    evolve_rk4,
    overlap,
    phase_rotated,
    right_norm,
    rk4_trajectory,
)
from biham.errors import NotDiagonalizable, OutsideRealRegime, ZeroModalCoefficient
from biham.lorentzian import (
    LorentzianParams,
    SweepPath,
    initial_sweep_state,
    lorentzian_conjugate,
    lorentzian_matrix,
    lorentzian_uv,
    sweep_adiabatic,
)
from biham.spectral import (
    biorthogonal_decompose,
    biorthonormality_residual,
    completeness_residual,
)

from helpers import random_diagonalizable, random_hermitian, random_state

FIXTURES = Path(__file__).parent / "fixtures"

FROZEN_SWEEP_MAX_DEVIATION = 1.885917503558e-07
SWEEP_DT = 0.0025


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({title}): FAIL")
        raise
    print(f"criterion {number:2d} ({title}): PASS")


def test_c01_biorthogonal_structure():
    with criterion(1, "biorthogonal structure, 200 random systems"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for i in range(200):
            n = 2 + i % 7
            cond = float(10 ** rng.uniform(0.3, 3.0))  # up to 1e3
            h, evals, _ = random_diagonalizable(rng, n, min_sep=1e-3, cond=cond)
            system = biorthogonal_decompose(h)
            assert np.max(np.abs(system.eigenvalues - evals)) <= 1e-9
            assert biorthonormality_residual(system) <= 1e-10
            assert completeness_residual(system) <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_c02_overlap_conservation():
    with criterion(2, "RK4 overlap conservation and dt scaling"):
        rng = np.random.default_rng(102)
        start = time.perf_counter()
        for _ in range(3):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = 0.9 * g / np.linalg.norm(g, 2)
            st = StatePair(psi=random_state(rng, 4), phibar=random_state(rng, 4))
            q0 = overlap(st)

            def drift(dt):
                snaps = rk4_trajectory(h, st, dt=dt, steps=round(10.0 / dt),
                                       record_every=max(1, round(0.1 / dt)))
                return max(abs(overlap(s) - q0) for s in snaps)

            assert drift(1e-3) <= 1e-8
            # 4th-order scaling is demonstrated where truncation dominates the
            # float64 noise floor; at dt=1e-3 the drift is already roundoff
            assert drift(0.05) <= drift(0.1) / 8.0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_c03_propagator_cross_validation():
    with criterion(3, "RK4 vs exact propagator, 50 systems"):
        rng = np.random.default_rng(103)
        for i in range(50):
            n = 2 + i % 7
            h, _, _ = random_diagonalizable(rng, n)
            system = biorthogonal_decompose(h)
            st = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n))
            end = evolve_rk4(h, st, dt=1e-3, steps=1000)
            ref = evolve_exact(system, st, 1.0)
            assert np.linalg.norm(end.psi - ref.psi) <= 1e-6


def test_c04_hermitian_reduction():
    with criterion(4, "Hermitian reduction, 50 systems over t in [0, 10]"):
        rng = np.random.default_rng(104)
        for i in range(50):
            n = 2 + i % 7
            h = random_hermitian(rng, n)
            psi0 = random_state(rng, n)
            st = StatePair(psi=psi0, phibar=np.conj(psi0))
            for s in rk4_trajectory(h, st, dt=0.01, steps=1000, record_every=100):
                assert np.max(np.abs(s.phibar - np.conj(s.psi))) <= 1e-8
                assert abs(right_norm(s) - 1.0) <= 1e-8


def test_c05_canonical_equivalence():
    with criterion(5, "canonical equations match the dynamics"):
        rng = np.random.default_rng(105)
        for i in range(30):
            n = 2 + i % 7
            h, _, _ = random_diagonalizable(rng, n)
            system = biorthogonal_decompose(h)
            st = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n))
            assert rhs_mismatch(h, st) <= 1e-12
            assert gradient_fd_mismatch(h, st) <= 1e-6
            modal = ModalCoordinates.from_state(system, st)
            assert abs(hamiltonian_value(h, st)
                       - modal_hamiltonian(system, modal)) <= 1e-10
        # energy constancy along exact trajectories (mild Im E: growth would
        # push reassembly roundoff past the tolerance; see decisions ledger)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            h, _, _ = random_diagonalizable(rng, n, cond=8.0, imag_scale=0.15)
            h /= np.linalg.norm(h, 2)
            system = biorthogonal_decompose(h)
            st = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n))
            v0 = hamiltonian_value(h, st)
            for t in np.linspace(0.5, 10.0, 8):
                assert abs(hamiltonian_value(h, evolve_exact(system, st, float(t)))
                           - v0) <= 1e-12


def test_c06_lorentzian_closed_forms():
    with criterion(6, "two-level closed forms, 100 random points"):
        rng = np.random.default_rng(106)
        for _ in range(100):
            z = float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)
            radius = abs(z) * np.sqrt(rng.uniform(0.0, 0.95))
            angle = rng.uniform(0, 2 * np.pi)
            p = LorentzianParams(x=radius * np.cos(angle),
                                 y=radius * np.sin(angle), z=z)
            pair = lorentzian_uv(p)
            assert abs(abs(pair.u) ** 2 - abs(pair.v) ** 2 - 1.0) <= 1e-12
            h = lorentzian_matrix(p)
            a1 = pair.right_vectors()[:, 0]
            assert np.linalg.norm(h @ a1 - pair.E * a1) <= 1e-10
            coeff = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = pair.right_vectors() @ coeff
            csq = np.array([rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)])
            closed = lorentzian_conjugate(p, psi, csq)
            system = biorthogonal_decompose(h)
            closed_evals = np.array([pair.E, -pair.E])
            perm = [int(np.argmin(np.abs(closed_evals - e)))
                    for e in system.eigenvalues]
            assert np.max(np.abs(closed - conjugate_field(system, psi, csq[perm]))) <= 1e-12
        # spot value
        assert lorentzian_uv(LorentzianParams(1, 0, 2)).E == pytest.approx(
            np.sqrt(3.0), abs=1e-12)


def test_c07_adiabatic_invariance():
    with criterion(7, "adiabatic action invariance and T scaling"):
        start = time.perf_counter()
        deviations = {}
        for T in (50.0, 100.0, 200.0, 400.0):
            path = SweepPath.linear((1.0, 0.0, 3.0), (1.0, 0.0, 5.0), T=T)
            st = initial_sweep_state(path, [1.0, 0.0])
            deviations[T] = sweep_adiabatic(path, st, dt=SWEEP_DT).max_deviation()
        ordered = [deviations[T] for T in (50.0, 100.0, 200.0, 400.0)]
        assert all(b <= a for a, b in zip(ordered, ordered[1:])), ordered
        assert deviations[400.0] <= deviations[50.0] / 4.0
        assert deviations[100.0] == pytest.approx(FROZEN_SWEEP_MAX_DEVIATION, abs=1e-6)
        # frozen value reproduces across runs
        path = SweepPath.linear((1.0, 0.0, 3.0), (1.0, 0.0, 5.0), T=100.0)
        st = initial_sweep_state(path, [1.0, 0.0])
        rerun = sweep_adiabatic(path, st, dt=SWEEP_DT).max_deviation()
        assert rerun == pytest.approx(deviations[100.0], abs=1e-6)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_c08_continuum_conservation():
    with criterion(8, "lattice charge, continuity, and phase symmetry"):
        start = time.perf_counter()
        config = ContinuumConfig(L=20.0, N=64)
        x = config.grid()
        V = complex_gaussian_potential(x, center=8.0, width=1.5, amplitude=0.8 - 0.3j)
        psi0 = gaussian_packet(x, center=12.0, width=1.2, momentum=1.0)
        h = discretize(config, V)
        state0 = initial_lattice_state(config, V, psi0)
        q0 = lattice_charge(state0, config.dx)

        snaps = rk4_trajectory(h, state0, dt=1e-4, steps=10000, record_every=500)
        drift_stated = max(abs(lattice_charge(s, config.dx) - q0) for s in snaps)
        assert drift_stated <= 1e-8

        # 4th-order dt scaling, demonstrated above the float64 noise floor
        def drift(dt):
            out = rk4_trajectory(h, state0, dt=dt, steps=round(1.0 / dt), record_every=20)
            return max(abs(lattice_charge(s, config.dx) - q0) for s in out)

        assert drift(0.005) <= drift(0.01) / 8.0

        # continuity residual: ~4x reduction when dx is halved
        def residual(n_points):
            cfg = ContinuumConfig(L=20.0, N=n_points)
            xs = cfg.grid()
            pot = complex_gaussian_potential(xs, center=8.0, width=1.5,
                                             amplitude=0.8 - 0.3j)
            f0 = initial_lattice_state(
                cfg, pot, gaussian_packet(xs, center=12.0, width=1.2, momentum=1.0))
            series = rk4_trajectory(discretize(cfg, pot), f0, dt=2.5e-4, steps=8,
                                    record_every=2)
            return continuity_residual(series, cfg)

        ratio = residual(64) / residual(128)
        assert 3.0 <= ratio <= 5.5, f"dx-halving ratio {ratio:.2f}"

        # intrinsic phase symmetry leaves the Hamiltonian sum and Q unchanged
        h_sum0 = hamiltonian_value(h, state0) * config.dx
        for alpha in (0.1, 1.0, np.pi):
            rotated = phase_rotated(state0, alpha)
            assert abs(hamiltonian_value(h, rotated) * config.dx - h_sum0) <= 1e-12
            assert abs(lattice_charge(rotated, config.dx) - q0) <= 1e-12

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_c09_error_paths():
    with criterion(9, "error paths carry distinct exceptions"):
        with pytest.raises(NotDiagonalizable):
            biorthogonal_decompose([[1, 1], [-1, -1]])
        with pytest.raises(OutsideRealRegime):
            lorentzian_uv(LorentzianParams(1.0, 0.0, 1.0))
        system = biorthogonal_decompose([[1, 1], [0, 2]])
        with pytest.raises(ZeroModalCoefficient):
            conjugate_field(system, system.right[:, 0], [0.0, 1.0])


def test_c10_cli_determinism(tmp_path):
    with criterion(10, "CLI determinism on bundled fixtures"):
        for fixture in sorted(FIXTURES.glob("*.json")):
            command = fixture.stem.split("_")[0]
            artifacts = []
            for run in ("a", "b"):
                out = tmp_path / f"{fixture.stem}_{run}"
                out.mkdir()
                code = cli_main([command, "--config", str(fixture), "--out", str(out)])
                assert code == 0, fixture.name
                artifacts.append(next(out.iterdir()).read_bytes())
            assert artifacts[0] == artifacts[1], f"{fixture.name} not reproducible"
