import numpy as np
import pytest
from numpy.testing import assert_allclose

from biham.canonical import hamiltonian_value
from biham.continuum import (
    ContinuumConfig,
    complex_gaussian_potential,
    continuity_residuals,
    discretize,
    gaussian_packet,
    lattice_charge,
    lattice_current,
    plane_wave,
)
from biham.dynamics import (
    StatePair,
    Trajectory,
    exact_records,
    initial_state,
    phase_rotated,
    rk4_trajectory,
)
from biham.errors import InsufficientSnapshots
from biham.spectral import (
    biorthogonal_decompose,
    biorthonormality_residual,
    completeness_residual,
)


def reference_setup(N=64, L=20.0):
    cfg = ContinuumConfig(L=L, N=N)
    x = cfg.grid()
    V = complex_gaussian_potential(x, center=8.0, width=1.5, amplitude=0.8 - 0.3j)
    psi0 = gaussian_packet(x, center=12.0, width=1.2, momentum=1.0)
    return cfg, V, psi0


def stacked(times, psi, phibar):
    """Trajectory of the given rows."""
    return Trajectory(np.array(times, dtype=float), np.array(psi, dtype=complex),
                      np.array(phibar, dtype=complex))


class TestDiscretize:
    def test_free_stencil(self):
        cfg = ContinuumConfig(L=8.0, N=8)
        h = discretize(cfg, np.zeros(8))
        coeff = cfg.hbar ** 2 / (2 * cfg.m * cfg.dx ** 2)
        assert_allclose(np.diag(h), np.full(8, 2 * coeff), atol=0)
        assert h[0, 1] == pytest.approx(-coeff)
        assert h[0, 7] == pytest.approx(-coeff)  # periodic wrap
        assert h[0, 2] == 0

    def test_real_potential_hermitian(self):
        cfg = ContinuumConfig(L=8.0, N=8)
        h = discretize(cfg, np.linspace(0, 1, 8))
        assert np.max(np.abs(h - h.conj().T)) == 0

    def test_complex_potential_not_hermitian(self):
        cfg = ContinuumConfig(L=8.0, N=8)
        h = discretize(cfg, np.linspace(0, 1, 8) * (1 + 1j))
        assert np.max(np.abs(h - h.conj().T)) > 0.1

    def test_plane_wave_dispersion(self):
        cfg = ContinuumConfig(L=8.0, N=8)
        h = discretize(cfg, np.zeros(8))
        psi = plane_wave(cfg, 1)
        k = 2 * np.pi / cfg.L
        ek = (cfg.hbar ** 2 / (cfg.m * cfg.dx ** 2)) * (1 - np.cos(k * cfg.dx))
        assert np.max(np.abs(h @ psi - ek * psi)) <= 1e-12

    def test_lattice_system_biorthonormal(self):
        cfg, V, _ = reference_setup()
        system = biorthogonal_decompose(discretize(cfg, V))
        assert biorthonormality_residual(system) <= 1e-10
        assert completeness_residual(system) <= 1e-10


class TestCharge:
    def test_hermitian_reduction_is_norm(self):
        cfg, _, psi0 = reference_setup()
        state = StatePair(psi=psi0, phibar=psi0.conj())
        assert lattice_charge(state, cfg.dx) == pytest.approx(1.0, abs=1e-12)

    def test_zero_state(self):
        cfg = ContinuumConfig(L=8.0, N=8)
        state = StatePair(psi=np.zeros(8), phibar=np.zeros(8))
        assert lattice_charge(state, cfg.dx) == 0

    def test_conserved_under_evolution(self):
        cfg, V, psi0 = reference_setup()
        h = discretize(cfg, V)
        f0 = initial_state(biorthogonal_decompose(h), psi0)
        q0 = lattice_charge(f0, cfg.dx)
        snaps = rk4_trajectory(h, f0, dt=1e-3, steps=1000, record_every=100)
        drift = max(abs(lattice_charge(s, cfg.dx) - q0) for s in snaps)
        assert drift <= 1e-8

    def test_conserved_under_exact_evolution(self):
        cfg, V, psi0 = reference_setup(N=32)
        system = biorthogonal_decompose(discretize(cfg, V))
        f0 = initial_state(system, psi0)
        q0 = lattice_charge(f0, cfg.dx)
        for s in exact_records(system, f0, [0.5, 2.0, 7.0]):
            assert abs(lattice_charge(s, cfg.dx) - q0) <= 1e-12

    def test_drift_scales_with_dt(self):
        cfg, V, psi0 = reference_setup()
        h = discretize(cfg, V)
        f0 = initial_state(biorthogonal_decompose(h), psi0)
        q0 = lattice_charge(f0, cfg.dx)

        def drift(dt):
            snaps = rk4_trajectory(h, f0, dt=dt, steps=round(1.0 / dt), record_every=20)
            return max(abs(lattice_charge(s, cfg.dx) - q0) for s in snaps)

        assert drift(0.005) <= drift(0.01) / 8.0


class TestCurrent:
    def test_constant_fields_zero(self):
        cfg = ContinuumConfig(L=8.0, N=8)
        state = StatePair(psi=np.ones(8), phibar=np.ones(8))
        assert np.max(np.abs(lattice_current(state, cfg))) == 0

    def test_plane_wave_value(self):
        cfg = ContinuumConfig(L=8.0, N=16)
        psi = plane_wave(cfg, 1)
        j = lattice_current(StatePair(psi=psi, phibar=psi.conj()), cfg)
        k = 2 * np.pi / cfg.L
        expected = -cfg.hbar * np.sin(k * cfg.dx) / (cfg.m * cfg.dx)
        assert np.max(np.abs(j.imag)) <= 1e-14
        assert_allclose(j.real, np.full(16, expected), atol=1e-12)

    def test_hermitian_case_matches_textbook_form(self):
        cfg, _, psi0 = reference_setup(N=32)
        psi = psi0 * np.exp(1j * 0.7 * cfg.grid())
        j = lattice_current(StatePair(psi=psi, phibar=psi.conj()), cfg)
        grad = (np.roll(psi, -1) - np.roll(psi, 1)) / (2 * cfg.dx)
        textbook = (1j * cfg.hbar / (2 * cfg.m)) * (psi.conj() * grad - psi * grad.conj())
        assert_allclose(j, textbook, atol=1e-14)


class TestContinuity:
    def test_needs_three_snapshots(self):
        cfg, V, psi0 = reference_setup(N=16)
        h = discretize(cfg, V)
        f0 = initial_state(biorthogonal_decompose(h), psi0)
        snaps = rk4_trajectory(h, f0, dt=1e-3, steps=1)
        assert len(snaps) == 2
        with pytest.raises(InsufficientSnapshots):
            continuity_residuals(snaps, cfg)

    def test_uneven_spacing_rejected(self):
        cfg, V, psi0 = reference_setup(N=16)
        f0 = initial_state(biorthogonal_decompose(discretize(cfg, V)), psi0)
        # the gaps are compared relative to the first at every scale: 1:2 gaps of
        # 1e-13 are refused as those of 0.1 are
        for times in ([0.0, 0.1, 0.3], [0.0, 1e-13, 3e-13]):
            snaps = stacked(times, [f0.psi] * 3, [f0.phibar] * 3)
            with pytest.raises(ValueError, match="equally spaced"):
                continuity_residuals(snaps, cfg)

    def test_overflowing_density_gives_nan(self):
        # phibar psi = 1e400 at every site: the time difference is inf - inf
        cfg = ContinuumConfig(L=10.0, N=8)
        big = np.full(8, 1e200)
        snaps = stacked([0.0, 0.1, 0.2], [big] * 3, [big] * 3)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.max(continuity_residuals(snaps, cfg)))

    @pytest.mark.parametrize("rows, sites", [(1001, 256), (29, 64), (600, 1024)])
    def test_stacked_residuals_equal_each_window_bitwise(self, rows, sites):
        # 999 interior rows of 256 sites pass numpy's 256 KiB threshold for reusing
        # temporaries in place, 27 rows of 64 do not; 598 rows of 1024 take three blocks
        rng = np.random.default_rng(rows)
        cfg = ContinuumConfig(L=20.0, N=sites)

        def draw():
            return rng.standard_normal(sites) + 1j * rng.standard_normal(sites)

        times = [k * 0.0123 for k in range(rows)]
        psi = [draw() for _ in range(rows)]
        phibar = [draw() for _ in range(rows)]
        snaps = stacked(times, psi, phibar)

        def density(k):
            return phibar[k] * psi[k]

        def window(k):
            dt = times[k] - times[k - 1]
            drho_dt = (density(k + 1) - density(k - 1)) / (2.0 * dt)
            j = lattice_current(snaps[k], cfg)
            div_j = (np.roll(j, -1) - np.roll(j, 1)) / (2.0 * cfg.dx)
            return np.max(np.abs(drho_dt - div_j))

        want = np.array([window(k) for k in range(1, rows - 1)])
        got = continuity_residuals(snaps, cfg)
        assert got.tobytes() == want.tobytes()

    def test_stationary_hermitian_eigenmode(self):
        cfg = ContinuumConfig(L=10.0, N=32)
        x = cfg.grid()
        V = 2.0 * np.exp(-((x - 5.0) ** 2))  # real potential
        h = discretize(cfg, V.astype(complex))
        system = biorthogonal_decompose(h)
        mode = system.right[:, 0]  # nondegenerate ground mode
        times = (0.0, 0.01, 0.02)
        phases = [np.exp(-1j * system.eigenvalues[0].real * t) for t in times]
        snaps = stacked(times, [mode * p for p in phases], [mode.conj() / p for p in phases])
        assert np.max(continuity_residuals(snaps, cfg)) <= 1e-10

    def test_second_order_in_dx(self):
        def residual(N):
            cfg, V, psi0 = reference_setup(N=N)
            h = discretize(cfg, V)
            f0 = initial_state(biorthogonal_decompose(h), psi0)
            snaps = rk4_trajectory(h, f0, dt=2.5e-4, steps=8, record_every=2)
            return np.max(continuity_residuals(snaps, cfg))

        ratio = residual(64) / residual(128)
        assert 3.0 <= ratio <= 5.5

    def test_second_order_in_snapshot_interval(self):
        # two-mode beat with exact trajectories on a fine grid: the spatial
        # floor sits orders below, so the central time difference dominates
        cfg = ContinuumConfig(L=20.0, N=1024)
        x = cfg.grid()
        k1, k2 = 2 * np.pi * 2 / cfg.L, 2 * np.pi * 5 / cfg.L
        disp = lambda k: (cfg.hbar / (cfg.m * cfg.dx ** 2)) * (1 - np.cos(k * cfg.dx))
        w1, w2 = disp(k1), disp(k2)

        def psi(t):
            return np.exp(1j * (k1 * x - w1 * t)) + np.exp(1j * (k2 * x - w2 * t))

        def phibar(t):
            return np.exp(-1j * (k1 * x - w1 * t)) + np.exp(-1j * (k2 * x - w2 * t))

        def residual(delta, center=1.0):
            times = [center - delta, center, center + delta]
            snaps = stacked(times, [psi(t) for t in times], [phibar(t) for t in times])
            return np.max(continuity_residuals(snaps, cfg))

        r4, r2, r1 = residual(0.4), residual(0.2), residual(0.1)
        assert r4 / r2 == pytest.approx(4.0, rel=0.4)
        assert r2 / r1 == pytest.approx(4.0, rel=0.4)
        # spatial floor: shrinking the interval further stops helping
        assert residual(0.003) >= r1 / 25.0


class TestSymmetry:
    @pytest.mark.parametrize("alpha", [0.1, 1.0, np.pi])
    def test_phase_rotation_invariance(self, alpha):
        cfg, V, psi0 = reference_setup()
        h = discretize(cfg, V)
        f0 = initial_state(biorthogonal_decompose(h), psi0)
        rotated = phase_rotated(f0, alpha)
        assert abs(hamiltonian_value(h, rotated) * cfg.dx
                   - hamiltonian_value(h, f0) * cfg.dx) <= 1e-12
        assert abs(lattice_charge(rotated, cfg.dx)
                   - lattice_charge(f0, cfg.dx)) <= 1e-12


class TestHermitianReduction:
    def test_real_potential_charge_is_norm(self):
        cfg = ContinuumConfig(L=20.0, N=32)
        x = cfg.grid()
        V = (0.5 * np.exp(-((x - 9.0) ** 2) / 4.0)).astype(complex)
        psi0 = gaussian_packet(x, center=11.0, width=1.5, momentum=0.5)
        h = discretize(cfg, V)
        f0 = initial_state(biorthogonal_decompose(h), psi0)
        assert_allclose(f0.phibar, psi0.conj(), atol=1e-10)
        q0 = lattice_charge(f0, cfg.dx)
        assert q0 == pytest.approx(1.0, abs=1e-10)
        snaps = rk4_trajectory(h, f0, dt=1e-3, steps=500, record_every=100)
        for s in snaps:
            assert abs(lattice_charge(s, cfg.dx) - q0) <= 1e-8
            norm = np.sum(np.abs(s.psi) ** 2) * cfg.dx
            assert norm == pytest.approx(1.0, abs=1e-8)


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuumConfig(L=10.0, N=4)
    with pytest.raises(ValueError):
        ContinuumConfig(L=-1.0, N=16)
