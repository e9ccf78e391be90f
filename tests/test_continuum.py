import numpy as np
import pytest
from numpy.testing import assert_allclose

from biham.continuum import (
    ContinuumConfig,
    LatticeField,
    complex_gaussian_potential,
    continuity_residual,
    discretize,
    evolve_lattice,
    gaussian_packet,
    hamiltonian_density_sum,
    initial_lattice_state,
    lattice_charge,
    lattice_current,
    phase_rotated,
    plane_wave,
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
        field = LatticeField(psi=psi0, phibar=psi0.conj(), V=np.zeros(cfg.N))
        assert lattice_charge(field, cfg.dx) == pytest.approx(1.0, abs=1e-12)

    def test_zero_state(self):
        cfg = ContinuumConfig(L=8.0, N=8)
        field = LatticeField(psi=np.zeros(8), phibar=np.zeros(8), V=np.zeros(8))
        assert lattice_charge(field, cfg.dx) == 0

    def test_conserved_under_evolution(self):
        cfg, V, psi0 = reference_setup()
        f0 = initial_lattice_state(cfg, V, psi0)
        q0 = lattice_charge(f0, cfg.dx)
        snaps = evolve_lattice(cfg, f0, dt=1e-3, steps=1000, record_every=100)
        drift = max(abs(lattice_charge(s, cfg.dx) - q0) for s in snaps)
        assert drift <= 1e-8

    def test_conserved_under_exact_evolution(self):
        cfg, V, psi0 = reference_setup(N=32)
        f0 = initial_lattice_state(cfg, V, psi0)
        q0 = lattice_charge(f0, cfg.dx)
        h = discretize(cfg, V)
        system = biorthogonal_decompose(h)
        from biham.dynamics import StatePair, evolve_exact
        st = StatePair(psi=f0.psi, phibar=f0.phibar)
        for t in (0.5, 2.0, 7.0):
            s = evolve_exact(system, st, t)
            field = LatticeField(psi=s.psi, phibar=s.phibar, V=V, t=t)
            assert abs(lattice_charge(field, cfg.dx) - q0) <= 1e-12

    def test_drift_scales_with_dt(self):
        cfg, V, psi0 = reference_setup()
        f0 = initial_lattice_state(cfg, V, psi0)
        q0 = lattice_charge(f0, cfg.dx)

        def drift(dt):
            snaps = evolve_lattice(cfg, f0, dt=dt, steps=round(1.0 / dt), record_every=20)
            return max(abs(lattice_charge(s, cfg.dx) - q0) for s in snaps)

        assert drift(0.005) <= drift(0.01) / 8.0


class TestCurrent:
    def test_constant_fields_zero(self):
        cfg = ContinuumConfig(L=8.0, N=8)
        field = LatticeField(psi=np.ones(8), phibar=np.ones(8), V=np.zeros(8))
        assert np.max(np.abs(lattice_current(field, cfg))) == 0

    def test_plane_wave_value(self):
        cfg = ContinuumConfig(L=8.0, N=16)
        psi = plane_wave(cfg, 1)
        field = LatticeField(psi=psi, phibar=psi.conj(), V=np.zeros(16))
        j = lattice_current(field, cfg)
        k = 2 * np.pi / cfg.L
        expected = -cfg.hbar * np.sin(k * cfg.dx) / (cfg.m * cfg.dx)
        assert np.max(np.abs(j.imag)) <= 1e-14
        assert_allclose(j.real, np.full(16, expected), atol=1e-12)

    def test_hermitian_case_matches_textbook_form(self):
        cfg, _, psi0 = reference_setup(N=32)
        psi = psi0 * np.exp(1j * 0.7 * cfg.grid())
        field = LatticeField(psi=psi, phibar=psi.conj(), V=np.zeros(32))
        j = lattice_current(field, cfg)
        grad = (np.roll(psi, -1) - np.roll(psi, 1)) / (2 * cfg.dx)
        textbook = (1j * cfg.hbar / (2 * cfg.m)) * (psi.conj() * grad - psi * grad.conj())
        assert_allclose(j, textbook, atol=1e-14)


class TestContinuity:
    def test_needs_three_snapshots(self):
        cfg, V, psi0 = reference_setup(N=16)
        f0 = initial_lattice_state(cfg, V, psi0)
        with pytest.raises(InsufficientSnapshots):
            continuity_residual([f0, f0], cfg)

    def test_uneven_spacing_rejected(self):
        cfg, V, psi0 = reference_setup(N=16)
        f0 = initial_lattice_state(cfg, V, psi0)
        f1 = LatticeField(psi=f0.psi, phibar=f0.phibar, V=f0.V, t=0.1)
        f2 = LatticeField(psi=f0.psi, phibar=f0.phibar, V=f0.V, t=0.3)
        with pytest.raises(ValueError):
            continuity_residual([f0, f1, f2], cfg)

    def test_overflowing_density_gives_nan(self):
        # phibar psi = 1e400 at every site: the time difference is inf - inf
        cfg = ContinuumConfig(L=10.0, N=8)
        big = np.full(8, 1e200)
        snaps = [LatticeField(psi=big, phibar=big, V=np.zeros(8), t=t) for t in (0.0, 0.1, 0.2)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(continuity_residual(snaps, cfg))

    def test_stationary_hermitian_eigenmode(self):
        cfg = ContinuumConfig(L=10.0, N=32)
        x = cfg.grid()
        V = 2.0 * np.exp(-((x - 5.0) ** 2))  # real potential
        h = discretize(cfg, V.astype(complex))
        system = biorthogonal_decompose(h)
        mode = system.right[:, 0]  # nondegenerate ground mode
        snaps = []
        for k, t in enumerate((0.0, 0.01, 0.02)):
            phase = np.exp(-1j * system.eigenvalues[0].real * t)
            snaps.append(LatticeField(psi=mode * phase, phibar=mode.conj() / phase, V=V, t=t))
        assert continuity_residual(snaps, cfg) <= 1e-10

    def test_second_order_in_dx(self):
        def residual(N):
            cfg, V, psi0 = reference_setup(N=N)
            f0 = initial_lattice_state(cfg, V, psi0)
            snaps = evolve_lattice(cfg, f0, dt=2.5e-4, steps=8, record_every=2)
            return continuity_residual(snaps, cfg)

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
        V = np.zeros(cfg.N, dtype=complex)

        def snapshot(t):
            psi = np.exp(1j * (k1 * x - w1 * t)) + np.exp(1j * (k2 * x - w2 * t))
            phibar = np.exp(-1j * (k1 * x - w1 * t)) + np.exp(-1j * (k2 * x - w2 * t))
            return LatticeField(psi=psi, phibar=phibar, V=V, t=t)

        def residual(delta, center=1.0):
            fields = [snapshot(center - delta), snapshot(center), snapshot(center + delta)]
            return continuity_residual(fields, cfg)

        r4, r2, r1 = residual(0.4), residual(0.2), residual(0.1)
        assert r4 / r2 == pytest.approx(4.0, rel=0.4)
        assert r2 / r1 == pytest.approx(4.0, rel=0.4)
        # spatial floor: shrinking the interval further stops helping
        assert residual(0.003) >= r1 / 25.0


class TestSymmetry:
    @pytest.mark.parametrize("alpha", [0.1, 1.0, np.pi])
    def test_phase_rotation_invariance(self, alpha):
        cfg, V, psi0 = reference_setup()
        f0 = initial_lattice_state(cfg, V, psi0)
        rotated = phase_rotated(f0, alpha)
        assert abs(hamiltonian_density_sum(rotated, cfg)
                   - hamiltonian_density_sum(f0, cfg)) <= 1e-12
        assert abs(lattice_charge(rotated, cfg.dx)
                   - lattice_charge(f0, cfg.dx)) <= 1e-12


class TestHermitianReduction:
    def test_real_potential_charge_is_norm(self):
        cfg = ContinuumConfig(L=20.0, N=32)
        x = cfg.grid()
        V = (0.5 * np.exp(-((x - 9.0) ** 2) / 4.0)).astype(complex)
        psi0 = gaussian_packet(x, center=11.0, width=1.5, momentum=0.5)
        f0 = initial_lattice_state(cfg, V, psi0)
        assert_allclose(f0.phibar, psi0.conj(), atol=1e-10)
        q0 = lattice_charge(f0, cfg.dx)
        assert q0 == pytest.approx(1.0, abs=1e-10)
        snaps = evolve_lattice(cfg, f0, dt=1e-3, steps=500, record_every=100)
        for s in snaps:
            assert abs(lattice_charge(s, cfg.dx) - q0) <= 1e-8
            norm = np.sum(np.abs(s.psi) ** 2) * cfg.dx
            assert norm == pytest.approx(1.0, abs=1e-8)


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuumConfig(L=10.0, N=4)
    with pytest.raises(ValueError):
        ContinuumConfig(L=-1.0, N=16)
