import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from biham.dynamics import conjugate_field, expand_state
from biham.errors import OutsideRealRegime, StepTooLarge, ZeroModalCoefficient
from biham.lorentzian import (
    LorentzianParams,
    SweepPath,
    initial_sweep_state,
    lorentzian_matrix,
    lorentzian_uv,
    sweep_adiabatic,
)
from biham.spectral import (
    biorthogonal_decompose,
    biorthonormality_residual,
    completeness_residual,
)

EPS = np.finfo(float).eps


def sample_real_regime(rng, strict_margin=0.95):
    """Random (x, y, z) strictly inside the real-spectrum region, both z signs."""
    z = rng.uniform(0.5, 3.0) * (1 if rng.random() < 0.5 else -1)
    radius = abs(z) * np.sqrt(rng.uniform(0.0, strict_margin))
    angle = rng.uniform(0, 2 * np.pi)
    return LorentzianParams(x=radius * np.cos(angle), y=radius * np.sin(angle), z=z)


def closed_form_system(p):
    """The closed-form pair and its BiorthogonalSystem (branch order +E, -E)."""
    pair = lorentzian_uv(p)
    return pair, pair.system()


class TestMatrix:
    def test_diagonal(self):
        assert_allclose(lorentzian_matrix(LorentzianParams(0, 0, 1)), np.diag([1.0, -1.0]))

    def test_antisymmetric(self):
        assert_allclose(lorentzian_matrix(LorentzianParams(1, 0, 0)), [[0, 1], [-1, 0]])

    def test_generic(self):
        assert_allclose(
            lorentzian_matrix(LorentzianParams(1, 2, 3)),
            [[3, 1 + 2j], [-1 + 2j, -3]],
        )


class TestClosedForms:
    def test_pure_z(self):
        pair = lorentzian_uv(LorentzianParams(0, 0, 1))
        assert pair.u == pytest.approx(-1.0)
        assert pair.v == pytest.approx(0.0)
        assert pair.E == pytest.approx(1.0)

    def test_reference_point(self):
        pair = lorentzian_uv(LorentzianParams(1, 0, 2))
        assert pair.E == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert abs(abs(pair.u) ** 2 - abs(pair.v) ** 2 - 1.0) <= 1e-12
        # eigen-residual pins (u, v) up to the sign convention; check both
        h = lorentzian_matrix(LorentzianParams(1, 0, 2))
        a1 = pair.right_vectors()[:, 0]
        assert np.linalg.norm(h @ a1 - pair.E * a1) <= 1e-10
        assert pair.u.real < 0 < pair.v.real

    def test_matches_independent_eigensolve(self):
        # oracle: numeric eigenvector of the sgn(z) branch (the positive-norm
        # mode), Bogoliubov-normalized and phase-rotated so u is real with
        # sign -sgn(z)
        rng = np.random.default_rng(50)
        for _ in range(25):
            p = sample_real_regime(rng)
            pair = lorentzian_uv(p)
            assert pair.E * p.z > 0
            evals, vecs = np.linalg.eig(lorentzian_matrix(p))
            idx = int(np.argmax(evals.real)) if p.z > 0 else int(np.argmin(evals.real))
            assert evals[idx].real == pytest.approx(pair.E, abs=1e-10)
            w = vecs[:, idx]
            norm_sq = abs(w[0]) ** 2 - abs(w[1]) ** 2
            assert norm_sq > 0
            w = w / np.sqrt(norm_sq)
            w = w * np.exp(-1j * np.angle(w[0]))  # u real positive
            if p.z > 0:
                w = -w
            assert_allclose([pair.u, pair.v], w, atol=1e-10)

    def test_boundary_rejected(self):
        with pytest.raises(OutsideRealRegime):
            lorentzian_uv(LorentzianParams(1, 0, 1))

    def test_complex_regime_rejected(self):
        with pytest.raises(OutsideRealRegime):
            lorentzian_uv(LorentzianParams(2, 0, 1))

    def test_zero_matrix_rejected(self):
        with pytest.raises(OutsideRealRegime):
            lorentzian_uv(LorentzianParams(0, 0, 0))

    def test_biorthonormal_and_complete(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            p = sample_real_regime(rng)
            pair, system = closed_form_system(p)
            assert abs(abs(pair.u) ** 2 - abs(pair.v) ** 2 - 1.0) <= 1e-12
            assert biorthonormality_residual(system) <= 1e-10
            assert completeness_residual(system) <= 1e-10

    def test_matches_generic_decomposition_up_to_gauge(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            p = sample_real_regime(rng)
            pair = lorentzian_uv(p)
            generic = biorthogonal_decompose(lorentzian_matrix(p))
            closed_evals = np.array([pair.E, -pair.E])
            assert_allclose(sorted(generic.eigenvalues.real), sorted(closed_evals), atol=1e-10)
            for mode in (0, 1):
                col = int(np.argmin(np.abs(generic.eigenvalues - closed_evals[mode])))
                a = pair.right_vectors()[:, mode]
                a = a / np.linalg.norm(a)
                k = np.argmax(np.abs(a) > 1e-9)
                a = a * np.exp(-1j * np.angle(a[k]))
                assert_allclose(generic.right[:, col], a, atol=1e-10)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(z=st.floats(0.5, 3.0), negative=st.booleans(), fraction=st.floats(0.0, 0.95),
       angle=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_system_is_the_decomposed_one(z, negative, fraction, angle, seed):
    # drawn as sample_real_regime draws.  Modes are matched by eigenvalue, as
    # test_acceptance.py::test_c06 does.  kappa = |u|^2 + |v|^2 = ||a_j|| ||b_j|| is each
    # eigenvalue's condition number, at most 4.5 here; 3000 draws of these kinds read
    # at most 3.9 eps kappa ||h|| on the eigenvalues and 1.5 eps kappa on the field's
    # terms, each c_j off by eps ||b_j|| ||psi||
    z = -z if negative else z
    radius = abs(z) * np.sqrt(fraction)
    p = LorentzianParams(x=radius * np.cos(angle), y=radius * np.sin(angle), z=z)
    pair = lorentzian_uv(p)
    closed = pair.system()
    generic = biorthogonal_decompose(lorentzian_matrix(p))
    perm = [int(np.argmin(np.abs(generic.eigenvalues - e))) for e in closed.eigenvalues]
    kappa = abs(pair.u) ** 2 + abs(pair.v) ** 2
    assert sorted(perm) == [0, 1]
    assert np.all(np.abs(generic.eigenvalues[perm] - closed.eigenvalues)
                  <= 16 * EPS * kappa * p.spectral_norm)

    rng = np.random.default_rng(seed)
    psi = pair.right_vectors() @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    csq = rng.uniform(0.2, 2.0, 2)
    c = np.abs(expand_state(closed, psi))
    terms = np.sum(csq * np.linalg.norm(closed.left, axis=0) ** 2 * np.linalg.norm(psi) / c ** 2)
    generic_csq = np.empty(2)
    generic_csq[perm] = csq
    gap = conjugate_field(closed, psi, csq) - conjugate_field(generic, psi, generic_csq)
    assert np.max(np.abs(gap)) <= 8 * EPS * kappa * terms


class TestConjugate:
    def test_single_mode(self):
        p = LorentzianParams(1.0, 0.0, 2.0)
        pair = lorentzian_uv(p)
        phibar = conjugate_field(pair.system(), pair.right_vectors()[:, 0], [1.0, 0.0])
        assert_allclose(phibar, pair.left_vectors()[:, 0].conj(), atol=1e-13)

    def test_matches_generic(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            p = sample_real_regime(rng)
            pair = lorentzian_uv(p)
            coeff = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = pair.right_vectors() @ coeff
            csq = np.array([rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)])
            closed = conjugate_field(pair.system(), psi, csq)
            generic_sys = biorthogonal_decompose(lorentzian_matrix(p))
            # permute csq into the generic (ascending-eigenvalue) mode order
            closed_evals = np.array([pair.E, -pair.E])
            perm = [int(np.argmin(np.abs(closed_evals - e))) for e in generic_sys.eigenvalues]
            generic = conjugate_field(generic_sys, psi, csq[perm])
            assert_allclose(closed, generic, atol=1e-12)

    def test_missing_mode(self):
        p = LorentzianParams(1.0, 0.0, 2.0)
        pair = lorentzian_uv(p)
        psi = pair.right_vectors()[:, 1]  # no component along mode 1
        with pytest.raises(ZeroModalCoefficient):
            conjugate_field(pair.system(), psi, [1.0, 0.0])


class TestSweep:
    def test_constant_path_conserves_actions(self):
        path = SweepPath((1.0, 0.0, 3.0), (1.0, 0.0, 3.0), T=20.0)
        st = initial_sweep_state(path, [1.0, 1.0])
        rec = sweep_adiabatic(path, st, dt=0.0025)
        assert np.max(rec.deviations) <= 1e-10

    def test_reference_path_deviation_small(self):
        path = SweepPath((1.0, 0.0, 3.0), (1.0, 0.0, 5.0), T=100.0)
        st = initial_sweep_state(path, [1.0, 0.0])
        rec = sweep_adiabatic(path, st, dt=0.0025)
        assert np.max(rec.deviations) <= 0.05

    def test_slower_sweep_improves(self):
        # adiabatic scaling: the largest deviation falls as 1/T^2, about fourfold per
        # doubling of T on these paths (3.8-4.3 measured); threefold is required.  The
        # first is the fixture's path, the last has z < 0
        for start, end in [((1.0, 0.0, 3.0), (1.0, 0.0, 5.0)),
                           ((1.0, 0.0, 3.0), (0.5, 0.5, 4.0)),
                           ((0.3, -0.2, -2.0), (0.8, 0.1, -3.5))]:
            devs = []
            for T in (25.0, 50.0, 100.0, 200.0):
                path = SweepPath(start, end, T=T)
                st = initial_sweep_state(path, [1.0, 0.0])
                devs.append(np.max(sweep_adiabatic(path, st, dt=0.0025).deviations))
            for slow, fast in zip(devs[1:], devs):
                assert 3.0 * slow <= fast, (start, end, devs)

    def test_overlap_conserved_during_sweep(self):
        path = SweepPath((1.0, 0.0, 3.0), (0.5, 0.5, 4.0), T=30.0)
        st = initial_sweep_state(path, [1.0, 0.5])
        rec = sweep_adiabatic(path, st, dt=0.0025)
        assert np.max(np.abs(rec.overlaps - rec.overlaps[0])) <= 1e-9

    def test_regime_exit_rejected(self):
        path = SweepPath((1.0, 0.0, 2.0), (2.0, 0.0, 1.0), T=10.0)
        st = initial_sweep_state(path, [1.0, 0.0])
        with pytest.raises(OutsideRealRegime):
            sweep_adiabatic(path, st, dt=0.01)

    def test_regime_guard_can_be_disabled(self):
        # it cannot: the actions are invariants only inside the regime, so every
        # sweep that leaves it is refused before it steps
        path = SweepPath((0.5, 0.0, 2.0), (1.1, 0.0, 1.0), T=5.0, samples=11)
        st = initial_sweep_state(path, [1.0, 0.0])
        with pytest.raises(OutsideRealRegime):
            sweep_adiabatic(path, st, dt=0.01)

    def test_step_guard_along_path(self):
        path = SweepPath((1.0, 0.0, 30.0), (1.0, 0.0, 40.0), T=10.0)
        st = initial_sweep_state(path, [1.0, 0.0])
        with pytest.raises(StepTooLarge):
            sweep_adiabatic(path, st, dt=0.05)


def test_params_regime_predicate():
    assert LorentzianParams(1, 0, 2).scaled_discriminant > 0.0
    assert LorentzianParams(1, 0, 1).scaled_discriminant == 0.0  # boundary: real (degenerate)
    assert LorentzianParams(2, 0, 1).scaled_discriminant < 0.0


# ---------------------------------------------------------------------------
# scale-free closed forms: scaled parameters at the ends of the float range,
# the bits of the plain formulas at ordinary scales


def test_regime_predicate_at_the_ends_of_the_float_range():
    # z^2 overflows past |z| = 1.3e154 and underflows below |z| = 1e-162
    for scale in (1e155, 1e300, 1e-170, 5e-324 * 2 ** 40):
        assert LorentzianParams(scale, 0, 2 * scale).scaled_discriminant > 0.0
        assert LorentzianParams(scale, 0, scale).scaled_discriminant == 0.0  # boundary
        assert LorentzianParams(2 * scale, 0, scale).scaled_discriminant < 0.0


def plain_uv(p):
    """The closed forms on the unscaled parameters: (u, v, E)."""
    disc = p.z * p.z - p.x * p.x - p.y * p.y
    root = math.sqrt(disc)
    az = abs(p.z)
    denom = math.sqrt((az + root) ** 2 - p.x * p.x - p.y * p.y)
    sign = 1.0 if p.z > 0 else -1.0
    return complex(-sign * (root + az) / denom), complex((p.x - 1j * p.y) / denom), sign * root


def uv_bits(u, v, E):
    return np.array([u, v], dtype=complex).tobytes() + np.float64(E).tobytes()


def test_closed_forms_keep_the_plain_bits_at_ordinary_scales():
    rng = np.random.default_rng(17)
    for k in range(3000):
        z = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-100.0, 100.0))
        # a third of the draws lie close to the exceptional surface
        ratio = 1.0 - 10.0 ** rng.uniform(-15.0, -1.0) if k % 3 == 0 else rng.uniform(0.0, 1.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        x, y = float(abs(z) * ratio * np.cos(angle)), float(abs(z) * ratio * np.sin(angle))
        if k % 7 == 0:  # on the z axis, with signed zeros
            x, y = float(rng.choice([0.0, -0.0])), float(rng.choice([0.0, -0.0]))
        p = LorentzianParams(x, y, z)
        pair = lorentzian_uv(p)
        assert uv_bits(pair.u, pair.v, pair.E) == uv_bits(*plain_uv(p))


@pytest.mark.parametrize("power", [512, 1000, -560, -1000])
def test_closed_forms_scaled_by_a_power_of_two(power):
    # (u, v) do not depend on the scale, and E scales with it, where the plain
    # formulas overflow or underflow
    unit = math.ldexp(1.0, power)
    p = LorentzianParams(0.4, -0.3, 0.9)
    want, got = lorentzian_uv(p), lorentzian_uv(LorentzianParams(0.4 * unit, -0.3 * unit,
                                                                 0.9 * unit))
    assert uv_bits(got.u, got.v, got.E) == uv_bits(want.u, want.v, want.E * unit)
    with pytest.raises(OutsideRealRegime):
        lorentzian_uv(LorentzianParams(0.9 * unit, -0.3 * unit, 0.4 * unit))


@pytest.mark.parametrize("power", [512, -560])
def test_sweep_scaled_by_a_power_of_two_scales_only_the_actions(power):
    # h / hbar is unchanged, so the state steps with the same bits; the actions
    # hbar * cbar * c scale with hbar, and the deviations, relative to them, do not;
    # z in [0.5, 1) is the largest magnitude all along, so both scales evaluate
    # the closed forms on the same numbers
    unit = math.ldexp(1.0, power)
    start, end = (0.4, -0.3, 0.9), (0.1, 0.2, 0.6)
    records = []
    for scale in (1.0, unit):
        path = SweepPath(tuple(c * scale for c in start), tuple(c * scale for c in end),
                         T=5.0, samples=11)
        records.append(sweep_adiabatic(path, initial_sweep_state(path, [1.0, 0.4], 0.8 * scale),
                                       dt=0.01))
    want, got = records
    assert got.times.tobytes() == want.times.tobytes()
    assert got.overlaps.tobytes() == want.overlaps.tobytes()
    assert got.actions.tobytes() == (want.actions * unit).tobytes()
    assert got.deviations.tobytes() == want.deviations.tobytes()


def test_sweep_deviations_do_not_depend_on_the_scale_of_csq():
    # a mode is absent relative to the total action: csq of 1e-13 and 3e-14 gave
    # absolute deviations of 4.7e-17, as if the sweep were perfectly adiabatic
    path = SweepPath((1.0, 0.0, 3.0), (1.0, 0.0, 5.0), T=100.0, samples=201)
    want, got = (sweep_adiabatic(path, initial_sweep_state(path, csq), dt=0.0025).deviations
                 for csq in ([1.0, 0.3], [1e-13, 3e-14]))
    assert np.min(want[1:]) > 1e-5
    assert_allclose(got, want, rtol=1e-9, atol=0)
