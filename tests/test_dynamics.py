import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from biham import continuum
from biham.continuum import ContinuumConfig
from biham.dynamics import (
    ModalCoordinates,
    StatePair,
    Trajectory,
    _step_maps,
    check_step,
    conjugate_field,
    exact_records,
    expand_state,
    initial_state,
    overlap,
    record_count,
    record_steps,
    right_norm,
    rk4_trajectory,
)
from biham.errors import NonFinite, StepTooLarge, ZeroModalCoefficient
from biham.lorentzian import (
    LorentzianParams,
    SweepPath,
    check_sweep_step,
    lorentzian_matrix,
    lorentzian_uv,
)
from biham.spectral import biorthogonal_decompose

from helpers import random_diagonalizable, random_hermitian, random_state, random_unitary


def _conjugate_pair(psi):
    return StatePair(psi=psi, phibar=np.conj(psi))


class TestExpandState:
    def test_single_mode(self):
        sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
        c = expand_state(sys2, sys2.right[:, 0])
        assert_allclose(c, [1.0, 0.0], atol=1e-14)

    def test_linearity(self):
        sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
        psi = sys2.right[:, 0] + 2.0 * sys2.right[:, 1]
        assert_allclose(expand_state(sys2, psi), [1.0, 2.0], atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(21)
        h, _, _ = random_diagonalizable(rng, 5)
        sys5 = biorthogonal_decompose(h)
        psi = random_state(rng, 5)
        c = expand_state(sys5, psi)
        assert np.linalg.norm(sys5.right @ c - psi) <= 1e-10


class TestConjugateField:
    def test_single_mode(self):
        sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
        phibar = conjugate_field(sys2, sys2.right[:, 0], [1.0, 0.0])
        assert_allclose(phibar, sys2.left[:, 0].conj(), atol=1e-14)

    def test_scaling(self):
        sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
        phibar = conjugate_field(sys2, 2.0 * sys2.right[:, 0], [1.0, 0.0])
        assert_allclose(phibar, sys2.left[:, 0].conj() / 2.0, atol=1e-14)

    def test_matches_two_level_closed_form(self):
        p = LorentzianParams(1.0, 0.0, 2.0)
        pair = lorentzian_uv(p)
        psi = pair.right_vectors() @ np.ones(2)
        sys2 = biorthogonal_decompose(lorentzian_matrix(p))
        phibar = conjugate_field(sys2, psi, [1.0, 1.0])
        u, v = pair.u, pair.v
        d1 = np.conj(u) * psi[0] - np.conj(v) * psi[1]
        d2 = -v * psi[0] + u * psi[1]
        expected = np.array([np.conj(u) / d1 - v / d2, -np.conj(v) / d1 + u / d2])
        assert_allclose(phibar, expected, atol=1e-12)

    def test_missing_mode_rejected(self):
        sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
        with pytest.raises(ZeroModalCoefficient):
            conjugate_field(sys2, sys2.right[:, 0], [0.0, 1.0])

    def test_absent_modes_skipped(self):
        sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
        phibar = conjugate_field(sys2, sys2.right[:, 1], [0.0, 3.0])
        assert overlap(StatePair(psi=sys2.right[:, 1], phibar=phibar)) == pytest.approx(3.0)

    @pytest.mark.parametrize("csq", [None, [1.0, 1.0]])
    def test_overflowing_coefficient_is_non_finite(self, csq):
        # c = (-psi_2, sqrt(2) psi_2): the second passes the float range, and against
        # its infinite sum the first would read as absent too, giving phibar = 0
        sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
        with pytest.raises(NonFinite, match="modal coefficients of psi overflow"):
            conjugate_field(sys2, np.array([0.0, 1.5e308]), csq)

    def test_default_constants(self):
        rng = np.random.default_rng(3)
        h, _, _ = random_diagonalizable(rng, 4)
        sys4 = biorthogonal_decompose(h)
        psi = sys4.right[:, 1]
        # the default constants, read back as the modal products cbar_j c_j of the pair
        phibar = conjugate_field(sys4, psi)
        csq = np.real((phibar @ sys4.right) * expand_state(sys4, psi))
        assert csq[1] == pytest.approx(1.0)
        assert np.all(csq[[0, 2, 3]] <= 1e-20)


class TestEvolveExact:
    def test_zero_duration_identity(self):
        rng = np.random.default_rng(2)
        h, _, _ = random_diagonalizable(rng, 3)
        sys3 = biorthogonal_decompose(h)
        st = StatePair(psi=random_state(rng, 3), phibar=random_state(rng, 3))
        out = exact_records(sys3, st, [0.0])[0]
        assert_allclose(out.psi, st.psi, atol=1e-14)
        assert_allclose(out.phibar, st.phibar, atol=1e-14)

    def test_phase_flip(self):
        sys2 = biorthogonal_decompose(np.diag([1.0, -1.0]))
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        st = _conjugate_pair(psi0)
        out = exact_records(sys2, st, [np.pi])[0]
        assert_allclose(out.psi, -psi0, atol=1e-12)
        assert overlap(out) == pytest.approx(1.0, abs=1e-12)

    def test_real_spectrum_magnitudes_constant(self):
        p = LorentzianParams(1.0, 0.0, 2.0)
        sys2 = biorthogonal_decompose(lorentzian_matrix(p))
        psi0 = sys2.right @ np.array([0.7, 0.4 + 0.2j])
        phibar0 = conjugate_field(sys2, psi0, np.abs(expand_state(sys2, psi0)) ** 2)
        st = StatePair(psi=psi0, phibar=phibar0)
        c0 = np.abs(expand_state(sys2, st.psi))
        for out in exact_records(sys2, st, [0.5, 2.0, 9.0]):
            ct = np.abs(expand_state(sys2, out.psi))
            assert_allclose(ct, c0, atol=1e-10)

    def test_overlap_and_modal_products_conserved(self):
        rng = np.random.default_rng(14)
        h, _, _ = random_diagonalizable(rng, 6)
        sys6 = biorthogonal_decompose(h)
        st = StatePair(psi=random_state(rng, 6), phibar=random_state(rng, 6))
        q0 = overlap(st)
        m0 = ModalCoordinates.from_state(sys6, st)
        for out in exact_records(sys6, st, [0.3, 1.7, 5.0]):
            assert abs(overlap(out) - q0) <= 1e-12 * max(1.0, abs(q0))
            mt = ModalCoordinates.from_state(sys6, out)
            assert_allclose(mt.cbar * mt.c, m0.cbar * m0.c, atol=1e-12)


class TestExactRecords:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_rows_are_the_one_row_propagation(self, n):
        # each row against the propagation of its own duration, written out; an
        # int64 view tells signed zeros and nan payloads apart
        rng = np.random.default_rng(100 + n)
        h = random_hermitian(rng, n) if n % 2 else random_diagonalizable(rng, n)[0]
        system = biorthogonal_decompose(h)
        hbar = float(rng.uniform(0.3, 2.0))
        st = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n),
                       t=float(rng.uniform(0.0, 1.0)), hbar=hbar)
        durations = np.arange(int(rng.integers(1, 30))) * float(rng.uniform(1e-3, 0.2))
        records = exact_records(system, st, durations)
        psi, phibar = records.psi, records.phibar

        c0 = system.left.conj().T @ st.psi
        cbar0 = st.phibar @ system.right
        for k, t in enumerate(durations.tolist()):
            phase = np.exp(-1j * system.eigenvalues * t / hbar)
            want_psi = system.right @ (c0 * phase)
            want_phibar = system.left.conj() @ (cbar0 / phase)
            assert np.array_equal(psi[k].view(np.int64), want_psi.view(np.int64))
            assert np.array_equal(phibar[k].view(np.int64), want_phibar.view(np.int64))
            one = exact_records(system, st, [t])[0]
            assert one.t == st.t + t
            assert one.psi.tobytes() == psi[k].tobytes()
            assert one.phibar.tobytes() == phibar[k].tobytes()

    def test_first_overflowing_duration_is_reported(self):
        system = biorthogonal_decompose(np.diag([5j, -5j]))
        st = StatePair(psi=np.array([1.0, 1.0]), phibar=np.array([1.0, 1.0]), t=0.5)
        psi = exact_records(system, st, [0.0, 100.0]).psi
        assert np.all(np.isfinite(psi))
        with pytest.raises(NonFinite) as one:
            exact_records(system, st, [200.0])
        with pytest.raises(NonFinite) as stacked:
            exact_records(system, st, [0.0, 100.0, 200.0, 300.0])
        assert str(stacked.value) == str(one.value) == "state overflowed by t=200.5"


class TestEvolveRk4:
    def test_matches_exact_propagator(self):
        rng = np.random.default_rng(4)
        h, _, _ = random_diagonalizable(rng, 4)
        sys4 = biorthogonal_decompose(h)
        st = StatePair(psi=random_state(rng, 4), phibar=random_state(rng, 4))
        end = rk4_trajectory(h, st, dt=1e-3, steps=1000, record_every=1000)[-1]
        ref = exact_records(sys4, st, [1.0])[0]
        assert np.linalg.norm(end.psi - ref.psi) <= 1e-6
        assert np.linalg.norm(end.phibar - ref.phibar) <= 1e-6

    def test_overlap_drift_fourth_order(self):
        rng = np.random.default_rng(9)
        h, _, _ = random_diagonalizable(rng, 4, scale=0.5)
        h /= np.linalg.norm(h, 2)
        st = StatePair(psi=random_state(rng, 4), phibar=random_state(rng, 4))
        q0 = overlap(st)

        def drift(dt):
            worst = 0.0
            for s in rk4_trajectory(h, st, dt=dt, steps=round(10.0 / dt), record_every=25):
                worst = max(worst, abs(overlap(s) - q0))
            return worst

        coarse, fine = drift(0.1), drift(0.05)
        assert fine <= coarse / 8.0

    def test_hermitian_reduction(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 4)
        st = _conjugate_pair(random_state(rng, 4))
        for s in rk4_trajectory(h, st, dt=0.01, steps=1000, record_every=100):
            assert np.max(np.abs(s.phibar - np.conj(s.psi))) <= 1e-8
            assert abs(right_norm(s) - 1.0) <= 1e-8

    def test_step_guard(self):
        h = np.diag([5.0, -5.0])
        st = _conjugate_pair(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(StepTooLarge):
            rk4_trajectory(h, st, dt=0.2, steps=10, record_every=10)

    def test_growing_mode_overflows_to_nonfinite(self):
        # complex spectrum +-i*sqrt(3): one mode grows like exp(sqrt(3) t)
        h = lorentzian_matrix(LorentzianParams(2.0, 0.0, 1.0))
        st = _conjugate_pair(np.array([1.0, 0.5], dtype=complex))
        with pytest.raises(NonFinite):
            rk4_trajectory(h, st, dt=0.1, steps=5000, record_every=5000)

    def test_complex_spectrum_norm_not_constant(self):
        h = lorentzian_matrix(LorentzianParams(2.0, 0.0, 1.0))
        st = _conjugate_pair(np.array([1.0, 0.5], dtype=complex))
        traj = rk4_trajectory(h, st, dt=0.01, steps=300, record_every=300)
        assert abs(right_norm(traj[-1]) - right_norm(traj[0])) > 1e-2


class TestStackedRecords:
    @pytest.mark.parametrize("steps, record_every", [(50, 1), (1001, 250), (37, 100)])
    def test_rows_are_the_per_record_values(self, steps, record_every):
        # each record taken one interval at a time from the same step maps, as its own
        # StatePair: the stacked rows carry the same bits
        rng = np.random.default_rng(steps)
        h, _, _ = random_diagonalizable(rng, 6, imag_scale=1e-3)
        dt, hbar = 0.3 / np.linalg.norm(h, 2), 0.8
        st = StatePair(psi=random_state(rng, 6), phibar=random_state(rng, 6), t=0.5, hbar=hbar)
        traj = rk4_trajectory(h, st, dt, steps, record_every=record_every)

        _, _, powers = _step_maps(h, dt, hbar, steps, record_every)
        want, k = [st], 0
        while k < steps:
            m = min(record_every, steps - k)
            e_psi, e_phibar = powers[m]
            prev = want[-1]
            k += m
            want.append(StatePair(psi=prev.psi + e_psi @ prev.psi,
                                  phibar=prev.phibar + prev.phibar @ e_phibar,
                                  t=st.t + k * dt, hbar=hbar))

        assert isinstance(traj, Trajectory) and len(traj) == len(want)
        assert traj.t.tobytes() == np.array([s.t for s in want]).tobytes()
        assert traj.psi.tobytes() == np.array([s.psi for s in want]).tobytes()
        assert traj.phibar.tobytes() == np.array([s.phibar for s in want]).tobytes()
        for k, (got, s) in enumerate(zip(traj, want)):
            assert got.t == s.t and got.hbar == hbar
            assert np.shares_memory(got.psi, traj.psi[k])
            assert got.psi.tobytes() == s.psi.tobytes()
            assert got.phibar.tobytes() == s.phibar.tobytes()
        assert traj[-1].psi.tobytes() == want[-1].psi.tobytes()
        assert [s.t for s in traj[1::2]] == [s.t for s in want[1::2]]

    def test_records_are_read_only(self):
        rng = np.random.default_rng(2)
        h, _, _ = random_diagonalizable(rng, 3)
        st = StatePair(psi=random_state(rng, 3), phibar=random_state(rng, 3))
        traj = rk4_trajectory(h, st, 0.1 / np.linalg.norm(h, 2), 20, record_every=5)
        for rows in (traj, traj[1:]):
            for a in (rows.t, rows.psi, rows.phibar, rows[0].psi, rows[0].phibar):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0


def per_row_overflow(state0, maps, steps, record_every):
    """``(step, psi finite, phibar finite)`` at the first recorded step whose state overflows.

    The reference checks the state after every recorded interval, stepping an
    interval without a power one step at a time to its end.
    """
    delta_psi, delta_phibar, powers = maps
    psi, phibar = state0.psi, state0.phibar
    ends = [*range(0, steps, record_every), steps]
    with np.errstate(over="ignore", invalid="ignore"):
        for start, k in zip(ends, ends[1:]):
            if powers[k - start] is None:
                for _ in range(k - start):
                    psi = psi + delta_psi @ psi
                    phibar = phibar + phibar @ delta_phibar
            else:
                e_psi, e_phibar = powers[k - start]
                psi, phibar = psi + e_psi @ psi, phibar + phibar @ e_phibar
            psi_ok, phibar_ok = bool(np.isfinite(psi).all()), bool(np.isfinite(phibar).all())
            if not (psi_ok and phibar_ok):
                return k, psi_ok, phibar_ok
    return None


class TestStackedFiniteCheck:
    """The recorded rows are checked for overflow together, after the steps.

    The state starts near the float limit and a mode grows by ``exp(0.1)`` a
    step, so it overflows near step 190.  An interval whose power is dropped,
    as an overflowing one is, is stepped singly.
    """

    @pytest.mark.parametrize("grows, steps, record_every, stepped, step", [
        ("both", 400, 30, (), 210),        # powered throughout, overflowing partway
        ("psi", 200, 180, (20,), 200),     # a powered interval, then a stepped last one
        ("psi", 230, 100, (100,), 200),    # stepped intervals, then a powered last one
        ("psi", 400, 30, (), 210),         # psi alone overflows
        ("phibar", 400, 30, (), 210),      # phibar alone overflows
    ])
    def test_names_the_step_a_per_row_check_names(self, grows, steps, record_every, stepped,
                                                  step):
        rng = np.random.default_rng(steps + record_every)
        dt = 0.1
        if grows == "both":  # psi grows along one mode, phibar along another
            u = random_unitary(rng, 3)
            h = u @ np.diag([1j, -1j, 0.3]) @ u.conj().T
        else:  # -i h = diag(1, .5, .5): psi grows and phibar decays; -i h = -diag: the reverse
            h = (1j if grows == "psi" else -1j) * np.diag([1.0, 0.5, 0.5]).astype(complex)
        st = StatePair(psi=1e300 * random_state(rng, 3), phibar=1e300 * random_state(rng, 3),
                       t=0.25)
        delta_psi, delta_phibar, powers = _step_maps(h, dt, 1.0, steps, record_every)
        assert set(stepped) < set(powers) and None not in powers.values()
        maps = delta_psi, delta_phibar, {m: None if m in stepped else power
                                         for m, power in powers.items()}

        k, psi_ok, phibar_ok = per_row_overflow(st, maps, steps, record_every)
        assert k == step
        assert (psi_ok, phibar_ok) == {"both": (False, False), "psi": (False, True),
                                       "phibar": (True, False)}[grows]
        with pytest.raises(NonFinite) as exc:
            rk4_trajectory(h, st, dt, steps, record_every=record_every, _maps=maps)
        assert str(exc.value) == f"state overflowed by step {k} (t={st.t + k * dt:.6g})"


class TestObservables:
    def test_overlap_of_conjugate_pair_is_norm(self):
        psi = np.array([0.6, 0.8j])
        assert overlap(_conjugate_pair(psi)) == pytest.approx(1.0)

    def test_overlap_biorthogonality(self):
        sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
        st = StatePair(psi=sys2.right[:, 0], phibar=sys2.left[:, 1].conj())
        assert abs(overlap(st)) <= 1e-14

    def test_right_norm(self):
        assert right_norm(_conjugate_pair(np.array([1.0, 0.0]))) == pytest.approx(1.0)


def _rk4_records(n):
    rng = np.random.default_rng(300 + n)
    h = random_diagonalizable(rng, n)[0]
    st = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n), hbar=0.7)
    return rk4_trajectory(h, st, 0.01, 500, record_every=7), 0.25


def _exact_records(n):
    rng = np.random.default_rng(400 + n)
    system = biorthogonal_decompose(random_diagonalizable(rng, n)[0])
    st = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n), t=0.3)
    return exact_records(system, st, np.arange(40) * 0.05), 0.5


def _lattice_records(n):
    config = ContinuumConfig(L=10.0, N=n)
    x = config.grid()
    V = continuum.complex_gaussian_potential(x, 4.0, 1.0, 0.6 - 0.2j)
    h = continuum.discretize(config, V)
    st = initial_state(biorthogonal_decompose(h), continuum.gaussian_packet(x, 6.0, 1.0, 1.5))
    return rk4_trajectory(h, st, 1e-3, 300, record_every=9), config.dx


@pytest.mark.parametrize("records, n", [
    (_rk4_records, 1), (_rk4_records, 8), (_exact_records, 1), (_exact_records, 8),
    (_lattice_records, 8), (_lattice_records, 64),  # a lattice has at least 8 sites
], ids=["rk4-1", "rk4-8", "exact-1", "exact-8", "lattice-8", "lattice-64"])
def test_conserved_columns_of_a_trajectory_are_those_of_its_records(records, n):
    # one value per record, each with the bits of that record's own; the reductions
    # written out per record are the reference too
    traj, dx = records(n)
    columns = overlap(traj), right_norm(traj), continuum.lattice_charge(traj, dx)
    for column in columns:
        assert column.shape == (len(traj),)
    for k, state in enumerate(traj):
        own = overlap(state), right_norm(state), continuum.lattice_charge(state, dx)
        for column, value in zip(columns, own):
            assert column[k].tobytes() == np.asarray(value).tobytes()
        assert own[0].tobytes() == np.sum(state.phibar * state.psi).tobytes()
        assert own[1].tobytes() == np.vdot(state.psi, state.psi).real.tobytes()
        assert own[2].tobytes() == (np.sum(state.phibar * state.psi) * dx).tobytes()


def test_state_pair_validation():
    with pytest.raises(ValueError):
        StatePair(psi=np.ones(3), phibar=np.ones(2))
    with pytest.raises(ValueError):
        StatePair(psi=np.array([np.nan, 0.0]), phibar=np.ones(2))
    with pytest.raises(ValueError):
        StatePair(psi=np.ones(2), phibar=np.ones(2), hbar=0.0)


def test_state_pair_copies_a_writeable_input():
    psi, phibar = np.array([1.0, 2.0j]), np.array([0.5 + 0j, 1.0])
    st = StatePair(psi=psi, phibar=phibar)
    psi[0] = phibar[0] = 3.0  # the caller's arrays stay writeable and its own
    assert st.psi[0] == 1.0 and st.phibar[0] == 0.5
    for a in (st.psi, st.phibar):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_trajectory_copies_a_writeable_input():
    t, psi, phibar = np.arange(3.0), np.ones((3, 2), complex), np.zeros((3, 2), complex)
    traj = Trajectory(t, psi, phibar)
    t[0] = psi[0, 0] = phibar[0, 0] = 3.0  # the caller's arrays stay writeable and its own
    assert traj.t[0] == 0.0 and traj.psi[0, 0] == 1.0 and traj.phibar[0, 0] == 0.0
    for a in (traj.t, traj.psi, traj.phibar):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("steps, every", [(1, 1), (1, 5), (10, 1), (10, 3), (9, 3), (37, 100),
                                          (1001, 250), (2000, 1999), (10, 2 ** 63), (10, 10 ** 30)])
def test_record_schedule(steps, every):
    ends = record_steps(steps, every)
    assert ends.tolist() == [*range(0, steps, every), steps]
    assert record_count(steps, every) == len(ends)


def test_record_count_forms_no_schedule():
    # the row cap counts what it guards without forming it
    tracemalloc.start()
    try:
        assert record_count(10 ** 8, 1) == 10 ** 8 + 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 12


def test_exact_records_memory_peak():
    # the propagator's own arrays: at most three (rows, n) stacks at once (the
    # coefficients of psi, formed in the phases, those of phibar and psi's records,
    # then those of phibar, both fields' records), the times and numpy's buffer
    # for a broadcast product, np.getbufsize() entries; a Trajectory that copied
    # its arrays would hold two stacks more
    rows, n = 4096, 8
    rng = np.random.default_rng(31)
    h, _, _ = random_diagonalizable(rng, n, imag_scale=1e-3)
    system = biorthogonal_decompose(h)
    st = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n))
    durations = np.arange(rows) * 1e-3
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        records = exact_records(system, st, durations)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == rows
    assert peak <= 3 * 16 * rows * n + 2 * 8 * rows + 16 * np.getbufsize() + 2 ** 16


NAN = float("nan")
_PATH = SweepPath((0.5, 0.0, 2.0), (0.5, 0.0, 3.0), T=10.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: biorthogonal_decompose([[1, 1], [0, 1]], tol=NAN), ValueError, "tol must"),
    (lambda: StatePair(psi=[1.0], phibar=[1.0], hbar=NAN), ValueError, "hbar must"),
    (lambda: SweepPath((0.5, 0.0, 2.0), (0.5, 0.0, 3.0), T=NAN), ValueError,
     "duration T must"),
    (lambda: check_step(np.eye(2), NAN, 1.0), ValueError, "dt must"),
    (lambda: check_sweep_step(_PATH, NAN), ValueError, "dt must"),
    (lambda: check_sweep_step(_PATH, 0.01, NAN), StepTooLarge, "= nan exceeds"),
    (lambda: ContinuumConfig(L=NAN, N=16), ValueError, "L, m and hbar must"),
    (lambda: ContinuumConfig(L=1.0, N=16, m=NAN), ValueError, "L, m and hbar must"),
    (lambda: ContinuumConfig(L=1.0, N=16, hbar=NAN), ValueError, "L, m and hbar must"),
], ids=["decompose_tol", "state_hbar", "sweep_T", "step_dt", "sweep_dt", "sweep_hbar",
        "lattice_L", "lattice_m", "lattice_hbar"])
def test_positivity_guards_refuse_nan(call, error, message):
    # x <= 0 is False for nan, and so is every later comparison that x enters
    with pytest.raises(error, match=message):
        call()
