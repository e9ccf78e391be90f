import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from biham.canonical import (
    canonical_report,
    canonical_rhs,
    gradient_fd_mismatch,
    hamiltonian_value,
    lagrangian_value,
    modal_hamiltonian,
    rhs_mismatch,
)
from biham.dynamics import ModalCoordinates, StatePair, exact_records, schrodinger_rhs
from biham.lorentzian import LorentzianParams, lorentzian_matrix
from biham.spectral import biorthogonal_decompose

from helpers import random_diagonalizable, random_state


def _random_instance(rng, n, scale=1.0):
    h, _, _ = random_diagonalizable(rng, n, scale=scale)
    return h, StatePair(psi=random_state(rng, n), phibar=random_state(rng, n))


def test_eigenstate_gives_eigenvalue():
    sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
    st = StatePair(psi=sys2.right[:, 0], phibar=sys2.left[:, 0].conj())
    h = np.array([[1, 1], [0, 2]], dtype=complex)
    assert hamiltonian_value(h, st) == pytest.approx(1.0, abs=1e-13)


def test_zero_generator():
    st = StatePair(psi=np.ones(3), phibar=np.ones(3))
    assert hamiltonian_value(np.zeros((3, 3)), st) == 0


def test_matches_modal_form():
    rng = np.random.default_rng(31)
    h = np.array([[1, 1], [0, 2]], dtype=complex)
    sys2 = biorthogonal_decompose(h)
    st = StatePair(psi=random_state(rng, 2), phibar=random_state(rng, 2))
    modal = ModalCoordinates.from_state(sys2, st)
    assert abs(hamiltonian_value(h, st) - modal_hamiltonian(sys2, modal)) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), cond=st.floats(1.0, 100.0))
def test_hamiltonian_equals_its_modal_form(seed, n, cond):
    # <phibar|h|psi> = sum_j E_j cbar_j c_j on drawn non-normal h and states, within
    # 64 n eps times the moduli of the terms of phibar A diag(E) B^H psi, which bound
    # the rounding of c, cbar and the sum; the reconstruction A diag(E) B^H - h adds
    # a few more.  30 000 draws of these kinds read at most 23.5 n eps of them
    rng = np.random.default_rng(seed)
    h, _, _ = random_diagonalizable(rng, n, cond=cond)
    system = biorthogonal_decompose(h)
    state = StatePair(psi=random_state(rng, n, normalize=False),
                      phibar=random_state(rng, n, normalize=False))

    modal = modal_hamiltonian(system, ModalCoordinates.from_state(system, state))
    terms = np.sum((np.abs(state.phibar) @ np.abs(system.right)) * np.abs(system.eigenvalues)
                   * (np.abs(system.left).T @ np.abs(state.psi)))
    assert abs(hamiltonian_value(h, state) - modal) <= 64 * n * np.finfo(float).eps * terms


def test_modal_hamiltonian_special_cases():
    sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
    single = ModalCoordinates(c=np.array([1.0, 0.0]), cbar=np.array([1.0, 0.0]))
    assert modal_hamiltonian(sys2, single) == pytest.approx(1.0)
    empty = ModalCoordinates(c=np.zeros(2), cbar=np.zeros(2))
    assert modal_hamiltonian(sys2, empty) == 0

    # traceless two-level generator: occupying both modes sums to E1 + E2 = 0
    sysl = biorthogonal_decompose(lorentzian_matrix(LorentzianParams(1, 0, 2)))
    both = ModalCoordinates(c=np.ones(2), cbar=np.ones(2))
    assert abs(modal_hamiltonian(sysl, both)) <= 1e-12


class TestCanonicalRhs:
    def test_scalar_case(self):
        st = StatePair(psi=np.array([1.0, 0.0]), phibar=np.array([1.0, 0.0]))
        dpsi, _ = canonical_rhs(np.diag([1.0, -1.0]), st)
        assert_allclose(dpsi, [-1j, 0.0], atol=1e-15)

    def test_equals_direct_dynamics(self):
        rng = np.random.default_rng(32)
        for n in (2, 3, 5, 8):
            h, st = _random_instance(rng, n)
            assert rhs_mismatch(h, st) <= 1e-12

    def test_adjoint_sign(self):
        rng = np.random.default_rng(33)
        h, st = _random_instance(rng, 4)
        _, dphibar = canonical_rhs(h, st)
        _, expected = schrodinger_rhs(h, st.psi, st.phibar, st.hbar)
        assert_allclose(dphibar, expected, atol=1e-14)


class TestGradients:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(34)
        for n in (2, 5, 8):
            h, st = _random_instance(rng, n)
            assert gradient_fd_mismatch(h, st) <= 1e-6

    def test_nonunit_hbar(self):
        rng = np.random.default_rng(35)
        h, _, _ = random_diagonalizable(rng, 3)
        st = StatePair(psi=random_state(rng, 3), phibar=random_state(rng, 3), hbar=0.5)
        assert rhs_mismatch(h, st) <= 1e-12


class TestLagrangian:
    def test_on_shell_zero(self):
        rng = np.random.default_rng(36)
        h, st = _random_instance(rng, 4)
        psidot = schrodinger_rhs(h, st.psi, st.phibar, st.hbar)[0]
        assert abs(lagrangian_value(h, st, psidot)) <= 1e-13

    def test_static_state(self):
        rng = np.random.default_rng(37)
        h, st = _random_instance(rng, 4)
        value = lagrangian_value(h, st, np.zeros(4))
        assert value == pytest.approx(-hamiltonian_value(h, st), abs=1e-14)

    def test_off_shell_matches_direct_sum(self):
        rng = np.random.default_rng(38)
        h, st = _random_instance(rng, 5)
        psidot = random_state(rng, 5)
        direct = sum(
            1j * st.hbar * st.phibar[k] * psidot[k] for k in range(5)
        ) - sum(st.phibar[j] * h[j, k] * st.psi[k] for j in range(5) for k in range(5))
        assert abs(lagrangian_value(h, st, psidot) - direct) <= 1e-12


def test_energy_conserved_along_exact_trajectory():
    # mild imaginary parts: mode growth exp(|Im E| t) would otherwise push
    # reassembly roundoff past the tolerance under test
    rng = np.random.default_rng(39)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        h, _, _ = random_diagonalizable(rng, n, cond=8.0, imag_scale=0.15)
        h /= np.linalg.norm(h, 2)
        sys_n = biorthogonal_decompose(h)
        st = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n))
        v0 = hamiltonian_value(h, st)
        for state in exact_records(sys_n, st, np.linspace(0.5, 10.0, 8)):
            vt = hamiltonian_value(h, state)
            assert abs(vt - v0) <= 1e-12


def test_full_report():
    rng = np.random.default_rng(40)
    h, st = _random_instance(rng, 4)
    rep = canonical_report(h, st)
    assert abs(rep.hamiltonian_value - rep.modal_value) <= 1e-10
    assert rep.rhs_mismatch <= 1e-12
    assert rep.grad_mismatch <= 1e-6
