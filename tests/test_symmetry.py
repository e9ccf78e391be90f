"""Property tests of the symmetries of the state pair and of its conjugate field.

``psi -> e^{i alpha} psi``, ``phibar -> e^{-i alpha} phibar`` is the Noether
symmetry of every discrete system, a lattice included: it leaves the
Hamiltonian ``<phibar|h|psi>``, the overlap and the lattice charge unchanged.
Each comparison allows ``(n + 4) eps`` times the sum of the moduli of the
terms summed: ``n eps`` for the rounding of the two sums, and ``4 eps`` for the
rounding of ``e^{+-i alpha}`` and of the two products that rotate each term.

The default conjugate field is ``psi^H`` for Hermitian ``h`` and scales with
``psi`` for any ``h``, at every scale whose ``|c_j|^2`` is a normal float.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biham import canonical, continuum, dynamics, spectral

from helpers import random_diagonalizable, random_unitary, separated_eigenvalues

EPS = np.finfo(float).eps

seeds = st.integers(0, 2 ** 32 - 1)
angles = st.floats(-10.0, 10.0)
# decimal exponents of a state's scale: |c_j|^2 stays a normal float
magnitudes = st.floats(-150.0, 150.0)


def _draw_state(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=seeds, n=st.integers(2, 6), cond=st.floats(2.0, 100.0), alpha=angles)
def test_phase_rotation_keeps_hamiltonian_and_overlap(seed, n, cond, alpha):
    rng = np.random.default_rng(seed)
    h, _, _ = random_diagonalizable(rng, n, cond=cond)
    state = dynamics.initial_state(spectral.biorthogonal_decompose(h), _draw_state(rng, n))
    rotated = dynamics.phase_rotated(state, alpha)

    assert rotated.t == state.t and rotated.hbar == state.hbar
    terms = np.abs(state.phibar) @ np.abs(h) @ np.abs(state.psi)
    gap = canonical.hamiltonian_value(h, rotated) - canonical.hamiltonian_value(h, state)
    assert abs(gap) <= (n + 4) * EPS * terms
    terms = np.sum(np.abs(state.phibar * state.psi))
    assert abs(dynamics.overlap(rotated) - dynamics.overlap(state)) <= (n + 4) * EPS * terms


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=seeds, n=st.integers(1, 6), scale=st.floats(0.1, 10.0), magnitude=magnitudes)
def test_hermitian_conjugate_field_is_the_adjoint(seed, n, scale, magnitude):
    # eigenvalues at least ||h|| / 20 apart keep the computed eigenvectors unitary
    # to a few eps, and phibar = psi^H (R R^H)^-1 for right eigenvectors R
    rng = np.random.default_rng(seed)
    e = separated_eigenvalues(rng, n, scale=scale, min_sep=0.1, imag_scale=0.0).real
    u = random_unitary(rng, n)
    h = (u * e) @ u.conj().T
    h = (h + h.conj().T) / 2.0
    psi = 10.0 ** magnitude * _draw_state(rng, n)
    state = dynamics.initial_state(spectral.biorthogonal_decompose(h), psi)

    norm = np.linalg.norm(psi)
    assert np.max(np.abs(state.phibar - psi.conj())) <= 8 * n * EPS * norm
    assert abs(dynamics.overlap(state) - dynamics.right_norm(state)) <= 8 * n * EPS * norm ** 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=seeds, n=st.integers(1, 6), cond=st.floats(1.0, 100.0), magnitude=magnitudes,
       negative=st.booleans())
def test_conjugate_field_scales_with_the_state(seed, n, cond, magnitude, negative):
    # phibar(s psi) = s phibar(psi) for real s, as cbar_j = |c_j|^2 / c_j = conj(c_j).
    # Each c_j = <b_j|psi> is off by at most (n + 1) eps m_j, m_j = sum_k |b_kj| |psi_k|,
    # cbar_j then by (n + 4) eps m_j and phibar_k by (2n + 4) eps sum_j |b_kj| m_j;
    # the two fields compared allow twice that
    rng = np.random.default_rng(seed)
    h, _, _ = random_diagonalizable(rng, n, cond=cond)
    system = spectral.biorthogonal_decompose(h)
    psi = _draw_state(rng, n)
    s = (-1.0 if negative else 1.0) * 10.0 ** magnitude

    scaled = dynamics.conjugate_field(system, s * psi)
    left = np.abs(system.left)
    bound = (4 * n + 8) * EPS * abs(s) * (left @ (left.T @ np.abs(psi)))
    assert np.all(np.abs(scaled - s * dynamics.conjugate_field(system, psi)) <= bound)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, sites=st.integers(8, 16), length=st.floats(2.0, 20.0),
       real_amp=st.floats(0.2, 2.0), gain=st.floats(-0.5, 0.5), alpha=angles)
def test_phase_rotation_keeps_the_pt_symmetric_lattice_charge(seed, sites, length, real_amp,
                                                             gain, alpha):
    # V(-x) = conj(V(x)); |Im V| at most half of Re V keeps the spectrum away from
    # the exceptional point at |Im V| = |Re V|
    config = continuum.ContinuumConfig(L=length, N=sites)
    kx = 2.0 * np.pi * config.grid() / config.L
    V = real_amp * np.cos(kx) + 1j * gain * real_amp * np.sin(kx)
    assert np.allclose(V[(-np.arange(sites)) % sites], V.conj(), rtol=0.0, atol=1e-12)
    state = dynamics.initial_state(spectral.biorthogonal_decompose(continuum.discretize(config, V)),
                                   _draw_state(np.random.default_rng(seed), sites))
    rotated = dynamics.phase_rotated(state, alpha)

    terms = np.sum(np.abs(state.phibar * state.psi)) * config.dx
    gap = continuum.lattice_charge(rotated, config.dx) - continuum.lattice_charge(state, config.dx)
    assert abs(gap) <= (sites + 4) * EPS * terms
