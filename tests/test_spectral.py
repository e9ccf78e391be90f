import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from biham.errors import NotDiagonalizable
from biham.spectral import (
    BiorthogonalSystem,
    biorthogonal_decompose,
    biorthonormality_residual,
    completeness_residual,
    spectrum_is_real,
)
from biham.lorentzian import LorentzianParams, lorentzian_matrix

from helpers import random_diagonalizable, random_hermitian


def test_upper_triangular_hand_solution():
    # by-hand solve: E=(1,2); a1 || (1,0), a2 || (1,1); b1 || (1,-1), b2 || (0,1)
    sys2 = biorthogonal_decompose([[1, 1], [0, 2]])
    assert_allclose(sys2.eigenvalues, [1.0, 2.0], atol=1e-12)
    assert_allclose(sys2.right[:, 0], [1.0, 0.0], atol=1e-12)
    assert_allclose(sys2.right[:, 1], np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
    assert_allclose(sys2.left[:, 0], [1.0, -1.0], atol=1e-12)
    assert_allclose(sys2.left[:, 1], [0.0, np.sqrt(2.0)], atol=1e-12)
    assert biorthonormality_residual(sys2) <= 1e-14
    assert completeness_residual(sys2) <= 1e-14


def test_hermitian_diagonal():
    sys2 = biorthogonal_decompose(np.diag([1.0, -1.0]))
    assert_allclose(sys2.eigenvalues, [-1.0, 1.0], atol=0)
    assert_allclose(sys2.right, [[0, 1], [1, 0]], atol=1e-15)
    assert_allclose(sys2.left, sys2.right, atol=1e-15)


def test_nilpotent_rejected():
    with pytest.raises(NotDiagonalizable):
        biorthogonal_decompose([[1, 1], [-1, -1]])


def test_jordan_block_rejected():
    with pytest.raises(NotDiagonalizable):
        biorthogonal_decompose([[2, 1], [0, 2]])


def test_residuals_detect_broken_systems():
    sys2 = biorthogonal_decompose(np.diag([1.0, 2.0]))
    scaled = BiorthogonalSystem(
        eigenvalues=sys2.eigenvalues,
        right=sys2.right,
        left=np.column_stack([2.0 * sys2.left[:, 0], sys2.left[:, 1]]),
        cond=sys2.cond,
    )
    assert biorthonormality_residual(scaled) == pytest.approx(1.0, abs=1e-12)

    truncated = BiorthogonalSystem(
        eigenvalues=sys2.eigenvalues[:1],
        right=sys2.right[:, :1],
        left=sys2.left[:, :1],
        cond=sys2.cond,
    )
    assert completeness_residual(truncated) >= 1.0


@pytest.mark.parametrize("n", range(2, 9))
def test_roundtrip_random_systems(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(20):
        h, evals, _ = random_diagonalizable(rng, n)
        sys_n = biorthogonal_decompose(h)
        assert_allclose(sys_n.eigenvalues, evals, atol=1e-9)
        assert biorthonormality_residual(sys_n) <= 1e-10
        assert completeness_residual(sys_n) <= 1e-10
        scale = np.linalg.norm(h, 2)
        assert np.linalg.norm(h @ sys_n.right - sys_n.right * sys_n.eigenvalues, 2) <= 1e-10 * scale


def test_random_6x6_residuals():
    rng = np.random.default_rng(42)
    h, _, _ = random_diagonalizable(rng, 6)
    sys6 = biorthogonal_decompose(h)
    assert biorthonormality_residual(sys6) <= 1e-10
    assert completeness_residual(sys6) <= 1e-10


def test_hermitian_reduction_left_equals_right():
    rng = np.random.default_rng(7)
    for n in (2, 4, 6):
        h = random_hermitian(rng, n)
        sys_n = biorthogonal_decompose(h)
        # gauge fixing makes the unitary eigenbasis satisfy B = A exactly
        assert np.max(np.abs(sys_n.right - sys_n.left)) <= 1e-10


def test_adjoint_duality():
    rng = np.random.default_rng(8)
    h, _, _ = random_diagonalizable(rng, 5)
    sys5 = biorthogonal_decompose(h)
    scale = np.linalg.norm(h, 2)
    resid = np.linalg.norm(
        h.conj().T @ sys5.left - sys5.left * sys5.eigenvalues.conj(), 2
    )
    assert resid <= 1e-10 * scale


def test_spectrum_is_real():
    real_sys = biorthogonal_decompose(lorentzian_matrix(LorentzianParams(1, 0, 2)))
    assert spectrum_is_real(real_sys)
    assert_allclose(sorted(real_sys.eigenvalues.real), [-np.sqrt(3), np.sqrt(3)], atol=1e-12)

    complex_sys = biorthogonal_decompose(lorentzian_matrix(LorentzianParams(2, 0, 1)))
    assert not spectrum_is_real(complex_sys)
    assert_allclose(sorted(complex_sys.eigenvalues.imag), [-np.sqrt(3), np.sqrt(3)], atol=1e-12)

    zero_sys = biorthogonal_decompose(np.zeros((2, 2)))
    assert spectrum_is_real(zero_sys)


def test_eigenvalues_sorted():
    rng = np.random.default_rng(3)
    h, _, _ = random_diagonalizable(rng, 7)
    sys7 = biorthogonal_decompose(h)
    e = sys7.eigenvalues
    keys = list(zip(e.real, e.imag))
    assert keys == sorted(keys)


def test_input_validation():
    with pytest.raises(ValueError):
        biorthogonal_decompose(np.ones((2, 3)))
    with pytest.raises(ValueError):
        biorthogonal_decompose(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(ValueError):
        biorthogonal_decompose(np.eye(2), tol=0.0)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), cond=st.floats(1.0, 100.0),
       magnitude=st.floats(-3.0, 3.0))
def test_biorthonormal_and_complete_to_rounding(seed, n, cond, magnitude):
    # B^H A = I and A B^H = I on drawn non-normal h = S diag(E) S^-1, cond(S) <= 100
    # as drawn, within 2 n eps cond(S) of the decomposition's unit-column S: B^H is
    # its computed inverse.  30 000 draws of these kinds read at most 0.48 n eps
    # cond(S) on either residual
    rng = np.random.default_rng(seed)
    h, _, _ = random_diagonalizable(rng, n, scale=10.0 ** magnitude, cond=cond)
    system = biorthogonal_decompose(h)
    bound = 2 * n * np.finfo(float).eps * system.cond
    assert biorthonormality_residual(system) <= bound
    assert completeness_residual(system) <= bound
