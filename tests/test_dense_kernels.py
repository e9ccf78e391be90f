"""The dense kernels against the loops they replaced, kept here as references.

``biorthogonal_decompose`` scans eigenvalue pairs by lag, fixes the gauge of
all columns at once and decides its tests against ``||h||_2`` from
``||h||_F`` unless the bounds leave a verdict open, and its rank test from
``||S^-1||_F`` unless that bound does.  On every case below it
must give the verdict and message of the reference, and on acceptance the
same bits.  ``gradient_fd_mismatch`` reuses ``phibar @ h`` for every probe
and must return the value of the same probes taken one at a time bit for bit,
and the textbook value, ``pb @ h @ ps`` per probe, to rounding.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from biham import canonical, spectral
from biham.canonical import gradient_fd_mismatch
from biham.dynamics import StatePair
from biham.errors import NotDiagonalizable
from biham.spectral import (
    _PARALLEL_OVERLAP,
    DEFAULT_TOL,
    _fix_gauge,
    as_square_matrix,
    biorthogonal_decompose,
)

from helpers import (count_svds, random_diagonalizable, random_hermitian, random_state,
                     random_unitary)


def reference_fix_gauge(vecs):
    """The column-by-column gauge loop."""
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    out = vecs.copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nonzero = np.flatnonzero(np.abs(col) > 1e-9)
        k = nonzero[0] if nonzero.size else int(np.argmax(np.abs(col)))
        out[:, j] = col * np.exp(-1j * np.angle(col[k]))
    return out


def reference_decompose(h, tol=DEFAULT_TOL):
    """The decomposition with the O(n^2) pair loop and both exact 2-norms.

    Returns ``(eigenvalues, right, left, cond)`` or raises NotDiagonalizable.
    """
    h = as_square_matrix(h)
    evals, right = np.linalg.eig(h)
    order = np.lexsort((evals.imag, evals.real))
    evals = evals[order]
    right = reference_fix_gauge(right[:, order])
    svals = np.linalg.svd(right, compute_uv=False)
    if svals[-1] < tol * svals[0]:
        raise NotDiagonalizable(
            f"right eigenvector matrix is rank deficient "
            f"(singular value ratio {svals[-1] / svals[0]:.3e} < tol {tol:.1e})"
        )
    scale = np.linalg.norm(h, 2)
    for i in range(len(evals)):
        for j in range(i + 1, len(evals)):
            if abs(evals[i] - evals[j]) <= tol * max(scale, 1e-300):
                if abs(np.vdot(right[:, i], right[:, j])) >= _PARALLEL_OVERLAP:
                    raise NotDiagonalizable(
                        f"eigenvalues {evals[i]:.6g} and {evals[j]:.6g} coincide "
                        f"within tol*||h|| with a deficient eigenspace"
                    )
    cond = float(svals[0] / svals[-1])
    left = np.linalg.inv(right).conj().T
    adjoint_residual = np.linalg.norm(
        h.conj().T @ left - left * evals.conj()[None, :], 2
    ) / max(scale, 1e-300)
    if adjoint_residual > max(tol, 1e-8):
        raise NotDiagonalizable(
            f"left eigenvectors fail the adjoint eigenrelation "
            f"(relative residual {adjoint_residual:.3e}); numerical degeneracy"
        )
    return evals, right, left, cond


def fd_probe_loop(h, state, step, phibar_rows):
    """The finite-difference check, one probe at a time.

    ``phibar_rows(h, k, shift)`` gives the rows ``r+`` and ``r-`` for which
    ``r @ psi`` is H at ``phibar +- shift e_k``; the psi probes take
    ``(phibar @ h) @ ps``.
    """
    h = as_square_matrix(h)
    psi = np.array(state.psi)
    d_phibar, d_psi = h @ state.psi, state.phibar @ h
    scale = max(float(np.max(np.abs(d_phibar))), float(np.max(np.abs(d_psi))), 1.0)

    worst = 0.0
    n = psi.shape[0]
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        for probe in (1.0, 1j):
            plus, minus = phibar_rows(h, k, step * probe)
            num = (plus @ psi - minus @ psi) / (2 * step)
            worst = max(worst, abs(num - probe * d_phibar[k]))
            num = (d_psi @ (psi + step * probe * e)
                   - d_psi @ (psi - step * probe * e)) / (2 * step)
            worst = max(worst, abs(num - probe * d_psi[k]))
    return worst / scale


def reference_gradient_fd_mismatch(h, state, step=1e-6):
    """The textbook check: ``pb @ h @ ps`` evaluated for every probe."""
    phibar = np.array(state.phibar)

    def rows(h, k, shift):
        e = np.zeros(h.shape[0], dtype=complex)
        e[k] = 1.0
        return (phibar + shift * e) @ h, (phibar - shift * e) @ h

    return fd_probe_loop(h, state, step, rows)


def loop_gradient_fd_mismatch(h, state, step=1e-6):
    """The check as ``gradient_fd_mismatch`` takes it: ``(phibar +- shift e_k) @ h`` is
    ``phibar @ h +- shift h[k]``, so a phibar probe takes no product with h."""
    d_psi = state.phibar @ as_square_matrix(h)
    return fd_probe_loop(h, state, step,
                         lambda h, k, shift: (d_psi + shift * h[k], d_psi - shift * h[k]))


def outcome(decompose, h, tol):
    """``("ok", arrays)`` or ``("rejected", message)`` of one decomposition."""
    try:
        return "ok", decompose(h, tol)
    except NotDiagonalizable as exc:
        return "rejected", str(exc)


def assert_same_outcome(h, tol=DEFAULT_TOL):
    """Same verdict and message as the reference; same bits when accepted."""
    verdict, got = outcome(biorthogonal_decompose, h, tol)
    ref_verdict, ref = outcome(reference_decompose, h, tol)
    assert verdict == ref_verdict, (got, ref)
    if verdict == "rejected":
        assert got == ref
        return got
    evals, right, left, cond = ref
    assert got.eigenvalues.tobytes() == evals.tobytes()
    assert got.right.tobytes() == right.tobytes()
    assert got.left.tobytes() == left.tobytes()
    assert got.cond == cond
    assert got.right.flags.c_contiguous
    return None


def near_parallel_pair(gap, angle, extra=()):
    """``S diag(E) S^-1`` whose first two eigenvectors meet at ``angle``, eigenvalues ``gap`` apart."""
    e = np.array([1.0, 1.0 + gap, *extra], dtype=complex)
    s = np.eye(len(e), dtype=complex)
    s[:2, 1] = np.cos(angle), np.sin(angle)
    return s @ np.diag(e) @ np.linalg.inv(s)


@pytest.fixture
def two_norms(monkeypatch):
    """Record every ``ord=2`` call of ``np.linalg.norm``."""
    calls = []
    norm = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_random_matrices_match_the_reference(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(1, 65))
    assert_same_outcome(random_diagonalizable(rng, n, min_sep=1e-6)[0])
    assert_same_outcome(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert_same_outcome(random_hermitian(rng, n, norm=float(rng.uniform(0.1, 10.0))))


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-5, 1e-3])
def test_clustered_spectra_match_the_reference(tol):
    rng = np.random.default_rng(17)
    messages = []
    for width in (1e-14, 1e-10, 1e-6, 1e-3):
        # clusters of three eigenvalues around four centres, random vectors
        e = np.repeat(rng.uniform(-1, 1, 4), 3) + width * rng.standard_normal(12)
        s = random_unitary(rng, 12) @ np.diag(np.logspace(0, 1, 12)) @ random_unitary(rng, 12)
        messages.append(assert_same_outcome(s @ np.diag(e) @ np.linalg.inv(s), tol))
        for angle in (1e-2, 1e-3, 1e-4):
            messages.append(assert_same_outcome(near_parallel_pair(width, angle, [3, -2j]), tol))
    if tol == 1e-5:
        assert any(m and "coincide" in m for m in messages)


def test_purely_imaginary_spectra_match_the_reference():
    rng = np.random.default_rng(5)
    for n in (2, 9, 40):
        assert_same_outcome(1j * random_hermitian(rng, n))
        y = np.linspace(-1.0, 1.0, n) + 1j * 0
        s = random_unitary(rng, n) @ np.diag(np.logspace(0, 0.5, n))
        assert_same_outcome(s @ np.diag(1j * y) @ np.linalg.inv(s))
        # repeated imaginary eigenvalues with orthogonal vectors
        assert_same_outcome(np.diag(1j * np.repeat(y[: (n + 1) // 2], 2)[:n]))


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-4])
def test_special_matrices_match_the_reference(tol):
    jordan3 = np.diag([2.0, 2.0, 2.0]) + np.diag([1.0, 1.0], 1)
    blocks = np.zeros((5, 5), dtype=complex)
    blocks[:2, :2] = [[1, 1], [0, 1]]
    blocks[2:, 2:] = np.diag([3.0, -1.0, 1j])
    cases = {
        "eye3": np.eye(3),
        "zero1": np.zeros((1, 1)),
        "zero4": np.zeros((4, 4)),
        "scalar": [[3 - 2j]],
        "tiny": [[1e-310]],
        "jordan2": [[2, 1], [0, 2]],
        "nilpotent": [[1, 1], [-1, -1]],
        "jordan3": jordan3,
        "jordan_block_in_diag": blocks,
        "nilpotent3": np.diag([1.0, 1.0], 1),
    }
    for name, h in cases.items():
        message = assert_same_outcome(h, tol)
        assert (message is None) == (name in ("eye3", "zero1", "zero4", "scalar", "tiny")), name


def test_extreme_scales_match_the_reference():
    rng = np.random.default_rng(3)
    h = random_diagonalizable(rng, 6)[0]
    pair = near_parallel_pair(1e-7, 1e-3, [1.2])
    adjoint = np.array([[1, 1], [1e-20, 1]])
    messages = []
    # the squares of the entries underflow at 1e-170 and overflow at 1e200
    for scale in (1e-170, 1e-120, 1e150, 1e200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assert_same_outcome(h * scale) is None
            assert "coincide" in assert_same_outcome(pair * scale, 1e-5)
            messages.append(assert_same_outcome(adjoint * scale, 1e-14))
    assert "adjoint" in messages[0] and "adjoint" in messages[3]


def test_pair_verdict_that_needs_the_exact_norm(two_norms):
    # gap 1.5 tol ||h||_2: inside the Frobenius reach, outside the exact one
    h = near_parallel_pair(0.0, 1e-3, [1.2])
    gap = 1.5e-5 * np.linalg.norm(h, 2)
    h = near_parallel_pair(gap, 1e-3, [1.2])
    assert assert_same_outcome(h, 1e-5) is None
    two_norms.clear()
    biorthogonal_decompose(h, 1e-5)
    assert two_norms == [(3, 3)]  # h only, once
    # just inside the exact reach: rejected by the pair test
    h = near_parallel_pair(0.5 * gap, 1e-3, [1.2])
    assert "coincide" in assert_same_outcome(h, 1e-5)


@pytest.mark.parametrize("tol", [1e-7, 1e-6])
def test_first_failing_pair_is_lexicographic(tol):
    # a0 = e1, a1 at angle 2 theta from it, a2 between them and tilted into e3:
    # (0, 1) is not parallel, (1, 2) at lag 1 and (0, 2) at lag 2 are
    theta, gap = 0.9e-3, 1e-8
    e1, e2, e3, e4 = np.eye(4)
    s = np.column_stack([e1, np.cos(2 * theta) * e1 + np.sin(2 * theta) * e2,
                         np.cos(theta) * e1 + np.sin(theta) * (e2 + e3) / np.sqrt(2), e4])
    h = s @ np.diag([0.0, gap, 2 * gap, 1.0]) @ np.linalg.inv(s)
    assert "eigenvalues 0+0j and 2e-08+0j coincide" in assert_same_outcome(h, tol)
    # (0, 1) fails at lag 1, and (2, 4) at lag 2 must not replace it
    e = np.eye(6)
    s = np.column_stack([e[0], np.cos(theta) * e[0] + np.sin(theta) * e[1], e[2], e[4],
                         np.cos(theta) * e[2] + np.sin(theta) * e[3], e[5]])
    h = s @ np.diag([0.0, gap, 0.5, 0.5 + gap, 0.5 + 2 * gap, 1.0]) @ np.linalg.inv(s)
    assert "eigenvalues 0+0j and 1e-08+0j coincide" in assert_same_outcome(h, tol)


def test_adjoint_verdicts_that_need_the_exact_norm(two_norms):
    # [[1, 1], [delta, 1]] has eigenvectors (1, +-sqrt(delta)): the residual of
    # the left family grows like eps / sqrt(delta)
    deltas = np.logspace(-12, -26, 29)
    messages = [assert_same_outcome([[1, 1], [delta, 1]], 1e-14) for delta in deltas]
    assert any(m is None for m in messages)
    rejected = [d for d, m in zip(deltas, messages) if m and "adjoint" in m]
    two_norms.clear()
    with pytest.raises(NotDiagonalizable, match="adjoint"):
        biorthogonal_decompose([[1, 1], [rejected[0], 1]], 1e-14)
    assert two_norms == [(2, 2), (2, 2)]  # R, then h
    # residuals with ||R||_2 / ||h||_2 just above 1e-8 and ||R||_F under twice
    # the Frobenius bound: a bound looser than the classical one accepts them
    for delta in (3.7e-17, 3.8e-17, 5.4e-17):
        assert_same_outcome([[1, 1], [delta, 1]], 1e-14)


@pytest.mark.parametrize("n", [2, 7, 40])
def test_rank_verdicts_in_the_undecided_band(monkeypatch, n):
    # tol around the singular value ratio of the eigenvector matrix: far below
    # it the inverse's bound decides, near it the SVD does, above it rejects
    rng = np.random.default_rng(60 + n)
    h = random_diagonalizable(rng, n, cond=float(rng.uniform(50.0, 500.0)))[0]
    right = reference_decompose(h)[1]
    svals = np.linalg.svd(right, compute_uv=False)
    ratio = svals[-1] / svals[0]
    bound = 1.0 / (np.sqrt(n) * np.linalg.norm(np.linalg.inv(right)))
    messages = []
    svds = count_svds(monkeypatch)
    for tol in (0.4 * bound, 0.6 * bound, 0.99 * ratio, ratio, 1.01 * ratio, 3.0 * ratio):
        messages.append(assert_same_outcome(h, tol))
        svds.clear()
        outcome(biorthogonal_decompose, h, tol)
        assert svds == ([] if bound >= 2.0 * tol else [(n, n)]), tol
    assert messages[:3] == [None] * 3
    assert all("rank deficient" in m for m in messages[4:])


def test_singular_eigenvector_matrix_gets_the_svd_message(monkeypatch):
    # two exactly parallel eigenvectors: inv raises, and the SVD's verdict is the message
    monkeypatch.setattr(np.linalg, "eig", lambda h: (np.array([1.0, 2.0 + 0j]),
                                                     np.array([[1.0, 3.0], [0.0, 0.0 + 0j]])))
    message = assert_same_outcome(np.diag([1.0, 2.0]))
    assert "rank deficient (singular value ratio 0.000e+00" in message


def test_failed_inverse_of_a_full_rank_matrix_raises_as_before(monkeypatch):
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    h = random_diagonalizable(np.random.default_rng(4), 5)[0]
    monkeypatch.setattr(np.linalg, "inv", singular)
    for decompose in (biorthogonal_decompose, reference_decompose):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            decompose(h)
    # a deficient matrix is still reported as such before the inverse is needed
    assert "rank deficient" in assert_same_outcome(np.diag([1.0, 1.0]) + np.diag([1.0], 1))


def test_separated_spectrum_takes_no_two_norm(two_norms):
    rng = np.random.default_rng(11)
    h = random_diagonalizable(rng, 24, min_sep=1e-3)[0]
    biorthogonal_decompose(h)
    assert two_norms == []


@pytest.mark.parametrize("order", ["C", "F"])
def test_gauge_matches_the_loop(order):
    rng = np.random.default_rng(8)
    vecs = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    vecs[:4, 3] = 0.0  # first entries zero: the phase comes from a later one
    vecs[:, 7] = 1e-12 * vecs[:, 7]
    vecs[:, 9] = [1e200 * (1 + 1j)] * 30  # squares overflow: normalizes to 0, no entry above 1e-9
    vecs[:, 11] = 0.0
    vecs[5, 11] = np.inf  # normalizes to nan at 5 and 0 elsewhere: the phase is taken at 5
    vecs = np.asarray(vecs, order=order)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _fix_gauge(vecs)
        ref = reference_fix_gauge(vecs)
    assert got.tobytes() == ref.tobytes()
    assert got.flags.c_contiguous
    assert not np.any(got[:, 9])


@pytest.mark.parametrize("n", [1, 8, 64])
def test_fd_mismatch_matches_the_loop_bitwise(n):
    rng = np.random.default_rng(40 + n)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    state = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n), hbar=0.7)
    assert gradient_fd_mismatch(h, state) == loop_gradient_fd_mismatch(h, state)
    assert gradient_fd_mismatch(h, state, step=1e-3) == loop_gradient_fd_mismatch(
        h, state, step=1e-3)


@pytest.mark.parametrize("n, block", [(130, 64), (10, 3), (7, 7)])
def test_fd_mismatch_in_blocks_matches_the_loop_bitwise(monkeypatch, n, block):
    # the probes run in blocks of rows, each with the roundings of its own probe
    monkeypatch.setattr(canonical, "_FD_BLOCK", block)
    rng = np.random.default_rng(70 + n)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    state = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n), hbar=1.3)
    assert gradient_fd_mismatch(h, state) == loop_gradient_fd_mismatch(h, state)


def gamma(m):
    """Higham's ``gamma_m = m u / (1 - m u)``, u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


@pytest.mark.parametrize("seed", range(12))
def test_fd_mismatch_is_the_textbook_value_to_rounding(seed):
    # Each form's phibar-probe quotient is within gamma_m (A/s + 3 B) of the exact
    # partial, A = |phibar| |h| |psi|, B = max_k (|h| |psi|)_k, s the step
    # (Higham, Accuracy and Stability of Numerical Algorithms, sections 3.1 and 3.6:
    # a complex inner product of length n loses gamma_{n+2}).  The textbook form
    # takes two products, gamma_{2n+4}, and the new one one, gamma_{n+2}: the
    # rounding of phibar @ h is common to its + and - probes and cancels.  The
    # shifts, the difference and the division add a few u to each, so
    # gamma_{3n+12} covers the sum.  The psi probes are the same code in both, and
    # the worst gap moves by at most the largest change of one gap.
    rng = np.random.default_rng(600 + seed)
    n = int(rng.choice([1, 2, 3, 8, 33, 64])) if seed < 9 else 256
    h, _, _ = random_diagonalizable(rng, n, scale=10.0 ** rng.uniform(-3, 3),
                                    cond=10.0 ** rng.uniform(0, 3))
    state = StatePair(psi=random_state(rng, n) * 10.0 ** rng.uniform(-2, 2),
                      phibar=random_state(rng, n) * 10.0 ** rng.uniform(-2, 2))
    step = 10.0 ** rng.uniform(-8, -2)
    new = gradient_fd_mismatch(h, state, step)
    textbook = reference_gradient_fd_mismatch(h, state, step)
    magnitude, size = np.abs(h), np.abs(state.psi)
    scale = max(np.max(np.abs(h @ state.psi)), np.max(np.abs(state.phibar @ h)), 1.0)
    bound = gamma(3 * n + 12) * (np.abs(state.phibar) @ magnitude @ size / step
                                 + 3 * np.max(magnitude @ size)) / scale
    # measured over these draws, the largest |new - textbook| / bound is 0.024
    assert abs(new - textbook) <= bound


def test_fd_mismatch_memory_peak():
    # the check's own arrays are a few (block, n) stacks, not n x n ones
    n = 256
    rng = np.random.default_rng(702)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    state = StatePair(psi=random_state(rng, n), phibar=random_state(rng, n))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        gradient_fd_mismatch(h, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 16 * canonical._FD_BLOCK * n


def test_decompose_memory_peak():
    # a benchmark-like n = 256 generator: real jittered spectrum, cond(S) ~ 6
    n = 256
    rng = np.random.default_rng(701)
    e = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.25, 0.25, n) * (2.0 / n)
    s = random_unitary(rng, n) @ np.diag(np.logspace(0, np.log10(6.0), n)) @ random_unitary(rng, n)
    h = s @ np.diag(e) @ np.linalg.inv(s)
    del s
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        system = spectral.biorthogonal_decompose(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.n == n
    assert peak <= 4.25 * 16 * n * n
