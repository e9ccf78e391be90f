"""Biorthogonal eigensystems of diagonalizable non-Hermitian matrices.

A diagonalizable complex matrix ``h`` has right eigenvectors ``a_j`` with
``h a_j = E_j a_j`` and left eigenvectors ``b_j`` with ``b_j^H h = E_j b_j^H``.
The two families can be normalized to be biorthonormal, ``<b_i|a_j> = delta_ij``,
and complete, ``sum_j |a_j><b_j| = 1``.  For Hermitian ``h`` both families
coincide with the usual orthonormal eigenbasis.

Left vectors are obtained by inverting the right eigenvector matrix, which
enforces biorthonormality exactly as constructed; they are then cross-checked
against the adjoint matrix independently.

Tests against ``||h||_2`` are decided from ``||h||_F`` by the classical bounds
``||A||_F / sqrt(n) <= ||A||_2 <= ||A||_F``; the SVDs of ``h`` and of the adjoint
residual are taken only when those bounds leave a verdict open.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotDiagonalizable

DEFAULT_TOL = 1e-8

# |<a_i|a_j>| above this marks two eigenvector columns as numerically parallel
_PARALLEL_OVERLAP = 1.0 - 1e-6


def as_square_matrix(h) -> np.ndarray:
    """Validate and return ``h`` as a square, finite, complex ndarray."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    return h


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass
class BiorthogonalSystem:
    """Paired eigenvalues and right/left eigenvector columns with B^H A = I.

    ``right[:, j]`` is the right eigenvector ``a_j`` and ``left[:, j]`` the left
    eigenvector ``b_j``; ``cond`` is the condition number of the right
    eigenvector matrix.  Eigenvalues are sorted by (real, imaginary) part and
    the columns follow that order.  Rectangular ``right``/``left`` (fewer
    columns than rows) are tolerated so residuals of truncated systems can be
    measured.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    cond: float

    def __post_init__(self):
        self.eigenvalues = _readonly(np.asarray(self.eigenvalues, dtype=complex))
        self.right = _readonly(np.asarray(self.right, dtype=complex))
        self.left = _readonly(np.asarray(self.left, dtype=complex))
        if self.right.shape != self.left.shape:
            raise ValueError("right and left eigenvector matrices must match in shape")
        if self.right.shape[1] != self.eigenvalues.shape[0]:
            raise ValueError("one eigenvalue per eigenvector column required")

    @property
    def n(self) -> int:
        return self.right.shape[0]


def _fix_gauge(vecs: np.ndarray) -> np.ndarray:
    """Unit-norm columns with the first nonzero component made real-positive.

    A column with no entry above 1e-9 is phased by its largest one.  The
    result is C-contiguous, whatever the layout of ``vecs``.
    """
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    cols = np.arange(vecs.shape[1])
    above = np.abs(vecs) > 1e-9
    k = np.argmax(above, axis=0)
    tiny = ~above[k, cols]
    if tiny.any():
        k[tiny] = np.argmax(np.abs(vecs[:, tiny]), axis=0)
    return np.multiply(vecs, np.exp(-1j * np.angle(vecs[k, cols])), order="C")


def _first_parallel_pair(evals: np.ndarray, right: np.ndarray, reach: float, exact_reach):
    """Lexicographically first ``(i, j)``, ``i < j``, with ``|E_i - E_j| <= exact_reach()``
    and ``|<a_i|a_j>| >= _PARALLEL_OVERLAP``, or None.

    Only pairs within ``reach``, an upper bound of ``exact_reach()``, are
    examined.  ``evals`` are sorted by real part, so the real gap of a pair
    grows with its lag ``j - i``: the scan stops at the first lag whose real
    gaps all exceed ``reach`` (lag 1 for a separated spectrum) and holds no
    n x n array.
    """
    first = None
    for lag in range(1, len(evals)):
        if np.min(evals.real[lag:] - evals.real[:-lag]) > reach:
            break
        close = np.flatnonzero(np.abs(evals[lag:] - evals[:-lag]) <= reach)
        if first is not None:
            close = close[close < first[0]]
        for i in close.tolist():
            j = i + lag
            if (abs(np.vdot(right[:, i], right[:, j])) >= _PARALLEL_OVERLAP
                    and abs(evals[i] - evals[j]) <= exact_reach()):
                first = (i, j)
                break
    return first


def biorthogonal_decompose(h, tol: float = DEFAULT_TOL) -> BiorthogonalSystem:
    """Compute the biorthogonal eigensystem of a diagonalizable matrix.

    Right eigenvectors are gauge-fixed (unit norm, first nonzero component
    real-positive); the left family is ``B^H = A^{-1}`` so that
    ``<b_i|a_j> = delta_ij`` holds exactly as constructed, and is then
    residual-checked against ``h^H`` independently.

    ``||h||_2`` (an SVD of ``h``) is computed only if a pair of eigenvalues
    within ``2 tol ||h||_F`` has parallel eigenvectors, or if the adjoint
    residual ``R`` has ``||R||_F > max(tol, 1e-8) ||h||_F / (2 sqrt(n))``.
    ``||R||_2`` (an SVD of ``R``) is computed only in the residual case.
    Every other verdict follows from ``||A||_F / sqrt(n) <= ||A||_2 <= ||A||_F``.
    The tests run on ``h`` scaled by a power of two, so no norm overflows.

    Parameters
    ----------
    h : array_like, shape (n, n)
        Complex matrix, assumed diagonalizable.
    tol : float
        Relative singular-value floor of the eigenvector matrix below which
        the matrix is reported as defective.

    Raises
    ------
    NotDiagonalizable
        If the right eigenvector matrix is numerically rank deficient, or an
        eigenvalue cluster tighter than ``tol * ||h||`` comes with (nearly)
        parallel eigenvectors.  Both signal an exceptional point or a
        numerical degeneracy.
    NonFinite
        If an eigenvalue is beyond the float range.
    """
    h = as_square_matrix(h)
    if tol <= 0:
        raise ValueError("tol must be positive")
    evals, right = np.linalg.eig(h)
    if not np.all(np.isfinite(evals)):
        raise NonFinite("an eigenvalue of the matrix leaves the float range")
    order = np.lexsort((evals.imag, evals.real))
    evals = evals[order]
    right = _fix_gauge(right[:, order])

    svals = np.linalg.svd(right, compute_uv=False)
    with np.errstate(over="ignore"):  # a tol near the float maximum gives inf: rank deficient
        deficient = svals[-1] < tol * svals[0]
    if deficient:
        raise NotDiagonalizable(
            f"right eigenvector matrix is rank deficient "
            f"(singular value ratio {svals[-1] / svals[0]:.3e} < tol {tol:.1e})"
        )
    # the tests run on g = h * unit, a power of two, so g is exact; its largest part is
    # in [0.5, 1), or at least 2^-51 for a subnormal h as unit stops at 2^1023, so no norm,
    # eigenvalue gap or residual of g over- or underflows
    largest = max(np.max(np.abs(h.real)), np.max(np.abs(h.imag)))
    unit = np.ldexp(1.0, min(-np.frexp(largest)[1], 1023))
    g_evals = evals * unit
    scale = functools.cache(lambda: np.linalg.norm(h * unit, 2))
    # ||g||_F / sqrt(n) <= ||g||_2 <= ||g||_F; the factors 2 and 1/2 absorb rounding
    frobenius = np.linalg.norm(h * unit)
    high, low = 2 * frobenius, 0.5 * frobenius / np.sqrt(len(evals))
    pair = _first_parallel_pair(g_evals, right, tol * high, lambda: tol * scale())
    if pair is not None:
        i, j = pair
        raise NotDiagonalizable(
            f"eigenvalues {evals[i]:.6g} and {evals[j]:.6g} coincide "
            f"within tol*||h|| with a deficient eigenspace"
        )
    cond = float(svals[0] / svals[-1])
    left = np.linalg.inv(right).conj().T

    # independent cross-check: b_j must be right eigenvectors of h^H
    residual = (h.conj() * unit).T @ left - left * g_evals.conj()[None, :]
    limit = max(tol, 1e-8)
    if np.linalg.norm(residual) > limit * low:
        adjoint_residual = np.linalg.norm(residual, 2) / scale()
        if adjoint_residual > limit:
            raise NotDiagonalizable(
                f"left eigenvectors fail the adjoint eigenrelation "
                f"(relative residual {adjoint_residual:.3e}); numerical degeneracy"
            )
    del residual  # not held while BiorthogonalSystem copies the arrays
    return BiorthogonalSystem(eigenvalues=evals, right=right, left=left, cond=cond)


def biorthonormality_residual(system: BiorthogonalSystem) -> float:
    """Max-entry magnitude of ``B^H A - I``."""
    gram = system.left.conj().T @ system.right
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def completeness_residual(system: BiorthogonalSystem) -> float:
    """Max-entry magnitude of ``sum_j a_j b_j^H - I``."""
    proj = system.right @ system.left.conj().T
    return float(np.max(np.abs(proj - np.eye(system.n))))


def spectrum_is_real(system: BiorthogonalSystem, tol: float = 1e-10) -> bool:
    """True iff every eigenvalue is real to within ``tol`` relative to the spectrum scale."""
    scale = float(np.max(np.abs(system.eigenvalues))) if system.eigenvalues.size else 0.0
    worst = float(np.max(np.abs(system.eigenvalues.imag))) if system.eigenvalues.size else 0.0
    if scale == 0.0:
        return worst <= tol
    return worst <= tol * scale
