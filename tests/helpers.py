"""Shared random-instance generators for the test suite."""

import numpy as np


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def separated_eigenvalues(rng, n, scale=1.0, min_sep=1e-3, imag_scale=1.0):
    """Random complex eigenvalues with pairwise separation >= min_sep*scale."""
    while True:
        e = (rng.uniform(-1.0, 1.0, n)
             + 1j * imag_scale * rng.uniform(-1.0, 1.0, n)) * scale
        if n == 1:
            return e
        gaps = np.abs(e[:, None] - e[None, :]) + np.eye(n) * 10 * scale
        if gaps.min() >= min_sep * scale:
            return e


def random_diagonalizable(rng, n, scale=1.0, min_sep=1e-3, cond=None, imag_scale=1.0):
    """Construction oracle: h = S diag(E) S^-1 with controlled cond(S).

    ``imag_scale`` shrinks the imaginary parts of the spectrum; long-horizon
    conservation tests need it small so that mode growth exp(|Im E| t) does
    not amplify roundoff past the tolerance under test.

    Returns (h, eigenvalues sorted by (Re, Im), S).
    """
    e = separated_eigenvalues(rng, n, scale=scale, min_sep=min_sep,
                              imag_scale=imag_scale)
    if cond is None:
        cond = float(rng.uniform(1.5, 30.0))
    d = np.logspace(0.0, np.log10(cond), n) if n > 1 else np.ones(1)
    s = (random_unitary(rng, n) * d) @ random_unitary(rng, n)
    h = s @ np.diag(e) @ np.linalg.inv(s)
    order = np.lexsort((e.imag, e.real))
    return h, e[order], s


def random_hermitian(rng, n, norm=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    return h * (norm / np.linalg.norm(h, 2))


def random_state(rng, n, normalize=True):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v) if normalize else v


def count_svds(monkeypatch):
    """Record the shape of each ``np.linalg.svd`` call, also of those ``norm(x, 2)`` makes."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    # the module that defines norm, whatever its name in this numpy version
    monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", counted)
    return calls
