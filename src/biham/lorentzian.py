"""Two-level Lorentzian model and adiabatic parameter sweeps.

The generator is the Bogoliubov-de Gennes form

    h(x, y, z) = [[ z,       x + i*y ],
                  [ -x + i*y,  -z    ]],

whose spectrum ``+-sqrt(z^2 - x^2 - y^2)`` is real inside the region
``z^2 >= x^2 + y^2``.  In the strict interior both eigenvector families have
closed forms in terms of Bogoliubov coefficients ``(u, v)`` with
``|u|^2 - |v|^2 = 1``, which this module evaluates directly and uses to track
per-mode action invariants ``I_j = hbar * cbar_j * c_j`` (the occupation
numbers) along slow parameter sweeps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (MAX_STEP_FRACTION, StatePair, Trajectory, _absent,
                       _first_non_finite_row, _frozen, overlap, step_count)
from .errors import NonFinite, OutsideRealRegime, StepTooLarge
from .spectral import BiorthogonalSystem

DEFAULT_SAMPLES = 201


def _unit(x, y, z) -> float:
    """Power of two that puts ``(x, y, z) * unit`` where squares neither overflow nor
    underflow: 1 while the largest magnitude lies in [2^-500, 2^500), where the closed
    forms keep the bits of ``**`` (libm's pow, which an exact rescaling can round
    differently), and otherwise the one that brings it into [0.5, 1)."""
    exponent = math.frexp(max(abs(x), abs(y), abs(z)))[1]
    return 1.0 if -500 < exponent <= 500 else math.ldexp(1.0, min(-exponent, 1023))


@dataclass(frozen=True)
class LorentzianParams:
    """Real parameters (x, y, z) of the two-level generator."""

    x: float
    y: float
    z: float

    @property
    def discriminant(self) -> float:
        """z^2 - x^2 - y^2; nonnegative iff the spectrum is real."""
        return self.z * self.z - self.x * self.x - self.y * self.y

    @property
    def scaled_discriminant(self) -> float:
        """The discriminant of ``(x, y, z) * _unit(x, y, z)``: its sign at every scale,
        nonnegative iff the spectrum is real."""
        unit = _unit(self.x, self.y, self.z)
        x, y, z = self.x * unit, self.y * unit, self.z * unit
        return z * z - x * x - y * y

    @property
    def spectral_norm(self) -> float:
        """Largest singular value |z| + sqrt(x^2 + y^2) of the generator."""
        return abs(self.z) + math.hypot(self.x, self.y)


@dataclass
class LorentzianEigenpair:
    """Bogoliubov coefficients (u, v) and the eigenvalue E of the (u, v) mode.

    The (u, v) mode is the positive-norm one (``|u|^2 - |v|^2 = 1``); its
    eigenvalue is ``E = sgn(z) * sqrt(z^2 - x^2 - y^2)``, so the sign tracks
    the ``z`` parameter.  The partner mode carries ``-E``.
    """

    u: complex
    v: complex
    E: float

    def right_vectors(self) -> np.ndarray:
        """Columns a_1 = (u, v), a_2 = (v*, u*)."""
        u, v = self.u, self.v
        return np.array([[u, np.conj(v)], [v, np.conj(u)]], dtype=complex)

    def left_vectors(self) -> np.ndarray:
        """Columns b_1 = (u, -v), b_2 = (-v*, u*)."""
        u, v = self.u, self.v
        return np.array([[u, -np.conj(v)], [-v, np.conj(u)]], dtype=complex)

    def system(self) -> BiorthogonalSystem:
        """The closed-form eigenbasis: eigenvalues ``(E, -E)``, unsorted, and these columns.

        On it, :func:`biham.dynamics.conjugate_field` of a state ``psi`` with
        constants ``csq`` has closed form: with ``d_1 = u* psi_1 - v* psi_2`` and
        ``d_2 = -v psi_1 + u psi_2`` (the modal coefficients ``<b_j|psi>``),

            phibar_1 =  csq_1 u* / d_1  -  csq_2 v / d_2,
            phibar_2 = -csq_1 v* / d_1  +  csq_2 u / d_2,

        dropping each term whose ``csq_j`` is zero.
        """
        return BiorthogonalSystem([self.E, -self.E], self.right_vectors(), self.left_vectors())


def lorentzian_matrix(p: LorentzianParams) -> np.ndarray:
    """Assemble the 2x2 generator [[z, x+iy], [-x+iy, -z]]."""
    w = p.x + 1j * p.y
    return np.array([[p.z, w], [-np.conj(w), -p.z]], dtype=complex)


def lorentzian_uv(p: LorentzianParams) -> LorentzianEigenpair:
    """Closed-form eigenstructure in the strict interior of the real regime.

    With ``W = sqrt(z^2 - x^2 - y^2)`` and
    ``D = sqrt((|z| + W)^2 - x^2 - y^2)``:

        u = -sgn(z) * (W + |z|) / D,    v = (x - i*y) / D.

    The assembled mode ``a_1 = (u, v)`` satisfies ``h a_1 = E a_1`` with
    ``E = sgn(z) * W``: the positive-norm mode follows the sign of ``z``
    (the +W eigenvector for z < 0 has Bogoliubov norm -1 and therefore
    cannot be written in (u, v) form).

    Raises
    ------
    OutsideRealRegime
        If ``z^2 <= x^2 + y^2`` (complex or exceptional spectrum; the closed
        forms break down and sgn(z) is not defined at z = 0).
    """
    return LorentzianEigenpair(*_closed_form(p.x, p.y, p.z))


def _closed_form(x0, y0, z0):
    """``(u, v, E)`` of :func:`lorentzian_uv` at ``(x0, y0, z0)``, in the caller's scalar types."""
    # (u, v) are scale-free: they come from the scaled parameters, and E is scaled back
    unit = _unit(x0, y0, z0)
    x, y, z = x0 * unit, y0 * unit, z0 * unit
    disc = z * z - x * x - y * y
    if disc <= 0.0:
        raise OutsideRealRegime(
            f"(x, y, z) = ({x0:g}, {y0:g}, {z0:g}) has z^2 - x^2 - y^2 = "
            f"{disc / unit / unit:g} <= 0"
        )
    root = math.sqrt(disc)
    az = abs(z)
    denom = math.sqrt((az + root) ** 2 - x * x - y * y)
    sign = 1.0 if z > 0 else -1.0
    u = -sign * (root + az) / denom
    v = (x - 1j * y) / denom
    return complex(u), complex(v), sign * root / unit


@dataclass
class SweepPath:
    """Segment ``start`` -> ``end`` in (x, y, z), swept in time ``T``, recorded ``samples`` times.

    Its two endpoints decide the regime and step checks exactly.  ``start`` and
    ``end`` are stored as tuples.
    """

    start: tuple
    end: tuple
    T: float
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        self.start, self.end = tuple(self.start), tuple(self.end)
        if not self.T > 0:
            raise ValueError("duration T must be positive")
        if self.samples < 2:
            raise ValueError("at least two samples required")

    def params_at(self, s: float) -> LorentzianParams:
        return LorentzianParams(*self.point_at(s))

    def point_at(self, s: float) -> tuple:
        """``(x, y, z)`` at fraction ``s`` of the path."""
        (x0, y0, z0), (x1, y1, z1) = self.start, self.end
        return x0 + (x1 - x0) * s, y0 + (y1 - y0) * s, z0 + (z1 - z0) * s


def check_real_regime(path: SweepPath) -> None:
    """Raise OutsideRealRegime unless ``z^2 > x^2 + y^2`` all along the path.

    Exact: while ``z`` keeps its sign, ``|z| - hypot(x, y)`` is concave, so
    smallest at an end; where ``z`` changes sign, ``z = 0`` is outside.  Signs
    and scaled discriminants keep it exact at every scale.
    """
    a, b = path.params_at(0.0), path.params_at(1.0)
    crossing = not (min(a.z, b.z) > 0.0 or max(a.z, b.z) < 0.0)
    if crossing or min(a.scaled_discriminant, b.scaled_discriminant) <= 0.0:
        raise OutsideRealRegime(
            f"path from ({a.x:g}, {a.y:g}, {a.z:g}) to ({b.x:g}, {b.y:g}, {b.z:g}) leaves the "
            f"real-spectrum regime z^2 > x^2 + y^2{' where z changes sign' if crossing else ''}")


def check_sweep_step(path: SweepPath, dt: float, hbar: float = 1.0) -> int:
    """Step count ``step_count(T, dt)``; StepTooLarge if ``dt_eff = T/steps`` breaks the guard.

    ``||h|| = |z| + hypot(x, y)`` is convex, so largest at an end.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    steps = step_count(path.T, dt)
    norm = max(path.params_at(0.0).spectral_norm, path.params_at(1.0).spectral_norm)
    ratio = path.T / steps * norm / hbar
    if not ratio <= MAX_STEP_FRACTION:  # a nan ratio is refused too
        raise StepTooLarge(
            f"dt*||h||/hbar = {ratio:.3g} exceeds the stability guard {MAX_STEP_FRACTION}")
    return steps


@dataclass
class ActionRecord:
    """Per-mode action invariants I_j(t) = hbar*cbar_j(t)*c_j(t) along a sweep.

    ``deviations[k, j]`` is ``|I_j(t_k) - I_j(0)| / |I_j(0)|`` for occupied
    modes and the absolute deviation for absent ones: those with
    ``|I_j(0)| <= ABSENT_MODE_CUTOFF * (|I_1(0)| + |I_2(0)|)``, zero action included.
    ``overlaps`` carries the conserved <phibar|psi> at the sample times.
    """

    times: np.ndarray
    actions: np.ndarray
    deviations: np.ndarray
    overlaps: np.ndarray


def initial_sweep_state(path: SweepPath, csq, hbar: float = 1.0) -> StatePair:
    """State pair occupying the instantaneous modes at s=0 with constants ``csq``.

    Takes ``c_j(0) = sqrt(csq_j)`` so that ``|cbar_j(0)| = |c_j(0)|``, the
    convenient real-spectrum initialization.
    """
    csq = np.asarray(csq, dtype=float)
    if csq.shape != (2,):
        raise ValueError("two-level model expects length-2 csq")
    pair = lorentzian_uv(path.params_at(0.0))
    amp = np.sqrt(csq)
    right = pair.right_vectors()
    left = pair.left_vectors()
    psi = right @ amp.astype(complex)
    phibar = left.conj() @ amp.astype(complex)
    return StatePair(psi=psi, phibar=phibar, t=0.0, hbar=hbar)


# steps per block of the sweep kernel: its arrays hold O(_CHUNK * _BLOCK) entries at any
# step count.  Pieces end at every block edge as well as at every sample, which fixes
# the rounding of every composed piece and so of the sweep's output.
_BLOCK = 1024
# blocks whose pieces are built and composed in one call.  At 6 the next chunk reuses the
# heap a chunk frees (see _rk4_increments) at every environment size tested; at 8 it did
# not at most of them, and the reuse does not follow the chunk size monotonically
_CHUNK = 6

# The sweep kernel's 2x2 matrices all have the form [[a, b], [conj(b), conj(a)]]:
# -i*dt*h/hbar has it (a = -i*dt*z/hbar with z real, b = -i*dt*(x + iy)/hbar),
# and real combinations and products keep it.  Each is carried as its first
# row, two arrays a and b of the same shape.


def _mul(pa, pb, qa, qb):
    """Products ``p[k] @ q[k]`` of matrices given as their rows (a, b)."""
    return pa * qa + pb * qb.conj(), pa * qb + pb * qa.conj()


def _rk4_increments(path: SweepPath, dt: float, hbar: float, steps: int, k0: int, k1: int):
    """``D_k = M_k - I`` for steps ``k0 <= k < k1`` as (a, b), index k.

    ``M_k`` is one classical RK4 step of the linear ODE ``x' = A(s) x`` from A
    at ``s = k/steps``, ``(k + 1/2)/steps`` and ``(k + 1)/steps``, which is
    exact because h is affine in s.  Each stage is kept scaled by ``dt``.
    """
    n = k1 - k0
    # the generators and stages share one allocation, the largest of a chunk: glibc's malloc
    # trims its heap only past twice the largest block it has unmapped, so the heap a chunk
    # frees is kept for the next one, not returned to the system and faulted back in
    work = np.empty(10 * n + 2, complex)
    ga, gb = work[:4 * n + 2].reshape(2, 2 * n + 1)
    a2, b2, a3, b3, a4, b4 = work[4 * n + 2:].reshape(6, n)
    # -i*dt*h(s)/hbar, the generator of psi' = -(i/hbar) h psi, with the float operations of
    # SweepPath.params_at: s = k/steps at even entries, (k + 1/2)/steps at odd ones
    (x0, y0, z0), (x1, y1, z1) = path.start, path.end
    s, r = np.arange(2 * k0, 2 * k1 + 1) / 2 / steps, dt / hbar  # a = -i r z, b = -i r (x + iy)
    ga.real = 0.0
    np.multiply(-r, z0 + (z1 - z0) * s, out=ga.imag)
    np.multiply(r, y0 + (y1 - y0) * s, out=gb.real)
    np.multiply(-r, x0 + (x1 - x0) * s, out=gb.imag)
    a0, am, a1 = ga[0:-1:2], ga[1::2], ga[2::2]
    b0, bm, b1 = gb[0:-1:2], gb[1::2], gb[2::2]
    pa, pb = _mul(am, bm, a0, b0)
    np.add(am, 0.5 * pa, out=a2), np.add(bm, 0.5 * pb, out=b2)
    pa, pb = _mul(am, bm, a2, b2)
    np.add(am, 0.5 * pa, out=a3), np.add(bm, 0.5 * pb, out=b3)
    pa, pb = _mul(a1, b1, a3, b3)
    np.add(a1, pa, out=a4), np.add(b1, pb, out=b4)
    return (a0 + 2.0 * (a2 + a3) + a4) / 6.0, (b0 + 2.0 * (b2 + b3) + b4) / 6.0


def _compose(a: np.ndarray, b: np.ndarray, cuts: np.ndarray):
    """Increment of each piece ``cuts[p] <= k < cuts[p + 1]`` of ``(a[k], b[k])``, index p.

    ``E`` of a piece has ``I + E = (I + D_last) ... (I + D_first)``.  Pieces
    are padded with zero increments (exact identity steps) to one width and
    reduced together by a pairwise tree in increment form, ``Ea + Eb + Eb Ea``
    for ``Ea`` then ``Eb``: the product of the ``I + D`` matrices would round
    their near-1 diagonals at every step and drift by about ``steps * eps``.
    Pieces end at sample marks, which are near-equally spaced, and at block
    edges, so the padding stays below a few times the steps composed.
    """
    lengths = np.diff(cuts)
    offsets = np.arange(lengths.max())
    # a padded slot points past the end, at the appended zero increment
    at = np.where(offsets < lengths[:, None], cuts[:-1, None] + offsets, a.shape[-1])
    zero = np.zeros(1, complex)
    a, b = np.concatenate((a, zero))[at], np.concatenate((b, zero))[at]
    while a.shape[-1] > 1:
        n = a.shape[-1]
        fa, fb, ta, tb = a[:, 0:n - 1:2], b[:, 0:n - 1:2], a[:, 1:n:2], b[:, 1:n:2]
        pa, pb = _mul(ta, tb, fa, fb)
        pa, pb = fa + ta + pa, fb + tb + pb
        if n % 2:
            pa = np.concatenate((pa, a[:, -1:]), axis=1)
            pb = np.concatenate((pb, b[:, -1:]), axis=1)
        a, b = pa, pb
    return a[:, 0], b[:, 0]


def sweep_adiabatic(path: SweepPath, state0: StatePair, dt: float) -> ActionRecord:
    """Integrate the coupled pair along ``h(path(t/T))`` and record the actions.

    The instantaneous eigenbasis at each sample comes from the closed forms,
    whose fixed branch labels the modes continuously: inside the real regime
    ``z`` cannot change sign, so no eigenvalue-sorting label swaps can occur.
    Mode 1 is the positive-norm (u, v) mode with ``E = sgn(z) * sqrt(z^2 -
    x^2 - y^2)``, mode 2 carries ``-E``.  It takes ``round(T/dt)`` classical
    RK4 steps of ``dt_eff = T/steps``, so it ends exactly at ``T``.

    h is affine in s, so each RK4 step is exactly a 2x2 matrix ``M_k`` per
    field.  The kernel builds psi's increments ``M_k - I`` for ``_CHUNK``
    blocks of ``_BLOCK`` steps at a time, composes them into pieces that end
    at every block edge and every sample, takes phibar's pieces from psi's,
    and applies one composed increment per piece: Python runs per chunk and
    per piece, not per step, and memory does not grow with the step count.
    The actions at all samples are evaluated together after the steps.

    Raises
    ------
    OutsideRealRegime
        If the path leaves ``z^2 > x^2 + y^2`` anywhere, even by grazing: the
        actions are the paper's invariants only there.
    StepTooLarge
        If ``dt_eff`` violates the stability guard anywhere along the path.
    NonFinite
        If the state overflows; reported at the first sample after it.
    """
    hbar = state0.hbar
    check_real_regime(path)
    steps = check_sweep_step(path, dt, hbar)
    dt_eff = path.T / steps

    marks = np.unique(np.round(np.linspace(0, steps, path.samples)).astype(int))
    # states[m, :, j] at marks[m]; column j is the field: psi, then phibar as a column
    states = np.empty((len(marks), 2, 2), dtype=complex)
    x = np.stack([state0.psi, state0.phibar], axis=1)
    states[0] = x
    mark_list = marks.tolist()
    m = 1
    # every piece's end, marks and block edges; a chunk's cuts run from its first step
    # to its last, both block edges or the run's ends, so both are among them
    cuts_all = np.union1d(marks, np.arange(0, steps, _BLOCK))
    chunk_edges = [*range(0, steps, _CHUNK * _BLOCK), steps]
    at = np.searchsorted(cuts_all, chunk_edges).tolist()
    # overflow is a detected condition here, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1, lo, hi in zip(chunk_edges, chunk_edges[1:], at, at[1:]):
            cuts = cuts_all[lo:hi + 1]
            pa, pb = _compose(*_rk4_increments(path, dt_eff, hbar, steps, k0, k1), cuts - k0)
            # phibar's generator is (conj(a), -conj(b)) of psi's and a piece is a real
            # polynomial in generators, so phibar's pieces follow from psi's, bit for bit
            # but for the sign of a zero b, which the state does not show
            ca, cb = pa.conj(), pb.conj()
            # a piece adds first * x[0] + second * x[1]: rows (a, conj(b)) and (b, conj(a))
            first = np.moveaxis(np.array([[pa, ca], [cb, -pb]]), -1, 0)
            second = np.moveaxis(np.array([[pb, -cb], [ca, pa]]), -1, 0)
            for end, f, g in zip(cuts[1:].tolist(), first, second):
                x = x + (f * x[0] + g * x[1])
                if end == mark_list[m]:
                    states[m] = x
                    m += 1
        samples = Trajectory(*_frozen(marks * dt_eff, states[..., 0], states[..., 1]), hbar)
        # a non-finite entry stays non-finite, so the first bad mark is the first overflow
        bad = _first_non_finite_row(samples.psi, samples.phibar)
        if bad is not None:
            raise NonFinite(f"sweep state overflowed at step {marks[bad]}")

        # the closed forms per sample, in the caller's scalar types: numpy's powers
        # round differently from Python's
        u, v = np.array([_closed_form(*path.point_at(k / steps))[:2] for k in marks.tolist()],
                        dtype=complex).T
        # LorentzianEigenpair's right and left vectors, one C-ordered 2x2 per sample:
        # the products then take the per-sample BLAS calls' roundings
        right = np.stack([u, v.conj(), v, u.conj()], axis=-1).reshape(-1, 2, 2)
        left = np.stack([u, -v.conj(), -v, u.conj()], axis=-1).reshape(-1, 2, 2)
        c = left.conj().transpose(0, 2, 1) @ samples.psi[..., None]
        cbar = samples.phibar[:, None, :] @ right
        actions = hbar * cbar[:, 0] * c[..., 0]
        overlaps = overlap(samples)

    base = actions[0]
    deviations = np.abs(actions - base)
    occupied = ~_absent(base)
    deviations[:, occupied] /= np.abs(base[occupied])
    return ActionRecord(times=samples.t, actions=actions, deviations=deviations,
                        overlaps=overlaps)
