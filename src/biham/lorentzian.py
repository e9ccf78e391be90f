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
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ABSENT_MODE_CUTOFF, MAX_STEP_FRACTION, StatePair, step_count
from .errors import NonFinite, OutsideRealRegime, StepTooLarge, ZeroModalCoefficient

DEFAULT_SAMPLES = 201

# recorded samples of a sweep above this are refused; each is one CSV row
MAX_SAMPLES = 10 ** 6


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
    def in_real_regime(self) -> bool:
        return self.discriminant >= 0.0

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
    disc = p.discriminant
    if disc <= 0.0:
        raise OutsideRealRegime(
            f"(x, y, z) = ({p.x:g}, {p.y:g}, {p.z:g}) has z^2 - x^2 - y^2 = {disc:g} <= 0"
        )
    root = math.sqrt(disc)
    az = abs(p.z)
    denom = math.sqrt((az + root) ** 2 - p.x * p.x - p.y * p.y)
    sign = 1.0 if p.z > 0 else -1.0
    u = -sign * (root + az) / denom
    v = (p.x - 1j * p.y) / denom
    return LorentzianEigenpair(u=complex(u), v=complex(v), E=sign * root)


def lorentzian_conjugate(p: LorentzianParams, psi, csq) -> np.ndarray:
    """Conjugate field of a two-component state via the closed-form expressions.

    With ``d_1 = u* psi_1 - v* psi_2`` and ``d_2 = -v psi_1 + u psi_2`` (the
    modal coefficients ``<b_j|psi>``):

        phibar_1 =  csq_1 u* / d_1  -  csq_2 v / d_2,
        phibar_2 = -csq_1 v* / d_1  +  csq_2 u / d_2,

    dropping each term whose ``csq_j`` is zero.  Agrees with the generic
    :func:`biham.dynamics.conjugate_field` built on the numerically
    decomposed eigenbasis.
    """
    psi = np.asarray(psi, dtype=complex)
    csq = np.asarray(csq, dtype=float)
    if psi.shape != (2,) or csq.shape != (2,):
        raise ValueError("two-level model expects length-2 psi and csq")
    if np.any(csq < 0):
        raise ValueError("modal constants must be nonnegative")
    pair = lorentzian_uv(p)
    u, v = pair.u, pair.v
    d = np.array([np.conj(u) * psi[0] - np.conj(v) * psi[1],
                  -v * psi[0] + u * psi[1]])
    phibar = np.zeros(2, dtype=complex)
    for j in range(2):
        if csq[j] == 0.0:
            continue
        if abs(d[j]) <= ABSENT_MODE_CUTOFF:
            raise ZeroModalCoefficient(
                f"mode {j} has csq={csq[j]:.3g} but |<b_{j}|psi>|={abs(d[j]):.3e}"
            )
        if j == 0:
            phibar += (csq[0] / d[0]) * np.array([np.conj(u), -np.conj(v)])
        else:
            phibar += (csq[1] / d[1]) * np.array([-v, u])
    return phibar


@dataclass
class SweepPath:
    """Segment ``start`` -> ``end`` in (x, y, z), swept in time ``T``, recorded ``samples`` times.

    Its two endpoints decide the regime and step checks exactly.
    """

    start: tuple
    end: tuple
    T: float
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("duration T must be positive")
        if self.samples < 2:
            raise ValueError("at least two samples required")

    @classmethod
    def linear(cls, start, end, T: float, samples: int = DEFAULT_SAMPLES) -> "SweepPath":
        """Straight-line interpolation between two (x, y, z) triples."""
        return cls(tuple(start), tuple(end), T, samples)

    def params_at(self, s: float) -> LorentzianParams:
        (x0, y0, z0), (x1, y1, z1) = self.start, self.end
        return LorentzianParams(x0 + (x1 - x0) * s, y0 + (y1 - y0) * s, z0 + (z1 - z0) * s)


def check_real_regime(path: SweepPath) -> None:
    """Raise OutsideRealRegime unless ``z^2 > x^2 + y^2`` all along the path.

    Exact: while ``z`` keeps its sign, ``|z| - hypot(x, y)`` is concave, so
    smallest at an end; where ``z`` changes sign, ``z = 0`` is outside.
    """
    a, b = path.params_at(0.0), path.params_at(1.0)
    crossing = a.z * b.z <= 0.0
    if crossing or min(a.discriminant, b.discriminant) <= 0.0:
        raise OutsideRealRegime(
            f"path from ({a.x:g}, {a.y:g}, {a.z:g}) to ({b.x:g}, {b.y:g}, {b.z:g}) leaves the "
            f"real-spectrum regime z^2 > x^2 + y^2{' where z changes sign' if crossing else ''}")


def check_sweep_step(path: SweepPath, dt: float, hbar: float = 1.0) -> int:
    """Step count ``step_count(T, dt)``; StepTooLarge if ``dt_eff = T/steps`` breaks the guard.

    ``||h|| = |z| + hypot(x, y)`` is convex, so largest at an end.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = step_count(path.T, dt)
    norm = max(path.params_at(0.0).spectral_norm, path.params_at(1.0).spectral_norm)
    ratio = path.T / steps * norm / hbar
    if ratio > MAX_STEP_FRACTION:
        raise StepTooLarge(
            f"dt*||h||/hbar = {ratio:.3g} exceeds the stability guard {MAX_STEP_FRACTION}")
    return steps


@dataclass
class ActionRecord:
    """Per-mode action invariants I_j(t) = hbar*cbar_j(t)*c_j(t) along a sweep.

    ``deviations[k, j]`` is ``|I_j(t_k) - I_j(0)| / |I_j(0)|`` for occupied
    modes and the absolute deviation for modes starting at zero action.
    ``overlaps`` carries the conserved <phibar|psi> at the sample times.
    """

    times: np.ndarray
    actions: np.ndarray
    deviations: np.ndarray
    overlaps: np.ndarray = field(default=None)

    def max_deviation(self) -> float:
        return float(np.max(self.deviations))


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


def _instantaneous_actions(p: LorentzianParams, psi, phibar, hbar: float,
                           tolerant: bool = False) -> np.ndarray:
    if tolerant and p.discriminant <= 0.0:
        # closed forms break down; report the breakdown instead of raising
        return np.array([np.nan, np.nan], dtype=complex)
    pair = lorentzian_uv(p)
    c = pair.left_vectors().conj().T @ psi
    cbar = phibar @ pair.right_vectors()
    return hbar * cbar * c


def sweep_adiabatic(path: SweepPath, state0: StatePair, dt: float,
                    require_real_spectrum: bool = True) -> ActionRecord:
    """Integrate the coupled pair along ``h(path(t/T))`` and record the actions.

    The instantaneous eigenbasis at each sample comes from the closed forms,
    whose fixed branch labels the modes continuously: inside the real regime
    ``z`` cannot change sign, so no eigenvalue-sorting label swaps can occur.
    Mode 1 is the positive-norm (u, v) mode with ``E = sgn(z) * sqrt(z^2 -
    x^2 - y^2)``, mode 2 carries ``-E``.  It takes ``round(T/dt)`` steps
    of ``dt_eff = T/steps``, so it ends exactly at ``T``.

    Raises
    ------
    OutsideRealRegime
        If the path leaves ``z^2 > x^2 + y^2`` anywhere, even by grazing,
        while the invariant test is active (``require_real_spectrum=True``).
    StepTooLarge
        If ``dt_eff`` violates the stability guard anywhere along the path.
    """
    hbar = state0.hbar
    if require_real_spectrum:
        check_real_regime(path)
    steps = check_sweep_step(path, dt, hbar)
    dt_eff = path.T / steps

    sample_steps = np.unique(np.round(np.linspace(0, steps, path.samples)).astype(int))
    sample_set = set(int(k) for k in sample_steps)

    times, actions, overlaps = [], [], []

    def record(k, ps, pb):
        t = k * dt_eff
        p = path.params_at(k / steps)
        times.append(t)
        actions.append(_instantaneous_actions(p, ps, pb, hbar,
                                              tolerant=not require_real_spectrum))
        overlaps.append(np.sum(pb * ps))

    # scalar 2x2 RK4 kernel; numpy per-step overhead dominates otherwise
    (x0, y0, z0), (x1, y1, z1) = path.start, path.end

    def entries(s):
        """(z, x + iy) at s, with the float operations of ``SweepPath.params_at``."""
        return complex(z0 + (z1 - z0) * s), (x0 + (x1 - x0) * s) + 1j * (y0 + (y1 - y0) * s)

    a = -1j / hbar
    b = 1j / hbar

    def rhs(z, w, p1, p2, f1, f2):
        wc = w.conjugate()
        return (a * (z * p1 + w * p2), a * (-wc * p1 - z * p2),
                b * (f1 * z - f2 * wc), b * (f1 * w - f2 * z))

    p1, p2 = complex(state0.psi[0]), complex(state0.psi[1])
    f1, f2 = complex(state0.phibar[0]), complex(state0.phibar[1])

    if 0 in sample_set:
        record(0, np.array([p1, p2]), np.array([f1, f2]))
    half = 0.5 * dt_eff
    sixth = dt_eff / 6.0
    z_end, w_end = entries(0.0)
    for k in range(steps):
        z_start, w_start = z_end, w_end  # step k-1's end point, s = k/steps
        zm, wm = entries((k + 0.5) / steps)
        z_end, w_end = entries((k + 1) / steps)
        a1, a2, a3, a4 = rhs(z_start, w_start, p1, p2, f1, f2)
        b1, b2, b3, b4 = rhs(zm, wm, p1 + half * a1, p2 + half * a2,
                             f1 + half * a3, f2 + half * a4)
        c1, c2, c3, c4 = rhs(zm, wm, p1 + half * b1, p2 + half * b2,
                             f1 + half * b3, f2 + half * b4)
        d1, d2, d3, d4 = rhs(z_end, w_end, p1 + dt_eff * c1, p2 + dt_eff * c2,
                             f1 + dt_eff * c3, f2 + dt_eff * c4)
        p1 += sixth * (a1 + 2 * b1 + 2 * c1 + d1)
        p2 += sixth * (a2 + 2 * b2 + 2 * c2 + d2)
        f1 += sixth * (a3 + 2 * b3 + 2 * c3 + d3)
        f2 += sixth * (a4 + 2 * b4 + 2 * c4 + d4)
        if (k + 1) in sample_set:
            psi = np.array([p1, p2])
            phibar = np.array([f1, f2])
            if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(phibar))):
                raise NonFinite(f"sweep state overflowed at step {k + 1}")
            record(k + 1, psi, phibar)

    times = np.asarray(times)
    actions = np.asarray(actions)
    overlaps = np.asarray(overlaps)
    base = actions[0]
    deviations = np.empty_like(actions, dtype=float)
    for j in range(actions.shape[1]):
        gap = np.abs(actions[:, j] - base[j])
        deviations[:, j] = gap / abs(base[j]) if abs(base[j]) > ABSENT_MODE_CUTOFF else gap
    return ActionRecord(times=times, actions=actions, deviations=deviations,
                        overlaps=overlaps)
