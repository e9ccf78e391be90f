"""Evolution of a right state and its conjugate field.

The right state follows ``i*hbar d|psi>/dt = h|psi>`` while the conjugate
field follows the adjoint dynamics ``-i*hbar d<phibar|/dt = <phibar| h``.
The pair makes the overlap ``<phibar|psi>`` a constant of motion for any
``h``, Hermitian or not; the familiar norm conservation is recovered when
``h`` is Hermitian and ``phibar = psi^H``.

Two propagators are provided: exact eigenbasis propagation through a
:class:`~biham.spectral.BiorthogonalSystem`, and a fixed-step classical RK4
integrator for cross-validation (global error O(dt^4), no adaptive stepping).
The exact one expands the initial state once and propagates it by every
recorded duration in one stacked product per field (:func:`exact_records`).
For constant ``h`` one RK4 step is exactly its stability polynomial
``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` at ``z = -i*dt*h/hbar``, so the
integrator builds ``D = R(z) - 1`` once, raises ``I + D`` to the number of
steps between records by binary powering in increment form, and applies
the result as one matrix-vector product per recorded interval and field.
Building these step maps needs no eigenvector.  Both propagators return a
:class:`Trajectory`, of which :func:`overlap` and :func:`right_norm` give one
value per record.
"""

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NonFinite, StepTooLarge, ZeroModalCoefficient
from .spectral import BiorthogonalSystem, _readonly, as_square_matrix

DEFAULT_HBAR = 1.0

# dt * ||h|| / hbar above this rejects the step outright
MAX_STEP_FRACTION = 0.5

# |<b_j|psi>| at or below this times sum_k |<b_k|psi>| treats mode j as absent from psi;
# a sweep's action I_j at or below it times sum_k |I_k| likewise
ABSENT_MODE_CUTOFF = 1e-12

# step counts above this are refused as a config error, not run for hours
MAX_STEPS = 10 ** 8

# recorded rows of a run above this are refused: evolve and continuum
# snapshots, sweep samples; each is held in memory and written as one CSV row
MAX_RECORDS = 10 ** 6

# recorded complex entries of an evolve or continuum run above this are refused:
# rows times 2n (psi and phibar), 512 MiB held
MAX_RECORD_ENTRIES = 2 ** 25

# single steps of an interval whose composed increment overflows are checked for
# overflow this often, so such a run ends soon after its state does
_FINITE_CHECK_EVERY = 1024


def _state_vector(v, n=None) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D state vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state components must be finite")
    return v


def _frozen(*arrays: np.ndarray) -> tuple:
    """``arrays``, made read-only in place: a propagator's own, which a Trajectory then shares."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass
class StatePair:
    """Right state ``psi`` and conjugate row ``phibar`` at time ``t``.

    The components carry the full canonical phase-space content: the
    coordinates are ``i*hbar*psi_k`` and the momenta ``phibar_k``, so the
    phase-space dimension is ``2n``.  Arrays are stored read-only, and a
    writeable one is copied first, so the caller's array stays writeable;
    evolution returns new instances.  The state of a lattice field is one too.
    """

    psi: np.ndarray
    phibar: np.ndarray
    t: float = 0.0
    hbar: float = DEFAULT_HBAR

    def __post_init__(self):
        psi = _state_vector(self.psi)
        phibar = _state_vector(self.phibar, psi.shape[0])
        # a read-only input, such as a Trajectory row, is shared as it is
        self.psi, self.phibar = _readonly(psi), _readonly(phibar)
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")

    @property
    def n(self) -> int:
        return self.psi.shape[0]


@dataclass(frozen=True, eq=False)
class Trajectory(Sequence):
    """Recorded states of a run, stacked: record ``k`` is ``t[k]``, ``psi[k]``, ``phibar[k]``.

    The arrays are read-only, and a writeable one is copied first, so the
    caller's array stays writeable; the propagators pass arrays they froze.
    Item ``k`` is a :class:`StatePair` view of row ``k``, built when it is
    read; a slice is a trajectory of the same rows.
    """

    t: np.ndarray
    psi: np.ndarray
    phibar: np.ndarray
    hbar: float = DEFAULT_HBAR

    def __post_init__(self):
        for name in ("t", "psi", "phibar"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return replace(self, t=self.t[k], psi=self.psi[k], phibar=self.phibar[k])
        return StatePair(psi=self.psi[k], phibar=self.phibar[k], t=float(self.t[k]),
                         hbar=self.hbar)


@dataclass
class ModalCoordinates:
    """Modal coefficients ``c_j = <b_j|psi>`` and ``cbar_j = <phibar|a_j>`` of a state pair.

    Along exact evolution each product ``cbar_j * c_j``, the modal constant
    ``|C_j|^2``, is a constant of motion.
    """

    c: np.ndarray
    cbar: np.ndarray

    @classmethod
    def from_state(cls, system: BiorthogonalSystem, state: StatePair) -> "ModalCoordinates":
        return cls(c=expand_state(system, state.psi), cbar=state.phibar @ system.right)


def schrodinger_rhs(h, psi, phibar, hbar: float = DEFAULT_HBAR):
    """Right-hand sides ``dpsi/dt = -(i/hbar) h psi`` and ``dphibar/dt = +(i/hbar) phibar h``."""
    return (-1j / hbar) * (h @ psi), (1j / hbar) * (phibar @ h)


def expand_state(system: BiorthogonalSystem, psi) -> np.ndarray:
    """Modal coefficients ``c_j = <b_j|psi>`` of a state in the right eigenbasis."""
    psi = _state_vector(psi, system.n)
    return system.left.conj().T @ psi


def _absent(v: np.ndarray) -> np.ndarray:
    """Which modes of amplitudes or actions ``v`` are absent: ``|v_j| <= ABSENT_MODE_CUTOFF *
    sum_k |v_k|``, relative to the whole, so scale free; the sum of scaled terms cannot overflow."""
    magnitude = np.abs(v)
    return magnitude <= np.sum(ABSENT_MODE_CUTOFF * magnitude)


def conjugate_field(system: BiorthogonalSystem, psi, csq=None) -> np.ndarray:
    """Conjugate field ``phibar = sum_j (csq_j / <b_j|psi>) b_j^H`` as a row.

    Modes with ``csq_j = 0`` are simply absent from the sum.  ``csq`` defaults
    to ``|c_j|^2`` of ``c_j = <b_j|psi>``, zero for a mode absent from ``psi``
    (``|c_j|`` at or below ``ABSENT_MODE_CUTOFF`` times ``sum_k |c_k|``): the
    convenient real-spectrum initialization ``|cbar_j(0)| = |c_j(0)|``, with
    which the conjugate field of Hermitian ``h`` is ``psi^H``.

    Raises
    ------
    ZeroModalCoefficient
        If ``csq_j > 0`` for a mode absent from ``psi``.
    NonFinite
        If a coefficient ``c_j`` or the field overflows, as the field does
        for ``|c_j|^2`` beyond the float range.
    """
    # an overflowing c_j or |c_j|^2 is inf or nan here, NonFinite below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        c = expand_state(system, psi)
        absent = _absent(c)
        if csq is None:
            csq = np.abs(c) ** 2
            csq[absent] = 0.0
    csq = np.asarray(csq, dtype=float)
    if csq.shape != (system.eigenvalues.shape[0],):
        raise ValueError("one modal constant per mode required")
    if np.any(csq < 0):
        raise ValueError("modal constants must be nonnegative")
    if not np.all(np.isfinite(c)):  # an infinite c_j marks every mode absent
        raise NonFinite("the modal coefficients of psi overflow")
    occupied = csq > 0
    missing = occupied & absent
    if np.any(missing):
        j = int(np.flatnonzero(missing)[0])
        raise ZeroModalCoefficient(
            f"mode {j} has csq={csq[j]:.3g} but |<b_{j}|psi>|={abs(c[j]):.3e}; "
            f"the requested mode is absent from psi"
        )
    cbar = np.zeros_like(c)
    with np.errstate(over="ignore", invalid="ignore"):
        cbar[occupied] = csq[occupied] / c[occupied]
        phibar = system.left.conj() @ cbar
    if not np.all(np.isfinite(phibar)):
        raise NonFinite(f"the conjugate field overflows: modal constants up to "
                        f"{np.max(csq):.3g}")
    return phibar


def initial_state(system: BiorthogonalSystem, psi0, csq=None,
                  hbar: float = DEFAULT_HBAR) -> StatePair:
    """State pair at ``t = 0`` of ``psi0`` and its :func:`conjugate_field` for ``csq``."""
    return StatePair(psi=psi0, phibar=conjugate_field(system, psi0, csq), hbar=hbar)


def _first_non_finite_row(psi: np.ndarray, phibar: np.ndarray):
    """Index of the first row of ``psi`` or ``phibar`` with a non-finite entry, or None."""
    bad = ~(np.isfinite(psi).all(axis=1) & np.isfinite(phibar).all(axis=1))
    return int(bad.argmax()) if bad.any() else None


def exact_records(system: BiorthogonalSystem, state0: StatePair, durations) -> Trajectory:
    """Records of ``state0`` propagated by each of ``durations``, at ``state0.t + durations``.

    ``c_j(t) = c_j(0) exp(-i E_j t / hbar)`` and
    ``cbar_j(t) = cbar_j(0) exp(+i E_j t / hbar)``; the overlap is preserved
    up to roundoff for arbitrary (also complex) spectra.  ``state0`` is
    expanded once, and each field is one stacked product, which numpy takes
    as one matrix-vector product per row: a row has the bits of a one-row
    call.  A growing mode that overflows raises :class:`NonFinite` at the
    first row it reaches.
    """
    durations = np.asarray(durations, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # c0 and cbar0 as (1, n) rows: for n = 1 numpy rounds the broadcast
        # (1,) * (1, 1) product differently from the one-row (1,) * (1,) one,
        # and (1, 1) * (1, 1) as the latter
        modal = ModalCoordinates.from_state(system, state0)
        c0, cbar0 = modal.c[None, :], modal.cbar[None, :]
        phase = np.exp(-1j * system.eigenvalues * durations[:, None] / state0.hbar)
        # three (rows, n) stacks at the peak, each dropped once used; an in-place
        # c0 * phase of one row and mode would round as a Python complex product
        c, cbar = c0 * phase, cbar0 / phase
        del phase
        psi = (system.right @ c[:, :, None])[:, :, 0]
        del c
        phibar = (system.left.conj() @ cbar[:, :, None])[:, :, 0]
        t = state0.t + durations  # a time beyond the float range is inf
    bad = _first_non_finite_row(psi, phibar)
    if bad is not None:
        raise NonFinite(f"state overflowed by t={t[bad]:.6g}")
    return Trajectory(*_frozen(t, psi, phibar), state0.hbar)


def evolve_exact(system: BiorthogonalSystem, state0: StatePair, t: float) -> StatePair:
    """Propagate a state pair by duration ``t``: record 0 of :func:`exact_records`."""
    return exact_records(system, state0, [t])[0]


def check_step(h, dt: float, hbar: float) -> None:
    """Raise :class:`StepTooLarge` if ``dt * ||h||_2 / hbar`` exceeds the guard or is nan.

    ``||h||_2 <= sqrt(||h||_1 ||h||_inf)``, so a ratio from that bound within the
    guard passes without an SVD; ``||h||_2`` is computed only otherwise.
    ``ValueError`` if ``dt`` is not positive or ``h`` has a non-finite entry.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    # an overflowing ratio is inf and still refused, a nan one too
    with np.errstate(over="ignore"):
        magnitude = np.abs(h)
        col, row = np.max(magnitude.sum(axis=0)), np.max(magnitude.sum(axis=1))
        # subnormal sums have lost their relative precision; the SVD decides those
        if min(col, row) >= np.finfo(float).tiny:
            # the factor covers the rounding of the sums and of the SVD's own norm.
            # Taken before dt and hbar, it leaves a bound above ||h||_2 as computed,
            # so the ratio below, rounded as the SVD's is, cannot fall under it
            bound = np.sqrt(col) * np.sqrt(row) * (1.0 + 1e-6)
            if dt * bound / hbar <= MAX_STEP_FRACTION:
                return
        ratio = dt * np.linalg.norm(h, 2) / hbar
    if not ratio <= MAX_STEP_FRACTION:
        raise StepTooLarge(
            f"dt*||h||/hbar = {ratio:.3g} exceeds the stability guard {MAX_STEP_FRACTION}"
        )


def step_count(duration: float, dt: float) -> int:
    """Steps ``max(1, round(duration/dt))``; ConfigError if not finite or above MAX_STEPS."""
    ratio = duration / dt
    if not np.isfinite(ratio):
        raise ConfigError(f"{duration!r}/{dt!r} = {ratio} is not a finite step count")
    steps = max(1, round(ratio))
    if steps > MAX_STEPS:
        raise ConfigError(f"{duration!r}/{dt!r} = {steps:.6g} steps exceeds the limit of "
                          f"{MAX_STEPS}")
    return steps


def record_count(steps: int, every: int) -> int:
    """Number of records of :func:`record_steps`, counted without forming them."""
    return -(-steps // every) + 1


def record_steps(steps: int, every: int) -> np.ndarray:
    """Step of each record of ``steps`` steps recorded every ``every``: 0, each multiple
    of ``every`` below ``steps``, and ``steps``, after an interval that can be shorter."""
    # an every beyond steps records as steps does, and keeps the products in int64
    return np.minimum(np.arange(record_count(steps, every)) * min(every, steps), steps)


def _rk4_increments(w: np.ndarray):
    """``R(w) - 1`` and ``R(-w) - 1`` of a matrix, ``R(z) - 1 = z + z^2/2 + z^3/6 + z^4/24``.

    Smallest terms are summed first.  A step applied as ``x + (R(z) - 1) x``
    rather than ``R(z) x`` keeps the rounding of the precomputed matrix
    relative to its small increment, so it does not accumulate into a phase
    drift of about ``steps * eps``.  Negation is exact, so the powers of
    ``-w`` are those of ``w`` with the odd ones negated: both increments take
    the three products of one.
    """
    w2 = w @ w
    w3 = w2 @ w
    even2, even4 = w2 / 2.0, (w2 @ w2) / 24.0
    return w + (even2 + (w3 / 6.0 + even4)), -w + (even2 + ((-w3) / 6.0 + even4))


def _increment_power(d: np.ndarray, k: int) -> np.ndarray:
    """``E`` with ``I + E = (I + d)^k``, by binary powering in increment form.

    Doubling is ``E_2k = 2 E_k + E_k^2`` and two powers combine as
    ``E_a + E_b + E_b E_a``; ``I + E`` is never formed, for the reason given
    in :func:`_rk4_increments`.  ``k = 1`` returns ``d`` itself.
    """
    result = None
    while True:
        if k & 1:
            result = d if result is None else result + d + d @ result
        k >>= 1
        if not k:
            return result
        d = 2.0 * d + d @ d


def _step_maps(h, dt: float, hbar: float, steps: int, record_every: int):
    """The step maps of an RK4 run: ``(delta_psi, delta_phibar, powers)``.

    ``delta_psi`` and ``delta_phibar`` are the one-step increments of psi and
    phibar; ``powers`` maps each interval length of :func:`record_steps`, the
    first and the last, to the increments of its powers, or to None if one
    overflows.  They depend on ``h``, ``dt``, ``hbar`` and the lengths only,
    so need no eigenvector.  The caller runs :func:`check_step` first.
    """
    # psi' = -(i/hbar) h psi and phibar' = phibar (i/hbar) h: z = +-w for each
    delta_psi, delta_phibar = _rk4_increments((-1j * dt / hbar) * h)
    ends = record_steps(steps, record_every)
    powers = {}
    # an overflowing power is a detected condition, stepped singly; numpy's error
    # state is per thread, so it is set here for a caller on any thread
    with np.errstate(over="ignore", invalid="ignore"):
        for m in (int(ends[1] - ends[0]), int(ends[-1] - ends[-2])):
            if m not in powers:
                pair = _increment_power(delta_psi, m), _increment_power(delta_phibar, m)
                powers[m] = pair if all(np.all(np.isfinite(e)) for e in pair) else None
    return delta_psi, delta_phibar, powers


def rk4_trajectory(h, state0: StatePair, dt: float, steps: int,
                   record_every: int = 1, *, _maps=None) -> Trajectory:
    """Fixed-step RK4 trajectory of the coupled system under constant ``h``.

    Returns the recorded states (always including the initial and final
    states) as a :class:`Trajectory`.  Each recorded interval of ``k`` steps
    is one product with the increment of ``R(z)^k``, formed once per run for
    ``record_every`` and for a shorter last interval; an interval whose
    increment overflows, as that of a growing mode can before the state
    does, is taken one step at a time and given up once the state overflows.
    The recorded rows are checked for overflow together, after the steps.
    ``_maps``, if given, is what ``_step_maps`` returns for these arguments,
    built after the caller's own :func:`check_step`.

    Raises
    ------
    StepTooLarge
        If ``dt * ||h|| / hbar`` exceeds the stability guard.
    NonFinite
        If any component overflows, as growing modes of a complex spectrum
        eventually do; no rescaling is attempted.
    """
    h = as_square_matrix(h)
    if steps < 1:
        raise ValueError("steps must be positive")
    if record_every < 1:
        raise ValueError("record_every must be positive")
    hbar = state0.hbar
    if _maps is None:
        check_step(h, dt, hbar)
        _maps = _step_maps(h, dt, hbar, steps, record_every)
    delta_psi, delta_phibar, powers = _maps

    ends = record_steps(steps, record_every)
    psi_rows = np.empty((len(ends), state0.n), dtype=complex)
    phibar_rows = np.empty_like(psi_rows)
    psi, phibar = state0.psi, state0.phibar
    psi_rows[0], phibar_rows[0] = psi, phibar
    # overflow is a detected condition here, not a warning; inf and nan survive
    # every later step, so the first non-finite row is the first overflow
    with np.errstate(over="ignore", invalid="ignore"):
        t = state0.t + ends * dt  # a time beyond the float range is inf
        t[0] = state0.t
        for row, m in enumerate(np.diff(ends).tolist(), start=1):
            if powers[m] is None:
                for i in range(1, m + 1):
                    psi = psi + delta_psi @ psi
                    phibar = phibar + phibar @ delta_phibar
                    # an overflow ends the interval early; it is reported at its end
                    if i % _FINITE_CHECK_EVERY == 0 and not (
                            np.all(np.isfinite(psi)) and np.all(np.isfinite(phibar))):
                        break
            else:
                e_psi, e_phibar = powers[m]
                psi = psi + e_psi @ psi
                phibar = phibar + phibar @ e_phibar
            psi_rows[row], phibar_rows[row] = psi, phibar
            # an overflow in a stepped interval ends the run too, as each later stepped
            # interval would take another _FINITE_CHECK_EVERY steps; the rows left unset
            # come after this non-finite one, so none of them can be the first
            if powers[m] is None and not (
                    np.all(np.isfinite(psi)) and np.all(np.isfinite(phibar))):
                break
    bad = _first_non_finite_row(psi_rows, phibar_rows)
    if bad is not None:
        k = int(ends[bad])
        raise NonFinite(f"state overflowed by step {k} (t={state0.t + k * dt:.6g})")
    return Trajectory(*_frozen(t, psi_rows, phibar_rows), hbar)


def evolve_rk4(h, state0: StatePair, dt: float, steps: int) -> StatePair:
    """Final state of :func:`rk4_trajectory` after ``steps`` fixed RK4 steps."""
    return rk4_trajectory(h, state0, dt, steps, record_every=steps)[-1]


def overlap(state):
    """Conserved overlap ``<phibar|psi> = sum_k phibar_k psi_k`` of a state or of each record."""
    return np.sum(state.phibar * state.psi, axis=-1)


def right_norm(state):
    """Norm ``<psi|psi>`` of a state or of each record; not conserved for non-Hermitian ``h``."""
    # one row-by-column product per record, with np.vdot's bits and, as it, no overflow warning
    with np.errstate(over="ignore", invalid="ignore"):
        return (state.psi.conj()[..., None, :] @ state.psi[..., :, None])[..., 0, 0].real


def phase_rotated(state: StatePair, alpha: float) -> StatePair:
    """Intrinsic symmetry transform ``psi -> e^{i alpha} psi, phibar -> e^{-i alpha} phibar``.

    The Noether symmetry of every system: it leaves ``<phibar|h|psi>`` and the
    overlap unchanged for any ``h``.
    """
    return replace(state, psi=np.exp(1j * alpha) * state.psi,
                   phibar=np.exp(-1j * alpha) * state.phibar)
