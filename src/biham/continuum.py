"""Complex-potential Schrodinger dynamics on a periodic 1D lattice.

The kinetic term uses the second-order central stencil, so the discretized
generator is a (non-Hermitian for ``Im V != 0``) matrix that module
``spectral`` can decompose like any other.  The bilinear density
``rho_i = phibar_i psi_i`` integrates to the conserved charge
``Q = sum_i rho_i dx``, and the matching site current satisfies a discrete
continuity equation up to the stencil order.  The lattice is a discrete
system: its state is a :class:`~biham.dynamics.StatePair`, whose t=0
conjugate field :func:`biham.dynamics.initial_state` builds on the
decomposed generator (``psi^H`` for a real potential), it evolves by
:func:`biham.dynamics.rk4_trajectory` on the :func:`discretize` generator, and
its records are a :class:`~biham.dynamics.Trajectory`.  Everything verified
here is dimension-independent; one dimension suffices.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import InsufficientSnapshots

_MIN_POINTS = 8

# grids above this are refused: the run decomposes a dense N x N generator and raises
# it to powers, at a cost cubic in N (at this size, 20 480 steps recorded 11 times took
# 12-14 s on one BLAS thread, 8.6-9.9 s on two, and 178 MB peak RSS on a 2-vCPU VM)
MAX_SITES = 1024


@dataclass(frozen=True)
class ContinuumConfig:
    """Periodic 1D lattice: length L, N grid points, mass m, and hbar."""

    L: float
    N: int
    m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.N < _MIN_POINTS:
            raise ValueError(f"need at least {_MIN_POINTS} grid points")
        if self.N > MAX_SITES:
            raise ValueError(f"N exceeds the limit of {MAX_SITES} grid points")
        if not (self.L > 0 and self.m > 0 and self.hbar > 0):
            raise ValueError("L, m and hbar must be positive")
        try:
            coeff = self.kinetic_coeff
        except (OverflowError, ZeroDivisionError):
            coeff = math.inf
        # the kinetic band spans [0, 4 coeff]; the generator must hold it in floats
        if not 0.0 < 4.0 * coeff < math.inf:
            raise ValueError(f"the kinetic scale hbar^2/(2 m dx^2) = {coeff:.3g} leaves the "
                             f"float range")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def kinetic_coeff(self) -> float:
        """Nearest-neighbour scale ``hbar^2 / (2 m dx^2)`` of the kinetic stencil."""
        return self.hbar ** 2 / (2.0 * self.m * self.dx ** 2)

    def grid(self) -> np.ndarray:
        return np.arange(self.N) * self.dx


def _gradient(f: np.ndarray, dx: float) -> np.ndarray:
    """Periodic second-order central first derivative along the last axis."""
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * dx)


def discretize(config: ContinuumConfig, V) -> np.ndarray:
    """Lattice generator: central-stencil kinetic part plus diag(V).

    The kinetic block is the circulant with diagonal ``hbar^2/(m dx^2)`` and
    nearest-neighbour entries ``-hbar^2/(2 m dx^2)``; it is Hermitian, so the
    result is non-Hermitian exactly when ``Im V != 0``.
    """
    V = np.asarray(V, dtype=complex)
    if V.shape != (config.N,):
        raise ValueError(f"potential must have {config.N} samples")
    n = config.N
    coeff = config.kinetic_coeff
    h = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    h[idx, idx] = 2.0 * coeff + V
    h[idx, (idx + 1) % n] = -coeff
    h[idx, (idx - 1) % n] = -coeff
    return h


def lattice_charge(state, dx: float):
    """Charge ``Q = sum_i phibar_i psi_i dx`` (rectangle rule, exact under periodicity).

    Of a state, or of each record of a trajectory: :func:`biham.dynamics.overlap` times ``dx``.
    """
    return dynamics.overlap(state) * dx


def lattice_current(state, config: ContinuumConfig) -> np.ndarray:
    """Site current ``j_i = (i hbar / 2m) (phibar grad psi - psi grad phibar)_i``.

    Of a state, or of each record of a trajectory.  Stacked rows pass numpy's
    threshold (256 KiB) for reusing an unnamed temporary operand in place, which
    turns ``a * tmp`` into ``tmp * a``; numpy's fused complex product rounds
    differently when its operands swap.  So no product here takes an unnamed
    temporary, and a row has the same bits alone or stacked.
    """
    grad_right = _gradient(state.psi, config.dx)
    grad_left = _gradient(state.phibar, config.dx)
    net = state.phibar * grad_right
    net -= state.psi * grad_left
    return (1j * config.hbar / (2.0 * config.m)) * net


# entries per stacked array of one pass of continuity_residuals: its temporaries
# stay at a few MB, whatever the size of the records it reads
_RESIDUAL_BLOCK = 2 ** 18


def continuity_residuals(snapshots: dynamics.Trajectory, config: ContinuumConfig) -> np.ndarray:
    """Worst site violation of the discrete continuity equation at each interior snapshot.

    Uses central differences in both time (across snapshots) and space.  The
    bilinear density is transported with ``d(phibar psi)/dt = +div j`` for the
    current orientation of :func:`lattice_current`, so the residual measured
    here is ``|d(rho)/dt - div j|``.  Entry ``k - 1`` is snapshot ``k``'s,
    with the time step ``t[k] - t[k-1]``: the value that the three snapshots
    around it give alone.  The trajectory is read in place, its rows in
    blocks, each with the bits of the whole stacked pass.

    Raises
    ------
    InsufficientSnapshots
        If fewer than three snapshots are supplied.
    """
    times, psi, phibar = snapshots.t, snapshots.psi, snapshots.phibar
    if len(times) < 3:
        raise InsufficientSnapshots(
            f"need at least 3 equally spaced snapshots, got {len(times)}"
        )
    gaps = np.diff(times)
    if not np.allclose(gaps, gaps[0], rtol=1e-8, atol=0.0):
        raise ValueError("snapshots must be equally spaced in time")
    if gaps[0] <= 0:
        raise ValueError("snapshots must be strictly time-ordered")

    out = np.empty(len(times) - 2)
    rows = max(1, _RESIDUAL_BLOCK // psi.shape[1])
    for lo in range(0, len(out), rows):
        hi = min(lo + rows, len(out))
        # entries lo..hi-1 are snapshots lo+1..hi, whose windows span lo..hi+1
        rho = phibar[lo:hi + 2] * psi[lo:hi + 2]
        drho_dt = (rho[2:] - rho[:-2]) / (2.0 * gaps[lo:hi, None])
        div_j = _gradient(lattice_current(snapshots[lo + 1:hi + 1], config), config.dx)
        out[lo:hi] = np.max(np.abs(drho_dt - div_j), axis=1)  # np.max keeps a nan
    return out


def gaussian_packet(x: np.ndarray, center: float, width: float,
                    momentum: float = 0.0, hbar: float = 1.0) -> np.ndarray:
    """L2-normalized Gaussian wavepacket with a plane-wave phase."""
    # np.float64: a width above ~1e154 squares to inf, a flat envelope, where a
    # Python float power would raise OverflowError
    psi = np.exp(-((x - center) ** 2) / (4.0 * np.float64(width) ** 2)
                 + 1j * momentum * x / hbar)
    dx = x[1] - x[0]
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * dx)


def plane_wave(config: ContinuumConfig, mode: int) -> np.ndarray:
    """Periodic plane wave ``exp(i k x)`` with ``k = 2 pi mode / L``."""
    k = 2.0 * np.pi * mode / config.L
    return np.exp(1j * k * config.grid())


def complex_gaussian_potential(x: np.ndarray, center: float, width: float,
                               amplitude: complex) -> np.ndarray:
    """Gaussian potential envelope with a complex amplitude."""
    return amplitude * np.exp(-((x - center) ** 2) / (2.0 * np.float64(width) ** 2))

