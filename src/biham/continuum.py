"""Complex-potential Schrodinger dynamics on a periodic 1D lattice.

The kinetic term uses the second-order central stencil, so the discretized
generator is a (non-Hermitian for ``Im V != 0``) matrix that module
``spectral`` can decompose like any other.  The bilinear density
``rho_i = phibar_i psi_i`` integrates to the conserved charge
``Q = sum_i rho_i dx``, and the matching site current satisfies a discrete
continuity equation up to the stencil order.  Everything verified here is
dimension-independent; one dimension suffices.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import InsufficientSnapshots
from .spectral import biorthogonal_decompose

_MIN_POINTS = 8

# grids above this are refused: the generator is a dense N x N matrix
# (268 MB at this size) that the run decomposes
MAX_SITES = 4096


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
        if self.L <= 0 or self.m <= 0 or self.hbar <= 0:
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


@dataclass
class LatticeField:
    """Field samples psi(x_i), phibar(x_i) and the potential V(x_i) at time t."""

    psi: np.ndarray
    phibar: np.ndarray
    V: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        self.phibar = np.asarray(self.phibar, dtype=complex)
        self.V = np.asarray(self.V, dtype=complex)
        if not (self.psi.shape == self.phibar.shape == self.V.shape):
            raise ValueError("psi, phibar and V must share one grid")

    @property
    def density(self) -> np.ndarray:
        return self.phibar * self.psi


def _gradient(f: np.ndarray, dx: float) -> np.ndarray:
    """Periodic second-order central first derivative."""
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * dx)


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


def lattice_charge(field: LatticeField, dx: float) -> complex:
    """Charge ``Q = sum_i phibar_i psi_i dx`` (rectangle rule, exact under periodicity)."""
    return complex(np.sum(field.density) * dx)


def lattice_current(field: LatticeField, config: ContinuumConfig) -> np.ndarray:
    """Site current ``j_i = (i hbar / 2m) (phibar grad psi - psi grad phibar)_i``."""
    dx = config.dx
    grad_psi = _gradient(field.psi, dx)
    grad_phibar = _gradient(field.phibar, dx)
    return (1j * config.hbar / (2.0 * config.m)) * (
        field.phibar * grad_psi - field.psi * grad_phibar
    )


def continuity_residual(snapshots, config: ContinuumConfig) -> float:
    """Worst site/time violation of the discrete continuity equation.

    Uses central differences in both time (across snapshots) and space.  The
    bilinear density is transported with ``d(phibar psi)/dt = +div j`` for the
    current orientation of :func:`lattice_current`, so the residual measured
    here is ``|d(rho)/dt - div j|``.

    Raises
    ------
    InsufficientSnapshots
        If fewer than three snapshots are supplied.
    """
    snapshots = list(snapshots)
    if len(snapshots) < 3:
        raise InsufficientSnapshots(
            f"need at least 3 equally spaced snapshots, got {len(snapshots)}"
        )
    times = np.array([s.t for s in snapshots])
    gaps = np.diff(times)
    if not np.allclose(gaps, gaps[0], rtol=1e-8, atol=1e-12):
        raise ValueError("snapshots must be equally spaced in time")
    dt = float(gaps[0])
    if dt <= 0:
        raise ValueError("snapshots must be strictly time-ordered")

    worst = []  # per time step
    for k in range(1, len(snapshots) - 1):
        drho_dt = (snapshots[k + 1].density - snapshots[k - 1].density) / (2.0 * dt)
        div_j = _gradient(lattice_current(snapshots[k], config), config.dx)
        worst.append(np.max(np.abs(drho_dt - div_j)))
    return float(np.max(worst))  # np.max, unlike max, keeps a nan


def hamiltonian_density_sum(field: LatticeField, config: ContinuumConfig) -> complex:
    """Integrated Hamiltonian density ``sum_i phibar_i (h psi)_i dx``."""
    h = discretize(config, field.V)
    return complex(field.phibar @ (h @ field.psi) * config.dx)


def phase_rotated(field: LatticeField, alpha: float) -> LatticeField:
    """Intrinsic symmetry transform ``psi -> e^{i alpha} psi, phibar -> e^{-i alpha} phibar``."""
    return LatticeField(
        psi=np.exp(1j * alpha) * field.psi,
        phibar=np.exp(-1j * alpha) * field.phibar,
        V=field.V,
        t=field.t,
    )


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


def initial_lattice_state(config: ContinuumConfig, V, psi0, h=None) -> LatticeField:
    """Build the t=0 field with the conjugate part from the lattice eigenbasis.

    The modal constants default to ``|c_j(0)|^2``, so for real potentials the
    conjugate field reduces to ``psi^H``.  ``h``, if given, is
    ``discretize(config, V)`` already built.
    """
    V = np.asarray(V, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    if h is None:
        h = discretize(config, V)
    system = biorthogonal_decompose(h)
    csq = dynamics.default_modal_constants(system, psi0)
    phibar = dynamics.conjugate_field(system, psi0, csq)
    return LatticeField(psi=psi0, phibar=phibar, V=V, t=0.0)


def evolve_lattice(config: ContinuumConfig, field0: LatticeField, dt: float,
                   steps: int, record_every: int = 1, h=None) -> list:
    """RK4-evolve a lattice field; returns LatticeField snapshots.

    ``h``, if given, is ``discretize(config, field0.V)`` already built.
    """
    if h is None:
        h = discretize(config, field0.V)
    state0 = dynamics.StatePair(psi=field0.psi, phibar=field0.phibar,
                                t=field0.t, hbar=config.hbar)
    traj = dynamics.rk4_trajectory(h, state0, dt, steps, record_every=record_every)
    return [LatticeField(psi=s.psi, phibar=s.phibar, V=field0.V, t=s.t) for s in traj]
