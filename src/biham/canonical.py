"""Hamiltonian and Lagrangian of the coupled dynamics, and consistency checks.

The bilinear ``H = <phibar|h|psi>`` generates the non-Hermitian equations of
motion through Hamilton's canonical equations for the pairs
``(q_k, p_k) = (i*hbar*psi_k, phibar_k)``:

    d(i*hbar*psi_k)/dt = dH/dphibar_k,    dphibar_k/dt = -dH/d(i*hbar*psi_k).

Because ``H`` is bilinear, its partials are exact; ``phibar_k`` and ``psi_k``
are treated as independent coordinates throughout, and each central difference
of H is the row ``phibar @ h``, or that row plus a multiple of ``h[k]``,
against ``psi``: O(n) per probe.  The same value can be computed in modal form
as ``sum_j E_j cbar_j c_j``, which is manifestly conserved for time-independent
generators; :func:`canonical_report` gives both, with the gaps of the canonical
equations and of the central differences.
"""

from dataclasses import astuple, dataclass

import numpy as np

from .dynamics import ModalCoordinates, StatePair, schrodinger_rhs
from .errors import NonFinite
from .spectral import BiorthogonalSystem, as_square_matrix, biorthogonal_decompose

FD_STEP = 1e-6
# probes of the finite-difference check taken as one stack; a block bounds the
# check's own memory to a few (_FD_BLOCK, n) arrays
_FD_BLOCK = 64


@dataclass
class CanonicalReport:
    """Consistency summary for one (generator, state) instance.

    ``rhs_mismatch`` compares the canonical equations against the direct
    Schrodinger/adjoint right-hand sides; ``grad_mismatch`` compares the
    analytic partials of the Hamiltonian against central finite differences.
    """

    hamiltonian_value: complex
    modal_value: complex
    rhs_mismatch: float
    grad_mismatch: float


def hamiltonian_value(h, state: StatePair) -> complex:
    """Hamiltonian ``<phibar|h|psi>`` of a state pair."""
    h = as_square_matrix(h)
    return complex(state.phibar @ h @ state.psi)


def modal_hamiltonian(system: BiorthogonalSystem, modal: ModalCoordinates) -> complex:
    """Hamiltonian ``sum_j E_j cbar_j c_j`` in canonical modal coordinates."""
    return complex(np.sum(system.eigenvalues * modal.cbar * modal.c))


def hamiltonian_gradients(h, state: StatePair):
    """Analytic partials ``dH/dphibar_k = (h psi)_k`` and ``dH/dpsi_k = (phibar h)_k``."""
    h = as_square_matrix(h)
    return h @ state.psi, state.phibar @ h


def canonical_rhs(h, state: StatePair):
    """Time derivatives of (psi, phibar) obtained from Hamilton's equations.

    Returns ``(dpsi_dt, dphibar_dt)``.  These must coincide with the direct
    non-Hermitian right-hand sides ``-(i/hbar) h psi`` and ``+(i/hbar) phibar h``.
    """
    d_phibar, d_psi = hamiltonian_gradients(h, state)
    ih = 1j * state.hbar
    dpsi_dt = d_phibar / ih
    dphibar_dt = -d_psi / ih
    return dpsi_dt, dphibar_dt


def rhs_mismatch(h, state: StatePair) -> float:
    """Max componentwise gap between canonical equations and the direct dynamics."""
    can_psi, can_phibar = canonical_rhs(h, state)
    dir_psi, dir_phibar = schrodinger_rhs(h, state.psi, state.phibar, state.hbar)
    return float(max(np.max(np.abs(can_psi - dir_psi)),
                     np.max(np.abs(can_phibar - dir_phibar))))


def lagrangian_value(h, state: StatePair, psidot) -> complex:
    """Lagrangian ``i*hbar <phibar|psidot> - <phibar|h|psi>``.

    Vanishes on-shell, i.e. when ``psidot = -(i/hbar) h psi``.
    """
    h = as_square_matrix(h)
    psidot = np.asarray(psidot, dtype=complex)
    return complex(1j * state.hbar * (state.phibar @ psidot) - state.phibar @ h @ state.psi)


def gradient_fd_mismatch(h, state: StatePair, step: float = FD_STEP) -> float:
    """Worst relative gap between analytic partials of H and central differences.

    Real and imaginary parts of every ``phibar_k`` and ``psi_k`` are perturbed
    separately; since H is holomorphic in each variable, the two probes must
    both reproduce the same complex partial.  The gap is measured relative to
    the largest gradient component.
    """
    h = as_square_matrix(h)
    psi = np.array(state.psi)
    d_phibar, d_psi = hamiltonian_gradients(h, state)
    scale = max(float(np.max(np.abs(d_phibar))), float(np.max(np.abs(d_psi))), 1.0)

    # H(phibar + s e_k, psi) = (d_psi + s h[k]) @ psi and H(phibar, ps) = d_psi @ ps,
    # with d_psi = phibar @ h: no probe takes a product with h
    n = psi.shape[0]
    worst = 0.0
    # a step at the ends of the float range overflows; its gaps are refused
    # below.  Halving first keeps a step at the float maximum in range, where
    # 2 * step is inf
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _FD_BLOCK):
            rows = slice(start, min(start + _FD_BLOCK, n))
            eye = np.eye(rows.stop - start, n, k=start, dtype=complex)
            for probe in (1.0, 1j):
                # row k is the central difference along the Re (probe=1) or Im (probe=i)
                # axis of component k; stacks of 1 x n rows and n x 1 columns take the
                # roundings of the per-probe vector products
                shift = step * probe * h[rows]
                num_phibar = ((d_psi + shift)[:, None, :] @ psi[:, None]
                              - (d_psi - shift)[:, None, :] @ psi[:, None])[:, 0, 0]
                shift = step * probe * eye
                num_psi = (d_psi[None, None, :] @ (psi + shift)[:, :, None]
                           - d_psi[None, None, :] @ (psi - shift)[:, :, None])[:, 0, 0]
                for diff in (num_phibar / 2 / step - probe * d_phibar[rows],
                             num_psi / 2 / step - probe * d_psi[rows]):
                    # hypot is the modulus abs() gives one complex; np.abs of an
                    # array can differ from it in the last bit
                    gaps = np.hypot(diff.real, diff.imag)
                    if not np.all(np.isfinite(gaps)):
                        raise NonFinite(f"central differences with step {step!r} leave "
                                        f"the float range")
                    worst = max(worst, float(np.max(gaps)))
    return worst / scale


def canonical_report(h, state: StatePair, system: BiorthogonalSystem = None,
                     fd_step: float = FD_STEP) -> CanonicalReport:
    """The consistency report of one (generator, state) pair over ``system``, the
    eigensystem of ``h`` (decomposed here if not given).

    Raises NonFinite, rather than report inf or nan, if a field leaves the float
    range, as with an hbar below ~1e-308, or h and the state near the float maximum.
    """
    h = as_square_matrix(h)
    if system is None:
        system = biorthogonal_decompose(h)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = CanonicalReport(
            hamiltonian_value=hamiltonian_value(h, state),
            modal_value=modal_hamiltonian(system, ModalCoordinates.from_state(system, state)),
            rhs_mismatch=rhs_mismatch(h, state),
            grad_mismatch=gradient_fd_mismatch(h, state, step=fd_step))
    if not np.all(np.isfinite(astuple(report))):
        raise NonFinite("the canonical report leaves the float range")
    return report
