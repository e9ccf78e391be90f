"""Biorthogonal Hamiltonian toolkit for linear non-Hermitian dynamics.

Core pieces: biorthogonal eigensystems of dense complex matrices
(:mod:`biham.spectral`), coupled state/conjugate-field propagation
(:mod:`biham.dynamics`), canonical-equation consistency checks
(:mod:`biham.canonical`), the two-level Lorentzian model with adiabatic
sweeps (:mod:`biham.lorentzian`), and a periodic lattice discretization of
the complex-potential dynamics with its conserved charge and current
(:mod:`biham.continuum`).  ``biham.cli`` exposes everything as a
config-driven scenario runner.

Import the modules themselves, as in ``from biham import dynamics, spectral``:
this package re-exports nothing, so ``import biham`` alone loads none of them.
"""

__version__ = "0.1.0"
