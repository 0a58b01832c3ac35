"""Desk-scale numerical laboratory for the kappa-color mean-field Potts spin glass.

Five layers:

* :mod:`pottsglass.core` -- configurations, Gaussian disorder, Hamiltonians
  (raw and centered), magnetization and overlap matrices.
* :mod:`pottsglass.exact` -- exact partition functions, Gibbs and annealed
  expectations, ground states, the balanced second-moment ratio over overlap
  tables, Stirling asymptotics, and the two-color gauge identities.
* :mod:`pottsglass.rate` -- KL rate functions, the shell-constrained exponent
  gap, and every closed-form temperature threshold.
* :mod:`pottsglass.montecarlo` -- Metropolis, conserved-magnetization swap
  dynamics, parallel tempering, tail and free-energy estimators.
* :mod:`pottsglass.cli` -- reproducible experiment runner with CSV/JSON sinks.
"""

__version__ = "0.1.13"

from .core import (
    CouplingMatrix,
    MagnetizationVector,
    OverlapMatrix,
    SpinConfig,
    covariance_centered,
    covariance_raw,
    delta_energy,
    enumerate_configs,
    hamiltonian_centered,
    hamiltonian_raw,
    magnetization,
    overlap,
)
from .experiment import ExperimentSpec

__all__ = [
    "__version__",
    "CouplingMatrix",
    "ExperimentSpec",
    "MagnetizationVector",
    "OverlapMatrix",
    "SpinConfig",
    "covariance_centered",
    "covariance_raw",
    "delta_energy",
    "enumerate_configs",
    "hamiltonian_centered",
    "hamiltonian_raw",
    "magnetization",
    "overlap",
]
