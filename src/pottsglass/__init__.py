"""Desk-scale numerical laboratory for the kappa-color mean-field Potts spin glass.

Five layers:

* :mod:`pottsglass.core` -- configurations, Gaussian disorder, the raw
  Hamiltonian and its centering shift, overlap matrices and covariances.
* :mod:`pottsglass.exact` -- exact partition functions, annealed moments,
  Gibbs tails and magnetization moments, the balanced second-moment ratio
  over overlap tables, Stirling asymptotics, and the two-color gauge identities.
* :mod:`pottsglass.rate` -- KL rate functions, the shell-constrained exponent
  gap, and every closed-form temperature threshold.
* :mod:`pottsglass.montecarlo` -- Metropolis, conserved-magnetization swap
  dynamics, parallel tempering, tail and free-energy estimators.
* :mod:`pottsglass.cli` -- reproducible experiment runner with CSV/JSON sinks.
"""

__version__ = "0.1.16"

from .core import (
    CouplingMatrix,
    OverlapMatrix,
    SpinConfig,
    covariance_centered,
    covariance_raw,
    hamiltonian_raw,
    overlap,
)
from .experiment import ExperimentSpec

__all__ = [
    "__version__",
    "CouplingMatrix",
    "ExperimentSpec",
    "OverlapMatrix",
    "SpinConfig",
    "covariance_centered",
    "covariance_raw",
    "hamiltonian_raw",
    "overlap",
]
