"""Variance-reduced stochastic gradient estimators for Gaussian variational inference.

A univariate Gaussian approximation is fitted to pluggable target
log-posteriors by minimizing the KL divergence. The package provides the
exponential-family machinery, a Gauss-Hermite quadrature oracle for exact
gradients, ten stochastic gradient estimators sharing one evaluation
contract, a replication benchmark of their mean squared errors, and a
Robbins-Monro optimizer that drives any unbiased estimator.

The package exports every name in the __all__ of these six modules, each
module's __all__ being the one place its public names are stated, and the
self-test's run_all_checks, which gradcv.diagnostics loads on first use.
"""

from . import benchmark, estimators, gaussian, optimize, quadrature, targets
from .benchmark import *
from .estimators import *
from .gaussian import *
from .optimize import *
from .quadrature import *
from .targets import *

__version__ = "0.1.0"


def __getattr__(name: str):
    """run_all_checks, imported on first use: only the self-test runs gradcv.diagnostics."""
    if name == "run_all_checks":
        from .diagnostics import run_all_checks

        return run_all_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "run_all_checks",
    *benchmark.__all__, *estimators.__all__, *gaussian.__all__,
    *optimize.__all__, *quadrature.__all__, *targets.__all__,
]
