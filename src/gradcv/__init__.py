"""Variance-reduced stochastic gradient estimators for Gaussian variational inference.

A univariate Gaussian approximation is fitted to pluggable target
log-posteriors by minimizing the KL divergence. The package provides the
exponential-family machinery, a Gauss-Hermite quadrature oracle for exact
gradients, ten stochastic gradient estimators sharing one evaluation
contract, a replication benchmark of their mean squared errors, and a
Robbins-Monro optimizer that drives any unbiased estimator.
"""

from .benchmark import (
    DEFAULT_SETTINGS,
    MSE_WEIGHTS,
    BenchmarkSpec,
    MseRow,
    MseTable,
    bias_decomposition,
    format_mse_table,
    mse_table_to_csv,
    mse_table_to_json,
    run_benchmark,
)
from .estimators import (
    ESTIMATOR_IDS,
    ESTIMATORS,
    CapabilityError,
    EstimationError,
    EstimatorConfig,
    GradEstimate,
    est_cov,
    est_cv_ideal,
    est_cv_ideal_pathgrad,
    est_cv_regression,
    est_delta_method,
    est_greg_pathgrad,
    est_greg_samplecov,
    est_kingma_reparam,
    est_ranganath_cv,
    est_simple,
    estimate,
)
from .gaussian import DrawBatch, GaussianQ, from_moments, from_natural, sample
from .optimize import FitResult, SgdSchedule, VariationalSGD, fit, trajectory_to_csv
from .quadrature import (
    DEFAULT_ORDER,
    EvaluationError,
    GhRule,
    cov,
    expect,
    gauss_hermite_rule,
    ground_truth_gradient,
    kl_divergence,
)
from .targets import ExpFamTarget, Target, gaussian_target, logistic_target, resolve_target

__version__ = "0.1.0"


def __getattr__(name: str):
    """run_all_checks, imported on first use: only the self-test runs gradcv.diagnostics."""
    if name == "run_all_checks":
        from .diagnostics import run_all_checks

        return run_all_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BenchmarkSpec",
    "CapabilityError",
    "DEFAULT_ORDER",
    "DEFAULT_SETTINGS",
    "DrawBatch",
    "ESTIMATOR_IDS",
    "ESTIMATORS",
    "EstimationError",
    "EstimatorConfig",
    "EvaluationError",
    "ExpFamTarget",
    "FitResult",
    "GaussianQ",
    "GhRule",
    "GradEstimate",
    "MSE_WEIGHTS",
    "MseRow",
    "MseTable",
    "SgdSchedule",
    "Target",
    "VariationalSGD",
    "bias_decomposition",
    "cov",
    "est_cov",
    "est_cv_ideal",
    "est_cv_ideal_pathgrad",
    "est_cv_regression",
    "est_delta_method",
    "est_greg_pathgrad",
    "est_greg_samplecov",
    "est_kingma_reparam",
    "est_ranganath_cv",
    "est_simple",
    "estimate",
    "expect",
    "fit",
    "format_mse_table",
    "from_moments",
    "from_natural",
    "gauss_hermite_rule",
    "gaussian_target",
    "ground_truth_gradient",
    "kl_divergence",
    "logistic_target",
    "mse_table_to_csv",
    "mse_table_to_json",
    "resolve_target",
    "run_all_checks",
    "run_benchmark",
    "sample",
    "trajectory_to_csv",
]
