"""Robbins-Monro stochastic gradient descent on the natural parameters.

Drives any unbiased gradient estimator to fit q to a target by iterating
eta <- eta - a_t * estimate with a_t = step0 / (1 + t)^decay. Iterates are
projected to keep the second natural parameter negative, so the variance
stays positive. The biased regression estimators are rejected: their
per-step error does not average out over iterations, so plain stochastic
gradient descent is inconsistent with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import ESTIMATORS, ESTIMATOR_IDS, EstimatorConfig, estimate
from .gaussian import GaussianQ, from_natural
from .quadrature import gauss_hermite_rule, kl_divergence
from .targets import Target, resolve_target

__all__ = [
    "SgdSchedule",
    "TrajectoryPoint",
    "FitResult",
    "fit",
    "trajectory_to_csv",
    "VariationalSGD",
]

ETA2_MAX = -1e-8  # projection bound keeping sigma2 positive


@dataclass(frozen=True)
class SgdSchedule:
    """Step sizes a_t = step0 / (1 + t)^decay.

    decay in (0.5, 1] guarantees the classic stochastic-approximation
    conditions sum a_t = inf and sum a_t^2 < inf. step0 = 0 is allowed as
    the degenerate no-op schedule.
    """

    step0: float = 0.01
    decay: float = 0.75
    iterations: int = 1000
    samples_per_step: int = 50

    def __post_init__(self):
        if not (np.isfinite(self.step0) and self.step0 >= 0.0):
            raise ValueError(f"step0 must be finite and >= 0, got {self.step0}")
        if not 0.5 < self.decay <= 1.0:
            raise ValueError(f"decay must lie in (0.5, 1], got {self.decay}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.samples_per_step < 2:
            raise ValueError(f"samples_per_step must be >= 2, got {self.samples_per_step}")

    def step(self, t: int) -> float:
        return self.step0 / (1.0 + t) ** self.decay


@dataclass(frozen=True)
class TrajectoryPoint:
    iteration: int
    mu: float
    sigma2: float
    kl: float
    step: float


@dataclass(frozen=True)
class FitResult:
    final: GaussianQ
    trajectory: tuple[TrajectoryPoint, ...]


def fit(
    q0: GaussianQ,
    target: Target,
    estimator_id: str = "cv-regression",
    schedule: SgdSchedule | None = None,
    seed: int = 0,
    cv_split: float = 0.5,
    jitter: float = 0.0,
    natural_gradient: bool = False,
    record_every: int = 10,
    gradient_fn=None,
) -> FitResult:
    """Fit q to the target by stochastic gradient descent in eta.

    gradient_fn overrides the stochastic estimator with a deterministic
    gradient callable q -> 2-vector (used for oracle descent runs); the
    schedule and projection are applied identically either way.
    """
    schedule = schedule or SgdSchedule()
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    if gradient_fn is None:
        info = ESTIMATORS.get(estimator_id)
        if info is None:
            raise ValueError(f"unknown estimator id {estimator_id!r}; valid ids: {', '.join(ESTIMATOR_IDS)}")
        if not info.unbiased:
            raise ValueError(
                f"estimator {estimator_id!r} is biased; plain stochastic gradient descent "
                "needs unbiased gradient estimates, so the regression estimators are not "
                "accepted here"
            )
        config = EstimatorConfig(
            total_samples=schedule.samples_per_step,
            cv_split=cv_split,
            estimator_id=estimator_id,
            jitter=jitter,
        )
    rule = gauss_hermite_rule()
    eta = np.array(q0.eta)
    q = q0
    history = [TrajectoryPoint(0, q.mu, q.sigma2, kl_divergence(q, target, rule), schedule.step(0))]
    for t in range(schedule.iterations):
        if gradient_fn is not None:
            grad = np.asarray(gradient_fn(q), dtype=float)
        else:
            grad = estimate(q, target, config, seed=(seed, t)).value
        if natural_gradient:
            grad = np.linalg.solve(q.exact_suffstat_cov(), grad)
        eta = eta - schedule.step(t) * grad
        eta[1] = min(eta[1], ETA2_MAX)
        q = from_natural(eta)
        it = t + 1
        if it % record_every == 0 or it == schedule.iterations:
            history.append(TrajectoryPoint(it, q.mu, q.sigma2, kl_divergence(q, target, rule), schedule.step(t)))
    return FitResult(final=q, trajectory=tuple(history))


def trajectory_to_csv(result: FitResult) -> str:
    lines = ["iteration,mu,sigma2,kl,step"]
    for p in result.trajectory:
        lines.append(f"{p.iteration},{p.mu:.17g},{p.sigma2:.17g},{p.kl:.17g},{p.step:.17g}")
    return "\n".join(lines) + "\n"


class VariationalSGD:
    """Scikit-learn style front end for the stochastic fit.

    Constructor arguments are hyperparameters stored verbatim; fitted state
    lands in trailing-underscore attributes. fit accepts a Target or a
    target name string ("logistic", "gaussian:MU:SIGMA2").
    """

    def __init__(
        self,
        estimator: str = "cv-regression",
        step0: float = 0.01,
        decay: float = 0.75,
        iterations: int = 1000,
        samples_per_step: int = 50,
        cv_split: float = 0.5,
        jitter: float = 0.0,
        natural_gradient: bool = False,
        mu0: float = 0.0,
        sigma20: float = 1.0,
        seed: int = 0,
        record_every: int = 10,
    ):
        self.estimator = estimator
        self.step0 = step0
        self.decay = decay
        self.iterations = iterations
        self.samples_per_step = samples_per_step
        self.cv_split = cv_split
        self.jitter = jitter
        self.natural_gradient = natural_gradient
        self.mu0 = mu0
        self.sigma20 = sigma20
        self.seed = seed
        self.record_every = record_every

    _param_names = (
        "estimator", "step0", "decay", "iterations", "samples_per_step",
        "cv_split", "jitter", "natural_gradient", "mu0", "sigma20", "seed",
        "record_every",
    )

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "VariationalSGD":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"invalid parameter {name!r} for VariationalSGD")
            setattr(self, name, value)
        return self

    def fit(self, target, q0: GaussianQ | None = None) -> "VariationalSGD":
        if isinstance(target, str):
            target = resolve_target(target)
        schedule = SgdSchedule(
            step0=self.step0, decay=self.decay,
            iterations=self.iterations, samples_per_step=self.samples_per_step,
        )
        result = fit(
            q0 or GaussianQ(self.mu0, self.sigma20),
            target,
            estimator_id=self.estimator,
            schedule=schedule,
            seed=self.seed,
            cv_split=self.cv_split,
            jitter=self.jitter,
            natural_gradient=self.natural_gradient,
            record_every=self.record_every,
        )
        self.result_ = result
        self.q_ = result.final
        self.mu_ = result.final.mu
        self.sigma2_ = result.final.sigma2
        self.trajectory_ = result.trajectory
        self.n_iter_ = self.iterations
        return self

    def score(self, target) -> float:
        """Negative KL divergence of the fitted q from the target."""
        if isinstance(target, str):
            target = resolve_target(target)
        return -kl_divergence(self.q_, target)
