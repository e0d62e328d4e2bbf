"""Robbins-Monro stochastic gradient descent on the natural parameters.

Drives any unbiased gradient estimator to fit q to a target by iterating
eta <- eta - a_t * estimate with a_t = step0 / (1 + t)^decay. Iterates are
projected to keep the second natural parameter negative, so the variance
stays positive. A stochastic fit draws its noise from one stream keyed by
(seed, FIT_STREAM_LABEL), step t reading row t of it, so a shorter fit with
the same seed is the exact prefix of a longer one. The biased regression
estimators are rejected: their per-step error does not average out over
iterations, so plain stochastic gradient descent is inconsistent with them.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields

import numpy as np

from .estimators import ESTIMATORS, Draws, EstimationError, EstimatorConfig, Noise, run_kernel
from .gaussian import GaussianQ, _count, _flag, _from_natural, _real, _seed_key, _solve_l, _solve_lt, rng_from_seed
from .quadrature import kl_divergence
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

# The fit's noise stream is keyed (seed, FIT_STREAM_LABEL). The label is
# longer than eight bytes, so its key carries three 32-bit words after the
# seed's, the last neither 0 nor 1: no (seed, t, i) key of estimate() agrees
# with it even after the zero padding under which SeedSequence lets keys
# collide (see rng_from_seed).
FIT_STREAM_LABEL = "gradcv.fit"
# Draws per call of the generator: the stream is drawn in blocks of whole
# steps, this many draws each (one step if a step takes more).
_NOISE_BLOCK_DRAWS = 1 << 14


def _default(fn, name: str):
    """The default of fn's parameter name, the library's own copy of the value."""
    return inspect.signature(fn).parameters[name].default


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
    samples_per_step: int = EstimatorConfig.total_samples

    def __post_init__(self):
        step0 = _real("step0", self.step0)
        if not (np.isfinite(step0) and step0 >= 0.0):
            raise ValueError(f"step0 must be finite and >= 0, got {self.step0}")
        if not 0.5 < _real("decay", self.decay) <= 1.0:
            raise ValueError(f"decay must lie in (0.5, 1], got {self.decay}")
        _count("iterations", self.iterations)
        _count("samples_per_step", self.samples_per_step)

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


def _fit_config(record_every: int, estimator_id: str | None, samples: int, cv_split: float) -> EstimatorConfig | None:
    """fit's argument checks; the config of the stochastic estimator, None without one."""
    _count("record_every", record_every)
    if estimator_id is None:
        return None
    config = EstimatorConfig(total_samples=samples, cv_split=cv_split, estimator_id=estimator_id)
    if not ESTIMATORS[estimator_id].unbiased:
        raise ValueError(
            f"estimator {estimator_id!r} is biased; plain stochastic gradient descent "
            "needs unbiased gradient estimates, so the regression estimators are not "
            "accepted here"
        )
    return config


def _block_steps(samples: int) -> int:
    """Steps per block of the fit's noise stream."""
    return max(1, _NOISE_BLOCK_DRAWS // samples)


def _noise_rows(seed: int, steps: int, samples: int):
    """Step t's noise, for t < steps: row t of the fit's one stream, as a Noise view of its block.

    The rows are drawn in blocks of _block_steps(samples) rows, each a
    Noise; the generator continues its stream from block to block, so each
    row equals row t of the whole stream drawn at once, whatever the number
    of steps. The rows of a block share the moments of u its Noise computes
    once for all of them.
    """
    rng = rng_from_seed((seed, FIT_STREAM_LABEL))
    block = _block_steps(samples)
    for start in range(0, steps, block):
        noise = Noise(rng.standard_normal((min(block, steps - start), samples)))
        for t in range(len(noise)):
            yield noise.rows(t)


def _estimator_gradient(target: Target, config: EstimatorConfig, seed: int, steps: int):
    """The stochastic gradient of each fit step: q -> its estimate on the step's noise row.

    Step t's Draws is row t of its noise block with the step's q.
    Split-budget estimators fit their coefficients on the row's first
    batch_sizes()[0] columns, as estimate() lays out its batches.
    """
    n_coef = config.batch_sizes()[0]
    _seed_key(seed)  # checked here, not at the first step's draw
    rows = _noise_rows(seed, steps, config.total_samples)

    def gradient(q: GaussianQ) -> np.ndarray:
        return run_kernel(config.estimator_id, q, target, Draws(q, target, next(rows)), n_coef)

    return gradient


def fit(
    q0: GaussianQ,
    target: Target,
    estimator_id: str = "cv-regression",
    schedule: SgdSchedule | None = None,
    seed: int = 0,
    cv_split: float = EstimatorConfig.cv_split,
    natural_gradient: bool = False,
    record_every: int = 10,
    gradient_fn=None,
) -> FitResult:
    """Fit q to the target by stochastic gradient descent in eta.

    gradient_fn overrides the stochastic estimator with a deterministic
    gradient callable q -> 2-vector (used for oracle descent runs); the
    schedule and projection are applied identically either way. Without
    it, step t runs the estimator on row t of the fit's noise stream
    (_noise_rows). Overflow inside a step is not warned about: a
    non-finite estimate is an EstimationError, and so is an iterate that
    leaves the Gaussian family (from_natural rejects its eta, say a mean
    that overflows or a variance whose eta[1] is -inf); its message names
    the step, counted from 1 as the trajectory's iterations are.
    """
    schedule = schedule or SgdSchedule()
    _flag("natural_gradient", natural_gradient)
    stochastic_id = estimator_id if gradient_fn is None else None
    config = _fit_config(record_every, stochastic_id, schedule.samples_per_step, cv_split)
    if config is not None:
        gradient_fn = _estimator_gradient(target, config, seed, schedule.iterations)
    # eta as two floats: the arithmetic of the 2-vector, without its per-step overhead
    eta0, eta1 = q0.eta.tolist()
    q = q0
    history = [TrajectoryPoint(0, q.mu, q.sigma2, kl_divergence(q, target), schedule.step(0))]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(schedule.iterations):
            grad = np.asarray(gradient_fn(q), dtype=float)
            if natural_gradient:
                # Cov_q[T]^-1 grad for Cov_q[T] = L diag(1, 2) L^T: L^-T diag(1, 1/2) L^-1 grad
                v0, v1 = _solve_l(q, grad[0], grad[1])
                grad = _solve_lt(q, v0, 0.5 * v1)
            g0, g1 = grad.tolist()
            step = schedule.step(t)
            eta0, eta1 = eta0 - step * g0, min(eta1 - step * g1, ETA2_MAX)
            it = t + 1
            try:
                q = _from_natural(eta0, eta1)
            except ValueError as err:
                raise EstimationError(f"fit step {it} leaves the Gaussian family: {err}") from None
            if it % record_every == 0 or it == schedule.iterations:
                history.append(TrajectoryPoint(it, q.mu, q.sigma2, kl_divergence(q, target), schedule.step(t)))
    return FitResult(final=q, trajectory=tuple(history))


def trajectory_to_csv(result: FitResult) -> str:
    lines = ["iteration,mu,sigma2,kl,step"]
    for p in result.trajectory:
        lines.append(f"{p.iteration},{p.mu:.17g},{p.sigma2:.17g},{p.kl:.17g},{p.step:.17g}")
    return "\n".join(lines) + "\n"


@dataclass(eq=False)
class VariationalSGD:
    """Scikit-learn style front end for the stochastic fit.

    Constructor arguments are hyperparameters stored verbatim; fitted state
    lands in trailing-underscore attributes. fit accepts a Target or a
    target name string ("logistic", "gaussian:MU:SIGMA2"). Equality and
    hashing are by identity, as for any estimator object.
    """

    # Defaults are read from their owners, SgdSchedule and the module's fit
    # function (the method named fit is not defined yet at this point).
    estimator: str = _default(fit, "estimator_id")
    step0: float = SgdSchedule.step0
    decay: float = SgdSchedule.decay
    iterations: int = SgdSchedule.iterations
    samples_per_step: int = SgdSchedule.samples_per_step
    cv_split: float = _default(fit, "cv_split")
    natural_gradient: bool = _default(fit, "natural_gradient")
    mu0: float = 0.0
    sigma20: float = 1.0
    seed: int = _default(fit, "seed")
    record_every: int = _default(fit, "record_every")

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "VariationalSGD":
        names = {f.name for f in fields(self)}
        for name, value in params.items():
            if name not in names:
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
        """Negative KL divergence of the fitted q from the target; an AttributeError before fit."""
        if not hasattr(self, "q_"):
            raise AttributeError("this VariationalSGD is not fitted yet: call fit(target) before score")
        if isinstance(target, str):
            target = resolve_target(target)
        return -kl_divergence(self.q_, target)
