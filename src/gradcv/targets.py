"""Target log-unnormalized posteriors log p(x).

Targets are plain containers around a vectorized log_p callable with
optional first and second x-derivatives. Score-function estimators only
need log_p; the delta-method and sampler-differentiated estimators
require the derivatives and fail fast when they are absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Target",
    "ExpFamTarget",
    "logistic_target",
    "gaussian_target",
    "resolve_target",
]


@dataclass(frozen=True)
class Target:
    name: str
    log_p: Callable[[np.ndarray], np.ndarray]
    grad_x: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_x: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class ExpFamTarget(Target):
    """Gaussian-form target log p(x) = T(x).eta_tilde + c with T(x) = (x, x^2)."""

    eta_tilde: np.ndarray = field(kw_only=True)
    c: float = field(kw_only=True)

    def __post_init__(self):
        eta_tilde = np.asarray(self.eta_tilde, dtype=float)
        if eta_tilde.shape != (2,) or not np.isfinite(eta_tilde).all() or eta_tilde[1] >= 0:
            raise ValueError(f"eta_tilde must be a finite 2-vector with eta_tilde[1] < 0, got {self.eta_tilde!r}")
        eta_tilde.setflags(write=False)
        object.__setattr__(self, "eta_tilde", eta_tilde)


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|) as a fresh array of x's shape (0-d for 0-d x), computed in place."""
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _ratio(x: np.ndarray, ones: np.ndarray):
    """1 / (1 + e) where ones, else e / (1 + e), with e = exp(-|x|); a scalar for 0-d x.

    This is the logistic sigmoid of x for ones = x >= 0 and of -x for
    ones = x <= 0, stable in both tails and never negating x. As e <= 1,
    max(e, ones) is the numerator without a masked (branching) write.
    """
    e = _exp_neg_abs(x)
    d = e + 1.0
    np.maximum(e, ones, out=e)
    return np.divide(e, d, out=e)[()]


def _sigmoid(x):
    """1 / (1 + exp(-x)), stable in both tails: exp(x) / (1 + exp(x)) for x < 0."""
    x = np.asarray(x, dtype=float)
    return _ratio(x, x >= 0)


def logistic_target() -> Target:
    """Single Bernoulli success term: log p(x) = x - log(1 + exp(x)).

    Improper as a posterior (it integrates to infinity); accepted as-is.
    log_p is computed as min(x, 0) - log1p(exp(-|x|)), which neither
    overflows nor cancels: x - logaddexp(0, x) loses every digit of the
    small negative value in the right tail (0.0 at x = 40, not -4.25e-18).
    log_p and grad_x = sigmoid(-x) each build exp(-|x|) in one fresh array
    and finish on it in place; the caller's x is never written.
    """

    def log_p(x):
        x = np.asarray(x, dtype=float)
        e = _exp_neg_abs(x)
        np.log1p(e, out=e)
        return np.subtract(np.minimum(x, 0.0), e, out=e)[()]

    def grad_x(x):
        x = np.asarray(x, dtype=float)
        return _ratio(x, x <= 0)

    def hess_x(x):
        return -_sigmoid(x) * grad_x(x)

    return Target(name="logistic", log_p=log_p, grad_x=grad_x, hess_x=hess_x)


def gaussian_target(mu: float, sigma2: float) -> ExpFamTarget:
    """Gaussian target sharing q's exponential-family form.

    log p(x) = eta_tilde[0]*x + eta_tilde[1]*x^2 + c with
    eta_tilde = (mu/sigma2, -1/(2*sigma2)) and c chosen so log p is the
    normalized N(mu, sigma2) log-density. log_p and grad_x are evaluated
    in moment form, -(x - mu)^2 / (2 sigma2) - log(2 pi sigma2)/2 and
    -(x - mu) / sigma2: the natural form cancels far from the origin
    (its terms are near 1250 at x = 50 for N(50, 1)).
    """
    mu = float(mu)
    sigma2 = float(sigma2)
    if not (np.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError(f"sigma2 must be finite and > 0, got {sigma2!r}")
    e1 = mu / sigma2
    e2 = -0.5 / sigma2
    log_norm = 0.5 * np.log(2.0 * np.pi * sigma2)

    def log_p(x):
        d = np.asarray(x, dtype=float) - mu
        return d * d * e2 - log_norm

    def grad_x(x):
        return (mu - np.asarray(x, dtype=float)) / sigma2

    def hess_x(x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, 2.0 * e2)

    return ExpFamTarget(
        name=f"gaussian:{mu:g}:{sigma2:g}",
        log_p=log_p,
        grad_x=grad_x,
        hess_x=hess_x,
        eta_tilde=np.array([e1, e2]),
        c=-(mu * mu / (2.0 * sigma2) + log_norm),
    )


def resolve_target(spec: str) -> Target:
    """Look up a target by CLI name: "logistic" or "gaussian:MU:SIGMA2"."""
    spec = spec.strip()
    if spec == "logistic":
        return logistic_target()
    if spec.startswith("gaussian:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected gaussian:MU:SIGMA2, got {spec!r}")
        try:
            mu, sigma2 = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"non-numeric parameters in target {spec!r}") from None
        return gaussian_target(mu, sigma2)
    raise ValueError(f"unknown target {spec!r}; expected 'logistic' or 'gaussian:MU:SIGMA2'")
