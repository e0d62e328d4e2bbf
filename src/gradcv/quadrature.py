"""Gauss-Hermite quadrature oracle.

Provides near machine-precision expectations and covariances under a
GaussianQ, and the ground-truth KL gradient every benchmark MSE is
measured against. Nodes and weights come from the symmetric-tridiagonal
eigenvalue construction in numpy.polynomial (validated by the monomial
exactness tests), rescaled to the standard-normal measure so weights
sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import GaussianQ, _count, _times_l, _why_no_gradient
from .targets import Target

__all__ = [
    "GhRule",
    "EvaluationError",
    "gauss_hermite_rule",
    "expect",
    "cov",
    "kl_divergence",
    "ground_truth_gradient",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 128


class EvaluationError(ValueError):
    """An integrand, or the ground-truth gradient, evaluated to a non-finite value."""


@dataclass(frozen=True)
class GhRule:
    """Quadrature rule against the standard normal: E[f] ~ sum w_i f(z_i)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValueError("nodes and weights must have length equal to order")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


# typed, so that the rule cached for order 1 is not returned, unchecked, for True
@lru_cache(maxsize=None, typed=True)
def gauss_hermite_rule(order: int = DEFAULT_ORDER) -> GhRule:
    """The order-point rule, order a count (gaussian._count)."""
    h_nodes, h_weights = np.polynomial.hermite.hermgauss(_count("order", order))
    return GhRule(
        nodes=np.sqrt(2.0) * h_nodes,
        weights=h_weights / np.sqrt(np.pi),
        order=order,
    )


def _eval_at_nodes(q: GaussianQ, f, rule: GhRule) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate f at the transformed nodes; returns (x, values).

    Overflow in f is not warned about: a non-finite value is an
    EvaluationError naming its node.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = q.mu + q.sigma * rule.nodes
        vals = np.asarray(f(x), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = int(np.argwhere(bad)[0][0])
        raise EvaluationError(
            f"integrand is not finite at quadrature node x={float(x[idx])!r} (node index {idx})"
        )
    return x, vals


def expect(q: GaussianQ, f, rule: GhRule | None = None) -> float:
    """E_q[f(x)] for a vectorized scalar function f."""
    rule = rule or gauss_hermite_rule()
    _, vals = _eval_at_nodes(q, f, rule)
    if vals.ndim != 1:
        raise ValueError("expect requires a scalar-valued integrand; use cov for vectors")
    return float(rule.weights @ vals)


def _as_columns(vals: np.ndarray, n_nodes: int) -> np.ndarray:
    """Coerce node evaluations to shape (n_nodes, k)."""
    if vals.ndim == 1:
        return vals[:, None]
    if vals.ndim == 2 and vals.shape[0] == n_nodes:
        return vals
    raise ValueError(f"vector integrand must return shape ({n_nodes},) or ({n_nodes}, k), got {vals.shape}")


def cov(q: GaussianQ, f, g, rule: GhRule | None = None) -> np.ndarray:
    """Cov_q[f(x), g(x)] = E[f g^T] - E[f] E[g]^T as a matrix."""
    rule = rule or gauss_hermite_rule()
    _, fv = _eval_at_nodes(q, f, rule)
    _, gv = _eval_at_nodes(q, g, rule)
    fv = _as_columns(fv, rule.order)
    gv = _as_columns(gv, rule.order)
    w = rule.weights
    ef = w @ fv
    eg = w @ gv
    efg = (fv * w[:, None]).T @ gv
    return efg - np.outer(ef, eg)


def kl_divergence(q: GaussianQ, target: Target, rule: GhRule | None = None) -> float:
    """E_q[log q(x) - log p(x)], the objective whose eta-gradient is estimated."""
    rule = rule or gauss_hermite_rule()
    return expect(q, lambda x: q.log_density(x) - target.log_p(x), rule)


def ground_truth_gradient(q: GaussianQ, target: Target, rule: GhRule | None = None) -> np.ndarray:
    """Exact eta-gradient of the KL divergence: Cov_q[T(x), log q(x) - log p(x)].

    Computed centered, as E_w[(T - E T)(d - E_w d)] for d = log q - log p
    at the nodes x = mu + sigma z. There T - E T = L u with u = (z, z^2 - 1)
    and L = [[sigma, 0], [2 mu sigma, sigma2]], and log q(x) =
    -log(2 pi sigma2)/2 - z^2/2, so neither x - mu nor x^2 is formed, and
    the gradient is L E_w[u (d - E_w d)] (gaussian._times_l): E[T d] -
    E[T] E[d] cancels when mu^2 >> sigma2. A q outside the gradient's domain (gaussian._why_no_gradient:
    E_q[x^2] = mu^2 + sigma2 overflows, say at mu = 1e200, or |mu| / sigma is
    past MAX_MU_OVER_SIGMA, where the nodes mu + sigma z have lost z to
    rounding) raises EvaluationError instead of returning inf or nan, and so
    does a q where the gradient itself overflows.
    """
    reason = _why_no_gradient(q)
    if reason:
        raise EvaluationError(f"no ground-truth gradient at mu={q.mu!r}, sigma2={q.sigma2!r}: {reason}")
    rule = rule or gauss_hermite_rule()
    z, w = rule.nodes, rule.weights
    with np.errstate(over="ignore", invalid="ignore"):
        _, lp = _eval_at_nodes(q, target.log_p, rule)
        d = -0.5 * (math.log(2.0 * math.pi * q.sigma2) + z * z) - lp
        d -= w @ d
        grad = _times_l(q, w @ (z * d), w @ ((z * z - 1.0) * d))
    if not np.isfinite(grad).all():
        raise EvaluationError(f"ground-truth gradient is not finite at mu={q.mu!r}, sigma2={q.sigma2!r}: {grad}")
    return grad
