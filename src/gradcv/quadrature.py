"""Gauss-Hermite quadrature oracle.

Provides near machine-precision expectations and covariances under a
GaussianQ, and the ground-truth KL gradient every benchmark MSE is
measured against. Nodes and weights come from the symmetric-tridiagonal
eigenvalue construction in numpy.polynomial (validated by the monomial
exactness tests), rescaled to the standard-normal measure so weights
sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import GaussianQ
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


@lru_cache(maxsize=None)
def gauss_hermite_rule(order: int = DEFAULT_ORDER) -> GhRule:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    h_nodes, h_weights = np.polynomial.hermite.hermgauss(order)
    return GhRule(
        nodes=np.sqrt(2.0) * h_nodes,
        weights=h_weights / np.sqrt(np.pi),
        order=order,
    )


def _eval_at_nodes(q: GaussianQ, f, rule: GhRule) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate f at the transformed nodes; returns (x, values)."""
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

    A q at a scale where the gradient is not representable (say mu = 1e200,
    where x^2 overflows) raises EvaluationError instead of returning inf or nan.
    """
    rule = rule or gauss_hermite_rule()
    with np.errstate(over="ignore", invalid="ignore"):
        x, d = _eval_at_nodes(q, lambda x: q.log_density(x) - target.log_p(x), rule)
        t = q.suff_stats(x)
        w = rule.weights
        et = w @ t
        ed = w @ d
        etd = (t * (w * d)[:, None]).sum(axis=0)
        grad = etd - et * ed
    if not np.isfinite(grad).all():
        raise EvaluationError(f"ground-truth gradient is not finite at mu={q.mu!r}, sigma2={q.sigma2!r}: {grad}")
    return grad
