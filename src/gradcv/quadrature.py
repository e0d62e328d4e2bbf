"""Gauss-Hermite quadrature oracle.

Provides expectations and covariances under a GaussianQ, and the
ground-truth KL gradient every benchmark MSE is measured against. Nodes
and weights are Gauss-Hermite rules rescaled to the standard-normal
measure, so the weights sum to one (validated by the monomial exactness
tests, and checked for every rule). The default order-128 rule is stored
below as data; other orders come from numpy.polynomial's hermgauss, the
symmetric-tridiagonal eigenvalue construction (Golub & Welsch, 1969) that
the stored rule was computed with, up to order 370 on numpy 2.4.6, past
which its weights overflow and gauss_hermite_rule raises.

On the logistic target, the default rule's gradient is within 2.2e-15 of
the order-370 rule's (relative to max(|gradient|, 1), |mu| / sigma <= 4)
at sigma2 <= 4, which holds every benchmark setting. Its error grows with
sigma2, since the target's step has width 1 / sigma in the standard-normal
node: up to 2.9e-10 at sigma2 = 10, 6.5e-7 at 25 and 5.7e-4 at 100
(3.0e-7 and 7.3e-5 at mu = 0).
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
# How far a rule's weights may sum from 1. Over the orders 1-370 that numpy
# 2.4.6's hermgauss computes, they miss it by at most 3.4e-16 (order 22);
# past 370 its weights overflow, to a sum of 0 at order 371 and to NaN after.
_WEIGHT_SUM_TOL = 1e-14


class EvaluationError(ValueError):
    """An integrand, or the ground-truth gradient, evaluated to a non-finite value."""


@dataclass(frozen=True)
class GhRule:
    """Quadrature rule against the standard normal: E[f] ~ sum w_i f(z_i).

    Its nodes are finite and its weights sum to 1 within _WEIGHT_SUM_TOL,
    or it is a ValueError naming the order.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != (self.order,) or weights.shape != (self.order,):
            raise ValueError("nodes and weights must have length equal to order")
        total = float(weights.sum())  # NaN or inf, which fail the bound, if a weight is not finite
        if not (np.isfinite(nodes).all() and abs(total - 1.0) <= _WEIGHT_SUM_TOL):
            raise ValueError(f"no order-{self.order} rule: its nodes must be finite and its weights sum to 1,"
                             f" not {total!r}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


# The default rule's 64 positive nodes and their weights, ascending, as exact
# reprs of the standard-normal rule hermgauss gives (it symmetrizes, and the
# scalings keep that, so the rule is the mirror image of this half). Stored so
# that no run imports numpy.polynomial or makes a LAPACK call for it; made
# with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas64) by
#   python -c "import numpy as np; x, w = np.polynomial.hermite.hermgauss(128);
#   print([*map(float, np.sqrt(2.0) * x[64:])], [*map(float, w[64:] / np.sqrt(np.pi))])"
_HALF_NODES = (
    0.13857004990306981, 0.41573086006474336, 0.6929538415587477,
    0.9702805763877005, 1.2477528490286338, 1.5254127290378043,
    1.803302655292676, 2.081465522370933, 2.359944769591287,
    2.6387844732722767, 2.9180294428037947, 3.1977253211725807,
    3.477918690638243, 3.758657184321806, 4.039989604545675,
    4.321966048853983, 4.604638044747694, 4.888058694292004,
    5.172282829897557, 5.457367182745521, 5.743370565524051,
    6.030354071375497, 6.3183812912266575, 6.6075185519964945,
    6.897835178557056, 7.189403782776304, 7.482300583511694,
    7.776605762069765, 8.072403858424035, 8.369784214421852,
    8.668841471349165, 8.969676130610475, 9.272395187983271,
    9.577112854005204, 9.88395137565644, 10.193041977751657,
    10.504525946545417, 10.818555883234886, 11.135297161657643,
    11.454929632998397, 11.777649631382982, 12.103672348754635,
    12.43323466667377, 12.766598558490152, 13.104055210370904,
    13.445930057868802, 13.792589002008448, 14.14444616433612,
    14.50197367823803, 14.86571421684854, 15.2362972634527,
    15.61446060168216, 16.0010792504407, 16.39720529236813,
    16.804124122440772, 17.223436323711706, 17.657181231381156,
    18.108031803317022, 18.57961928463202, 19.077113629128604,
    19.608363762556465, 20.186457950290965, 20.83679985201874,
    21.625898907690555,
)
_HALF_WEIGHTS = (
    0.10950785080521366, 0.10142610134303699, 0.08700392126969686,
    0.06911507066971082, 0.050838377727247475, 0.03461907962971327,
    0.02181944245875796, 0.012724906860791791, 0.006864448887204306,
    0.0034239889539721463, 0.001578511846825477, 0.0006722678922491647,
    0.0002643518969867878, 9.592017765424595e-05, 3.209529972887e-05,
    9.896159405861383e-06, 2.8096215481417675e-06, 7.338679100579541e-07,
    1.761892409544811e-07, 3.884208956208999e-08, 7.854594998805028e-09,
    1.455269048674325e-09, 2.467306360396446e-10, 3.822824771608559e-11,
    5.405114781319415e-12, 6.963309572037728e-13, 8.160140928078352e-14,
    8.683158264274547e-15, 8.373836287785869e-16, 7.303705869001902e-17,
    5.748715149354924e-18, 4.073509340307906e-19, 2.591891278287855e-20,
    1.476742304234105e-21, 7.511438779370264e-23, 3.399797421483171e-24,
    1.3644380407490575e-25, 4.8367016604632786e-27, 1.5080356640555282e-28,
    4.1166346887061045e-30, 9.789270504253687e-32, 2.016627340708064e-33,
    3.5769131721695735e-35, 5.425646519966883e-37, 6.985149753511769e-39,
    7.568589055670214e-41, 6.836733907128145e-43, 5.0935262061544715e-45,
    3.091881363330884e-47, 1.5079341842218326e-49, 5.8138960939899754e-52,
    1.7388759553681227e-54, 3.9454189007400834e-57, 6.612180625262886e-60,
    7.923857972510444e-63, 6.522907005481376e-66, 3.5060118257271184e-69,
    1.1518414407241104e-72, 2.1163969188187418e-76, 1.9189385862989513e-80,
    7.115838207546028e-85, 7.925113370920714e-90, 1.4715037015359995e-95,
    1.0150142860928118e-102,
)
_DEFAULT_RULE = GhRule(
    nodes=np.concatenate((-np.array(_HALF_NODES[::-1]), _HALF_NODES)),
    weights=np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS)),
    order=DEFAULT_ORDER,
)


# typed, so that the rule cached for order 1 is not returned, unchecked, for True
@lru_cache(maxsize=None, typed=True)
def gauss_hermite_rule(order: int = DEFAULT_ORDER) -> GhRule:
    """The order-point rule, order a count (gaussian._count).

    A ValueError naming the order where hermgauss's rule overflows (past
    order 370 on numpy 2.4.6), which GhRule finds in the rule itself.
    """
    count = _count("order", order)
    if count == DEFAULT_ORDER:
        return _DEFAULT_RULE
    with np.errstate(all="ignore"):  # GhRule rejects what an overflow leaves
        h_nodes, h_weights = np.polynomial.hermite.hermgauss(count)
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
