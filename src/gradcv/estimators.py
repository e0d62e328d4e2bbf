"""Stochastic estimators of the KL gradient for a Gaussian approximation.

All ten methods estimate the same 2-vector, the eta-gradient of
E_q[log q(x) - log p(x)], from a fixed budget of draws. They differ in
how aggressively they cancel Monte Carlo noise:

* simple            plain score-function (REINFORCE) average
* cov               sample-covariance form with the score centered by
                    its sample mean
* cv-ideal          covariance form minus control variates built from
                    the sampling error of the score covariance, with a
                    per-component fitted coefficient vector
* cv-regression     same control variates with one shared coefficient
                    vector, the regression / natural-gradient solve
* cv-ideal-grad     cv-ideal with every covariance term estimated by
                    differentiating the sampler path (requires grad_x)
* ranganath-cv      per-component scalar control variate h_i = score_i
* delta-method      score-function estimator applied to log p minus its
                    second-order Taylor expansion about mu, analytic rest
* kingma-reparam    sampler-path derivative of the Monte Carlo sum of
                    log q - log p with the integrand held fixed
* greg-samplecov    exact score covariance times the regression solve of
                    two sample covariances from the same draws (biased)
* greg-pathgrad     greg-samplecov with both covariances estimated by
                    sampler-path differentiation (biased)

Control-variate methods consume two disjoint batches (coefficients are
fitted on one, the gradient evaluated on the other) so that the final
estimate stays unbiased; the remaining methods consume one batch.

The registry ESTIMATORS is the one place an estimator is wired up. Its
EstimatorInfo holds the method's vectorized kernel, whether the budget is
split, the fewest draws per batch, the target derivatives it needs and
whether it is unbiased. Every kernel has the signature

    kernel(coef, ev, jitter) -> ((R, 2), aux)

where coef and ev are the coefficient and evaluation halves of one Draws:
draws x of q and their standard-normal noise eps of shape (R, S), one row
per independent replication, with q and the target. Split-budget methods
fit coefficients on coef and evaluate on ev; the rest get coef None and the
whole Draws as ev, and methods without a 2x2 solve ignore jitter. aux maps
diagnostic names to per-row arrays. run_kernel is the one dispatch: it
checks the target's capabilities, splits the columns, calls the kernel
with overflow not warned about, and raises EstimationError on a
non-finite estimate. The benchmark runs every estimator of a tile of rows
on one Draws through it, the fit runs one row per step, and estimate()
and the est_* functions run one row. The est_* functions are generated
from the registry and carry their kernel's docstring. Every kernel treats
each row on its own, so an estimate does not depend on which rows share
its call.

The kernels are written as two-component arithmetic on (R, S) arrays, one
array per component, following the regression view in which every
estimator is a function of a few per-draw quantities:

* score-function methods use the score components s0 = x - mu and
  s1 = x^2 - E_q[x^2] and the integrand f = log q - log p;
* path methods use the path Jacobian dx/deta, whose first column is the
  constant sigma2 and whose second is j1 = 2 mu sigma2 + sigma^3 eps, and
  the residual resid = d/dx [log q - log p] = score_x - grad_x.

A Draws is the cache of these quantities for its tile. It computes each
elementwise ingredient (the target's log_p, the scores, f, and j1 with
resid, which reads grad_x) at most once, on every column, when a kernel
first reads it; the halves are column views that slice it. It also keeps
the (R,) moment tuples of a column range: the score moments Cov-hat[s, s]
and Cov-hat[s, f], and the path moments. So every kernel run on one Draws
reads what another has computed: cv-ideal and cv-regression share the
evaluation half's score moments, cov and greg-samplecov the whole range's,
kingma-reparam and greg-pathgrad the whole range's path moments, and all
path methods j1 and resid. A cached value is computed by the same
expression, on the same values, as a kernel alone would compute it, so
sharing changes no estimate. A kernel alone on a Draws computes nothing
it does not read, except that a moment tuple is computed whole: cov's
estimate is the (b0, b1) of the score moments and kingma-reparam's the
(f0, f1) of the path moments. Centered (R, S) arrays are not kept: each
kernel centers what it needs and lets it go, so a tile's memory is its
elementwise ingredients. Every covariance is a sum over the draw axis of
a product of two centered (R, S) arrays, and every 2x2 coefficient or
natural-gradient system is solved on (R,) component arrays a00, a01, a10,
a11, b0, b1. No stacked (R, S, 2) score or (R, S, 2, 2) outer-product
arrays are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gaussian import DrawBatch, GaussianQ, rng_from_seed
from .targets import Target

__all__ = [
    "CapabilityError",
    "EstimationError",
    "EstimatorConfig",
    "GradEstimate",
    "EstimatorInfo",
    "ESTIMATORS",
    "ESTIMATOR_IDS",
    "estimate",
    "est_simple",
    "est_cov",
    "est_cv_ideal",
    "est_cv_regression",
    "est_cv_ideal_pathgrad",
    "est_ranganath_cv",
    "est_delta_method",
    "est_kingma_reparam",
    "est_greg_samplecov",
    "est_greg_pathgrad",
]

# Determinant threshold, relative to the squared magnitude of the matrix,
# below which a 2x2 solve falls back to the pseudo-inverse.
_SINGULAR_RTOL = 1e-12
# Singular-value cutoff, relative to the largest, of np.linalg.lstsq(rcond=None)
# on a 2x2 system: the singular fallback reproduces its solution.
_LSTSQ_RCOND = 2 * np.finfo(float).eps


class CapabilityError(RuntimeError):
    """The target lacks a derivative this estimator requires."""


class EstimationError(RuntimeError):
    """The target or estimate evaluated to a non-finite value."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling budget and solver options shared by all estimators."""

    total_samples: int = 50
    cv_split: float = 0.5
    estimator_id: str = "simple"
    jitter: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.cv_split < 1.0:
            raise ValueError(f"cv_split must be in (0, 1), got {self.cv_split}")
        if not (np.isfinite(self.jitter) and self.jitter >= 0.0):
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")
        if self.estimator_id not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator_id {self.estimator_id!r}; valid ids: {', '.join(ESTIMATOR_IDS)}"
            )
        sizes, min_draws = self.batch_sizes(), ESTIMATORS[self.estimator_id].min_draws
        if min(sizes) < min_draws:
            raise ValueError(
                f"estimator {self.estimator_id!r} needs >= {min_draws} samples in each batch; "
                f"got {'+'.join(map(str, sizes))} from total_samples={self.total_samples}, "
                f"cv_split={self.cv_split}"
            )

    def split_sizes(self) -> tuple[int, int]:
        n_coef = int(round(self.total_samples * self.cv_split))
        return n_coef, self.total_samples - n_coef

    def batch_sizes(self) -> tuple[int, ...]:
        """Draws per batch: the split for split-budget methods, else the whole budget."""
        if ESTIMATORS[self.estimator_id].split_budget:
            return self.split_sizes()
        return (self.total_samples,)


@dataclass(frozen=True)
class GradEstimate:
    """A single 2-vector gradient estimate plus provenance."""

    value: np.ndarray
    estimator_id: str
    samples_used: int
    aux: Optional[dict] = None

    def __post_init__(self):
        value = np.asarray(self.value, dtype=float)
        if value.shape != (2,):
            raise ValueError(f"value must be a 2-vector, got shape {value.shape}")
        if not np.isfinite(value).all():
            raise EstimationError(f"non-finite gradient estimate: {value}")
        value.setflags(write=False)
        object.__setattr__(self, "value", value)


class Draws:
    """Draws x = mu + sigma * eps of q, shape (R, S): the ingredient cache of one tile.

    Kernels read the per-draw ingredients from their Draws, so kernels run
    on one Draws compute each once. It keeps:

    * the elementwise ingredients, keyed by the function that computes them:
      the target's log_p (_log_p; a non-finite log p is an estimation error
      naming its draw), the scores (s0, s1) (_scores), the integrand f
      (_fval) and the path pieces (j1, resid) (_path_parts), which read the
      target's grad_x. Each is computed on first use, once for all columns;
    * the (R,) moment tuples of _score_moments and _path_moments, keyed by
      the reduction and the column range (lo, hi) as columns() was given it.

    columns(lo, hi) is the view of a column range: its x and eps are views,
    its elementwise ingredients are column slices of those of the Draws it
    came from, and its moments are kept there. Centered (R, S) arrays are
    not kept; each kernel makes its own and lets them go.
    """

    __slots__ = ("q", "t", "x", "eps", "_root", "_cols", "_cache")

    def __init__(self, q: GaussianQ, t: Target, x: np.ndarray, eps: np.ndarray):
        self.q, self.t, self.x, self.eps = q, t, x, eps
        # a root Draws is its own root; None, not self, since a reference
        # cycle would keep every tile's arrays until the cycle collector runs
        self._root, self._cols = None, slice(None)
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.x)

    def columns(self, lo: int, hi: int | None = None) -> "Draws":
        view = Draws(self.q, self.t, self.x[:, lo:hi], self.eps[:, lo:hi])
        view._root, view._cols = self, slice(lo, hi)
        return view

    def _elementwise(self, compute):
        """compute(root) of the whole Draws, kept by it and sliced to this one's columns."""
        if self._root is None:
            value = self._cache.get(compute)
            if value is None:
                value = self._cache[compute] = compute(self)
            return value
        value, cols = self._root._elementwise(compute), self._cols
        return (value[0][:, cols], value[1][:, cols]) if type(value) is tuple else value[:, cols]

    def _reduced(self, reduce) -> tuple:
        """reduce(self), kept by the whole Draws under this one's column range."""
        cache = self._cache if self._root is None else self._root._cache
        key = (reduce, self._cols.start, self._cols.stop)
        value = cache.get(key)
        if value is None:
            value = cache[key] = reduce(self)
        return value

    @property
    def log_p(self) -> np.ndarray:
        return self._elementwise(_log_p)

    @property
    def scores(self) -> tuple[np.ndarray, np.ndarray]:
        return self._elementwise(_scores)

    @property
    def f(self) -> np.ndarray:
        return self._elementwise(_fval)

    @property
    def path(self) -> tuple[np.ndarray, np.ndarray]:
        return self._elementwise(_path_parts)

    @property
    def score_moments(self) -> tuple:
        return self._reduced(_score_moments)

    @property
    def path_moments(self) -> tuple:
        return self._reduced(_path_moments)


# ---------------------------------------------------------------------------
# per-draw ingredients, each computed on a whole Draws d (see Draws)


def _log_p(d: Draws) -> np.ndarray:
    lp = np.asarray(d.t.log_p(d.x), dtype=float)
    if not np.isfinite(lp).all():
        bad = d.x[~np.isfinite(lp)]
        raise EstimationError(f"target {d.t.name!r} log_p is not finite at draw x={bad.flat[0]!r}")
    return lp


def _scores(d: Draws) -> tuple[np.ndarray, np.ndarray]:
    """The two components of score_eta: x - mu and x^2 - E_q[x^2]."""
    q, x = d.q, d.x
    return x - q.mu, x * x - (q.mu * q.mu + q.sigma2)


def _fval(d: Draws) -> np.ndarray:
    """The integrand log q - log p."""
    return d.q.log_density(d.x) - d.log_p


def _path_parts(d: Draws) -> tuple[np.ndarray, np.ndarray]:
    """Sampler-path ingredients of the draws x = mu + sigma * eps.

    The path Jacobian dx/deta has the constant first column sigma2 and the
    second column j1 = 2 mu sigma2 + sigma^3 eps (see path_jacobian);
    resid = score_x - grad_x is d/dx [log q - log p]. The target's grad_x is
    read through resid alone, so it is not kept.
    """
    q = d.q
    j1 = 2.0 * q.mu * q.sigma2 + q.sigma ** 3 * d.eps
    return j1, q.score_x(d.x) - np.asarray(d.t.grad_x(d.x), dtype=float)


# ---------------------------------------------------------------------------
# shared numerics


def _mean(a: np.ndarray) -> np.ndarray:
    """Mean over the draw axis; bit-identical to a.mean(-1)."""
    return a.sum(-1) / a.shape[-1]


def _centered(a: np.ndarray) -> np.ndarray:
    return a - a.sum(-1, keepdims=True) / a.shape[-1]


# Sum over the draw axis of a * b, without the product temporary. np.vecdot
# (numpy >= 2.0) has the least per-call overhead; einsum is the fallback.
_dot = getattr(np, "vecdot", lambda a, b: np.einsum("...s,...s->...", a, b))


def _pair(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """np.stack([a0, a1], axis=-1), with less per-call overhead."""
    return np.concatenate((a0[..., None], a1[..., None]), axis=-1)


def _normal_equations(h0: np.ndarray, h1: np.ndarray, f: np.ndarray) -> tuple:
    """Regression of f on (h0, h1), all centered, as a 2x2 system in component form.

    Returns (a00, a01, a10, a11, b0, b1) for a = sum h h^T and b = sum h f;
    a covariance system without its 1/(S-1).
    """
    v01 = _dot(h0, h1)
    return _dot(h0, h0), v01, v01, _dot(h1, h1), _dot(h0, f), _dot(h1, f)


def _score_moments(d: Draws) -> tuple:
    """Cov-hat[s, s] and Cov-hat[s, f] with 1/(S-1), as a 2x2 system in component form.

    Cov-hat[s, f] is the cov estimate of the gradient and Cov-hat[s, s]
    estimates the score covariance. Read it as d.score_moments.
    """
    (s0, s1), f = d.scores, d.f
    n1 = d.x.shape[-1] - 1
    a00, a01, _, a11, b0, b1 = _normal_equations(_centered(s0), _centered(s1), _centered(f))
    a01 = a01 / n1
    return a00 / n1, a01, a01, a11 / n1, b0 / n1, b1 / n1


def _path_moments(d: Draws) -> tuple:
    """Batch means of the per-draw path statistics, as a 2x2 system in component form.

    m_j = (dx/deta) outer (dT/dx), with dT/dx = (1, 2x), estimates the score
    covariance; f_j = (dx/deta) * resid estimates the KL gradient. Returns
    (m00, m01, m10, m11, f0, f1); m00 is the scalar sigma2. m is not symmetric.
    Read it as d.path_moments.
    """
    s2, x = d.q.sigma2, d.x
    j1, resid = d.path
    n = x.shape[-1]
    return s2, 2.0 * s2 * _mean(x), _mean(j1), 2.0 * _dot(j1, x) / n, s2 * _mean(resid), _dot(j1, resid) / n


def _cv_estimate(q: GaussianQ, moments: tuple, alpha0: tuple, alpha1: tuple) -> np.ndarray:
    """Gradient estimate minus the fitted score-covariance control variates.

    moments are (m00, m01, m10, m11, f0, f1), batch estimates of the score
    covariance and of the gradient; alpha_i is the coefficient pair of
    gradient component i: est_i = f_i - sum_l (m_il - Cov_exact_il) alpha_il.
    """
    m00, m01, m10, m11, f0, f1 = moments
    (c00, c01), (c10, c11) = q.exact_suffstat_cov().tolist()
    h00, h01, h10, h11 = m00 - c00, m01 - c01, m10 - c10, m11 - c11
    return _pair(f0 - (h00 * alpha0[0] + h01 * alpha0[1]), f1 - (h10 * alpha1[0] + h11 * alpha1[1]))


def _times_exact(q: GaussianQ, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Cov_exact @ (g0, g1): a natural gradient mapped to eta coordinates."""
    (c00, c01), (c10, c11) = q.exact_suffstat_cov().tolist()
    return _pair(c00 * g0 + c01 * g1, c10 * g0 + c11 * g1)


def _det_scale(a00, a01, a10, a11):
    det = a00 * a11 - a01 * a10
    scale = np.maximum(np.maximum(np.abs(a00), np.abs(a01)), np.maximum(np.abs(a10), np.abs(a11)))
    return det, scale


def _solve2c(a00, a01, a10, a11, b0, b1, jitter: float = 0.0):
    """Batched 2x2 solve a @ x = b on component arrays, with a singular fallback.

    Well-conditioned systems use the closed-form inverse. When |det| falls
    below _SINGULAR_RTOL times the squared matrix magnitude the solve is
    retried with jitter added to the diagonal (if configured) and finally
    falls back to a minimum-norm least-squares solution, which leaves
    directions of zero variance with a zero coefficient. Components
    broadcast against each other. Returns (x0, x1, fallback mask).
    """
    det, scale = _det_scale(a00, a01, a10, a11)
    bad = degenerate = np.abs(det) <= _SINGULAR_RTOL * scale * scale
    if jitter > 0.0 and bad.any():
        bump = np.where(bad, jitter, 0.0)
        a00, a11 = a00 + bump, a11 + bump
        det, scale = _det_scale(a00, a01, a10, a11)
        degenerate = np.abs(det) <= _SINGULAR_RTOL * scale * scale
    safe_det = np.where(degenerate, 1.0, det)
    x0 = np.asarray((a11 * b0 - a01 * b1) / safe_det)
    x1 = np.asarray((a00 * b1 - a10 * b0) / safe_det)
    if degenerate.any():
        rows = [np.broadcast_to(c, degenerate.shape)[degenerate] for c in (a00, a01, a10, a11, b0, b1)]
        m = np.stack(rows[:4], axis=-1).reshape(-1, 2, 2)
        sol = np.linalg.pinv(m, _LSTSQ_RCOND) @ np.stack(rows[4:], axis=-1)[..., None]
        x0[degenerate], x1[degenerate] = sol[:, 0, 0], sol[:, 1, 0]
    return x0, x1, bad


# ---------------------------------------------------------------------------
# kernels: (coef, ev, jitter) -> ((R, 2), aux)
#
# Unsplit methods get the whole Draws, named d below, and coef None;
# arguments a kernel ignores carry a leading underscore. _kernel_NAME's
# est_* function is est_NAME and carries the kernel's docstring. Kernels
# read q, the per-draw ingredients and the moment tuples from the Draws, so
# kernels run on one Draws share them; what a kernel centers is its own.


def _kernel_simple(_coef, d: Draws, _jitter) -> tuple[np.ndarray, dict]:
    """Mean of score(x) * (log q(x) - log p(x)) over the batch; unbiased."""
    (s0, s1), f = d.scores, d.f
    n = d.x.shape[-1]
    return _pair(_dot(s0, f) / n, _dot(s1, f) / n), {}


def _kernel_cov(_coef, d: Draws, _jitter) -> tuple[np.ndarray, dict]:
    """Sample covariance of score and integrand with 1/(S-1); unbiased."""
    # Cov-hat[s, f], the right-hand side of the score moments
    *_, b0, b1 = d.score_moments
    return _pair(b0, b1), {}


def _kernel_cv_ideal(coef: Draws, ev: Draws, jitter) -> tuple[np.ndarray, dict]:
    """Covariance estimator minus fitted score-covariance control variates.

    Coefficients are fitted on batch_coef only, so independence of the two
    batches keeps the evaluated estimate unbiased.
    """
    # Per-draw statistics of the coefficient batch: f^i_j = s_ij f_j, whose
    # mean is the cov estimate, and h^il_j = s_ij s_lj, whose mean minus
    # Cov_exact has expectation zero; Cov_exact cancels in the centering.
    # Component i regresses f^i on (h^i0, h^i1).
    s0, s1 = map(_centered, coef.scores)
    f = _centered(coef.f)
    h00, h01, h11 = _centered(s0 * s0), _centered(s0 * s1), _centered(s1 * s1)
    a00, a01, fb0 = _solve2c(*_normal_equations(h00, h01, _centered(s0 * f)), jitter)
    a10, a11, fb1 = _solve2c(*_normal_equations(h01, h11, _centered(s1 * f)), jitter)
    est = _cv_estimate(ev.q, ev.score_moments, (a00, a01), (a10, a11))
    alpha = np.stack([_pair(a00, a01), _pair(a10, a11)], axis=-2)
    return est, {"alpha": alpha, "singular_fallback": _pair(fb0, fb1)}


def _kernel_cv_regression(coef: Draws, ev: Draws, jitter) -> tuple[np.ndarray, dict]:
    """Control variates with the shared regression coefficient vector.

    The coefficient is the natural-gradient solve on the coefficient batch;
    with a Gaussian-form target it equals eta - eta_tilde identically and
    the estimate collapses to the exact gradient with zero variance.
    """
    a0, a1, fallback = _solve2c(*coef.score_moments, jitter)
    est = _cv_estimate(ev.q, ev.score_moments, (a0, a1), (a0, a1))
    return est, {"alpha": _pair(a0, a1), "singular_fallback": fallback}


def _kernel_cv_ideal_pathgrad(coef: Draws, ev: Draws, jitter) -> tuple[np.ndarray, dict]:
    """cv-ideal with every covariance term estimated through the sampler path."""
    # cv-ideal with the path statistics f^i_j = (dx/deta)_i resid_j and
    # h^il_j = (dx/deta)_i (dT/dx)_l. The first Jacobian column is the
    # constant sigma2, so h^00 is zero once centered and component 0 is the
    # scalar regression of f^0 on h^01, with a zero coefficient on h^00;
    # only draws without spread (var h^01 = 0) flag a fallback.
    s2 = coef.q.sigma2
    j1, resid = coef.path
    tx = 2.0 * coef.x
    h01, h10, h11 = _centered(s2 * tx), _centered(j1), _centered(j1 * tx)
    f0, f1 = _centered(s2 * resid), _centered(j1 * resid)
    var01 = _dot(h01, h01)
    fb0 = var01 <= 0.0
    a01 = np.where(fb0, 0.0, _dot(h01, f0) * (1.0 / np.where(fb0, 1.0, var01)))
    a00 = np.zeros_like(a01)
    a10, a11, fb1 = _solve2c(*_normal_equations(h10, h11, f1), jitter)
    est = _cv_estimate(ev.q, ev.path_moments, (a00, a01), (a10, a11))
    alpha = np.stack([_pair(a00, a01), _pair(a10, a11)], axis=-2)
    return est, {"alpha": alpha, "singular_fallback": _pair(fb0, fb1)}


def _kernel_ranganath_cv(coef: Draws, ev: Draws, _jitter) -> tuple[np.ndarray, dict]:
    """Generic per-component control variate h_i = score_i with a scalar coefficient."""
    # per-component control variate h_i = s_i for the per-draw integrand s_i f
    f_c, f_e = coef.f, ev.f
    n = ev.x.shape[-1]
    est, coefs, zero_var = [], [], []
    for s_c, s_e in zip(coef.scores, ev.scores):
        h = _centered(s_c)
        var_h, cov_fh = _dot(h, h), _dot(_centered(s_c * f_c), h)
        zero = var_h <= 0.0
        c = np.where(zero, 0.0, cov_fh / np.where(zero, 1.0, var_h))
        est.append(_dot(s_e, f_e - c[..., None]) / n)
        coefs.append(c)
        zero_var.append(zero)
    return _pair(*est), {"coef": _pair(*coefs), "zero_variance": _pair(*zero_var)}


def _kernel_delta_method(_coef, d: Draws, _jitter) -> tuple[np.ndarray, dict]:
    """Second-order Taylor control variate for log p, analytic remainder."""
    mu, s2, t = d.q.mu, d.q.sigma2, d.t
    lp0 = float(np.asarray(t.log_p(np.array(mu)), dtype=float))
    g0 = float(np.asarray(t.grad_x(np.array(mu)), dtype=float))
    h0 = float(np.asarray(t.hess_x(np.array(mu)), dtype=float))
    s0, s1 = d.scores
    taylor = lp0 + g0 * s0 + 0.5 * h0 * s0 * s0
    remainder = d.log_p - taylor
    n = d.x.shape[-1]
    # d/deta E_q[log q] is the negative-entropy gradient (0, -sigma2);
    # d/deta E_q[Taylor] with frozen coefficients uses E[x - mu] = 0 and
    # E[(x - mu)^2] = sigma2 through d mu/d eta and d sigma2/d eta.
    est0 = -_dot(s0, remainder) / n - g0 * s2
    est1 = -s2 - _dot(s1, remainder) / n - (2.0 * g0 * mu * s2 + h0 * s2 * s2)
    return _pair(est0, est1), {}


def _kernel_kingma_reparam(_coef, d: Draws, _jitter) -> tuple[np.ndarray, dict]:
    """Sampler-path derivative of the Monte Carlo sum of log q - log p.

    The integrand is held fixed and only the draw path x = s(eta, eps) is
    differentiated, which is the unbiased covariance estimate obtained by
    differentiating the sampler. It is the (f0, f1) of the path moments.
    """
    return _pair(*d.path_moments[4:]), {}


def _kernel_greg_samplecov(_coef, d: Draws, jitter) -> tuple[np.ndarray, dict]:
    """Exact score covariance times the regression solve on one batch; biased."""
    g0, g1, fallback = _solve2c(*d.score_moments, jitter)
    return _times_exact(d.q, g0, g1), {"g_nat": _pair(g0, g1), "singular_fallback": fallback}


def _kernel_greg_pathgrad(_coef, d: Draws, jitter) -> tuple[np.ndarray, dict]:
    """greg-samplecov with sampler-path covariance estimates; biased."""
    # the path estimate of the score covariance is not symmetric
    g0, g1, fallback = _solve2c(*d.path_moments, jitter)
    return _times_exact(d.q, g0, g1), {"g_nat": _pair(g0, g1), "singular_fallback": fallback}


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class EstimatorInfo:
    """One estimator: its kernel and what the kernel needs.

    min_draws is the fewest draws the kernel takes in each batch: in each
    half of the split for split-budget methods, in the whole budget for
    the rest.
    """

    id: str
    kernel: Callable[..., tuple[np.ndarray, dict]]
    split_budget: bool
    min_draws: int = 1
    needs_grad: bool = False
    needs_hess: bool = False
    unbiased: bool = True

    def check(self, t: Target) -> None:
        """Raise CapabilityError if t lacks a derivative the kernel needs."""
        for field, needed in (("grad_x", self.needs_grad), ("hess_x", self.needs_hess)):
            if needed and getattr(t, field) is None:
                raise CapabilityError(f"estimator {self.id!r} requires target.{field} ({t.name!r} has none)")


ESTIMATORS: dict[str, EstimatorInfo] = {
    info.id: info
    for info in (
        EstimatorInfo("simple", _kernel_simple, split_budget=False),
        EstimatorInfo("cov", _kernel_cov, split_budget=False, min_draws=2),
        EstimatorInfo("cv-ideal", _kernel_cv_ideal, split_budget=True, min_draws=2),
        EstimatorInfo("cv-regression", _kernel_cv_regression, split_budget=True, min_draws=2),
        EstimatorInfo("cv-ideal-grad", _kernel_cv_ideal_pathgrad, split_budget=True, min_draws=2, needs_grad=True),
        EstimatorInfo("ranganath-cv", _kernel_ranganath_cv, split_budget=True, min_draws=2),
        EstimatorInfo("delta-method", _kernel_delta_method, split_budget=False, needs_grad=True, needs_hess=True),
        EstimatorInfo("kingma-reparam", _kernel_kingma_reparam, split_budget=False, needs_grad=True),
        EstimatorInfo("greg-samplecov", _kernel_greg_samplecov, split_budget=False, min_draws=3, unbiased=False),
        EstimatorInfo("greg-pathgrad", _kernel_greg_pathgrad, split_budget=False, needs_grad=True, unbiased=False),
    )
}

ESTIMATOR_IDS: tuple[str, ...] = tuple(ESTIMATORS)


# ---------------------------------------------------------------------------
# dispatch


def run_kernel(
    estimator_id: str,
    q: GaussianQ,
    t: Target,
    x: np.ndarray,
    eps: np.ndarray,
    n_coef: int,
    jitter: float = 0.0,
    *,
    with_aux: bool = False,
):
    """Vectorized entry point: one gradient estimate per row of x.

    x and eps have shape (R, S); split-budget estimators use the first
    n_coef columns as the coefficient batch and the rest for evaluation.
    x may instead be a Draws of q and the target t, and eps is then not
    read: every kernel run on one Draws shares its ingredients, as the
    benchmark's estimators share each tile. Returns the (R, 2) estimates,
    or with with_aux=True the pair (estimates, aux), aux holding the
    kernel's per-row diagnostics under the keys of GradEstimate.aux.

    This is the one caller of a kernel. It checks the target's
    capabilities, splits the columns and runs the kernel with overflow not
    warned about: a non-finite estimate in any row is an EstimationError
    naming the estimator and q.
    """
    if isinstance(x, Draws):
        if x.t is not t:
            raise ValueError(f"x holds draws of target {x.t.name!r}, not of {t.name!r}")
        if x.q is not q:
            raise ValueError(f"x holds draws of {x.q}, not of {q}")
        d = x
    else:
        d = Draws(q, t, x, eps)
    info = ESTIMATORS[estimator_id]
    info.check(t)
    coef, ev = (d.columns(0, n_coef), d.columns(n_coef)) if info.split_budget else (None, d)
    with np.errstate(over="ignore", invalid="ignore"):
        value, aux = info.kernel(coef, ev, jitter)
    if not np.isfinite(value).all():
        bad = value[~np.isfinite(value).all(axis=-1)][0]
        raise EstimationError(f"non-finite gradient estimate {bad} of {estimator_id!r} at {q}")
    return (value, aux) if with_aux else value


def _row(
    info: EstimatorInfo, q: GaussianQ, t: Target, x: np.ndarray, eps: np.ndarray, n_coef: int, jitter: float
) -> GradEstimate:
    """The GradEstimate of the one (1, S) row of draws x."""
    value, aux = run_kernel(info.id, q, t, x, eps, n_coef, jitter, with_aux=True)
    return GradEstimate(value[0], info.id, samples_used=x.shape[1], aux={k: v[0] for k, v in aux.items()} or None)


def _alias(info: EstimatorInfo) -> Callable[..., GradEstimate]:
    """The public est_* function of an estimator: its kernel on one row of draws."""

    def row(q: GaussianQ, t: Target, batches, config: EstimatorConfig | None) -> GradEstimate:
        sizes = [b.size for b in batches]
        if min(sizes) < info.min_draws:
            raise ValueError(
                f"estimator {info.id!r} needs >= {info.min_draws} draws in each batch, got {'+'.join(map(str, sizes))}"
            )
        x = np.concatenate([b.draws for b in batches])[None]
        eps = np.concatenate([b.noise for b in batches])[None]
        return _row(info, q, t, x, eps, sizes[0], config.jitter if config else 0.0)

    if info.split_budget:
        def est(
            q: GaussianQ, t: Target, batch_coef: DrawBatch, batch_eval: DrawBatch,
            config: EstimatorConfig | None = None,
        ) -> GradEstimate:
            return row(q, t, (batch_coef, batch_eval), config)
    else:
        def est(q: GaussianQ, t: Target, batch: DrawBatch, config: EstimatorConfig | None = None) -> GradEstimate:
            return row(q, t, (batch,), config)
    est.__name__ = est.__qualname__ = "est_" + info.kernel.__name__.removeprefix("_kernel_")
    est.__doc__ = info.kernel.__doc__
    return est


for _info in ESTIMATORS.values():
    _fn = _alias(_info)
    globals()[_fn.__name__] = _fn
del _info, _fn


def estimate(q: GaussianQ, t: Target, config: EstimatorConfig, seed) -> GradEstimate:
    """Draw the configured budget from q and run the configured estimator.

    Split-budget methods get two disjoint seeded batches; the rest get one
    undivided batch. Batch i's noise is the stream keyed (*seed, i), the
    noise of q.sample((*seed, i), n), drawn into its columns of one row.
    Deterministic given (q, config, seed).
    """
    base = seed if isinstance(seed, tuple) else (seed,)
    sizes = config.batch_sizes()
    eps = np.concatenate([rng_from_seed(base + (i,)).standard_normal(n) for i, n in enumerate(sizes)])[None]
    return _row(ESTIMATORS[config.estimator_id], q, t, q.reparameterize(eps), eps, sizes[0], config.jitter)
