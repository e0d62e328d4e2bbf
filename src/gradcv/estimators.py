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

Every estimator also has a vectorized kernel operating on a matrix of
draws with one row per independent replication; the benchmark harness
calls these directly.

The kernels are written as two-component arithmetic on (R, S) arrays, one
array per component, following the regression view in which every
estimator is a function of a few per-draw quantities:

* score-function methods use the score components s0 = x - mu and
  s1 = x^2 - E_q[x^2] and the integrand f = log q - log p;
* path methods use the path Jacobian dx/deta, whose first column is the
  constant sigma2 and whose second is j1 = 2 mu sigma2 + sigma^3 eps, and
  the residual d/dx [log q - log p] = score_x - grad_x.

Each batch computes its ingredients once and centers each once. Every
covariance is a sum over the draw axis of a product of two centered
(R, S) arrays, and every 2x2 coefficient or natural-gradient system is
solved on (R,) component arrays a00, a01, a10, a11, b0, b1. No stacked
(R, S, 2) score or (R, S, 2, 2) outer-product arrays are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gaussian import DrawBatch, GaussianQ, sample
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
# on a 2x2 system: the non-symmetric fallback reproduces its solution.
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
        if self.total_samples < 2:
            raise ValueError(f"total_samples must be >= 2, got {self.total_samples}")
        if not 0.0 < self.cv_split < 1.0:
            raise ValueError(f"cv_split must be in (0, 1), got {self.cv_split}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.estimator_id not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator_id {self.estimator_id!r}; valid ids: {', '.join(ESTIMATOR_IDS)}"
            )
        if ESTIMATORS[self.estimator_id].split_budget:
            n_coef, n_eval = self.split_sizes()
            if n_coef < 2 or n_eval < 2:
                raise ValueError(
                    f"control-variate methods need >= 2 samples in each half of the split; "
                    f"got {n_coef}+{n_eval} from total_samples={self.total_samples}, "
                    f"cv_split={self.cv_split}"
                )

    def split_sizes(self) -> tuple[int, int]:
        n_coef = int(round(self.total_samples * self.cv_split))
        return n_coef, self.total_samples - n_coef


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


# ---------------------------------------------------------------------------
# shared numerics


def _require_grad(target: Target, estimator_id: str) -> Callable:
    if target.grad_x is None:
        raise CapabilityError(f"estimator {estimator_id!r} requires target.grad_x ({target.name!r} has none)")
    return target.grad_x


def _require_hess(target: Target, estimator_id: str) -> Callable:
    if target.hess_x is None:
        raise CapabilityError(f"estimator {estimator_id!r} requires target.hess_x ({target.name!r} has none)")
    return target.hess_x


def _fval(q: GaussianQ, target: Target, x: np.ndarray) -> np.ndarray:
    """log q - log p at the draws; non-finite log p is an estimation error."""
    lp = np.asarray(target.log_p(x), dtype=float)
    if not np.isfinite(lp).all():
        bad = x[~np.isfinite(lp)]
        raise EstimationError(f"target {target.name!r} log_p is not finite at draw x={bad.flat[0]!r}")
    return q.log_density(x) - lp


def _mean(a: np.ndarray) -> np.ndarray:
    """Mean over the draw axis; bit-identical to a.mean(-1)."""
    return a.sum(-1) / a.shape[-1]


def _centered(a: np.ndarray) -> np.ndarray:
    return a - a.sum(-1, keepdims=True) / a.shape[-1]


# Sum over the draw axis of a * b, without the product temporary. np.vecdot
# (numpy >= 2.0) has the least per-call overhead; einsum is the fallback.
_dot = getattr(np, "vecdot", lambda a, b: np.einsum("...s,...s->...", a, b))


def _pair(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    return np.stack([a0, a1], axis=-1)


def _scores(q: GaussianQ, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two components of score_eta: x - mu and x^2 - E_q[x^2]."""
    return x - q.mu, x * x - (q.mu * q.mu + q.sigma2)


def _score_parts(q: GaussianQ, t: Target, x: np.ndarray, centered: bool = False) -> tuple:
    """Score components s0, s1 and integrand f = log q - log p, optionally centered."""
    parts = (*_scores(q, x), _fval(q, t, x))
    return tuple(map(_centered, parts)) if centered else parts


def _normal_equations(h0: np.ndarray, h1: np.ndarray, f: np.ndarray) -> tuple:
    """Regression of f on (h0, h1), all centered, as a 2x2 system in component form.

    Returns (a00, a01, a10, a11, b0, b1) for a = sum h h^T and b = sum h f;
    a covariance system without its 1/(S-1).
    """
    v01 = _dot(h0, h1)
    return _dot(h0, h0), v01, v01, _dot(h1, h1), _dot(h0, f), _dot(h1, f)


def _score_moments(q: GaussianQ, t: Target, x: np.ndarray) -> tuple:
    """Cov-hat[s, s] and Cov-hat[s, f] with 1/(S-1), as a 2x2 system in component form.

    Cov-hat[s, f] is the cov estimate of the gradient and Cov-hat[s, s]
    estimates the score covariance.
    """
    s0, s1, f = _score_parts(q, t, x, centered=True)
    n1 = x.shape[-1] - 1
    return tuple(v / n1 for v in _normal_equations(s0, s1, f))


def _path_parts(q: GaussianQ, t: Target, x: np.ndarray, eps: np.ndarray, estimator_id: str) -> tuple:
    """Sampler-path ingredients of the draws x = mu + sigma * eps.

    The path Jacobian dx/deta has the constant first column sigma2 and the
    second column j1 = 2 mu sigma2 + sigma^3 eps (see path_jacobian);
    resid = score_x - grad_x is d/dx [log q - log p].
    """
    grad_x = _require_grad(t, estimator_id)
    j1 = 2.0 * q.mu * q.sigma2 + q.sigma ** 3 * eps
    resid = q.score_x(x) - np.asarray(grad_x(x), dtype=float)
    return j1, resid


def _path_moments(q: GaussianQ, t: Target, x: np.ndarray, eps: np.ndarray, estimator_id: str) -> tuple:
    """Batch means of the per-draw path statistics, as a 2x2 system in component form.

    m_j = (dx/deta) outer (dT/dx), with dT/dx = (1, 2x), estimates the score
    covariance; f_j = (dx/deta) * resid estimates the KL gradient. Returns
    (m00, m01, m10, m11, f0, f1); m00 is the scalar sigma2. m is not symmetric.
    """
    s2 = q.sigma2
    j1, resid = _path_parts(q, t, x, eps, estimator_id)
    n = x.shape[-1]
    return s2, 2.0 * s2 * _mean(x), _mean(j1), 2.0 * _dot(j1, x) / n, s2 * _mean(resid), _dot(j1, resid) / n


def _cv_estimate(q: GaussianQ, moments: tuple, alpha0: tuple, alpha1: tuple) -> np.ndarray:
    """Gradient estimate minus the fitted score-covariance control variates.

    moments are (m00, m01, m10, m11, f0, f1), batch estimates of the score
    covariance and of the gradient; alpha_i is the coefficient pair of
    gradient component i: est_i = f_i - sum_l (m_il - Cov_exact_il) alpha_il.
    """
    m00, m01, m10, m11, f0, f1 = moments
    c = q.exact_suffstat_cov()
    h00, h01, h10, h11 = m00 - c[0, 0], m01 - c[0, 1], m10 - c[1, 0], m11 - c[1, 1]
    return _pair(f0 - (h00 * alpha0[0] + h01 * alpha0[1]), f1 - (h10 * alpha1[0] + h11 * alpha1[1]))


def _times_exact(q: GaussianQ, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Cov_exact @ (g0, g1): a natural gradient mapped to eta coordinates."""
    c = q.exact_suffstat_cov()
    return _pair(c[0, 0] * g0 + c[0, 1] * g1, c[1, 0] * g0 + c[1, 1] * g1)


# Stacked forms of the score covariances, for (..., S, 2) arrays such as score_eta's.


def _sample_cov_vec(s: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Cov-hat[s, f] over axis -2 with 1/(S-1); s is (..., S, 2), f is (..., S)."""
    n = s.shape[-2]
    sc = s - s.mean(axis=-2, keepdims=True)
    fc = f - f.mean(axis=-1, keepdims=True)
    return np.einsum("...si,...s->...i", sc, fc) / (n - 1)


def _sample_cov_mat(s: np.ndarray) -> np.ndarray:
    """Cov-hat[s, s] over axis -2 with 1/(S-1); returns (..., 2, 2)."""
    n = s.shape[-2]
    sc = s - s.mean(axis=-2, keepdims=True)
    return np.einsum("...si,...sj->...ij", sc, sc) / (n - 1)


def _det_scale(a00, a01, a10, a11):
    det = a00 * a11 - a01 * a10
    scale = np.maximum(np.maximum(np.abs(a00), np.abs(a01)), np.maximum(np.abs(a10), np.abs(a11)))
    return det, scale


def _solve2c(a00, a01, a10, a11, b0, b1, jitter: float = 0.0, symmetric: bool = False):
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
        if symmetric:
            p0, p1 = _pinv_solve_sym2(a00, a01, a11, b0, b1)
            x0, x1 = np.where(degenerate, p0, x0), np.where(degenerate, p1, x1)
        else:
            rows = [np.broadcast_to(c, degenerate.shape)[degenerate] for c in (a00, a01, a10, a11, b0, b1)]
            m = np.stack(rows[:4], axis=-1).reshape(-1, 2, 2)
            sol = np.linalg.pinv(m, _LSTSQ_RCOND) @ np.stack(rows[4:], axis=-1)[..., None]
            x0[degenerate], x1[degenerate] = sol[:, 0, 0], sol[:, 1, 0]
    return x0, x1, bad


def _solve2(
    a: np.ndarray, b: np.ndarray, jitter: float = 0.0, symmetric: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """_solve2c on stacked (..., 2, 2) matrices and (..., 2) right-hand sides.

    Returns (solution (..., 2), fallback mask).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x0, x1, bad = _solve2c(
        a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1], b[..., 0], b[..., 1], jitter, symmetric
    )
    return _pair(x0, x1), bad


def _solve_sym2(a: np.ndarray, b: np.ndarray, jitter: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    return _solve2(a, b, jitter, symmetric=True)


def _pinv_solve_sym2(a00, a01, a11, b0, b1):
    """Minimum-norm solve via the closed-form eigendecomposition of a sym 2x2."""
    half_tr = 0.5 * (a00 + a11)
    disc = np.sqrt(np.maximum(0.25 * (a00 - a11) ** 2 + a01 * a01, 0.0))
    lam1 = half_tr + disc
    lam2 = half_tr - disc
    # eigenvector (v0, v1) for lam1; pick the better-conditioned of the two algebraic forms
    u0, u1 = a01, lam1 - a00
    w0, w1 = lam1 - a11, a01
    norm_u = np.sqrt(u0 * u0 + u1 * u1)
    norm_w = np.sqrt(w0 * w0 + w1 * w1)
    use_alt = norm_u < norm_w
    norm = np.where(use_alt, norm_w, norm_u)
    nonzero = norm > 0.0
    safe_norm = np.where(nonzero, norm, 1.0)
    v0 = np.where(nonzero, np.where(use_alt, w0, u0) / safe_norm, 1.0)
    v1 = np.where(nonzero, np.where(use_alt, w1, u1) / safe_norm, 0.0)
    lam_floor = _SINGULAR_RTOL * np.maximum(np.abs(lam1), np.abs(lam2))

    def _recip(lam):
        keep = np.abs(lam) > lam_floor
        return np.where(keep, 1.0 / np.where(lam == 0.0, 1.0, lam), 0.0)

    # coordinates along the eigenvectors (v0, v1) of lam1 and (-v1, v0) of lam2
    c1 = (v0 * b0 + v1 * b1) * _recip(lam1)
    c2 = (v0 * b1 - v1 * b0) * _recip(lam2)
    return c1 * v0 - c2 * v1, c1 * v1 + c2 * v0


# ---------------------------------------------------------------------------
# vectorized kernels; x has shape (R, S), results (R, 2)


def _kernel_simple(q: GaussianQ, t: Target, x: np.ndarray) -> tuple[np.ndarray, dict]:
    s0, s1, f = _score_parts(q, t, x)
    n = x.shape[-1]
    return _pair(_dot(s0, f) / n, _dot(s1, f) / n), {}


def _kernel_cov(q: GaussianQ, t: Target, x: np.ndarray) -> tuple[np.ndarray, dict]:
    s0, s1, f = _score_parts(q, t, x, centered=True)
    n1 = x.shape[-1] - 1
    return _pair(_dot(s0, f) / n1, _dot(s1, f) / n1), {}


def _kernel_cv_ideal(
    q: GaussianQ, t: Target, x_coef: np.ndarray, x_eval: np.ndarray, jitter: float
) -> tuple[np.ndarray, dict]:
    # Per-draw statistics of the coefficient batch: f^i_j = s_ij f_j, whose
    # mean is the cov estimate, and h^il_j = s_ij s_lj, whose mean minus
    # Cov_exact has expectation zero; Cov_exact cancels in the centering.
    # Component i regresses f^i on (h^i0, h^i1).
    s0, s1, f = _score_parts(q, t, x_coef, centered=True)
    h00, h01, h11 = _centered(s0 * s0), _centered(s0 * s1), _centered(s1 * s1)
    a00, a01, fb0 = _solve2c(*_normal_equations(h00, h01, _centered(s0 * f)), jitter, symmetric=True)
    a10, a11, fb1 = _solve2c(*_normal_equations(h01, h11, _centered(s1 * f)), jitter, symmetric=True)
    est = _cv_estimate(q, _score_moments(q, t, x_eval), (a00, a01), (a10, a11))
    alpha = np.stack([_pair(a00, a01), _pair(a10, a11)], axis=-2)
    return est, {"alpha": alpha, "singular_fallback": _pair(fb0, fb1)}


def _kernel_cv_regression(
    q: GaussianQ, t: Target, x_coef: np.ndarray, x_eval: np.ndarray, jitter: float
) -> tuple[np.ndarray, dict]:
    a0, a1, fallback = _solve2c(*_score_moments(q, t, x_coef), jitter, symmetric=True)
    est = _cv_estimate(q, _score_moments(q, t, x_eval), (a0, a1), (a0, a1))
    return est, {"alpha": _pair(a0, a1), "singular_fallback": fallback}


def _kernel_cv_ideal_pathgrad(
    q: GaussianQ, t: Target, x_coef, eps_coef, x_eval, eps_eval, jitter: float
) -> tuple[np.ndarray, dict]:
    # cv-ideal with the path statistics f^i_j = (dx/deta)_i resid_j and
    # h^il_j = (dx/deta)_i (dT/dx)_l. The first Jacobian column is the
    # constant sigma2, so h^00 is zero once centered and component 0
    # regresses on h^01 alone (the solve falls back to the minimum norm).
    s2 = q.sigma2
    j1, resid = _path_parts(q, t, x_coef, eps_coef, "cv-ideal-grad")
    tx = 2.0 * x_coef
    h01, h10, h11 = _centered(s2 * tx), _centered(j1), _centered(j1 * tx)
    f0, f1 = _centered(s2 * resid), _centered(j1 * resid)
    a00, a01, fb0 = _solve2c(0.0, 0.0, 0.0, _dot(h01, h01), 0.0, _dot(h01, f0), jitter, symmetric=True)
    a10, a11, fb1 = _solve2c(*_normal_equations(h10, h11, f1), jitter, symmetric=True)
    est = _cv_estimate(q, _path_moments(q, t, x_eval, eps_eval, "cv-ideal-grad"), (a00, a01), (a10, a11))
    alpha = np.stack([_pair(a00, a01), _pair(a10, a11)], axis=-2)
    return est, {"alpha": alpha, "singular_fallback": _pair(fb0, fb1)}


def _kernel_ranganath(
    q: GaussianQ, t: Target, x_coef: np.ndarray, x_eval: np.ndarray
) -> tuple[np.ndarray, dict]:
    # per-component control variate h_i = s_i for the per-draw integrand s_i f
    f_c, f_e = _fval(q, t, x_coef), _fval(q, t, x_eval)
    n = x_eval.shape[-1]
    est, coef, zero_var = [], [], []
    for s_c, s_e in zip(_scores(q, x_coef), _scores(q, x_eval)):
        h = _centered(s_c)
        var_h, cov_fh = _dot(h, h), _dot(_centered(s_c * f_c), h)
        zero = var_h <= 0.0
        c = np.where(zero, 0.0, cov_fh / np.where(zero, 1.0, var_h))
        est.append(_dot(s_e, f_e - c[..., None]) / n)
        coef.append(c)
        zero_var.append(zero)
    return _pair(*est), {"coef": _pair(*coef), "zero_variance": _pair(*zero_var)}


def _kernel_delta(q: GaussianQ, t: Target, x: np.ndarray) -> tuple[np.ndarray, dict]:
    grad_x = _require_grad(t, "delta-method")
    hess_x = _require_hess(t, "delta-method")
    mu, s2 = q.mu, q.sigma2
    lp0 = float(np.asarray(t.log_p(np.array(mu)), dtype=float))
    g0 = float(np.asarray(grad_x(np.array(mu)), dtype=float))
    h0 = float(np.asarray(hess_x(np.array(mu)), dtype=float))
    s0, s1 = _scores(q, x)
    taylor = lp0 + g0 * s0 + 0.5 * h0 * s0 * s0
    lp = np.asarray(t.log_p(x), dtype=float)
    if not np.isfinite(lp).all():
        raise EstimationError(f"target {t.name!r} log_p is not finite at a draw")
    remainder = lp - taylor
    n = x.shape[-1]
    # d/deta E_q[log q] is the negative-entropy gradient (0, -sigma2);
    # d/deta E_q[Taylor] with frozen coefficients uses E[x - mu] = 0 and
    # E[(x - mu)^2] = sigma2 through d mu/d eta and d sigma2/d eta.
    est0 = -_dot(s0, remainder) / n - g0 * s2
    est1 = -s2 - _dot(s1, remainder) / n - (2.0 * g0 * mu * s2 + h0 * s2 * s2)
    return _pair(est0, est1), {}


def _kernel_kingma(q: GaussianQ, t: Target, x: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, dict]:
    j1, resid = _path_parts(q, t, x, eps, "kingma-reparam")
    return _pair(q.sigma2 * _mean(resid), _dot(j1, resid) / x.shape[-1]), {}


def _kernel_greg_samplecov(q: GaussianQ, t: Target, x: np.ndarray, jitter: float) -> tuple[np.ndarray, dict]:
    g0, g1, fallback = _solve2c(*_score_moments(q, t, x), jitter, symmetric=True)
    return _times_exact(q, g0, g1), {"g_nat": _pair(g0, g1), "singular_fallback": fallback}


def _kernel_greg_pathgrad(
    q: GaussianQ, t: Target, x: np.ndarray, eps: np.ndarray, jitter: float
) -> tuple[np.ndarray, dict]:
    # the path estimate of the score covariance is not symmetric
    g0, g1, fallback = _solve2c(*_path_moments(q, t, x, eps, "greg-pathgrad"), jitter)
    return _times_exact(q, g0, g1), {"g_nat": _pair(g0, g1), "singular_fallback": fallback}


# ---------------------------------------------------------------------------
# public single-estimate API


def _single(value: np.ndarray, aux: dict, estimator_id: str, samples: int) -> GradEstimate:
    squeezed = {k: np.asarray(v)[0] for k, v in aux.items()}
    return GradEstimate(
        value=np.asarray(value)[0],
        estimator_id=estimator_id,
        samples_used=samples,
        aux=squeezed or None,
    )


def _one_batch(batch: DrawBatch) -> tuple[np.ndarray, np.ndarray]:
    return batch.draws[None, :], batch.noise[None, :]


def est_simple(q: GaussianQ, t: Target, batch: DrawBatch, config: EstimatorConfig | None = None) -> GradEstimate:
    """Mean of score(x) * (log q(x) - log p(x)) over the batch; unbiased."""
    x, _ = _one_batch(batch)
    value, aux = _kernel_simple(q, t, x)
    return _single(value, aux, "simple", batch.size)


def est_cov(q: GaussianQ, t: Target, batch: DrawBatch, config: EstimatorConfig | None = None) -> GradEstimate:
    """Sample covariance of score and integrand with 1/(S-1); unbiased."""
    if batch.size < 2:
        raise ValueError("est_cov needs at least 2 draws")
    x, _ = _one_batch(batch)
    value, aux = _kernel_cov(q, t, x)
    return _single(value, aux, "cov", batch.size)


def est_cv_ideal(
    q: GaussianQ, t: Target, batch_coef: DrawBatch, batch_eval: DrawBatch,
    config: EstimatorConfig | None = None,
) -> GradEstimate:
    """Covariance estimator minus fitted score-covariance control variates.

    Coefficients are fitted on batch_coef only, so independence of the two
    batches keeps the evaluated estimate unbiased.
    """
    _check_split(batch_coef, batch_eval)
    jitter = config.jitter if config else 0.0
    value, aux = _kernel_cv_ideal(q, t, batch_coef.draws[None], batch_eval.draws[None], jitter)
    return _single(value, aux, "cv-ideal", batch_coef.size + batch_eval.size)


def est_cv_regression(
    q: GaussianQ, t: Target, batch_coef: DrawBatch, batch_eval: DrawBatch,
    config: EstimatorConfig | None = None,
) -> GradEstimate:
    """Control variates with the shared regression coefficient vector.

    The coefficient is the natural-gradient solve on the coefficient batch;
    with a Gaussian-form target it equals eta - eta_tilde identically and
    the estimate collapses to the exact gradient with zero variance.
    """
    _check_split(batch_coef, batch_eval)
    jitter = config.jitter if config else 0.0
    value, aux = _kernel_cv_regression(q, t, batch_coef.draws[None], batch_eval.draws[None], jitter)
    return _single(value, aux, "cv-regression", batch_coef.size + batch_eval.size)


def est_cv_ideal_pathgrad(
    q: GaussianQ, t: Target, batch_coef: DrawBatch, batch_eval: DrawBatch,
    config: EstimatorConfig | None = None,
) -> GradEstimate:
    """cv-ideal with every covariance term estimated through the sampler path."""
    _check_split(batch_coef, batch_eval)
    jitter = config.jitter if config else 0.0
    value, aux = _kernel_cv_ideal_pathgrad(
        q, t,
        batch_coef.draws[None], batch_coef.noise[None],
        batch_eval.draws[None], batch_eval.noise[None],
        jitter,
    )
    return _single(value, aux, "cv-ideal-grad", batch_coef.size + batch_eval.size)


def est_ranganath_cv(
    q: GaussianQ, t: Target, batch_coef: DrawBatch, batch_eval: DrawBatch,
    config: EstimatorConfig | None = None,
) -> GradEstimate:
    """Generic per-component control variate h_i = score_i with a scalar coefficient."""
    _check_split(batch_coef, batch_eval)
    value, aux = _kernel_ranganath(q, t, batch_coef.draws[None], batch_eval.draws[None])
    return _single(value, aux, "ranganath-cv", batch_coef.size + batch_eval.size)


def est_delta_method(q: GaussianQ, t: Target, batch: DrawBatch, config: EstimatorConfig | None = None) -> GradEstimate:
    """Second-order Taylor control variate for log p, analytic remainder."""
    x, _ = _one_batch(batch)
    value, aux = _kernel_delta(q, t, x)
    return _single(value, aux, "delta-method", batch.size)


def est_kingma_reparam(q: GaussianQ, t: Target, batch: DrawBatch, config: EstimatorConfig | None = None) -> GradEstimate:
    """Sampler-path derivative of the Monte Carlo sum of log q - log p.

    The integrand is held fixed and only the draw path x = s(eta, eps) is
    differentiated, which is the unbiased covariance estimate obtained by
    differentiating the sampler.
    """
    x, eps = _one_batch(batch)
    value, aux = _kernel_kingma(q, t, x, eps)
    return _single(value, aux, "kingma-reparam", batch.size)


def est_greg_samplecov(q: GaussianQ, t: Target, batch: DrawBatch, config: EstimatorConfig | None = None) -> GradEstimate:
    """Exact score covariance times the regression solve on one batch; biased."""
    if batch.size < 3:
        raise ValueError("est_greg_samplecov needs at least 3 draws")
    jitter = config.jitter if config else 0.0
    x, _ = _one_batch(batch)
    value, aux = _kernel_greg_samplecov(q, t, x, jitter)
    return _single(value, aux, "greg-samplecov", batch.size)


def est_greg_pathgrad(q: GaussianQ, t: Target, batch: DrawBatch, config: EstimatorConfig | None = None) -> GradEstimate:
    """greg-samplecov with sampler-path covariance estimates; biased."""
    jitter = config.jitter if config else 0.0
    x, eps = _one_batch(batch)
    value, aux = _kernel_greg_pathgrad(q, t, x, eps, jitter)
    return _single(value, aux, "greg-pathgrad", batch.size)


def _check_split(batch_coef: DrawBatch, batch_eval: DrawBatch):
    if batch_coef.size < 2 or batch_eval.size < 2:
        raise ValueError("coefficient and evaluation batches each need >= 2 draws")


# ---------------------------------------------------------------------------
# registry and dispatcher


@dataclass(frozen=True)
class EstimatorInfo:
    id: str
    fn: Callable
    split_budget: bool
    needs_grad: bool = False
    needs_hess: bool = False
    unbiased: bool = True


ESTIMATORS: dict[str, EstimatorInfo] = {
    info.id: info
    for info in (
        EstimatorInfo("simple", est_simple, split_budget=False),
        EstimatorInfo("cov", est_cov, split_budget=False),
        EstimatorInfo("cv-ideal", est_cv_ideal, split_budget=True),
        EstimatorInfo("cv-regression", est_cv_regression, split_budget=True),
        EstimatorInfo("cv-ideal-grad", est_cv_ideal_pathgrad, split_budget=True, needs_grad=True),
        EstimatorInfo("ranganath-cv", est_ranganath_cv, split_budget=True),
        EstimatorInfo("delta-method", est_delta_method, split_budget=False, needs_grad=True, needs_hess=True),
        EstimatorInfo("kingma-reparam", est_kingma_reparam, split_budget=False, needs_grad=True),
        EstimatorInfo("greg-samplecov", est_greg_samplecov, split_budget=False, unbiased=False),
        EstimatorInfo("greg-pathgrad", est_greg_pathgrad, split_budget=False, needs_grad=True, unbiased=False),
    )
}

ESTIMATOR_IDS: tuple[str, ...] = tuple(ESTIMATORS)


def estimate(q: GaussianQ, t: Target, config: EstimatorConfig, seed) -> GradEstimate:
    """Draw the configured budget from q and run the configured estimator.

    Split-budget methods get two disjoint seeded batches; the rest get one
    undivided batch. Deterministic given (q, config, seed).
    """
    info = ESTIMATORS[config.estimator_id]
    base = seed if isinstance(seed, tuple) else (seed,)
    if info.split_budget:
        n_coef, n_eval = config.split_sizes()
        batch_coef = sample(q, base + (0,), n_coef)
        batch_eval = sample(q, base + (1,), n_eval)
        return info.fn(q, t, batch_coef, batch_eval, config)
    batch = sample(q, base + (0,), config.total_samples)
    return info.fn(q, t, batch, config)


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
    Returns the (R, 2) estimates, or with with_aux=True the pair
    (estimates, aux), aux holding the kernel's per-row diagnostics under
    the keys of GradEstimate.aux.
    """
    info = ESTIMATORS[estimator_id]
    if info.needs_grad:
        _require_grad(t, estimator_id)
    if info.needs_hess:
        _require_hess(t, estimator_id)
    if info.split_budget:
        x_c, x_e = x[:, :n_coef], x[:, n_coef:]
        e_c, e_e = eps[:, :n_coef], eps[:, n_coef:]
        if estimator_id == "cv-ideal":
            value, aux = _kernel_cv_ideal(q, t, x_c, x_e, jitter)
        elif estimator_id == "cv-regression":
            value, aux = _kernel_cv_regression(q, t, x_c, x_e, jitter)
        elif estimator_id == "cv-ideal-grad":
            value, aux = _kernel_cv_ideal_pathgrad(q, t, x_c, e_c, x_e, e_e, jitter)
        elif estimator_id == "ranganath-cv":
            value, aux = _kernel_ranganath(q, t, x_c, x_e)
        else:  # pragma: no cover - registry and dispatch kept in sync
            raise KeyError(estimator_id)
    elif estimator_id == "simple":
        value, aux = _kernel_simple(q, t, x)
    elif estimator_id == "cov":
        value, aux = _kernel_cov(q, t, x)
    elif estimator_id == "delta-method":
        value, aux = _kernel_delta(q, t, x)
    elif estimator_id == "kingma-reparam":
        value, aux = _kernel_kingma(q, t, x, eps)
    elif estimator_id == "greg-samplecov":
        value, aux = _kernel_greg_samplecov(q, t, x, jitter)
    elif estimator_id == "greg-pathgrad":
        value, aux = _kernel_greg_pathgrad(q, t, x, eps, jitter)
    else:  # pragma: no cover
        raise KeyError(estimator_id)
    return (value, aux) if with_aux else value
