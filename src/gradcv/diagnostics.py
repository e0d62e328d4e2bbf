"""Identity and exactness checks, shared by the selftest CLI and the test suite.

Each check returns a CheckResult with the worst observed deviation so the
CLI can print one pass/fail line per suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import Draws, EstimatorConfig, run_kernel
from .gaussian import GaussianQ, from_natural, rng_from_seed
from .quadrature import cov, expect, gauss_hermite_rule
from .targets import gaussian_target, logistic_target

__all__ = [
    "CheckResult",
    "check_covariance_identity",
    "check_score_finite_difference",
    "check_path_gradient_finite_difference",
    "check_exactness",
    "check_density_normalization",
    "run_all_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""


_CHECK_QS = ((0.0, 2.0), (-2.0, 2.0), (1.5, 0.7))


def _fd_expect_eta(q: GaussianQ, h, rule, step: float) -> np.ndarray:
    """Central finite differences in eta of the quadrature E_q[h]."""
    out = np.empty(2)
    eta = q.eta
    for k in range(2):
        delta = np.zeros(2)
        delta[k] = step
        hi = expect(from_natural(eta + delta), h, rule)
        lo = expect(from_natural(eta - delta), h, rule)
        out[k] = (hi - lo) / (2.0 * step)
    return out


def check_covariance_identity(step: float = 1e-5, tol: float = 1e-6) -> CheckResult:
    """d/deta E_q[h] equals Cov_q[score_eta, h] for fixed h.

    Verified by quadrature against central finite differences in eta for
    h in {x, x^2, logistic log p}.
    """
    rule = gauss_hermite_rule()
    logistic = logistic_target()
    funcs = (lambda x: x, lambda x: x * x, logistic.log_p)
    worst = 0.0
    for mu, s2 in _CHECK_QS:
        q = GaussianQ(mu, s2)
        for h in funcs:
            cov_val = cov(q, q.score_eta, h, rule)[:, 0]
            fd = _fd_expect_eta(q, h, rule, step)
            scale = max(float(np.abs(fd).max()), 1.0)
            worst = max(worst, float(np.abs(cov_val - fd).max()) / scale)
    return CheckResult("covariance-identity", worst <= tol, worst, tol)


def check_score_finite_difference(step: float = 1e-6, tol: float = 1e-6) -> CheckResult:
    """score_eta matches central finite differences of log_density in eta.

    The log-normalizer is differentiated along with the linear term.
    """
    xs = np.array([-3.0, -0.5, 0.0, 1.0, 4.0])
    worst = 0.0
    for mu, s2 in _CHECK_QS:
        q = GaussianQ(mu, s2)
        eta = q.eta
        analytic = q.score_eta(xs)
        for k in range(2):
            delta = np.zeros(2)
            delta[k] = step
            hi = from_natural(eta + delta).log_density(xs)
            lo = from_natural(eta - delta).log_density(xs)
            fd = (hi - lo) / (2.0 * step)
            scale = np.maximum(np.abs(analytic[:, k]), 1.0)
            worst = max(worst, float(np.max(np.abs(fd - analytic[:, k]) / scale)))
    return CheckResult("score-finite-difference", worst <= tol, worst, tol)


def check_path_gradient_finite_difference(step: float = 1e-6, tol: float = 1e-6) -> CheckResult:
    """Sampler-path estimates match finite differences of their fixed-seed sums.

    With the integrand h frozen at the base parameters, the path estimate
    of Cov[score, h] must equal the central finite difference in eta of
    (1/S) sum h(x_j(eta)) along the reparameterized draws. Checked for
    h = log q - log p (the kingma-reparam estimate and the numerator of
    greg-pathgrad) and for each score component (their covariance matrix).
    """
    target = logistic_target()
    samples = 40
    worst = 0.0
    for case_idx, (mu, s2) in enumerate(_CHECK_QS):
        q = GaussianQ(mu, s2)
        d = Draws(q, target, rng_from_seed(("path-fd", case_idx)).standard_normal(samples))
        eps, x = d.eps, d.x

        def frozen_d(y):
            return q.log_density(y) - target.log_p(y)

        kingma = run_kernel("kingma-reparam", q, target, d, 0)
        jac = q.path_jacobian(eps)
        t_prime = np.stack([np.ones_like(x), 2.0 * x], axis=-1)
        path_cov = np.einsum("si,sl->il", jac, t_prime) / samples

        eta = q.eta
        for k in range(2):
            delta = np.zeros(2)
            delta[k] = step
            x_hi = from_natural(eta + delta).reparameterize(eps)
            x_lo = from_natural(eta - delta).reparameterize(eps)
            fd_d = (frozen_d(x_hi).mean() - frozen_d(x_lo).mean()) / (2.0 * step)
            worst = max(worst, abs(fd_d - kingma[k]) / max(abs(fd_d), 1.0))
            for l in range(2):
                t_hi = (x_hi ** (l + 1)).mean()
                t_lo = (x_lo ** (l + 1)).mean()
                fd_t = (t_hi - t_lo) / (2.0 * step)
                worst = max(worst, abs(fd_t - path_cov[k, l]) / max(abs(fd_t), 1.0))
    return CheckResult("path-gradient-finite-difference", worst <= tol, worst, tol)


def check_exactness(replications: int = 1000, tol: float = 1e-10) -> CheckResult:
    """Zero-variance collapse for Gaussian-form targets.

    cv-regression and greg-samplecov must return exactly the closed-form
    gradient Cov_exact (eta - eta_tilde) on every draw set, and the fitted
    cv-regression coefficient must equal eta - eta_tilde.
    """
    pairs = (
        ((0.0, 2.0), (0.0, 1.0)),
        ((-2.0, 2.0), (1.0, 3.0)),
        ((1.0, 0.5), (-1.0, 4.0)),
        ((2.0, 4.0), (2.0, 2.0)),
        ((0.5, 1.0), (0.5, 1.0)),
    )
    samples = EstimatorConfig.total_samples
    worst = 0.0
    for pair_idx, ((qm, qs), (tm, ts)) in enumerate(pairs):
        q = GaussianQ(qm, qs)
        target = gaussian_target(tm, ts)
        delta = q.eta - target.eta_tilde
        exact = q.exact_suffstat_cov() @ delta
        scale = max(float(np.abs(exact).max()), 1.0)
        d = Draws(q, target, rng_from_seed(("exactness", pair_idx)).standard_normal((replications, samples)))
        est_reg, aux = run_kernel("cv-regression", q, target, d, samples // 2, with_aux=True)
        est_greg = run_kernel("greg-samplecov", q, target, d, 0)
        worst = max(worst, float(np.abs(est_reg - exact).max()) / scale)
        worst = max(worst, float(np.abs(est_greg - exact).max()) / scale)
        alpha = aux["alpha"]
        alpha_scale = max(float(np.abs(delta).max()), 1.0)
        worst = max(worst, float(np.abs(alpha - delta).max()) / alpha_scale)
    return CheckResult("gaussian-exactness", worst <= tol, worst, tol)


def check_density_normalization(tol: float = 1e-10) -> CheckResult:
    """exp(log_density) integrates to 1 and the score has zero quadrature mean."""
    rule = gauss_hermite_rule()
    worst = 0.0
    for mu, s2 in _CHECK_QS:
        q = GaussianQ(mu, s2)
        ref = GaussianQ(mu, 2.0 * s2)
        total = expect(ref, lambda x: np.exp(q.log_density(x) - ref.log_density(x)), rule)
        worst = max(worst, abs(total - 1.0))
        x = q.mu + q.sigma * rule.nodes
        score_mean = rule.weights @ q.score_eta(x)
        worst = max(worst, float(np.abs(score_mean).max()))
    return CheckResult("density-normalization", worst <= tol, worst, tol)


def run_all_checks() -> list[CheckResult]:
    return [
        check_covariance_identity(),
        check_score_finite_difference(),
        check_path_gradient_finite_difference(),
        check_exactness(),
        check_density_normalization(),
    ]
