"""Identity and exactness checks, shared by the selftest CLI and the test suite.

Each check returns a CheckResult with the worst observed deviation so the
CLI can print one pass/fail line per suite. The finite-difference steps,
the tolerances and the replication count are fixed module constants.
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


_CHECK_QS = ((0.0, 2.0), (-2.0, 2.0), (1.5, 0.7))
# central-difference steps in eta: of the quadrature E_q[h], and of log q and the draws
_COV_STEP = 1e-5
_FD_STEP = 1e-6
# tolerances of the finite-difference checks, and of the exactness and normalization checks
_FD_TOL = 1e-6
_EXACT_TOL = 1e-10
_EXACTNESS_REPLICATIONS = 1000


def _central_difference(q: GaussianQ, fn, step: float) -> np.ndarray:
    """Central finite differences in eta of fn(q), one row per component of eta."""
    return np.array([
        (fn(from_natural(q.eta + delta)) - fn(from_natural(q.eta - delta))) / (2.0 * step)
        for delta in step * np.eye(2)
    ])


def _result(name: str, worst: float, tol: float) -> CheckResult:
    """The CheckResult of a worst deviation, as a Python float and bool."""
    worst = float(worst)
    return CheckResult(name, worst <= tol, worst, tol)


def check_covariance_identity() -> CheckResult:
    """d/deta E_q[h] equals Cov_q[score_eta, h] for fixed h.

    Verified by quadrature against central finite differences in eta for
    h in {x, x^2, logistic log p}.
    """
    logistic = logistic_target()
    funcs = (lambda x: x, lambda x: x * x, logistic.log_p)
    worst = 0.0
    for mu, s2 in _CHECK_QS:
        q = GaussianQ(mu, s2)
        for h in funcs:
            cov_val = cov(q, q.score_eta, h)[:, 0]
            fd = _central_difference(q, lambda p: expect(p, h), _COV_STEP)
            scale = max(float(np.abs(fd).max()), 1.0)
            worst = max(worst, float(np.abs(cov_val - fd).max()) / scale)
    return _result("covariance-identity", worst, _FD_TOL)


def check_score_finite_difference() -> CheckResult:
    """score_eta matches central finite differences of log_density in eta.

    The log-normalizer is differentiated along with the linear term.
    """
    xs = np.array([-3.0, -0.5, 0.0, 1.0, 4.0])
    worst = 0.0
    for mu, s2 in _CHECK_QS:
        q = GaussianQ(mu, s2)
        analytic = q.score_eta(xs).T
        fd = _central_difference(q, lambda p: p.log_density(xs), _FD_STEP)
        worst = max(worst, float(np.max(np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1.0))))
    return _result("score-finite-difference", worst, _FD_TOL)


def check_path_gradient_finite_difference() -> CheckResult:
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

        def path_means(p):
            y = p.reparameterize(eps)
            return np.array([(q.log_density(y) - target.log_p(y)).mean(), y.mean(), (y ** 2).mean()])

        kingma = run_kernel("kingma-reparam", q, target, d, 0)
        t_prime = np.stack([np.ones_like(x), 2.0 * x], axis=-1)
        path_cov = np.einsum("si,sl->il", q.path_jacobian(eps), t_prime) / samples
        fd = _central_difference(q, path_means, _FD_STEP)
        analytic = np.column_stack([kingma, path_cov])
        worst = max(worst, np.max(np.abs(fd - analytic) / np.maximum(np.abs(fd), 1.0)))
    return _result("path-gradient-finite-difference", worst, _FD_TOL)


def check_exactness() -> CheckResult:
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
        d = Draws(q, target, rng_from_seed(("exactness", pair_idx)).standard_normal((_EXACTNESS_REPLICATIONS, samples)))
        est_reg, aux = run_kernel("cv-regression", q, target, d, samples // 2, with_aux=True)
        est_greg = run_kernel("greg-samplecov", q, target, d, 0)
        worst = max(worst, float(np.abs(est_reg - exact).max()) / scale)
        worst = max(worst, float(np.abs(est_greg - exact).max()) / scale)
        alpha = aux["alpha"]
        alpha_scale = max(float(np.abs(delta).max()), 1.0)
        worst = max(worst, float(np.abs(alpha - delta).max()) / alpha_scale)
    return _result("gaussian-exactness", worst, _EXACT_TOL)


def check_density_normalization() -> CheckResult:
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
    return _result("density-normalization", worst, _EXACT_TOL)


def run_all_checks() -> list[CheckResult]:
    return [
        check_covariance_identity(),
        check_score_finite_difference(),
        check_path_gradient_finite_difference(),
        check_exactness(),
        check_density_normalization(),
    ]
