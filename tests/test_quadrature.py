import warnings

import numpy as np
import pytest

from gradcv.gaussian import GaussianQ, from_natural
from gradcv.quadrature import (
    EvaluationError,
    cov,
    expect,
    gauss_hermite_rule,
    ground_truth_gradient,
    kl_divergence,
)
from gradcv.targets import gaussian_target, logistic_target


def double_factorial(k):
    out = 1
    for j in range(k - 1, 0, -2):
        out *= j
    return out


class TestRule:
    @pytest.mark.parametrize("order", [4, 8, 16, 20, 32, 64, 128])
    def test_weights_sum_to_one(self, order):
        rule = gauss_hermite_rule(order)
        assert abs(rule.weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("order", [4, 8, 12, 16, 20])
    def test_monomials_exact_up_to_degree(self, order):
        # E[x^k] under N(0,1) is (k-1)!! for even k, 0 for odd k; exact for k <= 2*order - 1.
        # Deviations are measured relative to the magnitude of the summed terms.
        rule = gauss_hermite_rule(order)
        for k in range(2 * order):
            got = float(rule.weights @ rule.nodes ** k)
            exact = 0.0 if k % 2 else float(double_factorial(k))
            scale = float(double_factorial(k if k % 2 == 0 else k + 1))
            assert abs(got - exact) <= 1e-10 * scale

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)


class TestExpect:
    def test_constant(self):
        assert expect(GaussianQ(3.0, 5.0), lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-13)

    def test_first_moment(self):
        q = GaussianQ(-1.7, 0.9)
        assert expect(q, lambda x: x) == pytest.approx(-1.7, rel=1e-12)

    def test_second_moment(self):
        assert expect(GaussianQ(0.0, 2.0), lambda x: x * x) == pytest.approx(2.0, rel=1e-12)

    def test_nonfinite_integrand_names_node(self):
        q = GaussianQ(0.0, 1.0)
        with pytest.raises(EvaluationError, match="node"):
            expect(q, lambda x: np.where(x > 0, np.inf, x))

    def test_nonfinite_ground_truth_is_evaluation_error(self):
        # x^2 overflows at mu = 1e200; the result is an error, not inf or nan,
        # and numpy's overflow warning does not leak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="ground-truth gradient is not finite"):
                ground_truth_gradient(GaussianQ(1e200, 2.0), logistic_target())


class TestCov:
    def test_suffstats_match_closed_form(self):
        # oracle cross-check of the closed-form sufficient-statistic covariance
        q = GaussianQ(0.0, 2.0)
        got = cov(q, q.suff_stats, q.suff_stats)
        np.testing.assert_allclose(got, [[2.0, 0.0], [0.0, 8.0]], atol=1e-9)
        np.testing.assert_allclose(got, q.exact_suffstat_cov(), atol=1e-9)

    def test_constant_gives_zero(self):
        q = GaussianQ(1.0, 1.0)
        got = cov(q, lambda x: np.ones_like(x), lambda x: x)
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_transpose_symmetry(self):
        q = GaussianQ(0.5, 1.5)
        f = lambda x: np.stack([x, np.sin(x)], axis=-1)
        g = lambda x: np.stack([x * x, np.cos(x)], axis=-1)
        np.testing.assert_allclose(cov(q, f, g), cov(q, g, f).T, rtol=1e-12, atol=1e-14)


class TestGroundTruth:
    def test_zero_at_matching_gaussian_target(self):
        q = GaussianQ(0.7, 1.9)
        grad = ground_truth_gradient(q, gaussian_target(0.7, 1.9))
        np.testing.assert_allclose(grad, 0.0, atol=1e-10)

    def test_gaussian_target_closed_form(self):
        # Cov[T,T] (eta - eta_tilde) = [[2,0],[0,8]] @ (0, 0.25) = (0, 2)
        q = GaussianQ(0.0, 2.0)
        grad = ground_truth_gradient(q, gaussian_target(0.0, 1.0))
        np.testing.assert_allclose(grad, [0.0, 2.0], atol=1e-10)

    def test_identity_for_all_gaussian_targets(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            q = GaussianQ(rng.uniform(-3, 3), float(np.exp(rng.uniform(-2, 2))))
            tm, ts = rng.uniform(-3, 3), float(np.exp(rng.uniform(-2, 2)))
            t = gaussian_target(tm, ts)
            expected = q.exact_suffstat_cov() @ (q.eta - t.eta_tilde)
            got = ground_truth_gradient(q, t)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)

    def test_matches_finite_difference_of_kl(self):
        # independent oracle: central differences of the quadrature KL in eta
        t = logistic_target()
        step = 1e-5
        for mu, s2 in [(0.0, 2.0), (-2.0, 2.0), (2.0, 2.0), (0.0, 4.0)]:
            q = GaussianQ(mu, s2)
            grad = ground_truth_gradient(q, t)
            for k in range(2):
                delta = np.zeros(2)
                delta[k] = step
                fd = (kl_divergence(from_natural(q.eta + delta), t)
                      - kl_divergence(from_natural(q.eta - delta), t)) / (2 * step)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_order_convergence(self):
        t = logistic_target()
        for mu, s2 in [(0.0, 2.0), (2.0, 2.0), (0.0, 4.0)]:
            q = GaussianQ(mu, s2)
            g64 = ground_truth_gradient(q, t, gauss_hermite_rule(64))
            g128 = ground_truth_gradient(q, t, gauss_hermite_rule(128))
            np.testing.assert_allclose(g64, g128, atol=1e-9)
