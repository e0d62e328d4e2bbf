import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcv
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


# How far the stored order-128 rule may sit from hermgauss(128) rescaled, for
# numpy/LAPACK builds other than the one it was made with: hermgauss polishes
# each LAPACK eigenvalue by one Newton step, so a build may move a node by a
# few ulp (8 allowed); a node moved by k ulp moves its weight by about
# |z| k ulp(z) relative, up to about 5500 ulp of the weight for k = 8 at the
# outermost node z = 21.6 (2**14 allowed).
NODE_ULPS = 8
WEIGHT_ULPS = 2**14

# Runs a short fit, a small benchmark and a ground truth in a fresh process
# whose numpy.linalg.eigvalsh records its calls and raises: none may call it,
# and numpy.polynomial is never loaded (numpy >= 2.0 loads it on first use).
NO_HERMGAUSS_RUN = """
import sys
import numpy
assert "numpy.polynomial" not in sys.modules
calls = []
def eigvalsh(*args, **kwargs):
    calls.append(args)
    raise RuntimeError("numpy.linalg.eigvalsh called")
numpy.linalg.eigvalsh = eigvalsh
from gradcv.cli import main
for argv in (
    ["fit", "--iterations", "20", "--out", sys.argv[1]],
    ["benchmark", "--reps", "16", "--threads", "1", "--format", "csv", "--out", sys.argv[1]],
    ["ground-truth", "--out", sys.argv[1]],
):
    assert main(argv) == 0, argv
assert not calls, calls
assert "numpy.polynomial" not in sys.modules
"""


class TestRule:
    def test_default_rule_is_stored(self):
        rule = gradcv.quadrature._DEFAULT_RULE
        assert gauss_hermite_rule() is rule
        assert gauss_hermite_rule(128) is rule
        assert gauss_hermite_rule(np.int64(128)) is rule
        assert rule.order == 128

    def test_stored_rule_is_symmetric_and_sums_to_one(self):
        rule = gauss_hermite_rule()
        assert (rule.nodes == -rule.nodes[::-1]).all()
        assert (rule.weights == rule.weights[::-1]).all()
        assert abs(rule.weights.sum() - 1.0) <= 1e-15

    def test_stored_rule_is_hermgauss(self):
        x, w = np.polynomial.hermite.hermgauss(128)
        nodes, weights = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
        rule = gauss_hermite_rule()
        assert (np.abs(rule.nodes - nodes) <= NODE_ULPS * np.spacing(np.abs(nodes))).all()
        assert (np.abs(rule.weights - weights) <= WEIGHT_ULPS * np.spacing(weights)).all()

    def test_runs_neither_import_numpy_polynomial_nor_call_lapack(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(gradcv.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", NO_HERMGAUSS_RUN, str(tmp_path / "out")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr

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

    @pytest.mark.parametrize("order", [2.5, True])
    def test_order_must_be_an_int(self, order):
        # True is rejected even after the rule of order 1 is cached: the cache is typed
        gauss_hermite_rule(1)
        with pytest.raises(ValueError, match=f"^order must be an int >= 1, got {order!r}$"):
            gauss_hermite_rule(order)


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
            with pytest.raises(EvaluationError, match="no ground-truth gradient"):
                ground_truth_gradient(GaussianQ(1e200, 2.0), logistic_target())

    def test_overflowing_integrand_is_evaluation_error_without_warnings(self):
        # the target's log p overflows at every node; pytest turns a leaked RuntimeWarning into an error
        with pytest.raises(EvaluationError, match="integrand is not finite"):
            kl_divergence(GaussianQ(0.0, 1.0), gaussian_target(1e200, 1.0))

    @pytest.mark.parametrize("mu", [1e15, 1e20])
    def test_nodes_that_lost_their_noise_are_evaluation_error(self, mu):
        # past MAX_MU_OVER_SIGMA the nodes mu + sigma z have lost z to
        # rounding: -1.96 at mu = 1e15 and +3923 at 1e20, for the exact -2,
        # would come out as an answer
        with pytest.raises(EvaluationError, match=r"^no ground-truth gradient at mu=.*exceeds 1e\+10"):
            ground_truth_gradient(GaussianQ(mu, 2.0), logistic_target())

    def test_mu_over_sigma_of_1e8_is_computed(self):
        # the second component of the logistic gradient tends to -sigma2 as mu -> inf
        grad = ground_truth_gradient(GaussianQ(1e8, 1.0), logistic_target())
        assert grad[1] == pytest.approx(-1.0, rel=1e-6)


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

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(
        mu=st.floats(-1e3, 1e3),
        log10_sigma2=st.floats(-8.0, 2.0),
        target_mu=st.floats(-4.0, 4.0),
        target_sigma2=st.floats(0.25, 4.0),
    )
    def test_moment_form_closed_form_far_from_the_origin(self, mu, log10_sigma2, target_mu, target_sigma2):
        # (sigma2 g, 2 mu sigma2 g + sigma2 (sigma2 / s - 1)) with g = (mu - m) / s,
        # to 1e-8 of the gradient's magnitude; C (eta - eta_tilde) is no
        # reference here, as it cancels at small sigma2
        sigma2 = 10.0 ** log10_sigma2
        g = (mu - target_mu) / target_sigma2
        exact = np.array([sigma2 * g, 2.0 * mu * sigma2 * g + sigma2 * (sigma2 / target_sigma2 - 1.0)])
        got = ground_truth_gradient(GaussianQ(mu, sigma2), gaussian_target(target_mu, target_sigma2))
        assert np.abs(got - exact).max() <= 1e-8 * np.abs(exact).max()

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
