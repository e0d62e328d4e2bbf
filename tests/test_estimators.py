import re

import numpy as np
import pytest

from gradcv.estimators import (
    ESTIMATOR_IDS,
    ESTIMATORS,
    CapabilityError,
    Draws,
    EstimationError,
    EstimatorConfig,
    est_cov,
    est_cv_ideal,
    est_cv_ideal_pathgrad,
    est_cv_regression,
    est_delta_method,
    est_greg_pathgrad,
    est_greg_samplecov,
    est_kingma_reparam,
    est_ranganath_cv,
    est_simple,
    estimate,
    run_kernel,
    _solve2c,
)
from gradcv.gaussian import GaussianQ, DrawBatch, rng_from_seed
from gradcv.quadrature import EvaluationError, expect, gauss_hermite_rule, ground_truth_gradient
from gradcv.targets import Target, gaussian_target, logistic_target


def draws_for(q, target, reps, samples, label):
    """A Draws of q and target on (reps, samples) noise of the stream keyed label."""
    return Draws(q, target, rng_from_seed(label).standard_normal((reps, samples)))


def run_many(est_id, q, target, reps=20_000, samples=50, label=0):
    n_coef = samples // 2 if ESTIMATORS[est_id].split_budget else 0
    return run_kernel(est_id, q, target, draws_for(q, target, reps, samples, (est_id, label)), n_coef)


def components(a, b):
    """The six component arrays of stacked (..., 2, 2) systems a and (..., 2) right-hand sides b."""
    return a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1], b[..., 0], b[..., 1]


class TestSolver:
    def test_well_conditioned_matches_numpy(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 2, 2))
        a = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(2)
        b = rng.standard_normal((40, 2))
        x0, x1, fallback = _solve2c(*components(a, b))
        ref = np.linalg.solve(a, b[..., None])[..., 0]
        np.testing.assert_allclose(np.stack([x0, x1], axis=-1), ref, rtol=1e-10)
        assert not fallback.any()

    def test_singular_uses_minimum_norm(self):
        # rank-1 matrix with consistent rhs: pseudo-inverse solution expected
        a = np.array([[[0.0, 0.0], [0.0, 4.0]]])
        b = np.array([[0.0, 2.0]])
        x0, x1, fallback = _solve2c(*components(a, b))
        np.testing.assert_allclose(np.stack([x0, x1], axis=-1), [[0.0, 0.5]], atol=1e-14)
        assert fallback.all()

    def test_nonsymmetric_fallback_matches_lstsq(self):
        # rank 0, rank 1 and near-singular (rank 1 plus a perturbation of
        # relative size 1e-14 to 1e-17) systems take the minimum-norm fallback
        rng = np.random.default_rng(8)
        mats = [np.zeros((2, 2))]
        mats += [np.outer(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(5)]
        for size in (1e-14, 1e-15, 1e-17):
            for _ in range(5):
                m = np.outer(rng.standard_normal(2), rng.standard_normal(2))
                mats.append(m + size * np.abs(m).max() * rng.standard_normal((2, 2)))
        well_posed = rng.standard_normal((4, 2, 2)) + 3.0 * np.eye(2)
        a = np.concatenate([np.array(mats), well_posed])
        b = rng.standard_normal((len(a), 2))
        x0, x1, fallback = _solve2c(*components(a, b))
        got = np.stack([x0, x1], axis=-1)
        np.testing.assert_array_equal(fallback, np.arange(len(a)) < len(mats))
        ref = np.array([np.linalg.lstsq(m, v, rcond=None)[0] for m, v in zip(a, b)])
        scale = np.maximum(np.abs(ref).max(axis=1, keepdims=True), 1e-300)
        np.testing.assert_array_less(np.abs(got - ref) / scale, 1e-12)

    def test_symmetric_fallback_matches_lstsq(self):
        # the symmetric systems of the score-function kernels take the same
        # fallback: rank 0, rank 1 and near-singular symmetric matrices
        rng = np.random.default_rng(9)
        mats = [np.zeros((2, 2))]
        for size in (0.0, 1e-14, 1e-17):
            for _ in range(5):
                v = rng.standard_normal(2)
                e = size * rng.standard_normal((2, 2))
                mats.append(np.outer(v, v) * (1.0 + e + e.T))
        a = np.array(mats)
        b = rng.standard_normal((len(a), 2))
        x0, x1, fallback = _solve2c(*components(a, b))
        assert fallback.all()
        ref = np.array([np.linalg.lstsq(m, v, rcond=None)[0] for m, v in zip(a, b)])
        scale = np.maximum(np.abs(ref).max(axis=1, keepdims=True), 1e-300)
        np.testing.assert_array_less(np.abs(np.stack([x0, x1], axis=-1) - ref) / scale, 1e-12)


class TestUnbiasedness:
    # Monte Carlo mean within 4 standard errors of the quadrature gradient.
    # The full 100k-replication version runs in the acceptance suite.
    @pytest.mark.parametrize("est_id", [e for e in ESTIMATOR_IDS if ESTIMATORS[e].unbiased])
    @pytest.mark.parametrize("setting", [(0.0, 2.0), (2.0, 2.0)])
    def test_mean_matches_ground_truth(self, est_id, setting):
        q = GaussianQ(*setting)
        target = logistic_target()
        gt = ground_truth_gradient(q, target)
        est = run_many(est_id, q, target, reps=20_000)
        se = est.std(axis=0, ddof=1) / np.sqrt(est.shape[0])
        np.testing.assert_array_less(np.abs(est.mean(axis=0) - gt), 4.0 * se + 1e-12)

    def test_biased_estimator_really_is_biased(self):
        # greg-samplecov at small sample size has visible bias
        q = GaussianQ(0.0, 2.0)
        target = logistic_target()
        gt = ground_truth_gradient(q, target)
        est = run_many("greg-samplecov", q, target, reps=50_000, samples=10)
        se = est.std(axis=0, ddof=1) / np.sqrt(est.shape[0])
        assert np.any(np.abs(est.mean(axis=0) - gt) > 6.0 * se)


class TestSimpleAndCov:
    def test_simple_mean_zero_for_matching_target(self):
        q = GaussianQ(1.0, 2.0)
        est = run_many("simple", q, gaussian_target(1.0, 2.0), reps=20_000)
        se = est.std(axis=0, ddof=1) / np.sqrt(est.shape[0])
        np.testing.assert_array_less(np.abs(est.mean(axis=0)), 4.0 * se + 1e-12)

    def test_cov_exact_zero_for_constant_integrand(self):
        # target == q makes log q - log p constant in x
        q = GaussianQ(0.5, 1.5)
        est = run_many("cov", q, gaussian_target(0.5, 1.5), reps=200)
        np.testing.assert_allclose(est, 0.0, atol=1e-12)

    def test_cov_below_simple_variance(self):
        q = GaussianQ(0.0, 2.0)
        target = logistic_target()
        v_simple = run_many("simple", q, target).var(axis=0).sum()
        v_cov = run_many("cov", q, target).var(axis=0).sum()
        assert v_cov < v_simple

    def test_single_batch_api(self):
        q = GaussianQ(0.0, 2.0)
        target = logistic_target()
        batch = q.sample(seed=11, size=50)
        a = est_simple(q, target, batch)
        b = est_simple(q, target, batch)
        assert a.estimator_id == "simple" and a.samples_used == 50
        np.testing.assert_array_equal(a.value, b.value)
        c = est_cov(q, target, batch)
        assert np.isfinite(c.value).all()


class TestControlVariates:
    def test_control_variate_has_zero_mean(self):
        # the h statistic (sample minus exact covariance of the standardized
        # score u, whose covariance is diag(1, 2)) averages to zero over
        # 100000 independent batches, within 4 standard errors
        q = GaussianQ(0.0, 2.0)
        g00, g01, g11 = draws_for(q, logistic_target(), 100_000, 25, "h-zero-mean").u_moments[2:]
        h = np.stack([g00, g01, g11], axis=-1) - [1.0, 0.0, 2.0]
        se = h.std(axis=0, ddof=1) / np.sqrt(h.shape[0])
        np.testing.assert_array_less(np.abs(h.mean(axis=0)), 4.0 * se)

    def test_cv_ideal_defined_at_matching_target(self):
        q = GaussianQ(0.0, 2.0)
        est = run_many("cv-ideal", q, gaussian_target(0.0, 2.0), reps=5_000)
        se = est.std(axis=0, ddof=1) / np.sqrt(est.shape[0]) + 1e-14
        np.testing.assert_array_less(np.abs(est.mean(axis=0)), 4.0 * se)

    def test_cv_regression_coefficient_identity(self):
        # alpha-hat equals eta - eta_tilde = (0, 0.25) on every replication
        q = GaussianQ(0.0, 2.0)
        target = gaussian_target(0.0, 1.0)
        for rep in range(50):
            coef = q.sample(seed=("coef", rep), size=25)
            ev = q.sample(seed=("eval", rep), size=25)
            result = est_cv_regression(q, target, coef, ev)
            np.testing.assert_allclose(result.aux["alpha"], [0.0, 0.25], atol=1e-10)

    def test_cv_regression_zero_variance_for_gaussian_target(self):
        q = GaussianQ(-1.0, 0.5)
        target = gaussian_target(2.0, 3.0)
        exact = q.exact_suffstat_cov() @ (q.eta - target.eta_tilde)
        est = run_many("cv-regression", q, target, reps=2_000)
        scale = max(np.abs(exact).max(), 1.0)
        assert np.abs(est - exact).max() / scale < 1e-10
        assert est.std(axis=0).max() / scale < 1e-10

    def test_cv_ideal_pathgrad_zero_variance_for_gaussian_target(self):
        q = GaussianQ(0.0, 2.0)
        target = gaussian_target(1.0, 1.0)
        exact = q.exact_suffstat_cov() @ (q.eta - target.eta_tilde)
        est = run_many("cv-ideal-grad", q, target, reps=2_000)
        scale = max(np.abs(exact).max(), 1.0)
        assert np.abs(est - exact).max() / scale < 1e-8

    def test_greg_samplecov_zero_variance_for_gaussian_target(self):
        q = GaussianQ(1.0, 2.0)
        target = gaussian_target(-0.5, 4.0)
        exact = q.exact_suffstat_cov() @ (q.eta - target.eta_tilde)
        est = run_many("greg-samplecov", q, target, reps=2_000)
        scale = max(np.abs(exact).max(), 1.0)
        assert np.abs(est - exact).max() / scale < 1e-10

    def test_greg_pathgrad_zero_variance_for_gaussian_target(self):
        q = GaussianQ(1.0, 2.0)
        target = gaussian_target(-0.5, 4.0)
        exact = q.exact_suffstat_cov() @ (q.eta - target.eta_tilde)
        est = run_many("greg-pathgrad", q, target, reps=2_000)
        scale = max(np.abs(exact).max(), 1.0)
        assert np.abs(est - exact).max() / scale < 1e-8

    def test_cv_ideal_pathgrad_flags_only_draws_without_spread(self):
        # component 0 is a scalar regression on h^01; it falls back only
        # when the coefficient draws have no spread
        q = GaussianQ(0.5, 1.5)
        t = logistic_target()
        _, aux = run_kernel("cv-ideal-grad", q, t, draws_for(q, t, 4096, 50, "cvig-flag"), 25, with_aux=True)
        assert not aux["singular_fallback"][:, 0].any()
        np.testing.assert_array_equal(aux["alpha"][:, 0, 0], 0.0)
        _, aux = run_kernel("cv-ideal-grad", q, t, Draws(q, t, np.zeros((3, 50))), 25, with_aux=True)
        assert aux["singular_fallback"][:, 0].all()

    def test_greg_aux_contains_natural_gradient(self):
        q = GaussianQ(0.0, 2.0)
        result = est_greg_samplecov(q, logistic_target(), q.sample(seed=5, size=50))
        gnat = result.aux["g_nat"]
        np.testing.assert_allclose(q.exact_suffstat_cov() @ gnat, result.value, rtol=1e-12)

    def test_ranganath_perfect_correlation_limit(self):
        # constant integrand makes f_i = c * h_i exactly; residual collapses
        q = GaussianQ(0.3, 1.2)
        est = run_many("ranganath-cv", q, gaussian_target(0.3, 1.2), reps=500)
        np.testing.assert_allclose(est, 0.0, atol=1e-10)

    def test_ranganath_worse_than_cov_under_split_budget(self):
        q = GaussianQ(0.0, 2.0)
        target = logistic_target()
        gt = ground_truth_gradient(q, target)
        mse_r = ((run_many("ranganath-cv", q, target) - gt) ** 2).sum(axis=1).mean()
        mse_c = ((run_many("cov", q, target) - gt) ** 2).sum(axis=1).mean()
        assert mse_r > mse_c


class TestDeltaMethod:
    def test_zero_variance_for_quadratic_target(self):
        # Taylor residual vanishes identically, so the estimate is deterministic
        q = GaussianQ(0.0, 2.0)
        target = gaussian_target(1.0, 3.0)
        gt = ground_truth_gradient(q, target)
        est = run_many("delta-method", q, target, reps=500)
        np.testing.assert_allclose(est - gt, 0.0, atol=1e-9)
        assert est.std(axis=0).max() < 1e-12

    def test_analytic_entropy_gradient_matches_quadrature_fd(self):
        # d/deta E_q[log q] = (0, -sigma2), checked against finite differences
        # of the quadrature expectation (measure and integrand both move)
        from gradcv.gaussian import from_natural

        step = 1e-6
        for mu, s2 in [(0.0, 2.0), (1.0, 0.7)]:
            q = GaussianQ(mu, s2)
            fd = np.empty(2)
            for k in range(2):
                delta = np.zeros(2)
                delta[k] = step
                hi_q = from_natural(q.eta + delta)
                lo_q = from_natural(q.eta - delta)
                hi = expect(hi_q, hi_q.log_density)
                lo = expect(lo_q, lo_q.log_density)
                fd[k] = (hi - lo) / (2 * step)
            np.testing.assert_allclose(fd, [0.0, -s2], rtol=1e-6, atol=1e-6)


class TestKingma:
    def test_matches_finite_difference_of_frozen_sum(self):
        # the estimate differentiates the sampler path only; the integrand
        # log q - log p stays frozen at the base parameters
        from gradcv.gaussian import from_natural

        q = GaussianQ(0.5, 1.5)
        target = logistic_target()
        batch = q.sample(seed=21, size=40)
        result = est_kingma_reparam(q, target, batch)
        step = 1e-6

        def frozen_objective(q_shift):
            x = q_shift.reparameterize(batch.noise)
            return float(np.mean(q.log_density(x) - target.log_p(x)))

        for k in range(2):
            delta = np.zeros(2)
            delta[k] = step
            fd = (frozen_objective(from_natural(q.eta + delta))
                  - frozen_objective(from_natural(q.eta - delta))) / (2 * step)
            assert result.value[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_matching_gaussian_target_collapses(self):
        q = GaussianQ(1.0, 2.0)
        est = run_many("kingma-reparam", q, gaussian_target(1.0, 2.0), reps=200)
        np.testing.assert_allclose(est, 0.0, atol=1e-10)


class TestConfigAndErrors:
    def test_one_draw_simple_budget_runs(self):
        # the draw floor is the registry's min_draws alone: simple takes 1 draw
        q, target = GaussianQ(0.3, 1.2), logistic_target()
        config = EstimatorConfig(total_samples=1)
        result = estimate(q, target, config, seed=3)
        assert result.samples_used == 1
        batch = q.sample(seed=(3, 0), size=1)
        np.testing.assert_array_equal(result.value, est_simple(q, target, batch).value)

    @pytest.mark.parametrize("total_samples", [0, -1])
    def test_empty_budget_rejected(self, total_samples):
        with pytest.raises(ValueError, match="total_samples must be an int >= 1"):
            EstimatorConfig(total_samples=total_samples)

    @pytest.mark.parametrize("estimator_id", ["simple", "cv-regression"])
    @pytest.mark.parametrize("total_samples", [50.5, True, "50"])
    def test_budget_must_be_an_int(self, total_samples, estimator_id):
        # a float, bool or string budget fails here, not in numpy when estimate() draws it
        with pytest.raises(ValueError, match=f"^total_samples must be an int >= 1, got {re.escape(repr(total_samples))}$"):
            EstimatorConfig(total_samples=total_samples, estimator_id=estimator_id)

    @pytest.mark.parametrize("cv_split", ["0.5", True, None], ids=repr)
    def test_cv_split_must_be_a_real_number(self, cv_split):
        # a str or None would fail in the range comparison, and True is not a fraction
        with pytest.raises(ValueError, match=f"^cv_split must be a real number \\(not a bool\\), got {re.escape(repr(cv_split))}$"):
            EstimatorConfig(cv_split=cv_split)

    def test_one_draw_cov_raises_min_draws(self):
        with pytest.raises(ValueError, match="'cov' needs >= 2 samples in each batch; got 1"):
            EstimatorConfig(total_samples=1, estimator_id="cov")

    def test_cv_split_needs_two_per_half(self):
        with pytest.raises(ValueError, match="2 samples"):
            EstimatorConfig(total_samples=3, cv_split=0.5, estimator_id="cv-ideal")
        EstimatorConfig(total_samples=4, cv_split=0.5, estimator_id="cv-ideal")

    def test_minimum_draws_per_batch(self):
        # cov needs 2 draws, greg-samplecov 3, each half of a split method 2
        with pytest.raises(ValueError, match="greg-samplecov.*3 samples"):
            EstimatorConfig(total_samples=2, estimator_id="greg-samplecov")
        EstimatorConfig(total_samples=3, estimator_id="greg-samplecov")
        q = GaussianQ(0.0, 1.0)
        target = logistic_target()
        for est, size in ((est_greg_samplecov, 2), (est_cov, 1)):
            with pytest.raises(ValueError, match="samples in each batch"):
                est(q, target, q.sample(seed=0, size=size))
        est_greg_samplecov(q, target, q.sample(seed=0, size=3))
        est_simple(q, target, q.sample(seed=0, size=1))
        with pytest.raises(ValueError, match="samples in each batch"):
            est_cv_ideal(q, target, q.sample(seed=0, size=1), q.sample(seed=1, size=5))

    def test_est_floor_is_the_config_floor(self):
        # one check of min_draws: a one-draw est_cov batch fails as the one-draw config does
        q = GaussianQ(0.0, 1.0)
        with pytest.raises(ValueError) as config_err:
            EstimatorConfig(total_samples=1, estimator_id="cov")
        with pytest.raises(ValueError) as est_err:
            est_cov(q, logistic_target(), q.sample(seed=0, size=1))
        assert str(est_err.value) == str(config_err.value)

    @pytest.mark.parametrize("mu, reason", [(1e200, "overflows"), (1e15, "exceeds 1e+10")])
    def test_estimates_and_the_oracle_share_the_gradient_domain(self, mu, reason):
        # run_kernel and ground_truth_gradient reject q for the same reason, in the same words
        q, target = GaussianQ(mu, 2.0), logistic_target()
        with pytest.raises(EstimationError, match=r"^no gradient estimate of 'simple' at GaussianQ") as est_err:
            run_kernel("simple", q, target, Draws(q, target, np.zeros((1, 4))), 0)
        with pytest.raises(EvaluationError, match=r"^no ground-truth gradient at mu=") as gt_err:
            ground_truth_gradient(q, target)
        est_reason, gt_reason = (str(e.value).partition(": ")[2] for e in (est_err, gt_err))
        assert est_reason == gt_reason
        assert reason in est_reason

    def test_unknown_estimator_id(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            EstimatorConfig(estimator_id="nope")

    @pytest.mark.parametrize("est_id", ["cv-ideal-grad", "kingma-reparam", "greg-pathgrad"])
    def test_gradient_free_target_rejected(self, est_id):
        q = GaussianQ(0.0, 1.0)
        blackbox = Target(name="blackbox", log_p=lambda x: -np.abs(x))
        with pytest.raises(CapabilityError):
            estimate(q, blackbox, EstimatorConfig(estimator_id=est_id), seed=0)

    def test_delta_needs_hessian(self):
        q = GaussianQ(0.0, 1.0)
        no_hess = Target(name="grad-only", log_p=lambda x: -np.abs(x), grad_x=lambda x: -np.sign(x))
        with pytest.raises(CapabilityError):
            est_delta_method(q, no_hess, q.sample(seed=0, size=10))

    @pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
    def test_nonfinite_log_p_is_estimation_error(self, est_id):
        # log p = -inf on x > 0, where its derivatives are nan; the three path
        # methods never evaluate log p and fail on their non-finite estimate,
        # every other method on the one log p check, which names the draw
        q = GaussianQ(0.0, 1.0)
        bad = Target(name="bad", log_p=lambda x: np.where(x > 0, -np.inf, x),
                     grad_x=lambda x: np.where(x > 0, np.nan, 1.0), hess_x=lambda x: np.zeros_like(x))
        path = est_id in ("cv-ideal-grad", "kingma-reparam", "greg-pathgrad")
        match = "non-finite gradient estimate" if path else "log_p is not finite at draw x="
        with pytest.raises(EstimationError, match=match):
            estimate(q, bad, EstimatorConfig(estimator_id=est_id), seed=1)

    def test_degenerate_draws_flag_fallback(self):
        # identical draws give a singular sample covariance; the solve falls
        # back and flags it instead of failing
        q = GaussianQ(0.0, 1.0)
        noise = np.zeros(10)
        batch = DrawBatch(q, noise, seed=0)
        result = est_greg_samplecov(q, logistic_target(), batch)
        assert result.aux["singular_fallback"]
        assert np.isfinite(result.value).all()

    def test_dispatcher_deterministic_and_split(self):
        q = GaussianQ(0.0, 2.0)
        target = logistic_target()
        config = EstimatorConfig(total_samples=50, cv_split=0.5, estimator_id="cv-ideal")
        a = estimate(q, target, config, seed=9)
        b = estimate(q, target, config, seed=9)
        np.testing.assert_array_equal(a.value, b.value)
        assert a.samples_used == 50

    @pytest.mark.parametrize("seed", [1.5, True, None, (9, 0.5)], ids=repr)
    def test_seed_must_be_a_key(self, seed):
        # 1.5 used to draw the batches of seed 1, and True those of 1
        message = f"^{re.escape(f'seed must be an int (not a bool), a str label or a tuple of those, got {seed!r}')}$"
        with pytest.raises(ValueError, match=message):
            estimate(GaussianQ(0.0, 2.0), logistic_target(), EstimatorConfig(estimator_id="cv-ideal"), seed=seed)

    def test_estimate_value_is_2vector_and_finite(self):
        q = GaussianQ(0.0, 2.0)
        target = logistic_target()
        for est_id in ESTIMATOR_IDS:
            result = estimate(q, target, EstimatorConfig(estimator_id=est_id), seed=3)
            assert result.value.shape == (2,)
            assert np.isfinite(result.value).all()
            assert result.estimator_id == est_id


class TestVarianceOrdering:
    def test_cv_ideal_improves_cov_more_than_tenfold(self):
        q = GaussianQ(0.0, 2.0)
        target = logistic_target()
        gt = ground_truth_gradient(q, target)
        mse_cov = ((run_many("cov", q, target) - gt) ** 2).sum(axis=1).mean()
        mse_cvi = ((run_many("cv-ideal", q, target) - gt) ** 2).sum(axis=1).mean()
        assert mse_cvi < mse_cov / 10.0
