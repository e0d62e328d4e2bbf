import inspect
import re
import warnings

import numpy as np
import pytest

from gradcv import optimize
from gradcv.estimators import Draws, EstimationError, EstimatorConfig, estimate, run_kernel
from gradcv.gaussian import GaussianQ, _solve_l, _solve_lt, from_natural, rng_from_seed
from gradcv.optimize import (
    FIT_STREAM_LABEL, FitResult, SgdSchedule, VariationalSGD, _block_steps, _noise_rows, fit, trajectory_to_csv,
)
from gradcv.quadrature import gauss_hermite_rule, ground_truth_gradient
from gradcv.targets import Target, gaussian_target, logistic_target


class TestSchedule:
    def test_decay_range_enforced(self):
        with pytest.raises(ValueError):
            SgdSchedule(decay=0.5)
        with pytest.raises(ValueError):
            SgdSchedule(decay=1.1)
        SgdSchedule(decay=0.51)
        SgdSchedule(decay=1.0)

    def test_zero_step_is_allowed_and_is_a_no_op(self):
        sched = SgdSchedule(step0=0.0, iterations=25, samples_per_step=10)
        q0 = GaussianQ(0.3, 1.7)
        result = fit(q0, logistic_target(), "simple", sched, seed=0, record_every=5)
        assert result.final.mu == q0.mu and result.final.sigma2 == q0.sigma2
        assert all(p.mu == q0.mu and p.sigma2 == q0.sigma2 for p in result.trajectory)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            SgdSchedule(step0=-0.1)

    def test_one_draw_per_step_is_the_floor(self):
        SgdSchedule(samples_per_step=1)
        with pytest.raises(ValueError, match="samples_per_step must be an int >= 1"):
            SgdSchedule(samples_per_step=0)

    @pytest.mark.parametrize("field", ["iterations", "samples_per_step"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_counts_must_be_ints(self, field, value):
        # the fit loops and draws its noise blocks by these counts, so neither may be a float or a bool
        with pytest.raises(ValueError, match=f"^{field} must be an int >= 1, got {value!r}$"):
            SgdSchedule(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("step0", True), ("step0", "0.1"), ("step0", None), ("decay", True), ("decay", "0.6"),
    ], ids=repr)
    def test_step_settings_must_be_real_numbers(self, field, value):
        # step0=True would be a step size of 1, and a str would fail inside numpy
        with pytest.raises(ValueError, match=f"^{field} must be a real number \\(not a bool\\), got {re.escape(repr(value))}$"):
            SgdSchedule(**{field: value})

    def test_step_decay(self):
        sched = SgdSchedule(step0=0.5, decay=1.0)
        assert sched.step(0) == 0.5
        assert sched.step(9) == pytest.approx(0.05)


class TestFit:
    def test_biased_estimators_rejected(self):
        q0 = GaussianQ(0.0, 1.0)
        for bad in ("greg-samplecov", "greg-pathgrad"):
            with pytest.raises(ValueError, match="biased"):
                fit(q0, logistic_target(), bad)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            fit(GaussianQ(0.0, 1.0), logistic_target(), "nope")

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_record_every_below_one_rejected(self, record_every):
        with pytest.raises(ValueError, match="record_every"):
            fit(GaussianQ(0.0, 1.0), logistic_target(), "simple", record_every=record_every)

    @pytest.mark.parametrize("seed", [None, 1.5, True], ids=repr)
    def test_seed_must_be_a_key(self, seed):
        # None used to fail with a TypeError at the first step's draw, 1.5 to
        # draw the stream of 1; both are rejected before any step
        message = f"^{re.escape(f'seed must be an int (not a bool), a str label or a tuple of those, got {seed!r}')}$"
        with pytest.raises(ValueError, match=message):
            fit(GaussianQ(0.0, 1.0), logistic_target(), "cv-regression", SgdSchedule(iterations=3), seed=seed)

    @pytest.mark.parametrize("make", [
        lambda flag: fit(GaussianQ(0.0, 1.0), logistic_target(), "cv-regression", SgdSchedule(iterations=3),
                         natural_gradient=flag),
        lambda flag: VariationalSGD(iterations=3, natural_gradient=flag).fit("logistic"),
    ], ids=["fit", "VariationalSGD"])
    @pytest.mark.parametrize("flag", ["no", 1, None], ids=repr)
    def test_natural_gradient_must_be_a_bool(self, make, flag):
        # a truthy "no" would run natural-gradient descent
        with pytest.raises(ValueError, match=f"^natural_gradient must be a bool, got {re.escape(repr(flag))}$"):
            make(flag)

    def test_record_every_must_be_an_int(self):
        # with 2.5, `it % record_every == 0` would record the steps 0, 5, 10, ...
        sched = SgdSchedule(iterations=20)
        with pytest.raises(ValueError, match=r"^record_every must be an int >= 1, got 2\.5$"):
            fit(GaussianQ(0.0, 1.0), logistic_target(), "simple", sched, record_every=2.5)

    def test_recovers_gaussian_target_exactly(self):
        # zero-variance gradient makes the descent deterministic; the
        # exact-gradient oracle with the same schedule must land on the
        # same point, and both must recover the target parameters
        target = gaussian_target(1.0, 3.0)
        sched = SgdSchedule(step0=0.05, decay=0.51, iterations=20_000, samples_per_step=50)
        rule = gauss_hermite_rule()
        oracle = fit(
            GaussianQ(0.0, 1.0), target, schedule=sched,
            gradient_fn=lambda q: ground_truth_gradient(q, target, rule),
            record_every=10**9,
        )
        result = fit(GaussianQ(0.0, 1.0), target, "cv-regression", sched, seed=0, record_every=10**9)
        assert abs(result.final.mu - 1.0) < 1e-6
        assert abs(result.final.sigma2 - 3.0) < 1e-6
        assert result.final.mu == pytest.approx(oracle.final.mu, abs=1e-9)
        assert result.final.sigma2 == pytest.approx(oracle.final.sigma2, abs=1e-9)

    def test_positivity_projection_active(self):
        # aggressive steps on the logistic target blow up without projection
        sched = SgdSchedule(step0=0.5, decay=0.51, iterations=300, samples_per_step=10)
        result = fit(GaussianQ(0.0, 1.0), logistic_target(), "cov", sched, seed=1, record_every=1)
        assert all(p.sigma2 > 0.0 for p in result.trajectory)
        assert result.final.sigma2 > 0.0

    def test_kl_monotone_on_average_for_logistic(self):
        # smoothed over 50-iteration windows, the quadrature KL does not
        # increase after burn-in under the default schedule
        result = fit(GaussianQ(0.0, 1.0), logistic_target(), "cv-regression",
                     SgdSchedule(), seed=3, record_every=1)
        kl = np.array([p.kl for p in result.trajectory])
        window = 50
        smooth = np.convolve(kl, np.ones(window) / window, mode="valid")
        burn = 100
        diffs = np.diff(smooth[burn:])
        assert np.all(diffs <= 1e-6)

    def test_natural_gradient_preconditioner(self):
        # with a badly scaled start the raw eta-gradient is tiny and plain
        # descent stalls; the preconditioned direction makes real progress
        target = gaussian_target(0.0, 1.0)
        q0 = GaussianQ(0.0, 0.01)
        sched = SgdSchedule(step0=0.05, decay=0.51, iterations=400, samples_per_step=20)
        plain = fit(q0, target, "cv-regression", sched, seed=0, record_every=10**9)
        nat = fit(q0, target, "cv-regression", sched, seed=0,
                  natural_gradient=True, record_every=10**9)
        assert abs(plain.final.sigma2 - q0.sigma2) < 1e-3  # stalled
        assert nat.final.sigma2 > 5.0 * q0.sigma2
        assert abs(nat.final.sigma2 - 1.0) < abs(plain.final.sigma2 - 1.0)

    def test_natural_gradient_step_solves_the_exact_score_covariance(self):
        # one step moves eta by step0 Cov_q[T]^-1 g, here in closed form (the
        # projection is inactive at this step)
        q0, g = GaussianQ(3.0, 0.2), np.array([0.7, -0.4])
        sched = SgdSchedule(step0=0.01, iterations=1)
        result = fit(q0, gaussian_target(0.0, 1.0), schedule=sched, natural_gradient=True, gradient_fn=lambda q: g)
        expected = q0.eta - 0.01 * np.linalg.solve(q0.exact_suffstat_cov(), g)
        np.testing.assert_allclose(result.final.eta, expected, rtol=1e-12)

    def test_trajectory_recording(self):
        sched = SgdSchedule(step0=0.01, decay=0.75, iterations=40, samples_per_step=10)
        result = fit(GaussianQ(0.0, 1.0), logistic_target(), "cov", sched, seed=0, record_every=10)
        assert isinstance(result, FitResult)
        iters = [p.iteration for p in result.trajectory]
        assert iters == [0, 10, 20, 30, 40]

    def test_trajectory_csv(self):
        sched = SgdSchedule(step0=0.01, decay=0.75, iterations=10, samples_per_step=10)
        result = fit(GaussianQ(0.0, 1.0), logistic_target(), "cov", sched, seed=0, record_every=5)
        text = trajectory_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "iteration,mu,sigma2,kl,step"
        assert len(lines) == 1 + len(result.trajectory)
        first = lines[1].split(",")
        assert int(first[0]) == 0 and float(first[1]) == 0.0 and float(first[2]) == 1.0

    def test_deterministic_given_seed(self):
        sched = SgdSchedule(step0=0.01, decay=0.75, iterations=30, samples_per_step=10)
        a = fit(GaussianQ(0.0, 1.0), logistic_target(), "simple", sched, seed=5, record_every=10**9)
        b = fit(GaussianQ(0.0, 1.0), logistic_target(), "simple", sched, seed=5, record_every=10**9)
        assert a.final.mu == b.final.mu and a.final.sigma2 == b.final.sigma2
        # the whole trajectory repeats, and another seed moves every step
        runs = [fit(GaussianQ(0.0, 1.0), logistic_target(), "simple", sched, seed=s, record_every=1) for s in (5, 5, 6)]
        assert runs[0].trajectory == runs[1].trajectory
        assert all(p != r for p, r in zip(runs[0].trajectory[1:], runs[2].trajectory[1:]))


class TestNoiseStream:
    def test_blocks_are_rows_of_the_whole_stream(self):
        for samples in (50, 400, 20_000):
            steps = 2 * _block_steps(samples) + 3
            # each row is 1-D, so the stack of its (1, S) form is the (steps, 1, S) stream
            rows = np.array([noise.eps[None] for noise in _noise_rows(7, steps, samples)])
            whole = rng_from_seed((7, FIT_STREAM_LABEL)).standard_normal((steps, 1, samples))
            np.testing.assert_array_equal(rows, whole)

    @pytest.mark.parametrize("seed", [0, 3, (1 << 32) + 5])
    def test_fit_stream_is_no_estimate_stream(self, seed):
        # estimate(seed=s) draws from (s, i), and estimate(seed=(s, t)), as
        # fits used to call it at step t, from (s, t, i), i = 0, 1; t also runs
        # over the label's own low words, where a short label would collide
        label = int.from_bytes(FIT_STREAM_LABEL.encode(), "little")
        fit_row = next(_noise_rows(seed, 1, 8)).eps
        assert fit_row.shape == (8,)
        keys = [(seed, i) for i in (0, 1)]
        keys += [(seed, t, i) for t in (*range(100), label & 0xFFFFFFFF, label & 0xFFFFFFFFFFFFFFFF) for i in (0, 1)]
        for key in keys:
            assert not np.array_equal(fit_row, rng_from_seed(key).standard_normal(8)), key
        # the contrast: a label of at most four bytes is a single word
        short = int.from_bytes(b"fit", "little")
        np.testing.assert_array_equal(
            rng_from_seed((seed, "fit")).standard_normal(8), rng_from_seed((seed, short, 0)).standard_normal(8))

    def test_estimate_keeps_its_streams(self):
        # estimate(seed=key) draws its one batch from (*key, 0)
        q, t = GaussianQ(0.4, 1.3), logistic_target()
        got = estimate(q, t, EstimatorConfig(total_samples=20, estimator_id="cov"), seed=(4, 2))
        eps = rng_from_seed((4, 2, 0)).standard_normal(20)
        np.testing.assert_array_equal(got.value, run_kernel("cov", q, t, Draws(q, t, eps[None]), 0)[0])


class TestFitLoop:
    SAMPLES = 400  # a block of 40 steps

    def csv(self, steps):
        sched = SgdSchedule(step0=0.02, decay=0.6, iterations=steps, samples_per_step=self.SAMPLES)
        result = fit(GaussianQ(0.2, 1.5), logistic_target(), "cv-regression", sched, seed=11, record_every=1)
        return trajectory_to_csv(result)

    def test_shorter_fit_is_a_prefix(self):
        block = _block_steps(self.SAMPLES)
        assert block == 40
        lengths = (1, block - 1, block, block + 1, 2 * block + 3)
        longest = self.csv(3 * block).splitlines(keepends=True)
        for steps in lengths:
            lines = self.csv(steps).splitlines(keepends=True)
            assert len(lines) == steps + 2
            assert "".join(lines) == "".join(longest[: steps + 2]), steps

    @pytest.mark.parametrize("estimator, cv_split", [("cv-ideal", 0.3), ("cov", 0.5)])
    def test_step_runs_the_kernel_on_its_row(self, estimator, cv_split):
        # step t: the kernel on row t of the stream, split as estimate() splits
        # its budget; the fit runs the 1-D row, the reference its (1, S) form
        q0, target = GaussianQ(0.2, 1.5), logistic_target()
        sched = SgdSchedule(step0=0.02, decay=0.6, iterations=3, samples_per_step=self.SAMPLES)
        result = fit(q0, target, estimator, sched, seed=4, cv_split=cv_split, record_every=1)
        config = EstimatorConfig(total_samples=self.SAMPLES, cv_split=cv_split, estimator_id=estimator)
        eta, q = q0.eta, q0
        for t, noise in enumerate(_noise_rows(4, 3, self.SAMPLES)):
            d = Draws(q, target, noise.eps[None])
            eta = eta - sched.step(t) * run_kernel(estimator, q, target, d, config.batch_sizes()[0])[0]
            q = from_natural(eta)  # the projection is inactive at these steps
            assert (result.trajectory[t + 1].mu, result.trajectory[t + 1].sigma2) == (q.mu, q.sigma2)

    @pytest.mark.parametrize("estimator", ["cv-regression", "cv-ideal"])
    @pytest.mark.parametrize("last_block", [1, 38])
    def test_block_step_equals_its_row_alone(self, estimator, last_block):
        # at 50 draws a block holds 327 steps, and a step reads the moments of
        # u its block computed for all its rows; the fit must be, bit for bit,
        # the kernel run on the step's row alone, on both sides of a block
        # boundary and in a last block of 1 or 38 rows (a 2000-step fit ends
        # in one of 38), or a shorter fit would not be a prefix of a longer one
        samples, block = 50, _block_steps(50)
        assert block == 327
        steps = 2 * block + last_block
        q0, target = GaussianQ(0.0, 1.0), gaussian_target(1.0, 3.0)
        sched = SgdSchedule(step0=0.05, decay=0.51, iterations=steps, samples_per_step=samples)
        result = fit(q0, target, estimator, sched, seed=1, record_every=1)
        eta, q = q0.eta, q0
        for t, noise in enumerate(_noise_rows(1, steps, samples)):
            # a Draws over the row's noise alone as a (1, S) tile, not over the block's Noise
            d = Draws(q, target, noise.eps[None])
            eta = eta - sched.step(t) * run_kernel(estimator, q, target, d, samples // 2)[0]
            eta[1] = min(eta[1], optimize.ETA2_MAX)
            q = from_natural(eta)
            assert (result.trajectory[t + 1].mu, result.trajectory[t + 1].sigma2) == (q.mu, q.sigma2), t

    @staticmethod
    def array_reference(q0, target, estimator, sched, seed, natural_gradient=False):
        """Each step's (mu, sigma2) with eta a 2-vector through from_natural: fit's loop on an eta array."""
        n_coef = EstimatorConfig(total_samples=sched.samples_per_step, estimator_id=estimator).batch_sizes()[0]
        eta, q, steps = q0.eta, q0, []
        for t, noise in enumerate(_noise_rows(seed, sched.iterations, sched.samples_per_step)):
            grad = run_kernel(estimator, q, target, Draws(q, target, noise.eps[None]), n_coef)[0]
            if natural_gradient:
                v0, v1 = _solve_l(q, grad[0], grad[1])
                grad = _solve_lt(q, v0, 0.5 * v1)
            eta = eta - sched.step(t) * grad
            eta[1] = min(eta[1], optimize.ETA2_MAX)
            q = from_natural(eta)
            steps.append((q.mu, q.sigma2))
        return steps

    def test_natural_gradient_step_equals_its_array_reference(self):
        # fit keeps eta as two floats; the natural-gradient map of each
        # step's gradient and the step itself round as on the 2-vector
        q0, target = GaussianQ(0.2, 1.5), logistic_target()
        sched = SgdSchedule(step0=0.02, decay=0.6, iterations=60, samples_per_step=20)
        result = fit(q0, target, "cv-regression", sched, seed=5, natural_gradient=True, record_every=1)
        steps = [(p.mu, p.sigma2) for p in result.trajectory[1:]]
        assert steps == self.array_reference(q0, target, "cv-regression", sched, 5, natural_gradient=True)

    def test_projected_step_equals_its_array_reference(self):
        # aggressive steps push eta[1] past ETA2_MAX, where the projection
        # holds it: sigma2 = -1 / (2 ETA2_MAX) at that step, as on the 2-vector
        q0, target = GaussianQ(0.0, 1.0), logistic_target()
        sched = SgdSchedule(step0=0.5, decay=0.51, iterations=300, samples_per_step=10)
        result = fit(q0, target, "cov", sched, seed=1, record_every=1)
        steps = [(p.mu, p.sigma2) for p in result.trajectory[1:]]
        assert any(sigma2 == -0.5 / optimize.ETA2_MAX for _, sigma2 in steps)
        assert steps == self.array_reference(q0, target, "cov", sched, 1)

    def test_one_draw_simple_fit_runs_the_kernel_on_its_row(self):
        q0, target = GaussianQ(0.2, 1.5), logistic_target()
        sched = SgdSchedule(step0=0.02, decay=0.6, iterations=3, samples_per_step=1)
        result = fit(q0, target, "simple", sched, seed=4, record_every=1)
        eta, q = q0.eta, q0
        for t, noise in enumerate(_noise_rows(4, 3, 1)):
            eta = eta - sched.step(t) * run_kernel("simple", q, target, Draws(q, target, noise.eps[None]), 0)[0]
            q = from_natural(eta)
            assert (result.trajectory[t + 1].mu, result.trajectory[t + 1].sigma2) == (q.mu, q.sigma2)

    def test_one_draw_cov_fit_raises_min_draws(self):
        sched = SgdSchedule(iterations=3, samples_per_step=1)
        with pytest.raises(ValueError, match="'cov' needs >= 2 samples in each batch; got 1"):
            fit(GaussianQ(0.2, 1.5), logistic_target(), "cov", sched, seed=4)

    def test_nonfinite_log_p_at_a_draw_is_estimation_error(self, monkeypatch):
        # log p is nan right of 0, where half of the draws from q0 land; the
        # KL, evaluated on quadrature nodes on both sides, is stubbed out
        monkeypatch.setattr(optimize, "kl_divergence", lambda q, target, rule=None: 0.0)
        half = Target("half-nan", log_p=lambda x: np.where(np.asarray(x) > 0.0, np.nan, -0.5 * np.square(x)))
        sched = SgdSchedule(iterations=5, samples_per_step=20)
        with pytest.raises(EstimationError, match="log_p is not finite at draw"):
            fit(GaussianQ(0.0, 1.0), half, "cv-regression", sched, seed=0)

    @pytest.mark.parametrize("q0, step0, message", [
        (GaussianQ(0.0, 1.0), 1e307, "mu must be finite"),
    ], ids=["mean-overflows"])
    def test_iterate_leaving_the_family_is_estimation_error(self, q0, step0, message):
        sched = SgdSchedule(step0=step0, iterations=4)
        with pytest.raises(EstimationError, match=f"^fit step 1 leaves the Gaussian family: {message}"):
            fit(q0, logistic_target(), "cv-regression", sched, seed=0)

    def test_start_outside_the_family_is_rejected_before_the_fit(self):
        # a subnormal variance puts eta[1] at -inf: no q0 is built, so no fit
        # computes a KL and an estimate before failing at step 1
        with pytest.raises(ValueError, match=r"^eta = \(mu / sigma2, -1 / \(2 sigma2\)\) must be finite"):
            GaussianQ(0.0, 1e-320)

    def test_nonfinite_estimate_is_estimation_error_without_warnings(self):
        sched = SgdSchedule(iterations=5, samples_per_step=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="no gradient estimate"):
                fit(GaussianQ(1e200, 2.0), logistic_target(), "cv-regression", sched, seed=0)

    @pytest.mark.parametrize("natural_gradient, mu, sigma2", [
        (False, 0.9584843325010122, 3.0879410444852127),
        (True, 0.471646890100819, 1.9432937802016375),
    ])
    def test_oracle_fit_numbers_are_unchanged(self, natural_gradient, mu, sigma2):
        # the gradient_fn path gives the values it gave with per-step estimate() calls
        target = gaussian_target(1.0, 3.0)
        rule = gauss_hermite_rule()
        result = fit(
            GaussianQ(0.0, 1.0), target, schedule=SgdSchedule(step0=0.05, decay=0.51, iterations=200),
            gradient_fn=lambda q: ground_truth_gradient(q, target, rule),
            natural_gradient=natural_gradient, record_every=50,
        )
        assert (result.final.mu, result.final.sigma2) == (mu, sigma2)

    def test_natural_gradient_fit_follows_the_oracle(self):
        # cv-regression has zero variance on a Gaussian target, so the
        # preconditioned stochastic fit is the preconditioned oracle fit
        target = gaussian_target(1.0, 3.0)
        rule = gauss_hermite_rule()
        sched = SgdSchedule(step0=0.05, decay=0.51, iterations=200, samples_per_step=20)
        oracle = fit(GaussianQ(0.0, 1.0), target, schedule=sched, natural_gradient=True,
                     gradient_fn=lambda q: ground_truth_gradient(q, target, rule))
        noisy = fit(GaussianQ(0.0, 1.0), target, "cv-regression", sched, seed=2, natural_gradient=True)
        for p, r in zip(noisy.trajectory, oracle.trajectory):
            assert p.mu == pytest.approx(r.mu, abs=1e-12) and p.sigma2 == pytest.approx(r.sigma2, abs=1e-12)


class TestVariationalSGD:
    def test_defaults_are_read_from_their_owners(self):
        params = VariationalSGD().get_params()
        fit_defaults = {n: p.default for n, p in inspect.signature(fit).parameters.items()}
        schedule = SgdSchedule()
        assert params == {
            "estimator": fit_defaults["estimator_id"],
            "step0": schedule.step0,
            "decay": schedule.decay,
            "iterations": schedule.iterations,
            "samples_per_step": schedule.samples_per_step,
            "cv_split": fit_defaults["cv_split"],
            "natural_gradient": fit_defaults["natural_gradient"],
            "mu0": 0.0,
            "sigma20": 1.0,
            "seed": fit_defaults["seed"],
            "record_every": fit_defaults["record_every"],
        }

    def test_get_set_params_round_trip(self):
        model = VariationalSGD(step0=0.02, iterations=123)
        params = model.get_params()
        assert params["step0"] == 0.02 and params["iterations"] == 123
        clone = VariationalSGD(**params)
        assert clone.get_params() == params
        model.set_params(decay=0.9)
        assert model.decay == 0.9
        with pytest.raises(ValueError):
            model.set_params(bogus=1)

    def test_fit_sets_learned_attributes(self):
        model = VariationalSGD(
            estimator="cv-regression", step0=0.05, decay=0.51,
            iterations=3000, samples_per_step=20, seed=0,
        )
        fitted = model.fit("gaussian:1:3")
        assert fitted is model
        assert model.mu_ == pytest.approx(1.0, abs=1e-3)
        assert model.sigma2_ == pytest.approx(3.0, abs=1e-3)
        assert model.n_iter_ == 3000
        assert len(model.trajectory_) >= 2
        assert model.score("gaussian:1:3") == pytest.approx(0.0, abs=1e-5)

    def test_fit_accepts_target_object(self):
        model = VariationalSGD(iterations=20, samples_per_step=10, seed=1)
        model.fit(logistic_target())
        assert np.isfinite(model.mu_)

    def test_score_before_fit_says_to_fit_first(self):
        model = VariationalSGD()
        message = "^this VariationalSGD is not fitted yet: call fit\\(target\\) before score$"
        for target in ("logistic", logistic_target()):
            with pytest.raises(AttributeError, match=message):
                model.score(target)
