import inspect

import numpy as np
import pytest

from gradcv.gaussian import GaussianQ
from gradcv.optimize import FitResult, SgdSchedule, VariationalSGD, fit, trajectory_to_csv
from gradcv.quadrature import gauss_hermite_rule, ground_truth_gradient
from gradcv.targets import gaussian_target, logistic_target


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
            "jitter": fit_defaults["jitter"],
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
