import math
import re

import numpy as np
import pytest

from gradcv.targets import ExpFamTarget, _sigmoid, gaussian_target, logistic_target, resolve_target

PROBE_GRID = np.array([-5.0, -2.0, 0.0, 2.0, 5.0])


def fd_check(f, df, grid, step=1e-6, tol=1e-6):
    fd = (f(grid + step) - f(grid - step)) / (2 * step)
    np.testing.assert_allclose(df(grid), fd, rtol=tol, atol=tol)


def two_branch_sigmoid(x):
    """The masked two-branch sigmoid that _sigmoid replaced."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestLogistic:
    def test_sigmoid_equals_two_branch_form_bit_for_bit(self):
        grid = np.concatenate([
            np.random.default_rng(0).standard_normal((4096, 25)).ravel() * 4.0,
            np.linspace(-800.0, 800.0, 16001),
            [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2,
             800.0, -800.0, np.inf, -np.inf],
        ])
        with np.errstate(over="ignore"):
            expected = two_branch_sigmoid(grid)
        got = _sigmoid(grid)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        # nan stays nan (the sign of a nan is not a value)
        assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()

    def test_in_place_forms_equal_the_expressions_bit_for_bit(self):
        # the expressions log_p, grad_x and _sigmoid evaluated before they
        # worked in place; same bits, same return types, input untouched
        def sigmoid_ref(x):
            x = np.asarray(x, dtype=float)
            e = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0, e) / (1.0 + e)

        def log_p_ref(x):
            x = np.asarray(x, dtype=float)
            return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

        t = logistic_target()
        pairs = [
            (t.log_p, log_p_ref),
            (t.grad_x, lambda x: sigmoid_ref(-np.asarray(x, dtype=float))),
            (_sigmoid, sigmoid_ref),
            (t.hess_x, lambda x: -sigmoid_ref(x) * sigmoid_ref(-np.asarray(x, dtype=float))),
        ]
        edges = [0.0, -0.0, 20.0, -20.0, 40.0, -40.0, 709.5, -709.5, 745.1, -745.1, 800.0, -800.0, np.inf, -np.inf]
        flat = np.concatenate([edges, np.random.default_rng(1).standard_normal(100_000) * 30.0])
        inputs = [flat, flat.reshape(-1, 2), flat.reshape(-1, 2)[:, 1], np.array(-0.0), np.array(709.5),
                  -745.1, 0.0, 20.0]
        for new, ref in pairs:
            for x in inputs:
                before = np.array(x, copy=True)
                got, expected = new(x), ref(x)
                assert type(got) is type(expected)
                assert np.asarray(got).shape == np.asarray(expected).shape
                np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(expected).view(np.uint64))
                np.testing.assert_array_equal(np.asarray(x).view(np.uint64), before.view(np.uint64))

    def test_values_at_zero(self):
        t = logistic_target()
        assert t.log_p(0.0) == pytest.approx(-np.log(2.0), rel=1e-12)
        assert t.grad_x(0.0) == pytest.approx(0.5, rel=1e-12)
        assert t.hess_x(0.0) == pytest.approx(-0.25, rel=1e-12)

    def test_stable_in_far_tails(self):
        t = logistic_target()
        assert t.log_p(-700.0) == pytest.approx(-700.0, abs=1e-10)
        assert np.isfinite(t.log_p(700.0))
        assert np.isfinite(t.grad_x(np.array([-700.0, 700.0]))).all()

    def test_log_p_matches_log1p_reference(self):
        # -log1p(exp(-x)) is accurate wherever exp(-x) is finite; below that
        # (x = -800, -inf) log p = x - log1p(exp(x)) equals x to the last bit.
        # x - logaddexp(0, x) returned 0.0 at x = 40 and lost 7 digits at 20.
        grid = np.concatenate([
            [0.0, -0.0, 5.0, -5.0, 20.0, -20.0, 40.0, -40.0, 800.0, -800.0, np.inf, -np.inf],
            np.linspace(-700.0, 700.0, 14001),
            np.logspace(-300.0, 2.8, 601),
            -np.logspace(-300.0, 2.8, 601),
        ])
        got = logistic_target().log_p(grid)
        ref = np.array([-math.log1p(math.exp(-x)) if x > -700.0 else x for x in grid])
        finite = np.isfinite(ref)
        assert np.array_equal(got[~finite], ref[~finite])
        err = np.abs(got[finite] - ref[finite])
        assert np.all(err <= 2.0 * np.finfo(float).eps * np.abs(ref[finite]))
        assert got[grid == 40.0][0] == pytest.approx(-4.248354255291589e-18, rel=1e-15)

    def test_derivatives_match_finite_differences(self):
        t = logistic_target()
        fd_check(t.log_p, t.grad_x, PROBE_GRID)
        fd_check(t.grad_x, t.hess_x, PROBE_GRID)

    def test_gradient_bounded_and_monotone(self):
        t = logistic_target()
        x = np.linspace(-30, 30, 2001)
        g = t.grad_x(x)
        assert np.all(g > 0.0) and np.all(g < 1.0)
        # strictly increasing where increments stay above float64 quantization
        x_strict = np.linspace(-30, 20, 2001)
        assert np.all(np.diff(t.log_p(x_strict)) > 0)


class TestGaussianTarget:
    def test_natural_parameters(self):
        t = gaussian_target(0.0, 1.0)
        np.testing.assert_allclose(t.eta_tilde, [0.0, -0.5], rtol=1e-15)
        assert t.eta_tilde[1] < 0

    def test_log_p_is_normal_log_density(self):
        mu, s2 = 1.5, 2.5
        t = gaussian_target(mu, s2)
        expected = -0.5 * np.log(2 * np.pi * s2) - (PROBE_GRID - mu) ** 2 / (2 * s2)
        np.testing.assert_allclose(t.log_p(PROBE_GRID), expected, rtol=1e-12, atol=1e-12)

    def test_exponential_family_form(self):
        t = gaussian_target(-1.0, 3.0)
        ef = t.eta_tilde[0] * PROBE_GRID + t.eta_tilde[1] * PROBE_GRID ** 2 + t.c
        np.testing.assert_allclose(t.log_p(PROBE_GRID), ef, rtol=1e-14)

    def test_log_ratio_constant_when_target_equals_q(self):
        from gradcv.gaussian import GaussianQ

        q = GaussianQ(0.7, 1.3)
        t = gaussian_target(0.7, 1.3)
        diff = q.log_density(PROBE_GRID) - t.log_p(PROBE_GRID)
        assert np.ptp(diff) < 1e-12

    def test_derivatives_match_finite_differences(self):
        t = gaussian_target(2.0, 0.5)
        fd_check(t.log_p, t.grad_x, PROBE_GRID, tol=1e-5)
        fd_check(t.grad_x, t.hess_x, PROBE_GRID, tol=1e-5)

    def test_invalid_variance_rejected(self):
        for bad in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                gaussian_target(0.0, bad)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_mean_is_checked_as_gaussianq_checks_it(self, mu):
        with pytest.raises(ValueError, match="^mu must be finite"):
            gaussian_target(mu, 1.0)

    @pytest.mark.parametrize("mu, sigma2, message", [
        ("1", "3", "mu must be a real number (not a bool), got '1'"),
        (1.0, "3", "sigma2 must be a real number (not a bool), got '3'"),
    ])
    def test_mean_and_variance_must_be_real_numbers(self, mu, sigma2, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gaussian_target(mu, sigma2)


class TestResolve:
    def test_logistic(self):
        assert resolve_target("logistic").name == "logistic"

    def test_gaussian(self):
        t = resolve_target("gaussian:1.5:2.5")
        assert isinstance(t, ExpFamTarget)
        np.testing.assert_allclose(t.eta_tilde, [0.6, -0.2], rtol=1e-12)

    @pytest.mark.parametrize("bad", ["gauss", "gaussian:1", "gaussian:a:b", "gaussian:0:-1", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_target(bad)
