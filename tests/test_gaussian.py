import dataclasses
import re

import numpy as np
import pytest

from gradcv.gaussian import (
    DrawBatch, GaussianQ, _seed_key, _solve_l, _solve_lt, _times_l, from_moments, from_natural, rng_from_seed,
)
from gradcv.quadrature import gauss_hermite_rule


def quad_suffstat_cov(q):
    """Independent oracle: Cov[T, T] by Gauss-Hermite quadrature."""
    rule = gauss_hermite_rule(32)
    x = q.mu + q.sigma * rule.nodes
    t = q.suff_stats(x)
    w = rule.weights
    et = w @ t
    ett = (t * w[:, None]).T @ t
    return ett - np.outer(et, et)


class TestNaturalParameters:
    @pytest.mark.parametrize(
        "mu,sigma2,expected",
        [(0.0, 2.0, (0.0, -0.25)), (-2.0, 2.0, (-1.0, -0.25)), (2.0, 4.0, (0.5, -0.125))],
    )
    def test_from_moments_eta(self, mu, sigma2, expected):
        np.testing.assert_allclose(from_moments(mu, sigma2).eta, expected, rtol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_variance_rejected(self, bad):
        with pytest.raises(ValueError):
            GaussianQ(0.0, bad)

    def test_round_trip_and_eta2_sign(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mu = rng.uniform(-10, 10)
            sigma2 = float(np.exp(rng.uniform(-6, 6)))
            q = GaussianQ(mu, sigma2)
            assert q.eta[1] < 0
            back = from_natural(q.eta)
            assert abs(back.mu - mu) <= 1e-12 * max(abs(mu), 1.0)
            assert abs(back.sigma2 - sigma2) <= 1e-12 * sigma2

    @pytest.mark.parametrize("mu,sigma2", [(0.0, 1e-320), (1e300, 1e-10)], ids=["subnormal-variance", "mu-over-sigma2"])
    def test_nonfinite_eta_rejected(self, mu, sigma2):
        # eta = (mu / sigma2, -1 / (2 sigma2)) overflows though mu and sigma2 are finite
        with pytest.raises(ValueError, match=r"^eta = \(mu / sigma2, -1 / \(2 sigma2\)\) must be finite, got mu="):
            GaussianQ(mu, sigma2)

    @pytest.mark.parametrize("mu, sigma2, field", [
        ("1.5", 2.0, "mu"), (True, 1.0, "mu"), (None, 1.0, "mu"),
        (0.0, "2", "sigma2"), (0.0, np.True_, "sigma2"),
    ], ids=repr)
    def test_mu_and_sigma2_must_be_real_numbers(self, mu, sigma2, field):
        # float() would parse "1.5" and read True as 1.0
        message = f"{field} must be a real number (not a bool), got {mu if field == 'mu' else sigma2!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaussianQ(mu, sigma2)

    @pytest.mark.parametrize("make, message", [
        (lambda: GaussianQ(np.float64(np.inf), 1.0), "mu must be finite, got inf"),
        (lambda: GaussianQ(0.0, np.float64(-2.0)), "sigma2 must be finite and > 0, got -2.0"),
    ])
    def test_errors_quote_plain_floats(self, make, message):
        # numpy scalars are quoted as the floats they are converted to, not as np.float64(...)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_from_natural_rejects_nonnegative_eta2(self):
        with pytest.raises(ValueError):
            from_natural(np.array([0.0, 0.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eta, message", [
        ((1e300, -1e-10), r"^mu must be finite, got inf$"),
        # sigma2 = inf, which is reported, not the nan mu = 0 * inf
        ((0.0, -1e-320), r"^sigma2 must be finite and > 0, got inf$"),
    ], ids=["mean-overflows", "variance-overflows"])
    def test_from_natural_overflow_raises_without_a_warning(self, eta, message):
        # an overflow of the numpy scalar arithmetic is the ValueError alone
        with pytest.raises(ValueError, match=message):
            from_natural(np.array(eta))

    def test_frozen(self):
        q = GaussianQ(0.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.mu = 1.0


@pytest.mark.parametrize("mu, sigma2", [(0.0, 1.0), (-2.0, 0.3), (1e3, 4e-2)])
def test_basis_maps_are_l_and_its_inverses(mu, sigma2):
    # s = L u with L = [[sigma, 0], [2 mu sigma, sigma2]]
    q = GaussianQ(mu, sigma2)
    l_matrix = np.array([[q.sigma, 0.0], [2.0 * mu * q.sigma, sigma2]])
    v = np.array([0.7, -1.3])
    np.testing.assert_allclose(_times_l(q, *v), l_matrix @ v, rtol=1e-15)
    np.testing.assert_allclose(_solve_l(q, *v), np.linalg.solve(l_matrix, v), rtol=1e-12)
    np.testing.assert_allclose(_solve_lt(q, *v), np.linalg.solve(l_matrix.T, v), rtol=1e-12)
    np.testing.assert_allclose(_solve_l(q, *_times_l(q, *v)), v, rtol=1e-12)


class TestLogDensity:
    def test_standard_normal_mode(self):
        assert GaussianQ(0.0, 1.0).log_density(0.0) == pytest.approx(-0.9189385, abs=1e-7)

    def test_symmetry_about_mean(self):
        q = GaussianQ(1.3, 2.7)
        for d in (0.1, 1.0, 3.5):
            assert q.log_density(q.mu + d) == pytest.approx(q.log_density(q.mu - d), rel=1e-15)

    def test_closed_form_value(self):
        got = GaussianQ(0.0, 2.0).log_density(1.0)
        assert got == pytest.approx(-0.25 - 0.5 * np.log(4 * np.pi), rel=1e-14)

    def test_matches_exponential_family_form(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = GaussianQ(rng.uniform(-5, 5), float(np.exp(rng.uniform(-4, 4))))
            x = rng.uniform(-8, 8, size=7)
            log_z = q.mu ** 2 / (2.0 * q.sigma2) + 0.5 * np.log(2.0 * np.pi * q.sigma2)
            ef = q.suff_stats(x) @ q.eta - log_z
            np.testing.assert_allclose(q.log_density(x), ef, rtol=1e-12, atol=1e-12)

    def test_density_integrates_to_one(self):
        rule = gauss_hermite_rule(128)
        for mu, s2 in [(0.0, 1.0), (-2.0, 2.0), (3.0, 0.5)]:
            q = GaussianQ(mu, s2)
            ref = GaussianQ(mu, 2.0 * s2)
            x = ref.mu + ref.sigma * rule.nodes
            total = rule.weights @ np.exp(q.log_density(x) - ref.log_density(x))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestScore:
    def test_values(self):
        np.testing.assert_allclose(GaussianQ(0.0, 1.0).score_eta(0.0), [0.0, -1.0])
        np.testing.assert_allclose(GaussianQ(0.0, 2.0).score_eta(1.0), [1.0, -1.0])

    def test_zero_mean_under_q(self):
        rule = gauss_hermite_rule(64)
        for mu, s2 in [(0.0, 2.0), (-2.0, 2.0), (2.0, 2.0), (0.0, 4.0)]:
            q = GaussianQ(mu, s2)
            x = q.mu + q.sigma * rule.nodes
            mean = rule.weights @ q.score_eta(x)
            np.testing.assert_allclose(mean, 0.0, atol=1e-10)

    def test_finite_difference_of_log_density(self):
        # dlog q/deta_k via central differences with the normalizer recomputed
        step = 1e-6
        xs = np.array([-4.0, -1.0, 0.0, 0.7, 3.0])
        for mu, s2 in [(0.0, 1.0), (1.5, 0.6), (-2.0, 3.0)]:
            q = GaussianQ(mu, s2)
            analytic = q.score_eta(xs)
            for k in range(2):
                delta = np.zeros(2)
                delta[k] = step
                fd = (from_natural(q.eta + delta).log_density(xs)
                      - from_natural(q.eta - delta).log_density(xs)) / (2 * step)
                np.testing.assert_allclose(fd, analytic[:, k], rtol=1e-6, atol=1e-6)

    def test_score_x(self):
        q = GaussianQ(1.0, 2.0)
        np.testing.assert_allclose(q.score_x(2.0), -0.5)


class TestSuffStatCov:
    # expected matrices derived from the quadrature oracle, fixed by the
    # closed forms Var[x] = s2, Cov[x, x^2] = 2 mu s2, Var[x^2] = 2 s2^2 + 4 mu^2 s2
    @pytest.mark.parametrize(
        "mu,s2,expected",
        [
            (0.0, 1.0, [[1.0, 0.0], [0.0, 2.0]]),
            (0.0, 2.0, [[2.0, 0.0], [0.0, 8.0]]),
            (2.0, 2.0, [[2.0, 8.0], [8.0, 40.0]]),
        ],
    )
    def test_against_frozen_values_and_oracle(self, mu, s2, expected):
        q = GaussianQ(mu, s2)
        got = q.exact_suffstat_cov()
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        np.testing.assert_allclose(quad_suffstat_cov(q), expected, rtol=1e-10, atol=1e-10)

    def test_benchmark_settings_match_oracle(self):
        for mu, s2 in [(0.0, 2.0), (-2.0, 2.0), (2.0, 2.0), (0.0, 4.0)]:
            q = GaussianQ(mu, s2)
            np.testing.assert_allclose(q.exact_suffstat_cov(), quad_suffstat_cov(q), atol=1e-8)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = GaussianQ(rng.uniform(-5, 5), float(np.exp(rng.uniform(-3, 3))))
            c = q.exact_suffstat_cov()
            assert c[0, 1] == c[1, 0]
            assert np.all(np.linalg.eigvalsh(c) > 0)


class TestSampling:
    def test_deterministic_given_seed(self):
        q = GaussianQ(0.5, 3.0)
        a = q.sample(seed=42, size=100)
        b = q.sample(seed=42, size=100)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.noise, b.noise)
        c = q.sample(seed=43, size=100)
        assert not np.array_equal(a.draws, c.draws)

    def test_reconstruction_bit_for_bit(self):
        q = GaussianQ(-1.2, 0.8)
        batch = q.sample(seed=7, size=256)
        assert np.array_equal(q.reparameterize(batch.noise), batch.draws)

    def test_zero_noise_maps_to_mean(self):
        q = GaussianQ(2.5, 4.0)
        np.testing.assert_array_equal(q.reparameterize(np.zeros(5)), np.full(5, 2.5))

    def test_sample_mean_clt_bound(self):
        # 4-sigma band around the mean for S = 1e6 draws from N(0, 2)
        q = GaussianQ(0.0, 2.0)
        batch = q.sample(seed=123, size=1_000_000)
        assert abs(batch.draws.mean()) < 4.0 * np.sqrt(2.0 / 1_000_000)

    def test_batch_arrays_read_only(self):
        batch = GaussianQ(0.0, 1.0).sample(seed=0, size=8)
        with pytest.raises(ValueError):
            batch.draws[0] = 0.0

    def test_size_mismatch_rejected(self):
        for noise in (np.zeros((2, 3)), np.zeros(0), 0.0):
            with pytest.raises(ValueError, match="noise must be a non-empty 1-D array"):
                DrawBatch(GaussianQ(0.0, 1.0), noise, seed=0)

    def test_batch_derives_its_draws_from_q(self):
        q = GaussianQ(-0.7, 2.3)
        noise = rng_from_seed(11).standard_normal(9)
        batch = DrawBatch(q, noise, seed=11)
        assert batch.q is q and batch.size == len(noise) == 9
        assert np.array_equal(batch.draws, q.reparameterize(noise))
        assert [f.name for f in dataclasses.fields(DrawBatch)] == ["q", "noise", "seed"]
        for array in (batch.draws, batch.noise):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianQ(0.0, 1.0).sample(seed=0, size=0)

    @pytest.mark.parametrize("size", [2.5, True, "3"])
    def test_size_must_be_an_int(self, size):
        with pytest.raises(ValueError, match="^size must be an int >= 1, got "):
            GaussianQ(0.0, 1.0).sample(seed=0, size=size)

    def test_negative_and_tuple_seeds_accepted(self):
        q = GaussianQ(0.0, 1.0)
        a = q.sample(seed=-3, size=5)
        b = q.sample(seed=-3, size=5)
        assert np.array_equal(a.draws, b.draws)
        c = q.sample(seed=(7, 1), size=5)
        d = q.sample(seed=(7, 2), size=5)
        assert not np.array_equal(c.draws, d.draws)

    def test_string_labels_are_not_truncated(self):
        # labels that agree in their first eight bytes used to share a stream
        q = GaussianQ(0.0, 1.0)
        a = q.sample(seed=("exactness", 0), size=5)
        b = q.sample(seed=("exactnesQ", 0), size=5)
        c = q.sample(seed=("exactnes", 0), size=5)
        assert not np.array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, c.draws)
        assert _seed_key(("exactness", 0)) != _seed_key(("exactnesQ", 0))

    def test_keys_equal_after_zero_padding_collide(self):
        # SeedSequence reads a key as 32-bit words, zero-padded to four:
        # trailing zeros, and an int that spans the words of a tuple, do
        # not change the stream
        def first(key):
            return rng_from_seed(key).standard_normal(4)

        np.testing.assert_array_equal(first((5,)), first((5, 0)))
        np.testing.assert_array_equal(first((5,)), first((5, 0, 0)))
        np.testing.assert_array_equal(first((1 << 32,)), first((0, 1)))
        assert not np.array_equal(first((1, 2, 3, 4)), first((1, 2, 3, 4, 0)))

    def test_short_labels_keep_their_key(self):
        # a label of at most eight bytes keeps the key, hence the stream, it always had
        assert _seed_key(("path-fd", 2)) == (int.from_bytes(b"path-fd", "little"), 2)
        assert _seed_key("cv-ideal") == (int.from_bytes(b"cv-ideal", "little"),)
        assert _seed_key(-3) == ((1 << 64) - 3,)

    @pytest.mark.parametrize(
        "seed", [1.5, True, np.True_, None, np.float64(2.0), [1, 2], (1, 1.5), (3, (1,)), (False, 0)], ids=repr)
    def test_a_seed_that_is_no_key_is_a_value_error_naming_it(self, seed):
        # a float used to be truncated (1.5 drew the stream of 1) and a bool
        # taken as an int; neither, nor None, a list or a nested tuple, is a key
        message = f"^{re.escape(f'seed must be an int (not a bool), a str label or a tuple of those, got {seed!r}')}$"
        with pytest.raises(ValueError, match=message):
            _seed_key(seed)
        with pytest.raises(ValueError, match=message):
            GaussianQ(0.0, 1.0).sample(seed, 3)

    def test_a_numpy_int_seed_is_its_int(self):
        assert _seed_key(np.int64(7)) == _seed_key(7) == (7,)
        assert _seed_key((np.uint8(3), "a")) == _seed_key((3, "a"))
        q = GaussianQ(0.0, 1.0)
        assert np.array_equal(q.sample(np.int32(5), 4).noise, q.sample(5, 4).noise)


class TestPathJacobian:
    def test_at_zero_noise_first_component_is_variance(self):
        q = GaussianQ(0.0, 1.0)
        jac = q.path_jacobian(0.0)
        assert jac[0] == pytest.approx(1.0, rel=1e-14)

    def test_finite_difference_oracle(self):
        # d/deta of the sampler at fixed noise, central step 1e-6
        step = 1e-6
        rng = np.random.default_rng(3)
        for mu, s2 in [(0.0, 1.0), (1.0, 3.0), (-2.0, 0.4)]:
            q = GaussianQ(mu, s2)
            eps = rng.standard_normal(11)
            jac = q.path_jacobian(eps)
            for k in range(2):
                delta = np.zeros(2)
                delta[k] = step
                fd = (from_natural(q.eta + delta).reparameterize(eps)
                      - from_natural(q.eta - delta).reparameterize(eps)) / (2 * step)
                np.testing.assert_allclose(fd, jac[:, k], rtol=1e-6, atol=1e-8)

    def test_noise_sign_only_moves_scale_path(self):
        q = GaussianQ(1.0, 2.0)
        eps = np.array([0.7])
        plus = q.path_jacobian(eps)[0]
        minus = q.path_jacobian(-eps)[0]
        assert plus[0] == minus[0]
        assert plus[1] - minus[1] == pytest.approx(2.0 * q.sigma ** 3 * eps[0], rel=1e-12)
