"""The vectorized kernels agree across batch layouts and entry points.

A kernel computes every replication from its own row of draws, so a batch
of R rows must give what R one-row calls give, and what the est_* wrapper
gives on the same draws. The Gaussian-target zero-variance identities must
hold on every row of a batch whose size is not a multiple of the
benchmark's 4096-replication chunk.
"""

import numpy as np
import pytest

from gradcv.benchmark import BenchmarkSpec, run_benchmark
from gradcv.estimators import ESTIMATOR_IDS, ESTIMATORS, run_kernel
from gradcv.gaussian import DrawBatch, GaussianQ, rng_from_seed
from gradcv.targets import gaussian_target, logistic_target

TARGETS = {"logistic": logistic_target(), "gaussian:1:3": gaussian_target(1.0, 3.0)}
SAMPLES = 50
ZERO_VARIANCE_IDS = ("cv-regression", "greg-samplecov", "cv-ideal-grad", "greg-pathgrad")


def draws(q, reps, label):
    eps = rng_from_seed(label).standard_normal((reps, SAMPLES))
    return q.reparameterize(eps), eps


def n_coef_of(est_id):
    return SAMPLES // 2 if ESTIMATORS[est_id].split_budget else 0


def assert_rel_close(got, ref, rtol):
    scale = np.abs(ref).max()
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * scale)


@pytest.mark.parametrize("target_name", list(TARGETS))
@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
class TestKernelEquivalence:
    def test_batch_equals_one_row_calls(self, est_id, target_name):
        q, t = GaussianQ(0.5, 1.5), TARGETS[target_name]
        x, eps = draws(q, 5, ("rows", target_name))
        n_coef = n_coef_of(est_id)
        batch = run_kernel(est_id, q, t, x, eps, n_coef)
        rows = np.concatenate([run_kernel(est_id, q, t, x[i:i + 1], eps[i:i + 1], n_coef) for i in range(5)])
        assert batch.shape == (5, 2)
        assert_rel_close(batch, rows, 1e-12)

    def test_batch_equals_wrapper(self, est_id, target_name):
        q, t = GaussianQ(-1.0, 2.5), TARGETS[target_name]
        x, eps = draws(q, 5, ("wrapper", target_name))
        n_coef = n_coef_of(est_id)
        batch, aux = run_kernel(est_id, q, t, x, eps, n_coef, with_aux=True)
        info = ESTIMATORS[est_id]
        for i in range(5):
            if info.split_budget:
                coef = DrawBatch(draws=x[i, :n_coef], noise=eps[i, :n_coef], seed=i, size=n_coef)
                ev = DrawBatch(draws=x[i, n_coef:], noise=eps[i, n_coef:], seed=i, size=SAMPLES - n_coef)
                result = info.fn(q, t, coef, ev)
            else:
                result = info.fn(q, t, DrawBatch(draws=x[i], noise=eps[i], seed=i, size=SAMPLES))
            assert_rel_close(result.value, batch[i], 1e-12)
            assert set(result.aux or {}) == set(aux)
            for key, values in aux.items():
                if values.dtype == bool:
                    np.testing.assert_array_equal(result.aux[key], values[i])
                else:
                    assert_rel_close(result.aux[key], values[i], 1e-12)


class TestZeroVarianceOffChunk:
    REPS = 4099  # one full 4096 chunk and a remainder of 3

    @pytest.mark.parametrize("est_id", ZERO_VARIANCE_IDS)
    def test_every_row_is_exact(self, est_id):
        q, t = GaussianQ(-0.5, 1.5), gaussian_target(1.0, 3.0)
        exact = q.exact_suffstat_cov() @ (q.eta - t.eta_tilde)
        x, eps = draws(q, self.REPS, ("zero-variance", est_id))
        est = run_kernel(est_id, q, t, x, eps, n_coef_of(est_id))
        scale = max(np.abs(exact).max(), 1.0)
        assert est.shape == (self.REPS, 2)
        assert np.abs(est - exact).max() / scale < 1e-10

    def test_benchmark_cells_are_exact(self):
        spec = BenchmarkSpec(
            settings=((0.0, 2.0), (2.0, 0.5)), estimators=ZERO_VARIANCE_IDS,
            replications=self.REPS, target="gaussian:1:3", base_seed=5,
        )
        for row in run_benchmark(spec, threads=2).rows:
            assert row.replications == self.REPS
            scale = max(np.abs(row.ground_truth).max(), 1.0)
            # REPS * mse bounds the weighted squared error of every replication
            assert np.sqrt(self.REPS * row.mse) / scale < 1e-10, (row.estimator, row.mu, row.sigma2)
