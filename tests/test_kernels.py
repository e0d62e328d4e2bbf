"""The vectorized kernels agree across batch layouts and entry points.

A kernel computes every replication from its own row of draws, so a batch
of R rows must give what R one-row calls give, and what the est_* function
and estimate() give on the same draws. The Gaussian-target zero-variance
identities must hold on every row of a batch whose size is not a multiple
of the benchmark's 4096-replication chunk.
"""

import gc
import inspect
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gradcv
from gradcv.benchmark import BenchmarkSpec, run_benchmark
from gradcv.estimators import (
    ESTIMATOR_IDS, ESTIMATORS, Draws, EstimationError, EstimatorConfig, Noise, estimate, run_kernel,
)
from gradcv.gaussian import DrawBatch, GaussianQ, rng_from_seed
from gradcv.quadrature import gauss_hermite_rule, ground_truth_gradient
from gradcv.targets import gaussian_target, logistic_target

TARGETS = {"logistic": logistic_target(), "gaussian:1:3": gaussian_target(1.0, 3.0)}
# the public est_* function of each estimator id
ALIASES = {
    "simple": gradcv.est_simple,
    "cov": gradcv.est_cov,
    "cv-ideal": gradcv.est_cv_ideal,
    "cv-regression": gradcv.est_cv_regression,
    "cv-ideal-grad": gradcv.est_cv_ideal_pathgrad,
    "ranganath-cv": gradcv.est_ranganath_cv,
    "delta-method": gradcv.est_delta_method,
    "kingma-reparam": gradcv.est_kingma_reparam,
    "greg-samplecov": gradcv.est_greg_samplecov,
    "greg-pathgrad": gradcv.est_greg_pathgrad,
}
SAMPLES = 50
ZERO_VARIANCE_IDS = ("cv-regression", "greg-samplecov", "cv-ideal-grad", "greg-pathgrad")


def noise(reps, label):
    """(reps, SAMPLES) standard-normal noise of the stream keyed label."""
    return rng_from_seed(label).standard_normal((reps, SAMPLES))


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
        eps = noise(5, ("rows", target_name))
        n_coef = n_coef_of(est_id)
        batch = run_kernel(est_id, q, t, Draws(q, t, eps), n_coef)
        rows = np.concatenate([run_kernel(est_id, q, t, Draws(q, t, eps[i:i + 1]), n_coef) for i in range(5)])
        assert batch.shape == (5, 2)
        assert_rel_close(batch, rows, 1e-12)

    def test_batch_equals_wrapper(self, est_id, target_name):
        q, t = GaussianQ(-1.0, 2.5), TARGETS[target_name]
        d = Draws(q, t, noise(5, ("wrapper", target_name)))
        eps, n_coef = d.eps, n_coef_of(est_id)
        batch, aux = run_kernel(est_id, q, t, d, n_coef, with_aux=True)
        for i in range(5):
            if ESTIMATORS[est_id].split_budget:
                coef = DrawBatch(q, eps[i, :n_coef], seed=i)
                ev = DrawBatch(q, eps[i, n_coef:], seed=i)
                result = ALIASES[est_id](q, t, coef, ev)
            else:
                result = ALIASES[est_id](q, t, DrawBatch(q, eps[i], seed=i))
            assert_rel_close(result.value, batch[i], 1e-12)
            assert set(result.aux or {}) == set(aux)
            for key, values in aux.items():
                if values.dtype == bool:
                    np.testing.assert_array_equal(result.aux[key], values[i])
                else:
                    assert_rel_close(result.aux[key], values[i], 1e-12)


@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
def test_alias_is_generated_from_the_registry(est_id):
    alias = ALIASES[est_id]
    params = ["q", "t", "batch_coef", "batch_eval"] if ESTIMATORS[est_id].split_budget else ["q", "t", "batch"]
    assert list(inspect.signature(alias).parameters) == params
    assert alias is getattr(gradcv.estimators, alias.__name__)
    assert alias.__doc__ and alias.__doc__ == ESTIMATORS[est_id].kernel.__doc__


@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
def test_alias_rejects_draws_of_another_q(est_id):
    # the kernels read the noise, so a batch whose draws are not
    # q.reparameterize(noise) is an error rather than silently ignored
    q, t = GaussianQ(0.0, 1.0), logistic_target()
    n = SAMPLES // 2 if ESTIMATORS[est_id].split_budget else SAMPLES
    own = [q.sample((7, i), n) for i in range(2 if ESTIMATORS[est_id].split_budget else 1)]
    assert np.isfinite(ALIASES[est_id](q, t, *own).value).all()
    for other_q in (GaussianQ(5.0, 1.0), GaussianQ(0.0, 1.0 + 1e-15)):
        batches = list(own)
        batches[-1] = other_q.sample((7, len(own) - 1), n)
        with pytest.raises(ValueError, match=rf"^draws of {re.escape(repr(other_q))}, not of {re.escape(repr(q))}$"):
            ALIASES[est_id](q, t, *batches)


@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
def test_alias_accepts_draws_of_an_equal_q(est_id):
    # a batch is of q when its q equals q, not only when it is the same object
    q, t = GaussianQ(0.25, 1.5), logistic_target()
    n = SAMPLES // 2 if ESTIMATORS[est_id].split_budget else SAMPLES
    count = 2 if ESTIMATORS[est_id].split_budget else 1
    own = ALIASES[est_id](q, t, *[q.sample((3, i), n) for i in range(count)])
    twin = GaussianQ(0.25, 1.5)
    assert twin is not q
    other = ALIASES[est_id](q, t, *[twin.sample((3, i), n) for i in range(count)])
    np.testing.assert_array_equal(other.value, own.value)


@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    mu=st.floats(-3.0, 3.0),
    sigma2=st.floats(0.1, 5.0),
    samples=st.integers(2, 60),
    split=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_equals_alias_and_run_kernel(est_id, mu, sigma2, samples, split, seed):
    # estimate() draws batch i from seed (seed, i); the est_* function and
    # run_kernel on those draws must give the same value and aux, bit for bit
    try:
        config = EstimatorConfig(total_samples=samples, cv_split=split, estimator_id=est_id)
    except ValueError:
        assume(False)
    q, t = GaussianQ(mu, sigma2), logistic_target()
    sizes = config.split_sizes() if ESTIMATORS[est_id].split_budget else (samples,)
    batches = [q.sample((seed, i), n) for i, n in enumerate(sizes)]
    eps = np.concatenate([b.noise for b in batches])[None]
    rows, aux = run_kernel(est_id, q, t, Draws(q, t, eps), config.split_sizes()[0], with_aux=True)
    got = estimate(q, t, config, seed=seed)
    assert got.samples_used == samples
    for result in (got, ALIASES[est_id](q, t, *batches)):
        np.testing.assert_array_equal(result.value, rows[0])
        assert set(result.aux or {}) == set(aux)
        for key, values in aux.items():
            np.testing.assert_array_equal(result.aux[key], values[0])


def assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dot", ["vecdot", "einsum"])
@pytest.mark.parametrize("target_name", list(TARGETS))
@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
def test_a_row_is_a_one_row_tile(est_id, target_name, dot, monkeypatch):
    # the fit and estimate() run 1-D (S,) noise, the benchmark (R, S) tiles:
    # the same noise as an (S,) row, as a row of a block's Noise (whose kept
    # moments it indexes) and as a (1, S) tile gives the same estimate and
    # aux, bit for bit, at every budget from the estimator's floor; "einsum"
    # runs the np.vecdot-less path of numpy < 2.0
    if dot == "einsum":
        monkeypatch.setattr(gradcv.estimators, "_dot", gradcv.estimators._einsum_dot)
    q, t = GaussianQ(0.5, 1.5), TARGETS[target_name]
    sizes = set()
    for split in (0.3, 0.5):
        for samples in (*range(1, 9), SAMPLES):
            try:
                config = EstimatorConfig(total_samples=samples, cv_split=split, estimator_id=est_id)
            except ValueError:
                continue
            sizes.add(config.batch_sizes())
            n_coef = config.batch_sizes()[0]
            # a seed key takes ints, not floats: each split draws its own noise
            block = rng_from_seed(("row", target_name, round(10 * split), samples)).standard_normal((3, samples))
            ref, ref_aux = run_kernel(est_id, q, t, Draws(q, t, block[1:2]), n_coef, with_aux=True)
            for noise in (block[1], Noise(block).rows(1)):
                row = Draws(q, t, noise)
                assert len(row) == 1
                assert_same_bits(run_kernel(est_id, q, t, Draws(q, t, noise), n_coef), ref[0])
                value, aux = run_kernel(est_id, q, t, row, n_coef, with_aux=True)
                assert_same_bits(value, ref[0])
                assert set(aux) == set(ref_aux)
                for key in aux:
                    assert_same_bits(aux[key], ref_aux[key][0])
                # the row's moments are numpy scalars, not 1-element arrays
                with np.errstate(invalid="ignore"):  # a 1-draw Gram is 0/0
                    assert all(type(m) is np.float64 for m in row.u_moments)
    floor = ESTIMATORS[est_id].min_draws
    assert ((floor, floor) if ESTIMATORS[est_id].split_budget else (floor,)) in sizes


@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
def test_aux_only_on_request(est_id, monkeypatch):
    # the derived coefficients (alpha, g_nat, coef) and their L^-T maps are
    # computed only with with_aux=True; the estimates do not depend on it,
    # bit for bit, on a tile and on an (S,) row
    calls = []

    def spy(*args):
        calls.append(args)
        return solve_lt(*args)

    solve_lt = gradcv.estimators._solve_lt
    monkeypatch.setattr(gradcv.estimators, "_solve_lt", spy)
    q, t = GaussianQ(0.5, 1.5), TARGETS["logistic"]
    eps = noise(4, ("aux-on-request", est_id))
    n_coef = n_coef_of(est_id)
    for rows in (eps, eps[2]):
        value = run_kernel(est_id, q, t, Draws(q, t, rows), n_coef)
        assert not calls
        with_aux, aux = run_kernel(est_id, q, t, Draws(q, t, rows), n_coef, with_aux=True)
        assert_same_bits(value, with_aux)
        derived = set(aux) - {"singular_fallback", "zero_variance"}
        assert bool(calls) == bool(derived & {"alpha", "g_nat"})
        calls.clear()


class TestZeroVarianceOffChunk:
    REPS = 4099  # one full 4096 chunk and a remainder of 3

    @pytest.mark.parametrize("est_id", ZERO_VARIANCE_IDS)
    def test_every_row_is_exact(self, est_id):
        q, t = GaussianQ(-0.5, 1.5), gaussian_target(1.0, 3.0)
        exact = q.exact_suffstat_cov() @ (q.eta - t.eta_tilde)
        d = Draws(q, t, noise(self.REPS, ("zero-variance", est_id)))
        est = run_kernel(est_id, q, t, d, n_coef_of(est_id))
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


# coefficient-batch sizes at the edges of the split, and in its middle
N_COEF_EDGES = (2, SAMPLES // 2, SAMPLES - 2)


def assert_same_run(got, ref):
    (value, aux), (ref_value, ref_aux) = got, ref
    np.testing.assert_array_equal(value, ref_value)
    assert set(aux) == set(ref_aux)
    for key in aux:
        np.testing.assert_array_equal(aux[key], ref_aux[key])


class TestSharedDraws:
    """Kernels sharing one Draws read its cached ingredients and moments.

    Sharing must not change any value: every kernel gives, bit for bit,
    what it gives on a fresh Draws, whatever ran on the Draws before it,
    also when coefficient batches of different sizes share the Draws.
    """

    @pytest.mark.parametrize("target_name", list(TARGETS))
    def test_shared_equals_fresh_in_any_order(self, target_name):
        q, t = GaussianQ(0.5, 1.5), TARGETS[target_name]
        eps = noise(7, ("cache", target_name))
        runs = [(est_id, n_coef) for n_coef in N_COEF_EDGES for est_id in ESTIMATOR_IDS]
        fresh = {
            (est_id, n_coef): run_kernel(est_id, q, t, Draws(q, t, eps), n_coef, with_aux=True)
            for est_id, n_coef in runs
        }
        for order in (runs, runs[::-1]):
            shared = Draws(q, t, eps)
            for est_id, n_coef in order:
                got = run_kernel(est_id, q, t, shared, n_coef, with_aux=True)
                assert_same_run(got, fresh[est_id, n_coef])
            # no kernel wrote into a shared array: the cached ingredients are
            # what a fresh Draws computes
            ref = Draws(q, t, eps)
            for name in ("x", "u1", "log_p", "f", "resid"):
                assert_same_bits(getattr(shared, name), getattr(ref, name))

    def test_x_is_q_reparameterize_of_the_noise(self):
        # x is formed once per Draws, from its q and noise, on first read;
        # it is what q.reparameterize gives, bit for bit, on a root (read
        # before or after its column views), on its column views and on a
        # Draws over a row view of a Noise
        q, t = GaussianQ(0.5, 1.5), logistic_target()
        eps = noise(4, "x")
        root = Draws(q, t, eps)
        np.testing.assert_array_equal(root.x, q.reparameterize(eps))
        views_first = Draws(q, t, eps)
        for lo, hi in ((0, 20), (20, None), (0, None)):
            np.testing.assert_array_equal(views_first.columns(lo, hi).x, q.reparameterize(eps[:, lo:hi]))
            np.testing.assert_array_equal(root.columns(lo, hi).x, q.reparameterize(eps[:, lo:hi]))
        np.testing.assert_array_equal(views_first.x, q.reparameterize(eps))
        rows = Draws(q, t, Noise(eps).rows(slice(1, 3)))
        np.testing.assert_array_equal(rows.columns(5).x, q.reparameterize(eps[1:3, 5:]))
        assert len(rows) == 2
        row = Draws(q, t, Noise(eps).rows(2))
        np.testing.assert_array_equal(row.columns(5).x, q.reparameterize(eps[2, 5:]))
        assert len(row) == 1

    def test_draws_of_another_q_or_target_rejected(self):
        q, t = GaussianQ(0.5, 1.5), logistic_target()
        d = Draws(q, t, noise(3, "another"))
        with pytest.raises(ValueError, match="draws of GaussianQ"):
            run_kernel("simple", GaussianQ(0.5, 1.6), t, d, 0)
        with pytest.raises(ValueError, match="draws of target 'logistic'"):
            run_kernel("simple", q, gaussian_target(1.0, 3.0), d, 0)


@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
def test_nonfinite_row_is_estimation_error_without_warnings(est_id):
    # one overflowing row of three fails the whole call, and the message
    # names that row's estimate, the estimator and q
    q, t = GaussianQ(0.0, 1.0), TARGETS["logistic"]
    eps = noise(3, "overflow")
    eps[1] *= 1e200
    message = rf"^non-finite gradient estimate \[.*\] of {re.escape(repr(est_id))} at {re.escape(str(q))}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(run_kernel(est_id, q, t, Draws(q, t, eps[::2]), n_coef_of(est_id))).all()
        with pytest.raises(EstimationError, match=message):
            run_kernel(est_id, q, t, Draws(q, t, eps), n_coef_of(est_id))


def test_draws_are_freed_without_the_cycle_collector():
    # a tile's Draws and the ingredients it caches go when the last reference
    # does: a reference cycle would hold every tile of a benchmark run until
    # the cycle collector ran, and raise its peak memory. Checked for a Draws
    # its column views have read from, and for one every kernel has filled.
    q, t = GaussianQ(0.0, 1.0), logistic_target()
    eps = np.linspace(-1.0, 1.0, 8).reshape(2, 4)
    for fill in (False, True):
        d = Draws(q, t, eps.copy())
        d.columns(0, 2).log_p, d.columns(2).resid
        cached = [weakref.ref(d.columns(2).log_p.base), weakref.ref(d.columns(2).resid.base)]
        if fill:
            for est_id in ESTIMATOR_IDS:
                run_kernel(est_id, q, t, d, 2)
            arrays = (d.x, d.f, d.u1, d.columns(2).cov_uf[0], d.columns(2).u_moments[2], d.path_uf[1], d.cov_uf[0])
            cached += [weakref.ref(a) for a in arrays]
            del arrays
        gc.disable()
        try:
            del d
            assert all(ref() is None for ref in cached), fill
        finally:
            gc.enable()


# The most a kernel call may allocate beyond what it keeps (its estimates and
# what its Draws caches), in (512, 25) float64 arrays: one half of a paired
# tile at S = 50. A kernel reuses its own arrays in place and releases them
# before its next stage, so its temporaries stay a few tile halves.
TRANSIENT_HALVES = 7


@pytest.mark.parametrize("paired", [True, False], ids=["paired", "unpaired"])
def test_kernel_temporaries_stay_a_few_tile_halves(paired):
    # paired, the ten kernels run in registry order on one shared Draws, as a
    # paired tile runs them; unpaired, each on a Draws of its own
    q, t = GaussianQ(2.0, 2.0), logistic_target()
    eps = noise(512, "transient")
    half = eps.nbytes / 2
    for est_id in ESTIMATOR_IDS:  # one-time allocations (lazy imports, caches) are not a call's
        run_kernel(est_id, q, t, Draws(q, t, eps), n_coef_of(est_id))
    shared, transient = Draws(q, t, eps), {}
    tracemalloc.start()
    try:
        for est_id in ESTIMATOR_IDS:
            d = shared if paired else Draws(q, t, eps)
            tracemalloc.reset_peak()
            value = run_kernel(est_id, q, t, d, n_coef_of(est_id))
            held, peak = tracemalloc.get_traced_memory()
            transient[est_id] = (peak - held) / half
            del d, value
    finally:
        tracemalloc.stop()
    worst = max(transient, key=transient.get)
    assert transient[worst] <= TRANSIENT_HALVES, (worst, transient)


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    mu=st.floats(-4.0, 4.0),
    sigma2=st.floats(0.25, 4.0),
    target_mu=st.floats(-4.0, 4.0),
    target_sigma2=st.floats(0.25, 4.0),
    samples=st.integers(6, 64),
    split=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_gaussian_target_zero_variance_property(shared, mu, sigma2, target_mu, target_sigma2, samples, split, seed):
    # every row of a zero-variance estimator is the exact gradient, to 1e-10
    # of its scale, with 3 or more draws in each batch (the fewest that make
    # the coefficient systems non-singular) and whether or not the four
    # estimators share one Draws
    n_coef = int(round(samples * split))
    assume(3 <= n_coef <= samples - 3)
    q, t = GaussianQ(mu, sigma2), gaussian_target(target_mu, target_sigma2)
    exact = q.exact_suffstat_cov() @ (q.eta - t.eta_tilde)
    scale = max(np.abs(exact).max(), 1.0)
    eps = rng_from_seed(("zero-variance-property", seed)).standard_normal((4, samples))
    d = Draws(q, t, eps)
    for est_id in ZERO_VARIANCE_IDS:
        est = run_kernel(est_id, q, t, d if shared else Draws(q, t, eps), n_coef)
        assert np.abs(est - exact).max() / scale < 1e-10, est_id


def moment_form_gradient(mu, sigma2, target_mu, target_sigma2):
    """The exact KL gradient for a Gaussian target, in moment form.

    With g = (mu - m) / s it is (sigma2 g, 2 mu sigma2 g + sigma2 (sigma2 / s - 1));
    C (eta - eta_tilde) is the same value, but cancels at small sigma2.
    """
    g = (mu - target_mu) / target_sigma2
    return np.array([sigma2 * g, 2.0 * mu * sigma2 * g + sigma2 * (sigma2 / target_sigma2 - 1.0)])


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    mu=st.floats(-1e3, 1e3),
    log10_sigma2=st.floats(-8.0, 2.0),
    target_mu=st.floats(-4.0, 4.0),
    target_sigma2=st.floats(0.25, 4.0),
    samples=st.integers(6, 64),
    split=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_gaussian_target_exactness_far_from_the_origin(mu, log10_sigma2, target_mu, target_sigma2, samples, split,
                                                       seed):
    # the zero-variance estimators stay exact where mu^2 >> sigma2, to 1e-7 of
    # max(|exact|, 1): their 2x2 systems are posed on the standardized score,
    # whose covariance is diag(1, 2) wherever q is
    sigma2 = 10.0 ** log10_sigma2
    n_coef = int(round(samples * split))
    assume(3 <= n_coef <= samples - 3)
    q, t = GaussianQ(mu, sigma2), gaussian_target(target_mu, target_sigma2)
    exact = moment_form_gradient(mu, sigma2, target_mu, target_sigma2)
    scale = max(np.abs(exact).max(), 1.0)
    eps = rng_from_seed(("far-exactness-property", seed)).standard_normal((4, samples))
    d = Draws(q, t, eps)
    for est_id in ZERO_VARIANCE_IDS:
        est = run_kernel(est_id, q, t, d, n_coef)
        assert np.abs(est - exact).max() / scale < 1e-7, est_id


@pytest.mark.parametrize("target_mu, target_sigma2", [(0.0, 0.25), (0.0, 4.0), (3.0, 0.25), (3.0, 4.0)])
@pytest.mark.parametrize("mu", [40.0, -40.0, 1e4, -1e4, 9e4, -9e4, 5e5])
def test_gaussian_target_exactness_in_the_tails(mu, target_mu, target_sigma2):
    # the zero-variance estimators stay exact, to 1e-7 of max(|exact|, 1),
    # where the target's mass lies far out in q's tail: |mu| / sigma from 4
    # to 5e9, beyond the property's |mu| <= 1e3
    t = gaussian_target(target_mu, target_sigma2)
    eps = noise(4, ("gaussian-tail-exactness", int(mu)))
    for sigma2 in (1e-8, 1e-4, 1.0, 1e2):
        q = GaussianQ(mu, sigma2)
        exact = moment_form_gradient(mu, sigma2, target_mu, target_sigma2)
        scale = max(np.abs(exact).max(), 1.0)
        d = Draws(q, t, eps)
        for est_id in ZERO_VARIANCE_IDS:
            est = run_kernel(est_id, q, t, d, SAMPLES // 2)
            assert np.abs(est - exact).max() / scale < 1e-7, (est_id, sigma2)


@pytest.mark.parametrize("mu, sigma2", [(20.0, 1e-6), (50.0, 1e-8), (-50.0, 1e-8), (1000.0, 1.0)])
@pytest.mark.parametrize("est_id", ["cv-regression", "greg-samplecov", "cv-ideal", "cv-ideal-grad", "greg-pathgrad"])
def test_no_solver_fallback_far_from_the_origin(est_id, mu, sigma2):
    # where mu^2 >> sigma2 the eta-basis score covariance and its path
    # estimate are numerically singular; the systems on the standardized
    # score are not, so no row of 4096 logistic rows of 50 draws falls back
    # to the pseudo-inverse
    q = GaussianQ(mu, sigma2)
    t = logistic_target()
    d = Draws(q, t, noise(4096, ("far", int(mu), int(sigma2))))  # a seed key takes ints, not floats
    _, aux = run_kernel(est_id, q, t, d, n_coef_of(est_id), with_aux=True)
    assert not aux["singular_fallback"].any()


def test_cv_ideal_on_two_draw_halves_is_cov_on_the_evaluation_half():
    # two centered draws are +-delta, so cv-ideal's coefficient systems are
    # zero in exact arithmetic: both components flag the fallback and fit
    # zero coefficients, and the estimate is cov on the evaluation half
    q, t = GaussianQ(0.3, 1.0), logistic_target()
    eps = rng_from_seed("two-draw-halves").standard_normal((2000, 4))
    est, aux = run_kernel("cv-ideal", q, t, Draws(q, t, eps), 2, with_aux=True)
    assert aux["singular_fallback"].all()
    np.testing.assert_array_equal(aux["alpha"], 0.0)
    np.testing.assert_array_equal(est, run_kernel("cov", q, t, Draws(q, t, eps[:, 2:]), 0))
    one = estimate(q, t, EstimatorConfig(total_samples=4, estimator_id="cv-ideal"), seed=2995)
    assert np.abs(one.value).max() < 10.0 and one.aux["singular_fallback"].all()


# the perfbench gate's bound on an unbiased cell's mean bias, in standard errors
BIAS_Z = 5.0


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(mu=st.floats(-50.0, 50.0), log10_sigma2=st.floats(-2.0, np.log10(4.0)), seed=st.integers(0, 2**32 - 1))
def test_logistic_tails_finite_and_unbiased(mu, log10_sigma2, seed):
    # in the logistic tails every estimator is finite on 4096 rows of 50
    # draws, and each unbiased one's mean is within BIAS_Z standard errors
    # of the oracle (plus 1e-12 of the gradient's scale for rounding)
    q, t = GaussianQ(mu, 10.0 ** log10_sigma2), logistic_target()
    gt = ground_truth_gradient(q, t)
    scale = max(np.abs(gt).max(), 1.0)
    eps = rng_from_seed(("logistic-tails", seed)).standard_normal((4096, SAMPLES))
    d = Draws(q, t, eps)
    for est_id in ESTIMATOR_IDS:
        est = run_kernel(est_id, q, t, d, SAMPLES // 2)
        assert np.isfinite(est).all(), est_id
        if ESTIMATORS[est_id].unbiased:
            se = est.std(axis=0, ddof=1) / np.sqrt(len(est))
            assert (np.abs(est.mean(axis=0) - gt) <= BIAS_Z * se + 1e-12 * scale).all(), (est_id, est.mean(axis=0), gt, se)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(r=st.floats(-4.0, 4.0), log10_sigma2=st.floats(-8.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_logistic_wide_box_finite_and_unbiased(r, log10_sigma2, seed):
    # the same property over sigma2 in [1e-8, 1e2] with mu = r sigma, |r| <= 4:
    # inside 4 sigma of mu the draws reach the mass the oracle integrates, so
    # the sample SE bounds the bias (further out, see ROADMAP item 5)
    sigma2 = 10.0 ** log10_sigma2
    q, t = GaussianQ(r * math.sqrt(sigma2), sigma2), logistic_target()
    gt = ground_truth_gradient(q, t)
    scale = max(np.abs(gt).max(), 1.0)
    eps = rng_from_seed(("logistic-wide-box", seed)).standard_normal((4096, SAMPLES))
    d = Draws(q, t, eps)
    for est_id in ESTIMATOR_IDS:
        est = run_kernel(est_id, q, t, d, SAMPLES // 2)
        assert np.isfinite(est).all(), est_id
        if ESTIMATORS[est_id].unbiased:
            se = est.std(axis=0, ddof=1) / np.sqrt(len(est))
            assert (np.abs(est.mean(axis=0) - gt) <= BIAS_Z * se + 1e-12 * scale).all(), (est_id, est.mean(axis=0), gt, se)


def oracle_mass_beyond(q, t, reach):
    # the oracle is sum_i w_i (T(x_i) - E_q T) (d_i - E_w d) over the rule's
    # nodes x_i = mu + sigma z_i, with d = log q - log p and T - E_q T =
    # (sigma z, 2 mu sigma z + sigma2 (z^2 - 1)); its mass beyond the draws'
    # reach is the sum of its terms' absolute values over |z_i| > reach
    rule = gauss_hermite_rule()
    z, w = rule.nodes, rule.weights
    x = q.mu + q.sigma * z
    d = q.log_density(x) - t.log_p(x)
    d -= w @ d
    t_centered = np.stack([q.sigma * z, 2.0 * q.mu * q.sigma * z + q.sigma2 * (z * z - 1.0)], axis=-1)
    beyond = np.abs(z) > reach
    return w[beyond] @ np.abs(t_centered[beyond] * d[beyond, None])


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(r=st.floats(4.0, 10.0, exclude_min=True), negative=st.booleans(), log10_sigma2=st.floats(-8.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
@example(r=6.0, negative=False, log10_sigma2=2.0, seed=0)  # mu = 60, sigma2 = 100 (ROADMAP item 5)
def test_logistic_tails_unbiased_up_to_the_oracle_mass_beyond_the_draws(r, negative, log10_sigma2, seed):
    # at 4 < |mu| / sigma <= 10 the oracle's gradient comes partly from x
    # that the draws never reach (at mu = 60, sigma2 = 100 its -1.9e-7 comes
    # from x near 0, 6 sigma below mu), so the sample SE alone bounds no
    # bias there. The bound, per component, for each unbiased estimator:
    #   |mean - oracle| <= BIAS_Z SE + (oracle mass beyond max |eps|) + 1e-12 scale
    # with 4096 rows of 50 draws, the mass taken from the quadrature rule
    sigma2 = 10.0 ** log10_sigma2
    q, t = GaussianQ((-r if negative else r) * math.sqrt(sigma2), sigma2), logistic_target()
    gt = ground_truth_gradient(q, t)
    scale = max(np.abs(gt).max(), 1.0)
    eps = rng_from_seed(("logistic-tail-mass", seed)).standard_normal((4096, SAMPLES))
    mass = oracle_mass_beyond(q, t, np.abs(eps).max())
    d = Draws(q, t, eps)
    for est_id in ESTIMATOR_IDS:
        if ESTIMATORS[est_id].unbiased:
            est = run_kernel(est_id, q, t, d, SAMPLES // 2)
            se = est.std(axis=0, ddof=1) / np.sqrt(len(est))
            bound = BIAS_Z * se + mass + 1e-12 * scale
            assert (np.abs(est.mean(axis=0) - gt) <= bound).all(), (est_id, est.mean(axis=0), gt, se, mass)


# the far-tail box: |mu| / sigma in [4, 9.9e9] (below MAX_MU_OVER_SIGMA, 1e10)
# on either side of the origin, sigma2 in [1e-8, 1e2]
FAR_R = (4.0, 9.9e9)
FAR_LOG10_SIGMA2 = (-8.0, 2.0)


def assert_far_tile_finite(r, sigma2, seed):
    # every estimator's estimate on a 256-row logistic tile is finite, and
    # nothing warns: past |mu| / sigma = 4 the sample SE bounds no bias (the
    # draws almost never reach the mass the oracle integrates), so
    # finiteness is what holds there
    q, t = GaussianQ(r * math.sqrt(sigma2), sigma2), logistic_target()
    d = Draws(q, t, rng_from_seed(("logistic-far-tails", seed)).standard_normal((256, SAMPLES)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for est_id in ESTIMATOR_IDS:
            assert np.isfinite(run_kernel(est_id, q, t, d, SAMPLES // 2)).all(), (est_id, r, sigma2)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("r", [4.0, 5.0, 50.0, 1e3, 1e6, 1e9, 9.9e9])
def test_logistic_far_tails_finite_on_a_grid(r, sign):
    for log10_sigma2 in (-8.0, -2.0, 0.0, 2.0):
        assert_far_tile_finite(sign * r, 10.0 ** log10_sigma2, 0)


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(log10_r=st.floats(*np.log10(FAR_R)), negative=st.booleans(), log10_sigma2=st.floats(*FAR_LOG10_SIGMA2),
       seed=st.integers(0, 2**32 - 1))
def test_logistic_far_tails_finite(log10_r, negative, log10_sigma2, seed):
    r = min(10.0 ** log10_r, FAR_R[1])
    assert_far_tile_finite(-r if negative else r, 10.0 ** log10_sigma2, seed)


@pytest.mark.parametrize("mu", [1e15, 1e20, -1e15])
@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
def test_draws_that_lost_their_noise_are_an_error(est_id, mu):
    # past MAX_MU_OVER_SIGMA, x = mu + sigma * eps has lost eps to rounding:
    # the estimate is an error, not a finite number with wrong digits
    q = GaussianQ(mu, 2.0)
    t = logistic_target()
    with pytest.raises(EstimationError, match=r"^no gradient estimate .* exceeds 1e\+10, where x = mu \+ sigma"):
        run_kernel(est_id, q, t, Draws(q, t, noise(2, "noise-lost")), n_coef_of(est_id))


@pytest.mark.parametrize("est_id", ESTIMATOR_IDS)
def test_mu_over_sigma_of_1e8_is_computed(est_id):
    q, t = GaussianQ(1e8, 1.0), logistic_target()
    assert np.isfinite(run_kernel(est_id, q, t, Draws(q, t, noise(2, "noise-kept")), n_coef_of(est_id))).all()
