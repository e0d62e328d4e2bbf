import dataclasses
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcv.benchmark as bench
from gradcv.benchmark import (
    MSE_WEIGHTS,
    BenchmarkSpec,
    MseRow,
    MseTable,
    _reduce_cell,
    bias_decomposition,
    chunk_stream_key,
    format_mse_table,
    mse_table_to_csv,
    mse_table_to_json,
    run_benchmark,
)
from gradcv.estimators import ESTIMATOR_IDS, ESTIMATORS, Draws, EstimationError, EstimatorConfig, run_kernel
from gradcv.gaussian import GaussianQ, rng_from_seed
from gradcv.targets import Target, resolve_target


def small_spec(**overrides):
    base = dict(
        settings=((0.0, 2.0), (-2.0, 2.0)),
        estimators=("simple", "cov", "greg-samplecov"),
        replications=400,
        samples=20,
        base_seed=7,
    )
    base.update(overrides)
    return BenchmarkSpec(**base)


def tables_equal(a, b):
    if len(a.rows) != len(b.rows):
        return False
    for ra, rb in zip(a.rows, b.rows):
        if ra.estimator != rb.estimator or ra.note != rb.note:
            return False
        for field in ("mse", "mse_stderr"):
            va, vb = getattr(ra, field), getattr(rb, field)
            if not (va == vb or (np.isnan(va) and np.isnan(vb))):
                return False
        for field in ("mean_bias", "ground_truth", "mean_se", "mse_components"):
            va, vb = getattr(ra, field), getattr(rb, field)
            if not np.array_equal(va, vb, equal_nan=True):
                return False
    return True


class TestSpecValidation:
    def test_defaults_are_the_standard_configuration(self):
        spec = BenchmarkSpec()
        assert spec.settings == ((0.0, 2.0), (-2.0, 2.0), (2.0, 2.0), (0.0, 4.0))
        assert spec.estimators == ESTIMATOR_IDS
        assert spec.replications == 100_000
        assert spec.samples == 50
        assert spec.cv_split == 0.5
        assert spec.target == "logistic"

    @pytest.mark.parametrize("threads", [0, -3, 2.5, True, "2"])
    def test_threads_must_be_an_int_of_at_least_one(self, threads):
        with pytest.raises(ValueError, match="threads must be an int >= 1"):
            run_benchmark(small_spec(), threads=threads)

    @pytest.mark.parametrize("replications", [2.5, True, 0])
    def test_replications_must_be_an_int_of_at_least_one(self, replications):
        # a count that is not an int is rejected here, before run_benchmark hands it to numpy
        with pytest.raises(ValueError, match=f"^replications must be an int >= 1, got {replications!r}$"):
            BenchmarkSpec(replications=replications)

    @pytest.mark.parametrize("base_seed", [1.5, None, True, (1, 2)], ids=repr)
    def test_base_seed_is_checked_at_construction(self, base_seed):
        # base_seed heads every stream key: 1.5 would have drawn the streams of 1
        message = f"^{re.escape(f'base_seed must be an int (not a bool) or a str label, got {base_seed!r}')}$"
        with pytest.raises(ValueError, match=message):
            BenchmarkSpec(base_seed=base_seed)

    def test_threads_may_be_a_numpy_int(self):
        spec = small_spec(estimators=("simple",), settings=((0.0, 2.0),))
        assert tables_equal(run_benchmark(spec, threads=np.int64(2)), run_benchmark(spec))

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(replications=0)
        with pytest.raises(ValueError):
            BenchmarkSpec(settings=())
        with pytest.raises(ValueError):
            BenchmarkSpec(estimators=("simple", "bogus"))
        with pytest.raises(ValueError):
            BenchmarkSpec(samples=3, estimators=("cv-ideal",))
        with pytest.raises(ValueError):
            BenchmarkSpec(target="weird")

    @pytest.mark.parametrize("field, value, message", [
        ("estimators", (), "estimators must be non-empty"),
        ("estimators", ("simple", "cov", "simple"), "estimators must not repeat, got 'simple' twice"),
        ("settings", ((0.0, 2.0), (1.0, 2.0), (0, 2)), r"settings must not repeat, got \(0.0, 2.0\) twice"),
        ("settings", ((-0.0, 2.0), (0.0, 2.0)), "settings must not repeat"),
    ])
    def test_rejects_empty_or_repeated_lists(self, field, value, message):
        # a table has one row per estimator and setting: an empty estimator
        # list would be a table without rows, and a repeated entry two cells
        # under one (estimator, setting) name that the text table shows as one
        with pytest.raises(ValueError, match=f"^{message}"):
            BenchmarkSpec(**{field: value})

    @pytest.mark.parametrize("bad", [(np.nan, 2.0), (np.inf, 2.0), (0.0, np.inf), (0.0, 0.0), (0.0, -1.0)])
    def test_rejects_bad_setting_at_construction(self, bad):
        # a bad setting after good ones fails before any cell could run
        with pytest.raises(ValueError, match="mu|sigma2"):
            BenchmarkSpec(settings=((0.0, 2.0), bad))

    def test_rejects_budget_below_an_estimators_minimum(self):
        with pytest.raises(ValueError, match="greg-samplecov"):
            BenchmarkSpec(samples=2, estimators=("simple", "greg-samplecov"))
        BenchmarkSpec(samples=2, estimators=("simple", "cov"))


class TestDeterminism:
    def test_bit_identical_across_runs(self):
        spec = small_spec()
        assert tables_equal(run_benchmark(spec), run_benchmark(spec))

    def test_bit_identical_across_thread_counts(self):
        spec = small_spec(replications=10_000)
        assert tables_equal(run_benchmark(spec, threads=1), run_benchmark(spec, threads=4))

    def test_csv_bytes_identical(self):
        spec = small_spec()
        a = mse_table_to_csv(run_benchmark(spec))
        b = mse_table_to_csv(run_benchmark(spec, threads=3))
        assert a == b

    def test_stream_keys_unique_per_cell(self):
        keys = set()
        for setting_idx in range(4):
            for est_idx in range(10):
                for chunk in range(3):
                    keys.add(chunk_stream_key(0, setting_idx, est_idx, chunk, paired=False))
        assert len(keys) == 4 * 10 * 3

    def test_paired_mode_shares_draws_across_estimators(self):
        assert chunk_stream_key(0, 1, 0, 2, paired=True) == chunk_stream_key(0, 1, 9, 2, paired=True)
        # estimator order cannot matter when draws are shared
        a = run_benchmark(small_spec(paired=True))
        b = run_benchmark(small_spec(paired=True, estimators=("greg-samplecov", "cov", "simple")))
        row_a = next(r for r in a.rows if r.estimator == "cov" and r.mu == 0.0)
        row_b = next(r for r in b.rows if r.estimator == "cov" and r.mu == 0.0)
        assert row_a.mse == row_b.mse


class TestRows:
    def test_mse_fields_consistent(self):
        table = run_benchmark(small_spec())
        for row in table.rows:
            assert row.ok
            assert row.replications == 400
            assert row.mse >= 0.0
            # exact decomposition: mse is weighted squared bias plus variance
            sq_bias = float((MSE_WEIGHTS * row.mean_bias ** 2).sum())
            assert row.mse >= sq_bias - 3.0 * row.mse_stderr

    def test_single_replication_has_zero_stderr(self):
        # with one replication the mse is that single weighted squared error
        from gradcv.estimators import Draws, run_kernel
        from gradcv.gaussian import GaussianQ, rng_from_seed
        from gradcv.quadrature import ground_truth_gradient
        from gradcv.targets import logistic_target

        spec = small_spec(replications=1, estimators=("simple",))
        table = run_benchmark(spec)
        row = table.rows[0]
        assert row.mse_stderr == 0.0
        q = GaussianQ(row.mu, row.sigma2)
        eps = rng_from_seed(chunk_stream_key(spec.base_seed, 0, 0, 0, False)).standard_normal((1, spec.samples))
        t = logistic_target()
        est = run_kernel("simple", q, t, Draws(q, t, eps), 0)[0]
        err = est - ground_truth_gradient(q, logistic_target())
        assert row.mse == float((MSE_WEIGHTS * err * err).sum())

    def test_gaussian_target_zero_variance_row(self):
        spec = small_spec(
            target="gaussian:1:3",
            estimators=("cv-regression", "greg-samplecov"),
            settings=((0.0, 2.0),),
            samples=50,
        )
        for row in run_benchmark(spec).rows:
            assert row.mse <= 1e-12

    def test_capability_gap_yields_na_cell(self, monkeypatch):
        import gradcv.benchmark as bench
        from gradcv.targets import Target, resolve_target

        def resolve_with_blackbox(name):
            if name == "blackbox":
                return Target(name="blackbox", log_p=resolve_target("logistic").log_p)
            return resolve_target(name)

        monkeypatch.setattr(bench, "resolve_target", resolve_with_blackbox)
        spec = small_spec(estimators=("simple", "kingma-reparam", "delta-method"), target="blackbox")
        table = run_benchmark(spec)
        by_est = {}
        for r in table.rows:
            by_est.setdefault(r.estimator, []).append(r)
        assert all(r.ok for r in by_est["simple"])
        assert all(not r.ok and "n/a" in r.note for r in by_est["kingma-reparam"])
        assert all(not r.ok for r in by_est["delta-method"])
        assert all(np.isnan(r.mse) for r in by_est["delta-method"])


def reference_estimates(spec, setting_idx, estimator_idx):
    """One cell's per-replication estimates: run_kernel on each whole chunk of 4096, untiled."""
    q = GaussianQ(*spec.settings[setting_idx])
    target = resolve_target(spec.target)
    n_coef = EstimatorConfig(total_samples=spec.samples, cv_split=spec.cv_split).split_sizes()[0]
    parts = []
    for chunk_idx, lo in enumerate(range(0, spec.replications, 4096)):
        key = chunk_stream_key(spec.base_seed, setting_idx, estimator_idx, chunk_idx, spec.paired)
        eps = rng_from_seed(key).standard_normal((min(4096, spec.replications - lo), spec.samples))
        parts.append(run_kernel(spec.estimators[estimator_idx], q, target, Draws(q, target, eps), n_coef))
    return np.concatenate(parts)


def blackbox_spec(monkeypatch, **overrides):
    """small_spec on the logistic log p without derivatives, target "blackbox"."""
    import gradcv.benchmark as bench

    def resolve_with_blackbox(name):
        if name == "blackbox":
            return Target(name="blackbox", log_p=resolve_target("logistic").log_p)
        return resolve_target(name)

    monkeypatch.setattr(bench, "resolve_target", resolve_with_blackbox)
    return small_spec(target="blackbox", **overrides)


def chunk_estimates_of_a_run(spec, threads):
    """run_benchmark(spec, threads) and every chunk task's estimates, {(setting, chunk): (cells, 2, rows)}."""
    seen = {}
    chunk_estimates = bench._chunk_estimates

    def record(spec, q, target, setting_idx, chunk_idx, runnable):
        est = chunk_estimates(spec, q, target, setting_idx, chunk_idx, runnable)
        seen[setting_idx, chunk_idx] = est.copy()
        return est

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "_chunk_estimates", record)
        table = run_benchmark(spec, threads)
    return table, seen


def assert_chunks_are_the_reference(spec, seen, setting_idx):
    # a cell's chunks, in chunk order, are its untiled, unshared estimates
    n_chunks = -(-spec.replications // 4096)
    got = np.concatenate([seen[setting_idx, c] for c in range(n_chunks)], axis=-1)
    expected = np.stack([reference_estimates(spec, setting_idx, i) for i in range(len(spec.estimators))])
    expected = np.ascontiguousarray(expected.transpose(0, 2, 1))
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestTilesAndSharing:
    """Row tiles and paired sharing leave every estimate as an untiled, unshared run gives it."""

    @pytest.mark.parametrize("paired", [False, True], ids=["unpaired", "paired"])
    @pytest.mark.parametrize("reps", [1, 1500, 5000])
    def test_estimates_equal_run_kernel_on_whole_chunks(self, reps, paired):
        # reps not a multiple of the chunk or of the tile, and one chunk with
        # a partial second in the 5000 case; every thread count runs the same
        # chunk tasks to the same bits
        spec = BenchmarkSpec(settings=((0.0, 2.0), (-1.0, 1.5)), estimators=ESTIMATOR_IDS,
                             replications=reps, samples=12, base_seed=11, paired=paired)
        for threads in (1, 2, 3):
            _, seen = chunk_estimates_of_a_run(spec, threads)
            assert len(seen) == 2 * -(-reps // 4096)
            for setting_idx in range(2):
                assert_chunks_are_the_reference(spec, seen, setting_idx)

    @settings(derandomize=True, deadline=None, database=None, max_examples=12)
    @given(
        mu=st.floats(-3.0, 3.0),
        sigma2=st.floats(0.1, 5.0),
        reps=st.integers(1, 5000),
        samples=st.integers(6, 20),
        split=st.floats(0.3, 0.7),
        seed=st.integers(0, 2**32 - 1),
        threads=st.integers(1, 3),
        paired=st.booleans(),
    )
    def test_any_spec_equals_run_kernel_on_whole_chunks(self, mu, sigma2, reps, samples, split, seed, threads, paired):
        spec = BenchmarkSpec(settings=((mu, sigma2),), estimators=ESTIMATOR_IDS, replications=reps,
                             samples=samples, cv_split=split, base_seed=seed, paired=paired)
        _, seen = chunk_estimates_of_a_run(spec, threads)
        assert_chunks_are_the_reference(spec, seen, 0)

    def test_table_reduces_the_reference_estimates(self):
        spec = small_spec(estimators=ESTIMATOR_IDS, replications=5000, samples=12, paired=True)
        table = run_benchmark(spec, threads=2)
        for row in table.rows:
            setting_idx = spec.settings.index((row.mu, row.sigma2))
            est = reference_estimates(spec, setting_idx, spec.estimators.index(row.estimator))
            ref = _reduce_cell(row.estimator, row.mu, row.sigma2, est, row.ground_truth)
            assert tables_equal(MseTable(spec, (row,)), MseTable(spec, (ref,)))

    def test_paired_target_without_grad_gives_na_rows_and_unchanged_others(self, monkeypatch):
        spec = blackbox_spec(monkeypatch, estimators=ESTIMATOR_IDS, paired=True)
        table = run_benchmark(spec)
        path_ids = {e for e in ESTIMATOR_IDS if ESTIMATORS[e].needs_grad}
        assert path_ids == {"cv-ideal-grad", "delta-method", "kingma-reparam", "greg-pathgrad"}
        na = [r for r in table.rows if r.estimator in path_ids]
        assert len(na) == 2 * len(path_ids)
        assert all(r.note.startswith("n/a: ") and "requires target.grad_x" in r.note for r in na)
        others = tuple(e for e in ESTIMATOR_IDS if e not in path_ids)
        alone = run_benchmark(blackbox_spec(monkeypatch, estimators=others, paired=True))
        assert tables_equal(MseTable(spec, tuple(r for r in table.rows if r.ok)), alone)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("paired", [False, True], ids=["unpaired", "paired"])
def test_memory_does_not_grow_with_the_replications(paired, threads):
    # Two settings, so a 1-chunk run already keeps both threads busy: a run
    # holds at most threads chunk tasks' estimates and temporaries at a
    # time, whatever the chunk count, and 8 chunks may peak at most a
    # quarter above 1. Keeping every estimate, (estimators, R, 2) per
    # setting, adds 7/8 of the 8-chunk buffer and its reduction temporaries.
    def spec(chunks):
        return BenchmarkSpec(settings=((0.0, 2.0), (-1.0, 1.5)), estimators=("simple", "cv-regression"),
                             replications=chunks * 4096, samples=12, base_seed=5, paired=paired)

    def peak(chunks):
        tracemalloc.start()
        try:
            run_benchmark(spec(chunks), threads)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_benchmark(spec(1), threads)  # one-time allocations (imports, caches) are not a chunk's
    one, eight = peak(1), peak(8)
    assert eight <= 1.25 * one, (one, eight)


class TestNonFinite:
    # at sigma2 = 1e150 the draws reach 1e75: every estimate stays finite, as
    # no kernel squares x, but the squared errors of simple's estimates
    # (~1e223), the first cell, are not
    SIMPLE_CELL = r"non-finite cell statistics of 'simple' at mu=0, sigma2=1e\+150: mse=inf, mse_stderr=nan"

    @pytest.mark.parametrize("estimators,paired,threads,match", [
        (ESTIMATOR_IDS, False, 1, SIMPLE_CELL),
        (ESTIMATOR_IDS, False, 2, SIMPLE_CELL),
        (ESTIMATOR_IDS, True, 1, SIMPLE_CELL),
        (("simple",), False, 1, SIMPLE_CELL),
    ], ids=["unpaired", "unpaired-2-threads", "paired", "simple-cell"])
    def test_overflow_is_estimation_error_without_warnings(self, estimators, paired, threads, match):
        spec = BenchmarkSpec(settings=((0.0, 1e150),), estimators=estimators, replications=10, paired=paired)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match=match):
                run_benchmark(spec, threads=threads)

    def test_a_failed_cell_cancels_the_later_settings_tasks(self):
        # the first setting's simple cell overflows once its 4 chunks merge;
        # the second setting's 4 tasks each take 50 ms, so by then at most
        # the two running ones have started, and the rest never do
        spec = BenchmarkSpec(settings=((0.0, 1e150), (0.0, 2.0)), estimators=("simple",),
                             replications=4 * 4096, samples=4)
        chunk_estimates, started = bench._chunk_estimates, []

        def slow_second_setting(spec, q, target, setting_idx, chunk_idx, runnable):
            if setting_idx == 1:
                started.append(chunk_idx)
                time.sleep(0.05)
            return chunk_estimates(spec, q, target, setting_idx, chunk_idx, runnable)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "_chunk_estimates", slow_second_setting)
            with pytest.raises(EstimationError, match=self.SIMPLE_CELL):
                run_benchmark(spec, threads=2)
        assert len(started) < 4, started

    def test_cell_statistics_formulas(self):
        est = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]])
        gt = np.array([1.5, 0.5])
        row = _reduce_cell("simple", 0.0, 2.0, est, gt)
        err = est - gt
        weighted = (MSE_WEIGHTS * err * err).sum(axis=1)
        assert row.mse == weighted.mean()
        assert row.mse_stderr == weighted.std(ddof=1) / np.sqrt(3)
        np.testing.assert_array_equal(row.mean_bias, est.mean(axis=0) - gt)
        np.testing.assert_array_equal(row.mean_se, est.std(axis=0, ddof=1) / np.sqrt(3))
        np.testing.assert_array_equal(row.mse_components, (err * err).mean(axis=0))
        assert row.ok and row.replications == 3

    def test_cell_statistics_accurate_at_a_large_offset(self):
        # An (8192, 2) cell whose estimates share an offset of 100: two
        # chunks. mse is the per-row formula's mean bit for bit (numpy splits
        # a sum of 8192 at 4096); mse_stderr, merged from the chunks' squared
        # deviations, and the column means and SEs are within 1e-13 of
        # exactly rounded sums (a sequential axis-0 mean of these columns
        # misses the bias by 1.8e-13).
        n = 8192
        est = 100.0 + np.random.default_rng(0).standard_normal((n, 2)) * [1.0, 0.5]
        gt = np.array([100.01, 99.98])
        row = _reduce_cell("simple", 0.0, 2.0, est, gt)
        err = est - gt
        weighted = (MSE_WEIGHTS * err * err).sum(axis=1)
        assert row.mse == weighted.mean()
        w_mean = math.fsum(weighted) / n
        w_se = math.sqrt(math.fsum((w - w_mean) ** 2 for w in weighted) / (n - 1) / n)
        np.testing.assert_allclose(row.mse_stderr, w_se, rtol=1e-13, atol=0.0)
        mean = [math.fsum(est[:, k]) / n for k in range(2)]
        se = [math.sqrt(math.fsum((x - mean[k]) ** 2 for x in est[:, k]) / (n - 1) / n) for k in range(2)]
        components = [math.fsum(e * e for e in err[:, k]) / n for k in range(2)]
        np.testing.assert_allclose(row.mean_bias, np.array(mean) - gt, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(row.mean_se, se, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(row.mse_components, components, rtol=1e-13, atol=0.0)


class TestBiasDecomposition:
    def test_unbiased_rows_have_small_squared_bias(self):
        table = run_benchmark(small_spec(replications=20_000, estimators=("cov",)))
        for row, (sq_bias, variance) in zip(table.rows, bias_decomposition(table.rows)):
            se_bound = float((MSE_WEIGHTS * (4.0 * row.mean_se) ** 2).sum())
            assert sq_bias <= se_bound
            assert variance >= 0.0
            assert sq_bias + variance == pytest.approx(row.mse, rel=1e-12)

    def test_zero_variance_rows_decompose_to_zero(self):
        spec = small_spec(target="gaussian:0:1", estimators=("cv-regression",), samples=50)
        table = run_benchmark(spec)
        for sq_bias, variance in bias_decomposition(table.rows):
            assert sq_bias <= 1e-20
            assert variance <= 1e-20


class TestOutputFormats:
    def test_csv_schema(self):
        table = run_benchmark(small_spec(estimators=("simple",), settings=((0.0, 2.0),)))
        text = mse_table_to_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == "estimator,mu,sigma2,mse,mse_stderr,bias1,bias2,gt1,gt2,replications"
        fields = lines[1].split(",")
        assert fields[0] == "simple"
        assert float(fields[1]) == 0.0 and float(fields[2]) == 2.0
        assert int(fields[9]) == 400
        assert len(fields) == 10

    def test_csv_per_component_columns(self):
        table = run_benchmark(small_spec(estimators=("simple",), settings=((0.0, 2.0),)))
        text = mse_table_to_csv(table, per_component=True)
        header = text.strip().split("\n")[0]
        assert header.endswith("mse_eta1,mse_eta2")

    def test_json_mirrors_field_names(self):
        import json

        table = run_benchmark(small_spec(estimators=("simple",), settings=((0.0, 2.0),)))
        payload = json.loads(mse_table_to_json(table))
        row = payload["rows"][0]
        for key in ("estimator", "mu", "sigma2", "mse", "mse_stderr", "mean_bias",
                    "ground_truth", "replications"):
            assert key in row
        assert payload["spec"]["samples"] == 20
        assert list(payload["spec"]) == [f.name for f in dataclasses.fields(BenchmarkSpec)]

    def test_json_of_numpy_int_counts(self):
        # the spec's counts may be numpy ints, which json cannot write by itself
        spec = small_spec(estimators=("simple",), settings=((0.0, 2.0),))
        numpy_spec = dataclasses.replace(spec, replications=np.int64(400), samples=np.int64(20), base_seed=np.int64(7))
        assert mse_table_to_json(run_benchmark(numpy_spec)) == mse_table_to_json(run_benchmark(spec))

    def test_json_row_keys_are_the_row_fields_in_order(self):
        import json

        table = run_benchmark(small_spec(estimators=("simple",), settings=((0.0, 2.0),)))
        row, = json.loads(mse_table_to_json(table))["rows"]
        assert list(row) == [f.name for f in dataclasses.fields(MseRow)]
        assert row["mean_bias"] == table.rows[0].mean_bias.tolist()

    def test_pretty_table_layout(self):
        table = run_benchmark(small_spec())
        text = format_mse_table(table)
        lines = text.strip().split("\n")
        assert lines[0].startswith("estimator")
        assert "mu=0, s2=2" in lines[0] and "mu=-2, s2=2" in lines[0]
        assert lines[2].split()[0] == "simple"

    def test_pretty_table_per_component_cells(self):
        table = run_benchmark(small_spec(estimators=("simple",), settings=((0.0, 2.0),)))
        text = format_mse_table(table, per_component=True)
        cell = text.strip().split("\n")[2].split()[-1]
        assert "/" in cell

    def test_na_cells_render_in_table_and_csv(self, monkeypatch):
        import gradcv.benchmark as bench
        from gradcv.targets import Target, resolve_target

        def resolve_with_blackbox(name):
            if name == "blackbox":
                return Target(name="blackbox", log_p=resolve_target("logistic").log_p)
            return resolve_target(name)

        monkeypatch.setattr(bench, "resolve_target", resolve_with_blackbox)
        spec = small_spec(estimators=("kingma-reparam",), settings=((0.0, 2.0),), target="blackbox")
        table = run_benchmark(spec)
        assert "n/a" in format_mse_table(table)
        assert "nan" in mse_table_to_csv(table)
