import json
import math

import pytest

import gradcv
from gate import check_fit_csv, check_fit_prefix, check_table_csv, check_table_json, table_cells_from_json
from workloads import UNBIASED_IDS

ESTIMATORS = ("simple", "cv-regression", "greg-samplecov")


@pytest.fixture(scope="module")
def table():
    spec = gradcv.BenchmarkSpec(
        settings=((0.0, 2.0), (2.0, 2.0)), estimators=ESTIMATORS, replications=300, base_seed=7)
    return gradcv.run_benchmark(spec, threads=1)


@pytest.fixture(scope="module")
def table_json(table):
    return gradcv.mse_table_to_json(table)


@pytest.fixture(scope="module")
def table_csv(table):
    return gradcv.mse_table_to_csv(table)


def _edit_row(text, index, **changes):
    payload = json.loads(text)
    payload["rows"][index].update(changes)
    return json.dumps(payload, allow_nan=True)


def test_clean_table_passes(table_json, table_csv):
    cells, failures = check_table_json(table_json, UNBIASED_IDS, expected=6)
    assert failures == []
    assert len(cells) == 6
    assert check_table_csv(table_csv, cells, expected=6) == []


def test_injected_nan_cell_fails(table_json, table_csv):
    _, failures = check_table_json(_edit_row(table_json, 1, mse=math.nan), UNBIASED_IDS, expected=6)
    assert len(failures) == 1 and "non-finite" in failures[0]

    reference, _ = check_table_json(table_json, UNBIASED_IDS, expected=6)
    lines = table_csv.splitlines()
    fields = lines[2].split(",")
    fields[3] = "nan"
    lines[2] = ",".join(fields)
    failures = check_table_csv("\n".join(lines) + "\n", reference, expected=6)
    assert len(failures) == 1 and "non-finite" in failures[0]


def test_injected_bias_fails_only_for_unbiased_estimators(table_json):
    rows = json.loads(table_json)["rows"]
    unbiased = next(i for i, r in enumerate(rows) if r["estimator"] == "cv-regression")
    biased = next(i for i, r in enumerate(rows) if r["estimator"] == "greg-samplecov")

    def shifted(i):
        se = rows[i]["mean_se"]
        return _edit_row(table_json, i, mean_bias=[6.0 * se[0], 0.0])

    _, failures = check_table_json(shifted(unbiased), UNBIASED_IDS, expected=6)
    assert len(failures) == 1 and "standard errors" in failures[0]
    _, failures = check_table_json(shifted(biased), UNBIASED_IDS, expected=6)
    assert failures == []


def test_note_and_missing_cells_fail(table_json):
    _, failures = check_table_json(_edit_row(table_json, 0, note="n/a: no grad_x"), UNBIASED_IDS, expected=6)
    assert len(failures) == 1 and "note" in failures[0]
    _, failures = check_table_json(table_json, UNBIASED_IDS, expected=8)
    assert len(failures) == 2
    _, failures = check_table_json("not json", UNBIASED_IDS, expected=6)
    assert len(failures) == 6


def test_thread_count_csv_mismatch_fails(table_json, table_csv):
    reference, _ = table_cells_from_json(table_json)
    lines = table_csv.splitlines()
    fields = lines[4].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-15))  # last-digit drift, as a reordered sum gives
    lines[4] = ",".join(fields)
    failures = check_table_csv("\n".join(lines) + "\n", reference, expected=6)
    assert len(failures) == 1 and "differs" in failures[0]


def _trajectory(final_mu=1.0, final_s2=3.0, kl="1e-12"):
    return ("iteration,mu,sigma2,kl,step\n"
            "0,0,1,0.5,0.05\n"
            f"10,{final_mu!r},{final_s2!r},{kl},0.01\n")


def test_fit_gate():
    assert check_fit_csv(_trajectory()) == []
    assert check_fit_csv(_trajectory(final_mu=1.0 + 2e-6))
    assert check_fit_csv(_trajectory(final_s2=math.nan))
    assert check_fit_csv(_trajectory(kl="nan"))
    assert check_fit_csv("")
    assert check_fit_csv("iteration,mu,sigma2,kl,step\n")


def test_short_fit_must_start_the_full_fit():
    full = _trajectory()
    start = "\n".join(full.splitlines()[:2]) + "\n"
    assert check_fit_prefix(start, full) == []
    assert check_fit_prefix(full, full) == []
    assert check_fit_prefix(start.replace("0.5", "0.50000001"), full)
    assert check_fit_prefix(start.replace("0.5", "nan"), full.replace("0.5", "nan"))
    assert check_fit_prefix(full + "20,1.0,3.0,1e-12,0.01\n", full)  # longer than the full fit
    assert check_fit_prefix(start, None)
    assert check_fit_prefix("", full)
