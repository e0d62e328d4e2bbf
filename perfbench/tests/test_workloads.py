import json
import shutil
import subprocess
import sys

import pytest

from conftest import PERFBENCH
from gradcv.cli import parse_args
from run import END_TO_END, PER_LAYER
from workloads import ESTIMATOR_IDS, FIT_STEPS, FULL_FIT_STEPS, TABLE_REPS, WORKLOADS

ROOT = PERFBENCH.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("threads", [1, 2])
def test_workload_argv_is_accepted_by_the_cli(name, threads):
    w = WORKLOADS[name]
    for fmt in ("csv", "json"):
        rc = parse_args(w.argv(seed=5, out="out.txt", threads=threads, fmt=fmt))
        assert rc.command == w.command
        assert rc.seed == 5 and rc.out == "out.txt"
        if w.command == "benchmark":
            assert rc.estimators == ESTIMATOR_IDS
            assert rc.settings == ((0.0, 2.0), (-2.0, 2.0), (2.0, 2.0), (0.0, 4.0))
            assert (rc.samples, rc.split, rc.reps, rc.threads) == (50, 0.5, TABLE_REPS, threads)
            assert (rc.target, rc.format, bool(rc.paired)) == ("logistic", fmt, w.paired)
        else:
            assert (rc.target, rc.estimator, rc.iterations, rc.record_every) == (
                "gaussian:1:3", "cv-regression", FIT_STEPS, 10)
    assert parse_args(w.argv(seed=5, out="o", steps=FULL_FIT_STEPS)).command == w.command


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_child(tmp_path, threads, reps):
    out, result = tmp_path / f"out{threads}.csv", tmp_path / f"result{threads}.json"
    argv = ["benchmark", "--reps", str(reps), "--estimators", "simple,cv-regression,kingma-reparam",
            "--settings", "0:2,2:2", "--threads", str(threads), "--format", "csv", "--out", str(out)]
    subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--src", str(ROOT / "src"), "--result", str(result),
         "--trace", "--", *argv], check=True, timeout=120)
    return json.loads(result.read_text())


def test_traced_run_accounts_for_its_wall_time(tmp_path):
    res = _traced_child(tmp_path, threads=1, reps=64)
    assert res["exit_code"] == 0
    layers = res["layers"]
    assert abs(layers["trace_residual_frac"]) < 0.01
    assert layers["gaussian.draws"] == 2 * 3 * 64 * 50
    assert layers["estimators.rows"] == 2 * 3 * 64
    assert layers["gaussian.rng_constructs"] == 2 * 3
    assert layers["quadrature.calls"] == 2
    for eid in ("simple", "cv-regression", "kingma-reparam"):
        assert layers[f"estimators.kernel_self_s.{eid}"] > 0
    assert layers["estimators.kernel_self_s.cov"] == 0
    assert layers["benchmark.worker_util"] == 0


def test_traced_pool_run_reports_worker_time(tmp_path):
    # more than one 4096-replication chunk per cell, so the pool is used
    res = _traced_child(tmp_path, threads=2, reps=4100)
    assert res["exit_code"] == 0
    assert res["layers"]["benchmark.worker_util"] > 0
    assert abs(res["layers"]["trace_residual_frac"]) < 0.01
