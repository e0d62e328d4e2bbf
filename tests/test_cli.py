import json

import numpy as np
import pytest

from gradcv.cli import main, parse_args
from gradcv.estimators import ESTIMATOR_IDS
from gradcv.gaussian import GaussianQ
from gradcv.quadrature import ground_truth_gradient
from gradcv.targets import logistic_target


class TestParseArgs:
    def test_benchmark_defaults_reproduce_standard_configuration(self):
        rc = parse_args(["benchmark"])
        assert rc.command == "benchmark"
        assert rc.settings == ((0.0, 2.0), (-2.0, 2.0), (2.0, 2.0), (0.0, 4.0))
        assert rc.estimators == ESTIMATOR_IDS
        assert rc.samples == 50
        assert rc.split == 0.5
        assert rc.reps == 100_000
        assert rc.target == "logistic"
        assert rc.seed == 0

    def test_cv_split_budget_rejected_early(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["benchmark", "--samples", "1"])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_unknown_estimator_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["benchmark", "--estimators", "simple,nope"])
        assert exc.value.code == 2
        assert "nope" in capsys.readouterr().err

    def test_malformed_settings_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["benchmark", "--settings", "0:2,oops"])
        assert exc.value.code == 2
        assert "--settings" in capsys.readouterr().err

    def test_bad_target_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["estimate", "--target", "cauchy"])
        assert exc.value.code == 2

    def test_biased_estimator_rejected_for_fit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["fit", "--estimator", "greg-samplecov"])
        assert exc.value.code == 2
        assert "biased" in capsys.readouterr().err

    def test_config_file_supplies_values_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 30, "seed": 9, "target": "gaussian:0:1"}))
        rc = parse_args(["benchmark", "--config", str(cfg), "--seed", "4"])
        assert rc.samples == 30
        assert rc.seed == 4
        assert rc.target == "gaussian:0:1"

    def test_missing_config_file_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["benchmark", "--config", "/nonexistent/cfg.json"])
        assert exc.value.code == 2

    def test_fit_defaults_to_cv_regression(self):
        assert parse_args(["fit"]).estimator == "cv-regression"
        assert parse_args(["estimate"]).estimator == "simple"

    def test_fit_split_budget_validated_at_parse_time(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["fit", "--estimator", "cv-ideal", "--samples", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_record_every_below_one_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["fit", "--record-every", value])
        assert exc.value.code == 2
        assert "--record-every" in capsys.readouterr().err

    def test_record_every_from_config_checked(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"record_every": 0}))
        with pytest.raises(SystemExit) as exc:
            parse_args(["fit", "--config", str(cfg)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("values", [
        {"reps": "abc"},
        {"reps": 2.5},
        {"reps": True},
        {"split": [0.5]},
        {"paired": "yes"},
        {"format": "xml"},
        {"target": 5},
        {"settings": [[0, "x"]]},
    ])
    def test_config_values_get_flag_type_checks(self, values, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            parse_args(["benchmark", "--config", str(cfg)])
        assert exc.value.code == 2
        assert next(iter(values)) in capsys.readouterr().err

    def test_config_values_converted_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": "500", "split": 0.4, "seed": -1, "paired": True, "format": "csv",
                                   "settings": [[0, 2], [-1.5, 0.5]], "estimators": ["simple", "cov"]}))
        rc = parse_args(["benchmark", "--config", str(cfg)])
        assert (rc.reps, rc.split, rc.seed, rc.paired, rc.format) == (500, 0.4, -1, True, "csv")
        assert rc.settings == ((0.0, 2.0), (-1.5, 0.5))
        assert rc.estimators == ("simple", "cov")


class TestGroundTruthCommand:
    def test_prints_quadrature_vector(self, capsys):
        code = main(["ground-truth", "--mu", "0", "--sigma2", "2", "--target", "logistic", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = ground_truth_gradient(GaussianQ(0.0, 2.0), logistic_target())
        np.testing.assert_allclose(payload["gradient"], expected, rtol=1e-12)

    def test_csv_format(self, capsys):
        code = main(["ground-truth", "--mu", "1", "--sigma2", "3", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].endswith("gradient1,gradient2")
        assert len(lines[1].split(",")) == len(lines[0].split(","))


class TestEstimateCommand:
    def test_deterministic_json(self, capsys):
        argv = ["estimate", "--mu", "0", "--sigma2", "2", "--estimator", "cov",
                "--samples", "40", "--seed", "5", "--format", "json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["estimator"] == "cov"
        assert first["samples"] == 40
        assert len(first["estimate"]) == 2


class TestBenchmarkCommand:
    def test_small_run_csv_schema(self, capsys):
        argv = ["benchmark", "--reps", "200", "--samples", "20",
                "--estimators", "simple,cov", "--settings", "0:2", "--format", "csv"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "estimator,mu,sigma2,mse,mse_stderr,bias1,bias2,gt1,gt2,replications"
        assert len(lines) == 3

    def test_identical_bytes_across_runs_and_formats(self, capsys):
        argv = ["benchmark", "--reps", "100", "--samples", "10",
                "--estimators", "simple", "--settings", "0:2,2:2"]
        outputs = {}
        for fmt in ("csv", "json"):
            runs = []
            for _ in range(2):
                assert main(argv + ["--format", fmt]) == 0
                runs.append(capsys.readouterr().out)
            assert runs[0] == runs[1]
            outputs[fmt] = runs[0]
        assert outputs["csv"] != outputs["json"]

    def test_table_format_column_order_follows_settings(self, capsys):
        argv = ["benchmark", "--reps", "50", "--samples", "10", "--estimators", "simple",
                "--settings", "2:2,0:4", "--format", "table"]
        assert main(argv) == 0
        header = capsys.readouterr().out.split("\n")[0]
        assert header.index("mu=2") < header.index("mu=0")

    def test_out_file_and_unwritable_path(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        argv = ["benchmark", "--reps", "50", "--samples", "10", "--estimators", "simple",
                "--settings", "0:2", "--format", "csv", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().startswith("estimator,")
        bad = ["benchmark", "--reps", "50", "--samples", "10", "--estimators", "simple",
               "--settings", "0:2", "--format", "csv", "--out", str(tmp_path / "no-dir" / "x.csv")]
        assert main(bad) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_threads_flag_does_not_change_output(self, capsys):
        base = ["benchmark", "--reps", "5000", "--samples", "10", "--estimators", "cov",
                "--settings", "0:2", "--format", "csv"]
        assert main(base + ["--threads", "1"]) == 0
        one = capsys.readouterr().out
        assert main(base + ["--threads", "8"]) == 0
        eight = capsys.readouterr().out
        assert one == eight


class TestFitCommand:
    def test_trajectory_csv(self, capsys):
        argv = ["fit", "--target", "gaussian:1:2", "--iterations", "50", "--samples", "20",
                "--step0", "0.05", "--decay", "0.51", "--record-every", "25", "--seed", "2"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "iteration,mu,sigma2,kl,step"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 25, 50]


class TestSelftestCommand:
    def test_passes_and_prints_per_suite_lines(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().split("\n")]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)
        for name in ("covariance-identity", "gaussian-exactness", "path-gradient-finite-difference"):
            assert any(name in l for l in lines)
