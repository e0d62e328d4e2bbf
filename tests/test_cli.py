import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradcv
from gradcv.cli import main, parse_args
from gradcv.estimators import ESTIMATOR_IDS
from gradcv.gaussian import GaussianQ
from gradcv.quadrature import ground_truth_gradient
from gradcv.targets import logistic_target

# argv (a trailing dict is written as the --config file) and the flag the error names
_OUT_OF_DOMAIN = [
    pytest.param(["estimate", "--mu", "nan"], "--mu", id="estimate-mu-nan"),
    pytest.param(["estimate", "--sigma2", "0"], "--sigma2", id="estimate-sigma2-zero"),
    pytest.param(["estimate", "--jitter", "-1"], "--jitter", id="estimate-jitter-negative"),
    pytest.param(["estimate", "--jitter", "nan"], "--jitter", id="estimate-jitter-nan"),
    pytest.param(["ground-truth", "--sigma2", "-1"], "--sigma2", id="ground-truth-sigma2-negative"),
    pytest.param(["fit", "--sigma2", "0"], "--sigma2", id="fit-sigma2-zero"),
    pytest.param(["benchmark", "--settings", "nan:2"], "--settings", id="benchmark-settings-nan"),
    pytest.param(["benchmark", "--settings", "0:inf"], "--settings", id="benchmark-settings-inf"),
    pytest.param(["benchmark", "--threads", "0", "--reps", "10"], "--threads", id="benchmark-threads-zero"),
    pytest.param(["benchmark", "--threads", "-3", "--reps", "10"], "--threads", id="benchmark-threads-negative"),
    pytest.param(["estimate", "--config", {"sigma2": 0}], "--sigma2", id="estimate-config-sigma2-zero"),
    pytest.param(["benchmark", "--estimators", "", "--reps", "10"], "--estimators", id="benchmark-estimators-empty"),
    pytest.param(["benchmark", "--estimators", "simple,simple", "--settings", "0:2", "--reps", "50"], "--estimators",
                 id="benchmark-estimators-repeated"),
    pytest.param(["benchmark", "--settings", "0:2,0:2", "--reps", "50"], "--settings", id="benchmark-settings-repeated"),
    # eta = (mu / sigma2, -1 / (2 sigma2)) overflows
    pytest.param(["fit", "--sigma2", "1e-320", "--iterations", "2"], "--mu/--sigma2", id="fit-sigma2-1e-320"),
    pytest.param(["benchmark", "--settings", "0:1e-320", "--reps", "10"], "--settings", id="benchmark-settings-1e-320"),
]

# in-domain argv the library cannot compute at, and the start of its error message
_RUNTIME_ERRORS = [
    pytest.param(["estimate", "--mu", "1e200"], "no gradient estimate", id="estimate-mu-1e200"),
    pytest.param(["estimate", "--sigma2", "1e300"], "non-finite gradient estimate", id="estimate-sigma2-1e300"),
    pytest.param(["fit", "--target", "gaussian:1e200:1"], "integrand is not finite", id="fit-target-1e200"),
    pytest.param(["ground-truth", "--mu", "1e200"], "no ground-truth gradient", id="ground-truth-mu-1e200"),
    pytest.param(["benchmark", "--settings", "0:1e150", "--reps", "10"],
                 "non-finite cell statistics", id="benchmark-sigma2-1e150"),
    pytest.param(["benchmark", "--settings", "0:1e150", "--reps", "10", "--paired"],
                 "non-finite cell statistics", id="benchmark-paired-sigma2-1e150"),
    pytest.param(["benchmark", "--settings", "0:1e150", "--reps", "10", "--estimators", "simple"],
                 "non-finite cell statistics", id="benchmark-simple-sigma2-1e150"),
    pytest.param(["ground-truth", "--mu", "1e15", "--sigma2", "2"], "no ground-truth gradient", id="ground-truth-mu-1e15"),
    pytest.param(["ground-truth", "--mu", "1e20", "--sigma2", "2"], "no ground-truth gradient", id="ground-truth-mu-1e20"),
    pytest.param(["estimate", "--estimator", "cv-regression", "--mu", "1e15", "--sigma2", "2", "--seed", "1"],
                 "no gradient estimate", id="estimate-mu-1e15"),
    pytest.param(["estimate", "--estimator", "cv-regression", "--mu", "1e20", "--sigma2", "2", "--seed", "1"],
                 "no gradient estimate", id="estimate-mu-1e20"),
    pytest.param(["fit", "--step0", "1e307", "--iterations", "4"], "fit step 1 leaves the Gaussian family",
                 id="fit-step0-1e307"),
]


def run_cli(argv):
    """Run gradcv as its own process, as a user would."""
    env = {**os.environ, "PYTHONPATH": str(Path(gradcv.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "gradcv.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


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

    @pytest.mark.parametrize("argv", [
        ["estimate", "--estimator", "greg-samplecov"],
        ["benchmark", "--estimators", "simple,greg-samplecov"],
        ["fit", "--estimator", "greg-samplecov"],
    ])
    def test_below_minimum_draws_rejected(self, argv, capsys):
        # greg-samplecov needs 3 draws; 2 pass every other budget check
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--samples", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--samples" in err and "greg-samplecov" in err

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
        {"reps": False},
    ])
    def test_config_values_get_flag_type_checks(self, values, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            parse_args(["benchmark", "--config", str(cfg)])
        assert exc.value.code == 2
        assert next(iter(values)) in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", _OUT_OF_DOMAIN)
    def test_out_of_domain_value_is_usage_error(self, argv, flag, tmp_path):
        # run as a process: exit code 2 and a message naming the flag, never a traceback
        if isinstance(argv[-1], dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(argv[-1]))
            argv = argv[:-1] + [str(cfg)]
        proc = run_cli(argv)
        assert proc.returncode == 2
        assert flag in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_retired_jitter_flag_is_unknown(self):
        proc = run_cli(["estimate", "--estimator", "cv-regression", "--jitter", "0.1"])
        assert proc.returncode == 2
        assert "unrecognized arguments: --jitter 0.1" in proc.stderr

    @pytest.mark.parametrize("argv,message", _RUNTIME_ERRORS)
    def test_runtime_error_is_reported_without_traceback(self, argv, message):
        proc = run_cli(argv)
        assert proc.returncode == 1
        assert f"gradcv: error: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv,message", [
        (["estimate", "--mu", "1e200"], "no gradient estimate"),
        (["estimate", "--sigma2", "1e300"], "non-finite gradient estimate"),
        (["estimate", "--mu", "1e200", "--estimator", "cv-ideal-grad"], "no gradient estimate"),
        (["fit", "--mu", "1e200", "--iterations", "5"], "no gradient estimate"),
        (["benchmark", "--settings", "0:1e150", "--reps", "10"], "non-finite cell statistics"),
        (["benchmark", "--settings", "0:1e150", "--reps", "10", "--paired"], "non-finite cell statistics"),
        (["benchmark", "--settings", "0:1e150", "--reps", "10", "--estimators", "simple"],
         "non-finite cell statistics"),
        (["fit", "--step0", "1e307", "--iterations", "4"], "fit step 1 leaves the Gaussian family"),
        (["fit", "--target", "gaussian:1e200:1", "--iterations", "3"], "integrand is not finite"),
    ], ids=[f"argv{i}" for i in range(7)] + ["fit-step0-1e307", "fit-target-1e200"])
    def test_overflow_gives_the_error_line_alone(self, argv, message):
        # numpy's overflow RuntimeWarnings no longer precede the error line
        proc = run_cli(argv)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"gradcv: error: {message}"), proc.stderr

    def test_iterate_leaving_the_family_is_quoted_as_floats(self):
        # the iterate's mu is a numpy scalar; the message quotes it as the float inf
        proc = run_cli(["fit", "--step0", "1e307", "--iterations", "4"])
        assert proc.returncode == 1
        assert proc.stderr == "gradcv: error: fit step 1 leaves the Gaussian family: mu must be finite, got inf\n"

    def test_parse_args_builds_the_command_objects(self):
        ns = parse_args(["estimate", "--mu", "1", "--sigma2", "0.5", "--estimator", "cov", "--split", "0.3"])
        assert (ns.q.mu, ns.q.sigma2) == (1.0, 0.5)
        assert (ns.estimator_config.estimator_id, ns.estimator_config.cv_split) == ("cov", 0.3)
        assert ns.resolved_target.name == "logistic"
        ns = parse_args(["benchmark", "--settings", "0:2", "--reps", "7", "--paired"])
        assert (ns.spec.settings, ns.spec.replications, ns.spec.paired) == (((0.0, 2.0),), 7, True)
        ns = parse_args(["fit", "--step0", "0.05", "--samples", "20"])
        assert (ns.schedule.step0, ns.schedule.samples_per_step) == (0.05, 20)
        assert ns.estimator_config.estimator_id == "cv-regression"
        assert not hasattr(ns, "reps") and not hasattr(ns, "settings")

    def test_config_values_converted_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": "500", "split": 0.4, "seed": -1, "paired": True, "format": "csv",
                                   "settings": [[0, 2], [-1.5, 0.5]], "estimators": ["simple", "cov"]}))
        rc = parse_args(["benchmark", "--config", str(cfg)])
        assert (rc.reps, rc.split, rc.seed, rc.paired, rc.format) == (500, 0.4, -1, True, "csv")
        assert rc.settings == ((0.0, 2.0), (-1.5, 0.5))
        assert rc.estimators == ("simple", "cov")


    def test_fit_config_mu_sigma2_mean_what_they_mean_for_estimate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 5, "sigma2": 0.5}))
        for command in ("fit", "estimate"):
            assert parse_args([command, "--config", str(cfg)]).q == GaussianQ(5.0, 0.5)

    def test_config_false_leaves_an_on_off_flag_off(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"paired": False, "per_component": True}))
        ns = parse_args(["benchmark", "--config", str(cfg)])
        assert (ns.paired, ns.per_component) == (False, True)

    @pytest.mark.parametrize("command,values", [
        ("benchmark", {"rep": 3}),  # a prefix of reps
        ("ground-truth", {"reps": 5}),  # a key of another command
        ("fit", {"record-every": 5}),  # the flag's spelling, not its destination name
        ("fit", {"config": "other.json"}),
    ])
    def test_unknown_config_key_is_usage_error(self, command, values, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            parse_args([command, "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"gradcv {command}: error: --config {str(cfg)!r}: unknown key {next(iter(values))!r}" in err

    @pytest.mark.parametrize("argv", [
        ["ground-truth", "--seed", "1"],
        ["fit", "--format", "json"],
        ["selftest", "--seed", "1"],
        ["selftest", "--format", "json"],
        ["selftest", "--target", "logistic"],
        ["benchmark", "--rep", "3"],  # flags are matched exactly, not by prefix
        ["fit", "--iter", "5", "--rec", "1"],
    ])
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"gradcv {argv[0]}: error: unrecognized arguments: {argv[1]}" in err

    def test_bad_config_value_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"reps": "abc"}))
        with pytest.raises(SystemExit) as exc:
            parse_args(["benchmark", "--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"gradcv benchmark: error: --config {str(cfg)!r}: argument --reps: invalid int value: 'abc'"

    def test_false_on_a_valued_flag_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"reps": False}))
        with pytest.raises(SystemExit) as exc:
            parse_args(["benchmark", "--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"gradcv benchmark: error: --config {str(cfg)!r}: 'reps': false is a value of an on/off flag only"

    @pytest.mark.parametrize("flags, where, got", [([], True, "0"), (["--reps=-1"], False, "-1")])
    def test_config_value_the_library_rejects_names_the_file(self, flags, where, got, tmp_path, capsys):
        # BenchmarkSpec rejects the reps: the file is named when the value
        # came from it, and not when the command line overrides it
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"reps": 0}))
        with pytest.raises(SystemExit) as exc:
            parse_args(["benchmark", "--config", str(cfg), *flags])
        assert exc.value.code == 2
        prefix = f"--config {str(cfg)!r}: " if where else ""
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"gradcv benchmark: error: {prefix}--settings/--estimators/--samples/--split/--reps: "
            f"replications must be an int >= 1, got {got}")

    def test_fit_config_value_the_library_rejects_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"sigma2": -1}))
        with pytest.raises(SystemExit) as exc:
            parse_args(["fit", "--config", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"gradcv fit: error: --config {str(cfg)!r}: --mu/--sigma2: sigma2 must be finite and > 0, got -1.0"
        assert parse_args(["fit", "--config", str(cfg), "--sigma2", "3"]).q.sigma2 == 3.0

    @pytest.mark.parametrize("argv, flag, value", [
        (["benchmark", "--settings", "-50:2"], "--settings", "-50:2"),
        (["benchmark", "--reps", "10", "--settings", "-50:2,0:1"], "--settings", "-50:2,0:1"),
        (["estimate", "--mu", "-1e3"], "--mu", "-1e3"),
    ])
    def test_value_starting_with_a_dash_names_the_equals_form(self, argv, flag, value, capsys):
        # argparse reads the token after the flag as another flag
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"gradcv {argv[0]}: error: argument {flag}: expected one argument; "
            f"a value that starts with '-' is given as {flag}={value}"
        )
        assert parse_args([*argv[:-2], f"{flag}={value}"]).command == argv[0]

    def test_negative_number_after_a_flag_still_parses(self):
        assert parse_args(["estimate", "--mu", "-3"]).q == GaussianQ(-3.0, 2.0)

    def test_bad_typed_value_keeps_the_flag_message(self, tmp_path, capsys):
        cfg = tmp_path / "good.json"
        cfg.write_text(json.dumps({"reps": 5}))
        for argv in (["benchmark", "--reps", "abc"], ["benchmark", "--config", str(cfg), "--reps", "abc"]):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == \
                "gradcv benchmark: error: argument --reps: invalid int value: 'abc'"


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

    def test_a_failed_run_neither_creates_nor_truncates_out(self, tmp_path, capsys):
        kept, new = tmp_path / "kept.json", tmp_path / "new.json"
        kept.write_text("kept\n")
        for out in (kept, new):
            assert main(["estimate", "--mu", "1e200", "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("gradcv: error: ")
        assert kept.read_text() == "kept\n"
        assert not new.exists()


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

    @pytest.mark.parametrize("flags", [["--out", ""], ["--out="], [{"out": ""}]], ids=["flag", "equals", "config"])
    def test_empty_out_is_usage_error(self, flags, tmp_path, capsys):
        # an empty path would otherwise mean stdout, as a variable that is not set does in --out "$OUT"
        where = ""
        if isinstance(flags[0], dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(flags[0]))
            flags, where = ["--config", str(cfg)], f"--config {str(cfg)!r}: "
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--reps", "10", "--format", "csv", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"gradcv benchmark: error: {where}argument --out: expected a path, got ''; "
            "leave --out out to write to stdout")

    @pytest.mark.parametrize("command", ["benchmark", "fit"])
    def test_unwritable_out_fails_before_any_work(self, command, tmp_path, monkeypatch, capsys):
        def never(fn):
            @functools.wraps(fn)  # the parser reads its defaults off the signature
            def run(*args, **kwargs):
                raise AssertionError(f"{fn.__name__} ran")
            return run

        for name in ("run_benchmark", "fit"):
            monkeypatch.setattr(gradcv.cli, name, never(getattr(gradcv.cli, name)))
        (tmp_path / "file").write_text("")
        for out in (tmp_path / "no-dir" / "x.csv", tmp_path / "file" / "x.csv", tmp_path):
            assert main([command, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith(f"gradcv: cannot write {str(out)!r}: [Errno ")

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

    def test_results_hold_python_floats_and_bools(self):
        # numpy scalars would fail json.dumps (np.bool_) and leak into reprs
        results = gradcv.run_all_checks()
        assert len(results) == 5
        for r in results:
            assert (type(r.name), type(r.passed), type(r.worst), type(r.tolerance)) == (str, bool, float, float), r
        json.dumps([vars(r) for r in results])


# Each command imports only what it runs: neither concurrent.futures (the
# thread pool) nor gradcv.diagnostics (the self-test) loads before a command
# uses it, unless numpy imported it by itself.
LAZY_IMPORTS_RUN = """
import sys
from pathlib import Path
import numpy
LAZY = ("concurrent.futures", "gradcv.diagnostics")
with_numpy = {name for name in LAZY if name in sys.modules}
from gradcv.cli import main
def loaded():
    return {name for name in LAZY if name in sys.modules} - with_numpy
out = Path(sys.argv[1])
def table(threads, *flags):
    assert main(["benchmark", "--reps", "16", "--threads", threads, "--format", "csv", "--out", str(out), *flags]) == 0
    return out.read_bytes()
for argv in (["fit", "--iterations", "20"], ["estimate"], ["ground-truth"]):
    assert main([*argv, "--out", str(out)]) == 0, argv
one_thread = [table("1"), table("1", "--paired")]
assert not loaded(), loaded()
assert [table("2"), table("2", "--paired")] == one_thread
assert loaded() == {"concurrent.futures"} - with_numpy, loaded()
assert main(["selftest", "--out", str(out)]) == 0
assert "gradcv.diagnostics" in sys.modules
"""

STAR_IMPORT_RUN = """
from gradcv import *
import gradcv
assert all(globals()[name] is getattr(gradcv, name) for name in gradcv.__all__)
"""


@pytest.mark.parametrize("script", [LAZY_IMPORTS_RUN, STAR_IMPORT_RUN], ids=["lazy-imports", "star-import"])
def test_imports_in_a_fresh_process(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(gradcv.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr


def test_every_public_name_resolves():
    assert [name for name in gradcv.__all__ if not hasattr(gradcv, name)] == []
    assert gradcv.run_all_checks is gradcv.diagnostics.run_all_checks
    with pytest.raises(AttributeError, match="^module 'gradcv' has no attribute 'no_such_name'$"):
        gradcv.no_such_name


def test_the_package_exports_each_modules_all_once():
    # each module's __all__ is the one statement of its public names: the
    # package's __all__ is run_all_checks and the six modules' __all__, each
    # name once and bound to its module's own object, and the est_* names in
    # estimators.__all__ are the functions generated from ESTIMATORS, in
    # the registry's order
    modules = (gradcv.benchmark, gradcv.estimators, gradcv.gaussian, gradcv.optimize, gradcv.quadrature,
               gradcv.targets)
    assert gradcv.__all__ == ["run_all_checks", *(name for m in modules for name in m.__all__)]
    assert len(set(gradcv.__all__)) == len(gradcv.__all__)
    not_own = [(m.__name__, name) for m in modules for name in m.__all__ if getattr(gradcv, name) is not getattr(m, name)]
    assert not_own == []
    estimators = gradcv.estimators
    est_names = [name for name in estimators.__all__ if name.startswith("est_")]
    assert sorted(est_names) == sorted(name for name in vars(estimators) if name.startswith("est_"))
    assert [getattr(estimators, name).__doc__ for name in est_names] == [
        info.kernel.__doc__ for info in estimators.ESTIMATORS.values()]
