"""Command-line interface.

Subcommands:
  benchmark     fill the estimator-by-setting MSE table (defaults reproduce
                the standard configuration: 50 samples, 25/25 split,
                100000 replications, logistic target, all ten estimators)
  estimate      one gradient estimate for a single (q, target, estimator)
  ground-truth  exact gradient from the quadrature oracle
  fit           stochastic gradient descent fit, trajectory as CSV
  selftest      run the identity and exactness suites

All randomness flows from --seed. A JSON config file may supply any flag
value; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

from .benchmark import (
    BenchmarkSpec,
    format_mse_table,
    mse_table_to_csv,
    mse_table_to_json,
    run_benchmark,
)
from .diagnostics import run_all_checks
from .estimators import ESTIMATOR_IDS, EstimatorConfig, estimate
from .gaussian import GaussianQ
from .optimize import SgdSchedule, fit, trajectory_to_csv
from .quadrature import gauss_hermite_rule, ground_truth_gradient
from .targets import resolve_target

__all__ = ["main", "parse_args", "RunConfig"]


class RunConfig:
    """Resolved invocation: subcommand plus every field it needs."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.__dict__.items()))
        return f"RunConfig({inner})"


_DEFAULTS = {
    "settings": "0:2,-2:2,2:2,0:4",
    "estimators": ",".join(ESTIMATOR_IDS),
    "target": "logistic",
    "samples": 50,
    "split": 0.5,
    "reps": 100_000,
    "seed": 0,
    "threads": 1,
    "format": "table",
    "out": None,
    "jitter": 0.0,
    "paired": False,
    "per_component": False,
    "mu": 0.0,
    "sigma2": 2.0,
    "estimator": "simple",
    "step0": 0.01,
    "decay": 0.75,
    "iterations": 1000,
    "record_every": 10,
    "natural_gradient": False,
    "q0_mu": 0.0,
    "q0_sigma2": 1.0,
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="gradcv",
        description="Gradient estimators for Gaussian variational inference: benchmark, evaluate, fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="base seed for all randomness (default 0)")
        p.add_argument("--format", choices=("csv", "json", "table"), default=None, help="output format")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--config", default=None, help="JSON file supplying flag values; flags override")
        p.add_argument("--target", default=None, help="target id: logistic or gaussian:MU:SIGMA2")

    p_bench = sub.add_parser("benchmark", help="estimator-by-setting MSE table")
    common(p_bench)
    p_bench.add_argument("--settings", default=None, help="comma list of mu:sigma2 pairs")
    p_bench.add_argument("--estimators", default=None, help="comma list of estimator ids")
    p_bench.add_argument("--samples", type=int, default=None, help="draws per replication (default 50)")
    p_bench.add_argument("--split", type=float, default=None, help="coefficient fraction for cv methods (default 0.5)")
    p_bench.add_argument("--reps", type=int, default=None, help="replications per cell (default 100000)")
    p_bench.add_argument("--threads", type=int, default=None, help="worker threads; output is invariant to this")
    p_bench.add_argument("--paired", action="store_true", default=None, help="share draws across estimators per replication")
    p_bench.add_argument("--per-component", dest="per_component", action="store_true", default=None,
                         help="also report unweighted per-component MSEs")

    p_est = sub.add_parser("estimate", help="single gradient estimate")
    common(p_est)
    p_est.add_argument("--mu", type=float, default=None)
    p_est.add_argument("--sigma2", type=float, default=None)
    p_est.add_argument("--estimator", default=None, help="estimator id")
    p_est.add_argument("--samples", type=int, default=None)
    p_est.add_argument("--split", type=float, default=None)
    p_est.add_argument("--jitter", type=float, default=None)

    p_gt = sub.add_parser("ground-truth", help="exact gradient via quadrature")
    common(p_gt)
    p_gt.add_argument("--mu", type=float, default=None)
    p_gt.add_argument("--sigma2", type=float, default=None)

    p_fit = sub.add_parser("fit", help="stochastic gradient descent fit")
    common(p_fit)
    p_fit.add_argument("--mu", dest="q0_mu", type=float, default=None, help="initial mu (default 0)")
    p_fit.add_argument("--sigma2", dest="q0_sigma2", type=float, default=None, help="initial sigma2 (default 1)")
    p_fit.add_argument("--estimator", default=None, help="unbiased estimator id (default cv-regression)")
    p_fit.add_argument("--samples", type=int, default=None, help="draws per step")
    p_fit.add_argument("--split", type=float, default=None)
    p_fit.add_argument("--step0", type=float, default=None)
    p_fit.add_argument("--decay", type=float, default=None)
    p_fit.add_argument("--iterations", type=int, default=None)
    p_fit.add_argument("--record-every", dest="record_every", type=int, default=None)
    p_fit.add_argument("--natural-gradient", dest="natural_gradient", action="store_true", default=None)

    p_self = sub.add_parser("selftest", help="identity and exactness suites")
    common(p_self)

    return parser, sub.choices


def _parse_settings(text: str, parser) -> tuple[tuple[float, float], ...]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        parts = piece.split(":")
        if len(parts) != 2:
            parser.error(f"--settings: expected MU:SIGMA2, got {piece!r}")
        try:
            mu, s2 = float(parts[0]), float(parts[1])
        except ValueError:
            parser.error(f"--settings: non-numeric entry {piece!r}")
        if s2 <= 0:
            parser.error(f"--settings: sigma2 must be > 0 in {piece!r}")
        out.append((mu, s2))
    return tuple(out)


def _config_values(file_cfg: dict, command_parser, parser) -> dict:
    """--config values for the subcommand's options, checked as the same flags are.

    A value of a typed flag goes through the flag's type= conversion, an
    on/off flag takes a JSON boolean, a flag with choices takes one of
    them, and any other flag takes a string; a JSON list stands for a
    comma list such as --estimators, with inner lists joined by ":" as
    in --settings. Values of options the subcommand does not have are
    dropped.
    """
    out = {}
    for action in command_parser._actions:
        name = action.dest
        if name not in file_cfg or name not in _DEFAULTS:
            continue
        value = file_cfg[name]
        if action.nargs == 0:  # store_true
            if not isinstance(value, bool):
                parser.error(f"--config: {name!r} must be true or false, got {value!r}")
        elif action.type is not None:
            try:
                if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                    raise ValueError
                value = action.type(str(value))
            except ValueError:
                parser.error(f"--config: {name!r}: invalid {action.type.__name__} value {value!r}")
        else:
            if isinstance(value, list):
                value = ",".join(":".join(map(str, v)) if isinstance(v, list) else str(v) for v in value)
            if not isinstance(value, str):
                parser.error(f"--config: {name!r} must be a string, got {value!r}")
        if action.choices is not None and value not in action.choices:
            parser.error(f"--config: {name!r}: invalid choice {value!r} (choose from {', '.join(action.choices)})")
        out[name] = value
    return out


def parse_args(argv=None) -> RunConfig:
    """Parse argv into a fully validated RunConfig. Usage errors exit with code 2."""
    parser, command_parsers = _build_parser()
    ns = parser.parse_args(argv)

    file_cfg = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            parser.error(f"--config: cannot read {ns.config!r}: {err}")
        if not isinstance(file_cfg, dict):
            parser.error("--config: top-level JSON value must be an object")
        file_cfg = _config_values(file_cfg, command_parsers[ns.command], parser)

    def pick(name):
        val = getattr(ns, name, None)
        if val is not None:
            return val
        if name in file_cfg:
            return file_cfg[name]
        return _DEFAULTS[name]

    cfg = {"command": ns.command}
    for name in _DEFAULTS:
        cfg[name] = pick(name)
    rc = RunConfig(**cfg)
    if ns.command == "fit" and getattr(ns, "estimator", None) is None and "estimator" not in file_cfg:
        rc.estimator = "cv-regression"

    rc.settings = _parse_settings(rc.settings, parser)
    rc.estimators = tuple(e.strip() for e in rc.estimators.split(",") if e.strip())
    for est in rc.estimators:
        if est not in ESTIMATOR_IDS:
            parser.error(f"--estimators: unknown estimator id {est!r}")
    if rc.estimator not in ESTIMATOR_IDS:
        parser.error(f"--estimator: unknown estimator id {rc.estimator!r}")
    try:
        resolve_target(rc.target)
    except ValueError as err:
        parser.error(f"--target: {err}")

    ids_to_check = rc.estimators if ns.command == "benchmark" else (rc.estimator,)
    if ns.command in ("benchmark", "estimate", "fit"):
        for est in ids_to_check:
            try:
                EstimatorConfig(total_samples=rc.samples, cv_split=rc.split, estimator_id=est)
            except ValueError as err:
                parser.error(f"--samples/--split: {err}")
    if ns.command == "benchmark" and rc.reps < 1:
        parser.error("--reps: must be >= 1")
    if ns.command == "fit":
        try:
            SgdSchedule(step0=rc.step0, decay=rc.decay, iterations=rc.iterations, samples_per_step=rc.samples)
        except ValueError as err:
            parser.error(f"fit schedule: {err}")
        if rc.estimator in ("greg-samplecov", "greg-pathgrad"):
            parser.error(f"--estimator: {rc.estimator!r} is biased and cannot drive plain SGD")
        if rc.record_every < 1:
            parser.error(f"--record-every: must be >= 1, got {rc.record_every}")
    return rc


def _emit(text: str, out_path) -> int:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as err:
            print(f"gradcv: cannot write {out_path!r}: {err}", file=sys.stderr)
            return 1
        return 0
    sys.stdout.write(text)
    return 0


def _vector_payload(rc: RunConfig, name: str, vec, extra: dict) -> str:
    if rc.format == "json":
        return json.dumps({**extra, name: [float(vec[0]), float(vec[1])]}, indent=2) + "\n"
    if rc.format == "csv":
        keys = list(extra) + [f"{name}1", f"{name}2"]
        vals = [str(extra[k]) for k in extra] + [format(float(v), ".17g") for v in vec]
        return ",".join(keys) + "\n" + ",".join(vals) + "\n"
    lines = [f"{k}: {v}" for k, v in extra.items()]
    lines.append(f"{name}: [{vec[0]:.12g}, {vec[1]:.12g}]")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    rc = parse_args(argv)

    if rc.command == "benchmark":
        spec = BenchmarkSpec(
            settings=rc.settings,
            estimators=rc.estimators,
            replications=rc.reps,
            samples=rc.samples,
            cv_split=rc.split,
            base_seed=rc.seed,
            target=rc.target,
            paired=bool(rc.paired),
        )
        table = run_benchmark(spec, threads=max(1, int(rc.threads)))
        if rc.format == "csv":
            text = mse_table_to_csv(table, per_component=bool(rc.per_component))
        elif rc.format == "json":
            text = mse_table_to_json(table)
        else:
            text = format_mse_table(table, per_component=bool(rc.per_component))
        return _emit(text, rc.out)

    if rc.command == "estimate":
        q = GaussianQ(rc.mu, rc.sigma2)
        target = resolve_target(rc.target)
        config = EstimatorConfig(
            total_samples=rc.samples, cv_split=rc.split,
            estimator_id=rc.estimator, jitter=rc.jitter,
        )
        result = estimate(q, target, config, seed=rc.seed)
        extra = {
            "estimator": result.estimator_id,
            "mu": rc.mu, "sigma2": rc.sigma2, "target": rc.target,
            "samples": result.samples_used, "seed": rc.seed,
        }
        return _emit(_vector_payload(rc, "estimate", result.value, extra), rc.out)

    if rc.command == "ground-truth":
        q = GaussianQ(rc.mu, rc.sigma2)
        target = resolve_target(rc.target)
        grad = ground_truth_gradient(q, target, gauss_hermite_rule())
        extra = {"mu": rc.mu, "sigma2": rc.sigma2, "target": rc.target}
        return _emit(_vector_payload(rc, "gradient", grad, extra), rc.out)

    if rc.command == "fit":
        schedule = SgdSchedule(
            step0=rc.step0, decay=rc.decay,
            iterations=rc.iterations, samples_per_step=rc.samples,
        )
        result = fit(
            GaussianQ(rc.q0_mu, rc.q0_sigma2),
            resolve_target(rc.target),
            estimator_id=rc.estimator,
            schedule=schedule,
            seed=rc.seed,
            cv_split=rc.split,
            natural_gradient=bool(rc.natural_gradient),
            record_every=rc.record_every,
        )
        return _emit(trajectory_to_csv(result), rc.out)

    if rc.command == "selftest":
        results = run_all_checks()
        all_ok = True
        lines = []
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            all_ok = all_ok and res.passed
            lines.append(f"{status} {res.name}: worst deviation {res.worst:.3g} (tolerance {res.tolerance:g})")
        text = "\n".join(lines) + "\n"
        code = _emit(text, rc.out)
        return code if code else (0 if all_ok else 1)

    raise AssertionError(f"unhandled command {rc.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
