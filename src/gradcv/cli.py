"""Command-line interface.

Subcommands:
  benchmark     fill the estimator-by-setting MSE table (defaults reproduce
                the standard configuration of BenchmarkSpec)
  estimate      one gradient estimate for a single (q, target, estimator)
  ground-truth  exact gradient from the quadrature oracle
  fit           stochastic gradient descent fit, trajectory as CSV
  selftest      run the identity and exactness suites

A command has only the flags it reads. All randomness flows from --seed.
A JSON --config file supplies values of the command's own flags, keyed by
destination name (reps, record_every, ...); argparse checks them as it
checks the flags, an unknown key is a usage error, and explicit flags win.
Defaults and value checks are the library's: parse_args builds the
command's objects (GaussianQ, EstimatorConfig, BenchmarkSpec, SgdSchedule,
the target), and a value their constructors reject is a usage error (exit
code 2).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .benchmark import (
    BenchmarkSpec,
    format_mse_table,
    mse_table_to_csv,
    mse_table_to_json,
    run_benchmark,
)
from .estimators import CapabilityError, EstimationError, EstimatorConfig, estimate
from .gaussian import GaussianQ, _count
from .optimize import SgdSchedule, VariationalSGD, _default, _fit_config, fit, trajectory_to_csv
from .quadrature import EvaluationError, ground_truth_gradient
from .targets import resolve_target

__all__ = ["main", "parse_args"]


def _settings(text: str) -> tuple[tuple[float, float], ...]:
    """--settings: a comma list of MU:SIGMA2 pairs; BenchmarkSpec checks the values."""
    out = []
    for piece in text.split(","):
        try:
            mu, sigma2 = map(float, piece.strip().split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected MU:SIGMA2 pairs, got {piece.strip()!r}") from None
        out.append((mu, sigma2))
    return tuple(out)


def _out(path: str) -> str:
    """--out: a path; an empty one is an error, as writing to stdout is what leaving --out out does."""
    if not path:
        raise argparse.ArgumentTypeError("expected a path, got ''; leave --out out to write to stdout")
    return path


def _ids(text: str) -> tuple[str, ...]:
    """--estimators: a comma list of estimator ids; EstimatorConfig checks each id."""
    return tuple(e.strip() for e in text.split(",") if e.strip())


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name.

    Every default that is not about the command line itself is read from
    the library object or function that owns it. A command has only the
    flags it reads, matched exactly (no abbreviations). A bad flag value
    raises argparse.ArgumentError instead of exiting (see _parse).
    """
    parser = argparse.ArgumentParser(
        prog="gradcv",
        description="Gradient estimators for Gaussian variational inference: benchmark, evaluate, fit.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--seed": dict(type=int, default=BenchmarkSpec.base_seed, help="base seed for all randomness"),
        "--format": dict(choices=("csv", "json", "table"), default="table", help="output format"),
        "--target": dict(default=BenchmarkSpec.target, help="target id: logistic or gaussian:MU:SIGMA2"),
        "--mu": dict(type=float, default=0.0, help="mean of q"),
        "--sigma2": dict(type=float, default=2.0, help="variance of q"),
    }

    def command(name: str, help: str, *flags: str) -> argparse.ArgumentParser:
        """The subcommand name with --out, --config and the shared flags named."""
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                           allow_abbrev=False, exit_on_error=False)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--out", type=_out, default=None, help="output path, or stdout")
        p.add_argument("--config", default=None, help="JSON file of flag values keyed by destination name")
        return p

    p = command("benchmark", "estimator-by-setting MSE table", "--seed", "--format", "--target")
    p.add_argument("--settings", type=_settings, default=BenchmarkSpec.settings, help="comma list of MU:SIGMA2 pairs")
    p.add_argument("--estimators", type=_ids, default=BenchmarkSpec.estimators, help="comma list of estimator ids")
    p.add_argument("--samples", type=int, default=BenchmarkSpec.samples, help="draws per replication")
    p.add_argument("--split", type=float, default=BenchmarkSpec.cv_split, help="coefficient fraction for cv methods")
    p.add_argument("--reps", type=int, default=BenchmarkSpec.replications, help="replications per cell")
    p.add_argument("--threads", type=int, default=_default(run_benchmark, "threads"),
                   help="worker threads; output is invariant to this")
    p.add_argument("--paired", action="store_true", help="run every estimator on the same draws and target evaluations")
    p.add_argument("--per-component", dest="per_component", action="store_true",
                   help="also report unweighted per-component MSEs")

    p = command("estimate", "single gradient estimate", "--seed", "--format", "--target", "--mu", "--sigma2")
    p.add_argument("--estimator", default=EstimatorConfig.estimator_id, help="estimator id")
    p.add_argument("--samples", type=int, default=EstimatorConfig.total_samples, help="draws")
    p.add_argument("--split", type=float, default=EstimatorConfig.cv_split, help="coefficient fraction for cv methods")

    command("ground-truth", "exact gradient via quadrature", "--format", "--target", "--mu", "--sigma2")

    p = command("fit", "stochastic gradient descent fit, trajectory as CSV", "--seed", "--target")
    p.add_argument("--mu", type=float, default=_default(VariationalSGD, "mu0"), help="initial mu")
    p.add_argument("--sigma2", type=float, default=_default(VariationalSGD, "sigma20"), help="initial sigma2")
    p.add_argument("--estimator", default=_default(fit, "estimator_id"), help="unbiased estimator id")
    p.add_argument("--samples", type=int, default=SgdSchedule.samples_per_step, help="draws per step")
    p.add_argument("--split", type=float, default=_default(fit, "cv_split"), help="coefficient fraction for cv methods")
    p.add_argument("--step0", type=float, default=SgdSchedule.step0, help="first step size")
    p.add_argument("--decay", type=float, default=SgdSchedule.decay, help="step size decay exponent")
    p.add_argument("--iterations", type=int, default=SgdSchedule.iterations, help="steps")
    p.add_argument("--record-every", dest="record_every", type=int, default=_default(fit, "record_every"),
                   help="steps between trajectory points")
    p.add_argument("--natural-gradient", dest="natural_gradient", action="store_true",
                   help="precondition by the exact score covariance")

    command("selftest", "identity and exactness suites")
    return parser, sub.choices


def _config_tokens(file_cfg: dict, cmd: argparse.ArgumentParser, path: str) -> list[str]:
    """--config values as flag tokens, for argparse to check as it checks the flags.

    A key is the destination name of one of the command's flags, matched
    exactly; any other key is a usage error naming the file at path. A key
    becomes --KEY=VALUE; true becomes the bare on/off flag and false
    nothing, and false is a value of an on/off flag alone. A JSON list
    stands for the comma list of --settings or --estimators, with inner
    lists joined by ":" as in --settings.
    """
    actions = {a.dest: a for a in cmd._actions if a.dest not in ("help", "config")}
    tokens = []
    for key, value in file_cfg.items():
        action = actions.get(key)
        if action is None:
            cmd.error(f"--config {path!r}: unknown key {key!r}; the keys are {', '.join(actions)}")
        flag = action.option_strings[0]
        if isinstance(value, list) and action.type in (_settings, _ids):
            value = ",".join(":".join(map(str, v)) if isinstance(v, list) else str(v) for v in value)
        if value is True:
            tokens.append(flag)
        elif value is False:
            if action.nargs != 0:
                cmd.error(f"--config {path!r}: {key!r}: false is a value of an on/off flag only")
        else:
            tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


def _parse(parser: argparse.ArgumentParser, commands: dict, argv: list[str]):
    """parser.parse_known_args(argv), with an argparse error a usage error of the command it came from.

    A bad flag value raises here, as the parser does not exit on errors. A
    valued flag followed by a token that starts with "-" (say --settings
    -50:2, where argparse reads -50:2 as a flag) gets a message naming the
    --FLAG=VALUE form that works.
    """
    try:
        return parser.parse_known_args(argv)
    except argparse.ArgumentError as err:
        message = str(err)
        if message.endswith("expected one argument"):
            for flag, value in zip(argv, argv[1:]):
                if flag == err.argument_name and value.startswith("-"):
                    message += f"; a value that starts with '-' is given as {flag}={value}"
                    break
        (commands.get(argv[0]) or parser).error(message)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv and build the command's library objects. Usage errors exit with code 2.

    --config values are parsed as flags given before argv's own, so
    argparse checks both alike and an explicit flag wins; an error in the
    file is reported as "--config 'PATH': ...", for a bad value as
    "--config 'PATH': argument --FLAG: ...", and for a value the library
    rejects as "--config 'PATH': --FLAGS: ..." unless argv overrides it. The
    namespace holds the command's own flags plus the objects the command
    runs, each built and checked once by its own constructor:
    resolved_target for every command with --target; q (GaussianQ) for
    estimate, ground-truth and fit; estimator_config (EstimatorConfig) for
    estimate and fit; spec (BenchmarkSpec) for benchmark; schedule
    (SgdSchedule) for fit. benchmark's threads is checked as run_benchmark
    checks it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, command_parsers = _build_parser()
    ns, unknown = _parse(parser, command_parsers, argv)
    cmd = command_parsers[ns.command]
    if unknown:
        cmd.error(f"unrecognized arguments: {' '.join(unknown)}")
    from_config = set()  # the flags whose value came from the --config file
    if ns.config is not None:
        try:
            with open(ns.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            cmd.error(f"--config: cannot read {ns.config!r}: {err}")
        if not isinstance(file_cfg, dict):
            cmd.error(f"--config {ns.config!r}: top-level JSON value must be an object")
        tokens = _config_tokens(file_cfg, cmd, ns.config)
        try:
            parser.parse_known_args([ns.command, *tokens])
        except argparse.ArgumentError as err:
            cmd.error(f"--config {ns.config!r}: {err}")
        ns, _ = _parse(parser, command_parsers, [ns.command, *tokens, *argv[1:]])
        # flags are matched exactly, so a flag argv sets is one of its tokens
        from_config = {t.split("=", 1)[0] for t in tokens} - {a.split("=", 1)[0] for a in argv[1:]}

    def build(flags: str, make, *args, **kwargs):
        """make(*args, **kwargs); its ValueError is a usage error naming the flags, and the file if one came from it."""
        try:
            return make(*args, **kwargs)
        except ValueError as err:
            where = f"--config {ns.config!r}: " if from_config.intersection(flags.split("/")) else ""
            cmd.error(f"{where}{flags}: {err}")

    if hasattr(ns, "target"):
        ns.resolved_target = build("--target", resolve_target, ns.target)
    if ns.command in ("estimate", "ground-truth", "fit"):
        ns.q = build("--mu/--sigma2", GaussianQ, ns.mu, ns.sigma2)
    if ns.command == "estimate":
        ns.estimator_config = build(
            "--estimator/--samples/--split", EstimatorConfig,
            total_samples=ns.samples, cv_split=ns.split, estimator_id=ns.estimator,
        )
    elif ns.command == "benchmark":
        ns.threads = build("--threads", _count, "threads", ns.threads)
        ns.spec = build(
            "--settings/--estimators/--samples/--split/--reps", BenchmarkSpec,
            settings=ns.settings, estimators=ns.estimators, replications=ns.reps, samples=ns.samples,
            cv_split=ns.split, base_seed=ns.seed, target=ns.target, paired=ns.paired,
        )
    elif ns.command == "fit":
        ns.schedule = build(
            "--step0/--decay/--iterations/--samples", SgdSchedule,
            step0=ns.step0, decay=ns.decay, iterations=ns.iterations, samples_per_step=ns.samples,
        )
        ns.estimator_config = build(
            "--estimator/--samples/--split/--record-every", _fit_config,
            ns.record_every, ns.estimator, ns.samples, ns.split,
        )
    return ns


def _cannot_write(out_path: str, err: OSError) -> int:
    print(f"gradcv: cannot write {out_path!r}: {err}", file=sys.stderr)
    return 1


def _write_error(out_path: str) -> OSError | None:
    """The error that opening out_path for writing would meet, or None, found without creating or truncating it.

    An existing path must be a file one may write; a new name needs a directory one may write in.
    """
    new = not os.path.exists(out_path)
    path = (os.path.dirname(out_path) or ".") if new else out_path
    if not os.path.exists(path):
        code = errno.ENOENT
    elif os.path.isdir(path) != new:
        code = errno.ENOTDIR if new else errno.EISDIR
    elif not os.access(path, (os.W_OK | os.X_OK) if new else os.W_OK):
        code = errno.EACCES
    else:
        return None
    return OSError(code, os.strerror(code), path)


def _emit(text: str, out_path) -> int:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as err:
            return _cannot_write(out_path, err)
        return 0
    sys.stdout.write(text)
    return 0


def _vector_payload(ns: argparse.Namespace, name: str, vec, extra: dict) -> str:
    if ns.format == "json":
        return json.dumps({**extra, name: [float(vec[0]), float(vec[1])]}, indent=2) + "\n"
    if ns.format == "csv":
        keys = list(extra) + [f"{name}1", f"{name}2"]
        vals = [str(extra[k]) for k in extra] + [format(float(v), ".17g") for v in vec]
        return ",".join(keys) + "\n" + ",".join(vals) + "\n"
    lines = [f"{k}: {v}" for k, v in extra.items()]
    lines.append(f"{name}: [{vec[0]:.12g}, {vec[1]:.12g}]")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    """Run the command of argv; its exit code.

    Usage errors exit with code 2 (see parse_args). An --out path that
    cannot be written gives 1 before any work is done. The library's
    run-time errors, a non-finite estimate or ground truth or a target
    without a needed derivative, print "gradcv: error: MESSAGE" on stderr
    and give 1.
    """
    ns = parse_args(argv)
    err = _write_error(ns.out) if ns.out else None
    if err is not None:
        return _cannot_write(ns.out, err)
    try:
        return _run(ns)
    except (EstimationError, CapabilityError, EvaluationError) as err:
        print(f"gradcv: error: {err}", file=sys.stderr)
        return 1


def _run(ns: argparse.Namespace) -> int:
    if ns.command == "benchmark":
        table = run_benchmark(ns.spec, threads=ns.threads)
        if ns.format == "csv":
            text = mse_table_to_csv(table, per_component=ns.per_component)
        elif ns.format == "json":
            text = mse_table_to_json(table)
        else:
            text = format_mse_table(table, per_component=ns.per_component)
        return _emit(text, ns.out)

    if ns.command == "estimate":
        result = estimate(ns.q, ns.resolved_target, ns.estimator_config, seed=ns.seed)
        extra = {
            "estimator": result.estimator_id,
            "mu": ns.mu, "sigma2": ns.sigma2, "target": ns.target,
            "samples": result.samples_used, "seed": ns.seed,
        }
        return _emit(_vector_payload(ns, "estimate", result.value, extra), ns.out)

    if ns.command == "ground-truth":
        grad = ground_truth_gradient(ns.q, ns.resolved_target)
        extra = {"mu": ns.mu, "sigma2": ns.sigma2, "target": ns.target}
        return _emit(_vector_payload(ns, "gradient", grad, extra), ns.out)

    if ns.command == "fit":
        result = fit(
            ns.q,
            ns.resolved_target,
            estimator_id=ns.estimator,
            schedule=ns.schedule,
            seed=ns.seed,
            cv_split=ns.split,
            natural_gradient=ns.natural_gradient,
            record_every=ns.record_every,
        )
        return _emit(trajectory_to_csv(result), ns.out)

    if ns.command == "selftest":
        from .diagnostics import run_all_checks  # only the self-test loads the suites

        results = run_all_checks()
        all_ok = True
        lines = []
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            all_ok = all_ok and res.passed
            lines.append(f"{status} {res.name}: worst deviation {res.worst:.3g} (tolerance {res.tolerance:g})")
        text = "\n".join(lines) + "\n"
        code = _emit(text, ns.out)
        return code if code else (0 if all_ok else 1)

    raise AssertionError(f"unhandled command {ns.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
