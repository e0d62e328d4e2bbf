"""The gradcv benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every measured run of the program is
a fresh process (``child.py``) that imports gradcv from ``src/`` and calls
``gradcv.cli.main`` with an argv generated from ``--seed`` (see
``workloads.py``). The check or warm-up run and the samples after it all
take ``--seconds`` on average: a sample starts only if at least half of it
would run in time, judged by the one before. Wall time is the mean over the
samples: the host's speed switches between a fast and a slow state for
seconds at a time, and the mean moves with the share of time spent in each,
where the median jumps from one state to the other. The other metrics are
medians over the samples. Every output is checked (``gate.py``).

With ``--trace 0`` the end-to-end metrics are measured with tracing off:
set-up time, wall time, estimates per second and peak RSS. With
``--trace 1`` each sample pairs an untraced run with a run whose layers are
wrapped in spans (``layers.py``); the per-layer self times come from the
traced runs and the tracing overhead from the pair.

Human-readable report lines go to stdout first, among them the environment
manifest and the SHA-256 of the output. The last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 whenever
that line is printed, 2 when gradcv cannot be run from this checkout, and 1
when no run of it finished with a measurement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from gate import check_fit_csv, check_fit_prefix, check_table_csv, check_table_json
from workloads import FULL_FIT_STEPS, UNBIASED_IDS, WORKLOADS, Workload

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "estimates_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# The per-layer metrics every workload exercises. The rest of what the trace
# yields (per-estimator kernel times, the fit's and the table's own layers,
# worker utilisation) is zero by construction on some workload, so it is
# printed in the report lines only.
PER_LAYER = {
    "cli.self_s": "s",
    "estimators.self_s": "s",
    "gaussian.self_s": "s",
    "gaussian.rng_fill_s": "s",
    "gaussian.rng_construct_s": "s",
    "gaussian.score_eta_s": "s",
    "gaussian.log_density_s": "s",
    "gaussian.reparameterize_s": "s",
    "targets.self_s": "s",
    "targets.log_p_s": "s",
    "quadrature.self_s": "s",
    "gaussian.draws": "count",
    "gaussian.rng_constructs": "count",
    "targets.points": "count",
    "estimators.rows": "count",
    "quadrature.calls": "count",
    "trace_overhead_frac": "frac",
}

# One benchmark run must end within 180 s; leave room to report.
DEADLINE_S = 170.0
# A traced run's self times must account for its wall time to within this share.
MAX_TRACE_RESIDUAL = 0.01
# Every child runs with BLAS pinned to one thread, so --threads is the only
# parallelism in a measurement.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class ProgramUnavailable(RuntimeError):
    """gradcv cannot be imported and run from this checkout."""


@dataclass
class Run:
    """One finished child process."""

    exit_code: int | None
    setup_s: float | None = None
    wall_s: float | None = None
    maxrss_mib: float | None = None
    output: str | None = None
    layers: dict | None = None
    versions: dict | None = None


class Launcher:
    """Starts child processes that run gradcv, and collects what they wrote."""

    def __init__(self, src: Path, scratch: Path, deadline: float):
        self.src = src
        self.scratch = scratch
        self.deadline = deadline
        self._n = 0
        self.env = {**os.environ, **BLAS_THREADS}

    def run(self, argv_for, ext: str = "csv", trace: bool = False) -> Run:
        """Run ``argv_for(out_path)`` in a fresh process and wait for it."""
        self._n += 1
        out = str(self.scratch / f"out-{self._n}.{ext}")
        result = f"{out}.result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(self.src), "--result", result]
        cmd += ["--trace"] * trace + ["--", *argv_for(out)]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(self.deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            return Run(exit_code=None)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code == 3:
            raise ProgramUnavailable(f"gradcv cannot be imported from {self.src}")
        try:
            with open(result) as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            return Run(exit_code=code or 1)
        try:
            with open(out) as fh:
                output = fh.read()
        except OSError:
            output = None
        return Run(
            exit_code=res["exit_code"],
            setup_s=res["ready"] - spawned,
            wall_s=res["wall_s"],
            maxrss_mib=res["maxrss_kib"] / 1024.0,
            output=output,
            layers=res.get("layers"),
            versions=res.get("versions"),
        )


class Tally:
    """What one benchmark run measured and checked."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.samples: dict[str, list[float]] = {}
        self.layer_samples: dict[str, list[dict]] = {}  # by thread-count suffix
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprints: set[str] = set()
        self.trace_problems: list[str] = []
        self.versions: dict = {}

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def check(self, run: Run, failures_of) -> Run | None:
        """Gate one output with ``failures_of(text)``; return the run if it was timed."""
        ops = self.workload.ops_per_output
        self.attempted += ops
        if run.exit_code != 0 or run.output is None:
            self.failures += [f"gradcv exited with {run.exit_code}"] * ops
        else:
            self.failures += failures_of(run.output)[:ops]
        return run if run.wall_s is not None else None

    def measured(self, run: Run, failures_of) -> Run | None:
        """``check`` a measured run and record the fingerprint of its output."""
        if run.output is not None:
            self.fingerprints.add(hashlib.sha256(run.output.encode()).hexdigest())
        return self.check(run, failures_of)


def table_gate(w: Workload, seed: int, launcher: Launcher, nproc: int, tally: Tally):
    """Check run for a table workload; returns the gate for its measured outputs.

    The check run is JSON, which carries what the gate needs beyond the CSV,
    at nproc threads, so every measured 1-thread CSV is also compared across
    thread counts. It doubles as the warm-up.
    """
    check = launcher.run(lambda out: w.argv(seed, out, threads=nproc, fmt="json"), ext="json")
    tally.versions = check.versions or {}
    reference: list[tuple] = []

    def check_json(text):
        cells, failures = check_table_json(text, UNBIASED_IDS, w.ops_per_output)
        reference.extend(cells)
        return failures

    tally.check(check, check_json)
    return lambda text: check_table_csv(text, reference, w.ops_per_output)


def fit_gate(w: Workload, seed: int, launcher: Launcher, nproc: int, tally: Tally):
    """Check run for the fit; returns the gate for its measured outputs.

    The check run is the full-length fit, held to acceptance criterion 7;
    every measured, shorter fit must be the start of its trajectory. It
    doubles as the warm-up.
    """
    check = launcher.run(lambda out: w.argv(seed, out, steps=FULL_FIT_STEPS))
    tally.versions = check.versions or {}
    full: list[str] = []

    def check_full(text):
        full.append(text)
        return check_fit_csv(text)

    tally.measured(check, check_full)
    return lambda text: check_fit_prefix(text, full[0] if full else None)


def measure(w: Workload, seed: int, seconds: float, trace: bool, launcher: Launcher, nproc: int,
            tally: Tally) -> None:
    """Check or warm up, then take samples; all of it within ``seconds``.

    A sample is a 1-thread run and, for a workload timed at nproc threads
    too, an nproc run; metrics of the nproc runs carry the suffix
    ``_nproc``. With ``trace`` each run is followed by its traced twin.
    """
    t_end = time.monotonic() + seconds
    gate = (table_gate if w.command == "benchmark" else fit_gate)(w, seed, launcher, nproc, tally)
    thread_counts = {"": 1, "_nproc": nproc} if w.with_nproc else {"": 1}

    def sample():
        for suffix, threads in thread_counts.items():
            def argv(out, threads=threads):
                return w.argv(seed, out, threads=threads)

            run = tally.measured(launcher.run(argv), gate)
            if run:
                tally.add(f"wall{suffix}_s", run.wall_s)
                tally.add("setup_s", run.setup_s)
                tally.add(f"peak_rss{suffix}_mib", run.maxrss_mib)
            if trace:
                traced = tally.measured(launcher.run(argv, trace=True), gate)
                if traced:
                    tally.add(f"traced_wall{suffix}_s", traced.wall_s)
                    tally.layer_samples.setdefault(suffix, []).append(traced.layers)

    _sample_loop(min(t_end, launcher.deadline), sample)


def _sample_loop(t_end: float, sample) -> None:
    """Take samples until ``t_end``, starting one only if at least half of it,
    if it lasts as long as the last, would run by then: on average a run
    ends at ``t_end``. At least one sample is taken.
    """
    while True:
        t0 = time.monotonic()
        sample()
        now = time.monotonic()
        if now + (now - t0) / 2 > t_end:
            return


def summarize(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def end_to_end(tally: Tally) -> dict[str, float]:
    """The contract's end-to-end metrics, then those of the nproc runs, if any."""
    s = tally.samples
    wall = statistics.fmean(s["wall_s"])
    metrics = {
        "setup_s": statistics.median(s["setup_s"]),
        "wall_s": wall,
        "estimates_per_s": tally.workload.estimates_per_output / wall,
        "peak_rss_mib": statistics.median(s["peak_rss_mib"]),
    }
    if "wall_nproc_s" in s:
        wall_nproc = statistics.fmean(s["wall_nproc_s"])
        metrics["wall_nproc_s"] = wall_nproc
        metrics["estimates_nproc_per_s"] = tally.workload.estimates_per_output / wall_nproc
        metrics["peak_rss_nproc_mib"] = statistics.median(s["peak_rss_nproc_mib"])
    return metrics


def per_layer(tally: Tally) -> dict[str, float]:
    """Per-layer metrics of the 1-thread traced runs.

    ``benchmark.worker_util`` is 0 at 1 thread; it is taken from the nproc
    traced runs of a workload that has them.
    """
    samples = tally.layer_samples[""]  # KeyError: no traced run finished
    # median_low: each figure is one traced run's, and counts stay whole
    metrics = {n: statistics.median_low(sample[n] for sample in samples) for n in samples[0]}
    s = tally.samples
    metrics["trace_overhead_frac"] = statistics.fmean(s["traced_wall_s"]) / statistics.fmean(s["wall_s"]) - 1.0
    if "_nproc" in tally.layer_samples:
        metrics["benchmark.worker_util"] = statistics.median_low(
            sample["benchmark.worker_util"] for sample in tally.layer_samples["_nproc"])
    for sample in (x for runs in tally.layer_samples.values() for x in runs):
        if abs(sample["trace_residual_frac"]) > MAX_TRACE_RESIDUAL:
            tally.trace_problems.append(
                f"layer self times leave {sample['trace_residual_frac']:.2%} of the traced wall time unaccounted")
    return metrics


def git_commit(root: Path) -> str:
    # The ceiling keeps git from searching above the checkout for a repository.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def unit_of(name: str) -> str:
    units = {**END_TO_END, **PER_LAYER}
    name = name.replace("_nproc", "")
    if name in units:
        return units[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "frac" if name.endswith(("_frac", "_util")) else "count"


def report(args, tally: Tally, nproc: int, metrics: dict[str, float]) -> list[str]:
    w = tally.workload
    v = tally.versions
    lines = [
        f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"why: {w.why}",
        f"manifest: nproc={nproc} cpu={cpu_model()!r} python={platform.python_version()} "
        f"numpy={v.get('numpy')} blas={v.get('blas')!r} blas_threads={BLAS_THREADS['OPENBLAS_NUM_THREADS']} "
        f"gradcv={v.get('gradcv')} "
        f"commit={git_commit(ROOT)}",
    ]
    for threads in (1, nproc) if w.with_nproc else (1,):
        lines.append(f"argv (threads={threads}): gradcv " + " ".join(w.argv(args.seed, "OUT", threads)))
    for name, values in sorted(tally.samples.items()):
        med, q1, q3 = summarize(values)
        lines.append(f"sample {name}: mean {statistics.fmean(values):.6g}, median {med:.6g}, "
                     f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}")
    for name, value in metrics.items():
        lines.append(f"{name} = {value!r} {unit_of(name)}")
    failed = len(tally.failures)
    lines.append(f"failed_frac = {failed / tally.attempted!r} ({failed} of {tally.attempted} operations)")
    lines += [f"failure: {f}" for f in dict.fromkeys(tally.failures)]
    lines += [f"trace problem: {p}" for p in tally.trace_problems]
    lines += [f"output_sha256 = {h}" for h in sorted(tally.fingerprints)]
    return lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gradcv" / "__init__.py").is_file():
        print(f"perfbench: no gradcv sources under {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    tally = Tally(workload)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        launcher = Launcher(src, Path(scratch), time.monotonic() + DEADLINE_S)
        try:
            measure(workload, args.seed, args.seconds, bool(args.trace), launcher, nproc, tally)
        except ProgramUnavailable as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2

    try:
        all_metrics = per_layer(tally) if args.trace else end_to_end(tally)
    except (KeyError, IndexError):
        print("perfbench: no run of gradcv finished with a measurement", file=sys.stderr)
        for failure in dict.fromkeys(tally.failures):
            print(f"perfbench: {failure}", file=sys.stderr)
        return 1
    contract = PER_LAYER if args.trace else END_TO_END
    for line in report(args, tally, nproc, all_metrics):
        print(line)
    result = {
        "correct": not tally.failures and not tally.trace_problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": all_metrics[name], "unit": unit} for name, unit in contract.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
