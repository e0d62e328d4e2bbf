"""The benchmark's workloads: the gradcv command line each one runs, and why.

Every workload goes through the public entry point ``gradcv.cli.main`` with
an argv generated here from the benchmark's ``--seed``; the program sees
nothing else. The argv spells out every setting, so a later change to a
command-line default does not silently change what is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

# The ten estimator ids, in the order of the paper's table. Kept here rather
# than read from the package so the workload cannot drift with the registry.
ESTIMATOR_IDS = (
    "simple", "cov", "cv-ideal", "cv-regression", "cv-ideal-grad",
    "ranganath-cv", "delta-method", "kingma-reparam", "greg-samplecov", "greg-pathgrad",
)
BIASED_IDS = ("greg-samplecov", "greg-pathgrad")
UNBIASED_IDS = tuple(e for e in ESTIMATOR_IDS if e not in BIASED_IDS)

SETTINGS = "0:2,-2:2,2:2,0:4"
CELLS = len(ESTIMATOR_IDS) * len(SETTINGS.split(","))

# Two full chunks of the benchmark's 4096-replication chunking per cell, so a
# 2-thread run splits every cell evenly. Large enough that per-draw work
# (kernels, RNG fill, logistic log_p/grad_x) dominates the run.
TABLE_REPS = 8192

# The 20k-step fit of the project's roadmap and of acceptance criterion 7.
# Each benchmark run makes it once, as its check and warm-up run.
FULL_FIT_STEPS = 20_000
# The timed fits are the first 2k steps of the same fit: same per-step work,
# a tenth of the length, so a run takes about ten times as many samples and
# their median evens out the host's swings in speed. With the same seed a
# shorter fit follows the full one's trajectory, so its output is checked
# line for line against the full fit's.
FIT_STEPS = 2_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "benchmark" or "fit"
    paired: bool = False
    # also time the run at --threads nproc, alongside the 1-thread runs
    with_nproc: bool = False

    @property
    def ops_per_output(self) -> int:
        """Operations one output holds: a table cell each, or one fit run."""
        return CELLS if self.command == "benchmark" else 1

    @property
    def estimates_per_output(self) -> int:
        """Gradient estimates one run computes."""
        return CELLS * TABLE_REPS if self.command == "benchmark" else FIT_STEPS

    def argv(self, seed: int, out: str, threads: int = 1, fmt: str = "csv",
             steps: int = FIT_STEPS) -> list[str]:
        """The gradcv argv for one run writing its output to ``out``."""
        if self.command == "benchmark":
            argv = [
                "benchmark", "--target", "logistic", "--settings", SETTINGS,
                "--estimators", ",".join(ESTIMATOR_IDS), "--samples", "50", "--split", "0.5",
                "--reps", str(TABLE_REPS), "--seed", str(seed), "--threads", str(threads),
                "--format", fmt, "--out", out,
            ]
            return argv + ["--paired"] if self.paired else argv
        return [
            "fit", "--target", "gaussian:1:3", "--estimator", "cv-regression",
            "--mu", "0", "--sigma2", "1", "--step0", "0.05", "--decay", "0.51",
            "--samples", "50", "--split", "0.5", "--iterations", str(steps),
            "--record-every", "10", "--seed", str(seed), "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's deliverable, the replication MSE table. Its time goes to
        # per-draw work: kernels, RNG fill, logistic log_p/grad_x. Timed at 1
        # thread and, in alternate runs, at nproc threads: the only workload
        # that uses the thread pool, so pool overhead and load balance show in
        # its nproc figures.
        Workload(
            "table",
            "the paper's MSE table (10 estimators x 4 settings, unpaired) at 1 and at nproc threads: "
            "per-draw kernel, RNG and log_p/grad_x work, and the thread pool",
            "benchmark",
            with_nproc=True,
        ),
        # Same work as `table` today. Sharing draws or per-draw ingredients
        # across estimators moves this one while `table` bypasses it.
        Workload(
            "table-paired",
            "the same table with --paired at 1 thread, where estimators share draws: exercises "
            "cross-estimator sharing that the unpaired table bypasses",
            "benchmark",
            paired=True,
        ),
        # One 50-draw row per estimator call: per-call overhead, not per-draw
        # arithmetic, is the cost. Kernel set-up added for the tables shows here.
        # The timed runs are the first FIT_STEPS steps of the 20k-step fit.
        Workload(
            "fit",
            "the first 2k of the 20k-step cv-regression fit of gaussian:1:3: one 50-draw row per call, so per-call "
            "overhead in estimate(), validation and seeding dominates",
            "fit",
        ),
    )
}
