"""Replication benchmark: MSE of every estimator against the quadrature oracle.

Each (estimator, setting) cell runs R independent replications of the
estimator at a fixed draw budget and reports the mean squared error of
the estimates against the exact gradient, with a Monte Carlo standard
error and the mean bias.

Reported MSEs score the gradient taken with respect to the parameters
(mu/sigma2, 1/sigma2). In the internal (x, x^2) natural coordinates the
second gradient component is twice that one, so its squared error enters
the MSE with weight 1/4. Per-component unweighted MSEs are kept on every
row for diagnosis.

Randomness is counter-based and chunked: replications are processed in
fixed chunks of 4096, and the noise for a chunk is a pure function of
(base_seed, setting index, estimator index, chunk index). Results are
therefore bit-identical across runs and across worker counts.

One loop serves both modes. For each setting, every (stream, chunk) pair
is one task, run on the thread pool: a stream is a noise stream and the
estimators that read it. Unpaired, each estimator has its own stream;
paired (--paired), the stream key has no estimator index, so one stream
per chunk serves every estimator. A task walks its chunk in row tiles: it
draws the tile's noise and runs each of its estimators on one shared Draws
of q, the target and that noise, the tile's ingredient cache. The Draws
forms the draws x and evaluates the target's log_p and grad_x once for the
tile, and the q-side ingredients too: eps^2 - 1, the integrand
log q - log p, the path residual, and on each column range the moments of
u, of u and the integrand, and of the path residual. Paired tables thus
draw, evaluate the target and compute each ingredient once per tile for all
estimators. Tiles have 512 rows in both modes, which keeps a tile's
(rows, S) arrays in cache. Drawing a chunk's noise tile by tile
gives the same numbers as drawing it at once, every kernel treats each
row on its own, and a cached ingredient is the value the kernel would
compute alone, so neither the tiles nor the sharing change any estimate.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .estimators import (
    ESTIMATOR_IDS, ESTIMATORS, CapabilityError, Draws, EstimationError, EstimatorConfig, run_kernel,
)
from .gaussian import GaussianQ, _count, rng_from_seed
from .quadrature import gauss_hermite_rule, ground_truth_gradient
from .targets import Target, resolve_target

__all__ = [
    "MSE_WEIGHTS",
    "DEFAULT_SETTINGS",
    "BenchmarkSpec",
    "MseRow",
    "MseTable",
    "run_benchmark",
    "bias_decomposition",
    "chunk_stream_key",
    "mse_table_to_csv",
    "mse_table_to_json",
    "format_mse_table",
]

MSE_WEIGHTS = np.array([1.0, 0.25])
MSE_WEIGHTS.setflags(write=False)

DEFAULT_SETTINGS: tuple[tuple[float, float], ...] = ((0.0, 2.0), (-2.0, 2.0), (2.0, 2.0), (0.0, 4.0))

_CHUNK = 4096
# Rows per kernel call within a chunk, a divisor of _CHUNK, paired or not:
# 512 rows keep a tile's (rows, S) ingredients and temporaries small enough
# to stay in cache. Paired tiles of 1024 rows, which spread each kernel's
# per-call cost over twice the rows, measured no faster.
_TILE = 512

_CSV_HEADER = "estimator,mu,sigma2,mse,mse_stderr,bias1,bias2,gt1,gt2,replications"


@dataclass(frozen=True)
class BenchmarkSpec:
    settings: tuple[tuple[float, float], ...] = DEFAULT_SETTINGS
    estimators: tuple[str, ...] = ESTIMATOR_IDS
    replications: int = 100_000
    samples: int = EstimatorConfig.total_samples
    cv_split: float = EstimatorConfig.cv_split
    base_seed: int = 0
    target: str = "logistic"
    paired: bool = False

    def __post_init__(self):
        # GaussianQ checks each setting, so a bad one fails here, before any cell runs
        qs = [GaussianQ(m, s) for m, s in self.settings]
        object.__setattr__(self, "settings", tuple((q.mu, q.sigma2) for q in qs))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        _count("replications", self.replications)
        for name, items in (("settings", self.settings), ("estimators", self.estimators)):
            if not items:
                raise ValueError(f"{name} must be non-empty")
            repeated = [item for i, item in enumerate(items) if item in items[:i]]
            if repeated:
                raise ValueError(f"{name} must not repeat, got {repeated[0]!r} twice")
        # validates the estimator ids, budget, split feasibility, and target name up front
        for est in self.estimators:
            EstimatorConfig(total_samples=self.samples, cv_split=self.cv_split, estimator_id=est)
        resolve_target(self.target)


@dataclass(frozen=True)
class MseRow:
    estimator: str
    mu: float
    sigma2: float
    mse: float
    mse_stderr: float
    mean_bias: np.ndarray
    ground_truth: np.ndarray
    replications: int
    mean_se: np.ndarray
    mse_components: np.ndarray
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.note


@dataclass(frozen=True)
class MseTable:
    spec: BenchmarkSpec
    rows: tuple[MseRow, ...]


def chunk_stream_key(base_seed: int, setting_idx: int, estimator_idx: int, chunk_idx: int, paired: bool) -> tuple:
    """Entropy key of the noise stream for one chunk of replications.

    Paired mode drops the estimator index so every estimator in a
    replication sees the same draws where budgets allow; otherwise each
    cell has its own streams.
    """
    if paired:
        return (base_seed, setting_idx, chunk_idx)
    return (base_seed, setting_idx, estimator_idx, chunk_idx)


def _setting_estimates(
    spec: BenchmarkSpec, q: GaussianQ, target: Target, setting_idx: int, runnable: list[int], threads: int
) -> np.ndarray:
    """Replication estimates of one setting, (estimators, replications, 2).

    Only the estimators at the indices in runnable are run; the rows of
    the others are left unset.
    """
    n_coef = EstimatorConfig(total_samples=spec.samples, cv_split=spec.cv_split).split_sizes()[0]
    est = np.empty((len(spec.estimators), spec.replications, 2))
    # (stream index, the estimators that read the stream)
    streams = [(0, runnable)] if spec.paired else [(i, [i]) for i in runnable]
    n_chunks = -(-spec.replications // _CHUNK)
    tasks = [(stream, chunk_idx) for stream in streams if stream[1] for chunk_idx in range(n_chunks)]

    def run(task) -> None:
        (stream_idx, members), chunk_idx = task
        rng = rng_from_seed(chunk_stream_key(spec.base_seed, setting_idx, stream_idx, chunk_idx, spec.paired))
        stop = min((chunk_idx + 1) * _CHUNK, spec.replications)
        for lo in range(chunk_idx * _CHUNK, stop, _TILE):
            draws = Draws(q, target, rng.standard_normal((min(_TILE, stop - lo), spec.samples)))
            for i in members:
                est[i, lo:lo + len(draws)] = run_kernel(spec.estimators[i], q, target, draws, n_coef)

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, tasks))
    else:
        for task in tasks:
            run(task)
    return est


def run_benchmark(spec: BenchmarkSpec, threads: int = 1) -> MseTable:
    """Fill the estimator-by-setting MSE table on threads workers, a count (gaussian._count).

    Estimators that need target derivatives the target does not provide
    produce an "n/a" row instead of failing the whole run. A non-finite
    estimate or cell statistic is an EstimationError: no computed cell is
    NaN. Output is deterministic given the spec, independent of the thread
    count.
    """
    threads = _count("threads", threads)
    target = resolve_target(spec.target)
    rule = gauss_hermite_rule()
    notes = {}
    for est_id in spec.estimators:
        try:
            ESTIMATORS[est_id].check(target)
        except CapabilityError as err:
            notes[est_id] = f"n/a: {err}"
    runnable = [i for i, est_id in enumerate(spec.estimators) if est_id not in notes]
    rows = []
    for setting_idx, (mu, sigma2) in enumerate(spec.settings):
        q = GaussianQ(mu, sigma2)
        gt = ground_truth_gradient(q, target, rule)
        est = _setting_estimates(spec, q, target, setting_idx, runnable, threads)
        for i, est_id in enumerate(spec.estimators):
            if est_id not in notes:
                rows.append(_reduce_cell(est_id, mu, sigma2, est[i], gt))
                continue
            rows.append(MseRow(
                estimator=est_id, mu=mu, sigma2=sigma2,
                mse=float("nan"), mse_stderr=float("nan"),
                mean_bias=np.full(2, np.nan), ground_truth=gt,
                replications=spec.replications,
                mean_se=np.full(2, np.nan), mse_components=np.full(2, np.nan),
                note=notes[est_id],
            ))
    return MseTable(spec=spec, rows=tuple(rows))


def _reduce_cell(est_id: str, mu: float, sigma2: float, est: np.ndarray, gt: np.ndarray) -> MseRow:
    """The statistics of one cell's (n, 2) estimates; overflow in them is an EstimationError.

    Each component is reduced as its own 1-D column view, which numpy sums
    pairwise in one pass; reducing the (n, 2) block along either axis runs
    an inner loop of length 2, and along axis 0 sums sequentially. The
    per-row weighted squared error is the expression of the block form, so
    mse and mse_stderr are the same either way; the column means and
    standard deviations err by about log2(n) * eps * max|estimate| at
    worst, where sequential sums err by n * eps * max|estimate|.
    """
    n = est.shape[0]
    cols = (est[:, 0], est[:, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        err = [col - g for col, g in zip(cols, gt)]
        weighted = (MSE_WEIGHTS[0] * err[0]) * err[0] + (MSE_WEIGHTS[1] * err[1]) * err[1]
        mse = float(weighted.mean())
        mse_stderr = float(weighted.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        mean_bias = np.array([col.mean() for col in cols]) - gt
        mean_se = np.array([col.std(ddof=1) for col in cols]) / np.sqrt(n) if n > 1 else np.zeros(2)
        mse_components = np.array([(e * e).mean() for e in err])
    stats = {"mse": mse, "mse_stderr": mse_stderr, "mean_bias": mean_bias, "mean_se": mean_se,
             "mse_components": mse_components}
    bad = [f"{name}={np.asarray(value).tolist()}" for name, value in stats.items() if not np.isfinite(value).all()]
    if bad:
        raise EstimationError(
            f"non-finite cell statistics of {est_id!r} at mu={mu:g}, sigma2={sigma2:g}: {', '.join(bad)}"
        )
    return MseRow(estimator=est_id, mu=mu, sigma2=sigma2, ground_truth=gt, replications=n, **stats)


def bias_decomposition(rows) -> list[tuple[float, float]]:
    """Per row: (squared bias, variance), both in the reported MSE weighting.

    variance = mse - squared_bias, floored at zero.
    """
    out = []
    for row in rows:
        sq_bias = float((MSE_WEIGHTS * row.mean_bias * row.mean_bias).sum())
        out.append((sq_bias, max(row.mse - sq_bias, 0.0)))
    return out


# ---------------------------------------------------------------------------
# output formats


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def mse_table_to_csv(table: MseTable, per_component: bool = False) -> str:
    header = _CSV_HEADER + (",mse_eta1,mse_eta2" if per_component else "")
    lines = [header]
    for r in table.rows:
        cells = [
            r.estimator, _fmt(r.mu), _fmt(r.sigma2), _fmt(r.mse), _fmt(r.mse_stderr),
            _fmt(r.mean_bias[0]), _fmt(r.mean_bias[1]),
            _fmt(r.ground_truth[0]), _fmt(r.ground_truth[1]), str(r.replications),
        ]
        if per_component:
            cells += [_fmt(r.mse_components[0]), _fmt(r.mse_components[1])]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def mse_table_to_json(table: MseTable) -> str:
    """The spec and every row, keyed by their field names in field order; arrays as lists, numpy ints as ints."""
    payload = {"spec": asdict(table.spec), "rows": [asdict(r) for r in table.rows]}
    return json.dumps(payload, indent=2, allow_nan=True, default=lambda value: value.tolist()) + "\n"


def format_mse_table(table: MseTable, per_component: bool = False) -> str:
    """Pretty estimator-by-setting text table, one MSE per cell."""
    settings = list(table.spec.settings)
    by_cell = {(r.estimator, (r.mu, r.sigma2)): r for r in table.rows}
    headers = [f"mu={m:g}, s2={s:g}" for m, s in settings]
    name_w = max([len("estimator")] + [len(e) for e in table.spec.estimators])
    col_w = max([22 if per_component else 12] + [len(h) + 2 for h in headers])

    def cell_text(row: MseRow | None) -> str:
        if row is None or not row.ok:
            return "n/a"
        if per_component:
            return f"{row.mse_components[0]:.4g}/{row.mse_components[1]:.4g}"
        return f"{row.mse:.4f}"

    lines = ["estimator".ljust(name_w) + "".join(h.rjust(col_w) for h in headers)]
    lines.append("-" * (name_w + col_w * len(headers)))
    for est in table.spec.estimators:
        cells = [cell_text(by_cell.get((est, s))) for s in settings]
        lines.append(est.ljust(name_w) + "".join(c.rjust(col_w) for c in cells))
    return "\n".join(lines) + "\n"
