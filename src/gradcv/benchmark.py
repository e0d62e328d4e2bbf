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

One loop serves both modes. The ground truths of every setting come first;
then every (setting, chunk) pair is one task, all of them on one thread
pool. At one thread the tasks run in turn and no pool is made: the module
attribute ThreadPoolExecutor imports concurrent.futures only when a table on
more than one worker first reads it. A task reads the chunk's noise streams: a
stream is a noise stream and the estimators that read it. Unpaired, each
estimator has its own stream; paired (--paired), the stream key has no
estimator index, so one stream per chunk serves every estimator. A task
walks each stream in row tiles: it draws the tile's noise and runs each of
its estimators on one shared Draws of q, the target and that noise, the
tile's ingredient cache. The Draws forms the draws x and evaluates the
target's log_p and grad_x once for the tile, and the q-side ingredients
too: eps^2 - 1, the integrand log q - log p, the path residual, and on each
column range the moments of u, of u and the integrand, and of the path
residual. Paired tables thus draw, evaluate the target and compute each
ingredient once per tile for all estimators. A tile holds a fixed number
of draws (see _TILE_DRAWS), so its (rows, S) arrays stay in cache and a
run's memory does not grow with S. Drawing a chunk's noise tile by tile
gives the same numbers as drawing it at once, every kernel treats each row
on its own, and a cached ingredient is the value the kernel would compute
alone, so neither the tiles nor the sharing change any estimate.

A task writes its estimates into one (estimators, 2, rows) buffer and
returns only their moments: per cell, the count, the sums and the sums of
squared deviations of both estimate components and of the weighted squared
error, and the sums of the squared component errors. Each cell merges its
chunks' moments in chunk order, the order in which the pool's map returns
them, so memory is a few chunks per thread whatever the replication count,
and the table does not depend on which task finishes first. _reduce_cell
states what the merge does to the statistics' rounding.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .estimators import ESTIMATOR_IDS, Draws, EstimationError, EstimatorConfig, run_kernel
from .gaussian import GaussianQ, _count, _seed_part, rng_from_seed
from .quadrature import ground_truth_gradient
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
# Draws per row tile, paired and unpaired: a tile has max(1, draws // S)
# rows of S draws, so its (rows, S) ingredients and temporaries take the
# same memory whatever S is, and a row is never split. At the standard
# S = 50 a paired tile has 512 rows and an unpaired one 256. Unpaired, the
# smaller tile cut peak RSS with no resolvable change in time; paired,
# where every estimator pays its per-call cost on each tile, 256 rows ran
# about 1.085x slower, and 1024 rows measured no faster than 512.
_PAIRED_TILE_DRAWS = 512 * 50
_TILE_DRAWS = 256 * 50

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
        # a str is a sequence of one-letter ids, and paired="no" would run the paired table
        if isinstance(self.estimators, str) or not (
            isinstance(self.estimators, Sequence) and all(isinstance(e, str) for e in self.estimators)
        ):
            raise ValueError(f"estimators must be a sequence of estimator ids (str), got {self.estimators!r}")
        if not isinstance(self.paired, (bool, np.bool_)):
            raise ValueError(f"paired must be a bool, got {self.paired!r}")
        if not isinstance(self.target, str):
            raise ValueError(f"target must be a str, got {self.target!r}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        _count("replications", self.replications)
        # base_seed heads every stream key (chunk_stream_key), so it is one key part
        if _seed_part(self.base_seed) is None:
            raise ValueError(f"base_seed must be an int (not a bool) or a str label, got {self.base_seed!r}")
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
    """One cell's statistics.

    run_benchmark leaves note empty, since every estimator of its spec
    runs. note and ok stay for tables built by hand (format_mse_table shows a
    noted row as "n/a"), for the JSON schema, which writes "note", and for
    perfbench's gate (perfbench/gate.py), which fails a cell whose note is
    non-empty.
    """

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


class _Moments(NamedTuple):
    """Running statistics of a setting's cells over count rows, one row of sums and m2 per cell.

    sums has the columns (est1, est2, weighted squared error, squared error 1,
    squared error 2); m2 the sums of squared deviations from the mean of the
    first three.
    """

    count: int
    sums: np.ndarray
    m2: np.ndarray


def _sq_dev_sums(x: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Sums of squared deviations from the means sums / n along x's last axis, as np.var forms them.

    x is overwritten.
    """
    x -= (sums / x.shape[-1])[:, None]
    x *= x
    return x.sum(axis=-1)


def _chunk_moments(est: np.ndarray, gt: np.ndarray) -> _Moments:
    """The moments of a chunk's (cells, 2, rows) estimates of one setting, whose gradient is gt.

    Every reduction runs over the contiguous last axis, which numpy sums
    pairwise in one pass, and forms what np.mean and np.std form, so a
    one-chunk cell's statistics are theirs on its columns bit for bit. est
    is overwritten, and once its first component is reduced that component
    is scratch, so the reduction allocates two arrays of a component's size
    and stays below the memory peak of the chunk's tiles.
    """
    n = est.shape[-1]
    sums, m2 = np.empty((len(est), 5)), np.empty((len(est), 3))
    with np.errstate(over="ignore", invalid="ignore"):
        sums[:, :2] = est.sum(axis=-1)
        err = est[:, 0] - gt[0]
        weighted = MSE_WEIGHTS[0] * err
        weighted *= err
        err *= err
        sums[:, 3] = err.sum(axis=-1)
        m2[:, 0] = _sq_dev_sums(est[:, 0], sums[:, 0])
        np.subtract(est[:, 1], gt[1], out=err)
        term = np.multiply(MSE_WEIGHTS[1], err, out=est[:, 0])
        term *= err
        weighted += term
        err *= err
        sums[:, 4] = err.sum(axis=-1)
        m2[:, 1] = _sq_dev_sums(est[:, 1], sums[:, 1])
        sums[:, 2] = weighted.sum(axis=-1)
        m2[:, 2] = _sq_dev_sums(weighted, sums[:, 2])
    return _Moments(n, sums, m2)


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """The moments of a's rows followed by b's: the pairwise update of Chan, Golub & LeVeque (1979)."""
    count = a.count + b.count
    with np.errstate(over="ignore", invalid="ignore"):
        delta = b.sums[:, :3] / b.count - a.sums[:, :3] / a.count
        m2 = a.m2 + b.m2 + delta * delta * (a.count * b.count / count)
    return _Moments(count, a.sums + b.sums, m2)


def _chunk_estimates(spec: BenchmarkSpec, q: GaussianQ, target: Target, setting_idx: int, chunk_idx: int) -> np.ndarray:
    """One chunk's estimates, (estimators, 2, rows): row j is estimator j of spec.estimators.

    Unpaired, estimator j reads stream j; paired, every estimator reads stream 0.
    """
    n_coef = EstimatorConfig(total_samples=spec.samples, cv_split=spec.cv_split).split_sizes()[0]
    rows = min(_CHUNK, spec.replications - chunk_idx * _CHUNK)
    tile = max(1, (_PAIRED_TILE_DRAWS if spec.paired else _TILE_DRAWS) // spec.samples)
    est = np.empty((len(spec.estimators), 2, rows))
    # (stream index, the estimators that read the stream)
    streams = [(0, range(len(est)))] if spec.paired else [(j, (j,)) for j in range(len(est))]
    for stream_idx, members in streams:
        rng = rng_from_seed(chunk_stream_key(spec.base_seed, setting_idx, stream_idx, chunk_idx, spec.paired))
        for lo in range(0, rows, tile):
            draws = Draws(q, target, rng.standard_normal((min(tile, rows - lo), spec.samples)))
            for j in members:
                est[j, :, lo:lo + len(draws)] = run_kernel(spec.estimators[j], q, target, draws, n_coef).T
    return est


def run_benchmark(spec: BenchmarkSpec, threads: int = 1) -> MseTable:
    """Fill the estimator-by-setting MSE table on threads workers, a count (gaussian._count).

    Every estimator of the spec runs in every setting. Every target that
    resolve_target builds has grad_x and hess_x; a Target without a
    derivative that an estimator needs fails the run with run_kernel's
    CapabilityError. A non-finite estimate or cell statistic is an
    EstimationError: no cell is NaN. Output is deterministic given the spec,
    independent of the thread count.
    """
    threads = _count("threads", threads)
    target = resolve_target(spec.target)
    qs = [GaussianQ(mu, sigma2) for mu, sigma2 in spec.settings]
    gts = [ground_truth_gradient(q, target) for q in qs]
    n_chunks = -(-spec.replications // _CHUNK)
    tasks = [(setting_idx, chunk_idx) for setting_idx in range(len(qs)) for chunk_idx in range(n_chunks)]

    def run(task) -> _Moments:
        setting_idx, chunk_idx = task
        est = _chunk_estimates(spec, qs[setting_idx], target, setting_idx, chunk_idx)
        return _chunk_moments(est, gts[setting_idx])

    serial = threads == 1 or len(tasks) < 2
    rows = []
    # the pool class is read off the module, so a class assigned to it is the one entered
    with nullcontext() if serial else sys.modules[__name__].ThreadPoolExecutor(max_workers=threads) as pool:
        # map yields in task order, so each cell merges its chunks in chunk order
        chunks = map(run, tasks) if serial else pool.map(run, tasks)
        try:
            for (mu, sigma2), gt in zip(spec.settings, gts):
                cells = functools.reduce(_merge, itertools.islice(chunks, n_chunks))
                for j, est_id in enumerate(spec.estimators):
                    rows.append(_cell_row(est_id, mu, sigma2, cells, j, gt))
        except BaseException:
            # a failed cell ends the run: the later settings' tasks not yet started never start
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            raise
    return MseTable(spec=spec, rows=tuple(rows))


def __getattr__(name: str):
    """ThreadPoolExecutor, imported on first use: only a table on more than one worker runs a pool."""
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cell_row(est_id: str, mu: float, sigma2: float, cells: _Moments, j: int, gt: np.ndarray) -> MseRow:
    """The row of cell j of the merged moments; a non-finite statistic is an EstimationError."""
    n = cells.count
    with np.errstate(over="ignore", invalid="ignore"):
        mean = cells.sums[j] / n
        se = np.sqrt(cells.m2[j] / (n - 1)) / np.sqrt(n) if n > 1 else np.zeros(3)
    stats = {"mse": float(mean[2]), "mse_stderr": float(se[2]), "mean_bias": mean[:2] - gt, "mean_se": se[:2],
             "mse_components": mean[3:]}
    bad = [f"{name}={np.asarray(value).tolist()}" for name, value in stats.items() if not np.isfinite(value).all()]
    if bad:
        raise EstimationError(
            f"non-finite cell statistics of {est_id!r} at mu={mu:g}, sigma2={sigma2:g}: {', '.join(bad)}"
        )
    return MseRow(estimator=est_id, mu=mu, sigma2=sigma2, ground_truth=gt, replications=n, **stats)


def _reduce_cell(est_id: str, mu: float, sigma2: float, est: np.ndarray, gt: np.ndarray) -> MseRow:
    """The statistics of one cell's (n, 2) estimates, reduced as run_benchmark reduces a cell.

    Each chunk of 4096 rows is reduced in one pass of numpy's pairwise sums,
    and the chunks' sums and sums of squared deviations merge in chunk order
    by the pairwise update of Chan, Golub & LeVeque (1979). A one-chunk
    cell's statistics are np.mean and np.std of its columns bit for bit. The
    means of a two-chunk cell are too, since numpy splits a sum of 8192 at
    4096; each further chunk adds one rounding of about eps * |sum|. A
    merged standard deviation is the two-pass one up to rounding of the same
    order. Sums of the (n, 2) block along axis 0 would instead run
    sequentially, erring by n * eps * max|estimate|.
    """
    chunks = (_chunk_moments(est[lo:lo + _CHUNK].T.copy()[None], gt)
              for lo in range(0, len(est), _CHUNK))
    return _cell_row(est_id, mu, sigma2, functools.reduce(_merge, chunks), 0, gt)


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
