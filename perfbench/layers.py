"""Outside-in layer tracing of gradcv, and the per-layer metrics it yields.

``install`` wraps, from outside the package, the public functions of each
layer module in spans; ``src/gradcv`` itself is not edited. A layer is a
module, and a call's time belongs to the module that defines the function.
``diagnostics`` is left out: it is a check suite, not a path users time.

What is wrapped, besides every function in a module's ``__all__``:

* the public methods of ``GaussianQ`` (score, path Jacobian, density, ...);
* ``rng_from_seed``, whose span is generator construction, and which returns
  a proxy that times ``standard_normal`` as the RNG fill and counts draws;
* the ``log_p``/``grad_x``/``hess_x`` callables of every resolved target,
  which count the points they evaluate;
* ``run_kernel``, whose span is named after the estimator id it runs;
* the benchmark's ``ThreadPoolExecutor``, whose span covers the pool's life
  and whose tasks run as children of it on the worker threads.

Every module binding of a wrapped function is replaced, so calls through an
imported name (``from .estimators import run_kernel``) are traced too.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import types
from collections import defaultdict

from spans import Tracer, handed_off_time, overlap_time, self_times
from workloads import ESTIMATOR_IDS

LAYERS = ("cli", "benchmark", "estimators", "gaussian", "targets", "quadrature", "optimize")
GAUSSIAN_METHODS = (
    "suff_stats", "suff_stat_mean", "log_density", "score_eta", "score_x",
    "exact_suffstat_cov", "reparameterize", "path_jacobian",
)
TARGET_CALLABLES = ("log_p", "grad_x", "hess_x")

# Per-layer metrics reported by name, from the self time of one span name.
SPAN_METRICS = {
    "gaussian.rng_fill_s": "gaussian.rng_fill",
    "gaussian.rng_construct_s": "gaussian.rng_construct",
    "gaussian.score_eta_s": "gaussian.score_eta",
    "gaussian.path_jacobian_s": "gaussian.path_jacobian",
    "gaussian.log_density_s": "gaussian.log_density",
    "gaussian.reparameterize_s": "gaussian.reparameterize",
    "gaussian.from_natural_s": "gaussian.from_natural",
    "targets.log_p_s": "targets.log_p",
    "targets.grad_x_s": "targets.grad_x",
    "targets.hess_x_s": "targets.hess_x",
    "estimators.estimate_self_s": "estimators.estimate",
    "quadrature.ground_truth_s": "quadrature.ground_truth_gradient",
    "quadrature.kl_divergence_s": "quadrature.kl_divergence",
    **{f"estimators.kernel_self_s.{e}": f"estimators.kernel.{e}" for e in ESTIMATOR_IDS},
}
COUNTS = (
    "gaussian.draws", "gaussian.rng_constructs", "targets.points",
    "estimators.rows", "estimators.estimate_calls", "quadrature.calls",
)


def _spanned(tracer: Tracer, name: str, fn, counts: tuple[str, ...] = ()):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for count in counts:
            tracer.count(count, 1)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _point_counting(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(x):
        tracer.count("targets.points", getattr(x, "size", 1))
        idx = tracer.open(name)
        try:
            return fn(x)
        finally:
            tracer.close(idx)

    wrapper.perfbench_traced = True
    return wrapper


def _traced_target(tracer: Tracer, target):
    if getattr(target.log_p, "perfbench_traced", False):
        return target
    return dataclasses.replace(target, **{
        field: _point_counting(tracer, f"targets.{field}", getattr(target, field))
        for field in TARGET_CALLABLES
        if getattr(target, field) is not None
    })


def _target_factory(tracer: Tracer, name: str, factory):
    spanned = _spanned(tracer, f"targets.{name}", factory)

    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        return _traced_target(tracer, spanned(*args, **kwargs))

    return wrapper


class _TracedGenerator:
    """Proxy for a numpy Generator that times and counts ``standard_normal``."""

    def __init__(self, tracer: Tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def standard_normal(self, *args, **kwargs):
        idx = self._tracer.open("gaussian.rng_fill")
        try:
            out = self._generator.standard_normal(*args, **kwargs)
        finally:
            self._tracer.close(idx)
        self._tracer.count("gaussian.draws", getattr(out, "size", 1))
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


def _traced_executor(tracer: Tracer, base):
    class TracedThreadPoolExecutor(base):
        def __enter__(self):
            self._perfbench_span = tracer.open("benchmark.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._perfbench_span)

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def task(*a, **k):
                with tracer.inherit(parent):
                    return fn(*a, **k)

            return super().submit(task, *args, **kwargs)

    return TracedThreadPoolExecutor


def install(tracer: Tracer) -> None:
    """Wrap gradcv's layer functions in spans recorded by ``tracer``."""
    package = importlib.import_module("gradcv")
    modules = {layer: importlib.import_module(f"gradcv.{layer}") for layer in LAYERS}

    wrappers: dict[int, object] = {}
    for layer, mod in modules.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = _spanned(tracer, f"{layer}.{name}", fn)

    estimators, gaussian, targets, quadrature = (
        modules["estimators"], modules["gaussian"], modules["targets"], modules["quadrature"])

    run_kernel = estimators.run_kernel

    @functools.wraps(run_kernel)
    def traced_run_kernel(estimator_id, q, t, x, *args, **kwargs):
        tracer.count("estimators.rows", len(x))
        idx = tracer.open(f"estimators.kernel.{estimator_id}")
        try:
            return run_kernel(estimator_id, q, t, x, *args, **kwargs)
        finally:
            tracer.close(idx)

    wrappers[id(run_kernel)] = traced_run_kernel

    # estimate() computes one row per call
    wrappers[id(estimators.estimate)] = _spanned(
        tracer, "estimators.estimate", estimators.estimate,
        counts=("estimators.estimate_calls", "estimators.rows"))

    rng_from_seed = gaussian.rng_from_seed

    @functools.wraps(rng_from_seed)
    def traced_rng_from_seed(seed):
        tracer.count("gaussian.rng_constructs", 1)
        idx = tracer.open("gaussian.rng_construct")
        try:
            return _TracedGenerator(tracer, rng_from_seed(seed))
        finally:
            tracer.close(idx)

    wrappers[id(rng_from_seed)] = traced_rng_from_seed

    for name in ("resolve_target", "logistic_target", "gaussian_target"):
        factory = getattr(targets, name)
        wrappers[id(factory)] = _target_factory(tracer, name, factory)

    for name in ("ground_truth_gradient", "kl_divergence"):
        fn = getattr(quadrature, name)
        wrappers[id(fn)] = _spanned(tracer, f"quadrature.{name}", fn, counts=("quadrature.calls",))

    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])

    cls = gaussian.GaussianQ
    for name in GAUSSIAN_METHODS:
        setattr(cls, name, _spanned(tracer, f"gaussian.{name}", getattr(cls, name)))

    benchmark = modules["benchmark"]
    benchmark.ThreadPoolExecutor = _traced_executor(tracer, benchmark.ThreadPoolExecutor)


def layer_metrics(tracer: Tracer, wall_ns: int, nproc: int) -> dict[str, float]:
    """Per-layer metrics of one traced run whose ``cli.main`` took ``wall_ns``.

    Times are self times in seconds, summed over threads. Self times add up
    to the wall time plus the time pool tasks overlapped one another;
    ``trace_residual_frac`` is the share of the wall time they leave
    unaccounted, which is near zero when every span nests inside ``cli.main``.
    ``benchmark.worker_util`` is the time spans ran on pool threads over
    nproc x wall.
    """
    parent, thread, start, end = tracer.parent, tracer.thread, tracer.start, tracer.end
    selfs = self_times(parent, thread, start, end)
    by_name: dict[str, int] = defaultdict(int)
    for nid, t in zip(tracer.name_id, selfs):
        by_name[tracer.names[nid]] += t
    by_layer = {layer: 0 for layer in LAYERS}
    for name, t in by_name.items():
        by_layer[name.split(".", 1)[0]] += t

    metrics = {f"{layer}.self_s": t / 1e9 for layer, t in by_layer.items()}
    metrics.update({metric: by_name.get(span, 0) / 1e9 for metric, span in SPAN_METRICS.items()})
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    metrics["benchmark.worker_util"] = handed_off_time(parent, thread, start, end) / (nproc * wall_ns)
    accounted = sum(selfs) - overlap_time(parent, thread, start, end)
    metrics["trace_residual_frac"] = (wall_ns - accounted) / wall_ns
    return metrics
