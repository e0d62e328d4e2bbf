"""Stochastic estimators of the KL gradient for a Gaussian approximation.

All ten methods estimate the same 2-vector, the eta-gradient of
E_q[log q(x) - log p(x)], from a fixed budget of draws. They differ in
how aggressively they cancel Monte Carlo noise:

* simple            plain score-function (REINFORCE) average
* cov               sample-covariance form with the score centered by
                    its sample mean
* cv-ideal          covariance form minus control variates built from
                    the sampling error of the score covariance, with a
                    per-component fitted coefficient vector
* cv-regression     same control variates with one shared coefficient
                    vector, the regression / natural-gradient solve
* cv-ideal-grad     cv-ideal with every covariance term estimated by
                    differentiating the sampler path (requires grad_x)
* ranganath-cv      per-component scalar control variate h_i = score_i
* delta-method      score-function estimator applied to log p minus its
                    second-order Taylor expansion about mu, analytic rest
* kingma-reparam    sampler-path derivative of the Monte Carlo sum of
                    log q - log p with the integrand held fixed
* greg-samplecov    exact score covariance times the regression solve of
                    two sample covariances from the same draws (biased)
* greg-pathgrad     greg-samplecov with both covariances estimated by
                    sampler-path differentiation (biased)

Control-variate methods consume two disjoint batches (coefficients are
fitted on one, the gradient evaluated on the other) so that the final
estimate stays unbiased; the remaining methods consume one batch.

The registry ESTIMATORS is the one place an estimator is wired up. Its
EstimatorInfo holds the method's vectorized kernel, whether the budget is
split, the fewest draws per batch, the target derivatives it needs and
whether it is unbiased. Every kernel has the signature

    kernel(coef, ev, with_aux) -> ((..., 2), aux)

where coef and ev are the coefficient and evaluation halves of one Draws,
built from q, the target and standard-normal noise eps of shape (..., S),
one row of S draws per independent replication: an (R, S) tile of R rows,
or one (S,) row. Split-budget methods fit coefficients on coef and
evaluate on ev; the rest get coef None and the whole Draws as ev. aux maps
diagnostic names to per-row values, of shape (..., *): the fallback and
zero-variance masks, which come out of the solves, and, only when with_aux
is true, the derived coefficients (alpha, g_nat, coef), which cost their
own L^-T maps and stacks. run_kernel is the one dispatch, and a Draws
its one input: it checks q and the target's capabilities, splits the
columns, calls the kernel with overflow not warned about, and raises
EstimationError on a non-finite estimate. The benchmark runs every
estimator of a tile of rows on one Draws through it, and the fit runs one
(S,) row per step. estimate() and the est_* functions run one (S,) row
through _row, their one path to run_kernel: it checks the draw
floor and that each DrawBatch is of q (a DrawBatch derives its draws from
its own q and noise, and the kernels read the noise, so a batch of another
q is an error), and lays the batches' noise side by side in one row.
estimate() draws its batches with q.sample. The est_* functions are
generated from the registry and carry their kernel's docstring. Every
kernel treats each row on its own, so an estimate does not depend on which
rows share its call.

The kernels are written as two-component arithmetic on (..., S) arrays,
one array per component, following the regression view in which every
estimator is a function of a few per-draw quantities. All ten work in the
standardized score u = (eps, u1), with u1 = eps^2 - 1. The eta score is
s = (x - mu, x^2 - E_q[x^2]) = L u with L = [[sigma, 0], [2 mu sigma,
sigma2]], and Cov_q[u] = diag(1, 2) exactly. Each 2x2 system is posed on
u, where it is well conditioned however far mu is from the origin: a
gradient estimate maps back to eta by L, and coefficients on s (the alpha
and g_nat of aux) by L^-T (gaussian._times_l and _solve_lt, which the
oracle and the fit use too). No kernel forms x - mu or x^2:

* score-function methods regress the integrand f = log q - log p on u;
  f reads log q from the noise, log q(x) = -log(2 pi sigma2)/2 - eps^2/2;
* path methods read the residual r = d/dx [log q - log p] = score_x -
  grad_x, with score_x = -eps / sigma. In u the path Jacobian is
  L^-1 dx/deta = sigma (1, eps) and dT/dx is (dT/dx) L^-T = (1, 2 eps) /
  sigma, so the path estimate of Cov_q[u, f] is F = sigma (mean r,
  mean eps r) and that of Cov_q[u, u] is M' = mean (1, eps)^T (1, 2 eps)
  = [[1, 2 m0], [m0, 2 mean eps^2]], which reads the noise alone.

The values are cached by what they read. A Noise is a block of noise
rows: per column range it keeps the moments of u (its sample mean, from
which M' is formed, its Gram Cov-hat[u, u] and the Gram's inverse), which
read the noise alone. A Draws is the cache of one tile's draws of q and
the target, over a Noise of the same rows. It computes each elementwise
ingredient (the draws x = mu + sigma eps, which the target and
delta-method read, u1, the target's log_p, f, and r, which reads grad_x)
at most once, on every column, when a kernel first reads it; the halves are
column views that slice it once and keep the slice. It also keeps the
(...) moment tuples of a column range: Cov-hat[u, f] and F. So every kernel
run on one Draws reads what another has computed: cv-ideal and
cv-regression share the evaluation half's moments, cov and greg-samplecov
the whole range's, kingma-reparam and greg-pathgrad the whole range's F,
and all path methods r. A benchmark tile is its own Noise. A fit draws its
noise in blocks, and step t's Draws is row t of its block with that step's
q, so the moments of u are computed once per block for all its steps, and
split once into one tuple of numpy scalars per row, which row t reads. A
cached value is computed by the same expression, on the same values, as a
kernel alone would compute it, and every reduction is over one row, so
neither the sharing nor the block changes any estimate. A kernel alone on a
Draws computes nothing it does not read, except that a moment tuple is
computed whole. Centered (..., S) arrays are not kept, and no kernel writes
into an array a Draws keeps. The arrays a kernel makes are its own: it
reuses them in place for a later stage's values, and releases them before
its next stage, so a call's temporaries stay a few (..., S) arrays on top
of a tile's elementwise ingredients. A test pins the bound
(test_kernel_temporaries_stay_a_few_tile_halves: seven (512, 25) arrays on
a (512, 50) tile, paired and unpaired).
Every 2x2 coefficient or natural-gradient system is solved on (...)
components a00, a01, a10, a11, b0, b1. No stacked (..., S, 2) score or
(..., S, 2, 2) outer-product arrays are built. The reductions are over the
last axis, so on an (S,) row, a fit step's or an estimate's, every moment
and every 2x2 component is a numpy scalar, whose arithmetic costs a tenth
of that on a 1-element array and follows np.errstate as arrays do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gaussian import (
    DrawBatch, GaussianQ, _count, _pair, _real, _seed_key, _solve_lt, _times_l, _why_no_gradient,
)
from .targets import Target

__all__ = [
    "CapabilityError",
    "EstimationError",
    "EstimatorConfig",
    "GradEstimate",
    "EstimatorInfo",
    "ESTIMATORS",
    "ESTIMATOR_IDS",
    "estimate",
    "est_simple",
    "est_cov",
    "est_cv_ideal",
    "est_cv_regression",
    "est_cv_ideal_pathgrad",
    "est_ranganath_cv",
    "est_delta_method",
    "est_kingma_reparam",
    "est_greg_samplecov",
    "est_greg_pathgrad",
]

# Determinant threshold, relative to the squared magnitude of the matrix,
# below which a 2x2 solve falls back to the pseudo-inverse.
_SINGULAR_RTOL = 1e-12
# Singular-value cutoff, relative to the largest, of np.linalg.lstsq(rcond=None)
# on a 2x2 system: the singular fallback reproduces its solution.
_LSTSQ_RCOND = 2 * np.finfo(float).eps
# The components of the unit vectors e0 and e1 side by side, the right-hand
# sides whose solutions are the columns of an inverse.
_UNIT0, _UNIT1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


class CapabilityError(RuntimeError):
    """The target lacks a derivative this estimator requires."""


class EstimationError(RuntimeError):
    """The target or estimate evaluated to a non-finite value."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling budget shared by all estimators."""

    total_samples: int = 50
    cv_split: float = 0.5
    estimator_id: str = "simple"

    def __post_init__(self):
        _count("total_samples", self.total_samples)
        if not 0.0 < _real("cv_split", self.cv_split) < 1.0:
            raise ValueError(f"cv_split must be in (0, 1), got {self.cv_split}")
        if self.estimator_id not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator_id {self.estimator_id!r}; valid ids: {', '.join(ESTIMATOR_IDS)}"
            )
        ESTIMATORS[self.estimator_id].check_draws(self.batch_sizes())

    def split_sizes(self) -> tuple[int, int]:
        n_coef = int(round(self.total_samples * self.cv_split))
        return n_coef, self.total_samples - n_coef

    def batch_sizes(self) -> tuple[int, ...]:
        """Draws per batch: the split for split-budget methods, else the whole budget."""
        if ESTIMATORS[self.estimator_id].split_budget:
            return self.split_sizes()
        return (self.total_samples,)


@dataclass(frozen=True)
class GradEstimate:
    """A single 2-vector gradient estimate plus provenance."""

    value: np.ndarray
    estimator_id: str
    samples_used: int
    aux: Optional[dict] = None

    def __post_init__(self):
        value = np.asarray(self.value, dtype=float)
        if value.shape != (2,):
            raise ValueError(f"value must be a 2-vector, got shape {value.shape}")
        if not np.isfinite(value).all():
            raise EstimationError(f"non-finite gradient estimate: {value}")
        value.setflags(write=False)
        object.__setattr__(self, "value", value)


class Noise:
    """Standard-normal noise eps of shape (..., S), and the moments that read it alone.

    Per column range (lo, hi) it keeps the moments of the standardized
    score u = (eps, eps^2 - 1) (_u_moments: the sample mean of u and its
    Gram Cov-hat[u, u] with 1/(n-1)) and the matrix that solves the Gram
    (_gram_inverse), each as (...) components computed on first use, once
    for all rows: _kept(compute, lo, hi). len() is the number of rows, 1
    for an (S,) row. rows(index) is the view of the rows eps[index]: its
    eps is a view, and its moments are those of the Noise it came from,
    which keeps them, indexed alike. An int index gives an (S,) row whose
    moments are numpy scalars; a slice gives a (k, S) block. A slice view
    indexes a kept value once and keeps the result. For int rows the root
    splits each kept value, once, into one tuple per row, so a fit step's
    row reads its moments without indexing an array.
    """

    __slots__ = ("eps", "_root", "_rows", "_cache", "_row_tuples")

    def __init__(self, eps: np.ndarray):
        self.eps = eps
        self._root, self._rows, self._cache, self._row_tuples = None, slice(None), {}, {}

    def __len__(self) -> int:
        return math.prod(self.eps.shape[:-1])

    def rows(self, index) -> "Noise":
        view = Noise(self.eps[index])
        view._root, view._rows = self, index
        return view

    def _kept(self, compute, lo: int | None, hi: int | None) -> tuple:
        """compute(root, lo, hi) of the columns lo:hi, kept by the root Noise and indexed to this one's rows."""
        key = (compute, lo, hi)
        root, rows = self._root, self._rows
        if isinstance(rows, int):
            per_row = root._row_tuples.get(key)
            if per_row is None:
                # iterating an array gives what indexing it gives
                per_row = root._row_tuples[key] = list(zip(*root._kept(*key)))
            return per_row[rows]
        value = self._cache.get(key)
        if value is None:
            if root is None:
                value = compute(self, lo, hi)
            else:
                # a list, not a generator: tuple(generator) resizes the tuple it
                # builds, and CPython then keeps every one freed on a free list
                value = tuple([v[rows] for v in root._kept(*key)])
            self._cache[key] = value
        return value


class Draws:
    """The draws of q on noise eps of shape (..., S), with the target t: the ingredient cache of one tile or row.

    A kernel's one input. Kernels read the per-draw ingredients from their
    Draws, so kernels run on one Draws compute each once. noise is the
    Noise of the rows (an array of eps is made one); eps is its noise on the
    Draws' columns, len() its number of rows (1 for an (S,) row), and
    u_moments and gram_inverse its moments of u there, numpy scalars on an
    (S,) row. The Draws keeps:

    * the elementwise ingredients, keyed by the function that computes them:
      the draws x = q.reparameterize(eps) (_x), which the target and
      delta-method read, u1 = eps^2 - 1 (_u1), the target's log_p (_log_p;
      a non-finite log p is an estimation error naming its draw), the
      integrand f (_fval) and the path residual r (_resid), which reads the
      target's grad_x. Each is computed on first use, once for all columns;
    * the (...) moment tuples of _cov_uf and _path_uf, keyed by the
      reduction and the column range (lo, hi) as columns() was given it.

    columns(lo, hi) is the view of a column range of a whole Draws: its
    eps is a view, its elementwise ingredients are column slices of those
    of the Draws it came from, which it slices once and keeps, and its
    moments are kept there.
    Centered (..., S) arrays are not kept: each kernel makes its own, reuses
    them in place and releases them before its next stage. No kernel writes
    into an array the Draws keeps.
    """

    __slots__ = ("q", "t", "eps", "noise", "_root", "_lo", "_hi", "_cache")

    def __init__(self, q: GaussianQ, t: Target, noise):
        self.q, self.t = q, t
        self.noise = noise if isinstance(noise, Noise) else Noise(noise)
        self.eps = self.noise.eps
        # a root Draws is its own root; None, not self, since a reference
        # cycle would keep every tile's arrays until the cycle collector runs
        self._root, self._lo, self._hi = None, None, None
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.noise)

    def columns(self, lo: int, hi: int | None = None) -> "Draws":
        view = Draws.__new__(Draws)  # the root's q, t and noise, without __init__'s check
        view.q, view.t, view.noise = self.q, self.t, self.noise
        view.eps = self.eps[..., lo:hi]
        view._root, view._lo, view._hi, view._cache = self, lo, hi, {}
        return view

    def _elementwise(self, compute):
        """compute(root) of the whole Draws, kept by it; a view keeps it sliced to its columns."""
        value = self._cache.get(compute)
        if value is None:
            root = self._root
            value = compute(self) if root is None else root._elementwise(compute)[..., self._lo:self._hi]
            self._cache[compute] = value
        return value

    def _reduced(self, reduce) -> tuple:
        """reduce(self), kept by the whole Draws under this one's column range."""
        cache = self._cache if self._root is None else self._root._cache
        key = (reduce, self._lo, self._hi)
        value = cache.get(key)
        if value is None:
            value = cache[key] = reduce(self)
        return value

    @property
    def x(self) -> np.ndarray:
        return self._elementwise(_x)

    @property
    def u1(self) -> np.ndarray:
        return self._elementwise(_u1)

    @property
    def u_moments(self) -> tuple:
        return self.noise._kept(_u_moments, self._lo, self._hi)

    @property
    def gram_inverse(self) -> tuple:
        return self.noise._kept(_gram_inverse, self._lo, self._hi)

    @property
    def log_p(self) -> np.ndarray:
        return self._elementwise(_log_p)

    @property
    def f(self) -> np.ndarray:
        return self._elementwise(_fval)

    @property
    def resid(self) -> np.ndarray:
        return self._elementwise(_resid)

    @property
    def cov_uf(self) -> tuple:
        return self._reduced(_cov_uf)

    @property
    def path_uf(self) -> tuple:
        return self._reduced(_path_uf)


# ---------------------------------------------------------------------------
# per-draw ingredients and moments: of a whole Noise n (see Noise), or of a
# whole Draws d (see Draws)


def _u_moments(n: Noise, lo: int | None, hi: int | None) -> tuple:
    """The sample mean of u on the columns lo:hi and its Cov-hat[u, u] with 1/(n-1).

    Returns (m0, m1, g00, g01, g11); the Gram's expectation is diag(1, 2).
    It is formed from c = eps - m0 and d = c^2 - mean c^2, the two
    temporaries, since u1 - m1 = d + 2 m0 c.
    """
    e = n.eps[..., lo:hi]
    k = e.shape[-1]
    m0 = _mean(e)
    c = e - m0[..., None]
    d = c * c
    v = _mean(d)
    d -= v[..., None]
    cc, cd, dd = _dot(c, c), _dot(c, d), _dot(d, d)
    k1, m2 = k - 1, 2.0 * m0
    g01 = cd + m2 * cc
    return m0, v + m0 * m0 - 1.0, cc / k1, g01 / k1, (dd + m2 * (cd + g01)) / k1


def _gram_inverse(n: Noise, lo: int | None, hi: int | None) -> tuple:
    """The matrix m that solves Cov-hat[u, u] of the columns lo:hi, as (m00, m01, m10, m11, fallback).

    Its columns are the _solve2c solutions for the unit vectors, so m @ b
    is the solve of any right-hand side b, with the pseudo-inverse fallback
    of a singular Gram, which the fallback mask flags.
    """
    g00, g01, g11 = (g[..., None] for g in n._kept(_u_moments, lo, hi)[2:])
    # both unit right-hand sides in one solve, along a trailing axis
    x0, x1, fallback = _solve2c(g00, g01, g01, g11, _UNIT0, _UNIT1)
    return x0[..., 0], x0[..., 1], x1[..., 0], x1[..., 1], fallback[..., 0]


def _x(d: Draws) -> np.ndarray:
    """The draws x = mu + sigma * eps of q."""
    return d.q.reparameterize(d.eps)


def _u1(d: Draws) -> np.ndarray:
    """The second standardized score component eps^2 - 1."""
    u1 = d.eps * d.eps
    u1 -= 1.0
    return u1


def _log_p(d: Draws) -> np.ndarray:
    lp = np.asarray(d.t.log_p(d.x), dtype=float)
    if not np.isfinite(lp).all():
        bad = d.x[~np.isfinite(lp)]
        raise EstimationError(f"target {d.t.name!r} log_p is not finite at draw x={bad.flat[0]!r}")
    return lp


def _fval(d: Draws) -> np.ndarray:
    """The integrand log q - log p, with log q = -log(2 pi sigma2)/2 - eps^2/2 read from the noise."""
    f = np.multiply(d.u1, -0.5)
    f += -0.5 * (math.log(2.0 * math.pi * d.q.sigma2) + 1.0)
    f -= d.log_p
    return f


def _cov_u(d: Draws, y: np.ndarray) -> tuple:
    """Cov-hat[u, y] with 1/(S-1) of a per-draw statistic y of d, as (b0, b1).

    It is sum (u - mean u)(y - y_0), formed as sum u (y - y_0) minus mean u
    times the sum of y - y_0, for y_0 the first draw's y: shifting by a
    value of y takes its offset out of the sums, which then cancel to the
    rounding of its spread, and the kept mean of u stands in for centered
    u arrays.
    """
    y = y - y[..., :1]
    m0, m1 = d.u_moments[:2]
    sy = y.sum(-1)
    n1 = y.shape[-1] - 1
    return (_dot(d.eps, y) - m0 * sy) / n1, (_dot(d.u1, y) - m1 * sy) / n1


def _cov_uf(d: Draws) -> tuple:
    """Cov-hat[u, f]; L @ Cov-hat[u, f] is the cov estimate of the gradient. Read it as d.cov_uf."""
    return _cov_u(d, d.f)


def _resid(d: Draws) -> np.ndarray:
    """The path residual r = d/dx [log q - log p] = score_x - grad_x, with score_x = -eps / sigma read from the noise."""
    r = d.eps / -d.q.sigma
    r -= np.asarray(d.t.grad_x(d.x), dtype=float)
    return r


def _path_uf(d: Draws) -> tuple:
    """F = sigma (mean r, mean eps r), the path estimate of Cov_q[u, f]; L F is kingma-reparam. Read it as d.path_uf."""
    r, sigma = d.resid, d.q.sigma
    return sigma * _mean(r), sigma * (_dot(d.eps, r) / r.shape[-1])


# ---------------------------------------------------------------------------
# shared numerics


def _mean(a: np.ndarray) -> np.ndarray:
    """Mean over the draw axis; bit-identical to a.mean(-1)."""
    return a.sum(-1) / a.shape[-1]


def _centered(a: np.ndarray) -> np.ndarray:
    return a - a.sum(-1, keepdims=True) / a.shape[-1]


def _center(a: np.ndarray) -> np.ndarray:
    """_centered(a) in place, for an array of the caller's own: one tile-sized array fewer."""
    a -= a.sum(-1, keepdims=True) / a.shape[-1]
    return a


def _einsum_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vecdot(a, b) for numpy < 2.0, which has no np.vecdot."""
    return np.einsum("...s,...s->...", a, b)


# Sum over the draw axis of a * b, without the product temporary. np.vecdot
# (numpy >= 2.0) has the least per-call overhead; einsum is the fallback.
_dot = getattr(np, "vecdot", _einsum_dot)


def _score_directions(u0: np.ndarray, u1: np.ndarray, q: GaussianQ) -> tuple[np.ndarray, np.ndarray]:
    """The eta score s = L u per draw, each component up to its constant factor: (s0 / sigma, s1 / sigma2).

    That is (u0, u0 * 2 mu / sigma + u1); s1 / sigma2 is formed in place.
    """
    w1 = u0 * (2.0 * q.mu / q.sigma)
    w1 += u1
    return u0, w1


def _regression(d: Draws, b0: np.ndarray, b1: np.ndarray):
    """Cov-hat[u, u]^-1 (b0, b1): the regression on u of y with Cov-hat[u, y] = (b0, b1), as (v0, v1, fallback mask)."""
    m00, m01, m10, m11, fallback = d.gram_inverse
    return m00 * b0 + m01 * b1, m10 * b0 + m11 * b1, fallback


def _cv_residual(ev: Draws, v0: np.ndarray, v1: np.ndarray) -> tuple:
    """Cov-hat[u, f] minus the control variates (Cov-hat[u, u] - diag(1, 2)) @ (v0, v1) of ev."""
    g00, g01, g11 = ev.u_moments[2:]
    b0, b1 = ev.cov_uf
    return b0 - ((g00 - 1.0) * v0 + g01 * v1), b1 - (g01 * v0 + (g11 - 2.0) * v1)


def _path_residual(ev: Draws, v0, v1: np.ndarray) -> tuple:
    """F minus the path control variates (M' - diag(1, 2)) @ (v0, v1) of ev, M' - diag(1, 2) = [[0, 2 m0], [m0, 2 m1]]."""
    m0, m1 = ev.u_moments[:2]
    f0, f1 = ev.path_uf
    return f0 - 2.0 * m0 * v1, f1 - (m0 * v0 + 2.0 * m1 * v1)


def _solve2c(a00, a01, a10, a11, b0, b1):
    """Batched 2x2 solve a @ x = b on component arrays, with a singular fallback.

    Well-conditioned systems use the closed-form inverse. When |det| falls
    below _SINGULAR_RTOL times the squared matrix magnitude the solve falls
    back to a minimum-norm least-squares solution, which leaves directions
    of zero variance with a zero coefficient. Components broadcast against
    each other. Returns (x0, x1, fallback mask).
    """
    det = a00 * a11 - a01 * a10
    scale = np.maximum(np.maximum(np.abs(a00), np.abs(a01)), np.maximum(np.abs(a10), np.abs(a11)))
    bad = np.abs(det) <= _SINGULAR_RTOL * scale * scale
    if not bad.any():
        return (a11 * b0 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det, bad
    safe_det = np.where(bad, 1.0, det)
    x0 = np.asarray((a11 * b0 - a01 * b1) / safe_det)
    x1 = np.asarray((a00 * b1 - a10 * b0) / safe_det)
    mask = np.broadcast_to(bad, x0.shape)
    rows = [np.broadcast_to(c, x0.shape)[mask] for c in (a00, a01, a10, a11, b0, b1)]
    m = np.stack(rows[:4], axis=-1).reshape(-1, 2, 2)
    sol = np.linalg.pinv(m, _LSTSQ_RCOND) @ np.stack(rows[4:], axis=-1)[..., None]
    x0[mask], x1[mask] = sol[:, 0, 0], sol[:, 1, 0]
    return x0, x1, bad


# ---------------------------------------------------------------------------
# kernels: (coef, ev, with_aux) -> ((..., 2), aux)
#
# Unsplit methods get the whole Draws, named d below, and coef None;
# arguments a kernel ignores carry a leading underscore. _kernel_NAME's
# est_* function is est_NAME and carries the kernel's docstring. Kernels
# read q, the per-draw ingredients and the moment tuples from the Draws, so
# kernels run on one Draws share them; what a kernel centers is its own.


def _kernel_simple(_coef, d: Draws, _with_aux: bool) -> tuple[np.ndarray, dict]:
    """Mean of score(x) * (log q(x) - log p(x)) over the batch; unbiased."""
    # the mean of s f = L (u f)
    f, n = d.f, d.eps.shape[-1]
    return _times_l(d.q, _dot(d.eps, f) / n, _dot(d.u1, f) / n), {}


def _kernel_cov(_coef, d: Draws, _with_aux: bool) -> tuple[np.ndarray, dict]:
    """Sample covariance of score and integrand with 1/(S-1); unbiased."""
    # Cov-hat[s, f] = L Cov-hat[u, f]
    return _times_l(d.q, *d.cov_uf), {}


def _kernel_cv_ideal(coef: Draws, ev: Draws, with_aux: bool) -> tuple[np.ndarray, dict]:
    """Covariance estimator minus fitted score-covariance control variates.

    Coefficients are fitted on batch_coef only, so independence of the two
    batches keeps the evaluated estimate unbiased.
    """
    # Per-draw statistics of the coefficient batch, on the centered draws:
    # f^i_j = s_ij f_j, whose mean is the cov estimate, and the control
    # variates s_ij s_lj, whose mean minus Cov_exact has expectation zero.
    # As s = L u, (s_i s_0, s_i s_1) spans what (s_i u_0, s_i u_1) spans, so
    # component i regresses f^i on (s_i u_0, s_i u_1), with s_i scaled by a
    # constant, which changes no coefficient. Its u coefficients gamma_i give
    # est_i = (L (Cov-hat[u, f] - (Cov-hat[u, u] - diag(1, 2)) gamma_i))_i on
    # the evaluation batch, and alpha_i = L^-T gamma_i.
    #
    # With s_0 ~ u_0 and s_1 ~ k u_0 + u_1, k = 2 mu / sigma, both systems
    # are sums of the products of five per-draw statistics: the centered
    # a = u_0 u_0, b = u_0 u_1, c = u_1 u_1 and the responses u_0 f, u_1 f
    # (which need no centering against centered regressors). Component 0
    # regresses u_0 f on (a, b); component 1 regresses k u_0 f + u_1 f on
    # (k a + b, k b + c), whose sums expand in powers of k.
    q = coef.q
    u0, u1 = _centered(coef.eps), _centered(coef.u1)
    f = _centered(coef.f)
    a, b, c = _center(u0 * u0), _center(u0 * u1), _center(u1 * u1)
    if coef.eps.shape[-1] == 2:
        # two centered draws are +-delta, so a, b and c are zero but for
        # their rounding, which would pose two systems of noise: zeroed, both
        # flag the fallback and fit zero coefficients (the estimate is cov on ev)
        a[...] = b[...] = c[...] = 0.0
    # the responses in the buffers of u0 and u1, which a, b and c no longer need
    f0, f1 = np.multiply(u0, f, out=u0), np.multiply(u1, f, out=u1)
    del f
    aa, ab, ac, bb, bc, cc = _dot(a, a), _dot(a, b), _dot(a, c), _dot(b, b), _dot(b, c), _dot(c, c)
    af0, bf0, cf0, af1, bf1, cf1 = _dot(a, f0), _dot(b, f0), _dot(c, f0), _dot(a, f1), _dot(b, f1), _dot(c, f1)
    # released before _cv_residual computes the evaluation half's moments
    del a, b, c, u0, u1, f0, f1
    g00, g01, fb0 = _solve2c(aa, ab, ab, bb, af0, bf0)
    k = 2.0 * q.mu / q.sigma
    k2 = k * k
    m01 = k2 * ab + k * (ac + bb) + bc
    g10, g11, fb1 = _solve2c(
        k2 * aa + 2.0 * k * ab + bb, m01, m01, k2 * bb + 2.0 * k * bc + cc,
        k2 * af0 + k * (af1 + bf0) + bf1, k2 * bf0 + k * (bf1 + cf0) + cf1,
    )
    r0, _ = _cv_residual(ev, g00, g01)
    est = _times_l(q, *_cv_residual(ev, g10, g11))
    est[..., 0] = q.sigma * r0
    aux = {"alpha": np.stack([_solve_lt(q, g00, g01), _solve_lt(q, g10, g11)], axis=-2)} if with_aux else {}
    aux["singular_fallback"] = _pair(fb0, fb1)
    return est, aux


def _kernel_cv_regression(coef: Draws, ev: Draws, with_aux: bool) -> tuple[np.ndarray, dict]:
    """Control variates with the shared regression coefficient vector.

    The coefficient is the natural-gradient solve on the coefficient batch;
    with a Gaussian-form target it equals eta - eta_tilde identically and
    the estimate collapses to the exact gradient with zero variance.
    """
    # the regression of f on u, gamma, is L^T alpha
    g0, g1, fallback = _regression(coef, *coef.cov_uf)
    est = _times_l(ev.q, *_cv_residual(ev, g0, g1))
    aux = {"alpha": _solve_lt(ev.q, g0, g1)} if with_aux else {}
    aux["singular_fallback"] = fallback
    return est, aux


def _kernel_cv_ideal_pathgrad(coef: Draws, ev: Draws, with_aux: bool) -> tuple[np.ndarray, dict]:
    """cv-ideal with every covariance term estimated through the sampler path."""
    # cv-ideal on the path estimates F and M' (see the module docstring):
    # est_i = (L (F - (M' - diag(1, 2)) gamma_i))_i on the evaluation batch,
    # whose M' - diag(1, 2) is [[0, 2 m0], [m0, 2 m1]] for the mean (m0, m1)
    # of u. Per draw, component i of L F is (L (1, eps))_i sigma r and its
    # control variates are (L (1, eps))_i (1, 2 eps) gamma_i, so the fit
    # regresses the one on the other on the coefficient batch.
    # Component 0: (L (1, eps))_0 = sigma is constant, so it is the scalar
    # regression of sigma r on 2 eps; the constant control variate is zero
    # exactly, and its coefficient is the one that makes alpha_00 zero. Only
    # draws without spread flag a fallback.
    # Component 1: (L (1, eps))_1 = sigma2 (k + eps), k = 2 mu / sigma, so
    # it regresses (k + eps) sigma r on (k + eps) (1, 2 eps). Centered, those
    # span what (eps, u1) spans, where the system is the Gram of u: its
    # coefficients beta map back as gamma_1 = (beta0 - k beta1, beta1 / 2).
    q = coef.q
    sigma, k = q.sigma, 2.0 * q.mu / q.sigma
    r = coef.resid
    p0, p1 = _cov_u(coef, r)
    e0, e1 = _cov_u(coef, coef.eps * r)
    g00 = coef.u_moments[2]
    fb0 = g00 <= 0.0
    c01 = np.where(fb0, 0.0, (0.5 * sigma) * p0 / np.where(fb0, 1.0, g00))
    b0, b1, fb1 = _regression(coef, sigma * (k * p0 + e0), sigma * (k * p1 + e1))
    c10, c11 = b0 - k * b1, 0.5 * b1
    r0, _ = _path_residual(ev, 0.0, c01)
    est = _times_l(q, *_path_residual(ev, c10, c11))
    est[..., 0] = sigma * r0
    aux = {}
    if with_aux:
        aux["alpha"] = np.stack([_pair(np.zeros_like(c01), c01 / q.sigma2), _solve_lt(q, c10, c11)], axis=-2)
    aux["singular_fallback"] = _pair(fb0, fb1)
    return est, aux


def _kernel_ranganath_cv(coef: Draws, ev: Draws, with_aux: bool) -> tuple[np.ndarray, dict]:
    """Generic per-component control variate h_i = score_i with a scalar coefficient."""
    # per-component control variate h_i = s_i for the per-draw integrand
    # s_i f; s_i up to its constant factor gives the same coefficient, and
    # the factor scales the mean
    q, f_c, f_e = ev.q, coef.f, ev.f
    n = ev.eps.shape[-1]
    est, coefs, zero_var = [], [], []
    directions = zip(_score_directions(coef.eps, coef.u1, q), _score_directions(ev.eps, ev.u1, q))
    for (w_c, w_e), factor in zip(directions, (q.sigma, q.sigma2)):
        h = _centered(w_c)
        var_h, cov_fh = _dot(h, h), _dot(_center(w_c * f_c), h)
        zero = var_h <= 0.0
        c = np.where(zero, 0.0, cov_fh / np.where(zero, 1.0, var_h))
        est.append(_dot(w_e, f_e - c[..., None]) * (factor / n))
        coefs.append(c)
        zero_var.append(zero)
    aux = {"coef": _pair(*coefs)} if with_aux else {}
    aux["zero_variance"] = _pair(*zero_var)
    return _pair(*est), aux


def _kernel_delta_method(_coef, d: Draws, _with_aux: bool) -> tuple[np.ndarray, dict]:
    """Second-order Taylor control variate for log p, analytic remainder."""
    mu, s2, t = d.q.mu, d.q.sigma2, d.t
    lp0 = float(np.asarray(t.log_p(np.array(mu)), dtype=float))
    g0 = float(np.asarray(t.grad_x(np.array(mu)), dtype=float))
    h0 = float(np.asarray(t.hess_x(np.array(mu)), dtype=float))
    dx = d.x - mu
    # the remainder log p - (lp0 + g0 dx + h0 dx^2 / 2), formed in place
    remainder = dx * (0.5 * h0)
    remainder += g0
    remainder *= dx
    remainder += lp0
    np.subtract(d.log_p, remainder, out=remainder)
    n = d.eps.shape[-1]
    # the score-function estimate of the remainder's term is -L mean(u
    # remainder); d/deta E_q[log q] is the negative-entropy gradient
    # (0, -sigma2); d/deta E_q[Taylor] with frozen coefficients uses
    # E[x - mu] = 0 and E[(x - mu)^2] = sigma2 through d mu/d eta and
    # d sigma2/d eta.
    est = _times_l(d.q, _dot(d.eps, remainder) / -n, _dot(d.u1, remainder) / -n)
    est[..., 0] -= g0 * s2
    est[..., 1] -= s2 + 2.0 * g0 * mu * s2 + h0 * s2 * s2
    return est, {}


def _kernel_kingma_reparam(_coef, d: Draws, _with_aux: bool) -> tuple[np.ndarray, dict]:
    """Sampler-path derivative of the Monte Carlo sum of log q - log p.

    The integrand is held fixed and only the draw path x = s(eta, eps) is
    differentiated, which is the unbiased covariance estimate obtained by
    differentiating the sampler. It is L F, for F the path estimate of Cov_q[u, f].
    """
    return _times_l(d.q, *d.path_uf), {}


def _kernel_greg_samplecov(_coef, d: Draws, with_aux: bool) -> tuple[np.ndarray, dict]:
    """Exact score covariance times the regression solve on one batch; biased."""
    # Cov_exact L^-T gamma = L diag(1, 2) gamma for the regression gamma of f on u
    g0, g1, fallback = _regression(d, *d.cov_uf)
    aux = {"g_nat": _solve_lt(d.q, g0, g1)} if with_aux else {}
    aux["singular_fallback"] = fallback
    return _times_l(d.q, g0, 2.0 * g1), aux


def _kernel_greg_pathgrad(_coef, d: Draws, with_aux: bool) -> tuple[np.ndarray, dict]:
    """greg-samplecov with sampler-path covariance estimates; biased."""
    # greg-samplecov with gamma = M'^-1 F, M' = [[1, 2 m0], [m0, 2 mean eps^2]]
    # for the mean (m0, m1) of u; M' is not symmetric
    m0, m1 = d.u_moments[:2]
    g0, g1, fallback = _solve2c(1.0, 2.0 * m0, m0, 2.0 * (m1 + 1.0), *d.path_uf)
    aux = {"g_nat": _solve_lt(d.q, g0, g1)} if with_aux else {}
    aux["singular_fallback"] = fallback
    return _times_l(d.q, g0, 2.0 * g1), aux


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class EstimatorInfo:
    """One estimator: its kernel and what the kernel needs.

    min_draws is the fewest draws the kernel takes in each batch: in each
    half of the split for split-budget methods, in the whole budget for
    the rest.
    """

    id: str
    kernel: Callable[..., tuple[np.ndarray, dict]]
    split_budget: bool
    min_draws: int = 1
    needs_grad: bool = False
    needs_hess: bool = False
    unbiased: bool = True

    def check_draws(self, sizes) -> None:
        """Raise ValueError if a batch size in sizes is below min_draws: the one draw-floor check."""
        if min(sizes) < self.min_draws:
            raise ValueError(
                f"estimator {self.id!r} needs >= {self.min_draws} samples in each batch; got {'+'.join(map(str, sizes))}"
            )

    def check(self, t: Target) -> None:
        """Raise CapabilityError if t lacks a derivative the kernel needs."""
        for field, needed in (("grad_x", self.needs_grad), ("hess_x", self.needs_hess)):
            if needed and getattr(t, field) is None:
                raise CapabilityError(f"estimator {self.id!r} requires target.{field} ({t.name!r} has none)")


ESTIMATORS: dict[str, EstimatorInfo] = {
    info.id: info
    for info in (
        EstimatorInfo("simple", _kernel_simple, split_budget=False),
        EstimatorInfo("cov", _kernel_cov, split_budget=False, min_draws=2),
        EstimatorInfo("cv-ideal", _kernel_cv_ideal, split_budget=True, min_draws=2),
        EstimatorInfo("cv-regression", _kernel_cv_regression, split_budget=True, min_draws=2),
        EstimatorInfo("cv-ideal-grad", _kernel_cv_ideal_pathgrad, split_budget=True, min_draws=2, needs_grad=True),
        EstimatorInfo("ranganath-cv", _kernel_ranganath_cv, split_budget=True, min_draws=2),
        EstimatorInfo("delta-method", _kernel_delta_method, split_budget=False, needs_grad=True, needs_hess=True),
        EstimatorInfo("kingma-reparam", _kernel_kingma_reparam, split_budget=False, needs_grad=True),
        EstimatorInfo("greg-samplecov", _kernel_greg_samplecov, split_budget=False, min_draws=3, unbiased=False),
        EstimatorInfo("greg-pathgrad", _kernel_greg_pathgrad, split_budget=False, needs_grad=True, unbiased=False),
    )
}

ESTIMATOR_IDS: tuple[str, ...] = tuple(ESTIMATORS)


# ---------------------------------------------------------------------------
# dispatch


def run_kernel(
    estimator_id: str,
    q: GaussianQ,
    t: Target,
    draws: Draws,
    n_coef: int,
    *,
    with_aux: bool = False,
):
    """Vectorized entry point: one gradient estimate per row of draws, a Draws of q and the target t.

    Split-budget estimators use the first n_coef columns as the coefficient
    batch and the rest for evaluation. Every kernel run on one Draws shares
    its ingredients, as the benchmark's estimators share each tile. Returns
    the (..., 2) estimates of the (..., S) draws ((R, 2) for a tile, a
    2-vector for an (S,) row), or with with_aux=True the pair (estimates, aux),
    aux holding the kernel's per-row diagnostics under the keys of
    GradEstimate.aux. Only then does the kernel compute the derived
    coefficients; the estimates are the same either way, bit for bit.

    This is the one caller of a kernel. It checks the target's
    capabilities, splits the columns and runs the kernel with overflow not
    warned about: a non-finite estimate in any row is an EstimationError
    naming the estimator and q. So is a q outside the gradient's domain
    (gaussian._why_no_gradient: E_q[x^2] = mu^2 + sigma2 overflows, where the
    eta score x^2 - E_q[x^2] is not finite though the kernels never square
    x, or |mu| / sigma is past MAX_MU_OVER_SIGMA, where x = mu + sigma * eps
    has lost eps to rounding).
    """
    if draws.t is not t:
        raise ValueError(f"draws of target {draws.t.name!r}, not of {t.name!r}")
    if draws.q is not q:
        raise ValueError(f"draws of {draws.q}, not of {q}")
    info = ESTIMATORS[estimator_id]
    info.check(t)
    reason = _why_no_gradient(q)
    if reason:
        raise EstimationError(f"no gradient estimate of {estimator_id!r} at {q}: {reason}")
    coef, ev = (draws.columns(0, n_coef), draws.columns(n_coef)) if info.split_budget else (None, draws)
    with np.errstate(over="ignore", invalid="ignore"):
        value, aux = info.kernel(coef, ev, with_aux)
    if not np.isfinite(value).all():
        bad = value[~np.isfinite(value).all(axis=-1)][0]
        raise EstimationError(f"non-finite gradient estimate {bad} of {estimator_id!r} at {q}")
    return (value, aux) if with_aux else value


def _row(info: EstimatorInfo, q: GaussianQ, t: Target, batches) -> GradEstimate:
    """The GradEstimate of info's kernel on one (S,) row, the noise of the DrawBatches of q side by side.

    The one path of estimate() and the est_* functions to run_kernel. It
    checks the draw floor and that each batch is of q (an equal GaussianQ):
    the kernels read the noise, so draws of another q would be ignored.
    """
    sizes = [b.size for b in batches]
    info.check_draws(sizes)
    for b in batches:
        if b.q != q:
            raise ValueError(f"draws of {b.q}, not of {q}")
    d = Draws(q, t, np.concatenate([b.noise for b in batches]))
    value, aux = run_kernel(info.id, q, t, d, sizes[0], with_aux=True)
    return GradEstimate(value, info.id, samples_used=sum(sizes), aux=aux or None)


def _alias(info: EstimatorInfo) -> Callable[..., GradEstimate]:
    """The public est_* function of an estimator: its kernel on one row of DrawBatches (_row)."""
    if info.split_budget:
        def est(q: GaussianQ, t: Target, batch_coef: DrawBatch, batch_eval: DrawBatch) -> GradEstimate:
            return _row(info, q, t, (batch_coef, batch_eval))
    else:
        def est(q: GaussianQ, t: Target, batch: DrawBatch) -> GradEstimate:
            return _row(info, q, t, (batch,))
    est.__name__ = est.__qualname__ = "est_" + info.kernel.__name__.removeprefix("_kernel_")
    est.__doc__ = info.kernel.__doc__
    return est


for _info in ESTIMATORS.values():
    _fn = _alias(_info)
    globals()[_fn.__name__] = _fn
del _info, _fn


def estimate(q: GaussianQ, t: Target, config: EstimatorConfig, seed) -> GradEstimate:
    """Draw the configured budget from q and run the configured estimator.

    Split-budget methods get two disjoint seeded batches; the rest get one
    undivided batch. Batch i is q.sample((*seed, i), n), and the batches
    run as the est_* functions run them (_row). Deterministic given
    (q, config, seed). A seed that is no key (gaussian._seed_key) is a
    ValueError naming it, not the batch key it would head.
    """
    _seed_key(seed)
    base = seed if isinstance(seed, tuple) else (seed,)
    batches = [q.sample((*base, i), n) for i, n in enumerate(config.batch_sizes())]
    return _row(ESTIMATORS[config.estimator_id], q, t, batches)
