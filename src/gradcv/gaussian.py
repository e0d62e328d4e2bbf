"""Univariate Gaussian approximating family in natural-parameter form.

The approximation q(x) = N(mu, sigma2) is treated as an exponential family
with sufficient statistics T(x) = (x, x^2) and natural parameters
eta = (mu/sigma2, -1/(2*sigma2)), which GaussianQ requires to be finite.
All gradient estimators in this package report gradients in these eta
coordinates. The estimators and the oracle work in the standardized score
u = (eps, eps^2 - 1) of x = mu + sigma * eps, whose eta score is
s = T(x) - E_q[T(x)] = L u with L = [[sigma, 0], [2 mu sigma, sigma2]];
_times_l, _solve_l and _solve_lt, the one copy of L, map between the u
basis and eta.

A DrawBatch is q and its standard-normal noise; it derives its draws.
_count is the one check of a count (a draw budget, a replication or
iteration count, a thread count): an int >= 1, not a bool. _real is the one
check that a setting (q's mu and sigma2, a split fraction, a step size or
decay) is a real number, not a bool. _flag is the one check of an on/off
argument: a bool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded at import, so the first rng_from_seed does not pay for it

__all__ = [
    "GaussianQ",
    "DrawBatch",
    "from_moments",
    "from_natural",
    "sample",
]

_SEED_MASK = (1 << 64) - 1

# The largest |mu| / sigma at which a gradient is computed. A draw
# x = mu + sigma * eps is rounded to a multiple of ulp(mu), about
# 2.2e-16 |mu|, so it holds eps to a relative 2.2e-16 |mu| / sigma, and the
# gradient's second component, which L = [[sigma, 0], [2 mu sigma, sigma2]]
# forms as 2 mu sigma b0 + sigma2 b1, carries b0's rounding times 2 mu /
# sigma. Its relative error grows in proportion: about 3e-17 |mu| / sigma
# in the oracle and 1e-16 |mu| / sigma in a cv-regression estimate
# (logistic target), so 3e-7 and 1e-6 at this bound, and -1.96 for the
# exact -2 at mu = 1e15, sigma2 = 2.
MAX_MU_OVER_SIGMA = 1e10


def _seed_part(value) -> int | None:
    """One part of a SeedSequence key: an int or numpy int (not a bool), or a str label; None for anything else.

    Ints are taken modulo 2^64. A string label becomes the integer of its
    UTF-8 bytes, whole: SeedSequence takes integers of any size, so labels
    that differ only after their eighth byte get distinct streams. A float
    is not an int: truncated, 1.5 would reuse the stream of 1.
    """
    if isinstance(value, str):
        return int.from_bytes(value.encode(), "little")
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value) & _SEED_MASK
    return None


def _seed_key(seed) -> tuple[int, ...]:
    """Normalize a seed (a _seed_part or a tuple of those) into a SeedSequence key; else ValueError naming it."""
    key = [_seed_part(s) for s in (seed if isinstance(seed, tuple) else (seed,))]
    if None in key:
        raise ValueError(f"seed must be an int (not a bool), a str label or a tuple of those, got {seed!r}")
    return tuple(key)


def _why_no_gradient(q: "GaussianQ") -> str:
    """Why no gradient is computed at q, or "": the domain check of the estimators and the oracle.

    Either E_q[x^2] = mu^2 + sigma2 overflows, so the eta score x^2 - E_q[x^2]
    is not finite, or |mu| / sigma is past MAX_MU_OVER_SIGMA, where draws
    x = mu + sigma * eps have lost eps to rounding.
    """
    if not math.isfinite(q.mu * q.mu + q.sigma2):
        return "E_q[x^2] = mu^2 + sigma2 overflows"
    if abs(q.mu) > MAX_MU_OVER_SIGMA * q.sigma:
        return (f"|mu| / sigma = {abs(q.mu) / q.sigma:.3g} exceeds {MAX_MU_OVER_SIGMA:g}, "
                "where x = mu + sigma * eps loses eps to rounding")
    return ""


def _count(name: str, value) -> int:
    """value as a count: an int or numpy int >= 1, not a bool, else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """value as a float: an int, float or numpy int or float, not a bool, else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number (not a bool), got {value!r}")
    return float(value)


def _flag(name: str, value) -> None:
    """Check that value is an on/off switch: a bool or numpy bool, else ValueError naming it.

    Any other value would switch by its truth, so "no" would turn it on.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _pair(a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """np.stack([a0, a1], axis=-1), with less per-call overhead."""
    return np.concatenate((a0[..., None], a1[..., None]), axis=-1)


def _times_l(q: "GaussianQ", v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """L @ (v0, v1), L = [[sigma, 0], [2 mu sigma, sigma2]]: a u-basis vector mapped to eta coordinates."""
    sigma = q.sigma
    return _pair(sigma * v0, (2.0 * q.mu * sigma) * v0 + q.sigma2 * v1)


def _solve_l(q: "GaussianQ", v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """L^-1 @ (v0, v1): an eta-coordinate vector mapped to the u basis."""
    a0 = v0 / q.sigma
    return _pair(a0, (v1 - (2.0 * q.mu * q.sigma) * a0) / q.sigma2)


def _solve_lt(q: "GaussianQ", v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """L^-T @ (v0, v1): coefficients on u mapped to coefficients on the eta score s = L u."""
    a1 = v1 / q.sigma2
    return _pair((v0 - (2.0 * q.mu * q.sigma) * a1) / q.sigma, a1)


def rng_from_seed(seed) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by an int, a str label or a tuple of those.

    The same key reproduces the same stream regardless of process or thread
    layout. Distinct keys give independent streams, except that
    SeedSequence reads the key as 32-bit words (an int above 2^32 spans
    several) zero-padded to four: keys whose words agree after that padding
    share a stream. (5,), (5, 0) and (5, 0, 0) collide, and so do (2**32,)
    and (0, 1); keys of more than four words do not pad.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_seed_key(seed))))


@dataclass(frozen=True)
class GaussianQ:
    """Immutable N(mu, sigma2) with exponential-family accessors; mu, sigma2 and eta are finite, sigma2 > 0."""

    mu: float
    sigma2: float

    def __post_init__(self):
        mu = _real("mu", self.mu)
        sigma2 = _real("sigma2", self.sigma2)
        # sigma2 first: from_natural's mu = eta[0] * sigma2 is nan when sigma2 overflows
        if not (math.isfinite(sigma2) and sigma2 > 0.0):
            raise ValueError(f"sigma2 must be finite and > 0, got {sigma2!r}")
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu!r}")
        if not (math.isfinite(mu / sigma2) and math.isfinite(0.5 / sigma2)):
            raise ValueError(f"eta = (mu / sigma2, -1 / (2 sigma2)) must be finite, got mu={mu!r}, sigma2={sigma2!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def eta(self) -> np.ndarray:
        """Natural parameters (mu/sigma2, -1/(2*sigma2))."""
        return np.array([self.mu / self.sigma2, -0.5 / self.sigma2])

    def suff_stats(self, x) -> np.ndarray:
        """T(x) = (x, x^2), stacked along a trailing axis."""
        x = np.asarray(x, dtype=float)
        return np.stack([x, x * x], axis=-1)

    def suff_stat_mean(self) -> np.ndarray:
        """E_q[T(x)] = (mu, mu^2 + sigma2)."""
        return np.array([self.mu, self.mu * self.mu + self.sigma2])

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * math.log(2.0 * math.pi * self.sigma2) - (x - self.mu) ** 2 / (2.0 * self.sigma2)

    def score_eta(self, x) -> np.ndarray:
        """Gradient of log q w.r.t. eta: T(x) - E_q[T(x)], trailing axis of size 2."""
        x = np.asarray(x, dtype=float)
        return np.stack([x - self.mu, x * x - (self.mu * self.mu + self.sigma2)], axis=-1)

    def score_x(self, x):
        """Gradient of log q w.r.t. x: -(x - mu)/sigma2."""
        x = np.asarray(x, dtype=float)
        return -(x - self.mu) / self.sigma2

    def exact_suffstat_cov(self) -> np.ndarray:
        """Cov_q[T(x), T(x)] in closed form.

        [[sigma2,        2*mu*sigma2                 ],
         [2*mu*sigma2,   2*sigma2^2 + 4*mu^2*sigma2  ]]
        """
        mu, s2 = self.mu, self.sigma2
        off = 2.0 * mu * s2
        return np.array([[s2, off], [off, 2.0 * s2 * s2 + 4.0 * mu * mu * s2]])

    def reparameterize(self, eps) -> np.ndarray:
        """Map standard-normal noise to draws: x = mu + sqrt(sigma2) * eps."""
        eps = np.asarray(eps, dtype=float)
        return self.mu + self.sigma * eps

    def path_jacobian(self, eps) -> np.ndarray:
        """d x / d eta for x = mu(eta) + sigma(eta) * eps at fixed eps.

        Through mu = -eta1/(2*eta2) and sigma2 = -1/(2*eta2):
        d x/d eta1 = sigma2,  d x/d eta2 = 2*mu*sigma2 + sigma^3 * eps.
        """
        eps = np.asarray(eps, dtype=float)
        s2 = self.sigma2
        j1 = np.full_like(eps, s2)
        j2 = 2.0 * self.mu * s2 + self.sigma ** 3 * eps
        return np.stack([j1, j2], axis=-1)

    def sample(self, seed, size: int) -> "DrawBatch":
        """The batch of size (_count) draws of q on the standard-normal noise of the stream keyed seed."""
        return DrawBatch(self, rng_from_seed(seed).standard_normal(_count("size", size)), seed)


@dataclass(frozen=True)
class DrawBatch:
    """Standard-normal noise of q, and the draws it gives, draws = q.reparameterize(noise).

    The noise is a non-empty 1-D array; size is its length. draws is
    derived here, not given, so it is q's draws of the noise by
    construction. Both arrays are read-only. seed records the key the noise
    was drawn from.
    """

    q: GaussianQ
    noise: np.ndarray
    seed: object

    def __post_init__(self):
        noise = np.asarray(self.noise, dtype=float)
        if noise.ndim != 1 or not len(noise):
            raise ValueError(f"noise must be a non-empty 1-D array, got shape {noise.shape}")
        draws = self.q.reparameterize(noise)
        noise.setflags(write=False)
        draws.setflags(write=False)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "draws", draws)

    @property
    def size(self) -> int:
        return len(self.noise)


def from_moments(mu: float, sigma2: float) -> GaussianQ:
    """Build q from its mean and variance. sigma2 <= 0 is a domain error."""
    return GaussianQ(mu, sigma2)


def from_natural(eta) -> GaussianQ:
    """Inverse of the natural-parameter map; requires eta[1] < 0."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (2,):
        raise ValueError(f"eta must be a 2-vector, got shape {eta.shape}")
    return _from_natural(*eta.tolist())


def _from_natural(eta0: float, eta1: float) -> GaussianQ:
    """from_natural of eta = (eta0, eta1) given as two floats, with its checks and messages.

    Python floats round as the numpy scalars of a 2-vector do, and overflow
    to inf or nan without a warning; GaussianQ rejects either.
    """
    if not (math.isfinite(eta0) and math.isfinite(eta1) and eta1 < 0.0):
        raise ValueError(f"eta must be finite with eta[1] < 0, got {np.array([eta0, eta1])}")
    sigma2 = -0.5 / eta1
    return GaussianQ(eta0 * sigma2, sigma2)


def sample(q: GaussianQ, seed, size: int) -> DrawBatch:
    """Module-level alias for GaussianQ.sample."""
    return q.sample(seed, size)
