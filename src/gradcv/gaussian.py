"""Univariate Gaussian approximating family in natural-parameter form.

The approximation q(x) = N(mu, sigma2) is treated as an exponential family
with sufficient statistics T(x) = (x, x^2) and natural parameters
eta = (mu/sigma2, -1/(2*sigma2)). All gradient estimators in this package
report gradients in these eta coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _seed_key(seed) -> tuple[int, ...]:
    """Normalize a seed (int, str label, or tuple of those) into a SeedSequence key.

    Ints are taken modulo 2^64. A string label becomes the integer of its
    UTF-8 bytes, whole: SeedSequence takes integers of any size, so labels
    that differ only after their eighth byte get distinct streams.
    """
    if isinstance(seed, (int, np.integer, str)):
        seed = (seed,)
    return tuple(
        int.from_bytes(s.encode(), "little") if isinstance(s, str) else int(s) & _SEED_MASK
        for s in seed
    )


def _noise_lost(q: "GaussianQ") -> str:
    """Why draws x = mu + sigma * eps of q have lost eps to rounding, or "": |mu| / sigma past MAX_MU_OVER_SIGMA."""
    if abs(q.mu) > MAX_MU_OVER_SIGMA * q.sigma:
        return (f"|mu| / sigma = {abs(q.mu) / q.sigma:.3g} exceeds {MAX_MU_OVER_SIGMA:g}, "
                "where x = mu + sigma * eps loses eps to rounding")
    return ""


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
    """Immutable N(mu, sigma2) with exponential-family accessors."""

    mu: float
    sigma2: float

    def __post_init__(self):
        mu = float(self.mu)
        sigma2 = float(self.sigma2)
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not (math.isfinite(sigma2) and sigma2 > 0.0):
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def eta(self) -> np.ndarray:
        """Natural parameters (mu/sigma2, -1/(2*sigma2))."""
        return np.array([self.mu / self.sigma2, -0.5 / self.sigma2])

    @property
    def log_normalizer(self) -> float:
        """Log-partition Z(eta), computed in moment form for stability."""
        return self.mu * self.mu / (2.0 * self.sigma2) + 0.5 * math.log(2.0 * math.pi * self.sigma2)

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
        """Deterministic batch of draws with the reparameterization noise recorded."""
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        noise = rng_from_seed(seed).standard_normal(size)
        draws = self.reparameterize(noise)
        return DrawBatch(draws=draws, noise=noise, seed=seed, size=size)


@dataclass(frozen=True)
class DrawBatch:
    """Draws from q together with the standard-normal noise that produced them."""

    draws: np.ndarray
    noise: np.ndarray
    seed: object
    size: int

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        noise = np.asarray(self.noise, dtype=float)
        if draws.shape != (self.size,) or noise.shape != (self.size,):
            raise ValueError(
                f"draws and noise must both have shape ({self.size},), "
                f"got {draws.shape} and {noise.shape}"
            )
        draws.setflags(write=False)
        noise.setflags(write=False)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "noise", noise)


def from_moments(mu: float, sigma2: float) -> GaussianQ:
    """Build q from its mean and variance. sigma2 <= 0 is a domain error."""
    return GaussianQ(mu, sigma2)


def from_natural(eta) -> GaussianQ:
    """Inverse of the natural-parameter map; requires eta[1] < 0."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (2,):
        raise ValueError(f"eta must be a 2-vector, got shape {eta.shape}")
    if not (np.isfinite(eta).all() and eta[1] < 0.0):
        raise ValueError(f"eta must be finite with eta[1] < 0, got {eta}")
    sigma2 = -0.5 / eta[1]
    return GaussianQ(eta[0] * sigma2, sigma2)


def sample(q: GaussianQ, seed, size: int) -> DrawBatch:
    """Module-level alias for GaussianQ.sample."""
    return q.sample(seed, size)
