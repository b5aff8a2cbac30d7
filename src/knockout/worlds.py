"""Synthetic worlds with ground-truth oracles.

The Gaussian regression world has a closed-form Bayes-optimal
conditional mean for any observed subset of features. The binary
classification worlds have analytic posteriors and a histogram-based
empirical marginal estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianWorld",
    "MixedClassWorld",
    "BinnedConditional",
    "sample_gaussian_world",
    "draw_dataset",
    "bayes_conditional_mean",
    "generate_mixed_classification",
    "class_posterior",
    "empirical_conditional",
]

_JITTER = 1e-9


@dataclass(frozen=True)
class GaussianWorld:
    """Jointly Gaussian (X, Y); the last coordinate is the target."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def d_x(self) -> int:
        return self.dim - 1

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be (k,) and cov (k, k)")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.cov + _JITTER * np.eye(self.dim))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"covariance not factorizable even with jitter: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "cov": self.cov.tolist()}


def sample_gaussian_world(rng: np.random.Generator, dim: int = 10) -> GaussianWorld:
    """mean ~ U(0,1)^dim and cov = W^T W with W ~ U(0,1)^(dim x dim)."""
    mean = rng.uniform(0.0, 1.0, size=dim)
    w = rng.uniform(0.0, 1.0, size=(dim, dim))
    gram = w.T @ w
    cov = (gram + gram.T) / 2.0  # exact symmetry despite float round-off
    return GaussianWorld(mean, cov)


def draw_dataset(
    world: GaussianWorld, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. rows; returns (X, y) with the last coordinate split off."""
    chol = world.cholesky()
    z = rng.standard_normal((n, world.dim))
    rows = world.mean + z @ chol.T
    return rows[:, :-1], rows[:, -1]


def bayes_conditional_mean(
    world: GaussianWorld,
    observed_idx,
    x_obs: np.ndarray,
) -> np.ndarray:
    """E[Y | X_S = x_obs] for the observed feature subset S.

    ``observed_idx`` indexes the X coordinates (0-based, excluding the
    target). ``x_obs`` is (m, |S|) for m rows; an empty S returns the
    unconditional mean.
    """
    observed_idx = list(observed_idx)
    x_obs = np.asarray(x_obs, dtype=float)
    if not observed_idx:
        return np.full(x_obs.shape[0], world.mean[-1])
    if min(observed_idx) < 0 or max(observed_idx) >= world.d_x:
        raise ValueError(f"observed indices must be within 0..{world.d_x - 1}")
    if x_obs.ndim != 2 or x_obs.shape[1] != len(observed_idx):
        raise ValueError("x_obs must be an (m, |S|) batch, one column per observed index")
    y = world.dim - 1
    cov_ss = world.cov[np.ix_(observed_idx, observed_idx)] + _JITTER * np.eye(len(observed_idx))
    cov_sy = world.cov[observed_idx, y]
    try:
        weights = np.linalg.solve(cov_ss, cov_sy)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular covariance block for subset {observed_idx}") from exc
    mu_s = world.mean[observed_idx]
    return world.mean[y] + (x_obs - mu_s) @ weights


@dataclass(frozen=True)
class MixedClassWorld:
    """Two-class generative world.

    kind "continuous2d": both features Gaussian per class, isotropic with
    per-class scale. kind "mixed": feature 0 is a two-valued code (1/2)
    with per-class hit rates, feature 1 is Gaussian per class.
    """

    kind: str
    prior1: float = 0.5
    mean0: tuple[float, float] = (0.0, 0.0)
    mean1: tuple[float, float] = (0.0, 0.0)
    sigma0: float = 0.25
    sigma1: float = 2.5
    p_code2_given0: float = 0.2  # mixed: P(feature0 takes code 2 | Y=0)
    p_code2_given1: float = 0.8
    mu2_0: float = -1.0  # mixed: continuous feature mean per class
    mu2_1: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        if self.kind not in ("continuous2d", "mixed"):
            raise ValueError(f"unknown class-world kind {self.kind!r}")
        if not 0.0 < self.prior1 < 1.0:
            raise ValueError("prior1 must be in (0, 1)")
        if self.sigma0 <= 0 or self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("class scales must be positive")


def generate_mixed_classification(
    world: MixedClassWorld, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (X, y) with binary labels; X is (n, 2)."""
    y = (rng.random(n) < world.prior1).astype(int)
    x = np.empty((n, 2))
    if world.kind == "continuous2d":
        means = np.where(
            y[:, None] == 1, np.asarray(world.mean1), np.asarray(world.mean0)
        )
        sigmas = np.where(y == 1, world.sigma1, world.sigma0)[:, None]
        x = means + sigmas * rng.standard_normal((n, 2))
    else:
        p2 = np.where(y == 1, world.p_code2_given1, world.p_code2_given0)
        x[:, 0] = np.where(rng.random(n) < p2, 2.0, 1.0)
        mu = np.where(y == 1, world.mu2_1, world.mu2_0)
        x[:, 1] = mu + world.sigma2 * rng.standard_normal(n)
    return x, y


def _norm_logpdf(x, mu, sigma):
    z = (x - mu) / sigma
    return -0.5 * z * z - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)


def class_posterior(world: MixedClassWorld, x: np.ndarray) -> np.ndarray:
    """Exact P(Y = 1 | X = x) for each row of the (n, 2) batch ``x``."""
    x = np.asarray(x, dtype=float)
    if world.kind == "continuous2d":
        log1 = (
            _norm_logpdf(x[:, 0], world.mean1[0], world.sigma1)
            + _norm_logpdf(x[:, 1], world.mean1[1], world.sigma1)
            + math.log(world.prior1)
        )
        log0 = (
            _norm_logpdf(x[:, 0], world.mean0[0], world.sigma0)
            + _norm_logpdf(x[:, 1], world.mean0[1], world.sigma0)
            + math.log(1.0 - world.prior1)
        )
    else:
        code2 = x[:, 0] == 2.0
        log1 = (
            np.where(code2, math.log(world.p_code2_given1), math.log(1 - world.p_code2_given1))
            + _norm_logpdf(x[:, 1], world.mu2_1, world.sigma2)
            + math.log(world.prior1)
        )
        log0 = (
            np.where(code2, math.log(world.p_code2_given0), math.log(1 - world.p_code2_given0))
            + _norm_logpdf(x[:, 1], world.mu2_0, world.sigma2)
            + math.log(1.0 - world.prior1)
        )
    return 1.0 / (1.0 + np.exp(log0 - log1))


@dataclass(frozen=True)
class BinnedConditional:
    """Empirical P(Y=1 | feature) over bins (continuous) or values (discrete)."""

    positions: np.ndarray  # bin centers or discrete values
    p1: np.ndarray
    counts: np.ndarray

    @property
    def occupied(self) -> np.ndarray:
        return self.counts > 0


def empirical_conditional(
    x_feature: np.ndarray,
    y: np.ndarray,
    bins: int = 50,
    discrete: bool = False,
) -> BinnedConditional:
    """Histogram estimate of P(Y=1 | feature).

    Continuous features use equal-width bins over the observed range with
    Laplace (+1/+2) smoothing; discrete features use exact per-value
    frequencies.
    """
    x_feature = np.asarray(x_feature, dtype=float)
    y = np.asarray(y, dtype=int)
    if x_feature.shape[0] != y.shape[0] or x_feature.shape[0] == 0:
        raise ValueError("feature and labels must be equal-length and nonempty")
    if discrete:
        values = np.unique(x_feature)
        p1 = np.empty(values.size)
        counts = np.empty(values.size, dtype=int)
        for i, v in enumerate(values):
            sel = x_feature == v
            counts[i] = int(sel.sum())
            p1[i] = y[sel].mean()
        return BinnedConditional(values, p1, counts)

    lo, hi = float(x_feature.min()), float(x_feature.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.clip(np.searchsorted(edges, x_feature, side="right") - 1, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    ones = np.bincount(idx, weights=y, minlength=bins)
    p1 = (ones + 1.0) / (counts + 2.0)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return BinnedConditional(centers, p1, counts)
