"""Masks, IID mask sampling, missingness mechanisms, and rate calibration.

A mask is a length-d uint8 vector with 1 marking a missing (or knocked
out) feature. Induced masks are sampled from an :class:`IID` distribution
that never sees the data, so independence from inputs and targets holds
by construction. Observed missingness is injected by the mechanisms at
the bottom of this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "mask_to_bits",
    "IID",
    "calibrate_rate",
    "sample_mask",
    "sample_masks",
    "inject_mcar",
    "inject_mnar_self_censor",
    "enumerate_patterns",
]


def mask_to_bits(mask: np.ndarray) -> str:
    """Render a mask as a bit string, e.g. '010000000'."""
    return "".join("1" if b else "0" for b in mask)


@dataclass(frozen=True)
class IID:
    """Each feature knocked out independently with probability ``rate``."""

    d: int
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.d < 1:
            raise ValueError("d must be >= 1")


def calibrate_rate(d: int, p_clean: float) -> float:
    """Knockout rate r with (1 - r)^d = p_clean.

    p_clean is the probability that a sampled mask knocks out nothing,
    e.g. 0.5 so that half of the rows stay clean.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < p_clean < 1.0:
        raise ValueError(f"p_clean must be in (0, 1), got {p_clean}")
    return 1.0 - p_clean ** (1.0 / d)


def sample_mask(dist: IID, rng: np.random.Generator) -> np.ndarray:
    """Draw one mask. Takes no data argument: masks are independent of X, Y."""
    return sample_masks(dist, 1, rng)[0]


def sample_masks(dist: IID, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n masks as an (n, d) uint8 matrix."""
    return (rng.random((n, dist.d)) < dist.rate).astype(np.uint8)


def inject_mcar(data: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Mark each entry missing independently with probability p.

    Returns the observed mask N, shaped like ``data``; the data is left
    untouched, so its values stay available for oracle checks, but
    trainers must treat N == 1 entries as unavailable.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    n, d = np.shape(data)
    return sample_masks(IID(d, p), n, rng)


def inject_mnar_self_censor(data: np.ndarray, q: float) -> np.ndarray:
    """Self-censor: entry (i, j) is missing iff it exceeds column j's q-quantile.

    The quantile is the nearest-rank empirical quantile (sorted value at
    1-based index ceil(q * n)); entries strictly greater are censored.
    Returns the observed mask. Deterministic given the dataset.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    if n == 0:
        return np.zeros_like(data, dtype=np.uint8)
    rank = max(1, math.ceil(q * n))
    cutoffs = np.sort(data, axis=0)[rank - 1]
    return (data > cutoffs).astype(np.uint8)


def enumerate_patterns(d: int, k_max: int) -> list[np.ndarray]:
    """All masks with at most k_max ones, sorted by (popcount, lexicographic)."""
    if not 0 <= k_max <= d:
        raise ValueError(f"need 0 <= k_max <= d, got k_max={k_max}, d={d}")
    patterns = []
    for k in range(k_max + 1):
        level = []
        for idx in itertools.combinations(range(d), k):
            mask = np.zeros(d, dtype=np.uint8)
            mask[list(idx)] = 1
            level.append(mask)
        level.sort(key=lambda m: tuple(m))
        patterns.extend(level)
    return patterns
