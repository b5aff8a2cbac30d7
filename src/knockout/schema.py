"""Feature descriptions, normalization, and placeholder derivation.

A feature schema declares what each input column is (an integer-coded
categorical or an unbounded continuous feature), how it is normalized,
and which placeholder values mark a knocked-out entry
(``knockout_values``) versus an entry that was missing in the observed
data (``observed_values``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Categorical",
    "ContinuousUnbounded",
    "FeatureKind",
    "NormalizationStats",
    "PlaceholderPolicy",
    "FeatureSchema",
    "fit_normalization",
    "apply_normalization",
    "invert_normalization",
    "derive_placeholders",
    "encode_inputs",
    "encoded_width",
]


@dataclass(frozen=True)
class Categorical:
    """Integer-coded classes 1..n_classes."""

    n_classes: int

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"Categorical needs >= 2 classes, got {self.n_classes}")


@dataclass(frozen=True)
class ContinuousUnbounded:
    pass


FeatureKind = Union[Categorical, ContinuousUnbounded]

# Continuous features are z-scored; categorical codes pass through.
_MODES = ("zscore", "none")


def _mode_for_kind(kind: FeatureKind) -> str:
    if isinstance(kind, Categorical):
        return "none"
    if isinstance(kind, ContinuousUnbounded):
        return "zscore"
    raise ValueError(f"unknown feature kind: {kind!r}")


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature normalization parameters.

    ``mean`` and ``std`` hold NaN for features that are not z-scored. All
    arrays have length d and the object is immutable once fitted.
    """

    modes: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    @property
    def d(self) -> int:
        return len(self.modes)

    def __post_init__(self):
        if self.mean.shape != (self.d,) or self.std.shape != (self.d,):
            raise ValueError(f"mean and std must have length {self.d}, one entry per mode")
        for i, mode in enumerate(self.modes):
            if mode not in _MODES:
                raise ValueError(f"feature {i}: unknown normalization mode {mode!r}")
            if mode == "zscore" and not np.isfinite(self.mean[i]):
                raise ValueError(f"feature {i}: zscore mean must be finite, got {self.mean[i]}")
            if mode == "zscore" and not 0 < self.std[i] < np.inf:
                raise ValueError(f"feature {i}: zscore std must be > 0, got {self.std[i]}")


@dataclass(frozen=True)
class PlaceholderPolicy:
    """Placeholder values in normalized coordinates.

    ``knockout_values[i]`` replaces feature i when it is knocked out;
    ``observed_values[i]`` replaces it when it was missing in the data
    under a MAR/MNAR mechanism. The two must differ on every feature so
    the model can tell the events apart.
    """

    knockout_values: np.ndarray
    observed_values: np.ndarray

    def __post_init__(self):
        if self.knockout_values.shape != self.observed_values.shape:
            raise ValueError("placeholder vectors must have equal length")
        for name, values in (("knockout", self.knockout_values), ("observed", self.observed_values)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name} placeholder is not finite for feature(s) {bad.tolist()}")
        clashes = np.flatnonzero(self.knockout_values == self.observed_values)
        if clashes.size:
            raise ValueError(
                "observed-missingness placeholder equals knockout placeholder "
                f"for feature(s) {clashes.tolist()}; the two must differ"
            )


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature declarations plus fitted stats."""

    features: tuple[tuple[str, FeatureKind], ...]
    stats: NormalizationStats | None = None

    @property
    def d(self) -> int:
        return len(self.features)

    @property
    def kinds(self) -> tuple[FeatureKind, ...]:
        return tuple(kind for _, kind in self.features)

    def with_stats(self, stats: NormalizationStats) -> "FeatureSchema":
        return dataclasses.replace(self, stats=stats)


def fit_normalization(
    schema: FeatureSchema,
    raw: np.ndarray,
    observed_mask: np.ndarray,
) -> NormalizationStats:
    """Fit per-feature normalization from the observed entries of ``raw``.

    ``observed_mask`` marks missing entries with 1 (same convention as
    the masks elsewhere); those entries are excluded from the statistics.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != schema.d:
        raise ValueError(f"expected an (n, {schema.d}) data matrix, got shape {raw.shape}")
    if raw.shape[0] == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    observed_mask = np.asarray(observed_mask)
    if observed_mask.shape != raw.shape:
        raise ValueError("observed_mask must match the data shape")

    modes = tuple(_mode_for_kind(kind) for kind in schema.kinds)
    mean = np.full(schema.d, np.nan)
    std = np.full(schema.d, np.nan)
    for i, (name, _) in enumerate(schema.features):
        col = raw[observed_mask[:, i] == 0, i]
        if col.size == 0:
            raise ValueError(f"feature {i} ({name!r}): no observed entries to fit")
        if modes[i] == "zscore":
            mean[i] = col.mean()
            std[i] = col.std()  # population std; deterministic preprocessing choice
            if std[i] == 0:
                raise ValueError(f"feature {i} ({name!r}): constant feature, std is 0")

    return NormalizationStats(modes, mean, std)


def _zscored(rows: np.ndarray, stats: NormalizationStats):
    """``rows``, an (n, d) batch, as a float matrix, and the mask of the
    z-scored columns."""
    mat = np.asarray(rows, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != stats.d:
        raise ValueError(f"expected an (n, {stats.d}) batch, got shape {mat.shape}")
    return mat, np.array([mode == "zscore" for mode in stats.modes])


def apply_normalization(rows: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Map a batch of raw rows into normalized coordinates (invertible per
    feature)."""
    mat, z = _zscored(rows, stats)
    out = mat.copy()
    out[:, z] = (mat[:, z] - stats.mean[z]) / stats.std[z]
    return out


def invert_normalization(rows: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Inverse of :func:`apply_normalization` on each feature."""
    mat, z = _zscored(rows, stats)
    out = mat.copy()
    out[:, z] = mat[:, z] * stats.std[z] + stats.mean[z]
    return out


# Derived placeholders of a z-scored feature sit this many standard
# deviations from its mean: far outside the data's support.
_ZSCORE_PLACEHOLDER = 10.0


def derive_placeholders(schema: FeatureSchema) -> PlaceholderPolicy:
    """Derive both placeholder vectors in normalized coordinates.

    Categorical features get the two extra codes n+1 (knockout) and n+2
    (observed missing); z-scored features get +/- ``_ZSCORE_PLACEHOLDER``.
    """
    knock = np.empty(schema.d)
    observed = np.empty(schema.d)
    for i, kind in enumerate(schema.kinds):
        if isinstance(kind, Categorical):
            knock[i] = kind.n_classes + 1
            observed[i] = kind.n_classes + 2
        elif isinstance(kind, ContinuousUnbounded):
            knock[i] = _ZSCORE_PLACEHOLDER
            observed[i] = -_ZSCORE_PLACEHOLDER
        else:
            raise ValueError(f"unknown feature kind: {kind!r}")
    return PlaceholderPolicy(knock, observed)


def encoded_width(schema: FeatureSchema) -> int:
    """Model input width: real classes plus the knockout and observed slots
    for each categorical feature, one column for each continuous one."""
    return sum(kind.n_classes + 2 if isinstance(kind, Categorical) else 1 for kind in schema.kinds)


def encode_inputs(schema: FeatureSchema, rows: np.ndarray) -> np.ndarray:
    """Expand the categorical codes of a batch to one-hot columns;
    continuous columns pass through.

    The one-hot of a feature with n classes has width n+2, with dedicated
    slots for the two placeholder codes n+1 and n+2.
    """
    mat = np.asarray(rows, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != schema.d:
        raise ValueError(f"expected an (n, {schema.d}) batch, got shape {mat.shape}")
    cols = []
    for i, (_, kind) in enumerate(schema.features):
        if not isinstance(kind, Categorical):
            cols.append(mat[:, i : i + 1])
            continue
        width = kind.n_classes + 2
        codes = np.rint(mat[:, i]).astype(int)
        block = np.zeros((mat.shape[0], width))
        valid = (codes >= 1) & (codes <= width)
        block[np.flatnonzero(valid), codes[valid] - 1] = 1.0
        cols.append(block)
    return np.concatenate(cols, axis=1)
