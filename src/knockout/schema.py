"""Feature descriptions, normalization, and placeholder derivation.

A feature schema declares what each input column is: an integer-coded
categorical or an unbounded continuous feature. The kind fixes how the
feature is normalized and which placeholder values mark a knocked-out
entry (``knockout_values``) versus an entry that was missing in the
observed data (``observed_values``).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature affine map ``z = (x - mean) / std``.

    Continuous features are z-scored; categorical features have mean 0 and
    std 1, so their codes pass through unchanged. Both arrays have length d
    and the object is immutable once fitted.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.ndim != 1 or self.std.shape != self.mean.shape:
            raise ValueError(
                "mean and std must be vectors of one length, "
                f"got shapes {self.mean.shape} and {self.std.shape}"
            )
        for i, (mean, std) in enumerate(zip(self.mean, self.std)):
            if not np.isfinite(mean):
                raise ValueError(f"feature {i}: mean must be finite, got {mean}")
            if not 0 < std < np.inf:
                raise ValueError(f"feature {i}: std must be in (0, inf), got {std}")


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
    """Ordered feature declarations."""

    features: tuple[tuple[str, FeatureKind], ...]

    @property
    def d(self) -> int:
        return len(self.features)

    @property
    def kinds(self) -> tuple[FeatureKind, ...]:
        return tuple(kind for _, kind in self.features)


def _batch(rows: np.ndarray, d: int) -> np.ndarray:
    """``rows``, an (n, d) batch, as a float matrix."""
    mat = np.asarray(rows, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != d:
        raise ValueError(f"expected an (n, {d}) batch, got shape {mat.shape}")
    return mat


def fit_normalization(
    schema: FeatureSchema,
    raw: np.ndarray,
    observed_mask: np.ndarray,
) -> NormalizationStats:
    """Fit per-feature normalization from the observed entries of ``raw``.

    ``observed_mask`` marks missing entries with 1 (same convention as
    the masks elsewhere); those entries are excluded from the statistics.
    """
    raw = _batch(raw, schema.d)
    if raw.shape[0] == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    observed_mask = np.asarray(observed_mask)
    if observed_mask.shape != raw.shape:
        raise ValueError("observed_mask must match the data shape")

    mean = np.zeros(schema.d)
    std = np.ones(schema.d)
    for i, (name, kind) in enumerate(schema.features):
        col = raw[observed_mask[:, i] == 0, i]
        if col.size == 0:
            raise ValueError(f"feature {i} ({name!r}): no observed entries to fit")
        if isinstance(kind, ContinuousUnbounded):
            mean[i] = col.mean()
            std[i] = col.std()  # population std; deterministic preprocessing choice
            if std[i] == 0:
                raise ValueError(f"feature {i} ({name!r}): constant feature, std is 0")

    return NormalizationStats(mean, std)


def apply_normalization(rows: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Map a batch of raw rows into normalized coordinates."""
    return (_batch(rows, len(stats.mean)) - stats.mean) / stats.std


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
    mat = _batch(rows, schema.d)
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
