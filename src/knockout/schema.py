"""Feature descriptions, normalization, and placeholder derivation.

A feature schema declares what each input column is (categorical,
bounded/half-bounded/unbounded continuous, or a member of a structured
group), how it is normalized, and which placeholder values mark a
knocked-out entry (``knockout_values``) versus an entry that was missing
in the observed data (``observed_values``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Categorical",
    "ContinuousBounded",
    "ContinuousHalfBounded",
    "ContinuousUnbounded",
    "StructuredGroup",
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
class ContinuousBounded:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"ContinuousBounded needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ContinuousHalfBounded:
    bound: float
    side: str  # "lower": support [bound, inf); "upper": support (-inf, bound]

    def __post_init__(self):
        if self.side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower' or 'upper', got {self.side!r}")


@dataclass(frozen=True)
class ContinuousUnbounded:
    pass


@dataclass(frozen=True)
class StructuredGroup:
    """Marks a feature as one scalar of a jointly knocked-out group."""

    dim: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("StructuredGroup dim must be >= 1")
        if len(set(self.members)) != len(self.members):
            raise ValueError("StructuredGroup member indices must be distinct")
        if len(self.members) != self.dim:
            raise ValueError("StructuredGroup dim must equal the number of members")


FeatureKind = Union[
    Categorical,
    ContinuousBounded,
    ContinuousHalfBounded,
    ContinuousUnbounded,
    StructuredGroup,
]

_MODES = ("zscore", "scale01", "scale0inf", "none")


def _mode_for_kind(kind: FeatureKind) -> str:
    if isinstance(kind, Categorical):
        return "none"
    if isinstance(kind, ContinuousBounded):
        return "scale01"
    if isinstance(kind, ContinuousHalfBounded):
        return "scale0inf"
    if isinstance(kind, (ContinuousUnbounded, StructuredGroup)):
        return "zscore"
    raise ValueError(f"unknown feature kind: {kind!r}")


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature normalization parameters.

    Unused slots hold NaN (e.g. ``mean`` for a scale01 feature). All
    arrays have length d and the object is immutable once fitted.
    """

    modes: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    shift: np.ndarray
    upper_sided: np.ndarray  # bool; True for half-bounded features with side="upper"

    @property
    def d(self) -> int:
        return len(self.modes)

    def validate(self) -> None:
        for i, mode in enumerate(self.modes):
            if mode not in _MODES:
                raise ValueError(f"feature {i}: unknown normalization mode {mode!r}")
            if mode == "zscore" and not self.std[i] > 0:
                raise ValueError(f"feature {i}: zscore std must be > 0, got {self.std[i]}")
            if mode == "scale01" and not self.hi[i] > self.lo[i]:
                raise ValueError(
                    f"feature {i}: scale01 needs hi > lo, got [{self.lo[i]}, {self.hi[i]}]"
                )

    def to_json_dict(self) -> dict:
        # Unused (NaN) slots are written as null, which reads back as NaN.
        return {
            "modes": list(self.modes),
            "mean": _nan_to_none(self.mean),
            "std": _nan_to_none(self.std),
            "lo": _nan_to_none(self.lo),
            "hi": _nan_to_none(self.hi),
            "shift": _nan_to_none(self.shift),
            "upper_sided": [bool(u) for u in self.upper_sided],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NormalizationStats":
        return cls(
            modes=tuple(obj["modes"]),
            mean=np.asarray(obj["mean"], dtype=float),
            std=np.asarray(obj["std"], dtype=float),
            lo=np.asarray(obj["lo"], dtype=float),
            hi=np.asarray(obj["hi"], dtype=float),
            shift=np.asarray(obj["shift"], dtype=float),
            upper_sided=np.asarray(obj["upper_sided"], dtype=bool),
        )


def _nan_to_none(values: np.ndarray) -> list:
    return [None if np.isnan(v) else float(v) for v in values]


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
    zscore_magnitude: float = 10.0

    def validate(self) -> None:
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

    def to_json_dict(self) -> dict:
        return {
            "knockout_values": self.knockout_values.tolist(),
            "observed_values": self.observed_values.tolist(),
            "zscore_magnitude": self.zscore_magnitude,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PlaceholderPolicy":
        return cls(
            knockout_values=np.asarray(obj["knockout_values"], dtype=float),
            observed_values=np.asarray(obj["observed_values"], dtype=float),
            zscore_magnitude=float(obj["zscore_magnitude"]),
        )


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature declarations plus fitted stats and policy."""

    features: tuple[tuple[str, FeatureKind], ...]
    stats: NormalizationStats | None = None
    policy: PlaceholderPolicy | None = None
    groups: tuple[tuple[int, ...], ...] | None = None

    @property
    def d(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.features)

    @property
    def kinds(self) -> tuple[FeatureKind, ...]:
        return tuple(kind for _, kind in self.features)

    def __post_init__(self):
        if self.groups is not None:
            flat = [i for group in self.groups for i in group]
            if sorted(flat) != list(range(self.d)):
                raise ValueError("groups must form a partition of the feature indices")

    def with_stats(self, stats: NormalizationStats) -> "FeatureSchema":
        return dataclasses.replace(self, stats=stats)

    def with_policy(self, policy: PlaceholderPolicy) -> "FeatureSchema":
        return dataclasses.replace(self, policy=policy)


def _as_matrix(rows: np.ndarray) -> tuple[np.ndarray, bool]:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        return rows[None, :], True
    return rows, False


def fit_normalization(
    schema: FeatureSchema,
    raw: np.ndarray,
    observed_mask: np.ndarray | None = None,
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
    if observed_mask is not None:
        observed_mask = np.asarray(observed_mask)
        if observed_mask.shape != raw.shape:
            raise ValueError("observed_mask must match the data shape")

    d = schema.d
    modes = tuple(_mode_for_kind(kind) for kind in schema.kinds)
    mean = np.full(d, np.nan)
    std = np.full(d, np.nan)
    lo = np.full(d, np.nan)
    hi = np.full(d, np.nan)
    shift = np.full(d, np.nan)
    upper = np.zeros(d, dtype=bool)

    for i, (name, kind) in enumerate(schema.features):
        col = raw[:, i]
        if observed_mask is not None:
            col = col[observed_mask[:, i] == 0]
        if col.size == 0:
            raise ValueError(f"feature {i} ({name!r}): no observed entries to fit")
        mode = modes[i]
        if mode == "zscore":
            mean[i] = col.mean()
            std[i] = col.std()  # population std; deterministic preprocessing choice
            if std[i] == 0:
                raise ValueError(f"feature {i} ({name!r}): constant feature, std is 0")
        elif mode == "scale01":
            lo[i], hi[i] = col.min(), col.max()
            if hi[i] == lo[i]:
                raise ValueError(f"feature {i} ({name!r}): constant feature, hi == lo")
        elif mode == "scale0inf":
            assert isinstance(kind, ContinuousHalfBounded)
            upper[i] = kind.side == "upper"
            shift[i] = col.max() if upper[i] else col.min()

    stats = NormalizationStats(modes, mean, std, lo, hi, shift, upper)
    stats.validate()
    return stats


def apply_normalization(rows: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Map raw rows into normalized coordinates (invertible per feature)."""
    mat, single = _as_matrix(rows)
    if mat.shape[1] != stats.d:
        raise ValueError(f"row length {mat.shape[1]} != schema d {stats.d}")
    out = mat.copy()
    for i, mode in enumerate(stats.modes):
        if mode == "zscore":
            out[:, i] = (mat[:, i] - stats.mean[i]) / stats.std[i]
        elif mode == "scale01":
            out[:, i] = (mat[:, i] - stats.lo[i]) / (stats.hi[i] - stats.lo[i])
        elif mode == "scale0inf":
            if stats.upper_sided[i]:
                out[:, i] = stats.shift[i] - mat[:, i]
            else:
                out[:, i] = mat[:, i] - stats.shift[i]
    return out[0] if single else out


def invert_normalization(rows: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Inverse of :func:`apply_normalization` on each feature."""
    mat, single = _as_matrix(rows)
    if mat.shape[1] != stats.d:
        raise ValueError(f"row length {mat.shape[1]} != schema d {stats.d}")
    out = mat.copy()
    for i, mode in enumerate(stats.modes):
        if mode == "zscore":
            out[:, i] = mat[:, i] * stats.std[i] + stats.mean[i]
        elif mode == "scale01":
            out[:, i] = mat[:, i] * (stats.hi[i] - stats.lo[i]) + stats.lo[i]
        elif mode == "scale0inf":
            if stats.upper_sided[i]:
                out[:, i] = stats.shift[i] - mat[:, i]
            else:
                out[:, i] = mat[:, i] + stats.shift[i]
    return out[0] if single else out


def derive_placeholders(
    schema: FeatureSchema,
    stats: NormalizationStats,
    zscore_magnitude: float = 10.0,
) -> PlaceholderPolicy:
    """Derive both placeholder vectors in normalized coordinates.

    Categorical features get the two extra codes n+1 (knockout) and n+2
    (observed missing). Bounded and half-bounded features, whose
    normalized supports are [0, 1] and [0, inf), get -1 and -2. Unbounded
    scalars get +/- ``zscore_magnitude`` after z-scoring. Structured-group
    members get the zero vector (the post-z-score mean); their
    observed-missing value is -``zscore_magnitude``.
    """
    if zscore_magnitude <= 0:
        raise ValueError("zscore_magnitude must be positive")
    d = schema.d
    knock = np.empty(d)
    observed = np.empty(d)
    for i, (_, kind) in enumerate(schema.features):
        if isinstance(kind, Categorical):
            knock[i] = kind.n_classes + 1
            observed[i] = kind.n_classes + 2
        elif isinstance(kind, (ContinuousBounded, ContinuousHalfBounded)):
            knock[i] = -1.0
            observed[i] = -2.0
        elif isinstance(kind, ContinuousUnbounded):
            knock[i] = zscore_magnitude
            observed[i] = -zscore_magnitude
        elif isinstance(kind, StructuredGroup):
            knock[i] = 0.0
            observed[i] = -zscore_magnitude
        else:
            raise ValueError(f"unknown feature kind: {kind!r}")
    policy = PlaceholderPolicy(knock, observed, zscore_magnitude)
    policy.validate()
    return policy


def encoded_width(schema: FeatureSchema, categorical_encoding: str = "extra_class") -> int:
    """Model input width after one-hot expansion of categorical features."""
    width = 0
    for _, kind in schema.features:
        if isinstance(kind, Categorical):
            if categorical_encoding == "extra_class":
                width += kind.n_classes + 2  # real classes + knockout + observed slots
            elif categorical_encoding == "zero_vector":
                width += kind.n_classes
            else:
                raise ValueError(f"unknown categorical encoding {categorical_encoding!r}")
        else:
            width += 1
    return width


def encode_inputs(
    schema: FeatureSchema,
    rows: np.ndarray,
    categorical_encoding: str = "extra_class",
) -> np.ndarray:
    """Expand categorical codes to one-hot columns; continuous pass through.

    Under ``extra_class`` the one-hot has width n+2 with dedicated slots
    for the two placeholder codes. Under ``zero_vector`` the width is n
    and any out-of-range code (placeholders included) encodes as all
    zeros.
    """
    mat, single = _as_matrix(rows)
    if mat.shape[1] != schema.d:
        raise ValueError(f"row length {mat.shape[1]} != schema d {schema.d}")
    cols = []
    for i, (_, kind) in enumerate(schema.features):
        if not isinstance(kind, Categorical):
            cols.append(mat[:, i : i + 1])
            continue
        n = kind.n_classes
        width = n + 2 if categorical_encoding == "extra_class" else n
        if categorical_encoding not in ("extra_class", "zero_vector"):
            raise ValueError(f"unknown categorical encoding {categorical_encoding!r}")
        codes = np.rint(mat[:, i]).astype(int)
        block = np.zeros((mat.shape[0], width))
        valid = (codes >= 1) & (codes <= width)
        block[np.flatnonzero(valid), codes[valid] - 1] = 1.0
        cols.append(block)
    out = np.concatenate(cols, axis=1)
    return out[0] if single else out


def placeholder_in_support_violations(
    schema: FeatureSchema, policy: PlaceholderPolicy
) -> list[int]:
    """Indices whose knockout placeholder falls inside the normalized support.

    Only bounded and half-bounded features have a checkable interval
    ([0, 1] and [0, inf) after normalization). Structured-group members
    are exempt: their zero placeholder is deliberately in-support.
    """
    bad = []
    for i, (_, kind) in enumerate(schema.features):
        v = policy.knockout_values[i]
        if isinstance(kind, ContinuousBounded):
            if 0.0 <= v <= 1.0:
                bad.append(i)
        elif isinstance(kind, ContinuousHalfBounded):
            if v >= 0.0:
                bad.append(i)
        elif isinstance(kind, Categorical):
            if 1 <= v <= kind.n_classes and float(v).is_integer():
                bad.append(i)
    return bad


def stats_to_json(stats: NormalizationStats) -> str:
    return json.dumps(stats.to_json_dict(), sort_keys=True, allow_nan=False)


def stats_from_json(text: str) -> NormalizationStats:
    return NormalizationStats.from_json_dict(json.loads(text))
