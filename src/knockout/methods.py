"""Method kinds and their missing-input rules.

Each kind has one rule: ``rule.inputs(z, induced, observed)`` maps
normalized rows ``z``, an induced mask (one pattern for every row, or one
mask per row) and the data's own missingness ``observed`` (1 = missing)
to model inputs. Training calls it with the masks it samples and
inference with the swept pattern, so both apply the same rule.

Three kinds fill masked entries with placeholder values, one rule for
all: ``common_baseline`` is knockout with the mean/mode fills as its
placeholders and no induced masks in training, and ``dropout`` is the
same with zero fills, trained on induced masks drawn per entry (its
random zeroing). The other kinds take the union of the induced and
observed masks from `augment.mask_union`.

``RULES`` maps each kind to its rule class. A rule class provides
``fit(cfg, method, schema, z_train, observed) -> (rule, augment)``, where
``augment`` is the per-batch training hook, or None when the training
inputs are the rule's output with no induced mask, computed once; and
``width()`` for the network's input width. A rule is a deterministic
function of the config and the repetition's training split, so a saved
model holds none of it: `knockout sweep` fits it again.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .augment import mask_union, merge_observed
from .baselines import Imputer, fit_imputer, impute
from .missingness import IID, calibrate_rate, sample_mask, sample_masks
from .schema import (
    Categorical,
    FeatureSchema,
    PlaceholderPolicy,
    derive_placeholders,
    encode_inputs,
    encoded_width,
)

__all__ = ["RULES"]


def _mask_sampler(method, d: int, granularity: str):
    """Induced masks for a batch of n rows: one shared mask, or one per row."""
    dist = IID(d, calibrate_rate(d, method.p_clean))
    if granularity == "per_batch":
        return lambda rng, n: sample_mask(dist, rng)
    return lambda rng, n: sample_masks(dist, n, rng)


def _masked_training(rule, sample):
    """Training hook of a kind whose rule sees sampled induced masks."""

    def augment(xb, nb, rng):
        return rule.inputs(xb, sample(rng, xb.shape[0]), nb)

    return augment


def _require_continuous(method, schema: FeatureSchema) -> None:
    if any(isinstance(kind, Categorical) for kind in schema.kinds):
        raise ValueError(
            f"method {method.name!r} ({method.kind}) supports continuous features only"
        )


def _fill_values(schema: FeatureSchema, z_train: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Mean/mode imputation values in normalized coordinates.

    Z-scored features have observed mean exactly 0 after normalization;
    categorical codes take the mode of their observed training entries,
    ties going to the lowest code.
    """
    fills = np.zeros(schema.d)
    for j, kind in enumerate(schema.kinds):
        if isinstance(kind, Categorical):
            codes = z_train[observed[:, j] == 0, j]
            if codes.size == 0:
                raise ValueError(f"feature {j}: every entry is missing, cannot fit")
            values, counts = np.unique(codes, return_counts=True)
            fills[j] = values[np.argmax(counts)]  # values ascend: ties take the lowest
    return fills


def _fill_policy(fills: np.ndarray) -> PlaceholderPolicy:
    """Placeholders that put ``fills`` at masked entries. The rules built on
    them merge with the union of both masks, so the observed-missing value
    ``fills - 1`` only keeps the policy valid; knockout* under MNAR infers
    with it all the same (see `KnockoutRule.fit`)."""
    return PlaceholderPolicy(fills, fills - 1.0)


def _knockout_policy(method, schema: FeatureSchema, z_train, observed) -> PlaceholderPolicy:
    if method.placeholder == "mean":  # knockout*: the mean/mode fill values
        return _fill_policy(_fill_values(schema, z_train, observed))
    derived = derive_placeholders(schema)
    knock, obs = method.knockout_value, method.observed_value
    return PlaceholderPolicy(
        derived.knockout_values if knock is None else np.full(schema.d, knock),
        derived.observed_values if obs is None else np.full(schema.d, obs),
    )


@dataclass
class Rule:
    """What every rule holds: the schema its rows are encoded with."""

    schema: FeatureSchema

    def width(self) -> int:
        return encoded_width(self.schema)


@dataclass
class KnockoutRule(Rule):
    """Knockout placeholders at induced entries. Observed-missing entries get
    the observed-missingness placeholders with ``dual_placeholder`` (the
    MNAR merge), else they join the induced mask (the MCAR merge)."""

    policy: PlaceholderPolicy
    dual_placeholder: bool

    @classmethod
    def fit(cls, cfg, method, schema, z_train, observed):
        policy = _knockout_policy(method, schema, z_train, observed)
        # Training uses the dual placeholder only for derived placeholders
        # under MNAR (MCAR test data has no missing entries to tell apart),
        # and inference uses the flag training used. knockout*
        # (placeholder = mean) under MNAR keeps its configured flag for
        # inference instead: a known mismatch, pinned by the strict xfail
        # test_knockout_star_mnar_inference_inputs_equal_training_inputs.
        mnar = cfg.mechanism == "mnar_self_censor"
        dual = method.dual_placeholder and method.placeholder == "derived" and mnar
        train_rule = cls(schema, policy, dual)
        rule = train_rule
        if method.placeholder == "mean" and mnar:
            rule = dataclasses.replace(train_rule, dual_placeholder=method.dual_placeholder)
        sample = _mask_sampler(method, schema.d, cfg.mask_granularity)
        return rule, _masked_training(train_rule, sample)

    def inputs(self, z, induced, observed):
        merged = merge_observed(z, observed, induced, self.dual_placeholder, self.policy)
        return encode_inputs(self.schema, merged)


class CommonBaselineRule(KnockoutRule):
    """Knockout with the mean/mode fills as its placeholders, merged with
    the union of both masks (the MCAR merge); training sees no induced
    masks, so it fills the data's own missing entries only."""

    @classmethod
    def fit(cls, cfg, method, schema, z_train, observed):
        policy = _fill_policy(_fill_values(schema, z_train, observed))
        return cls(schema, policy, dual_placeholder=False), None


class DropoutRule(KnockoutRule):
    """Knockout with zero fills (the mean of z-scored features) and the
    MCAR merge, as `common_baseline`; training zeroes entries at random
    through induced masks drawn per entry, whatever the mask granularity."""

    @classmethod
    def fit(cls, cfg, method, schema, z_train, observed):
        _require_continuous(method, schema)
        # Nothing to fit: z-scored features have mean 0.
        rule = cls(schema, _fill_policy(np.zeros(schema.d)), dual_placeholder=False)
        return rule, _masked_training(rule, _mask_sampler(method, schema.d, "per_sample"))


class ZeroIndicatorRule(Rule):
    """Zero fill of the union mask, with that mask appended as indicator
    inputs; continuous features only, so the rows need no encoding."""

    @classmethod
    def fit(cls, cfg, method, schema, z_train, observed):
        _require_continuous(method, schema)
        rule = cls(schema)  # nothing to fit
        return rule, _masked_training(rule, _mask_sampler(method, schema.d, cfg.mask_granularity))

    def inputs(self, z, induced, observed):
        union = mask_union(z, induced, observed)
        return np.hstack([np.where(union == 1, 0.0, z), union.astype(float)])

    def width(self) -> int:
        return 2 * self.schema.d


@dataclass
class FittedImputerRule(Rule):
    """KNN or per-feature linear-regression fill of the union mask, fitted
    on the training split."""

    imputer: Imputer

    @classmethod
    def fit(cls, cfg, method, schema, z_train, observed):
        _require_continuous(method, schema)
        neighbours = {"k": method.k} if method.kind == "knn" else {}  # lin_reg has no k
        imputer = fit_imputer(method.kind, z_train, observed, **neighbours)
        return cls(schema, imputer), None

    def inputs(self, z, induced, observed):
        return encode_inputs(self.schema, impute(self.imputer, z, mask_union(z, induced, observed)))


RULES = {
    "knockout": KnockoutRule,
    "common_baseline": CommonBaselineRule,
    "dropout": DropoutRule,
    "zero_indicator": ZeroIndicatorRule,
    "knn": FittedImputerRule,
    "lin_reg": FittedImputerRule,
}
