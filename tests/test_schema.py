import dataclasses

import numpy as np
import pytest

from knockout.schema import (
    Categorical,
    ContinuousUnbounded,
    FeatureSchema,
    NormalizationStats,
    PlaceholderPolicy,
    apply_normalization,
    derive_placeholders,
    encode_inputs,
    encoded_width,
    fit_normalization,
)


def unbounded_schema(d):
    return FeatureSchema(tuple((f"x{i}", ContinuousUnbounded()) for i in range(d)))


def complete(raw):
    """The observed mask of rows with no missing entry."""
    return np.zeros_like(raw, dtype=np.uint8)


def test_fit_zscore_column():
    schema = unbounded_schema(1)
    raw = np.array([[1.0], [2.0], [3.0]])
    stats = fit_normalization(schema, raw, complete(raw))
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))  # population std


def test_fit_constant_feature_errors():
    schema = unbounded_schema(1)
    with pytest.raises(ValueError, match="constant feature"):
        fit_normalization(schema, np.full((4, 1), 5.0), np.zeros((4, 1), dtype=np.uint8))


def test_fit_respects_observed_mask():
    schema = unbounded_schema(1)
    data = np.array([[1.0], [2.0], [3.0], [100.0]])
    mask = np.array([[0], [0], [0], [1]], dtype=np.uint8)
    stats = fit_normalization(schema, data, mask)
    assert stats.mean[0] == pytest.approx(2.0)


def test_fit_all_missing_column_errors():
    schema = unbounded_schema(1)
    with pytest.raises(ValueError, match="no observed entries"):
        fit_normalization(schema, np.ones((3, 1)), np.ones((3, 1), dtype=np.uint8))


def test_apply_zscore_and_scale01_examples():
    stats = NormalizationStats(mean=np.array([2.0, 0.0]), std=np.array([4.0, 1.0]))
    (row,) = apply_normalization(np.array([[10.0, 3.0]]), stats)
    assert row[0] == pytest.approx(2.0)
    assert row[1] == 3.0  # categorical codes pass through
    # The scale01 mode is retired, and with it every mode: the stats are one
    # affine map per feature.
    assert [field.name for field in dataclasses.fields(NormalizationStats)] == ["mean", "std"]


def test_apply_length_mismatch():
    schema = unbounded_schema(2)
    raw = np.random.default_rng(0).normal(size=(10, 2))
    stats = fit_normalization(schema, raw, complete(raw))
    for rows in (np.zeros((1, 3)), np.zeros(2)):  # a wrong width, or one row that is no batch
        with pytest.raises(ValueError, match=r"expected an \(n, 2\) batch"):
            apply_normalization(rows, stats)


def test_normalization_matches_a_per_column_reference_on_the_mixed_schema():
    """The map treats all columns at once; each entry gets the same
    arithmetic as a per-column loop, and categorical codes, whose map is
    mean 0 and std 1, pass through exactly."""
    schema = FeatureSchema((("x1", Categorical(2)), ("x2", ContinuousUnbounded())))  # `mixed`
    rng = np.random.default_rng(21)
    rows = np.column_stack([rng.integers(1, 3, size=50), rng.normal(1.5, 3.0, size=50)])
    stats = fit_normalization(schema, rows, complete(rows))
    assert (stats.mean[0], stats.std[0]) == (0.0, 1.0)
    forward = rows.copy()
    forward[:, 1] = (rows[:, 1] - stats.mean[1]) / stats.std[1]
    assert np.array_equal(apply_normalization(rows, stats), forward)
    assert np.array_equal(apply_normalization(rows[3][None, :], stats), forward[3][None, :])
    with pytest.raises(ValueError, match=r"expected an \(n, 2\) batch, got shape \(50, 1\)"):
        apply_normalization(rows[:, :1], stats)


def test_derive_placeholders_table():
    schema = FeatureSchema(
        (
            ("cat", Categorical(10)),
            ("unbounded", ContinuousUnbounded()),
            ("binary", Categorical(2)),
        )
    )
    policy = derive_placeholders(schema)
    np.testing.assert_array_equal(policy.knockout_values, [11.0, 10.0, 3.0])  # n + 1, +10
    np.testing.assert_array_equal(policy.observed_values, [12.0, -10.0, 4.0])  # n + 2, -10


def test_policy_rejects_equal_placeholders():
    with pytest.raises(ValueError, match="must differ"):
        PlaceholderPolicy(np.array([1.0, 2.0]), np.array([1.0, -2.0]))


def test_policy_rejects_non_finite_placeholders():
    with pytest.raises(ValueError, match=r"not finite for feature\(s\) \[0\]"):
        PlaceholderPolicy(np.array([np.nan, 2.0]), np.array([1.0, -2.0]))


def test_kind_invariants():
    with pytest.raises(ValueError):
        Categorical(1)


def test_one_hot_extra_class_encoding():
    schema = FeatureSchema((("cat", Categorical(3)), ("x", ContinuousUnbounded())))
    assert encoded_width(schema) == 6  # 3 classes + 2 placeholder slots + 1 continuous
    rows = np.array([[1.0, 0.5], [4.0, -0.5], [5.0, 0.0]])  # class 1, knockout, observed
    enc = encode_inputs(schema, rows)
    np.testing.assert_array_equal(enc[0, :5], [1, 0, 0, 0, 0])
    np.testing.assert_array_equal(enc[1, :5], [0, 0, 0, 1, 0])
    np.testing.assert_array_equal(enc[2, :5], [0, 0, 0, 0, 1])
    np.testing.assert_array_equal(enc[:, 5], rows[:, 1])


@pytest.mark.parametrize(
    "mean,std,message",
    [
        ([0.0], [1.0, 1.0], r"vectors of one length, got shapes \(1,\) and \(2,\)"),
        ([np.inf, 0.0], [1.0, 1.0], r"feature 0: mean must be finite, got inf"),
        ([0.0, 0.0], [0.0, 1.0], r"feature 0: std must be in \(0, inf\), got 0.0"),
        # No NaN marks a feature that is not z-scored: a categorical one has std 1.
        ([0.0, 0.0], [1.0, np.nan], r"feature 1: std must be in \(0, inf\), got nan"),
    ],
    ids=["length", "infinite_mean", "zero_std", "nan_std"],
)
def test_stats_reject_bad_values_naming_the_feature(mean, std, message):
    with pytest.raises(ValueError, match=message):
        NormalizationStats(np.array(mean), np.array(std))
