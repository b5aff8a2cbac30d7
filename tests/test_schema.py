import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knockout.schema import (
    Categorical,
    ContinuousBounded,
    ContinuousHalfBounded,
    ContinuousUnbounded,
    FeatureSchema,
    NormalizationStats,
    PlaceholderPolicy,
    StructuredGroup,
    apply_normalization,
    derive_placeholders,
    encode_inputs,
    encoded_width,
    fit_normalization,
    invert_normalization,
    placeholder_in_support_violations,
    stats_from_json,
    stats_to_json,
)


def unbounded_schema(d):
    return FeatureSchema(tuple((f"x{i}", ContinuousUnbounded()) for i in range(d)))


def test_fit_zscore_column():
    schema = unbounded_schema(1)
    stats = fit_normalization(schema, np.array([[1.0], [2.0], [3.0]]))
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))  # population std


def test_fit_scale01_column():
    schema = FeatureSchema((("a", ContinuousBounded(0.0, 10.0)),))
    stats = fit_normalization(schema, np.array([[0.0], [10.0]]))
    assert stats.lo[0] == 0.0 and stats.hi[0] == 10.0


def test_fit_constant_feature_errors():
    schema = unbounded_schema(1)
    with pytest.raises(ValueError, match="constant feature"):
        fit_normalization(schema, np.full((4, 1), 5.0))


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
    stats = NormalizationStats(
        modes=("zscore", "scale01"),
        mean=np.array([2.0, np.nan]),
        std=np.array([1.0, np.nan]),
        lo=np.array([np.nan, 0.0]),
        hi=np.array([np.nan, 10.0]),
        shift=np.array([np.nan, np.nan]),
        upper_sided=np.zeros(2, dtype=bool),
    )
    row = apply_normalization(np.array([2.0, 10.0]), stats)
    assert row[0] == pytest.approx(0.0)
    assert row[1] == pytest.approx(1.0)


def test_apply_length_mismatch():
    schema = unbounded_schema(2)
    stats = fit_normalization(schema, np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(ValueError, match="row length"):
        apply_normalization(np.zeros(3), stats)


def test_half_bounded_normalization_both_sides():
    schema = FeatureSchema(
        (
            ("lower", ContinuousHalfBounded(0.0, "lower")),
            ("upper", ContinuousHalfBounded(5.0, "upper")),
        )
    )
    data = np.array([[1.0, 4.0], [2.0, 2.0], [5.0, 5.0]])
    stats = fit_normalization(schema, data)
    z = apply_normalization(data, stats)
    assert (z >= 0).all()
    np.testing.assert_allclose(invert_normalization(z, stats), data, atol=1e-12)


def test_round_trip_thousand_rows():
    rng = np.random.default_rng(42)
    schema = FeatureSchema(
        (
            ("a", ContinuousUnbounded()),
            ("b", ContinuousBounded(-3.0, 7.0)),
            ("c", ContinuousHalfBounded(0.0, "lower")),
        )
    )
    data = np.column_stack(
        [
            rng.normal(2.0, 5.0, size=1000),
            rng.uniform(-3.0, 7.0, size=1000),
            rng.exponential(2.0, size=1000),
        ]
    )
    stats = fit_normalization(schema, data)
    back = invert_normalization(apply_normalization(data, stats), stats)
    rel = np.abs(back - data) / np.maximum(np.abs(data), 1.0)
    assert rel.max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    mean=st.floats(-100, 100),
    std=st.floats(0.01, 50),
    value=st.floats(-1000, 1000),
)
def test_round_trip_random_stats(mean, std, value):
    stats = NormalizationStats(
        modes=("zscore",),
        mean=np.array([mean]),
        std=np.array([std]),
        lo=np.array([np.nan]),
        hi=np.array([np.nan]),
        shift=np.array([np.nan]),
        upper_sided=np.zeros(1, dtype=bool),
    )
    back = invert_normalization(apply_normalization(np.array([value]), stats), stats)
    assert back[0] == pytest.approx(value, rel=1e-12, abs=1e-9)


def test_derive_placeholders_table():
    schema = FeatureSchema(
        (
            ("cat", Categorical(10)),
            ("bounded", ContinuousBounded(0.0, 1.0)),
            ("half", ContinuousHalfBounded(0.0, "lower")),
            ("unbounded", ContinuousUnbounded()),
        )
    )
    rng = np.random.default_rng(0)
    data = np.column_stack(
        [
            rng.integers(1, 11, size=50).astype(float),
            rng.uniform(0, 1, size=50),
            rng.exponential(size=50),
            rng.normal(size=50),
        ]
    )
    stats = fit_normalization(schema, data)
    policy = derive_placeholders(schema, stats)
    assert policy.knockout_values[0] == 11  # n_classes + 1
    assert policy.observed_values[0] == 12
    assert policy.knockout_values[1] == -1.0
    assert policy.knockout_values[2] == -1.0
    assert policy.knockout_values[3] == 10.0
    assert policy.observed_values[3] == -10.0
    assert (policy.knockout_values != policy.observed_values).all()
    assert placeholder_in_support_violations(schema, policy) == []


def test_structured_group_gets_zero_vector():
    group = StructuredGroup(2, (0, 1))
    schema = FeatureSchema(
        (("g0", group), ("g1", group)),
        groups=((0, 1),),
    )
    data = np.random.default_rng(1).normal(3.0, 2.0, size=(100, 2))
    stats = fit_normalization(schema, data)
    policy = derive_placeholders(schema, stats)
    np.testing.assert_array_equal(policy.knockout_values, [0.0, 0.0])
    assert (policy.observed_values != policy.knockout_values).all()


def test_policy_rejects_equal_placeholders():
    policy = PlaceholderPolicy(np.array([1.0, 2.0]), np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="must differ"):
        policy.validate()


def test_policy_rejects_non_finite_placeholders():
    policy = PlaceholderPolicy(np.array([np.nan, 2.0]), np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match=r"not finite for feature\(s\) \[0\]"):
        policy.validate()


def test_zscore_magnitude_configurable():
    schema = unbounded_schema(2)
    stats = fit_normalization(schema, np.random.default_rng(2).normal(size=(30, 2)))
    policy = derive_placeholders(schema, stats, zscore_magnitude=4.0)
    np.testing.assert_array_equal(policy.knockout_values, [4.0, 4.0])
    np.testing.assert_array_equal(policy.observed_values, [-4.0, -4.0])


def test_groups_must_partition():
    with pytest.raises(ValueError, match="partition"):
        FeatureSchema(
            (("a", ContinuousUnbounded()), ("b", ContinuousUnbounded())),
            groups=((0,),),
        )


def test_kind_invariants():
    with pytest.raises(ValueError):
        Categorical(1)
    with pytest.raises(ValueError):
        ContinuousBounded(1.0, 1.0)
    with pytest.raises(ValueError):
        StructuredGroup(2, (0, 0))


def test_one_hot_extra_class_encoding():
    schema = FeatureSchema((("cat", Categorical(3)), ("x", ContinuousUnbounded())))
    assert encoded_width(schema) == 6  # 3 classes + 2 placeholder slots + 1 continuous
    rows = np.array([[1.0, 0.5], [4.0, -0.5], [5.0, 0.0]])  # class 1, knockout, observed
    enc = encode_inputs(schema, rows)
    np.testing.assert_array_equal(enc[0, :5], [1, 0, 0, 0, 0])
    np.testing.assert_array_equal(enc[1, :5], [0, 0, 0, 1, 0])
    np.testing.assert_array_equal(enc[2, :5], [0, 0, 0, 0, 1])
    np.testing.assert_array_equal(enc[:, 5], rows[:, 1])


def test_one_hot_zero_vector_encoding():
    schema = FeatureSchema((("cat", Categorical(3)),))
    assert encoded_width(schema, "zero_vector") == 3
    enc = encode_inputs(schema, np.array([[2.0], [4.0]]), "zero_vector")
    np.testing.assert_array_equal(enc[0], [0, 1, 0])
    np.testing.assert_array_equal(enc[1], [0, 0, 0])  # placeholder encodes as all zeros


def test_stats_json_round_trip():
    schema = unbounded_schema(3)
    stats = fit_normalization(schema, np.random.default_rng(3).normal(size=(20, 3)))
    text = stats_to_json(stats)
    assert "NaN" not in text  # unused slots are written as null
    restored = stats_from_json(text)
    np.testing.assert_array_equal(restored.mean, stats.mean)
    np.testing.assert_array_equal(restored.std, stats.std)
    np.testing.assert_array_equal(restored.lo, stats.lo)  # NaN slots survive
    assert restored.modes == stats.modes
