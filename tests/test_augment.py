import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from knockout.augment import apply_knockout, merge_observed
from knockout.schema import PlaceholderPolicy

POLICY = PlaceholderPolicy(np.array([10.0, 10.0]), np.array([-10.0, -10.0]))


def test_apply_knockout_definition():
    out = apply_knockout(np.array([0.3, 0.7]), np.array([1, 0]), POLICY)
    np.testing.assert_array_equal(out, [10.0, 0.7])


def test_apply_knockout_extremes():
    x = np.array([0.1, -0.2])
    np.testing.assert_array_equal(apply_knockout(x, np.zeros(2, dtype=int), POLICY), x)
    np.testing.assert_array_equal(
        apply_knockout(x, np.ones(2, dtype=int), POLICY), POLICY.knockout_values
    )


def test_apply_knockout_batch_broadcast():
    x = np.arange(6, dtype=float).reshape(3, 2)
    out = apply_knockout(x, np.array([0, 1]), POLICY)
    np.testing.assert_array_equal(out[:, 0], x[:, 0])
    assert (out[:, 1] == 10.0).all()


def test_apply_knockout_length_mismatch():
    with pytest.raises(ValueError):
        apply_knockout(np.zeros(3), np.array([0, 1]), POLICY)


@settings(max_examples=50, deadline=None)
@given(
    x=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=2),
)
def test_apply_knockout_idempotent(x, bits):
    x = np.asarray(x)
    m = np.asarray(bits)
    once = apply_knockout(x, m, POLICY)
    np.testing.assert_array_equal(apply_knockout(once, m, POLICY), once)


def test_merge_mcar_union_rule():
    out = merge_observed(np.array([0.3, 0.7]), np.array([1, 0]), np.array([0, 1]), False, POLICY)
    np.testing.assert_array_equal(out, [10.0, 10.0])


def test_merge_mnar_dual_placeholder():
    out = merge_observed(np.array([0.3, 0.7]), np.array([1, 0]), np.array([0, 0]), True, POLICY)
    np.testing.assert_array_equal(out, [-10.0, 0.7])


def test_merge_mnar_knockout_overrides():
    out = merge_observed(np.array([0.3, 0.7]), np.array([1, 0]), np.array([1, 0]), True, POLICY)
    np.testing.assert_array_equal(out, [10.0, 0.7])


def test_merge_without_observed_missingness_is_plain_knockout():
    for dual in (False, True):
        observed = np.zeros(2, dtype=int)  # "nothing missing" is an all-zero mask
        out = merge_observed(np.array([0.3, 0.7]), observed, np.array([0, 1]), dual, POLICY)
        np.testing.assert_array_equal(out, [0.3, 10.0])


@settings(max_examples=50, deadline=None)
@given(
    x=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    n_bits=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    m_bits=st.lists(st.integers(0, 1), min_size=3, max_size=3),
)
def test_mcar_merge_equals_union_knockout(x, n_bits, m_bits):
    policy = PlaceholderPolicy(np.full(3, 7.0), np.full(3, -7.0))
    x = np.asarray(x)
    n = np.asarray(n_bits)
    m = np.asarray(m_bits)
    merged = merge_observed(x, n, m, False, policy)
    union = apply_knockout(x, np.maximum(n, m), policy)
    np.testing.assert_array_equal(merged, union)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_merges_on_batches(data):
    """On an (n, d) batch, with each mask one shared pattern or one mask per
    row: the MNAR merge puts the knockout placeholders at induced entries
    and the observed-missingness ones at entries missing only in the data,
    and with nothing observed missing both merges are plain knockout."""
    n, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    x = data.draw(hnp.arrays(float, (n, d), elements=st.floats(-5, 5)))
    policy = PlaceholderPolicy(np.full(d, 7.0), np.full(d, -7.0))

    def mask():
        shape = data.draw(st.sampled_from([(d,), (n, d)]))
        return data.draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 1)))

    induced, observed = mask(), mask()
    expected = np.where(induced == 1, 7.0, np.where(observed == 1, -7.0, x))
    np.testing.assert_array_equal(merge_observed(x, observed, induced, True, policy), expected)
    nothing = np.zeros_like(observed)
    for dual in (False, True):
        np.testing.assert_array_equal(
            merge_observed(x, nothing, induced, dual, policy), apply_knockout(x, induced, policy)
        )
