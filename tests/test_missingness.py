import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knockout.missingness import (
    IID,
    calibrate_rate,
    enumerate_patterns,
    inject_mcar,
    inject_mnar_self_censor,
    mask_to_bits,
    sample_mask,
    sample_masks,
)


def test_calibrate_rate_reference_values():
    assert calibrate_rate(9, 0.5) == pytest.approx(0.0741, abs=1e-3)
    assert calibrate_rate(1, 0.5) == pytest.approx(0.5)
    # Closed form, cross-checked below by the all-clear Monte Carlo frequency.
    assert calibrate_rate(4, 0.5) == pytest.approx(0.15910358474628547, abs=1e-12)


def test_calibrate_rate_all_clear_frequency():
    r = calibrate_rate(4, 0.5)
    rng = np.random.default_rng(7)
    masks = sample_masks(IID(4, r), 100_000, rng)
    clean = (masks.sum(axis=1) == 0).mean()
    assert abs(clean - 0.5) < 0.01


def test_calibrate_rate_preconditions():
    with pytest.raises(ValueError):
        calibrate_rate(0, 0.5)
    with pytest.raises(ValueError):
        calibrate_rate(5, 1.0)


def test_iid_extremes():
    rng = np.random.default_rng(0)
    assert sample_mask(IID(6, 0.0), rng).sum() == 0
    assert sample_mask(IID(6, 1.0), rng).sum() == 6


def test_iid_all_zero_frequency_matches_closed_form():
    d, r = 5, 0.3
    rng = np.random.default_rng(11)
    masks = sample_masks(IID(d, r), 100_000, rng)
    freq = (masks.sum(axis=1) == 0).mean()
    assert abs(freq - (1 - r) ** d) < 0.01


def test_inject_mcar_extremes_and_rate():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(3000, 9))
    n0 = inject_mcar(data, 0.0, rng)
    assert n0.sum() == 0
    n1 = inject_mcar(data, 1.0, rng)
    assert n1.all()
    n = inject_mcar(data, 0.1, rng)
    assert abs(n.mean() - 0.10) < 0.01


def test_inject_mcar_keeps_values():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(50, 3))
    before = data.copy()
    mask = inject_mcar(data, 0.5, rng)
    assert mask.shape == data.shape and mask.dtype == np.uint8
    np.testing.assert_array_equal(data, before)


def test_mechanisms_reject_out_of_range_parameters():
    data = np.zeros((4, 2))
    rng = np.random.default_rng(0)
    for p in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
            inject_mcar(data, p, rng)
    for q in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"q must be in \(0, 1\)"):
            inject_mnar_self_censor(data, q)


def test_mnar_self_censor_exact_count():
    data = np.arange(1, 101, dtype=float)[:, None]
    observed = inject_mnar_self_censor(data, 0.9)
    # Nearest-rank q90 of 1..100 is 90; entries strictly above are censored.
    assert observed.sum() == 10
    assert set(data[observed[:, 0] == 1, 0]) == set(range(91, 101))


def test_mnar_self_censor_fraction_and_determinism():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(2000, 4))
    n_a = inject_mnar_self_censor(data, 0.9)
    n_b = inject_mnar_self_censor(data, 0.9)
    np.testing.assert_array_equal(n_a, n_b)
    frac = n_a.mean(axis=0)
    assert (np.abs(frac - 0.1) <= 1.0 / 2000 + 1e-12).all()


def test_mnar_self_censor_near_one_quantile():
    n = 100
    data = np.arange(n, dtype=float)[:, None]
    observed = inject_mnar_self_censor(data, 1.0 - 1.0 / n)
    assert observed.sum() <= 1


def test_enumerate_patterns_reference_counts():
    assert len(enumerate_patterns(9, 3)) == 130
    assert len(enumerate_patterns(3, 3)) == 8
    only = enumerate_patterns(4, 0)
    assert len(only) == 1 and only[0].sum() == 0


def test_enumerate_patterns_order_and_uniqueness():
    patterns = enumerate_patterns(3, 3)
    bits = [mask_to_bits(p) for p in patterns]
    assert bits == ["000", "001", "010", "100", "011", "101", "110", "111"]
    assert len(set(bits)) == len(bits)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 8), data=st.data())
def test_enumerate_patterns_count_formula(d, data):
    k_max = data.draw(st.integers(0, d))
    patterns = enumerate_patterns(d, k_max)
    expected = sum(math.comb(d, k) for k in range(k_max + 1))
    assert len(patterns) == expected
    assert len({mask_to_bits(p) for p in patterns}) == expected


def test_mask_bit_string_round_trip():
    mask = np.array([0, 1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
    assert mask_to_bits(mask) == "010000000"
    np.testing.assert_array_equal(np.array([int(c) for c in "010000000"], dtype=np.uint8), mask)
