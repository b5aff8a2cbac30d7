import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knockout.evaluate import (
    PatternResult,
    error_rate,
    merge_repetitions,
    jsd,
    marginal_fidelity_binned,
    mse,
    mse_vs_bayes,
    regression_pattern_metrics,
    run_pattern_sweep,
    report_rows,
)
from knockout.missingness import enumerate_patterns
from knockout.worlds import (
    bayes_conditional_mean,
    empirical_conditional,
    sample_gaussian_world,
)


def test_mse_examples():
    assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mse(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0
    with pytest.raises(ValueError):
        mse(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        mse(np.zeros(2), np.zeros(3))


def test_mse_matches_independent_recomputation():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=200), rng.normal(size=200)
    direct = sum((x - y) ** 2 for x, y in zip(a, b)) / 200
    assert abs(mse(a, b) - direct) < 1e-15


def test_mse_vs_bayes_oracle_wrapping_model_scores_zero():
    world = sample_gaussian_world(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    x_test = rng.normal(size=(50, 9))
    pattern = np.array([1, 0, 0, 1, 0, 0, 0, 0, 0], dtype=np.uint8)

    def oracle_model(x, pat):
        observed = [i for i, b in enumerate(pat) if b == 0]
        return bayes_conditional_mean(world, observed, x[:, observed])

    assert mse_vs_bayes(oracle_model(x_test, pattern), world, x_test, pattern) == 0.0


def test_mse_vs_bayes_constant_predictor_under_full_masking():
    world = sample_gaussian_world(np.random.default_rng(3))
    x_test = np.random.default_rng(4).normal(size=(20, 9))
    pattern = np.ones(9, dtype=np.uint8)

    def prior_model(x, pat):
        return np.full(x.shape[0], world.mean[-1])

    assert mse_vs_bayes(prior_model(x_test, pattern), world, x_test, pattern) == 0.0


def test_jsd_reference_values():
    assert jsd(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0
    assert jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(math.log(2))
    # Independent direct summation for p=(1/2,1/2), q=(1,0).
    p, q = np.array([0.5, 0.5]), np.array([1.0, 0.0])
    m = (p + q) / 2
    expected = 0.5 * (
        0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    ) + 0.5 * (1.0 * math.log(1.0 / 0.75))
    assert jsd(p, q) == pytest.approx(expected, abs=1e-15)


def test_jsd_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        jsd(np.array([0.5, 0.6]), np.array([0.5, 0.5]))


@settings(max_examples=60, deadline=None)
@given(
    raw_p=st.lists(st.floats(0.001, 1), min_size=3, max_size=3),
    raw_q=st.lists(st.floats(0.001, 1), min_size=3, max_size=3),
)
def test_jsd_symmetry_and_range(raw_p, raw_q):
    p = np.array(raw_p) / sum(raw_p)
    q = np.array(raw_q) / sum(raw_q)
    d_pq, d_qp = jsd(p, q), jsd(q, p)
    assert d_pq == pytest.approx(d_qp, abs=1e-12)
    assert -1e-12 <= d_pq <= math.log(2) + 1e-12


def test_error_rate():
    assert error_rate(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(1 / 3)


def test_marginal_fidelity_of_the_estimator_itself_is_zero():
    rng = np.random.default_rng(5)
    x = rng.normal(size=5000)
    y = (rng.random(5000) < 1 / (1 + np.exp(-2 * x))).astype(int)
    est = empirical_conditional(x, y, bins=20)
    assert marginal_fidelity_binned(est.p1, est) < 1e-6


def test_marginal_fidelity_prior_model_is_positive():
    rng = np.random.default_rng(6)
    x = rng.normal(size=5000)
    y = (rng.random(5000) < 1 / (1 + np.exp(-2 * x))).astype(int)
    est = empirical_conditional(x, y, bins=20)
    prior = np.full(est.positions.shape[0], y.mean())
    assert marginal_fidelity_binned(prior, est) > 0.01


def _toy_metrics(offset):
    def metric(pattern):
        return float(pattern.sum()) + offset

    return {"score": metric}


def test_run_pattern_sweep_structure():
    patterns = enumerate_patterns(3, 2)
    reports = run_pattern_sweep(
        {"a": [_toy_metrics(0.0), _toy_metrics(1.0)], "b": [_toy_metrics(0.5)]},
        patterns,
        n_test=10,
    )
    assert set(reports) == {"a", "b"}
    report = reports["a"]
    assert {len(r.per_rep) for r in report.results} == {2}
    assert len(report.results) == len(patterns)
    agg = report.by_popcount()
    assert agg[("score", 0)]["mean"] == pytest.approx(0.5)
    assert agg[("score", 1)]["mean"] == pytest.approx(1.5)
    # Patterns averaged within a repetition first, then across repetitions.
    assert agg[("score", 1)]["per_rep"] == [1.0, 2.0]


def test_run_pattern_sweep_rejects_missing_reps():
    with pytest.raises(ValueError, match="no trained repetitions"):
        run_pattern_sweep({"a": []}, enumerate_patterns(2, 1), n_test=5)


def test_pattern_result_completeness_check():
    r1 = PatternResult("00", "m", (1.0,), 5)
    r2 = PatternResult("01", "m", (2.0,), 5)
    from knockout.evaluate import SweepReport

    SweepReport("x", ("m",), (r1, r2))  # fine
    with pytest.raises(ValueError, match="duplicate"):
        SweepReport("x", ("m",), (r1, r1))


def test_report_rows_canonical_order_is_method_independent():
    patterns = enumerate_patterns(3, 1)
    a_first = run_pattern_sweep(
        {"a": [_toy_metrics(0.0)], "b": [_toy_metrics(1.0)]}, patterns, 10
    )
    b_first = run_pattern_sweep(
        {"b": [_toy_metrics(1.0)], "a": [_toy_metrics(0.0)]}, patterns, 10
    )
    assert report_rows(a_first) == report_rows(b_first)


def test_merged_repetition_reports_equal_one_sweep_over_all_repetitions():
    patterns = enumerate_patterns(3, 2)
    reps = [_toy_metrics(0.0), _toy_metrics(1.0), _toy_metrics(0.25)]
    whole = run_pattern_sweep({"a": reps}, patterns, n_test=10)["a"]
    parts = [run_pattern_sweep({"a": [rep]}, patterns, n_test=10)["a"] for rep in reps]
    assert merge_repetitions(parts) == whole
    assert merge_repetitions(parts).by_popcount() == whole.by_popcount()
    fewer = run_pattern_sweep({"a": [reps[0]]}, enumerate_patterns(3, 1), n_test=10)["a"]
    with pytest.raises(ValueError, match="do not align"):
        merge_repetitions([parts[0], fewer])


def test_regression_metrics_cache_predictions():
    world = sample_gaussian_world(np.random.default_rng(8))
    x_test = np.random.default_rng(9).normal(size=(30, 9))
    y_test = np.random.default_rng(10).normal(size=30)
    calls = []

    def predict(pattern):
        calls.append(tuple(pattern))
        return np.zeros(x_test.shape[0])

    metrics = regression_pattern_metrics(predict, world, x_test, y_test)
    pattern = np.zeros(9, dtype=np.uint8)
    metrics["mse_obs"](pattern)
    metrics["mse_bayes"](pattern)
    assert len(calls) == 1  # shared forward pass between the two metrics
