import json

import numpy as np
import pytest

from knockout.worlds import (
    GaussianWorld,
    MixedClassWorld,
    bayes_conditional_mean,
    class_posterior,
    draw_dataset,
    empirical_conditional,
    generate_mixed_classification,
    sample_gaussian_world,
)


def test_world_symmetry_exact():
    world = sample_gaussian_world(np.random.default_rng(0))
    assert np.abs(world.cov - world.cov.T).max() == 0.0


def test_world_psd():
    world = sample_gaussian_world(np.random.default_rng(1))
    assert np.linalg.eigvalsh(world.cov).min() >= -1e-10


def test_world_offdiagonal_moment():
    # E[cov_ij] = dim * E[U]^2 = 10 / 4 for i != j.
    rng = np.random.default_rng(2)
    vals = []
    for _ in range(1000):
        world = sample_gaussian_world(rng)
        off = world.cov[~np.eye(10, dtype=bool)]
        vals.append(off.mean())
    assert abs(np.mean(vals) - 2.5) < 0.05


def test_draw_dataset_moments():
    world = sample_gaussian_world(np.random.default_rng(3))
    n = 100_000
    x, y = draw_dataset(world, n, np.random.default_rng(4))
    rows = np.column_stack([x, y])
    se = np.sqrt(np.diag(world.cov) / n)
    assert (np.abs(rows.mean(axis=0) - world.mean) < 4 * se).all()
    emp_cov = np.cov(rows.T, bias=True)
    var = (np.outer(np.diag(world.cov), np.diag(world.cov)) + world.cov**2) / n
    assert (np.abs(emp_cov - world.cov) < 5 * np.sqrt(var)).all()


def test_draw_dataset_empty_and_reproducible():
    world = sample_gaussian_world(np.random.default_rng(5))
    x, y = draw_dataset(world, 0, np.random.default_rng(0))
    assert x.shape == (0, 9) and y.shape == (0,)
    x1, y1 = draw_dataset(world, 100, np.random.default_rng(77))
    x2, y2 = draw_dataset(world, 100, np.random.default_rng(77))
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_bayes_empty_set_returns_prior_mean():
    world = sample_gaussian_world(np.random.default_rng(6))
    assert bayes_conditional_mean(world, [], np.zeros((3, 0))).tolist() == [
        world.mean[-1]
    ] * 3


def test_bayes_diagonal_cov_ignores_features():
    mean = np.arange(10, dtype=float)
    world = GaussianWorld(mean, np.diag(np.linspace(1, 2, 10)))
    out = bayes_conditional_mean(world, [0, 4, 7], np.array([[5.0, -3.0, 2.0]]))
    assert out[0] == pytest.approx(mean[-1])
    with pytest.raises(ValueError, match=r"\(m, \|S\|\) batch"):  # one row is no batch
        bayes_conditional_mean(world, [0, 4, 7], np.array([5.0, -3.0, 2.0]))


def test_bayes_matches_large_sample_regression():
    # Independent oracle: OLS of y on the observed subset over 10^6 draws
    # recovers the exact conditional mean (it is linear for Gaussians).
    world = sample_gaussian_world(np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x, y = draw_dataset(world, 1_000_000, rng)
    subset = [1, 3, 6]
    design = np.hstack([x[:, subset], np.ones((x.shape[0], 1))])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    query = x[:5, subset]
    ols_pred = query @ beta[:-1] + beta[-1]
    exact = bayes_conditional_mean(world, subset, query)
    resid = y - design @ beta
    xtx_inv = np.linalg.inv(design.T @ design)
    q = np.hstack([query, np.ones((5, 1))])
    pred_se = np.sqrt(resid.var() * np.einsum("ij,jk,ik->i", q, xtx_inv, q))
    assert (np.abs(exact - ols_pred) < 5 * pred_se + 1e-6).all()


def test_bayes_zero_covariance_row_is_ignorable():
    world = sample_gaussian_world(np.random.default_rng(9))
    cov = world.cov.copy()
    cov[0, :] = 0.0
    cov[:, 0] = 0.0
    cov[0, 0] = 1.0
    indep = GaussianWorld(world.mean, cov)
    with_indep = bayes_conditional_mean(indep, [0, 2, 5], np.array([[3.0, 0.4, 0.2]]))
    without = bayes_conditional_mean(indep, [2, 5], np.array([[0.4, 0.2]]))
    assert with_indep[0] == pytest.approx(without[0], abs=1e-7)


def test_bayes_full_conditional_formula():
    world = sample_gaussian_world(np.random.default_rng(10))
    sub = list(range(9))
    x_obs = np.random.default_rng(11).normal(size=(4, 9))
    got = bayes_conditional_mean(world, sub, x_obs)
    cov_ss = world.cov[:9, :9] + 1e-9 * np.eye(9)
    w = np.linalg.solve(cov_ss, world.cov[:9, 9])
    expected = world.mean[9] + (x_obs - world.mean[:9]) @ w
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_world_json_round_trip():
    world = sample_gaussian_world(np.random.default_rng(12))
    restored = GaussianWorld(**json.loads(json.dumps(world.to_json_dict(), allow_nan=False)))
    assert np.array_equal(restored.mean, world.mean)
    assert np.array_equal(restored.cov, world.cov)


def test_class_world_label_frequency():
    world = MixedClassWorld(kind="continuous2d")
    _, y = generate_mixed_classification(world, 10_000, np.random.default_rng(13))
    assert abs(y.mean() - 0.5) < 0.01


def test_class_world_degenerate_error_half():
    world = MixedClassWorld(kind="continuous2d", sigma0=1.0, sigma1=1.0)  # identical classes
    rng = np.random.default_rng(14)
    x, y = generate_mixed_classification(world, 10_000, rng)
    pred = (class_posterior(world, x) > 0.5).astype(int)
    assert abs(np.mean(pred != y) - 0.5) < 0.01


def test_class_world_well_separated():
    world = MixedClassWorld(
        kind="continuous2d", mean0=(-5.0, -5.0), mean1=(5.0, 5.0), sigma0=1.0, sigma1=1.0
    )
    rng = np.random.default_rng(15)
    x, y = generate_mixed_classification(world, 10_000, rng)
    pred = (class_posterior(world, x) > 0.5).astype(int)
    assert np.mean(pred != y) < 0.01


def test_mixed_world_feature_types():
    world = MixedClassWorld(kind="mixed")
    rng = np.random.default_rng(16)
    x, y = generate_mixed_classification(world, 20_000, rng)
    assert set(np.unique(x[:, 0])) == {1.0, 2.0}
    rate1 = x[y == 1, 0].mean() - 1.0  # fraction of code 2 among class 1
    assert rate1 == pytest.approx(world.p_code2_given1, abs=0.02)


def test_empirical_conditional_constant_labels():
    rng = np.random.default_rng(17)
    est = empirical_conditional(rng.normal(size=500), np.ones(500, dtype=int), bins=10)
    occupied = est.occupied
    np.testing.assert_allclose(
        est.p1[occupied], (est.counts[occupied] + 1) / (est.counts[occupied] + 2)
    )


def test_empirical_conditional_independent_feature():
    rng = np.random.default_rng(18)
    x = rng.normal(size=20_000)
    y = rng.integers(0, 2, size=20_000)
    est = empirical_conditional(x, y, bins=10)
    big = est.counts >= 500
    assert (np.abs(est.p1[big] - 0.5) < 0.05).all()


def test_empirical_conditional_discrete_exact_ratios():
    x = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
    y = np.array([1, 0, 1, 0, 0])
    est = empirical_conditional(x, y, discrete=True)
    np.testing.assert_array_equal(est.positions, [1.0, 2.0])
    assert est.p1[0] == pytest.approx(2.0 / 3.0)
    assert est.p1[1] == 0.0
    np.testing.assert_array_equal(est.counts, [3, 2])
