"""The decomposition check: its (pattern, row) loss table against a
row-by-row forward pass over every draw."""

import tracemalloc

import numpy as np
import pytest

from knockout.augment import apply_knockout
from knockout.nn import NetworkSpec, forward, init_params
from knockout.schema import PlaceholderPolicy
from knockout.verify import _decomposition_estimates, check_decomposition


def row_by_row_estimates(seed, n_draws):
    """Exact loss, MC mean and SE from one forward pass over the drawn
    (masked row) inputs: the check's multinomial cell counts, with the same
    RNG stream, expanded into one row per draw."""
    rng = np.random.default_rng(seed)
    n, d = 400, 2
    x = rng.standard_normal((n, d))
    y = x @ np.array([1.5, -2.0]) + 0.1 * rng.standard_normal(n)
    policy = PlaceholderPolicy(np.array([10.0, 10.0]), np.array([-10.0, -10.0]))
    patterns = np.array(((0, 0), (0, 1), (1, 0), (1, 1)), dtype=np.uint8)
    probs = (0.4, 0.3, 0.2, 0.1)
    spec = NetworkSpec(widths=(2, 16, 1))
    params = init_params(spec, rng)

    def mean_loss(mask):
        out = forward(spec, params, apply_knockout(x, mask, policy)).ravel()
        return float(np.mean((out - y) ** 2))

    exact = sum(p * mean_loss(m) for p, m in zip(probs, patterns))
    counts = rng.multinomial(n_draws, np.outer(probs, np.full(n, 1.0 / n)).ravel())
    cells = np.repeat(np.arange(4 * n), counts)
    masks, idx = patterns[cells // n], cells % n
    residuals = forward(spec, params, apply_knockout(x[idx], masks, policy)).ravel() - y[idx]
    draws = residuals**2
    return exact, float(draws.mean()), float(draws.std(ddof=1) / np.sqrt(n_draws))


@pytest.mark.parametrize("seed, n_draws", [(11, 100_000), (11, 7), (12345, 3001)])
def test_loss_table_matches_row_by_row_forward_pass(seed, n_draws):
    # Not bitwise: BLAS blocking may move a row's last ulp between a
    # 400-row and an n_draws-row pass.
    got = _decomposition_estimates(seed, n_draws)
    want = row_by_row_estimates(seed, n_draws)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_decomposition_check_allocates_no_per_draw_activations():
    # A forward pass over the 100k draws peaks near 18 MB, and per-draw
    # indices into the (4, 400) loss table near 2.4 MB; the cell counts need
    # only a few 1,600-cell and 400-row vectors. The untraced call loads
    # numpy.random, which numpy imports lazily (about 1 MB of modules).
    check_decomposition(n_draws=2)
    tracemalloc.start()
    try:
        result = check_decomposition()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result.detail
    assert peak < 500_000


@pytest.mark.parametrize("n_draws", [0, 1])
def test_decomposition_check_needs_two_draws(n_draws):
    with pytest.raises(ValueError, match="n_draws"):
        _decomposition_estimates(11, n_draws)
    with pytest.raises(ValueError, match="n_draws"):
        check_decomposition(n_draws=n_draws)
