from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from knockout import baselines
from knockout.baselines import KNN, LinReg, fit_imputer, impute
from knockout.config import parse_config
from knockout.methods import RULES, KnockoutRule, ZeroIndicatorRule, _fill_values
from knockout.missingness import calibrate_rate
from knockout.schema import Categorical, ContinuousUnbounded, FeatureSchema, encode_inputs


# Row-at-a-time reference implementations of the KNN and lin-reg fills:
# `impute` must reproduce them (KNN bitwise, lin-reg to rounding).


def _impute_knn_row(imputer: KNN, row: np.ndarray, mask: np.ndarray) -> np.ndarray:
    both_observed = (mask == 0) & (imputer.train_observed == 0)
    counts = both_observed.sum(axis=1)
    diffs = np.where(both_observed, imputer.train_x - row, 0.0)
    with np.errstate(invalid="ignore"):
        dists = np.where(counts > 0, (diffs**2).sum(axis=1) / np.maximum(counts, 1), np.inf)
    if not np.isfinite(dists).any():
        return np.where(mask == 1, imputer.fallback, row)
    # Stable sort keeps the lowest row index first among ties.
    order = np.argsort(dists, kind="stable")[: imputer.k]
    out = row.copy()
    for j in np.flatnonzero(mask):
        donor_rows = [r for r in order if imputer.train_observed[r, j] == 0]
        if donor_rows:
            out[j] = imputer.train_x[donor_rows, j].mean()
        else:
            out[j] = imputer.fallback[j]
    return out


def _impute_linreg_row(imputer: LinReg, row: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # Missing covariates of a feature model are mean-filled first.
    base = np.where(mask == 1, imputer.fallback, row)
    out = row.copy()
    for j in np.flatnonzero(mask):
        beta = imputer.coefs[j]
        if beta is None:
            out[j] = imputer.fallback[j]
        else:
            others = np.delete(base, j)
            out[j] = float(others @ beta[:-1] + beta[-1])
    return out


def _none_missing(x: np.ndarray) -> np.ndarray:
    """The observed mask of complete training rows."""
    return np.zeros_like(x, dtype=np.uint8)


def _row_loop(fill_row, imputer, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = x.copy()
    for i in range(x.shape[0]):
        if mask[i].any():
            out[i] = fill_row(imputer, x[i], mask[i])
    return out


# Few distinct values, so exact ties and duplicate rows are common.
_VALUES = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def _knn_case(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 10))  # fig1's d = 9 sums in numpy's 8-way pairwise order
    # The masks are seeded Bernoulli draws, one per entry: hypothesis's own
    # arrays repeat one fill value, so whole query rows would often mask
    # nothing or everything and never reach the neighbour search.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train_x = draw(hnp.arrays(float, (n, d), elements=_VALUES))
    train_observed = (rng.random((n, d)) < 1 / 3).astype(np.uint8)
    train_observed[0, train_observed.all(axis=0)] = 0  # every feature observed somewhere
    if draw(st.booleans()):
        train_x[draw(st.integers(0, n - 1))] = train_x[0]  # a duplicate row
    m = draw(st.integers(1, 25))
    x = draw(hnp.arrays(float, (m, d), elements=_VALUES))
    copies = draw(st.integers(0, 4))
    if copies:
        # Copies of row 0, with its observed mask, tie exactly with it at
        # every query; query row 0 equals it, so for k up to the number of
        # copies the tie falls at its k-th distance, and its screen keeps
        # more than k candidates.
        train_x = np.vstack([train_x, np.repeat(train_x[:1], copies, axis=0)])
        train_observed = np.vstack(
            [train_observed, np.repeat(train_observed[:1], copies, axis=0)]
        )
        x[0] = train_x[0]
    # A large common offset makes the screen's product terms cancel, so its
    # rounding error dwarfs the gaps between near-tied distances.
    mirrors = draw(st.integers(0, 16))
    offset = 1e4 if mirrors else draw(st.sampled_from([0.0, 0.0, 1e4]))
    train_x += offset
    x += offset
    mask = rng.integers(0, 2, (m, d), dtype=np.uint8)
    if mirrors:
        # A last query row x0, at least 8 from every drawn row in each
        # coordinate, masked in one, and its nearest training rows
        # x0 + signs * s, mirror images of one another about it. With x0 and
        # s on a 2^-20 grid, each row and its differences to x0 are exact
        # floats, so the rows tie exactly in the loop's arithmetic while the
        # product's rounding ranks them apart. The seeded generator draws the
        # grid values, so that they have the low bits that make it round.
        x0 = offset + 16.0 + rng.integers(-(2**22), 2**22, d) / 2**20
        s = rng.integers(-(2**20), 2**20, d) / 2**20
        train_x = np.vstack([train_x, x0 + rng.choice([1.0, -1.0], (mirrors, d)) * s])
        train_observed = np.vstack([train_observed, np.zeros((mirrors, d), dtype=np.uint8)])
        x = np.vstack([x, x0])
        mask = np.vstack([mask, np.zeros(d, dtype=np.uint8)])
        mask[-1, draw(st.integers(0, d - 1))] = 1
    x[mask == 1] = np.nan
    k = draw(st.integers(1, 15))  # often more than n
    chunk_pairs = draw(st.sampled_from([1, 7, baselines._KNN_CHUNK_PAIRS]))
    return train_x, train_observed, x, mask, k, chunk_pairs


@settings(max_examples=300, deadline=None)
@given(_knn_case())
def test_knn_matches_row_loop(case):
    train_x, train_observed, x, mask, k, chunk_pairs = case
    imp = fit_imputer("knn", train_x, train_observed, k=k)
    with mock.patch.object(baselines, "_KNN_CHUNK_PAIRS", chunk_pairs):
        out = impute(imp, x, mask)
    assert np.array_equal(out, _row_loop(_impute_knn_row, imp, x, mask))


def test_knn_matches_row_loop_on_named_edge_cases():
    train_x = np.array(
        [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 1.0, 5.0], [0.0, 9.0, 7.0], [4.0, 0.0, 1.0]]
    )
    train_observed = np.array(
        [[0, 0, 1], [0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 0]], dtype=np.uint8
    )
    x = np.array(
        [
            [0.0, 1.0, np.nan],  # ties between duplicate rows 0 and 1
            [np.nan, np.nan, 3.0],  # only rows 2, 3 and 4 share a coordinate
            [np.nan, np.nan, np.nan],  # nothing shared: whole-row fallback
            [0.0, np.nan, np.nan],  # no neighbour among the nearest observes x3
            [1.0, 1.0, 2.0],  # complete row passes through
        ]
    )
    mask = np.isnan(x).astype(np.uint8)
    for k in (1, 2, 4, 5, 9):  # k = 4 leaves fewer finite distances than k for row 1
        imp = fit_imputer("knn", train_x, train_observed, k=k)
        assert np.array_equal(impute(imp, x, mask), _row_loop(_impute_knn_row, imp, x, mask))


def test_knn_screen_rounding_does_not_reorder_ties():
    # Rows mirrored about a query far from the origin tie exactly in the
    # loop's arithmetic; the screen's cancelling product terms rank row 1
    # first, so only the exact re-rank keeps row 0.
    train_x = np.array([[9999.628, 9999.359, 1.0], [9999.592, 9999.873, 2.0]])
    x = np.array([9999.61, 9999.616, np.nan])
    mask = np.array([0, 0, 1], dtype=np.uint8)
    imp = fit_imputer("knn", train_x, _none_missing(train_x), k=1)
    assert impute(imp, x[None, :], mask[None, :])[0, 2] == 1.0
    assert _impute_knn_row(imp, x, mask)[2] == 1.0


def test_knn_screen_keeps_every_row_tied_at_the_kth_distance():
    # Four copies of the nearest row tie at the query's k-th distance for
    # every k up to 4, so the screen keeps more than k candidates, and the
    # exact re-rank takes the lowest-indexed copies.
    rng = np.random.default_rng(12)
    nearest = np.array([[0.5, -1.0, 2.0]])
    train_x = np.vstack([rng.normal(size=(6, 3)) + 5.0, np.repeat(nearest, 4, axis=0)])
    train_x[7:, 2] = [3.0, 4.0, 5.0]  # the copies differ only where the query is masked
    x = np.array([[0.5, -1.0, np.nan]])
    mask = np.array([[0, 0, 1]], dtype=np.uint8)
    for k in (1, 2, 3):
        imp = fit_imputer("knn", train_x, _none_missing(train_x), k=k)
        with mock.patch.object(baselines.np, "lexsort", wraps=np.lexsort) as lexsort:
            out = impute(imp, x, mask)
        (dists, query_rows), = lexsort.call_args.args
        assert query_rows.size == 4 > k  # candidates of the one query row
        assert np.array_equal(out, _row_loop(_impute_knn_row, imp, x, mask))
        assert out[0, 2] == np.mean([2.0, 3.0, 4.0, 5.0][:k])


def test_knn_matches_row_loop_across_chunks():
    rng = np.random.default_rng(11)
    train_x = rng.normal(size=(64, 6))
    train_observed = (train_x > 1.0).astype(np.uint8)
    x = rng.normal(size=(700, 6))  # several chunks of the default budget
    mask = (x > 0.8).astype(np.uint8)
    mask[::5, 3] = 1
    assert 700 * 64 > 2 * baselines._KNN_CHUNK_PAIRS
    imp = fit_imputer("knn", train_x, train_observed, k=5)
    assert np.array_equal(impute(imp, x, mask), _row_loop(_impute_knn_row, imp, x, mask))


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(float, st.tuples(st.integers(1, 20), st.integers(2, 5)), elements=_VALUES),
    st.data(),
)
def test_linreg_matches_row_loop(x, data):
    m, d = x.shape
    mask = data.draw(hnp.arrays(np.uint8, (m, d), elements=st.sampled_from([0, 1])))
    x[mask == 1] = np.nan
    coef = hnp.arrays(float, d, elements=st.floats(-3.0, 3.0, allow_subnormal=False))
    coefs = [data.draw(st.one_of(st.none(), coef)) for _ in range(d)]
    fallback = data.draw(hnp.arrays(float, d, elements=_VALUES))
    imp = LinReg(coefs, fallback)
    np.testing.assert_allclose(
        impute(imp, x, mask), _row_loop(_impute_linreg_row, imp, x, mask), rtol=0, atol=1e-12
    )


def _continuous(d: int) -> FeatureSchema:
    return FeatureSchema(tuple((f"x{j}", ContinuousUnbounded()) for j in range(d)))


def _fit_rule(kind: str, schema: FeatureSchema, z: np.ndarray, observed: np.ndarray):
    cfg = parse_config(f"[world]\nkind = gaussian\n[method.m]\nkind = {kind}\n")
    rule, _ = RULES[kind].fit(cfg, cfg.methods[0], schema, z, observed)
    return rule


def test_meanmode_fit_examples():
    schema = FeatureSchema((("c", Categorical(2)),))
    z = np.array([[1.0], [1.0], [2.0]])
    assert _fill_values(schema, z, np.zeros_like(z, dtype=np.uint8))[0] == 1.0  # mode


def test_meanmode_mode_tie_breaks_low():
    schema = FeatureSchema((("c", Categorical(3)),))
    z = np.array([[2.0], [1.0], [1.0], [2.0], [0.0]])
    observed = np.zeros_like(z, dtype=np.uint8)
    assert _fill_values(schema, z, observed)[0] == 1.0
    observed[1] = 1  # a missing entry does not count towards the mode
    assert _fill_values(schema, z, observed)[0] == 2.0


def test_imputers_identity_on_complete_rows():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 4))
    mask = np.zeros((1, 4), dtype=np.uint8)
    row = x[7][None, :]
    for kind in ("knn", "lin_reg"):
        imp = fit_imputer(kind, x, _none_missing(x))
        np.testing.assert_array_equal(impute(imp, row, mask), row)
        with pytest.raises(ValueError, match=r"expected an \(n, d\) batch"):
            impute(imp, row[0], mask[0])  # one row is no batch


@pytest.mark.parametrize("kind", sorted(RULES))
def test_rule_inputs_on_complete_rows_are_the_encoded_rows(kind):
    rng = np.random.default_rng(0)
    schema = _continuous(4)
    z = rng.normal(size=(40, 4))
    rule = _fit_rule(kind, schema, z, np.zeros_like(z, dtype=np.uint8))
    out = rule.inputs(z, np.zeros(4, dtype=np.uint8), _none_missing(z))
    expected = encode_inputs(schema, z)
    if kind == "zero_indicator":
        expected = np.hstack([expected, np.zeros_like(z)])  # no indicator set
    np.testing.assert_array_equal(out, expected)
    assert out.shape[1] == rule.width()


def test_meanmode_zscored_fill_is_zero():
    rng = np.random.default_rng(1)
    schema = _continuous(3)
    z = rng.normal(size=(200, 3))
    z = (z - z.mean(axis=0)) / z.std(axis=0)
    rule = _fit_rule("common_baseline", schema, z, np.zeros_like(z, dtype=np.uint8))
    out = rule.inputs(z[:1], np.array([1, 0, 0], dtype=np.uint8), _none_missing(z[:1]))
    assert out[0, 0] == 0.0
    np.testing.assert_array_equal(out[0, 1:], z[0, 1:])


_MIXED = FeatureSchema(
    (("c", Categorical(2)), ("x0", ContinuousUnbounded()), ("x1", ContinuousUnbounded()))
)


@st.composite
def _fill_case(draw):
    """A fill kind and schema, a training split, and rows with an induced and
    an observed mask, each one shared pattern or one mask per row."""
    kind, schema = draw(
        st.sampled_from(
            [
                ("common_baseline", _continuous(3)),
                ("common_baseline", _MIXED),
                ("dropout", _continuous(3)),
            ]
        )
    )
    codes = st.sampled_from([1.0, 2.0])  # the codes of Categorical(2)

    def split(n):
        columns = [
            draw(hnp.arrays(float, n, elements=codes if isinstance(k, Categorical) else _VALUES))
            for k in schema.kinds
        ]
        return np.column_stack(columns)

    def mask(n):
        shape = draw(st.sampled_from([(schema.d,), (n, schema.d)]))
        return draw(hnp.arrays(np.uint8, shape, elements=st.sampled_from([0, 1])))

    z_train = split(draw(st.integers(1, 8)))
    train_observed = draw(hnp.arrays(np.uint8, z_train.shape, elements=st.sampled_from([0, 0, 1])))
    train_observed[0] = 0  # every feature observed somewhere
    n = draw(st.integers(1, 6))
    return kind, schema, z_train, train_observed, split(n), mask(n), mask(n)


@pytest.mark.parametrize("kind", ["common_baseline", "dropout"])
def test_fill_rules_are_knockout_rules_that_only_fit_their_fills(kind):
    assert issubclass(RULES[kind], KnockoutRule)
    assert {name for name in vars(RULES[kind]) if not name.startswith("__")} == {"fit"}


@settings(max_examples=150, deadline=None)
@given(_fill_case())
def test_fill_rules_put_their_fills_at_the_union_of_both_masks(case):
    """`common_baseline` (mean/mode fills) and `dropout` (zero fills) map rows,
    an induced and an observed mask to the encoded rows with the fills at
    every entry either mask marks."""
    kind, schema, z_train, train_observed, z, induced, observed = case
    rule = _fit_rule(kind, schema, z_train, train_observed)
    if kind == "dropout":
        fills = np.zeros(schema.d)
    else:
        fills = _fill_values(schema, z_train, train_observed)
    union = (np.broadcast_to(induced, z.shape) | np.broadcast_to(observed, z.shape)) == 1
    expected = encode_inputs(schema, np.where(union, fills, z))
    np.testing.assert_array_equal(rule.inputs(z, induced, observed), expected)


def test_zero_indicator_width_and_indicator():
    schema = _continuous(3)
    z = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    rule = ZeroIndicatorRule(schema)
    assert rule.width() == 6
    induced = np.array([0, 1, 0], dtype=np.uint8)
    observed = np.array([[0, 0, 0], [0, 0, 1]], dtype=np.uint8)
    out = rule.inputs(z, induced, observed)
    np.testing.assert_array_equal(out[0], [1.0, 0.0, 3.0, 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(out[1], [4.0, 0.0, 0.0, 0.0, 1.0, 1.0])  # the union


def test_knn_identical_row_fills_exactly():
    rng = np.random.default_rng(2)
    train = rng.normal(size=(30, 3))
    imp = fit_imputer("knn", train, _none_missing(train), k=1)
    target = train[13]
    out = impute(imp, target[None, :], np.array([[0, 0, 1]], dtype=np.uint8))
    assert out[0, 2] == target[2]  # nearest neighbor at distance zero


def test_knn_distance_normalized_by_shared_coords():
    # Rows differ in how many coordinates are mutually observed; the
    # normalized distance must prefer the truly closer neighbor.
    train = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, 100.0]])
    train_obs = np.array([[0, 0, 1], [0, 0, 0]], dtype=np.uint8)
    imp = fit_imputer("knn", train, train_obs, k=1)
    out = impute(imp, np.array([[0.1, 0.1, np.nan]]), np.array([[0, 0, 1]], dtype=np.uint8))
    assert out[0, 2] == 100.0  # row 1 is nearest and observes the target feature


def test_knn_tie_breaks_lowest_index():
    train = np.array([[0.0, 1.0], [0.0, 2.0], [5.0, 3.0]])
    imp = fit_imputer("knn", train, _none_missing(train), k=1)
    out = impute(imp, np.array([[0.0, np.nan]]), np.array([[0, 1]], dtype=np.uint8))
    assert out[0, 1] == 1.0  # rows 0 and 1 tie at distance 0; lowest index wins


def test_knn_permutation_invariant_with_distinct_distances():
    rng = np.random.default_rng(3)
    train = rng.normal(size=(20, 3))
    row = rng.normal(size=(1, 3))
    mask = np.array([[0, 0, 1]], dtype=np.uint8)
    a = impute(fit_imputer("knn", train, _none_missing(train), k=4), row, mask)
    perm = rng.permutation(20)
    b = impute(fit_imputer("knn", train[perm], _none_missing(train), k=4), row, mask)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_knn_no_shared_coords_falls_back_to_mean():
    # A fully missing query shares no coordinates with any neighbor.
    train = np.array([[1.0, 5.0], [3.0, 7.0]])
    imp = fit_imputer("knn", train, _none_missing(train), k=2)
    out = impute(imp, np.array([[np.nan, np.nan]]), np.ones((1, 2), dtype=np.uint8))
    np.testing.assert_allclose(out, [[2.0, 6.0]])


def test_linreg_recovers_exact_linear_relation():
    rng = np.random.default_rng(4)
    x01 = rng.normal(size=(50, 2))
    x2 = 2.0 * x01[:, 0] - x01[:, 1] + 1.0
    train = np.column_stack([x01, x2])
    imp = fit_imputer("lin_reg", train, _none_missing(train))
    row = np.array([[0.5, -0.25, np.nan]])
    out = impute(imp, row, np.array([[0, 0, 1]], dtype=np.uint8))
    assert out[0, 2] == pytest.approx(2.0 * 0.5 + 0.25 + 1.0, abs=1e-8)


def test_linreg_collinear_falls_back_with_warning():
    base = np.random.default_rng(5).normal(size=(30, 1))
    train = np.column_stack([base, 2 * base, base + 1])  # exactly collinear
    with pytest.warns(UserWarning, match="rank-deficient|falling back"):
        imp = fit_imputer("lin_reg", train, _none_missing(train))
    assert any(beta is None for beta in imp.coefs)
    out = impute(imp, np.array([[np.nan, 0.0, 0.0]]), np.array([[1, 0, 0]], dtype=np.uint8))
    assert out[0, 0] == pytest.approx(train[:, 0].mean())


def test_linreg_too_few_complete_rows_warns():
    train = np.random.default_rng(6).normal(size=(4, 3))
    observed = np.zeros_like(train, dtype=np.uint8)
    observed[:2, 0] = 1  # only 2 complete rows for 3 features
    with pytest.warns(UserWarning, match="complete rows"):
        imp = fit_imputer("lin_reg", train, observed)
    assert imp.coefs == [None, None, None]


def test_all_missing_feature_errors():
    train = np.ones((5, 2))
    observed = np.zeros_like(train, dtype=np.uint8)
    observed[:, 1] = 1
    for kind in ("knn", "lin_reg"):
        with pytest.raises(ValueError, match="every entry is missing"):
            fit_imputer(kind, train, observed)
    schema = FeatureSchema((("x", ContinuousUnbounded()), ("c", Categorical(2))))
    with pytest.raises(ValueError, match="every entry is missing"):
        _fill_values(schema, train, observed)


def _dropout_hook(d: int, z: np.ndarray, observed: np.ndarray):
    """The training hook of a default `dropout` method on d continuous features."""
    cfg = parse_config("[world]\nkind = gaussian\n[method.m]\nkind = dropout\n")
    _, augment = RULES["dropout"].fit(cfg, cfg.methods[0], _continuous(d), z, observed)
    return calibrate_rate(d, cfg.methods[0].p_clean), augment


def test_dropout_zeroes_at_the_calibrated_rate():
    """Dropout's training hook zeroes every entry the data misses, and each
    other entry with the calibrated rate, drawn per entry although the
    config's masks are per batch."""
    rng = np.random.default_rng(7)
    z = rng.normal(size=(10_000, 4)) + 5.0  # no input is 0
    observed = (rng.random(z.shape) < 0.1).astype(np.uint8)
    rate, augment = _dropout_hook(4, z, observed)
    zeroed = augment(z, observed, rng) == 0
    assert zeroed[observed == 1].all()
    assert abs(zeroed[observed == 0].mean() - rate) < 0.01
    assert len(np.unique(zeroed, axis=0)) > 1


def test_dropout_does_not_rescale_survivors():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(2000, 5)) + 5.0
    observed = (rng.random(z.shape) < 0.1).astype(np.uint8)
    _, augment = _dropout_hook(5, z, observed)
    out = augment(z, observed, rng)
    survivors = out != 0
    assert survivors.any()
    np.testing.assert_array_equal(out[survivors], z[survivors])


def test_knockout_star_is_policy_substitution():
    """The mean-placeholder variant reuses the knockout trainer wholesale."""
    from knockout.runner import build_repetition, train_method

    cfg = parse_config(
        """
[world]
kind = gaussian
n_total = 300
train_fraction = 0.5

[train]
steps = 30
batch_size = 32

[sweep]
repetitions = 1

[method.knockout]
kind = knockout

[method.knockout_star]
kind = knockout
placeholder = mean
"""
    )
    data = build_repetition(cfg, 0)
    star_cfg = [m for m in cfg.methods if m.name == "knockout_star"][0]
    pipe, _ = train_method(cfg, star_cfg, data, 1)
    assert pipe.kind == "knockout"
    np.testing.assert_allclose(pipe.rule.policy.knockout_values, 0.0, atol=1e-12)
