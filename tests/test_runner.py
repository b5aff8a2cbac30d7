import functools
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knockout.config import _KIND_KEYS, parse_config
from knockout.methods import RULES
from knockout.runner import _write_csv, _write_json, build_repetition, load_pipeline
from knockout.runner import train_method
from knockout.schema import Categorical, apply_normalization, fit_normalization

BASE = """
[world]
kind = gaussian
dim = 10
n_total = 500
train_fraction = 0.4

[missingness]
mechanism = {mechanism}

[train]
steps = 40
batch_size = 32
hidden = 16
seed0 = 3

[sweep]
k_max = 1
repetitions = 1

[method.knockout]
kind = knockout
"""


# Each mechanism's section reads only its own parameter.
MECHANISMS = {
    "none": "none",
    "mcar": "mcar\np = 0.15",
    "mnar_self_censor": "mnar_self_censor\nq = 0.9",
}


def base(mechanism="none"):
    return BASE.format(mechanism=MECHANISMS[mechanism])


def make_cfg(mechanism="none", extra=""):
    return parse_config(base(mechanism) + extra)


def _plain(obj):
    """``obj`` as plain JSON values, every array as nested lists."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(item) for item in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def _model_text(pipe) -> bytes:
    """The model file `_write_json` must write: the json.dumps oracle."""
    return (json.dumps(_plain(pipe.json_fields()), sort_keys=True, allow_nan=False) + "\n").encode()


def _written_and_loaded(cfg, method, data, pipe):
    """``pipe`` written to a model file by `_write_json`, then loaded."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_json(Path(tmp) / "model.json", pipe.json_fields())
        return load_pipeline(path, cfg, method, data)


def test_build_repetition_deterministic_and_split():
    cfg = make_cfg()
    a = build_repetition(cfg, 0)
    b = build_repetition(cfg, 0)
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.x_test, b.x_test)
    assert np.array_equal(a.world.cov, b.world.cov)
    assert a.x_train.shape == (200, 9)
    assert a.x_test.shape == (300, 9)
    other = build_repetition(cfg, 1)
    assert not np.array_equal(other.world.cov, a.world.cov)  # fresh world per repetition


def test_world_shared_between_train_and_test():
    # One covariance per repetition: train and test rows come from the
    # same factor, so their sample covariances must agree within noise.
    cfg = parse_config(base("none").replace("n_total = 500", "n_total = 6000"))
    data = build_repetition(cfg, 0)
    cov_train = np.cov(data.x_train.T)
    cov_test = np.cov(data.x_test.T)
    assert np.abs(cov_train - cov_test).max() < np.abs(data.world.cov[:9, :9]).max()


def test_mcar_masks_train_only():
    data = build_repetition(make_cfg("mcar"), 0)
    assert data.train_observed.any()
    assert not data.test_observed.any()
    assert abs(data.train_observed.mean() - 0.15) < 0.05


def test_mnar_censors_both_splits_and_keeps_values():
    data = build_repetition(make_cfg("mnar_self_censor"), 0)
    assert data.train_observed.any()
    assert data.test_observed.any()
    for col in range(9):
        cut = np.sort(data.x_test[:, col])[int(np.ceil(0.9 * data.x_test.shape[0])) - 1]
        flagged = data.test_observed[:, col] == 1
        assert (data.x_test[flagged, col] > cut).all()


@pytest.mark.parametrize("mechanism", ["mcar", "mnar_self_censor"])
def test_build_repetition_normalizes_both_splits_with_the_training_stats(mechanism):
    """The normalized splits are the raw splits mapped by the stats fitted
    on the training split's observed entries: one map for both splits."""
    data = build_repetition(make_cfg(mechanism), 0)
    stats = fit_normalization(data.schema, data.x_train, data.train_observed)
    assert np.array_equal(data.z_train, apply_normalization(data.x_train, stats))
    assert np.array_equal(data.z_test, apply_normalization(data.x_test, stats))
    # The observed entries of the training split are z-scored exactly.
    kept = data.train_observed == 0
    means = [data.z_train[kept[:, j], j].mean() for j in range(data.schema.d)]
    np.testing.assert_allclose(means, 0.0, atol=1e-12)


def test_jsd_queries_reach_the_model_at_the_exact_bin_positions(monkeypatch):
    """Every row the marginal-fidelity sweep passes to the network holds the
    bin positions exactly in its observed column. A round trip through raw
    coordinates moved 5 of the 50 positions of the second feature here."""
    import knockout.runner as runner
    from knockout.worlds import empirical_conditional

    cfg = parse_config(
        """
[world]
kind = continuous2d
n_total = 3000
train_fraction = 0.1

[train]
steps = 2
batch_size = 32
hidden = 8
seed0 = 17

[sweep]
k_max = 0
repetitions = 1

[method.knockout]
kind = knockout
"""
    )
    data = build_repetition(cfg, 0)
    pipe, _ = train_method(cfg, cfg.methods[0], data, 0)
    predict, seen = runner.predict, []

    def recording_predict(spec, params, rows):
        seen.append(rows)
        return predict(spec, params, rows)

    jsd = runner._jsd_metrics(pipe, data)["marginal_jsd"]
    monkeypatch.setattr(runner, "predict", recording_predict)
    stats = fit_normalization(data.schema, data.x_train, data.train_observed)
    z_all = apply_normalization(np.vstack([data.x_train, data.x_test]), stats)
    y_all = np.concatenate([data.y_train, data.y_test]).astype(int)
    for j in range(data.schema.d):
        pattern = np.ones(data.schema.d, dtype=np.uint8)
        pattern[j] = 0
        jsd(pattern)
        est = empirical_conditional(z_all[:, j], y_all, bins=50)
        assert np.array_equal(seen[-1][:, j], est.positions), j
        assert (seen[-1][:, 1 - j] == pipe.rule.policy.knockout_values[1 - j]).all()


def test_train_method_each_kind_runs_and_predicts():
    extra = """
[method.common_baseline]
kind = common_baseline

[method.dropout]
kind = dropout

[method.zero_indicator]
kind = zero_indicator

[method.knn]
kind = knn
k = 3

[method.lin_reg]
kind = lin_reg
"""
    cfg = make_cfg("mcar", extra)
    data = build_repetition(cfg, 0)
    pattern = np.zeros(9, dtype=np.uint8)
    pattern[2] = 1
    for idx, method in enumerate(cfg.methods):
        pipe, trace = train_method(cfg, method, data, idx)
        pred = pipe.predict_for_pattern(data.z_test[:10], pattern, data.test_observed[:10])
        assert pred.shape == (10,)
        assert np.isfinite(pred).all()
        assert trace and trace[0][0] == 0


def test_zero_indicator_input_width_doubles():
    cfg = make_cfg("none", "\n[method.zero_indicator]\nkind = zero_indicator\n")
    data = build_repetition(cfg, 0)
    method = [m for m in cfg.methods if m.kind == "zero_indicator"][0]
    pipe, _ = train_method(cfg, method, data, 1)
    assert pipe.net_spec.widths[0] == 18


def test_knockout_pipeline_uses_placeholders_for_pattern():
    cfg = make_cfg()
    data = build_repetition(cfg, 0)
    pipe, _ = train_method(cfg, cfg.methods[0], data, 0)
    pattern = np.zeros(9, dtype=np.uint8)
    pattern[4] = 1
    inputs = pipe.rule.inputs(data.z_test[:5], pattern, data.test_observed[:5])
    assert (inputs[:, 4] == pipe.rule.policy.knockout_values[4]).all()


def test_mnar_inference_uses_dual_placeholder():
    cfg = make_cfg("mnar_self_censor")
    data = build_repetition(cfg, 0)
    pipe, _ = train_method(cfg, cfg.methods[0], data, 0)
    pattern = np.zeros(9, dtype=np.uint8)
    inputs = pipe.rule.inputs(data.z_test, pattern, data.test_observed)
    censored = data.test_observed == 1
    assert (inputs[censored] == pipe.rule.policy.observed_values[0]).all()
    # The ablated variant treats them with the knockout placeholder instead.
    minus_cfg = make_cfg("mnar_self_censor", "dual_placeholder = false\n")
    pipe_minus, _ = train_method(minus_cfg, minus_cfg.methods[0], data, 0)
    inputs_minus = pipe_minus.rule.inputs(data.z_test, pattern, data.test_observed)
    assert (inputs_minus[censored] == pipe_minus.rule.policy.knockout_values[0]).all()


def test_pattern_overrides_observed_missingness():
    cfg = make_cfg("mnar_self_censor")
    data = build_repetition(cfg, 0)
    pipe, _ = train_method(cfg, cfg.methods[0], data, 0)
    pattern = np.ones(9, dtype=np.uint8)
    inputs = pipe.rule.inputs(data.z_test[:20], pattern, data.test_observed[:20])
    assert (inputs == pipe.rule.policy.knockout_values).all()


# One method of every kind, and the knockout variants. Each one's training
# inputs are its inference rule with a sampled mask, or with no induced
# mask, computed once.
PROPERTY_METHODS = {
    "knockout": "kind = knockout\n",
    "knockout_star": "kind = knockout\nplaceholder = mean\n",
    "knockout_minus": "kind = knockout\ndual_placeholder = false\n",
    "common_baseline": "kind = common_baseline\n",
    "dropout": "kind = dropout\n",
    "zero_indicator": "kind = zero_indicator\n",
    "knn": "kind = knn\nk = 3\n",
    "lin_reg": "kind = lin_reg\n",
}

KNOCKOUT_STAR_MISMATCH = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="knockout* trains with the union merge but fills censored test entries with "
    "its observed-missing placeholder (the FOUND entry on knockout* in CHANGES.md)",
)


@functools.lru_cache(maxsize=None)
def _saved_and_fitted(name, mechanism):
    text = base(mechanism).replace(
        "[method.knockout]\nkind = knockout\n", f"[method.{name}]\n{PROPERTY_METHODS[name]}"
    )
    cfg = parse_config(text)
    data = build_repetition(cfg, 0)
    method = cfg.methods[0]
    pipe, _ = train_method(cfg, method, data, 0)
    saved = _written_and_loaded(cfg, method, data, pipe)
    rule, augment = RULES[method.kind].fit(
        cfg, method, data.schema, data.z_train, data.train_observed
    )
    return data, saved, rule, augment


def _assert_inference_inputs_equal_training_inputs(name, mechanism, pattern, start):
    data, saved, rule, augment = _saved_and_fitted(name, mechanism)
    pattern = np.asarray(pattern, dtype=np.uint8)
    train_start = start % (data.x_train.shape[0] - 20)
    for z_all, observed_all, rows in (
        (data.z_test, data.test_observed, slice(start, start + 20)),
        (data.z_train, data.train_observed, slice(train_start, train_start + 20)),
    ):
        z = z_all[rows]
        observed = observed_all[rows]
        inference = saved.rule.inputs(z, pattern, observed)

        if augment is None:  # training inputs computed once, with no induced mask
            training = rule.inputs(z, pattern, observed)
        else:
            with mock.patch(
                "knockout.methods.sample_masks", lambda dist, n, rng: np.tile(pattern, (n, 1))
            ):
                training = augment(z, observed, np.random.default_rng(0))
        np.testing.assert_array_equal(inference, training)


@pytest.mark.parametrize(
    "name,mechanism",
    [
        (name, mechanism)
        for name in sorted(PROPERTY_METHODS)
        for mechanism in ("mcar", "mnar_self_censor")
        if (name, mechanism) != ("knockout_star", "mnar_self_censor")
    ],
)
@settings(max_examples=25, deadline=None)
@given(pattern=st.lists(st.integers(0, 1), min_size=9, max_size=9), start=st.integers(0, 280))
def test_inference_inputs_equal_training_inputs_with_the_pattern_forced(
    name, mechanism, pattern, start
):
    """A saved model's inputs for a pattern are the training inputs with the
    induced mask forced to that pattern, on test rows and on training rows,
    each with their own missingness (MCAR leaves the test rows complete, so
    only its training rows show the merge of observed and induced masks)."""
    _assert_inference_inputs_equal_training_inputs(name, mechanism, pattern, start)


@KNOCKOUT_STAR_MISMATCH
def test_knockout_star_mnar_inference_inputs_equal_training_inputs():
    """The knockout*/MNAR case of the property above, on fixed inputs: a known
    failure, which Hypothesis would otherwise shrink and store on every run."""
    _assert_inference_inputs_equal_training_inputs(
        "knockout_star", "mnar_self_censor", np.zeros(9, dtype=np.uint8), 0
    )


@pytest.mark.parametrize("mechanism", ["none", "mcar"])
def test_knockout_star_and_dropout_train_the_same_network(mechanism):
    """knockout* fills masked entries with the means of z-scored features,
    0, as dropout does, and both draw one mask per row: with the same
    training seed they train the same weights."""
    cfg = parse_config(
        base(mechanism).replace(
            "[method.knockout]\nkind = knockout\n",
            "[method.dropout]\nkind = dropout\n"
            "[method.knockout_star]\nkind = knockout\nplaceholder = mean\n",
        )
    )
    data = build_repetition(cfg, 0)
    dropout, star = (train_method(cfg, method, data, 0)[0].params for method in cfg.methods)
    for a, b in zip([*dropout.weights, *dropout.biases], [*star.weights, *star.biases]):
        np.testing.assert_array_equal(a, b)


class _ReadRecorder:
    """A MethodConfig stand-in that records the fields read from it."""

    def __init__(self, method):
        self._method = method
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._method, name)


@pytest.mark.parametrize("name", sorted(PROPERTY_METHODS))
def test_rules_read_only_the_method_keys_their_kind_declares(name):
    """What fit and its training hook read of a method is what the config
    accepts and hashes for that kind."""
    cfg = parse_config(
        base("mnar_self_censor").replace(
            "[method.knockout]\nkind = knockout\n", f"[method.{name}]\n{PROPERTY_METHODS[name]}"
        )
    )
    data = build_repetition(cfg, 0)
    kind = cfg.methods[0].kind
    method = _ReadRecorder(cfg.methods[0])
    _, augment = RULES[kind].fit(cfg, method, data.schema, data.z_train, data.train_observed)
    if augment is not None:
        augment(data.z_train[:8], data.train_observed[:8], np.random.default_rng(0))
    assert method.read <= {"name", "kind", *_KIND_KEYS[kind]}, method.read


def test_pipeline_json_round_trip_preserves_predictions():
    cfg = make_cfg()
    data = build_repetition(cfg, 0)
    pipe, _ = train_method(cfg, cfg.methods[0], data, 0)
    restored = _written_and_loaded(cfg, cfg.methods[0], data, pipe)
    pattern = np.zeros(9, dtype=np.uint8)
    pattern[1] = 1
    np.testing.assert_array_equal(
        pipe.predict_for_pattern(data.z_test[:20], pattern, data.test_observed[:20]),
        restored.predict_for_pattern(data.z_test[:20], pattern, data.test_observed[:20]),
    )


def _v1_fields(pipe, data) -> dict:
    """What format 1 also stored: the normalization stats, the rule's fitted
    state, and the target's mean and std."""
    stats = fit_normalization(data.schema, data.x_train, data.train_observed)
    # Format 1 named each feature's mode and wrote null stats for a
    # categorical feature, whose codes pass through.
    zscored = [not isinstance(kind, Categorical) for kind in data.schema.kinds]
    fields = {
        "stats": {
            "modes": ["zscore" if z else "none" for z in zscored],
            "mean": [float(v) if z else None for z, v in zip(zscored, stats.mean)],
            "std": [float(v) if z else None for z, v in zip(zscored, stats.std)],
        },
        "y_mean": data.y_mean,
        "y_std": data.y_std,
    }
    rule = pipe.rule
    if pipe.kind == "knockout":
        policy = {
            "knockout_values": rule.policy.knockout_values,
            "observed_values": rule.policy.observed_values,
        }
        fields.update(policy=policy, dual_placeholder=rule.dual_placeholder)
    elif pipe.kind == "common_baseline":
        fields["fill_values"] = rule.policy.knockout_values
    elif pipe.kind == "knn":
        imputer = rule.imputer
        fields["imputer"] = {
            "kind": "knn",
            "k": imputer.k,
            "train_x": imputer.train_x,
            "train_observed": imputer.train_observed,
            "fallback": imputer.fallback,
        }
    elif pipe.kind == "lin_reg":
        coefs = [None if c is None else c.tolist() for c in rule.imputer.coefs]
        fields["imputer"] = {"kind": "lin_reg", "coefs": coefs, "fallback": rule.imputer.fallback}
    return _plain(fields)


def test_model_in_the_earlier_format_loads_and_predicts_identically(tmp_path):
    """A format-1 model file, which also held the stats, the rule's fitted
    state and the target's mean and std, loads and predicts as the model it
    was written from; a sweep rewrites it in format 2."""
    extra = """
[method.common_baseline]
kind = common_baseline

[method.dropout]
kind = dropout

[method.zero_indicator]
kind = zero_indicator

[method.knn]
kind = knn
k = 3

[method.lin_reg]
kind = lin_reg
"""
    cfg = make_cfg("mnar_self_censor", extra)
    data = build_repetition(cfg, 0)
    pattern = np.zeros(9, dtype=np.uint8)
    pattern[1] = 1
    for index, method in enumerate(cfg.methods):
        pipe, _ = train_method(cfg, method, data, index)
        v1 = {**_plain(pipe.json_fields()), **_v1_fields(pipe, data), "format_version": 1}
        v1.update(task="regression", net={**v1["net"], "activation": "relu"})  # older still
        path = tmp_path / f"{method.name}.json"
        path.write_text(json.dumps(v1, sort_keys=True, allow_nan=False) + "\n")
        restored = load_pipeline(path, cfg, method, data)
        np.testing.assert_array_equal(
            pipe.predict_for_pattern(data.z_test, pattern, data.test_observed),
            restored.predict_for_pattern(data.z_test, pattern, data.test_observed),
        )
        assert _model_text(restored) == _model_text(pipe)
        current = json.loads(_model_text(pipe))
        assert current["format_version"] == 2
        assert sorted(current) == ["biases", "format_version", "kind", "name", "net", "weights"]


def test_training_determinism_across_processes_payload(tmp_path):
    import pickle

    from knockout.runner import _method_job, _prepare_out

    cfg = make_cfg()
    worker, local = tmp_path / "worker", tmp_path / "local"
    _prepare_out(cfg, worker)
    _prepare_out(cfg, local)
    # A worker receives the payload (indices, no data), builds its
    # repetition, writes its files, and returns its result pickled.
    payload = pickle.loads(pickle.dumps((cfg, cfg.methods[0], 0, 0, worker, None)))
    report_a, jsd_a, written_a = pickle.loads(pickle.dumps(_method_job(*payload)))
    data_b = build_repetition(cfg, 0)
    pipe_b, trace_b = train_method(cfg, cfg.methods[0], data_b, 0)
    model, trace = worker / "models" / "knockout_rep0.json", worker / "traces" / "knockout_rep0.csv"
    rep_files = ["worlds/rep0.json", "data/train_rep0.csv", "data/train_mask_rep0.csv"]
    assert written_a == [model, trace, *(worker / name for name in rep_files)]
    assert model.read_bytes() == _model_text(pipe_b)
    world_text = json.dumps(data_b.world.to_json_dict(), sort_keys=True, allow_nan=False) + "\n"
    assert (worker / rep_files[0]).read_text() == world_text
    assert trace.read_text().splitlines() == ["step,loss", *(f"{s},{v!r}" for s, v in trace_b)]
    # Sweeping the worker's saved model, as `knockout sweep` does, gives
    # the worker's report and files, and writes no trace.
    report_c, jsd_c, written_c = _method_job(cfg, cfg.methods[0], 0, 0, local, model.parent)
    assert written_c == [local / "models" / "knockout_rep0.json", *(local / n for n in rep_files)]
    for path_a, path_c in zip([model, *written_a[2:]], written_c):
        assert path_c.read_bytes() == path_a.read_bytes()
    assert report_c == report_a
    assert len(report_a.results) == 2 * 10  # 2 metrics, 10 patterns
    assert {len(r.per_rep) for r in report_a.results} == {1}
    assert jsd_a is None and jsd_c is None
    # A later method's job writes only its own model and trace.
    _, _, written_d = _method_job(cfg, cfg.methods[0], 0, 1, local, None)
    assert written_d == [local / "models" / model.name, local / "traces" / trace.name]


@pytest.mark.parametrize("name", sorted(PROPERTY_METHODS))
def test_model_writer_writes_the_bytes_of_json_dumps(name, tmp_path):
    cfg = parse_config(
        base("mnar_self_censor").replace(
            "[method.knockout]\nkind = knockout\n", f"[method.{name}]\n{PROPERTY_METHODS[name]}"
        )
    )
    pipe, _ = train_method(cfg, cfg.methods[0], build_repetition(cfg, 0), 0)
    path = tmp_path / "model.json"
    assert _write_json(path, pipe.json_fields()).read_bytes() == _model_text(pipe)
    pipe.params.weights[-1][0, 0] = np.nan
    with pytest.raises(ValueError, match="Out of range float values"):
        _write_json(path, pipe.json_fields())


def test_csv_writer_writes_each_float_as_a_plain_decimal(tmp_path):
    """A numpy float64, whose repr under numpy 2 is ``np.float64(...)``, is
    written as the plain decimal of a Python float, and ints as ints."""
    rows = [[np.float64(0.1), 0.1, 1e-20, 3], (np.float64(-2.5), float("nan"), 2.0, 0)]
    path = _write_csv(tmp_path / "rows.csv", ["a", "b", "c", "d"], rows)
    assert path.read_text() == "a,b,c,d\n0.1,0.1,1e-20,3\n-2.5,nan,2.0,0\n"


def test_writing_a_fig1_size_model_allocates_less_than_the_file(tmp_path):
    import dataclasses
    import tracemalloc

    from knockout.nn import NetworkSpec, init_params

    cfg = make_cfg()
    pipe, _ = train_method(cfg, cfg.methods[0], build_repetition(cfg, 0), 0)
    spec = NetworkSpec((9, 100, 100, 1))
    pipe = dataclasses.replace(pipe, net_spec=spec, params=init_params(spec, np.random.default_rng(0)))
    path = tmp_path / "model.json"
    _write_json(path, pipe.json_fields())
    tracemalloc.start()
    try:
        _write_json(path, pipe.json_fields())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == _model_text(pipe)
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_classification_runner_mixed_world(tmp_path):
    cfg = parse_config(
        """
[world]
kind = mixed
n_total = 1200
train_fraction = 0.5

[train]
steps = 150
batch_size = 64
hidden = 16
seed0 = 7

[sweep]
k_max = 2
repetitions = 1

[method.knockout]
kind = knockout

[method.common_baseline]
kind = common_baseline
"""
    )
    from knockout.runner import run_experiment

    art = run_experiment(cfg, out_dir=tmp_path)
    report = art.reports["knockout"]
    errors = {r.pattern: r.value for r in report.results if r.metric == "error"}
    assert set(errors) == {"00", "01", "10", "11"}
    assert all(0.0 <= v <= 1.0 for v in errors.values())
    assert art.jsd_reports is not None
    jsd_vals = [r.value for rep in art.jsd_reports.values() for r in rep.results]
    assert all(np.isfinite(v) and v >= 0 for v in jsd_vals)
    # One-hot width: 2 classes + 2 placeholder slots + 1 continuous feature.
    model = json.loads((tmp_path / "models" / "knockout_rep0.json").read_text())
    assert model["net"]["widths"][0] == 5


def test_ablation_rejects_categorical_worlds(tmp_path):
    import pytest

    from knockout.runner import ablate_placeholder

    cfg = parse_config(
        """
[world]
kind = mixed
n_total = 200
train_fraction = 0.5

[train]
steps = 10

[sweep]
repetitions = 1

[method.knockout]
kind = knockout
"""
    )
    with pytest.raises(ValueError, match="continuous"):
        ablate_placeholder(cfg, [0.0, 10.0], out_dir=tmp_path / "never_written")


@pytest.mark.parametrize(
    "values,message",
    [
        ([0.0, float("nan")], "must be finite, got nan"),
        ([float("inf")], "must be finite, got inf"),
        (
            [0.1234567, 0.1234568],
            "magnitudes 0.1234567 and 0.1234568 both name method 'knockout_ph0.123457'",
        ),
    ],
)
def test_ablation_checks_its_magnitudes_before_any_job(values, message, tmp_path):
    from knockout.runner import ablate_placeholder

    with pytest.raises(ValueError, match=re.escape(message)):
        ablate_placeholder(make_cfg(), values, out_dir=tmp_path / "never_written")
    assert not (tmp_path / "never_written").exists()


def test_knockout_star_on_mixed_world_uses_fitted_mode(tmp_path):
    import json

    from knockout.runner import run_experiment

    cfg = parse_config(
        """
[world]
kind = mixed
n_total = 400
train_fraction = 0.5

[train]
steps = 30
batch_size = 32
hidden = 8

[sweep]
k_max = 1
repetitions = 1

[method.knockout_star]
kind = knockout
placeholder = mean
"""
    )
    art = run_experiment(cfg, out_dir=tmp_path)
    data = build_repetition(cfg, 0)
    path = tmp_path / "models" / "knockout_star_rep0.json"
    json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(f"model JSON holds {name}"))
    pipe = load_pipeline(path, cfg, cfg.methods[0], data)
    codes, counts = np.unique(data.x_train[:, 0], return_counts=True)
    assert pipe.rule.policy.knockout_values[0] == codes[np.argmax(counts)]
    assert np.isfinite(pipe.rule.policy.observed_values).all()
    values = [r.value for report in art.reports.values() for r in report.results]
    assert values and np.isfinite(values).all()


MNAR_IMPUTERS = """
[world]
kind = gaussian
dim = 5
n_total = 300
train_fraction = 0.4

[missingness]
mechanism = mnar_self_censor
q = 0.8

[train]
steps = 20
batch_size = 32
hidden = 8
seed0 = 5

[sweep]
k_max = 2
repetitions = 2

[method.knn]
kind = knn
k = 3

[method.lin_reg]
kind = lin_reg
"""


def test_imputer_methods_end_to_end_serial_matches_parallel(tmp_path):
    import json

    from knockout.runner import run_experiment

    cfg = parse_config(MNAR_IMPUTERS)
    run_experiment(cfg, out_dir=tmp_path / "serial", jobs=1)
    run_experiment(cfg, out_dir=tmp_path / "parallel", jobs=2)
    for name in ("report_long.csv", "aggregates.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parallel" / name).read_bytes()
    rows = (tmp_path / "serial" / "report_long.csv").read_text().splitlines()[1:]
    methods = {row.split(",")[0] for row in rows}
    assert methods == {"knn", "lin_reg"}
    assert all(np.isfinite(float(row.rsplit(",", 1)[1])) for row in rows)
    agg = json.loads((tmp_path / "serial" / "aggregates.json").read_text())
    means = [entry["mean"] for method in agg.values() for entry in method.values()]
    assert means and np.isfinite(means).all()


WORLD_SECTIONS = {
    "gaussian": "kind = gaussian\ndim = 5\nn_total = 300\n",
    "continuous2d": "kind = continuous2d\nn_total = 300\n",
    "mixed": "kind = mixed\nn_total = 300\n",
    "csv": "kind = csv\npath = {csv}\ntarget = target\n",
}


def _world_config(kind, tmp_path, repetitions=2):
    """A small two-method config on one world kind; a csv world gets its file."""
    csv_path = tmp_path / "data.csv"
    if kind == "csv":
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=200)
        rows = ["a,b,c,target"] + [",".join(repr(float(v)) for v in (*r, t)) for r, t in zip(x, y)]
        csv_path.write_text("\n".join(rows) + "\n")
    return parse_config(
        "[world]\n"
        + WORLD_SECTIONS[kind].format(csv=csv_path)
        + "train_fraction = 0.5\n"
        + f"""
[train]
steps = 20
batch_size = 32
hidden = 8
seed0 = 4

[sweep]
k_max = 1
repetitions = {repetitions}

[method.knockout]
kind = knockout

[method.common_baseline]
kind = common_baseline
"""
    )


@pytest.mark.parametrize("kind", sorted(WORLD_SECTIONS))
def test_jobs_and_serial_runs_write_the_same_bytes(kind, tmp_path):
    from knockout.runner import run_experiment

    cfg = _world_config(kind, tmp_path)
    run_experiment(cfg, out_dir=tmp_path / "serial", jobs=1)
    run_experiment(cfg, out_dir=tmp_path / "pool", jobs=2)
    manifest = (tmp_path / "serial" / "manifest.json").read_bytes()
    assert manifest == (tmp_path / "pool" / "manifest.json").read_bytes()
    assert b"report_long.csv" in manifest and b"models/knockout_rep1.json" in manifest


def test_manifest_lists_only_the_files_this_run_wrote(tmp_path):
    from knockout.runner import run_experiment

    reused = tmp_path / "reused"
    run_experiment(_world_config("gaussian", tmp_path, repetitions=2), out_dir=reused)
    cfg = _world_config("gaussian", tmp_path, repetitions=1)
    run_experiment(cfg, out_dir=reused)
    run_experiment(cfg, out_dir=tmp_path / "fresh")
    # The two-repetition run's rep1 model and trace files are deleted; its
    # rep1 world and data files stay on disk but are not this run's.
    assert not (reused / "models" / "knockout_rep1.json").exists()
    assert not (reused / "traces" / "knockout_rep1.csv").exists()
    assert (reused / "worlds" / "rep1.json").exists()
    manifest = (reused / "manifest.json").read_bytes()
    assert manifest == (tmp_path / "fresh" / "manifest.json").read_bytes()
    assert not [name for name in json.loads(manifest)["files"] if "rep1" in name]


def test_a_run_that_fails_part_way_leaves_no_manifest(tmp_path, monkeypatch):
    import knockout.runner as runner

    cfg = _world_config("gaussian", tmp_path, repetitions=1)  # common_baseline, knockout
    out = tmp_path / "run"
    runner.run_experiment(cfg, out_dir=out)
    assert (out / "manifest.json").exists()
    train = runner.train_method

    def fail_the_second_method(cfg, method, data, method_index):
        if method_index == 1:
            raise RuntimeError(f"{method.name} failed")
        return train(cfg, method, data, method_index)

    monkeypatch.setattr(runner, "train_method", fail_the_second_method)
    with pytest.raises(RuntimeError, match="knockout failed"):
        runner.run_experiment(cfg, out_dir=out)
    # The first method's model was rewritten; no manifest names it.
    assert (out / "models" / "common_baseline_rep0.json").exists()
    assert not (out / "manifest.json").exists()


def _pickled_types(obj) -> set:
    """Every type that pickling ``obj`` meets, as a process pool pickles a
    payload or a result (exact ints, floats, strings and containers aside)."""
    import io
    import pickle

    seen = set()

    class TypeRecorder(pickle.Pickler):
        def reducer_override(self, value):
            seen.add(type(value))
            return NotImplemented

    TypeRecorder(io.BytesIO()).dump(obj)
    return seen


def test_pool_starts_no_more_workers_than_jobs(tmp_path, monkeypatch):
    import concurrent.futures

    import knockout.runner as runner

    started, crossed = [], []

    class RecordingPool:  # runs the jobs in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            for payload in zip(*iterables):  # what would cross to a worker and back
                crossed.append(payload)
                crossed.append(fn(*payload))
                yield crossed[-1]

    # `_run_jobs` looks the pool up in concurrent.futures when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = _world_config("gaussian", tmp_path)  # 2 methods x 2 repetitions
    runner.run_experiment(cfg, out_dir=tmp_path / "many", jobs=64)
    runner.run_experiment(cfg, out_dir=tmp_path / "three", jobs=3)
    runner.run_experiment(cfg, out_dir=tmp_path / "one", jobs=1)
    assert started == [4, 3]  # one job needs no pool
    # Jobs take indices and return reports and file names: no payload or
    # result of a pooled run holds a repetition, a model or an array.
    assert len(crossed) == 2 * 2 * 4
    held = set().union(*map(_pickled_types, crossed))
    forbidden = {runner.RepetitionData, runner.ModelPipeline, np.ndarray}
    assert not held & forbidden, held & forbidden
    pipe, _ = runner.train_method(cfg, cfg.methods[0], runner.build_repetition(cfg, 0), 0)
    assert forbidden <= _pickled_types((runner.build_repetition(cfg, 0), pipe))


def test_csv_world_is_read_once_per_command(tmp_path):
    import dataclasses

    import knockout.runner as runner
    from knockout.config import ConfigError

    cfg = _world_config("csv", tmp_path, repetitions=3)
    runner._read_csv.cache_clear()
    runner.run_experiment(cfg, out_dir=tmp_path / "run")
    runner.run_experiment(cfg, out_dir=tmp_path / "pool", jobs=2)
    runner.sweep_saved_models(cfg, tmp_path / "run" / "models", tmp_path / "sweep")
    runner.ablate_placeholder(cfg, [0.0, 10.0], out_dir=tmp_path / "ablate")
    # One read in this process; the pool's workers forked after it.
    assert runner._read_csv.cache_info().misses == 1
    for name in ("report_long.csv", "aggregates.json"):
        assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    # The config's checks are not cached with the file.
    with pytest.raises(ConfigError, match="section \\[sweep\\], key 'k_max': must be <= 3"):
        runner.run_experiment(dataclasses.replace(cfg, k_max=4), out_dir=tmp_path / "deep")
    # A file that changed is read again.
    path = tmp_path / "data.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert runner._load_csv_world(cfg)[1].shape == (199, 3)
    assert runner._read_csv.cache_info().misses == 2


def test_a_csv_world_is_split_once_into_views_of_the_cached_table(tmp_path):
    import dataclasses
    import os

    import knockout.runner as runner

    cfg = dataclasses.replace(_world_config("csv", tmp_path), csv_target="b")
    runner._read_csv.cache_clear()
    first, second = runner._load_csv_world(cfg), runner._load_csv_world(cfg)
    stat = os.stat(cfg.csv_path)
    cached = runner._read_csv(cfg.csv_path, "b", stat.st_size, stat.st_mtime_ns)
    assert runner._read_csv.cache_info().misses == 1
    table = cached[1].base
    assert table is cached[2].base and table.flags.c_contiguous and not table.flags.writeable
    for names, x, y in (first, second):
        assert names == ("a", "c", "target")
        assert x.base is table and y.base is table
        assert np.shares_memory(x, table) and np.shares_memory(y, table)
        assert not x.flags.writeable and not y.flags.writeable
    data = np.loadtxt(cfg.csv_path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(first[1], np.delete(data, 1, axis=1))
    np.testing.assert_array_equal(first[2], data[:, 1])


def test_a_csv_world_job_payload_holds_indices_not_the_table(tmp_path, monkeypatch):
    import pickle

    import knockout.runner as runner

    payloads = []
    job = runner._method_job

    def recording_job(*payload):
        payloads.append(payload)
        return job(*payload)

    monkeypatch.setattr(runner, "_method_job", recording_job)
    cfg = _world_config("csv", tmp_path)  # a 200 x 4 file: 6,400 bytes of float64
    runner.run_experiment(cfg, out_dir=tmp_path / "run")
    assert len(payloads) == 2 * 2
    assert max(len(pickle.dumps(payload)) for payload in payloads) < 2048


def test_a_csv_world_data_files_are_headed_with_its_column_names(tmp_path):
    from knockout.runner import run_experiment

    cfg = _world_config("csv", tmp_path, repetitions=1)  # columns a, b, c and target
    run_experiment(cfg, out_dir=tmp_path / "run")
    data = tmp_path / "run" / "data"
    assert (data / "train_rep0.csv").read_text().splitlines()[0] == "a,b,c,y"
    assert (data / "train_mask_rep0.csv").read_text().splitlines()[0] == "a,b,c"


def test_sweep_holds_at_most_one_earlier_prediction_per_model(tmp_path, monkeypatch):
    import weakref

    import knockout.runner as runner

    predict = runner.ModelPipeline.predict_for_pattern
    earlier = {}  # model name -> weak references to its earlier predictions
    peak = {}
    calls = []

    def recording_predict(self, z, pattern, observed):
        calls.append(self.name)
        alive = [ref for ref in earlier.setdefault(self.name, []) if ref() is not None]
        peak[self.name] = max(peak.get(self.name, 0), len(alive))
        out = predict(self, z, pattern, observed)
        earlier[self.name] = alive + [weakref.ref(out)]
        return out

    monkeypatch.setattr(runner.ModelPipeline, "predict_for_pattern", recording_predict)
    cfg = _world_config("gaussian", tmp_path)  # 5 patterns, 2 metrics, 2 repetitions
    runner.run_experiment(cfg, out_dir=tmp_path / "run")
    assert set(peak) == {"knockout", "common_baseline"}
    assert max(peak.values()) <= 1
    # One prediction per (model, pattern), shared by both metrics; none
    # outlives the run.
    assert len(calls) == 2 * 2 * 5
    assert all(ref() is None for refs in earlier.values() for ref in refs)
