import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knockout import nn
from knockout.nn import (
    NetworkSpec,
    Parameters,
    TrainConfig,
    TrainingDivergedError,
    forward,
    init_params,
    loss_and_grad,
    predict,
    softmax,
    train,
)


def manual_forward(spec, params, batch):
    """Independent re-implementation with explicit loops."""
    out = np.zeros((batch.shape[0], spec.widths[-1]))
    for n, row in enumerate(batch):
        h = list(row)
        for layer in range(spec.n_layers):
            w, b = params.weights[layer], params.biases[layer]
            z = [sum(h[i] * w[i, j] for i in range(w.shape[0])) + b[j] for j in range(w.shape[1])]
            if layer < spec.n_layers - 1:
                h = [max(v, 0.0) for v in z]
            else:
                h = z
        out[n] = h
    return out


def _reference_loss_and_grad(spec, params, batch, targets, loss):
    """The allocating forward and backward pass: fresh arrays for every
    activation and a concatenated gradient."""
    batch = np.asarray(batch, dtype=float)
    hs, zs = [batch], []
    h = batch
    for layer in range(spec.n_layers):
        z = h @ params.weights[layer] + params.biases[layer]
        zs.append(z)
        h = np.maximum(z, 0.0) if layer < spec.n_layers - 1 else z
        hs.append(h)
    for layer, z in enumerate(zs):
        if not np.isfinite(z).all():
            raise ValueError(f"non-finite values after layer {layer}")
    value, dz = nn._loss_and_output_grad(spec, hs[-1], targets, loss)
    grads_w = [None] * spec.n_layers
    grads_b = [None] * spec.n_layers
    for layer in reversed(range(spec.n_layers)):
        grads_w[layer] = hs[layer].T @ dz
        grads_b[layer] = dz.sum(axis=0)
        if layer > 0:
            dh = dz @ params.weights[layer].T
            dz = dh * (zs[layer - 1] > 0)
    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb.ravel())
    return value, np.concatenate(parts)


def reference_train(spec, cfg, inputs, targets, observed_mask=None, augment=None,
                    trace_every=100):
    """The allocating training loop, kept as the oracle for `train`: a new
    parameter set per step and Adam out of place, with its usual constants."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets)
    n = inputs.shape[0]
    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)
    theta = params.flat()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trace = []
    for step in range(cfg.steps):
        idx = rng.integers(0, n, size=cfg.batch_size)
        xb = inputs[idx]
        yb = targets[idx]
        nb = observed_mask[idx] if observed_mask is not None else None
        if augment is not None:
            xb = augment(xb, nb, rng)
        value, g = _reference_loss_and_grad(spec, params, xb, yb, cfg.loss)
        if step % trace_every == 0:
            trace.append((step, value))
        t = step + 1
        beta1, beta2 = 0.9, 0.999
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        params = Parameters.from_flat(spec, theta)
    return params, trace


def _knock_and_indicate(xb, nb, rng):
    """A hook like `zero_indicator`'s: zero a random mask (and the observed
    missing entries) and append the mask, doubling the width."""
    mask = (rng.random(xb.shape) < 0.3).astype(float)
    if nb is not None:
        mask = np.maximum(mask, nb)
    return np.concatenate([xb * (1.0 - mask), mask], axis=1)


def _assert_params_equal(got, want):
    assert len(got.weights) == len(want.weights)
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@st.composite
def _train_case(draw):
    d = draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(1, 7), min_size=0, max_size=2))
    loss = draw(st.sampled_from(["mse", "cross_entropy"]))
    out_width = draw(st.integers(1, 3)) if loss == "mse" else draw(st.integers(2, 3))
    hook = draw(st.sampled_from([None, _knock_and_indicate]))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    data_rng = np.random.default_rng(seed)
    x = data_rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    if loss == "mse":
        y = data_rng.normal(size=(n, out_width)) if out_width > 1 else data_rng.normal(size=n)
    else:
        y = data_rng.integers(0, out_width, size=n)
    observed = None
    if hook is not None and draw(st.booleans()):
        observed = (data_rng.random((n, d)) < 0.2).astype(float)
    in_width = 2 * d if hook is not None else d
    spec = NetworkSpec(
        (in_width, *hidden, out_width), head="linear" if loss == "mse" else "logits"
    )
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([1e-3, 3e-2, 0.5])),
        steps=draw(st.integers(0, 25)),
        batch_size=draw(st.integers(1, n + 6)),  # batch_size > n is allowed
        seed=seed,
        loss=loss,
    )
    return spec, cfg, x, y, observed, hook, draw(st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(_train_case())
def test_train_bitwise_equal_to_allocating_reference(case):
    spec, cfg, x, y, observed, hook, trace_every = case
    want_params, want_trace = reference_train(spec, cfg, x, y, observed, hook, trace_every)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_TRACE_EVERY", trace_every)
        result = train(spec, cfg, x, y, observed, hook)
    _assert_params_equal(result.params, want_params)
    assert result.trace == want_trace


def test_train_bitwise_equal_to_reference_on_100_wide_nets(monkeypatch):
    # The property's nets are tiny; BLAS takes other kernels at the
    # 100-wide layers the runner trains, so the named cases run there too.
    rng = np.random.default_rng(21)
    x = rng.normal(size=(40, 3))
    cases = [
        (NetworkSpec((3, 1)), "mse", rng.normal(size=40), None, 64),
        (NetworkSpec((3, 100, 100, 1)), "mse", rng.normal(size=40), None, 128),
        (NetworkSpec((3, 100, 100, 2), head="logits"), "cross_entropy",
         rng.integers(0, 2, size=40), None, 16),
        (NetworkSpec((6, 100, 100, 1)), "mse", rng.normal(size=40), _knock_and_indicate, 32),
        (NetworkSpec((3, 100, 100, 2)), "mse", rng.normal(size=(40, 2)), None, 128),
    ]
    monkeypatch.setattr(nn, "_TRACE_EVERY", 7)
    for spec, loss, y, hook, batch_size in cases:
        cfg = TrainConfig(learning_rate=3e-3, steps=40, batch_size=batch_size, seed=3, loss=loss)
        want_params, want_trace = reference_train(spec, cfg, x, y, augment=hook, trace_every=7)
        result = train(spec, cfg, x, y, augment=hook)
        _assert_params_equal(result.params, want_params)
        assert result.trace == want_trace


@pytest.mark.parametrize("outputs", [1, 2])
def test_loss_and_grad_bitwise_equal_to_reference_below_a_narrow_head(outputs):
    # The backward product below the head has inner dimension `outputs`;
    # at 1, np.matmul skips BLAS where np.dot does not.
    rng = np.random.default_rng(outputs)
    spec = NetworkSpec((9, 100, 100, outputs))
    params = init_params(spec, rng)
    batch = rng.normal(size=(128, 9))
    targets = rng.normal(size=(128, outputs))
    want_value, want_grad = _reference_loss_and_grad(spec, params, batch, targets, "mse")
    value, grad = loss_and_grad(spec, params, batch, targets, "mse")
    assert value == want_value
    assert np.array_equal(grad, want_grad)


def test_forward_zero_params_gives_zero():
    spec = NetworkSpec((3, 4, 2))
    params = Parameters(
        [np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)]
    )
    out = forward(spec, params, np.random.default_rng(0).normal(size=(5, 3)))
    assert (out == 0).all()


def test_forward_identity_network_on_positive_inputs():
    # Identity weights pass positive values through the ReLU unchanged.
    spec = NetworkSpec((3, 3, 3))
    params = Parameters([np.eye(3), np.eye(3)], [np.zeros(3), np.zeros(3)])
    x = np.abs(np.random.default_rng(1).normal(size=(4, 3)))
    np.testing.assert_allclose(forward(spec, params, x), x, atol=1e-15)


def test_forward_matches_independent_reimplementation():
    rng = np.random.default_rng(2)
    spec = NetworkSpec((4, 7, 5, 2))
    params = init_params(spec, rng)
    batch = rng.normal(size=(6, 4))
    np.testing.assert_allclose(
        forward(spec, params, batch), manual_forward(spec, params, batch), atol=1e-12
    )


def test_forward_rejects_bad_inputs():
    spec = NetworkSpec((3, 2))
    params = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"batch shape \(2, 4\) is not \(n, 3\)"):
        forward(spec, params, np.zeros((2, 4)))
    with pytest.raises(ValueError, match=r"batch shape \(3,\) is not \(n, 3\)"):
        forward(spec, params, np.zeros(3))  # one row is no batch
    with pytest.raises(ValueError, match="non-finite"):
        forward(spec, params, np.array([[1.0, np.nan, 0.0]]))


def test_grad_single_linear_unit():
    # Loss (w*x + b - y)^2 at x=1, y=0, w=1, b=0 has dL/dw = 2, dL/db = 2.
    spec = NetworkSpec((1, 1))
    params = Parameters([np.array([[1.0]])], [np.array([0.0])])
    value, g = loss_and_grad(spec, params, np.array([[1.0]]), np.array([0.0]), "mse")
    assert value == pytest.approx(1.0)
    np.testing.assert_allclose(g, [2.0, 2.0])


def test_grad_zero_at_minimum():
    rng = np.random.default_rng(3)
    spec = NetworkSpec((2, 5, 1))
    params = init_params(spec, rng)
    batch = rng.normal(size=(4, 2))
    targets = forward(spec, params, batch).ravel()
    g = loss_and_grad(spec, params, batch, targets, "mse")[1]
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def _fd_check(spec, loss, rng, n_batch=5):
    params = init_params(spec, rng)
    batch = rng.normal(size=(n_batch, spec.widths[0]))
    if loss == "mse":
        targets = rng.normal(size=(n_batch, spec.widths[-1]))
    else:
        targets = rng.integers(0, spec.widths[-1], size=n_batch)
    _, analytic = loss_and_grad(spec, params, batch, targets, loss)
    theta = params.flat()
    h = 1e-5
    fd = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        lu, _ = loss_and_grad(spec, Parameters.from_flat(spec, up), batch, targets, loss)
        ld, _ = loss_and_grad(spec, Parameters.from_flat(spec, down), batch, targets, loss)
        fd[i] = (lu - ld) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return np.max(np.abs(analytic - fd) / denom)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    specs = [
        (NetworkSpec((3, 8, 1)), "mse"),
        (NetworkSpec((2, 4, 4, 2)), "mse"),
        (NetworkSpec((3, 6, 3), head="logits"), "cross_entropy"),
        (NetworkSpec((5, 5, 2), head="logits"), "cross_entropy"),
        (NetworkSpec((4, 1)), "mse"),
    ]
    for spec, loss in specs:
        assert _fd_check(spec, loss, rng) < 1e-4


@pytest.mark.filterwarnings("ignore:overflow")
def test_grad_error_names_layer():
    spec = NetworkSpec((2, 3, 1))
    params = Parameters(
        [np.full((2, 3), 1e200), np.full((3, 1), 1e200)], [np.zeros(3), np.zeros(1)]
    )
    with pytest.raises(ValueError, match="layer"):
        loss_and_grad(spec, params, np.full((1, 2), 1e200), np.zeros(1), "mse")


@pytest.mark.filterwarnings("ignore:overflow")
def test_grad_error_names_layer_when_relu_would_hide_it():
    # A -inf pre-activation becomes 0 after the ReLU, so the check must
    # look at the pre-activation.
    spec = NetworkSpec((1, 1, 1))
    params = Parameters([np.array([[-1e200]]), np.array([[1.0]])], [np.zeros(1), np.zeros(1)])
    with pytest.raises(ValueError, match="after layer 0"):
        loss_and_grad(spec, params, np.array([[1e200]]), np.zeros(1), "mse")


def test_train_zero_steps_returns_init():
    spec = NetworkSpec((2, 4, 1))
    cfg = TrainConfig(learning_rate=1e-3, steps=0, seed=9)
    result = train(spec, cfg, np.zeros((5, 2)), np.zeros(5))
    expected = init_params(spec, np.random.default_rng(9))
    for got, want in zip(result.params.weights, expected.weights):
        np.testing.assert_array_equal(got, want)
    assert result.trace == []


def test_train_solves_noise_free_linear_regression():
    rng = np.random.default_rng(5)
    w_true = np.array([0.7, -1.2, 2.0])
    x = rng.normal(size=(512, 3))
    y = x @ w_true
    spec = NetworkSpec((3, 32, 1))
    cfg = TrainConfig(learning_rate=3e-3, steps=5000, batch_size=64, seed=1)
    result = train(spec, cfg, x, y)
    pred = forward(spec, result.params, x).ravel()
    assert np.mean((pred - y) ** 2) < 1e-3


def test_train_determinism_bitwise():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    spec = NetworkSpec((3, 8, 1))
    cfg = TrainConfig(learning_rate=1e-3, steps=300, batch_size=16, seed=123)
    a = train(spec, cfg, x, y)
    b = train(spec, cfg, x, y)
    assert a.trace == b.trace
    for wa, wb in zip(a.params.weights, b.params.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.params.biases, b.params.biases):
        assert np.array_equal(ba, bb)


def test_train_records_trace_every_100_steps():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    cfg = TrainConfig(learning_rate=1e-3, steps=250, batch_size=8, seed=0)
    result = train(NetworkSpec((2, 4, 1)), cfg, x, y)
    assert [step for step, _ in result.trace] == [0, 100, 200]


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_reports_step():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(64, 2)) * 1e3
    y = rng.normal(size=64) * 1e3
    cfg = TrainConfig(learning_rate=1e80, steps=200, batch_size=16, seed=0)
    with pytest.raises(TrainingDivergedError, match="step"):
        train(NetworkSpec((2, 8, 1)), cfg, x, y)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_divergence_names_last_traced_loss(monkeypatch):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(64, 2)) * 1e3
    y = rng.normal(size=64) * 1e3
    spec = NetworkSpec((2, 8, 1))
    monkeypatch.setattr(nn, "_TRACE_EVERY", 1)
    cfg = TrainConfig(learning_rate=1e80, steps=200, batch_size=16, seed=0)
    with pytest.raises(TrainingDivergedError) as info:
        train(spec, cfg, x, y)
    message = str(info.value)
    step = int(re.search(r"at step (\d+)", message).group(1))
    assert step >= 1
    # The steps before the divergence train without error; their last
    # trace entry is the one the message names.
    before = train(spec, replace(cfg, steps=step), x, y)
    last_step, last_loss = before.trace[-1]
    assert last_step == step - 1
    assert f"(last traced loss {last_loss!r} at step {last_step})" in message


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_at_step_zero_has_no_traced_loss():
    x = np.full((8, 2), 1e300)
    cfg = TrainConfig(learning_rate=1e-3, steps=5, batch_size=4, seed=0)
    with pytest.raises(TrainingDivergedError, match=r"at step 0\b.*\(no loss traced yet\)"):
        train(NetworkSpec((2, 8, 1)), cfg, x, np.zeros(8))


def test_train_augment_hook_applied_per_batch():
    # A hook that zeros the inputs makes the model fit the target mean.
    rng = np.random.default_rng(9)
    x = rng.normal(size=(256, 2))
    y = x @ np.array([1.0, 1.0]) + 5.0
    cfg = TrainConfig(learning_rate=1e-2, steps=1500, batch_size=64, seed=2)

    def zero_inputs(xb, nb, hook_rng):
        return np.zeros_like(xb)

    result = train(NetworkSpec((2, 8, 1)), cfg, x, y, augment=zero_inputs)
    pred = forward(NetworkSpec((2, 8, 1)), result.params, np.zeros((1, 2)))
    assert pred[0, 0] == pytest.approx(y.mean(), abs=0.2)


def test_predict_simplex_membership():
    rng = np.random.default_rng(10)
    spec = NetworkSpec((3, 6, 4), head="logits")
    params = init_params(spec, rng)
    proba = predict(spec, params, rng.normal(size=(20, 3)))
    assert (proba >= 0).all()
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_predict_linear_head_equals_forward():
    rng = np.random.default_rng(11)
    spec = NetworkSpec((2, 5, 1))
    params = init_params(spec, rng)
    x = rng.normal(size=(7, 2))
    np.testing.assert_array_equal(predict(spec, params, x), forward(spec, params, x))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(30, 5))
    shifted = logits + rng.normal(size=(30, 1))  # per-row constant shift
    np.testing.assert_allclose(softmax(logits), softmax(shifted), atol=1e-12)
    assert (softmax(logits).argmax(axis=1) == softmax(shifted).argmax(axis=1)).all()


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec((5,))
    with pytest.raises(ValueError):
        NetworkSpec((3, 0, 1))
    with pytest.raises(ValueError):
        NetworkSpec((3, 4, 1), head="softmax")
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0, steps=1)
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(learning_rate=float("nan"), steps=1)
    with pytest.raises(ValueError, match="batch size"):
        TrainConfig(learning_rate=1e-3, steps=1, batch_size=0)


def test_predict_result_survives_a_second_predict():
    rng = np.random.default_rng(13)
    specs = (NetworkSpec((3, 6, 1)), NetworkSpec((3, 6, 6, 3), head="logits"), NetworkSpec((3, 2)))
    for spec in specs:
        params = init_params(spec, rng)
        x1, x2 = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
        first = predict(spec, params, x1)
        kept = first.copy()
        raw = forward(spec, params, x1)
        kept_raw = raw.copy()
        predict(spec, params, x2)
        forward(spec, params, x2)
        assert np.array_equal(first, kept)
        assert np.array_equal(raw, kept_raw)


def test_loss_and_grad_result_not_overwritten_by_a_later_call():
    rng = np.random.default_rng(14)
    spec = NetworkSpec((3, 5, 5, 1))
    params = init_params(spec, rng)
    batch, targets = rng.normal(size=(6, 3)), rng.normal(size=6)
    _, g1 = loss_and_grad(spec, params, batch, targets, "mse")
    kept = g1.copy()
    _, g2 = loss_and_grad(spec, params, rng.normal(size=(6, 3)), targets, "mse")
    assert g2 is not g1
    assert np.array_equal(g1, kept)
    out = np.empty(spec.n_params)
    _, g3 = loss_and_grad(spec, params, batch, targets, "mse", out=out)
    assert g3 is out
    assert np.array_equal(out, kept)
    with pytest.raises(ValueError, match="entries"):
        loss_and_grad(spec, params, batch, targets, "mse", out=np.empty(spec.n_params + 1))


def test_train_result_owns_its_memory(monkeypatch):
    # Spy on the module-level loss_and_grad that train calls every step, and
    # collect the parameter views, the gradient buffer and the scratch buffers.
    seen = []
    real = nn.loss_and_grad

    def spy(spec, params, batch, targets, loss, out=None):
        result = real(spec, params, batch, targets, loss, out=out)
        seen.extend([*params.weights, *params.biases, out, *nn._scratch.arrays.values()])
        return result

    monkeypatch.setattr(nn, "loss_and_grad", spy)
    rng = np.random.default_rng(15)
    spec = NetworkSpec((3, 7, 7, 1))
    cfg = TrainConfig(learning_rate=1e-2, steps=5, batch_size=8, seed=4)
    result = train(spec, cfg, rng.normal(size=(20, 3)), rng.normal(size=20))
    assert len(seen) > 0
    for arr in result.params.weights + result.params.biases:
        assert arr.flags.owndata
        for other in seen:
            assert not np.shares_memory(arr, other)
    assert nn._scratch.arrays == {}  # the training buffers are released


def test_interleaved_training_and_prediction_match_training_alone():
    rng = np.random.default_rng(16)
    x, y = rng.normal(size=(30, 3)), rng.normal(size=30)
    spec = NetworkSpec((3, 9, 9, 1))
    other_spec = NetworkSpec((3, 5, 2), head="logits")
    other_params = init_params(other_spec, rng)
    cfg_a = TrainConfig(learning_rate=1e-2, steps=30, batch_size=16, seed=1)
    cfg_b = TrainConfig(learning_rate=1e-2, steps=30, batch_size=5, seed=2)
    alone_a = train(spec, cfg_a, x, y)
    alone_b = train(spec, cfg_b, x, y)

    def busy(xb, nb, hook_rng):
        # Between two steps: predictions with other shapes, and a whole
        # training run with another batch size.
        predict(other_spec, other_params, x)
        predict(spec, alone_a.params, x[:7])
        train(spec, replace(cfg_b, steps=3), x, y)
        return xb

    first = predict(spec, alone_b.params, x)
    busy_a = train(spec, cfg_a, x, y, augment=busy)
    middle = predict(spec, alone_a.params, x[:11])
    busy_b = train(spec, cfg_b, x, y, augment=busy)
    _assert_params_equal(busy_a.params, alone_a.params)
    _assert_params_equal(busy_b.params, alone_b.params)
    assert busy_a.trace == alone_a.trace and busy_b.trace == alone_b.trace
    assert np.array_equal(first, predict(spec, alone_b.params, x))
    assert np.array_equal(middle, predict(spec, alone_a.params, x[:11]))


@pytest.mark.parametrize("block", [1, 7])
def test_forward_runs_in_row_blocks(block, monkeypatch):
    rng = np.random.default_rng(18)
    specs = (NetworkSpec((18, 20, 20, 1)), NetworkSpec((9, 20, 3), head="logits"))
    nn._scratch.arrays.clear()
    for spec in specs:
        params = init_params(spec, rng)
        for n in sorted({1, block - 1, block, block + 1, 3 * block + 2}):
            x = rng.normal(size=(n, spec.widths[0]))
            monkeypatch.setattr(nn, "_FORWARD_ROWS", n + 1)  # one block
            whole = forward(spec, params, x)
            nn._scratch.arrays.clear()  # drop the one-block buffers, which hold all n rows
            monkeypatch.setattr(nn, "_FORWARD_ROWS", block)
            blocked = forward(spec, params, x)
            assert blocked.shape == (n, spec.widths[-1])
            if n <= block:
                assert np.array_equal(blocked, whole)
            else:  # a product split by rows may round its last bit differently
                assert np.abs(blocked - whole).max() <= 1e-13 * np.abs(whole).max()
            if spec.head == "logits":
                np.testing.assert_allclose(predict(spec, params, x).sum(axis=1), 1.0, atol=1e-12)
        # The last call ran 3 * block + 2 rows; no buffer holds more than a block.
        assert max(buf.shape[0] for buf in nn._scratch.arrays.values()) <= block


def test_forward_reuses_its_buffers_for_a_short_last_block(monkeypatch):
    """Rows that are no multiple of the block end in a short block, which runs
    in the leading rows of the full block's buffers: a later call over the
    same rows allocates no buffer."""
    rng = np.random.default_rng(19)
    spec = NetworkSpec((4, 6, 6, 1))
    params = init_params(spec, rng)
    x = rng.normal(size=(17, 4))
    monkeypatch.setattr(nn, "_FORWARD_ROWS", 5)
    nn._scratch.arrays.clear()
    first = forward(spec, params, x)
    buffers = dict(nn._scratch.arrays)
    assert {buf.shape[0] for buf in buffers.values()} == {5}
    assert np.array_equal(forward(spec, params, x), first)
    assert nn._scratch.arrays.keys() == buffers.keys()
    assert all(nn._scratch.arrays[key] is buf for key, buf in buffers.items())
