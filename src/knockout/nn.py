"""Minimal dense feedforward network with manual reverse-mode gradients.

Float64 numpy throughout, ReLU hidden layers, a linear or logits head,
Adam, and a training loop that is bitwise reproducible given a seed.
Kept deliberately small so the gradient can be cross-checked against
central finite differences.

The training step and the forward pass allocate nothing per call: the
activations live in per-thread scratch buffers that are reused while
their shape stays the same, the gradient is written into views of one
flat vector, and Adam updates its moments and the parameters in place.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkSpec",
    "Parameters",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "init_params",
    "forward",
    "loss_and_grad",
    "grad",
    "train",
    "predict",
    "softmax",
]


class TrainingDivergedError(RuntimeError):
    pass


class _Scratch(threading.local):
    """Arrays reused across calls, one set per thread; an array is
    reallocated only when the shape asked for changes."""

    def __init__(self):
        self.arrays: dict = {}

    def get(self, key, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        buf = self.arrays.get(key)
        if buf is None or buf.shape != shape:
            buf = self.arrays[key] = np.empty(shape, dtype=dtype)
        return buf


_scratch = _Scratch()


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths from input to output; hidden layers use ReLU.

    Zero hidden layers (a single affine map) are allowed so that tiny
    nets, e.g. one linear unit, can be built for sanity checks.
    """

    widths: tuple[int, ...]
    activation: str = "relu"
    head: str = "linear"  # "linear" | "logits"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.head not in ("linear", "logits"):
            raise ValueError(f"unsupported head {self.head!r}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def n_params(self) -> int:
        return sum(
            fan_in * fan_out + fan_out
            for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:])
        )


@dataclass
class Parameters:
    """Per-layer weights and biases, flattenable for the optimizer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    @classmethod
    def views(cls, spec: NetworkSpec, vec: np.ndarray) -> "Parameters":
        """Weights and biases that are views into the flat vector ``vec``."""
        weights, biases = [], []
        pos = 0
        for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
            weights.append(vec[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(vec[pos : pos + fan_out])
            pos += fan_out
        if pos != vec.size:
            raise ValueError(f"flat vector has {vec.size} entries, expected {pos}")
        return cls(weights, biases)

    @classmethod
    def from_flat(cls, spec: NetworkSpec, vec: np.ndarray) -> "Parameters":
        return cls.views(spec, vec).copy()

    def copy(self) -> "Parameters":
        return Parameters([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    steps: int
    batch_size: int = 128
    seed: int = 0
    loss: str = "mse"  # "mse" | "cross_entropy"
    mask_granularity: str = "per_batch"  # consumed by augmentation hooks
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    trace_every: int = 100

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.loss not in ("mse", "cross_entropy"):
            raise ValueError(f"unsupported loss {self.loss!r}")
        if self.mask_granularity not in ("per_batch", "per_sample"):
            raise ValueError(f"unsupported mask granularity {self.mask_granularity!r}")


@dataclass
class TrainResult:
    params: Parameters
    trace: list[tuple[int, float]] = field(default_factory=list)


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> Parameters:
    """Fan-in scaled uniform init, sqrt(2 / fan_in); biases start at zero."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Parameters(weights, biases)


def _check_batch(spec: NetworkSpec, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=float)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.shape[1] != spec.widths[0]:
        raise ValueError(f"batch width {batch.shape[1]} != input width {spec.widths[0]}")
    if not np.isfinite(batch).all():
        raise ValueError("non-finite values in the input batch")
    return batch


def _forward_pass(
    spec: NetworkSpec, params: Parameters, batch: np.ndarray, check_finite: bool = False
) -> list[np.ndarray]:
    """The batch and every layer's output, the latter in scratch buffers.

    ReLU runs in place on the pre-activation, so a hidden layer's output
    is positive exactly where its pre-activation was. ``check_finite``
    rejects a non-finite pre-activation before the ReLU can hide it.
    """
    hs = [batch]
    for layer in range(spec.n_layers):
        z = _scratch.get(("h", layer), (batch.shape[0], spec.widths[layer + 1]))
        np.matmul(hs[-1], params.weights[layer], out=z)
        z += params.biases[layer]
        if check_finite:
            finite = np.isfinite(z, out=_scratch.get(("mask", layer + 1), z.shape, bool))
            if not finite.all():
                raise ValueError(f"non-finite values after layer {layer}")
        if layer < spec.n_layers - 1:
            np.maximum(z, 0.0, out=z)
        hs.append(z)
    return hs


def forward(spec: NetworkSpec, params: Parameters, batch: np.ndarray) -> np.ndarray:
    """Raw network outputs (reals for a linear head, logits otherwise)."""
    batch = _check_batch(spec, batch)
    return _forward_pass(spec, params, batch)[-1].copy()


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_output_grad(
    spec: NetworkSpec, out: np.ndarray, targets: np.ndarray, loss: str
) -> tuple[float, np.ndarray]:
    n = out.shape[0]
    if loss == "mse":
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets[:, None]
        if targets.shape != out.shape:
            raise ValueError(f"target shape {targets.shape} != output shape {out.shape}")
        diff = out - targets
        value = float((diff**2).sum() / n)  # per-sample squared error, batch mean
        return value, 2.0 * diff / n
    if loss == "cross_entropy":
        if spec.head != "logits":
            raise ValueError("cross_entropy needs a logits head")
        labels = np.asarray(targets)
        if labels.ndim != 1 or labels.shape[0] != n:
            raise ValueError("cross_entropy targets must be a vector of class indices")
        labels = labels.astype(int)
        if labels.min() < 0 or labels.max() >= out.shape[1]:
            raise ValueError("class index out of range")
        shifted = out - out.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        logp = shifted - logz
        value = float(-logp[np.arange(n), labels].mean())
        grad_out = np.exp(logp)
        grad_out[np.arange(n), labels] -= 1.0
        return value, grad_out / n
    raise ValueError(f"unsupported loss {loss!r}")


def loss_and_grad(
    spec: NetworkSpec,
    params: Parameters,
    batch: np.ndarray,
    targets: np.ndarray,
    loss: str,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Batch-mean loss and its exact gradient as one flat vector.

    The gradient is written into ``out`` (``n_params`` float64 entries)
    when given, else into a new array.
    """
    batch = _check_batch(spec, batch)
    hs = _forward_pass(spec, params, batch, check_finite=True)
    value, dz = _loss_and_output_grad(spec, hs[-1], targets, loss)
    flat = np.empty(spec.n_params) if out is None else out
    grads = Parameters.views(spec, flat)
    for layer in reversed(range(spec.n_layers)):
        np.matmul(hs[layer].T, dz, out=grads.weights[layer])
        dz.sum(axis=0, out=grads.biases[layer])
        if layer > 0:
            dh = _scratch.get(("dh", layer), hs[layer].shape)
            np.matmul(dz, params.weights[layer].T, out=dh)
            active = np.greater(hs[layer], 0.0, out=_scratch.get(("mask", layer), dh.shape, bool))
            dz = np.multiply(dh, active, out=dh)
    return value, flat


def grad(
    spec: NetworkSpec,
    params: Parameters,
    batch: np.ndarray,
    targets: np.ndarray,
    loss: str,
) -> np.ndarray:
    return loss_and_grad(spec, params, batch, targets, loss)[1]


def train(
    spec: NetworkSpec,
    cfg: TrainConfig,
    inputs: np.ndarray,
    targets: np.ndarray,
    observed_mask: np.ndarray | None = None,
    augment=None,
) -> TrainResult:
    """Adam on mini-batches with an optional augmentation hook.

    ``augment(batch, batch_observed_mask, rng) -> model inputs`` runs on
    every batch before the forward pass; it may change the input width
    (e.g. to append a missingness indicator). Two calls with the same
    config and data produce bitwise-identical parameters.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets)
    n = inputs.shape[0]
    if n == 0 and cfg.steps > 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    theta = init_params(spec, rng).flat()
    params = Parameters.views(spec, theta)  # updated in place with theta
    g = np.empty_like(theta)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    tmp = np.empty_like(theta)
    trace: list[tuple[int, float]] = []

    try:
        for step in range(cfg.steps):
            idx = rng.integers(0, n, size=cfg.batch_size)
            xb = inputs[idx]
            yb = targets[idx]
            nb = observed_mask[idx] if observed_mask is not None else None
            if augment is not None:
                xb = augment(xb, nb, rng)
            try:
                value, _ = loss_and_grad(spec, params, xb, yb, cfg.loss, out=g)
            except ValueError as exc:
                raise TrainingDivergedError(
                    f"diverged at step {step}: {exc}{_last_traced(trace)}"
                ) from exc
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at step {step}{_last_traced(trace)}"
                )
            if step % cfg.trace_every == 0:
                trace.append((step, value))
            # Adam, in place, in the operation order of
            #   m = b1 * m + (1 - b1) * g
            #   v = b2 * v + (1 - b2) * g * g
            #   theta = theta - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
            # so that every entry rounds exactly as those expressions do.
            t = step + 1
            m *= cfg.beta1
            m += np.multiply(g, 1.0 - cfg.beta1, out=tmp)
            v *= cfg.beta2
            np.multiply(g, 1.0 - cfg.beta2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(v, 1.0 - cfg.beta2**t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += cfg.eps
            step_size = np.divide(m, 1.0 - cfg.beta1**t, out=g)  # g is spent
            step_size *= cfg.learning_rate
            step_size /= tmp
            theta -= step_size
    finally:
        _scratch.arrays.clear()  # release the activation buffers
    return TrainResult(params=params.copy(), trace=trace)


def _last_traced(trace: list[tuple[int, float]]) -> str:
    if not trace:
        return " (no loss traced yet)"
    step, value = trace[-1]
    return f" (last traced loss {value!r} at step {step})"


def predict(spec: NetworkSpec, params: Parameters, rows: np.ndarray) -> np.ndarray:
    """Means for a linear head; class probabilities for a logits head."""
    out = forward(spec, params, rows)
    if spec.head == "logits":
        return softmax(out)
    return out
