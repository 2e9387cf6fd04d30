"""Small fully-connected regression network, implemented directly on numpy.

Hidden layers use the Mish activation x * tanh(softplus(x)); the single
output is linear. tanh(softplus(x)) is computed with one ``exp``: for
e = exp(x) and n = e * (e + 2) it equals n / (n + 2). Every weight and
bias lives in one flat float64 vector (``Network.params``); the per-layer
``weights`` and ``biases`` are views into it, so one Adam update moves all
parameters at once.

Training minimizes mean-squared error with Adam, full-batch or in shuffled
mini-batches (``TrainConfig.batch_size``; the replay uses 128). The epoch
loss is taken on the whole training set at the top of every epoch, before
that epoch's updates, and training stops early once it drops below a
configurable floor. A training forward pass caches tanh(softplus(z)) of
each hidden layer for the backward pass. The full-set loss of mini-batch
mode and ``predict`` keep no cache: they run the layer chain over blocks
of ``FORWARD_BLOCK_ROWS`` rows into one output vector, so their memory is
a few block-sized buffers beyond that vector, whatever the row count.
Models serialize to a versioned plain-text format that round-trips
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    CorruptModel,
    DimMismatch,
    LengthMismatch,
    NonFiniteLoss,
    SchemaVersionMismatch,
)
from .features import FeatureBounds

MODEL_MAGIC = "tpmodel"
MODEL_VERSION = "1"


# --- activation -----------------------------------------------------------

# At z >= 20, n / (n + 2) is already 1.0 in float64; clipping there keeps
# exp from overflowing into inf / inf.
_EXP_CLIP = 20.0


def _tanh_softplus(z):
    """tanh(softplus(z)) as n / (n + 2) with e = exp(z), n = e * (e + 2)."""
    e = np.minimum(z, _EXP_CLIP, out=np.empty_like(z))
    np.exp(e, out=e)
    n = np.add(e, 2.0, out=np.empty_like(e))
    n *= e
    np.add(n, 2.0, out=e)
    return np.divide(n, e, out=e)


def mish(x):
    """x * tanh(softplus(x))."""
    x = np.asarray(x, dtype=np.float64)
    return x * _tanh_softplus(x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _mish_prime(x, t):
    """Derivative of Mish at x, given t = tanh(softplus(x))."""
    return t + x * (1.0 - t * t) * _sigmoid(x)


def mish_prime(x):
    """Analytic derivative: tanh(sp(x)) + x * sech^2(sp(x)) * sigmoid(x)."""
    x = np.asarray(x, dtype=np.float64)
    return _mish_prime(x, _tanh_softplus(x))


# --- network --------------------------------------------------------------

DEFAULT_HIDDEN = (10, 20, 15)


def _flatten(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> np.ndarray:
    """One float64 vector holding each layer's weights, then its biases."""
    return np.concatenate([p.ravel() for w, b in zip(weights, biases) for p in (w, b)],
                          dtype=np.float64)


@dataclass
class Network:
    """Layer sizes plus parameters. Construction copies the given arrays
    into one flat vector, ``params``; ``weights`` and ``biases`` are views
    into it, so writing through either changes both."""

    dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ValueError("need at least an input and an output layer")
        expect = list(zip(self.dims[:-1], self.dims[1:]))
        if len(self.weights) != len(expect) or len(self.biases) != len(expect):
            raise ValueError("parameter list length does not match dims")
        for w, b, (din, dout) in zip(self.weights, self.biases, expect):
            if w.shape != (din, dout) or b.shape != (dout,):
                raise ValueError(f"bad parameter shapes for layer {din}->{dout}")
        self.params = _flatten(self.weights, self.biases)
        self.weights, self.biases = [], []
        start = 0
        for din, dout in expect:
            self.weights.append(self.params[start : start + din * dout].reshape(din, dout))
            start += din * dout
            self.biases.append(self.params[start : start + dout])
            start += dout

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def parameter_count(self) -> int:
        return self.params.size

    def copy(self) -> "Network":
        return Network(self.dims, self.weights, self.biases)


def default_dims(input_dim: int) -> tuple[int, ...]:
    return (input_dim, *DEFAULT_HIDDEN, 1)


def xavier_init(dims: Sequence[int], rng: np.random.Generator) -> Network:
    """Uniform(-L, L) weights with L = sqrt(6 / (fan_in + fan_out)); zero biases."""
    dims = tuple(int(d) for d in dims)
    weights, biases = [], []
    for din, dout in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (din + dout))
        weights.append(rng.uniform(-limit, limit, size=(din, dout)))
        biases.append(np.zeros(dout))
    return Network(dims, weights, biases)


# Rows per block of the no-cache forward pass. The matrix products compute
# each output row from its input row alone, so blocking leaves every
# prediction bit-equal to a full-set pass.
FORWARD_BLOCK_ROWS = 4096


def _as_rows(net: Network, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``x`` as a float64 2-d batch, and whether it was a single 1-d row."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != net.input_dim:
        raise DimMismatch(x.shape[1], net.input_dim)
    return x, squeeze


def _chain(net: Network, a: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """The layer chain on a 2-d batch. With a ``cache``, appends every
    layer's input, each hidden pre-activation z and its tanh(softplus(z));
    without one, only the current layer is held."""
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w
        z += b
        if i == last:
            a = z
        elif cache is not None:
            t = _tanh_softplus(z)
            cache["pre"].append(z)
            cache["tanh_sp"].append(t)
            a = z * t
        else:
            a = _tanh_softplus(z)
            a *= z
        if cache is not None:
            cache["activations"].append(a)
    return a[:, 0]


def forward(net: Network, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Batch forward pass; returns predictions and the cache backward needs."""
    x, squeeze = _as_rows(net, x)
    cache = {"activations": [x], "pre": [], "tanh_sp": []}
    preds = _chain(net, x, cache)
    return (preds[0] if squeeze else preds), cache


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Predictions without a cache, one block of rows at a time."""
    x, squeeze = _as_rows(net, x)
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], FORWARD_BLOCK_ROWS):
        rows = slice(start, start + FORWARD_BLOCK_ROWS)
        out[rows] = _chain(net, x[rows])
    return out[0] if squeeze else out


def mse(preds: Sequence[float], labels: Sequence[float]) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape:
        raise LengthMismatch(preds.size, labels.size)
    if preds.size == 0:
        raise ValueError("mse of empty sequences is undefined")
    diff = preds - labels
    return float(diff @ diff / diff.size)


def backward(net: Network, cache: dict, labels: np.ndarray
             ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of batch-mean squared error w.r.t. every weight and bias."""
    labels = np.asarray(labels, dtype=np.float64)
    activations, pre, tanh_sp = cache["activations"], cache["pre"], cache["tanh_sp"]
    n = activations[0].shape[0]
    preds = activations[-1][:, 0]
    delta = (2.0 / n) * (preds - labels)[:, None]
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for i in reversed(range(len(net.weights))):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * _mish_prime(pre[i - 1], tanh_sp[i - 1])
    return grads_w, grads_b


# --- optimizer ------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs_max: int = 1000
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    mse_stop: float = 1e-4
    batch_size: int | None = None  # None = full batch
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.epochs_max, self.learning_rate, self.adam_beta1,
               self.adam_beta2, self.adam_eps, self.mse_stop) <= 0:
            raise ValueError("all training hyperparameters must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class AdamState:
    """First and second moments, laid out like ``Network.params``."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, net: Network) -> "AdamState":
        return cls(m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def adam_step(net: Network, grads: tuple[list[np.ndarray], list[np.ndarray]],
              state: AdamState, config: TrainConfig) -> tuple[Network, AdamState]:
    """One bias-corrected Adam update of the whole parameter vector, in place."""
    g = _flatten(*grads)
    state.step += 1
    t = state.step
    b1, b2, eps, lr = (config.adam_beta1, config.adam_beta2,
                       config.adam_eps, config.learning_rate)
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    net.params -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
    return net, state


# --- training loop --------------------------------------------------------

@dataclass
class TrainResult:
    net: Network
    epoch_mse: list[float]
    stopped_epoch: int
    reason: str  # "mse_stop" or "epochs_max"

    @property
    def final_mse(self) -> float:
        return self.epoch_mse[-1]


def train(net: Network, X: np.ndarray, y: np.ndarray, config: TrainConfig) -> TrainResult:
    """Train until the full-set MSE drops below ``mse_stop`` or epochs run out.

    The loss is evaluated on the whole training set at the top of every
    epoch, so the recorded ``epoch_mse`` sequence is comparable across
    batch modes. Raises NonFiniteLoss (with diagnostics) the moment the
    loss stops being a number.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a non-empty 2-d array")
    if y.shape != (X.shape[0],):
        raise LengthMismatch(X.shape[0], y.size)
    if not np.all(np.isfinite(y)) or y.min() < 0 or y.max() > 1:
        raise ValueError("labels must be finite and within [0, 1]")

    rng = np.random.default_rng(config.rng_seed)
    state = AdamState.zeros(net)
    epoch_mse: list[float] = []
    # divergence is detected on the loss and raised; silence the transient
    # overflow chatter that precedes it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs_max + 1):
            # mini-batch updates need no full-set cache
            if config.batch_size is None:
                preds, cache = forward(net, X)
            else:
                preds = predict(net, X)
            loss = mse(preds, y)
            if not np.isfinite(loss):
                raise NonFiniteLoss(
                    f"epoch {epoch}: loss={loss}; max |param| = "
                    f"{max(float(np.abs(w).max()) for w in net.weights)}"
                )
            epoch_mse.append(loss)
            if loss < config.mse_stop:
                return TrainResult(net, epoch_mse, epoch, "mse_stop")
            if config.batch_size is None:
                adam_step(net, backward(net, cache, y), state, config)
            else:
                order = rng.permutation(X.shape[0])
                for start in range(0, len(order), config.batch_size):
                    idx = order[start : start + config.batch_size]
                    _, bcache = forward(net, X[idx])
                    adam_step(net, backward(net, bcache, y[idx]), state, config)
    return TrainResult(net, epoch_mse, config.epochs_max, "epochs_max")


# --- serialization --------------------------------------------------------

@dataclass
class SavedModel:
    net: Network
    bounds: FeatureBounds
    weight_scheme: str = "linear"
    rng_seed: int | None = None

    @property
    def window_len(self) -> int:
        return self.net.input_dim - 4


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_ts(ts: datetime | None) -> str:
    return "none" if ts is None else ts.isoformat()  # "T" separator: no spaces


def save_model(model: SavedModel, path: str | Path) -> None:
    """Write the versioned text format; 17 significant digits round-trip
    float64 exactly."""
    net, bounds = model.net, model.bounds
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION}",
        f"seed {'none' if model.rng_seed is None else model.rng_seed}",
        f"scheme {model.weight_scheme}",
        "dims " + " ".join(str(d) for d in net.dims),
        f"duration_bounds {_fmt(bounds.duration_min)} {_fmt(bounds.duration_max)}",
        f"lastrun_bounds {_fmt_ts(bounds.lastrun_earliest)} {_fmt_ts(bounds.lastrun_latest)}",
    ]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"layer {i} weights {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(_fmt(x) for x in row) for row in w)
        lines.append(f"layer {i} biases {b.shape[0]}")
        lines.append(" ".join(_fmt(x) for x in b))
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> SavedModel:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    cursor = 0

    def next_line() -> str:
        nonlocal cursor
        if cursor >= len(lines):
            raise CorruptModel("unexpected end of model file")
        line = lines[cursor]
        cursor += 1
        return line

    head = next_line().split()
    if len(head) != 2 or head[0] != MODEL_MAGIC:
        raise CorruptModel("not a model file")
    if head[1] != MODEL_VERSION:
        raise SchemaVersionMismatch(head[1], MODEL_VERSION)
    try:
        seed_tok = _expect(next_line(), "seed", 1)[0]
        rng_seed = None if seed_tok == "none" else int(seed_tok)
        scheme = _expect(next_line(), "scheme", None)
        dims = tuple(int(d) for d in _expect(next_line(), "dims", None).split())
        dmin, dmax = (float(t) for t in _expect(next_line(), "duration_bounds", 2))
        lr_lo, lr_hi = _expect(next_line(), "lastrun_bounds", 2)
        bounds = FeatureBounds(dmin, dmax, _parse_ts(lr_lo), _parse_ts(lr_hi))
        weights, biases = [], []
        for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            wdims = _expect(next_line(), f"layer {i} weights", 2)
            if (int(wdims[0]), int(wdims[1])) != (din, dout):
                raise CorruptModel(f"layer {i} weight shape mismatch")
            rows = [_floats(next_line(), dout) for _ in range(din)]
            weights.append(np.array(rows))
            bdims = _expect(next_line(), f"layer {i} biases", 1)
            if int(bdims[0]) != dout:
                raise CorruptModel(f"layer {i} bias shape mismatch")
            biases.append(np.array(_floats(next_line(), dout)))
        if next_line().strip() != "end":
            raise CorruptModel("missing end marker")
    except (ValueError, IndexError) as exc:
        raise CorruptModel(f"malformed model file: {exc}") from None
    return SavedModel(Network(dims, weights, biases), bounds, scheme, rng_seed)


def _expect(line: str, prefix: str, n_tokens: int | None):
    if not line.startswith(prefix + " "):
        raise CorruptModel(f"expected {prefix!r} line, got {line!r}")
    rest = line[len(prefix) + 1 :].strip()
    if n_tokens is None:
        return rest
    tokens = rest.split()
    if len(tokens) != n_tokens:
        raise CorruptModel(f"expected {n_tokens} value(s) after {prefix!r}")
    return tokens


def _floats(line: str, n: int) -> list[float]:
    values = [float(t) for t in line.split()]
    if len(values) != n:
        raise CorruptModel(f"expected {n} numbers per row, got {len(values)}")
    return values


def _parse_ts(token: str) -> datetime | None:
    return None if token == "none" else datetime.fromisoformat(token)
