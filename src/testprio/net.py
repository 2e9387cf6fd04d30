"""Small fully-connected regression network, implemented directly on numpy.

Hidden layers use the Mish activation x * tanh(softplus(x)); the single
output is linear. tanh(softplus(x)) is computed with one ``exp``: for
e = exp(x) and n = e * (e + 2) it equals n / (n + 2). Mish's derivative
reuses that exp: sigmoid(x) = e / (1 + e).

Every weight and bias lives in one flat float64 vector
(``Network.params``). Each layer stores its (din, dout) weights in C order
followed by its dout biases, which is exactly the (din + 1, dout) block
[W; b]; ``blocks``, ``weights`` and ``biases`` are views into the vector.
Each layer input carries a ones column, so a layer is one matrix product,
z = [a | 1] @ [W; b], and the backward product [a | 1].T @ delta writes
the layer's weight and bias gradients together, straight into a gradient
vector laid out like ``params``. One Adam update then moves all
parameters at once. The layer buffers are feature-major (one column per
row of X, so the forward computes [W; b].T @ [a | 1].T): every
elementwise pass then runs over contiguous rows as wide as the batch,
where a row-major [a | 1] would make it stride over 10-20 values at a
time.

Training minimizes mean-squared error with Adam in shuffled mini-batches
of ``TrainConfig.batch_size`` rows (default 128); a batch size of n or
more takes the whole set as one batch. The training set is a dense
(n, d) float64 matrix or ``features.CompactFeatures``, which holds the
integer features in one small-integer block and the two real ones in a
float64 block (28 bytes per 14-input vector instead of 112); both train
to the same bits, because every input block the network sees holds the
same values either way. ``train`` allocates the buffers of one step
once, sized for one batch (and once more for the last, shorter batch of
an epoch, if there is one): the layer inputs, and each layer's z and
delta and each hidden layer's exp(min(z, 20)), tanh(softplus(z)) and
scratch for the backward pass. Each of those five kinds is one stacked
array whose row blocks are the layers, so the backward takes every
hidden layer's Mish derivative in one pass; the layer views and
transposed weight blocks are bound once per workspace. The shuffled rows
of up to ``FORWARD_BLOCK_ROWS // batch`` whole batches are gathered at
once into one (batches, d + 1, batch) buffer, which costs a few numpy
calls per gather instead of a few per step, and each step binds its
batch's contiguous block as the first layer input. Adam's two moments
are the rows of one (2, P) array, decayed by one product and fed by one
sum. The epoch loss is taken on the whole training set at the top of
every epoch, before that epoch's updates, by the blocked forward pass
that ``predict`` runs, but in float32: each block's input is filled from
the training set, the layer blocks are cast once per pass, and the
float32 predictions land in a float64 output vector, where the residual
and its mean square are formed in float64. Training stops early once
that loss drops below a configurable floor. Nothing else reads the loss,
and no update or ``predict`` runs in float32, so the weights and the
stop epoch are those of a float64 loss unless a loss lands within
float32 rounding of the floor; ``epoch_mse`` differs from the float64
loss in its 7th-9th significant digit, and a loss pass whose outputs
overflow float32 (about 3.4e38) raises ``NonFiniteLoss``. ``predict``
runs the layer chain in float64 without a cache, over blocks of
``FORWARD_BLOCK_ROWS`` rows into one output vector, so its memory is a
few block-sized buffers beyond that vector, whatever the row count.

Models serialize to a versioned plain-text format that round-trips
bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime
from functools import partial
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
from .features import DERIVED_FEATURES, CompactFeatures, FeatureBounds

MODEL_MAGIC = "tpmodel"
MODEL_VERSION = "1"


# --- activation -----------------------------------------------------------

# At z >= 20, n / (n + 2) is already 1.0 in float64 and in float32. Clipping
# there keeps exp from overflowing into inf / inf, and keeps the float32
# loss pass finite: n is then about 2.4e17, far below float32's 3.4e38.
_EXP_CLIP = 20.0


def _tanh_softplus_into(z, e, t, s):
    """t = tanh(softplus(z)) as n / (n + 2) with e = exp(z), n = e * (e + 2),
    leaving e = exp(min(z, clip)) for the derivative. ``s`` takes n + 2
    and may be ``e`` when e is not needed afterwards."""
    np.minimum(z, _EXP_CLIP, out=e)
    np.exp(e, out=e)
    np.add(e, 2.0, out=t)
    t *= e
    np.add(t, 2.0, out=s)
    return np.divide(t, s, out=t)


def _tanh_softplus(z):
    e = np.empty_like(z)
    return _tanh_softplus_into(z, e, np.empty_like(z), e)


def mish(x):
    """x * tanh(softplus(x))."""
    x = np.asarray(x, dtype=np.float64)
    return x * _tanh_softplus(x)


def _mish_prime_into(z, e, t, s, out):
    """out = t + z * (1 - t * t) * sigmoid(z), with sigmoid = e / (1 + e)
    from the forward's e and t; ``s`` is scratch."""
    np.add(e, 1.0, out=s)
    np.divide(e, s, out=s)
    np.multiply(t, t, out=out)
    np.subtract(1.0, out, out=out)
    out *= z
    out *= s
    out += t
    return out


def mish_prime(x):
    """Analytic derivative: tanh(sp(x)) + x * sech^2(sp(x)) * sigmoid(x),
    computed as in training."""
    x = np.asarray(x, dtype=np.float64)
    e, t, s, out = (np.empty_like(x) for _ in range(4))
    _tanh_softplus_into(x, e, t, s)
    return _mish_prime_into(x, e, t, s, out)


# --- network --------------------------------------------------------------

DEFAULT_HIDDEN = (10, 20, 15)


def _flatten(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> np.ndarray:
    """One float64 vector holding each layer's weights, then its biases."""
    return np.concatenate([p.ravel() for w, b in zip(weights, biases) for p in (w, b)],
                          dtype=np.float64)


def _layer_blocks(flat: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """The (din + 1, dout) block [W; b] of each layer, as views of ``flat``."""
    blocks, start = [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        size = (din + 1) * dout
        blocks.append(flat[start : start + size].reshape(din + 1, dout))
        start += size
    return blocks


@dataclass
class Network:
    """Layer sizes plus parameters. Construction copies the given arrays
    into one flat vector, ``params``; ``blocks`` ([W; b] per layer),
    ``weights`` and ``biases`` are views into it, so writing through any
    of them changes all."""

    dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    params: np.ndarray = field(init=False, repr=False, compare=False)
    blocks: list[np.ndarray] = field(init=False, repr=False, compare=False)

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
        self.blocks = _layer_blocks(self.params, self.dims)
        self.weights = [block[:-1] for block in self.blocks]
        self.biases = [block[-1] for block in self.blocks]

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


# --- layer chain ----------------------------------------------------------

# Rows per block of the no-cache forward pass. The epoch loss and
# ``predict`` share this one fixed blocking. Other blockings may round
# differently: on a 203,923-row set, one full-set forward differed from
# ``predict`` in its last 3 rows, by up to 8.3e-17.
FORWARD_BLOCK_ROWS = 1024


def _as_rows(net: Network, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``x`` as a float64 2-d batch, and whether it was a single 1-d row."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != net.input_dim:
        raise DimMismatch(x.shape[1], net.input_dim)
    return x, squeeze


def _with_ones(width: int, cols: int, dtype=np.float64) -> np.ndarray:
    """An uninitialized (width + 1, cols) array whose last row is ones."""
    a = np.empty((width + 1, cols), dtype)
    a[width] = 1.0
    return a


class _Workspace:
    """Buffers of one training step of ``net`` over ``rows`` rows of X.

    Every buffer is feature-major: column j belongs to row j of the batch,
    so an elementwise pass over a layer runs over whole contiguous rows.
    ``inputs[i]`` is layer i's input [a | 1] transposed, its last row
    ones, and ``z[i] = blocks[i].T @ inputs[i]`` is the transposed
    [a | 1] @ [W; b]; the forward writes each hidden activation into
    ``acts[i]``, the leading rows of the next input. ``exp`` and
    ``tanh_sp`` keep each hidden layer's exp(min(z, clip)) and
    tanh(softplus(z)). ``delta[i]`` is the loss gradient w.r.t. z of layer
    i; the output layer's holds the residual preds - labels until the
    backward pass scales it. Each of z, exp, tanh_sp, scratch and delta
    is the row blocks of one (units, rows) array, hidden layers first;
    ``hidden`` holds those arrays' hidden rows, for one Mish-derivative
    call. Views and transposed blocks are bound once per workspace.
    ``first``, if given, is the buffer of ``inputs[0]``; ``train`` rebinds
    ``inputs[0]`` to each step's block of its gather buffer."""

    def __init__(self, net: Network, rows: int, first: np.ndarray | None = None):
        self.net, self.rows = net, rows
        if first is None:
            first = _with_ones(net.input_dim, rows)
        self.inputs = [first, *(_with_ones(d, rows) for d in net.dims[1:-1])]
        self.stacked = np.empty((5, sum(net.dims[1:]), rows))
        edges = np.cumsum((0, *net.dims[1:])).tolist()
        self.z, self.exp, self.tanh_sp, self.scratch, self.delta = (
            [a[lo:hi] for lo, hi in zip(edges, edges[1:])] for a in self.stacked)
        self.hidden = tuple(self.stacked[:, :edges[-2]])  # _mish_prime_into's arguments
        self.acts = [a[:-1] for a in self.inputs[1:]]
        self.preds, self.residual = self.z[-1][0], self.delta[-1][0]
        self.blocks_t = [block.T for block in net.blocks]


def _forward(ws: _Workspace) -> np.ndarray:
    """The layer chain over the batch in ``ws.inputs[0]``, keeping what the
    backward pass needs; returns the predictions."""
    for i, block_t in enumerate(ws.blocks_t):
        z = np.dot(block_t, ws.inputs[i], out=ws.z[i])
        if i < len(ws.acts):
            a = ws.acts[i]
            np.multiply(z, _tanh_softplus_into(z, ws.exp[i], ws.tanh_sp[i], a), out=a)
    return ws.preds


def _residual(ws: _Workspace, labels: np.ndarray) -> np.ndarray:
    """preds - labels, kept in the output layer's delta."""
    return np.subtract(ws.preds, labels, out=ws.residual)


def _backward(ws: _Workspace, grad_blocks: list[np.ndarray]) -> None:
    """Gradients of the batch-mean squared error, from the residual
    ``_residual`` left, written into ``grad_blocks``: each layer's block
    is [a | 1].T @ delta. Every hidden delta first takes its layer's Mish
    derivative, in one pass, and is then scaled by W @ delta from above."""
    delta = ws.delta[-1]
    delta *= 2.0 / ws.rows
    _mish_prime_into(*ws.hidden)
    weights = ws.net.weights
    for i in reversed(range(len(grad_blocks))):
        np.dot(ws.inputs[i], delta.T, out=grad_blocks[i])
        if i > 0:
            s, prev = ws.scratch[i - 1], ws.delta[i - 1]
            np.dot(weights[i], delta, out=s)
            prev *= s
            delta = prev


def forward(net: Network, x: np.ndarray) -> tuple[np.ndarray, _Workspace]:
    """Batch forward pass; returns predictions and the cache backward needs."""
    x, squeeze = _as_rows(net, x)
    cache = _Workspace(net, x.shape[0])
    cache.inputs[0][:-1] = x.T
    preds = _forward(cache)
    return (preds[0] if squeeze else preds), cache


def backward(net: Network, cache: _Workspace, labels: np.ndarray
             ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of batch-mean squared error w.r.t. every weight and bias,
    through the weights of the net ``cache`` was made for by ``forward``."""
    grad_blocks = _layer_blocks(np.empty_like(net.params), net.dims)
    _residual(cache, np.asarray(labels, dtype=np.float64))
    _backward(cache, grad_blocks)
    return [g[:-1] for g in grad_blocks], [g[-1] for g in grad_blocks]


def _fill_dense(X: np.ndarray, rows, out: np.ndarray) -> None:
    """``CompactFeatures.fill`` for a dense (n, d) matrix ``X``."""
    out[...] = X[rows].swapaxes(-1, -2)


def _predict_rows(net: Network, n: int, fill, dtype=np.float64) -> np.ndarray:
    """Predictions for n rows, one block of rows at a time, without a
    cache: ``fill(rows, out)`` writes a slice of rows feature-major into a
    block's input, and each layer's buffers are dropped once the next
    layer's input is built. The layer blocks are cast to ``dtype`` once
    per call and every block runs in it; the predictions are written into
    a float64 vector whatever the dtype."""
    out = np.empty(n)
    blocks = [block.astype(dtype, copy=False) for block in net.blocks]
    for start in range(0, n, FORWARD_BLOCK_ROWS):
        stop = min(start + FORWARD_BLOCK_ROWS, n)
        a = _with_ones(net.input_dim, stop - start, dtype)
        fill(slice(start, stop), a[:-1])
        for block in blocks[:-1]:
            z = block.T @ a
            a = _with_ones(*z.shape, dtype)
            np.multiply(z, _tanh_softplus(z), out=a[:-1])
        out[start:stop] = (blocks[-1].T @ a)[0]
    return out


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Predictions without a cache, one block of rows at a time."""
    x, squeeze = _as_rows(net, x)
    out = _predict_rows(net, len(x), partial(_fill_dense, x))
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


# --- optimizer ------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs_max: int = 1000
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    mse_stop: float = 1e-4
    batch_size: int = 128
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.epochs_max, self.learning_rate, self.adam_beta1,
               self.adam_beta2, self.adam_eps, self.mse_stop) <= 0:
            raise ValueError("all training hyperparameters must be positive")
        if not isinstance(self.batch_size, (int, np.integer)) or self.batch_size < 1:
            raise ValueError(f"batch_size must be an integer >= 1, got {self.batch_size!r}")


@dataclass
class AdamState:
    """First and second moments, the two rows of one (2, P) array, each
    laid out like ``Network.params``."""

    moments: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, net: Network) -> "AdamState":
        return cls(np.zeros((2, net.params.size)))


def _adam_rates(config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (2, 1) columns (b1, b2) and (1 - b1, 1 - b2) that decay and feed
    the two rows of ``AdamState.moments``."""
    decay = np.array([[config.adam_beta1], [config.adam_beta2]])
    return decay, 1.0 - decay


def _adam(params: np.ndarray, g: np.ndarray, state: AdamState, config: TrainConfig,
          scratch: np.ndarray, rates: tuple[np.ndarray, np.ndarray]) -> None:
    """One bias-corrected Adam update of ``params`` in place, through the
    (2, P) ``scratch``; ``rates`` is ``_adam_rates(config)``. One product
    decays both moments and one sum feeds them (1 - b1) g and (1 - b2) g g."""
    state.step += 1
    t = state.step
    corr1 = 1.0 - config.adam_beta1 ** t
    corr2 = 1.0 - config.adam_beta2 ** t
    decay, gain = rates
    s, u = scratch
    m, v = state.moments
    state.moments *= decay
    np.multiply(g, gain, out=scratch)
    u *= g
    state.moments += scratch
    np.divide(v, corr2, out=s)
    np.sqrt(s, out=s)
    s += config.adam_eps
    np.divide(m, corr1, out=u)
    u *= config.learning_rate
    u /= s
    params -= u


def adam_step(net: Network, grads: tuple[list[np.ndarray], list[np.ndarray]],
              state: AdamState, config: TrainConfig) -> tuple[Network, AdamState]:
    """One bias-corrected Adam update of the whole parameter vector, in place."""
    _adam(net.params, _flatten(*grads), state, config, np.empty((2, net.params.size)),
          _adam_rates(config))
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


def train(net: Network, X: np.ndarray | CompactFeatures, y: np.ndarray,
          config: TrainConfig) -> TrainResult:
    """Train until the full-set MSE drops below ``mse_stop`` or epochs run out.

    ``X`` is a dense (n, d) matrix or the same vectors as CompactFeatures;
    both train to the same bits. The loss is evaluated on the whole
    training set at the top of every epoch, so the recorded ``epoch_mse``
    sequence is comparable across batch sizes. Its forward pass runs in
    float32 (the residual and its mean square in float64); every update
    is float64. Raises ValueError, before any update, on a non-finite
    feature or a label outside [0, 1], and NonFiniteLoss (with
    diagnostics) the moment the loss stops being a number, which includes
    a loss pass whose outputs overflow float32.
    """
    if isinstance(X, CompactFeatures):
        real, fill = X.real, X.fill  # only the float block can hold a non-finite value
    else:
        X = real = np.asarray(X, dtype=np.float64)
        fill = partial(_fill_dense, X)
    y = np.asarray(y, dtype=np.float64)
    if real.ndim != 2 or len(real) == 0:
        raise ValueError("training set must be a non-empty 2-d array")
    n, width = X.shape
    if width != net.input_dim:
        raise DimMismatch(width, net.input_dim)
    if y.shape != (n,):
        raise LengthMismatch(n, y.size)
    # min and max propagate NaN, so these two reductions see every bad value
    if not (0.0 <= y.min() and y.max() <= 1.0):
        raise ValueError("labels must be finite and within [0, 1]")
    if not (np.isfinite(real.min()) and np.isfinite(real.max())):
        bad = int(np.flatnonzero(~np.isfinite(real).all(axis=1))[0])
        raise ValueError(f"features must be finite; row {bad} is not")

    rows = min(config.batch_size, n)
    full = n // rows  # full batches per epoch
    # The inputs and labels of up to FORWARD_BLOCK_ROWS rows of full batches
    # are gathered at once; each step binds its batch's contiguous block.
    group = min(full, max(1, FORWARD_BLOCK_ROWS // rows))
    inputs, labels = np.empty((group, width + 1, rows)), np.empty((group, rows))
    inputs[:, width] = 1.0
    steps = list(zip(inputs, labels))
    ws = _Workspace(net, rows, inputs[0])
    last = _Workspace(net, n - full * rows) if n > full * rows else None
    rng = np.random.default_rng(config.rng_seed)
    state = AdamState.zeros(net)
    grad = np.empty_like(net.params)  # laid out like params; grad_blocks are its layer views
    grad_blocks, adam_scratch = _layer_blocks(grad, net.dims), np.empty((2, grad.size))
    rates = _adam_rates(config)

    def step(batch: _Workspace, batch_labels: np.ndarray) -> None:
        _forward(batch)
        _residual(batch, batch_labels)
        _backward(batch, grad_blocks)
        _adam(net.params, grad, state, config, adam_scratch, rates)

    epoch_mse: list[float] = []
    # divergence is detected on the loss and raised; silence the transient
    # overflow chatter that precedes it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs_max + 1):
            # mse(predict(net, X), y) in place, the forward in float32
            residual = _predict_rows(net, n, fill, np.float32)
            residual -= y
            loss = float(residual @ residual / n)
            del residual
            if not np.isfinite(loss):
                raise NonFiniteLoss(
                    f"epoch {epoch}: loss={loss}; max |param| = "
                    f"{float(np.abs(net.params).max())}"
                )
            epoch_mse.append(loss)
            if loss < config.mse_stop:
                return TrainResult(net, epoch_mse, epoch, "mse_stop")
            order = rng.permutation(n)
            for start in range(0, full * rows, group * rows):
                idx = order[start : min(start + group * rows, full * rows)].reshape(-1, rows)
                fill(idx, inputs[:len(idx), :-1])
                np.take(y, idx, out=labels[:len(idx)])
                for batch_input, batch_labels in steps[:len(idx)]:
                    ws.inputs[0] = batch_input
                    step(ws, batch_labels)
            if last is not None:
                idx = order[full * rows:]
                fill(idx, last.inputs[0][:-1])
                step(last, y[idx])
            del order, idx  # freed before the next loss pass allocates its n-sized vector
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
        return self.net.input_dim - DERIVED_FEATURES


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
        dmin, dmax = _floats(_expect(next_line(), "duration_bounds", None), 2)
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
    if not (len(dims) >= 2 and min(dims) >= 1 and dims[0] > DERIVED_FEATURES
            and dims[-1] == 1):
        raise CorruptModel(
            f"dims {' '.join(map(str, dims))} build no usable network: it needs an "
            f"input width of at least {DERIVED_FEATURES + 1} (a window of at least 1 "
            f"plus {DERIVED_FEATURES} derived features), hidden widths of at least 1 "
            "and one output")
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
    """The ``n`` numbers of a line. save_model writes only finite ones."""
    values = [float(t) for t in line.split()]
    if len(values) != n:
        raise CorruptModel(f"expected {n} numbers per row, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise CorruptModel(f"a number that is not finite in {line.strip()!r}")
    return values


def _parse_ts(token: str) -> datetime | None:
    return None if token == "none" else datetime.fromisoformat(token)
