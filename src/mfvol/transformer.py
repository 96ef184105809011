"""Attention-based regressor for next-day adjusted realized variance.

A small pre-norm encoder reads a window of T consecutive trading days,
each described by a handful of factor features, and regresses the
following day's adjusted realized variance:

    embed -> L x (layer norm, multi-head self-attention, residual;
                  layer norm, feed-forward, residual)
          -> closing layer norm -> mean-pool over the T positions
          -> two-layer head -> scalar

The closing norm is the usual companion of pre-norm blocks: without it
the residual stream reaches the head unnormalized and plain gradient
descent at the default step size overshoots.

Attention weights are softmax(Q K^T / sqrt(d_k)); each head carries
its own query/key/value projections and the concatenated heads pass
through a shared output projection. There is no positional encoding,
so the network is permutation-invariant across the window by
construction; the mean pool makes that explicit. The nonlinearity is
the smooth ramp ln(1 + e^x).

Training is plain mini-batch gradient descent (an adaptive variant is
available behind a flag) on mean squared error, with features and
target z-scored by training statistics.

Every weight lives in one float64 vector. The weights are still a
dict with one key per array (:class:`Weights`), which is also how
``weights.json`` stores them, but each value is a view into that
vector, and each layer's per-head query, key and value projections are
column views of one stacked (d, 3d) block. So one plain-numpy forward
pass serves prediction and training: it multiplies by the stacked
block, runs attention as batched (n, H, T, d_k) products, keeps the
activations (n T, d) matrices between the embedding and the pooling,
and keeps what the hand-derived backward pass in :func:`gradient`
reads. The backward writes every gradient into one new vector of the
same layout, so an optimizer step is a few whole-vector operations.
A plain mapping of arrays, as a caller may build one, is copied into
the layout first. A forward over a whole set (the training loss, and
prediction) runs in blocks of 64 windows, which bounds its working set
whatever the set's size. :func:`train` computes the full-set loss each
epoch where its history, ``patience`` or ``-v`` reads it, and otherwise
once after the last epoch, which keeps the divergence check on the
model it returns.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, asdict

import numpy as np

from . import tables
from .errors import InputError, NumericalError

log = logging.getLogger(__name__)

LN_EPS = 1e-5
# five-day windows per full-set forward call of _forward: a multiple of
# the default batch of 32, so a training batch is one block
_BLOCK = 64


def _require_ints(config, names: Sequence[str]) -> None:
    """TypeError unless each named field is None or exactly an int: a
    model file's json may hold ``2.0`` or ``true`` for a count."""
    for name in names:
        value = getattr(config, name)
        if value is not None and type(value) is not int:
            raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    n_features: int
    d_model: int = 12
    n_heads: int = 3
    n_layers: int = 2
    d_ff: int = 24

    def __post_init__(self):
        _require_ints(self, vars(self))     # every field is a count
        if min(self.n_features, self.d_model, self.n_heads, self.n_layers,
               self.d_ff) < 1:
            raise InputError("model dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise InputError(
                f"d_model={self.d_model} not divisible by "
                f"n_heads={self.n_heads}")
        # numpy makes no array of more bytes than an intp counts
        if 8 * self.n_weights > np.iinfo(np.intp).max:
            raise InputError("model dimensions too large for an array")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def n_weights(self) -> int:
        """The length of the one vector that holds every weight."""
        d, f = self.d_model, self.d_ff
        return self.n_layers * (4 * d * d + 2 * d * f + 5 * d + f) \
            + d * (self.n_features + d + 5) + 1


@dataclass(frozen=True)
class TrainConfig:
    window: int = 5
    learning_rate: float = 0.05
    batch_size: int = 32
    max_epochs: int = 200
    seed: int = 0
    shuffle: bool = False
    patience: int | None = None
    optimizer: str = "sgd"

    def __post_init__(self):
        _require_ints(self, ["window", "batch_size", "max_epochs", "seed",
                             "patience"])
        if self.window < 1 or self.batch_size < 1 or self.max_epochs < 1:
            raise InputError(
                "window, batch_size and max_epochs must be positive")
        # a model file may hold true or "0.5" for a number, 1 for a bool
        if type(self.learning_rate) not in (int, float) \
                or not 0 <= self.learning_rate < math.inf:
            raise InputError(f"learning_rate must be finite and at least 0, "
                             f"got {self.learning_rate}")
        if self.patience is not None and self.patience < 0:
            raise InputError(
                f"patience must be at least 0, got {self.patience}")
        if type(self.shuffle) is not bool:
            raise InputError(f"shuffle must be a bool, got {self.shuffle!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise InputError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class WindowedDataset:
    """Chronological samples: T rows of features, next row's target."""

    X: np.ndarray               # (n, T, F)
    y: np.ndarray               # (n,)
    dates: list[str]            # target dates
    feature_names: list[str]

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, part: slice) -> WindowedDataset:
        """The samples that ``part`` slices out, in order."""
        return WindowedDataset(X=self.X[part], y=self.y[part],
                               dates=self.dates[part],
                               feature_names=self.feature_names)


@dataclass
class TransformerModel:
    config: ModelConfig
    weights: Mapping[str, np.ndarray]
    feature_names: list[str]
    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float
    target_std: float
    train_config: TrainConfig


# ----------------------------------------------------------------------
# Weights
# ----------------------------------------------------------------------

def weight_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape map for every trainable array."""
    d, dk, dff = config.d_model, config.d_head, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {
        "embed.w": (config.n_features, d),
        "embed.b": (d,),
    }
    for i in range(config.n_layers):
        shapes[f"layer{i}.ln1.gain"] = (d,)
        shapes[f"layer{i}.ln1.bias"] = (d,)
        for j in range(config.n_heads):
            shapes[f"layer{i}.head{j}.wq"] = (d, dk)
            shapes[f"layer{i}.head{j}.wk"] = (d, dk)
            shapes[f"layer{i}.head{j}.wv"] = (d, dk)
        shapes[f"layer{i}.attn.wo"] = (d, d)
        shapes[f"layer{i}.ln2.gain"] = (d,)
        shapes[f"layer{i}.ln2.bias"] = (d,)
        shapes[f"layer{i}.ff1.w"] = (d, dff)
        shapes[f"layer{i}.ff1.b"] = (dff,)
        shapes[f"layer{i}.ff2.w"] = (dff, d)
        shapes[f"layer{i}.ff2.b"] = (d,)
    shapes["final_ln.gain"] = (d,)
    shapes["final_ln.bias"] = (d,)
    shapes["mlp1.w"] = (d, d)
    shapes["mlp1.b"] = (d,)
    shapes["mlp2.w"] = (d, 1)
    shapes["mlp2.b"] = (1,)
    return shapes


@functools.lru_cache(maxsize=16)
def _layout(config: ModelConfig):
    """Where each weight array of a model geometry lives in its vector:
    the key order and one (start, stop, shape, is a qkv block) slot per
    array in key order, each layer's heads as one (d, 3d) block."""
    shapes, d = weight_shapes(config), config.d_model
    slots, size = [], 0
    for name, shape in shapes.items():
        block = ".head" in name
        if block:
            if not name.endswith(".head0.wq"):
                continue
            shape = (d, 3 * d)
        slots.append((size, size + math.prod(shape), shape, block))
        size += math.prod(shape)
    return list(shapes), slots


class Weights(Mapping):
    """Every weight array of one model, as views into one float64 vector.

    ``Weights(config, vector)`` lays the arrays of ``config`` over
    ``vector`` without a copy; without a vector it allocates a new,
    uninitialized one. It reads like a dict with the keys, order and
    shapes of :func:`weight_shapes` (``dict(w)`` is a plain dict of the
    views), but no key can be added or removed, and assigning to a key
    writes into the vector, so the views and the vector always agree.
    Each layer's per-head W_q, W_k and W_v are column views of one
    (d, 3d) block, ``qkv[layer]``: every head's W_q, then every W_k,
    then every W_v. A pickle holds the config and the vector, and
    unpickling lays the views over the vector again.
    """

    __slots__ = ("config", "arrays", "vector", "qkv")

    def __init__(self, config: ModelConfig, vector: np.ndarray | None = None):
        if vector is None:
            # before the layout, whose time grows with the array count
            vector = np.empty(config.n_weights)
        names, slots = _layout(config)
        d, H, dk = config.d_model, config.n_heads, config.d_head
        values, self.qkv = [], []
        for start, stop, shape, block in slots:
            view = vector[start:stop]
            if len(shape) > 1:
                view = view.reshape(shape)
            if block:
                self.qkv.append(view)
                heads = view.reshape(d, 3 * H, dk).transpose(1, 0, 2)
                # a block's column views come W_q, W_k, W_v major; keys
                # head major
                values += [heads[s * H + j] for j in range(H)
                           for s in range(3)]
            else:
                values.append(view)
        self.arrays = dict(zip(names, values))
        self.config, self.vector = config, vector

    def __reduce__(self):
        return Weights, (self.config, self.vector)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __setitem__(self, name: str, value) -> None:
        self.arrays[name][...] = value

    def __iter__(self):
        return iter(self.arrays)

    def __len__(self) -> int:
        return len(self.arrays)


def _pack(weights: Mapping[str, np.ndarray], config: ModelConfig) -> Weights:
    """``weights`` in the one-vector layout: itself when it has it,
    else a copy with each layer's heads stacked."""
    if isinstance(weights, Weights):
        return weights
    packed = Weights(config)
    for name in packed:
        packed[name] = weights[name]
    return packed


def init_weights(config: ModelConfig, seed: int = 0) -> Weights:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)) for matrices;
    zero biases; unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    weights = Weights(config)
    for name, shape in weight_shapes(config).items():
        if name.endswith(".gain"):
            weights[name] = 1.0
        elif len(shape) == 1:
            weights[name] = 0.0
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            weights[name] = rng.uniform(-limit, limit, size=shape)
    return weights


# ----------------------------------------------------------------------
# Forward pass
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _ones(n: int) -> np.ndarray:
    """One read-only vector of n ones, shared by every row sum."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _softplus(x: np.ndarray):
    """The smooth ramp ln(1 + e^x) and e^-|x|, from which the backward
    forms its derivative without a second exponential."""
    e = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(e), e


def _softplus_slope(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """d/dx ln(1 + e^x) = 1 / (1 + e^-x), given e = e^-|x|."""
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of an (m, k) matrix, as an (m, 1) column.

    A matrix-vector product: numpy's own reduction runs one short inner
    loop per row, which is several times slower on rows this short.
    """
    return (x @ _ones(x.shape[1]))[:, None]


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalized rows of ``x`` and the (x_hat, 1/sigma) pair its
    backward needs."""
    d = x.shape[1]
    centered = x - _row_sum(x) / d
    inv = 1.0 / np.sqrt(_row_sum(centered * centered) / d + LN_EPS)
    xhat = centered * inv
    return xhat * gain + bias, (xhat, inv)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by each row's maximum."""
    rows = scores.reshape(-1, scores.shape[-1])
    top = rows[:, 0]
    for j in range(1, rows.shape[1]):
        top = np.maximum(top, rows[:, j])
    e = np.exp(rows - top[:, None])
    return (e / _row_sum(e)).reshape(scores.shape)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """softmax(Q K^T / sqrt(d_k)) V over the last two axes, and the
    softmax weights."""
    # numpy's stacked matmul is about twice as slow on a transposed view
    # as on a contiguous copy, and gives the same bits
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    probs = _softmax((q @ kt) * (1.0 / math.sqrt(q.shape[-1])))
    return probs @ v, probs


def _self_attention(x: np.ndarray, wqkv: np.ndarray, n: int, n_heads: int):
    """Multi-head self-attention of n windows, their (n T, d) rows
    through one stacked projection; returns the concatenated heads
    (n T, H d_k) and the (q, k, v, probs) each of shape (n, H, T, .)
    for the backward."""
    nT, d = x.shape
    dk = wqkv.shape[1] // (3 * n_heads)
    q, k, v = (x @ wqkv).reshape(n, nT // n, 3, n_heads, dk).transpose(
        2, 0, 3, 1, 4)
    out, probs = _attend(q, k, v)
    return out.transpose(0, 2, 1, 3).reshape(nT, d), (q, k, v, probs)


def _forward(weights: Weights, config: ModelConfig, x: np.ndarray):
    """(n, T, F) -> (n,) outputs and the activations the backward reads.

    Between the embedding and the pooling the activations stay (n T, d)
    matrices, one row per window and day.
    """
    n, T, F = x.shape
    w = weights.arrays          # a plain dict reads faster in this loop
    h = x.reshape(n * T, F) @ w["embed.w"] + w["embed.b"]
    layers = []
    for i, wqkv in enumerate(weights.qkv):
        p = f"layer{i}."
        normed1, ln1 = _layer_norm(h, w[p + "ln1.gain"], w[p + "ln1.bias"])
        heads, attn = _self_attention(normed1, wqkv, n, config.n_heads)
        h = h + heads @ w[p + "attn.wo"]
        normed2, ln2 = _layer_norm(h, w[p + "ln2.gain"], w[p + "ln2.bias"])
        pre = normed2 @ w[p + "ff1.w"] + w[p + "ff1.b"]
        ff, e_ff = _softplus(pre)
        h = h + (ff @ w[p + "ff2.w"] + w[p + "ff2.b"])
        layers.append((normed1, ln1, wqkv, heads, attn, normed2, ln2, pre,
                       ff, e_ff))
    h, ln_final = _layer_norm(h, w["final_ln.gain"], w["final_ln.bias"])
    pooled = h.reshape(n, T, -1).sum(axis=1) / T
    pre_head = pooled @ w["mlp1.w"] + w["mlp1.b"]
    hidden, e_head = _softplus(pre_head)
    out = hidden @ w["mlp2.w"] + w["mlp2.b"]
    return out[:, 0], (layers, ln_final, pooled, pre_head, hidden, e_head)


# ----------------------------------------------------------------------
# Backward pass
# ----------------------------------------------------------------------

def _layer_norm_back(dy: np.ndarray, gain: np.ndarray, cache,
                     dgain: np.ndarray, dbias: np.ndarray) -> np.ndarray:
    """d input of :func:`_layer_norm` from d output; d gain and d bias
    go into ``dgain`` and ``dbias``."""
    xhat, inv = cache
    dxhat = dy * gain
    d = dy.shape[1]
    dx = inv * (dxhat - _row_sum(dxhat) / d
                - xhat * (_row_sum(dxhat * xhat) / d))
    np.add.reduce(dy * xhat, axis=0, out=dgain)
    np.add.reduce(dy, axis=0, out=dbias)
    return dx


def _backward(weights: Weights, config: ModelConfig, x: np.ndarray, cache,
              dout: np.ndarray) -> Weights:
    """Gradient of every weight given d loss / d output (n,), in a new
    vector of the weights' layout."""
    layers, ln_final, pooled, pre_head, hidden, e_head = cache
    n, T, F = x.shape
    d, H, dk = config.d_model, config.n_heads, config.d_head
    grads = Weights(config)
    w, g = weights.arrays, grads.arrays
    mm, total = np.matmul, np.add.reduce

    mm(hidden.T, dout[:, None], out=g["mlp2.w"])
    total(dout, keepdims=True, out=g["mlp2.b"])
    dpre = dout[:, None] * w["mlp2.w"][:, 0] \
        * _softplus_slope(pre_head, e_head)
    mm(pooled.T, dpre, out=g["mlp1.w"])
    total(dpre, axis=0, out=g["mlp1.b"])
    dpooled = np.repeat((dpre @ w["mlp1.w"].T) / T, T, axis=0)
    dh = _layer_norm_back(dpooled, w["final_ln.gain"], ln_final,
                          g["final_ln.gain"], g["final_ln.bias"])

    scale = 1.0 / math.sqrt(dk)
    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        (normed1, ln1, wqkv, heads, (q, k, v, probs), normed2, ln2, pre,
         ff, e_ff) = layers[i]
        # feed-forward block
        mm(ff.T, dh, out=g[p + "ff2.w"])
        total(dh, axis=0, out=g[p + "ff2.b"])
        dpre = (dh @ w[p + "ff2.w"].T) * _softplus_slope(pre, e_ff)
        mm(normed2.T, dpre, out=g[p + "ff1.w"])
        total(dpre, axis=0, out=g[p + "ff1.b"])
        dh = dh + _layer_norm_back(dpre @ w[p + "ff1.w"].T, w[p + "ln2.gain"],
                                   ln2, g[p + "ln2.gain"], g[p + "ln2.bias"])
        # attention block
        mm(heads.T, dh, out=g[p + "attn.wo"])
        dheads = (dh @ w[p + "attn.wo"].T).reshape(
            n, T, H, dk).transpose(0, 2, 1, 3)
        # a contiguous V^T, as for K^T in _attend
        dprobs = dheads @ np.ascontiguousarray(np.swapaxes(v, -1, -2))
        dv = np.swapaxes(probs, -1, -2) @ dheads
        rows, drows = probs.reshape(-1, T), dprobs.reshape(-1, T)
        dscores = (rows * (drows - _row_sum(drows * rows))
                   * scale).reshape(probs.shape)
        dqkv = np.empty((n, T, 3, H, dk))
        by_head = dqkv.transpose(2, 0, 3, 1, 4)
        by_head[0] = dscores @ k
        by_head[1] = np.swapaxes(dscores, -1, -2) @ q
        by_head[2] = dv
        dqkv = dqkv.reshape(n * T, 3 * d)
        mm(normed1.T, dqkv, out=grads.qkv[i])
        dh = dh + _layer_norm_back(dqkv @ wqkv.T, w[p + "ln1.gain"], ln1,
                                   g[p + "ln1.gain"], g[p + "ln1.bias"])

    mm(x.reshape(n * T, F).T, dh, out=g["embed.w"])
    total(dh, axis=0, out=g["embed.b"])
    return grads


# ----------------------------------------------------------------------
# Public numeric operations
# ----------------------------------------------------------------------

def forward_batch(x: np.ndarray, weights: Mapping[str, np.ndarray],
                  config: ModelConfig) -> np.ndarray:
    """(..., T, F) -> (...,) predictions without building gradients.

    The windows go through :func:`_forward` in consecutive blocks of
    :data:`_BLOCK` windows of up to five days, and of fewer longer ones,
    so the activations it keeps for the backward never span more than
    one block and a block holds no more attention scores than
    :data:`_BLOCK` five-day windows do.
    """
    x = np.asarray(x, dtype=float)
    weights = _pack(weights, config)
    windows = x.reshape((-1,) + x.shape[-2:])
    block = max(1, _BLOCK * 25 // max(x.shape[-2], 5) ** 2)
    out = np.empty(len(windows))
    for lo in range(0, len(windows), block):
        out[lo:lo + block] = _forward(weights, config,
                                      windows[lo:lo + block])[0]
    return out.reshape(x.shape[:-2])


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise InputError(f"pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise InputError("empty prediction batch")
    return float(np.mean((pred - target) ** 2))


def gradient(weights: Mapping[str, np.ndarray], config: ModelConfig,
             x: np.ndarray, y: np.ndarray) -> tuple[float, Weights]:
    """Exact batch-MSE gradient with respect to every weight array, as
    views into a new vector of the one-vector layout."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 3 or x.shape[0] != y.shape[0]:
        raise InputError(
            f"expected (n, T, F) and (n,), got {x.shape}, {y.shape}")
    if len(y) == 0:
        raise InputError("empty batch")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InputError("batch contains non-finite values")
    weights = _pack(weights, config)
    pred, cache = _forward(weights, config, x)
    err = pred - y
    grads = _backward(weights, config, x, cache, (2.0 / len(y)) * err)
    # one pass over every entry; the per-array scan only names the culprit
    if not np.isfinite(grads.vector).all():
        bad = next(name for name, g in grads.items()
                   if not np.isfinite(g).all())
        raise NumericalError(f"non-finite gradient for {bad!r}")
    return float(err @ err) / len(y), grads


# ----------------------------------------------------------------------
# Windowing
# ----------------------------------------------------------------------

def build_windows(dates: Sequence[str], features: np.ndarray,
                  target: np.ndarray, window: int,
                  feature_names: Sequence[str]) -> WindowedDataset:
    """Slide a length-``window`` input block over consecutive rows.

    Sample i reads rows i..i+window-1 and predicts row i+window, so
    targets are strictly chronological and each row is a target at
    most once.
    """
    if window < 1:
        raise InputError(f"window must be at least 1, got {window}")
    features = np.asarray(features, dtype=float)
    target = np.asarray(target, dtype=float)
    if features.ndim != 2 or len(features) != len(target) \
            or len(features) != len(dates):
        raise InputError("features, target and dates must align row-wise")
    n = len(features) - window
    if n <= 0:
        raise InputError(
            f"{len(features)} rows cannot fill a window of {window} "
            "plus a target")
    X = np.stack([features[i:i + window] for i in range(n)])
    y = target[window:].copy()
    return WindowedDataset(X=X, y=y, dates=list(dates[window:]),
                           feature_names=list(feature_names))


# ----------------------------------------------------------------------
# Training and prediction
# ----------------------------------------------------------------------

# mallopt's parameter number for the heap trim threshold in glibc's malloc.h
_M_TRIM_THRESHOLD = -1


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc's malloc keep up to 64 MB of freed heap in the process.

    By default glibc hands the top of its heap back to the system as
    soon as 128 KB of it is free. A training step and a block of the
    full-set forward each allocate and free hundreds of KB of
    temporaries, so the next one faulted those pages back in one by
    one: about 81,000 minor page faults in a quick-start ``ablate`` of
    four groups for 10 epochs, and about 5,900 with this threshold.
    Where there is no ``mallopt`` this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def train(dataset: WindowedDataset, model_config: ModelConfig | None = None,
          train_config: TrainConfig = TrainConfig(), history: bool = True
          ) -> tuple[TransformerModel, list[float]]:
    """Fit the regressor on a windowed dataset.

    Features and target are z-scored with statistics of this dataset;
    the statistics ride along in the returned model so predictions are
    reported on the original scale. Batches walk the samples in
    chronological order unless ``shuffle`` asks for a seeded
    permutation per epoch. The returned list holds the full-dataset
    normalized MSE after each epoch. That loss is computed each epoch
    where the history, ``patience`` or an INFO-level log (``-v``) reads
    it, and otherwise once after the last epoch: with ``history=False``
    and neither of the others, the list holds the last epoch's loss
    alone. A non-finite loss raises ``NumericalError``; which losses
    are computed changes no step.
    """
    if len(dataset) == 0:
        raise InputError("no training samples")
    if not (np.all(np.isfinite(dataset.X)) and np.all(np.isfinite(dataset.y))):
        raise InputError("dataset contains non-finite values")
    if model_config is None:
        model_config = ModelConfig(n_features=dataset.X.shape[2])
    if model_config.n_features != dataset.X.shape[2]:
        raise InputError(
            f"config expects {model_config.n_features} features, dataset "
            f"has {dataset.X.shape[2]}")

    flat = dataset.X.reshape(-1, dataset.X.shape[2])
    f_mean, f_std = flat.mean(axis=0), flat.std(axis=0)
    t_mean, t_std = float(dataset.y.mean()), float(dataset.y.std())
    # the statistics that load_model requires of a model
    mean, std = np.append(f_mean, t_mean), np.append(f_std, t_std)
    names = [f"feature {n!r}" for n in dataset.feature_names] + ["target"]
    for ok, fault in ((np.isfinite(mean) & np.isfinite(std),
                       "has a non-finite mean or standard deviation"),
                      (std > 0, "is constant")):
        if not ok.all():
            raise InputError(f"{names[int(np.argmin(ok))]} {fault}")

    Xn = (dataset.X - f_mean) / f_std
    yn = (dataset.y - t_mean) / t_std

    _keep_freed_heap()
    weights = init_weights(model_config, train_config.seed)
    theta = weights.vector
    rng = np.random.default_rng(train_config.seed)
    n = len(dataset)
    lr = train_config.learning_rate
    adam = train_config.optimizer == "adam"
    if adam:
        adam_m, adam_v = np.zeros_like(theta), np.zeros_like(theta)
    adam_t = 0

    losses: list[float] = []
    best = math.inf
    stale = 0
    verbose = log.isEnabledFor(logging.INFO)
    every_epoch = history or verbose or train_config.patience is not None
    for epoch in range(train_config.max_epochs):
        if verbose:
            began = time.perf_counter()
        order = rng.permutation(n) if train_config.shuffle else None
        for lo in range(0, n, train_config.batch_size):
            hi = lo + train_config.batch_size
            batch = slice(lo, hi) if order is None else order[lo:hi]
            _, grads = gradient(weights, model_config, Xn[batch], yn[batch])
            g = grads.vector
            if adam:
                adam_t += 1
                adam_m *= 0.9
                adam_m += 0.1 * g
                adam_v *= 0.999
                adam_v += 0.001 * g ** 2
                m_hat = adam_m / (1 - 0.9 ** adam_t)
                v_hat = adam_v / (1 - 0.999 ** adam_t)
                theta = theta - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            else:
                theta = theta - lr * g
            # a new vector each step: the weights a step saw stay as they were
            weights = Weights(model_config, theta)
        if not every_epoch and epoch < train_config.max_epochs - 1:
            continue
        epoch_loss = loss_mse(forward_batch(Xn, weights, model_config), yn)
        if not math.isfinite(epoch_loss):
            raise NumericalError(
                f"training loss became {epoch_loss} in epoch {epoch + 1}")
        losses.append(epoch_loss)
        if verbose:
            log.info("epoch %d: loss %.6f, last step's gradient norm %.4g, "
                     "%.3f s", epoch + 1, epoch_loss, math.sqrt(g @ g),
                     time.perf_counter() - began)
        if train_config.patience is not None:
            if epoch_loss < best - 1e-12:
                best = epoch_loss
                stale = 0
            else:
                stale += 1
                if stale >= train_config.patience:
                    break

    model = TransformerModel(
        config=model_config,
        weights=weights,
        feature_names=list(dataset.feature_names),
        feature_mean=f_mean,
        feature_std=f_std,
        target_mean=t_mean,
        target_std=t_std,
        train_config=train_config,
    )
    return model, losses


def predict(model: TransformerModel, dataset: WindowedDataset) -> np.ndarray:
    """Predictions on the original target scale, one per sample."""
    if len(dataset) == 0:
        raise InputError("no samples to predict")
    if dataset.X.shape[2] != model.config.n_features:
        raise InputError(
            f"model expects {model.config.n_features} features, dataset "
            f"has {dataset.X.shape[2]}")
    if not np.all(np.isfinite(dataset.X)):
        raise InputError("dataset contains non-finite values")
    Xn = (dataset.X - model.feature_mean) / model.feature_std
    out = forward_batch(Xn, model.weights, model.config)
    return out * model.target_std + model.target_mean


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

def save_model(model: TransformerModel, path: str) -> None:
    tables.write_json(path, {
        "model_config": asdict(model.config),
        "train_config": asdict(model.train_config),
        "feature_names": model.feature_names,
        "feature_mean": model.feature_mean.tolist(),
        "feature_std": model.feature_std.tolist(),
        "target_mean": model.target_mean,
        "target_std": model.target_std,
        "weights": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in model.weights.items()
        },
    })


def load_model(path: str) -> TransformerModel:
    """Read a model written by :func:`save_model`; a file that is not
    one raises InputError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        config = ModelConfig(**doc["model_config"])
        names = doc["feature_names"]
        if type(names) is not list or any(type(n) is not str for n in names):
            raise TypeError("feature_names must be a list of strings")
        # json reads true as a bool and "0.5" as a str; float() takes both
        numbers = [doc["target_mean"], doc["target_std"], *doc["feature_mean"],
                   *doc["feature_std"], *(x for spec in doc["weights"].values()
                                          for x in spec["data"])]
        if not set(map(type, numbers)) <= {int, float}:
            raise TypeError("a number field holds a bool, a string or null")
        model = TransformerModel(
            config=config,
            weights={name: np.array(spec["data"], dtype=float)
                     .reshape(spec["shape"])
                     for name, spec in doc["weights"].items()},
            feature_names=names,
            feature_mean=np.array(doc["feature_mean"], dtype=float),
            feature_std=np.array(doc["feature_std"], dtype=float),
            target_mean=float(doc["target_mean"]),
            target_std=float(doc["target_std"]),
            train_config=TrainConfig(**doc["train_config"]),
        )
    # json raises RecursionError on arrays or objects nested too deep
    except (AttributeError, InputError, KeyError, RecursionError, TypeError,
            ValueError) as exc:
        raise InputError(f"{path}: not a model file ({exc!r})") from None
    n = (config.n_features,)
    shapes = {name: w.shape for name, w in model.weights.items()}
    # len(weight_shapes(config)) without building it, whose time and
    # memory grow with the counts the file claims, not with its size
    count = 8 + config.n_layers * (9 + 3 * config.n_heads)
    if len(shapes) != count or shapes != weight_shapes(config) \
            or model.feature_mean.shape != n \
            or model.feature_std.shape != n or len(model.feature_names) != n[0]:
        raise InputError(f"{path}: weights or feature statistics do not "
                         "fit the model configuration")
    stats = {"feature_mean": model.feature_mean,
             "feature_std": model.feature_std,
             "target_mean": model.target_mean,
             "target_std": model.target_std, **model.weights}
    bad = next((name for name, value in stats.items()
                if not np.isfinite(value).all()), None)
    if bad:
        raise InputError(f"{path}: non-finite value in {bad!r}")
    # train refuses a constant feature or target, so no model has one
    if not (model.feature_std > 0).all() or not model.target_std > 0:
        raise InputError(f"{path}: feature_std and target_std must be "
                         "positive")
    model.weights = _pack(model.weights, config)
    return model
