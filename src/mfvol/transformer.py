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

One plain-numpy forward pass serves prediction and training. It stacks
every head's query, key and value projections into one (d, 3d) matrix
per layer, runs attention as batched (n, H, T, d_k) products, and keeps
the activations that the hand-derived backward pass in
:func:`gradient` reads. The weights keep one array per head, which is
also how ``weights.json`` stores them; the stacking happens inside each
call, and the stacked gradient is split back per head. A forward over a
whole set (each epoch's training loss, and prediction) runs in blocks
of 64 windows, which bounds its working set whatever the set's size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, NumericalError

LN_EPS = 1e-5
# windows per full-set forward call of _forward: a multiple of the
# default batch of 32, so a training batch is one block
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

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


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
        if not 0 <= self.learning_rate < math.inf:
            raise InputError(f"learning_rate must be finite and at least 0, "
                             f"got {self.learning_rate}")
        if self.patience is not None and self.patience < 0:
            raise InputError(
                f"patience must be at least 0, got {self.patience}")
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


@dataclass
class TransformerModel:
    config: ModelConfig
    weights: dict[str, np.ndarray]
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


def init_weights(config: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)) for matrices;
    zero biases; unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for name, shape in weight_shapes(config).items():
        if name.endswith(".gain"):
            weights[name] = np.ones(shape)
        elif len(shape) == 1:
            weights[name] = np.zeros(shape)
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            weights[name] = rng.uniform(-limit, limit, size=shape)
    return weights


def _stacked_qkv(weights: Mapping[str, np.ndarray], layer: int,
                 n_heads: int) -> np.ndarray:
    """One (d, 3d) matrix: every head's W_q, then every W_k, then W_v."""
    return np.concatenate(
        [weights[f"layer{layer}.head{j}.{w}"]
         for w in ("wq", "wk", "wv") for j in range(n_heads)], axis=1)


# ----------------------------------------------------------------------
# Forward pass
# ----------------------------------------------------------------------

def _softplus(x: np.ndarray):
    """The smooth ramp ln(1 + e^x) and e^-|x|, from which the backward
    forms its derivative without a second exponential."""
    e = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(e), e


def _softplus_slope(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """d/dx ln(1 + e^x) = 1 / (1 + e^-x), given e = e^-|x|."""
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept as a trailing axis of length one.

    A matrix-vector product: numpy's own reduction runs one short inner
    loop per row, which is several times slower on rows this short.
    """
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.ones(n)).reshape(x.shape[:-1] + (1,))


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalized ``x`` and the (x_hat, 1/sigma) pair its backward needs."""
    d = x.shape[-1]
    centered = x - _row_sum(x) / d
    inv = 1.0 / np.sqrt(_row_sum(centered * centered) / d + LN_EPS)
    xhat = centered * inv
    return xhat * gain + bias, (xhat, inv)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by each row's maximum."""
    top = scores[..., 0]
    for j in range(1, scores.shape[-1]):
        top = np.maximum(top, scores[..., j])
    e = np.exp(scores - top[..., None])
    return e / _row_sum(e)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """softmax(Q K^T / sqrt(d_k)) V over the last two axes, and the
    softmax weights."""
    probs = _softmax((q @ np.swapaxes(k, -1, -2))
                     * (1.0 / math.sqrt(q.shape[-1])))
    return probs @ v, probs


def _self_attention(x: np.ndarray, wqkv: np.ndarray, n_heads: int):
    """Multi-head self-attention of (n, T, d) blocks through one stacked
    projection; returns the concatenated heads (n, T, H d_k) and the
    (q, k, v, probs) each of shape (n, H, T, .) for the backward."""
    n, T, d = x.shape
    dk = wqkv.shape[1] // (3 * n_heads)
    q, k, v = (x.reshape(n * T, d) @ wqkv).reshape(
        n, T, 3, n_heads, dk).transpose(2, 0, 3, 1, 4)
    out, probs = _attend(q, k, v)
    heads = out.transpose(0, 2, 1, 3).reshape(n, T, n_heads * dk)
    return heads, (q, k, v, probs)


def _forward(weights: Mapping[str, np.ndarray], config: ModelConfig,
             x: np.ndarray):
    """(n, T, F) -> (n,) outputs and the activations the backward reads."""
    n, T, F = x.shape
    d = config.d_model
    h = (x.reshape(n * T, F) @ weights["embed.w"]
         + weights["embed.b"]).reshape(n, T, d)
    layers = []
    for i in range(config.n_layers):
        p = f"layer{i}."
        normed1, ln1 = _layer_norm(h, weights[p + "ln1.gain"],
                                   weights[p + "ln1.bias"])
        wqkv = _stacked_qkv(weights, i, config.n_heads)
        heads, attn = _self_attention(normed1, wqkv, config.n_heads)
        h = h + (heads.reshape(n * T, d)
                 @ weights[p + "attn.wo"]).reshape(n, T, d)
        normed2, ln2 = _layer_norm(h, weights[p + "ln2.gain"],
                                   weights[p + "ln2.bias"])
        pre = normed2.reshape(n * T, d) @ weights[p + "ff1.w"] \
            + weights[p + "ff1.b"]
        ff, e_ff = _softplus(pre)
        h = h + (ff @ weights[p + "ff2.w"]
                 + weights[p + "ff2.b"]).reshape(n, T, d)
        layers.append((normed1, ln1, wqkv, heads, attn, normed2, ln2, pre,
                       ff, e_ff))
    h, ln_final = _layer_norm(h, weights["final_ln.gain"],
                              weights["final_ln.bias"])
    pooled = h.sum(axis=1) / T
    pre_head = pooled @ weights["mlp1.w"] + weights["mlp1.b"]
    hidden, e_head = _softplus(pre_head)
    out = hidden @ weights["mlp2.w"] + weights["mlp2.b"]
    return out[:, 0], (layers, ln_final, pooled, pre_head, hidden, e_head)


# ----------------------------------------------------------------------
# Backward pass
# ----------------------------------------------------------------------

def _layer_norm_back(dy: np.ndarray, gain: np.ndarray, cache):
    """(d input, d gain, d bias) of :func:`_layer_norm` from d output."""
    xhat, inv = cache
    dxhat = dy * gain
    d = dy.shape[-1]
    dx = inv * (dxhat - _row_sum(dxhat) / d
                - xhat * (_row_sum(dxhat * xhat) / d))
    return (dx, (dy * xhat).reshape(-1, d).sum(axis=0),
            dy.reshape(-1, d).sum(axis=0))


def _backward(weights: Mapping[str, np.ndarray], config: ModelConfig,
              x: np.ndarray, cache, dout: np.ndarray
              ) -> dict[str, np.ndarray]:
    """Gradient of every weight array given d loss / d output (n,)."""
    layers, ln_final, pooled, pre_head, hidden, e_head = cache
    n, T, F = x.shape
    d, H, dk = config.d_model, config.n_heads, config.d_head
    grads: dict[str, np.ndarray] = {}

    grads["mlp2.w"] = hidden.T @ dout[:, None]
    grads["mlp2.b"] = np.sum(dout, keepdims=True)
    dpre = np.outer(dout, weights["mlp2.w"][:, 0]) \
        * _softplus_slope(pre_head, e_head)
    grads["mlp1.w"] = pooled.T @ dpre
    grads["mlp1.b"] = dpre.sum(axis=0)
    dpooled = np.broadcast_to((dpre @ weights["mlp1.w"].T)[:, None, :] / T,
                              (n, T, d))
    dh, grads["final_ln.gain"], grads["final_ln.bias"] = _layer_norm_back(
        dpooled, weights["final_ln.gain"], ln_final)

    scale = 1.0 / math.sqrt(dk)
    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        (normed1, ln1, wqkv, heads, (q, k, v, probs), normed2, ln2, pre,
         ff, e_ff) = layers[i]
        # feed-forward block
        dh2 = dh.reshape(n * T, d)
        grads[p + "ff2.w"] = ff.T @ dh2
        grads[p + "ff2.b"] = dh2.sum(axis=0)
        dpre = (dh2 @ weights[p + "ff2.w"].T) * _softplus_slope(pre, e_ff)
        grads[p + "ff1.w"] = normed2.reshape(n * T, d).T @ dpre
        grads[p + "ff1.b"] = dpre.sum(axis=0)
        dx, grads[p + "ln2.gain"], grads[p + "ln2.bias"] = _layer_norm_back(
            (dpre @ weights[p + "ff1.w"].T).reshape(n, T, d),
            weights[p + "ln2.gain"], ln2)
        dh = dh + dx
        # attention block
        dh2 = dh.reshape(n * T, d)
        grads[p + "attn.wo"] = heads.reshape(n * T, d).T @ dh2
        dheads = (dh2 @ weights[p + "attn.wo"].T).reshape(
            n, T, H, dk).transpose(0, 2, 1, 3)
        dprobs = dheads @ np.swapaxes(v, -1, -2)
        dv = np.swapaxes(probs, -1, -2) @ dheads
        dscores = probs * (dprobs - _row_sum(dprobs * probs)) * scale
        dqkv = np.empty((n, T, 3, H, dk))
        by_head = dqkv.transpose(2, 0, 3, 1, 4)
        by_head[0] = dscores @ k
        by_head[1] = np.swapaxes(dscores, -1, -2) @ q
        by_head[2] = dv
        dqkv = dqkv.reshape(n * T, 3 * d)
        dwqkv = normed1.reshape(n * T, d).T @ dqkv
        for s, w in enumerate(("wq", "wk", "wv")):
            for j in range(H):
                lo = s * d + j * dk
                grads[f"{p}head{j}.{w}"] = dwqkv[:, lo:lo + dk]
        dx, grads[p + "ln1.gain"], grads[p + "ln1.bias"] = _layer_norm_back(
            (dqkv @ wqkv.T).reshape(n, T, d), weights[p + "ln1.gain"], ln1)
        dh = dh + dx

    dh2 = dh.reshape(n * T, d)
    grads["embed.w"] = x.reshape(n * T, F).T @ dh2
    grads["embed.b"] = dh2.sum(axis=0)
    return grads


# ----------------------------------------------------------------------
# Public numeric operations
# ----------------------------------------------------------------------

def forward_batch(x: np.ndarray, weights: Mapping[str, np.ndarray],
                  config: ModelConfig) -> np.ndarray:
    """(..., T, F) -> (...,) predictions without building gradients.

    The windows go through :func:`_forward` in consecutive blocks of
    :data:`_BLOCK`, so the activations it keeps for the backward never
    span more than one block.
    """
    x = np.asarray(x, dtype=float)
    windows = x.reshape((-1,) + x.shape[-2:])
    out = np.empty(len(windows))
    for lo in range(0, len(windows), _BLOCK):
        out[lo:lo + _BLOCK] = _forward(weights, config,
                                       windows[lo:lo + _BLOCK])[0]
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
             x: np.ndarray, y: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Exact batch-MSE gradient with respect to every weight array."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 3 or x.shape[0] != y.shape[0]:
        raise InputError(
            f"expected (n, T, F) and (n,), got {x.shape}, {y.shape}")
    if len(y) == 0:
        raise InputError("empty batch")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("batch contains non-finite values")
    pred, cache = _forward(weights, config, x)
    err = pred - y
    grads = _backward(weights, config, x, cache, (2.0 / len(y)) * err)
    grads = {name: grads[name] for name in weights}
    # one pass over every entry; the per-array scan only names the culprit
    if not np.isfinite(np.concatenate([g.ravel() for g in grads.values()])
                       ).all():
        bad = next(name for name, g in grads.items()
                   if not np.isfinite(g).all())
        raise NumericalError(f"non-finite gradient for {bad!r}")
    return float(np.mean(err ** 2.0)), grads


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

def train(dataset: WindowedDataset, model_config: ModelConfig | None = None,
          train_config: TrainConfig = TrainConfig()
          ) -> tuple[TransformerModel, list[float]]:
    """Fit the regressor on a windowed dataset.

    Features and target are z-scored with statistics of this dataset;
    the statistics ride along in the returned model so predictions are
    reported on the original scale. Batches walk the samples in
    chronological order unless ``shuffle`` asks for a seeded
    permutation per epoch. The loss history holds the full-dataset
    normalized MSE after each epoch.
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

    weights = init_weights(model_config, train_config.seed)
    rng = np.random.default_rng(train_config.seed)
    n = len(dataset)
    lr = train_config.learning_rate
    adam_m = {k: np.zeros_like(v) for k, v in weights.items()} \
        if train_config.optimizer == "adam" else None
    adam_v = {k: np.zeros_like(v) for k, v in weights.items()} \
        if train_config.optimizer == "adam" else None
    adam_t = 0

    history: list[float] = []
    best = math.inf
    stale = 0
    for _epoch in range(train_config.max_epochs):
        order = rng.permutation(n) if train_config.shuffle else np.arange(n)
        for lo in range(0, n, train_config.batch_size):
            batch = order[lo:lo + train_config.batch_size]
            _, grads = gradient(weights, model_config, Xn[batch], yn[batch])
            if train_config.optimizer == "adam":
                adam_t += 1
                for k in weights:
                    adam_m[k] = 0.9 * adam_m[k] + 0.1 * grads[k]
                    adam_v[k] = 0.999 * adam_v[k] + 0.001 * grads[k] ** 2
                    m_hat = adam_m[k] / (1 - 0.9 ** adam_t)
                    v_hat = adam_v[k] / (1 - 0.999 ** adam_t)
                    weights[k] = weights[k] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            else:
                for k in weights:
                    weights[k] = weights[k] - lr * grads[k]
        epoch_loss = loss_mse(forward_batch(Xn, weights, model_config), yn)
        if not math.isfinite(epoch_loss):
            raise NumericalError(
                f"training loss became {epoch_loss} in epoch {_epoch}")
        history.append(epoch_loss)
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
    return model, history


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
    doc = {
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
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> TransformerModel:
    """Read a model written by :func:`save_model`; a file that is not
    one raises InputError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        config = ModelConfig(**doc["model_config"])
        model = TransformerModel(
            config=config,
            weights={name: np.array(spec["data"], dtype=float)
                     .reshape(spec["shape"])
                     for name, spec in doc["weights"].items()},
            feature_names=list(doc["feature_names"]),
            feature_mean=np.array(doc["feature_mean"], dtype=float),
            feature_std=np.array(doc["feature_std"], dtype=float),
            target_mean=float(doc["target_mean"]),
            target_std=float(doc["target_std"]),
            train_config=TrainConfig(**doc["train_config"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a model file ({exc!r})") from None
    n = (config.n_features,)
    shapes = {name: w.shape for name, w in model.weights.items()}
    if shapes != weight_shapes(config) or model.feature_mean.shape != n \
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
    return model
