"""Independent reference implementations used to check the package.

Everything here is written as plainly as possible (explicit loops,
no shared helpers from the package under test) so that agreement
between the two routes is meaningful evidence rather than the same
formula evaluated twice.
"""

import math

import numpy as np
from scipy.optimize import minimize


# ----------------------------------------------------------------------
# Realized variance
# ----------------------------------------------------------------------

def rv_naive(day_prices: list[list[float]]) -> tuple[list[float], list[float]]:
    """Per-day (return, realized variance) from raw daily price lists.

    The first day only provides a previous close. Returns are percent
    log changes of the last price of consecutive days; RV sums squared
    percent log changes between consecutive bars within the day.
    """
    rets = []
    rvs = []
    for i in range(1, len(day_prices)):
        prev_close = day_prices[i - 1][-1]
        close = day_prices[i][-1]
        rets.append(100.0 * (math.log(close) - math.log(prev_close)))
        total = 0.0
        prices = day_prices[i]
        for j in range(1, len(prices)):
            r = 100.0 * (math.log(prices[j]) - math.log(prices[j - 1]))
            total += r * r
        rvs.append(total)
    return rets, rvs


def lambda_naive(rets: list[float], rvs: list[float]) -> float:
    num = sum(r * r for r in rets) / len(rets)
    den = sum(rvs) / len(rvs)
    return num / den


# ----------------------------------------------------------------------
# PCA via singular values (different route than eigh-on-covariance)
# ----------------------------------------------------------------------

def pca_naive(data: np.ndarray, retain: int):
    """(means, loadings, variances) through an SVD of centered data."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    means = data.mean(axis=0)
    centered = data - means
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variances = (s ** 2) / (n - 1)
    loadings = vt[:retain].T.copy()
    for j in range(retain):
        pivot = int(np.argmax(np.abs(loadings[:, j])))
        if loadings[pivot, j] < 0:
            loadings[:, j] = -loadings[:, j]
    return means, loadings, variances[:retain]


# ----------------------------------------------------------------------
# GARCH-MIDAS pieces, loop by loop
# ----------------------------------------------------------------------

def beta_weights_naive(n_lags: int, w1: float, w2: float) -> list[float]:
    if n_lags == 1:
        return [1.0]
    raw = []
    for k in range(1, n_lags + 1):
        x = k / n_lags
        raw.append((x ** (w1 - 1.0)) * ((1.0 - x) ** (w2 - 1.0)))
    total = sum(raw)
    return [r / total for r in raw]


def tau_naive(m, theta, w1, w2, X, t, n_lags, link) -> float:
    """Long-run variance of month ``t`` from its covariate lags."""
    acc = m
    for j in range(len(theta)):
        phi = beta_weights_naive(n_lags, w1[j], w2[j])
        for k in range(1, n_lags + 1):
            acc += theta[j] * phi[k - 1] * X[t - k][j]
    return math.exp(acc) if link == "log" else acc


def filter_naive(mu, alpha, beta, m, theta, w1, w2, returns, month_index,
                 X, n_lags, link):
    """(day_indices, tau, g, h) over the modeled days, pure loops."""
    days = [i for i in range(len(returns)) if month_index[i] >= n_lags]
    tau = []
    g = []
    h = []
    for pos, i in enumerate(days):
        t = month_index[i]
        tau_i = tau_naive(m, theta, w1, w2, X, t, n_lags, link)
        if pos == 0:
            g_i = 1.0
        else:
            prev = days[pos - 1]
            shock = (returns[prev] - mu) ** 2 / tau[pos - 1]
            g_i = (1.0 - alpha - beta) + alpha * shock + beta * g[pos - 1]
        tau.append(tau_i)
        g.append(g_i)
        h.append(tau_i * g_i)
    return days, tau, g, h


def loglik_naive(mu, alpha, beta, m, theta, w1, w2, returns, month_index,
                 X, n_lags, link) -> float:
    days, _, _, h = filter_naive(mu, alpha, beta, m, theta, w1, w2,
                                 returns, month_index, X, n_lags, link)
    ll = 0.0
    for pos, i in enumerate(days):
        ll -= 0.5 * (math.log(2.0 * math.pi) + math.log(h[pos])
                     + (returns[i] - mu) ** 2 / h[pos])
    return ll


def monthly_rv_naive(returns, month_index):
    n_months = max(month_index) + 1
    out = [0.0] * n_months
    for i, r in enumerate(returns):
        out[month_index[i]] += r * r
    return out


# ----------------------------------------------------------------------
# Plain GARCH(1,1), for the nested-model check
# ----------------------------------------------------------------------

def garch11_filter(mu, omega, alpha, beta, returns):
    """h_0 = omega / (1 - alpha - beta); textbook recursion after."""
    h = [omega / (1.0 - alpha - beta)]
    for i in range(1, len(returns)):
        eps = returns[i - 1] - mu
        h.append(omega + alpha * eps * eps + beta * h[i - 1])
    return h


def garch11_loglik(mu, omega, alpha, beta, returns) -> float:
    h = garch11_filter(mu, omega, alpha, beta, returns)
    ll = 0.0
    for i, r in enumerate(returns):
        ll -= 0.5 * (math.log(2.0 * math.pi) + math.log(h[i])
                     + (r - mu) ** 2 / h[i])
    return ll


def fit_garch11(returns, x0=None):
    """MLE of (mu, omega, alpha, beta) under the same h_0 convention.

    Optimizes over an unconstrained space: omega through log, the
    persistence p = alpha + beta and share alpha/p through logits.
    """
    returns = np.asarray(returns, dtype=float)

    def unpack(z):
        mu = z[0]
        omega = math.exp(z[1])
        p = 1.0 / (1.0 + math.exp(-z[2]))
        share = 1.0 / (1.0 + math.exp(-z[3]))
        return mu, omega, p * share, p * (1.0 - share)

    def neg(z):
        mu, omega, alpha, beta = unpack(z)
        try:
            return -garch11_loglik(mu, omega, alpha, beta, returns)
        except (ValueError, OverflowError, ZeroDivisionError):
            return 1e12

    if x0 is None:
        var = float(np.var(returns))
        x0 = np.array([float(np.mean(returns)),
                       math.log(var * 0.10), 1.8, -2.0])
    best = None
    for scale in (0.0, 0.3, 0.6):
        start = np.asarray(x0, dtype=float).copy()
        start[1] += scale
        start[2] -= scale
        res = minimize(neg, start, method="Nelder-Mead",
                       options={"maxiter": 4000, "maxfev": 8000,
                                "fatol": 1e-10, "xatol": 1e-10})
        if best is None or res.fun < best.fun:
            best = res
    return unpack(best.x), -best.fun


# ----------------------------------------------------------------------
# Finite differences
# ----------------------------------------------------------------------

def fd_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    flat = out.ravel()
    xf = x.ravel()
    for i in range(x.size):
        keep = xf[i]
        xf[i] = keep + eps
        up = f(x)
        xf[i] = keep - eps
        down = f(x)
        xf[i] = keep
        flat[i] = (up - down) / (2.0 * eps)
    return out


def fd_gradient_stacked(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """:func:`fd_gradient` with every perturbed copy of ``x`` in one call.

    ``f`` takes a (2 * x.size, *x.shape) stack, the +eps copies first,
    and returns one value per copy. The differences are those of the
    loop, bit for bit, when ``f`` evaluates each copy as the loop's
    ``f`` would.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    step = (eps * np.eye(n)).reshape((n,) + x.shape)
    values = f(np.concatenate([x + step, x - step]))
    return ((values[:n] - values[n:]) / (2.0 * eps)).reshape(x.shape)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric relative disagreement of two arrays."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    num = np.abs(a - b)
    den = np.abs(a) + np.abs(b) + 1e-10
    return float(np.max(num / den))


# ----------------------------------------------------------------------
# Attention, spelled out
# ----------------------------------------------------------------------

def softmax_naive(row):
    mx = max(row)
    ex = [math.exp(v - mx) for v in row]
    s = sum(ex)
    return [e / s for e in ex]


def attention_naive(q, k, v):
    """softmax(Q K^T / sqrt(d_k)) V with explicit loops."""
    q = np.asarray(q, dtype=float)
    k = np.asarray(k, dtype=float)
    v = np.asarray(v, dtype=float)
    T, d_k = q.shape
    out = np.zeros((T, v.shape[1]))
    for i in range(T):
        scores = []
        for j in range(k.shape[0]):
            scores.append(float(q[i] @ k[j]) / math.sqrt(d_k))
        w = softmax_naive(scores)
        for j in range(k.shape[0]):
            out[i] += w[j] * v[j]
    return out


def _ln_naive(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def encoder_naive(weights, dims, X):
    """Plain-numpy forward of the windowed regressor.

    ``dims`` is (n_features, d_model, n_heads, n_layers, d_ff);
    ``X`` is one (T, F) window or an (n, T, F) batch. No reverse-mode
    machinery is involved, so this is an independent route for
    finite-difference gradient checks.
    """
    _, d_model, n_heads, n_layers, _ = dims
    h = X @ weights["embed.w"] + weights["embed.b"]
    for i in range(n_layers):
        normed = _ln_naive(h, weights[f"layer{i}.ln1.gain"],
                           weights[f"layer{i}.ln1.bias"])
        heads = []
        for j in range(n_heads):
            q = normed @ weights[f"layer{i}.head{j}.wq"]
            k = normed @ weights[f"layer{i}.head{j}.wk"]
            v = normed @ weights[f"layer{i}.head{j}.wv"]
            scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(q.shape[-1])
            scores = scores - scores.max(axis=-1, keepdims=True)
            w = np.exp(scores)
            w = w / w.sum(axis=-1, keepdims=True)
            heads.append(w @ v)
        # a perturbation axis on one head's weights leads only its output
        heads = np.broadcast_arrays(*heads)
        h = h + np.concatenate(heads, axis=-1) @ weights[f"layer{i}.attn.wo"]
        normed = _ln_naive(h, weights[f"layer{i}.ln2.gain"],
                           weights[f"layer{i}.ln2.bias"])
        ff = np.logaddexp(0.0, normed @ weights[f"layer{i}.ff1.w"]
                          + weights[f"layer{i}.ff1.b"])
        h = h + ff @ weights[f"layer{i}.ff2.w"] + weights[f"layer{i}.ff2.b"]
    h = _ln_naive(h, weights["final_ln.gain"], weights["final_ln.bias"])
    pooled = h.mean(axis=-2)
    hidden = np.logaddexp(0.0, pooled @ weights["mlp1.w"] + weights["mlp1.b"])
    out = hidden @ weights["mlp2.w"] + weights["mlp2.b"]
    return out.reshape(out.shape[:-1])


def encoder_mse_stacked(weights, dims, X, y, name, stack):
    """MSE of :func:`encoder_naive` on the batch ``X`` (n, T, F) for
    every copy of weight ``name`` in ``stack``, in one forward.

    The copy axis goes in front of the batch axis: a weight read before
    the mean pooling meets (n, T, d) activations, one read after it
    (n, d) activations.
    """
    shape = weights[name].shape
    rank = X.ndim - 1 if name.startswith("mlp") else X.ndim
    trial = dict(weights)
    trial[name] = stack.reshape(
        (len(stack),) + (1,) * (rank - len(shape)) + shape)
    return np.mean((encoder_naive(trial, dims, X) - y) ** 2, axis=-1)


# ----------------------------------------------------------------------
# Forecast losses, spelled out
# ----------------------------------------------------------------------

def losses_naive(pred, truth) -> dict:
    n = len(pred)
    mse = sum((truth[i] - pred[i]) ** 2 for i in range(n)) / n
    hmse = sum((1.0 - pred[i] / truth[i]) ** 2 for i in range(n)) / n
    mae = sum(abs(truth[i] - pred[i]) for i in range(n)) / n
    mape = sum(abs(1.0 - pred[i] / truth[i]) for i in range(n)) / n
    ql = sum(math.log(pred[i]) + truth[i] / pred[i] for i in range(n)) / n
    x = [math.log(p) for p in pred]
    y = [math.log(t) for t in truth]
    xbar = sum(x) / n
    ybar = sum(y) / n
    sxx = sum((xi - xbar) ** 2 for xi in x)
    sxy = sum((x[i] - xbar) * (y[i] - ybar) for i in range(n))
    if sxx == 0:
        r2 = 0.0
    else:
        slope = sxy / sxx
        ss_res = sum((y[i] - ybar - slope * (x[i] - xbar)) ** 2
                     for i in range(n))
        ss_tot = sum((yi - ybar) ** 2 for yi in y)
        r2 = 1.0 - ss_res / ss_tot
    return {"mse": mse, "hmse": hmse, "mae": mae, "mape": mape,
            "qlike": ql, "r2log": r2}
