"""Reference computations behind the benchmark's output checks.

Every function here recomputes one output of the mfvol pipeline from
that output's inputs, with plain loops or plain numpy and without
importing mfvol, so that a fault in the program cannot also hide in
the check. The ``check_*`` functions return a list of problems; an
empty list means the output agrees with its reference.
"""

from __future__ import annotations

import json
import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
LOG_2PI = math.log(2.0 * math.pi)
LN_EPS = 1e-5
LOSS_NAMES = ("mse", "hmse", "mae", "mape", "qlike", "r2log")


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------

def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a comma-separated file; ``#`` lines are notes."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_columns(path: str) -> tuple[list[str], dict[str, list[str]]]:
    """Column-wise view of a table file: header and name -> cells."""
    header, rows = read_table(path)
    return header, {name: [r[j] for r in rows] for j, name in enumerate(header)}


def mismatch(name: str, got, want, rtol: float = RTOL,
             atol: float = ATOL) -> list[str]:
    """One problem line when ``got`` and ``want`` differ beyond tolerance."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite values"]
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        return [f"{name}: {float(got.ravel()[i])!r} != reference "
                f"{float(want.ravel()[i])!r} at position {i}"]
    return []


def month_ids(dates: list[str]) -> list[int]:
    """0-based contiguous month id of each ISO date."""
    ids: list[int] = []
    last = None
    for d in dates:
        if d[:7] != last:
            last = d[:7]
            ids.append(ids[-1] + 1 if ids else 0)
        else:
            ids.append(ids[-1])
    return ids


# ----------------------------------------------------------------------
# Realized variance
# ----------------------------------------------------------------------

def realized_variance(intraday_path: str
                      ) -> tuple[list[str], list[float], list[float]]:
    """Dates, percent log close-to-close returns and within-day realized
    variance from a bar file; the first day has no return and is dropped."""
    _, rows = read_table(intraday_path)
    days: dict[str, list[tuple[int, float]]] = {}
    for date, minute, price in rows:
        days.setdefault(date, []).append((int(minute), float(price)))
    dates = sorted(days)
    closes: list[float] = []
    rvs: list[float] = []
    for d in dates:
        bars = sorted(days[d])
        total = 0.0
        for (_, p0), (_, p1) in zip(bars, bars[1:]):
            r = 100.0 * (math.log(p1) - math.log(p0))
            total += r * r
        closes.append(bars[-1][1])
        rvs.append(total)
    rets = [100.0 * (math.log(closes[i]) - math.log(closes[i - 1]))
            for i in range(1, len(dates))]
    return dates[1:], rets, rvs[1:]


def check_rv(intraday_path: str, rv_path: str, sidecar_path: str) -> list[str]:
    dates, rets, rvs = realized_variance(intraday_path)
    lam = sum(r * r for r in rets) / sum(rvs)
    header, cols = read_columns(rv_path)
    if header != ["date", "ret", "rv", "rv_adj"]:
        return [f"rv.csv header {header}"]
    if cols["date"] != dates:
        return ["rv.csv dates differ from the days of the bar file"]
    got_rv = [float(v) for v in cols["rv"]]
    got_adj = [float(v) for v in cols["rv_adj"]]
    with open(sidecar_path) as fh:
        side_lam = float(json.load(fh)["lambda"])
    problems = mismatch("ret", [float(v) for v in cols["ret"]], rets)
    problems += mismatch("rv", got_rv, rvs)
    problems += mismatch("lambda", side_lam, lam)
    problems += mismatch("rv_adj", got_adj, [lam * v for v in rvs])
    problems += mismatch("rv_adj = lambda * rv", got_adj,
                         [side_lam * v for v in got_rv], rtol=1e-15, atol=0.0)
    return problems


# ----------------------------------------------------------------------
# Factor panel
# ----------------------------------------------------------------------

def _centred_uncorrelated(name: str, block: np.ndarray) -> list[str]:
    """Columns of ``block`` have mean zero and zero pairwise correlation."""
    problems = []
    std = block.std(axis=0)
    mean = block.mean(axis=0)
    if np.any(np.abs(mean) > 1e-8 * std):
        problems.append(f"{name}: scores are not centred ({mean.tolist()})")
    if block.shape[1] > 1:
        corr = np.corrcoef(block, rowvar=False)
        off = np.abs(corr - np.diag(np.diag(corr)))
        if off.max() > 1e-8:
            problems.append(f"{name}: scores are correlated "
                            f"(largest |r| = {off.max():.3g})")
    return problems


def check_factor_scores(factors_path: str) -> list[str]:
    """PCA scores are centred and mutually uncorrelated on the rows the
    loadings were fitted on: training days for the daily groups, one
    row per month that holds a training day for the monthly group."""
    _, cols = read_columns(factors_path)
    train = [s == "train" for s in cols["split"]]
    n_train = sum(train)
    if n_train == 0 or not all(train[:n_train]):
        return ["training rows do not form a leading block"]

    def block(names: list[str], rows: list[int]) -> np.ndarray:
        return np.array([[float(cols[c][i]) for c in names] for i in rows])

    problems = []
    daily = list(range(n_train))
    for names in (["tech1", "tech2", "tech3"], ["bd1"]):
        problems += _centred_uncorrelated(",".join(names), block(names, daily))
    ids = month_ids(cols["date"])
    firsts = [i for i in range(len(ids)) if i == 0 or ids[i] != ids[i - 1]]
    train_months = [i for i in firsts if ids[i] <= ids[n_train - 1]]
    problems += _centred_uncorrelated("pcm1,pcm2",
                                      block(["pcm1", "pcm2"], train_months))
    return problems


def check_factor_targets(factors_path: str, rv_path: str) -> list[str]:
    """``ret`` and ``rv`` of the factor panel are rv.csv's ret and rv_adj."""
    _, fac = read_columns(factors_path)
    _, rv = read_columns(rv_path)
    by_date = {d: (r, a) for d, r, a in zip(rv["date"], rv["ret"], rv["rv_adj"])}
    for d, r, a in zip(fac["date"], fac["ret"], fac["rv"]):
        if d not in by_date or float(by_date[d][0]) != float(r) \
                or float(by_date[d][1]) != float(a):
            return [f"factors.csv ret/rv on {d} differ from rv.csv"]
    return []


# ----------------------------------------------------------------------
# GARCH-MIDAS
# ----------------------------------------------------------------------

def beta_weights(n_lags: int, w1: float, w2: float) -> list[float]:
    if n_lags == 1:
        return [1.0]
    raw = [(k / n_lags) ** (w1 - 1.0) * (1.0 - k / n_lags) ** (w2 - 1.0)
           for k in range(1, n_lags + 1)]
    total = sum(raw)
    return [x / total for x in raw]


def midas_filter(dates: list[str], returns: list[float],
                 covariates: list[list[float]], params: dict, n_lags: int
                 ) -> tuple[int, list[float], list[float], list[float]]:
    """Day-by-day long-run tau, short-run g and h = tau * g.

    ``covariates`` holds one row per month. Days before month
    ``n_lags`` only feed lags; the first returned value belongs to day
    ``start``, the first day of month ``n_lags``. The tau link is log.
    """
    ids = month_ids(dates)
    phis = [beta_weights(n_lags, w1, w2)
            for w1, w2 in zip(params["w1"], params["w2"])]
    tau_month: dict[int, float] = {}
    for t in range(n_lags, ids[-1] + 1):
        acc = params["m"]
        for j, phi in enumerate(phis):
            acc += params["theta"][j] * sum(
                phi[k - 1] * covariates[t - k][j] for k in range(1, n_lags + 1))
        tau_month[t] = math.exp(acc)
    start = ids.index(n_lags)
    mu, alpha, beta = params["mu"], params["alpha"], params["beta"]
    tau: list[float] = []
    g: list[float] = []
    h: list[float] = []
    for i in range(start, len(dates)):
        tau_i = tau_month[ids[i]]
        if i == start:
            g_i = 1.0
        else:
            shock = (returns[i - 1] - mu) ** 2 / tau[-1]
            g_i = (1.0 - alpha - beta) + alpha * shock + beta * g[-1]
        tau.append(tau_i)
        g.append(g_i)
        h.append(tau_i * g_i)
    return start, tau, g, h


def midas_log_likelihood(returns: list[float], h: list[float], start: int,
                         mu: float) -> float:
    total = 0.0
    for pos, h_i in enumerate(h):
        r = returns[start + pos]
        total -= 0.5 * (LOG_2PI + math.log(h_i) + (r - mu) ** 2 / h_i)
    return total


def midas_inputs(factors_path: str, covariate_names: list[str]):
    """Dates, returns, per-month covariates (first row of each month, as
    ``midas-fit`` takes them) and the number of training rows."""
    _, cols = read_columns(factors_path)
    dates = cols["date"]
    ids = month_ids(dates)
    firsts = [i for i in range(len(ids)) if i == 0 or ids[i] != ids[i - 1]]
    covariates = [[float(cols[c][i]) for c in covariate_names] for i in firsts]
    returns = [float(v) for v in cols["ret"]]
    n_train = sum(1 for s in cols["split"] if s == "train")
    return dates, returns, covariates, n_train


def check_midas(factors_path: str, fit_path: str, h_path: str,
                covariate_names: list[str]) -> list[str]:
    """midas_fit.json's likelihood on the training rows, and h.csv over
    the whole panel, against a day-by-day filter of the fitted params."""
    with open(fit_path) as fh:
        fit = json.load(fh)
    spec, params = fit["spec"], fit["params"]
    if spec["mode"] != "exogenous" or spec["tau_link"] != "log":
        return [f"reference covers the exogenous log-link model, got {spec}"]
    n_lags = spec["n_lags"]
    dates, returns, covariates, n_train = midas_inputs(factors_path,
                                                        covariate_names)
    problems = []
    start, _, _, h_train = midas_filter(
        dates[:n_train], returns[:n_train],
        covariates[:month_ids(dates)[n_train - 1] + 1], params, n_lags)
    ll = midas_log_likelihood(returns, h_train, start, params["mu"])
    problems += mismatch("log_likelihood", fit["log_likelihood"], ll)

    start, tau, g, h = midas_filter(dates, returns, covariates, params, n_lags)
    header, cols = read_columns(h_path)
    if header != ["date", "tau", "g", "h"]:
        return problems + [f"h.csv header {header}"]
    if cols["date"] != dates[start:]:
        return problems + ["h.csv dates are not the modelled days"]
    got = {c: [float(v) for v in cols[c]] for c in ("tau", "g", "h")}
    problems += mismatch("tau", got["tau"], tau)
    problems += mismatch("g", got["g"], g)
    problems += mismatch("h", got["h"], h)
    problems += mismatch("h = tau * g", got["h"],
                         [t * s for t, s in zip(got["tau"], got["g"])],
                         rtol=1e-15, atol=0.0)
    return problems


# ----------------------------------------------------------------------
# Encoder forward pass
# ----------------------------------------------------------------------

def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray
                ) -> np.ndarray:
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + LN_EPS) * gain + bias


def encoder_forward(weights: dict[str, np.ndarray], n_layers: int,
                    n_heads: int, x: np.ndarray) -> np.ndarray:
    """(n, T, F) normalized windows -> (n,) normalized outputs."""
    h = x @ weights["embed.w"] + weights["embed.b"]
    for i in range(n_layers):
        p = f"layer{i}."
        normed = _layer_norm(h, weights[p + "ln1.gain"], weights[p + "ln1.bias"])
        heads = []
        for j in range(n_heads):
            q = normed @ weights[f"{p}head{j}.wq"]
            k = normed @ weights[f"{p}head{j}.wk"]
            v = normed @ weights[f"{p}head{j}.wv"]
            scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(q.shape[-1])
            scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
            heads.append(scores / scores.sum(axis=-1, keepdims=True) @ v)
        h = h + np.concatenate(heads, axis=-1) @ weights[p + "attn.wo"]
        normed = _layer_norm(h, weights[p + "ln2.gain"], weights[p + "ln2.bias"])
        hidden = _softplus(normed @ weights[p + "ff1.w"] + weights[p + "ff1.b"])
        h = h + hidden @ weights[p + "ff2.w"] + weights[p + "ff2.b"]
    h = _layer_norm(h, weights["final_ln.gain"], weights["final_ln.bias"])
    hidden = _softplus(h.mean(axis=-2) @ weights["mlp1.w"] + weights["mlp1.b"])
    return (hidden @ weights["mlp2.w"] + weights["mlp2.b"])[..., 0]


def model_predictions(doc: dict, windows: np.ndarray) -> np.ndarray:
    """Original-scale predictions of a ``weights.json`` document."""
    weights = {name: np.array(w["data"], dtype=float).reshape(w["shape"])
               for name, w in doc["weights"].items()}
    xn = (windows - np.array(doc["feature_mean"])) / np.array(doc["feature_std"])
    cfg = doc["model_config"]
    out = encoder_forward(weights, cfg["n_layers"], cfg["n_heads"], xn)
    return out * doc["target_std"] + doc["target_mean"]


def panel_windows(factors_path: str, h_path: str, features: list[str],
                  window: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Target dates, (n, T, F) windows and targets over the factor rows
    that h.csv covers, with h as an extra column."""
    _, fac = read_columns(factors_path)
    _, hcol = read_columns(h_path)
    lo = fac["date"].index(hcol["date"][0])
    if fac["date"][lo:] != hcol["date"]:
        raise ValueError("h.csv is not a trailing block of the factor panel")
    table = {c: [float(v) for v in fac[c][lo:]] for c in fac if c not in
             ("date", "split")}
    table["h"] = [float(v) for v in hcol["h"]]
    rows = np.array([[table[f][i] for f in features]
                     for i in range(len(hcol["date"]))])
    n = len(rows) - window
    x = np.stack([rows[i:i + window] for i in range(n)])
    y = np.array(table["rv"][window:])
    return fac["date"][lo + window:], x, y


def check_predictions(factors_path: str, h_path: str, model_path: str,
                      pred_path: str) -> list[str]:
    """pred.csv of ``predict --split all`` against a numpy forward pass."""
    with open(model_path) as fh:
        doc = json.load(fh)
    dates, x, y = panel_windows(factors_path, h_path, doc["feature_names"],
                                   doc["train_config"]["window"])
    header, cols = read_columns(pred_path)
    if header != ["date", "rv_true", "rv_pred"]:
        return [f"pred.csv header {header}"]
    if cols["date"] != dates:
        return ["pred.csv dates are not the window targets"]
    problems = mismatch("rv_true", [float(v) for v in cols["rv_true"]], y,
                        rtol=0.0, atol=0.0)
    problems += mismatch("rv_pred", [float(v) for v in cols["rv_pred"]],
                         model_predictions(doc, x))
    return problems


# ----------------------------------------------------------------------
# Losses and report rows
# ----------------------------------------------------------------------

def loss_row(pred, truth) -> dict[str, float]:
    """n and the six losses over the pairs with positive forecast and truth."""
    pairs = [(p, t) for p, t in zip(pred, truth) if p > 0 and t > 0]
    n = len(pairs)
    row = {"n": float(n)}
    row["mse"] = sum((t - p) ** 2 for p, t in pairs) / n
    row["hmse"] = sum((1.0 - p / t) ** 2 for p, t in pairs) / n
    row["mae"] = sum(abs(t - p) for p, t in pairs) / n
    row["mape"] = sum(abs(1.0 - p / t) for p, t in pairs) / n
    row["qlike"] = sum(math.log(p) + t / p for p, t in pairs) / n
    xs = [math.log(p) for p, _ in pairs]
    ys = [math.log(t) for _, t in pairs]
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        row["r2log"] = 0.0
    else:
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
        ssr = sum((y - my - slope * (x - mx)) ** 2 for x, y in zip(xs, ys))
        row["r2log"] = 1.0 - ssr / sum((y - my) ** 2 for y in ys)
    return row


def read_report(path: str) -> list[dict]:
    header, rows = read_table(path)
    if header != ["model", "group", "n"] + list(LOSS_NAMES):
        raise ValueError(f"report header {header}")
    return [{"model": r[0], "group": r[1], "n": float(r[2]),
             **{k: float(v) for k, v in zip(LOSS_NAMES, r[3:])}}
            for r in rows]


def compare_row(label: str, got: dict, want: dict) -> list[str]:
    """Report row against its recomputation; the sums differ only in
    their order, so the tolerance is near rounding."""
    problems = mismatch(f"{label} n", got["n"], want["n"], rtol=0.0, atol=0.0)
    for k in LOSS_NAMES:
        problems += mismatch(f"{label} {k}", got[k], want[k], rtol=1e-11)
    return problems


def check_report(pred_path: str, report_path: str, group: str) -> list[str]:
    """``evaluate --persistence`` rows against the six loss formulas."""
    _, cols = read_columns(pred_path)
    truth = [float(v) for v in cols["rv_true"]]
    pred = [float(v) for v in cols["rv_pred"]]
    rows = read_report(report_path)
    labels = [(r["model"], r["group"]) for r in rows]
    if labels != [("transformer", group), ("persistence", group)]:
        return [f"report rows {labels}"]
    return (compare_row("transformer", rows[0], loss_row(pred, truth))
            + compare_row("persistence", rows[1],
                          loss_row(truth[:-1], truth[1:])))


def persistence_row(factors_path: str) -> dict[str, float]:
    """Yesterday's rv as today's forecast, scored on every test day."""
    _, cols = read_columns(factors_path)
    first = cols["split"].index("test")
    rv = [float(v) for v in cols["rv"][first - 1:]]
    return loss_row(rv[:-1], rv[1:])


def check_ablation(factors_path: str, report_path: str,
                   groups: list[str]) -> list[str]:
    """The ablation report scores every group and the persistence row on
    the same test days, and its persistence row matches the formulas."""
    _, cols = read_columns(factors_path)
    n_test = float(sum(1 for s in cols["split"] if s == "test"))
    rows = read_report(report_path)
    labels = [(r["model"], r["group"]) for r in rows]
    want = [("transformer", g) for g in groups] + [("persistence", "-")]
    if labels != want:
        return [f"report rows {labels}, expected {want}"]
    problems = [f"{r['group']} scored on {r['n']:.0f} days, test has "
                f"{n_test:.0f}" for r in rows if r["n"] != n_test]
    problems += [f"{r['group']} has non-finite losses" for r in rows
                 if not all(math.isfinite(r[k]) for k in LOSS_NAMES)]
    return problems + compare_row("persistence", rows[-1],
                                  persistence_row(factors_path))
