"""Synthetic market scenarios with known ground truth.

The generator builds a complete input set for the pipeline: 5-minute
prices, daily OHLC/technical records, daily attention counts, monthly
macro indicators, and a ``truth.json`` sidecar holding the exact
volatility components that produced the data.

The world works like this: two latent monthly factors follow AR(1)
processes and drive the long-run variance through the GARCH-MIDAS
mechanics; the ten macro columns are noisy linear readings of those
factors, so compressing them recovers the drivers. A daily latent
attention level scales the next day's variance by
exp(coef * level - coef^2 / 2) and leaks into the five search-count
columns. Intraday prices are a geometric random walk whose daily
variance is the true one and whose close-to-close log return matches
the simulated daily return exactly. Technical indicator columns are
computed from the generated prices and volumes, so they carry only
whatever predictive content price history itself has.

Everything is driven by one seed through independent child streams;
the same spec always produces byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tables
from .errors import InputError
from .garch_midas import MidasParams, MidasSpec, simulate
from .marketdata import (
    ATTENTION_COLUMNS,
    DAILY_COLUMNS,
    INTRADAY_COLUMNS,
    MONTHLY_COLUMNS,
    BAR_DTYPE,
    IntradaySeries,
)

# loadings of the ten macro columns on the two latent monthly factors
_MACRO_MEANS = np.array(
    [101.2, 99.5, 100.8, 102.1, 105.3, 100.2, 98.7, 160.0, 58.0, 95.4])
_MACRO_LOAD_1 = np.array(
    [0.85, 0.75, 0.80, 0.90, 0.95, 0.70, 0.65, 0.40, 0.30, 0.55])
_MACRO_LOAD_2 = np.array(
    [0.10, -0.25, 0.20, -0.10, 0.05, 0.35, -0.40, 0.85, 0.90, -0.60])

# level, spread and latent loading of the five attention-count columns
_ATT_BASE = np.array([520.0, 480.0, 310.0, 260.0, 150.0])
_ATT_SCALE = np.array([60.0, 55.0, 40.0, 30.0, 22.0])
_ATT_LOAD = np.array([0.90, 0.85, 0.75, 0.60, 0.50])

# the GARCH-MIDAS parameters of every world, one theta per latent factor
_PARAMS = MidasParams(mu=0.05, alpha=0.07, beta=0.85, m=0.10,
                      theta=np.array([0.90, -0.45]), w2=np.array([4.0, 2.0]))
_ATTENTION_RHO = 0.8        # AR(1) coefficient of the latent attention
_ATTENTION_NOISE = 0.25     # noise of the attention columns, in loadings
_MACRO_NOISE = 0.30         # noise of the macro columns, in factor units


@dataclass
class ScenarioSpec:
    """What varies between synthetic worlds; the rest is fixed above."""

    seed: int = 0
    months: int = 40
    days_per_month: int = 21
    bars_per_day: int = 48
    n_lags: int = 6
    cov_rho: float = 0.8
    attention_coef: float = 0.35
    overnight_frac: float = 0.15
    start_price: float = 100.0
    start_month: str = "2015-01"

    def __post_init__(self):
        if self.months <= self.n_lags:
            raise InputError(
                f"months={self.months} must exceed n_lags={self.n_lags}")
        if not (1 <= self.days_per_month <= 28):
            raise InputError("days_per_month must lie in 1..28")
        if not (2 <= self.bars_per_day <= 48):
            raise InputError("bars_per_day must lie in 2..48")
        if self.n_days * self.bars_per_day * BAR_DTYPE.itemsize \
                > np.iinfo(np.intp).max:
            raise InputError(f"{self.n_days} days are too many for an array")
        if not (0.0 <= self.overnight_frac < 1.0):
            raise InputError("overnight_frac must lie in [0, 1)")
        if not (0.0 < self.start_price < math.inf):
            raise InputError("start_price must be positive and finite")
        if not math.isfinite(self.attention_coef):
            raise InputError("attention_coef must be finite")
        try:
            tables.parse(tables.MONTH, self.start_month)
        except ValueError:
            raise InputError(f"start_month must be YYYY-MM with a month from "
                             f"01 to 12, got {self.start_month!r}") from None
        # a YYYY-MM-DD day, as rv reads it back, lies in 0001 to 9999
        first = np.datetime64(self.start_month)
        last = first + (self.months - 1)
        if first < np.datetime64("0001-01") or last > np.datetime64("9999-12"):
            raise InputError(f"start_month={first} with months={self.months} "
                             f"ends at {last}, outside the years 0001-9999")

    @property
    def n_days(self) -> int:
        return self.months * self.days_per_month

    def midas_spec(self) -> MidasSpec:
        return MidasSpec(n_lags=self.n_lags, mode="exogenous",
                         n_covariates=len(_PARAMS.theta), tau_link="log")


def make_dates(start_month: str, months: int, days_per_month: int
               ) -> tuple[list[str], list[str]]:
    """Synthetic trading calendar: days 1..N within consecutive months."""
    labels = np.datetime64(start_month) + np.arange(months)
    dates = labels.astype("datetime64[D]")[:, None] + np.arange(days_per_month)
    return dates.ravel().astype(str).tolist(), labels.astype(str).tolist()


def gen_intraday(dates: Sequence[str], day_variance: np.ndarray,
                 rng: np.random.Generator, bars_per_day: int = 48,
                 overnight_frac: float = 0.0, start_price: float = 100.0,
                 target_returns: np.ndarray | None = None) -> IntradaySeries:
    """Geometric-random-walk bars with a prescribed per-day variance.

    ``day_variance`` is in daily percent-squared units; a fraction
    ``overnight_frac`` of it moves the open away from the previous
    close, the rest spreads over the within-day increments. When
    ``target_returns`` is given, each day's increments are shifted by
    a constant so the close-to-close percent log return reproduces the
    target exactly (the first day has no previous close; its target is
    absorbed into the within-day path).
    """
    day_variance = np.asarray(day_variance, dtype=float)
    if len(dates) != len(day_variance):
        raise InputError("dates and day_variance differ in length")
    if target_returns is not None:
        target_returns = np.asarray(target_returns, dtype=float)
        if target_returns.shape != day_variance.shape:
            raise InputError("target_returns misaligned")
    if np.any(day_variance < 0):
        raise InputError("day variances must be nonnegative")
    n_inc = bars_per_day - 1
    if n_inc < 1:
        raise InputError("need at least 2 bars per day")

    prices = np.empty((len(dates), bars_per_day))
    log_close = math.log(start_price)
    for i in range(len(dates)):
        v_log = day_variance[i] / 1e4          # percent^2 -> log units
        if i == 0 or overnight_frac == 0.0:
            gap = 0.0
        else:
            gap = rng.normal(0.0, math.sqrt(overnight_frac * v_log))
        inc_var = (1.0 - overnight_frac) * v_log / n_inc
        steps = rng.normal(0.0, math.sqrt(inc_var), size=n_inc)
        if target_returns is not None:
            want = target_returns[i] / 100.0 - gap
            steps = steps + (want - steps.sum()) / n_inc
        log_open = log_close + gap
        levels = log_open + np.concatenate([[0.0], np.cumsum(steps)])
        # math.exp, not np.exp: the two differ in the last bit now and then
        prices[i] = [math.exp(level) for level in levels.tolist()]
        log_close = log_open + steps.sum()
    bars = np.empty(prices.size, dtype=BAR_DTYPE)
    bars["day"] = np.repeat(np.arange(len(dates)), bars_per_day)
    bars["time_min"] = np.tile(np.arange(bars_per_day) * 5, len(dates))
    bars["price"] = prices.ravel()
    return IntradaySeries(dates=list(dates), bars=bars)


# ----------------------------------------------------------------------
# Derived daily columns
# ----------------------------------------------------------------------

def _rolling_mean(x: np.ndarray, window: int) -> np.ndarray:
    csum = np.concatenate([[0.0], np.cumsum(x)])
    i = np.arange(len(x))
    return (csum[i + 1] - csum[np.maximum(0, i - window + 1)]) \
        / np.minimum(i + 1, window)


def _ema(x: np.ndarray, span: int) -> np.ndarray:
    alpha = 2.0 / (span + 1.0)
    out = np.empty_like(x)
    out[0] = x[0]
    for i in range(1, len(x)):
        out[i] = alpha * x[i] + (1 - alpha) * out[i - 1]
    return out


def _rsi(close: np.ndarray, window: int = 14) -> np.ndarray:
    delta = np.diff(close, prepend=close[0])
    up = _rolling_mean(np.maximum(delta, 0.0), window)
    down = _rolling_mean(np.maximum(-delta, 0.0), window)
    with np.errstate(divide="ignore", invalid="ignore"):
        rsi = 100.0 - 100.0 / (1.0 + up / down)
    return np.where(down != 0.0, rsi, np.where(up != 0.0, 100.0, 50.0))


def _daily_columns(series: IntradaySeries, volume: np.ndarray
                   ) -> dict[str, np.ndarray]:
    price = series.bars["price"]
    starts = series.day_starts()
    close = price[starts[1:] - 1]
    sign = np.sign(np.diff(close, prepend=close[0]))
    # the close 12 days back; the first 12 days look back to day 0
    back_12 = close[np.maximum(np.arange(len(close)) - 12, 0)]
    return {
        "open": price[starts[:-1]],
        "high": np.maximum.reduceat(price, starts[:-1]),
        "low": np.minimum.reduceat(price, starts[:-1]),
        "close": close,
        "volume": volume,
        "turn": volume / 5e6,
        "boll": _rolling_mean(close, 20),
        "ma5": _rolling_mean(close, 5),
        "ma20": _rolling_mean(close, 20),
        "macd": _ema(close, 12) - _ema(close, 26),
        "rsi": _rsi(close),
        "sobv": np.cumsum(sign * volume) / 1e6,
        "roc": 100.0 * (close / back_12 - 1.0),
    }


# ----------------------------------------------------------------------
# Full scenario
# ----------------------------------------------------------------------

def gen_full_scenario(spec: ScenarioSpec, out_dir: str) -> dict[str, str]:
    """Write intraday/daily/monthly/attention CSVs plus truth.json, all
    or none of them, and return their paths by name; ``out_dir`` is
    made if it does not exist."""
    ss = np.random.SeedSequence(spec.seed)
    s_mid, s_att, s_intra, s_macro, s_attcols, s_vol = ss.spawn(6)

    n_days = spec.n_days
    rho = _ATTENTION_RHO
    latent = np.random.default_rng(s_att).standard_normal(n_days)
    latent[1:] *= math.sqrt(1.0 - rho * rho)
    for t in range(1, n_days):
        latent[t] += rho * latent[t - 1]

    coef = spec.attention_coef
    lagged = np.concatenate([[0.0], latent[:-1]])
    multiplier = np.exp(coef * lagged - 0.5 * coef * coef)

    midas_spec = spec.midas_spec()
    data, true, day_variance = simulate(
        midas_spec, _PARAMS, spec.months, spec.days_per_month, seed=s_mid,
        cov_rho=spec.cov_rho, day_var_multiplier=multiplier)

    dates, month_labels = make_dates(spec.start_month, spec.months,
                                     spec.days_per_month)
    intraday = gen_intraday(
        dates, day_variance, np.random.default_rng(s_intra),
        bars_per_day=spec.bars_per_day, overnight_frac=spec.overnight_frac,
        start_price=spec.start_price, target_returns=data.returns)

    noise = np.random.default_rng(s_macro).standard_normal((spec.months, 10))
    X = data.covariates
    macro = _MACRO_MEANS + _MACRO_LOAD_1 * X[:, :1] + _MACRO_NOISE * noise \
        + _MACRO_LOAD_2 * X[:, 1:]

    noise = np.random.default_rng(s_attcols).standard_normal((n_days, 5))
    att = np.maximum(_ATT_BASE + _ATT_SCALE * (
        _ATT_LOAD * latent[:, None] + _ATTENTION_NOISE * noise), 0.0)

    rng_vol = np.random.default_rng(s_vol)
    volume = np.exp(15.0 + 0.35 * rng_vol.standard_normal(n_days))

    paths = {name: os.path.join(out_dir, name + ext) for name, ext in
             [("intraday", ".csv"), ("daily", ".csv"), ("monthly", ".csv"),
              ("attention", ".csv"), ("truth", ".json")]}

    truth = {
        "seed": spec.seed,
        "months": spec.months,
        "days_per_month": spec.days_per_month,
        "bars_per_day": spec.bars_per_day,
        "n_lags": spec.n_lags,
        "mode": midas_spec.mode,
        "tau_link": midas_spec.tau_link,
        "params": _PARAMS.to_json(),
        "cov_rho": spec.cov_rho,
        "attention_coef": spec.attention_coef,
        "overnight_frac": spec.overnight_frac,
        "modeled_start": true.day_slice.start,
        "dates": dates,
        "returns": data.returns.tolist(),
        "covariates": data.covariates.tolist(),
        "tau": true.tau.tolist(),
        "g": true.g.tolist(),
        "h": true.h.tolist(),
        "day_variance": day_variance.tolist(),
        "attention_latent": latent.tolist(),
    }
    bars = intraday.bars
    cols = _daily_columns(intraday, volume)
    daily = list(DAILY_COLUMNS)
    with tables.all_or_none(*paths.values(), make_dirs=True) as temps:
        temp = dict(zip(paths, temps))
        tables.write(temp["intraday"], list(INTRADAY_COLUMNS),
                     [np.array(dates)[bars["day"]], bars["time_min"],
                      bars["price"]])
        tables.write(temp["daily"], daily,
                     [dates] + [cols[c] for c in daily[1:]])
        tables.write(temp["monthly"], list(MONTHLY_COLUMNS),
                     [month_labels, *macro.T])
        tables.write(temp["attention"], list(ATTENTION_COLUMNS),
                     [dates, *att.T])
        tables.write_json(temp["truth"], truth)
    return paths
