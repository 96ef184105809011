"""Realized volatility from 5-minute prices.

Daily realized variance is the sum of squared 5-minute log returns
(in percent). Because intraday bars miss overnight movement, realized
variance underestimates the variance of close-to-close returns; the
scale parameter

    lambda = mean(ret^2) / mean(rv)

rescales the series so that the adjusted values match the squared
daily returns in sample mean. Within a day the first bar serves as
the base price, so a day with b bars contributes b - 1 squared
returns.
"""

from __future__ import annotations

import math

import numpy as np

from . import tables
from .errors import InputError, NumericalError
from .marketdata import IntradaySeries, Panel

RET_SCALE = 100.0


def scale_parameter(daily_returns: np.ndarray, rv: np.ndarray) -> float:
    """Ratio of mean squared daily return to mean realized variance."""
    daily_returns = np.asarray(daily_returns, dtype=float)
    rv = np.asarray(rv, dtype=float)
    if daily_returns.shape != rv.shape or daily_returns.ndim != 1:
        raise InputError(f"returns {daily_returns.shape} vs rv {rv.shape}")
    if daily_returns.size == 0:
        raise InputError("empty series")
    rv_sum = float(np.sum(rv))
    if rv_sum <= 0:
        raise InputError("realized variance sums to zero")
    lam = float(np.sum(daily_returns * daily_returns) / rv_sum)
    if lam <= 0:
        raise NumericalError("all daily returns are zero, scale undefined")
    return lam


def adjust_rv(rv: np.ndarray, lam: float) -> np.ndarray:
    """Rescale realized variance by the scale parameter."""
    if lam <= 0:
        raise NumericalError(f"lambda must be positive, got {lam}")
    return np.asarray(rv, dtype=float) * lam


def compute_rv_series(series: IntradaySeries) -> tuple[Panel, float]:
    """Full pipeline from validated bars to the daily ``ret``, ``rv`` and
    ``rv_adj`` table, and the scale parameter lambda.

    Daily prices are the last bar of each day. Every day must carry at
    least two bars. The first day is dropped (no previous close).
    """
    if len(series.dates) < 2:
        raise InputError("need at least 2 trading days")
    starts = series.day_starts()
    counts = np.diff(starts)
    if np.any(counts < 2):
        k = int(np.argmax(counts < 2))
        raise InputError(
            f"day {series.dates[k]} has {counts[k]} bar(s), need at least 2")
    prices = series.bars["price"]
    # step i is bar i -> i + 1; a day's last step crosses into the next day
    steps = RET_SCALE * np.diff(np.log(prices))
    squared = steps * steps
    bounds = starts.tolist()
    rv = np.array([np.sum(squared[lo:hi - 1])
                   for lo, hi in zip(bounds[1:-1], bounds[2:])])
    # math.log and np.log differ in the last bit now and then; returns
    # take math.log so that rv.csv keeps its bytes
    closes = prices[starts[1:] - 1].tolist()
    ret = RET_SCALE * np.diff([math.log(c) for c in closes])
    lam = scale_parameter(ret, rv)
    return Panel(dates=series.dates[1:], columns={
        "ret": ret, "rv": rv, "rv_adj": adjust_rv(rv, lam)}), lam


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

RV_COLUMNS = {"date": tables.KEY, "ret": tables.FLOAT, "rv": tables.FLOAT,
              "rv_adj": tables.FLOAT}


def write_rv(panel: Panel, lam: float, csv_path: str,
             sidecar_path: str) -> None:
    """Write ``date,ret,rv,rv_adj`` rows plus the lambda sidecar JSON."""
    names = list(RV_COLUMNS)
    tables.write(csv_path, names,
                 [panel.dates, *(panel.columns[name] for name in names[1:])])
    tables.write_json(sidecar_path, {"lambda": lam, "n_days": panel.n_rows})


def read_rv(csv_path: str) -> Panel:
    """The ``ret``, ``rv`` and ``rv_adj`` columns that :func:`write_rv`
    wrote, by date; the sidecar is not read."""
    cols = tables.read(csv_path, RV_COLUMNS)
    return Panel(dates=cols.pop("date"), columns=cols)
