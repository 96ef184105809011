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

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tables
from .errors import InputError, NumericalError
from .marketdata import IntradaySeries

RET_SCALE = 100.0


@dataclass
class RvSeries:
    """Per-day returns and realized variance for one instrument.

    The first trading day of the input has no previous close, so the
    series starts on the second day.
    """

    dates: list[str]
    ret: np.ndarray
    rv: np.ndarray
    rv_adj: np.ndarray
    lam: float

    @property
    def n_days(self) -> int:
        return len(self.dates)


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


def monthly_rv(daily_returns: np.ndarray, month_index: np.ndarray) -> np.ndarray:
    """Sum squared daily returns within each month.

    ``month_index`` holds 0-based contiguous month ids per day; every
    id in ``0..max`` must occur at least once.
    """
    daily_returns = np.asarray(daily_returns, dtype=float)
    month_index = np.asarray(month_index, dtype=np.int64)
    if daily_returns.shape != month_index.shape or daily_returns.ndim != 1:
        raise InputError(
            f"returns {daily_returns.shape} vs month index {month_index.shape}")
    if daily_returns.size == 0:
        raise InputError("no days at all")
    n_months = int(month_index.max()) + 1
    counts = np.bincount(month_index, minlength=n_months)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise InputError(f"month id {missing} has no trading days")
    return np.bincount(month_index, weights=daily_returns * daily_returns,
                       minlength=n_months)


def compute_rv_series(series: IntradaySeries) -> RvSeries:
    """Full pipeline from validated bars to the adjusted RV series.

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
    return RvSeries(dates=series.dates[1:], ret=ret, rv=rv,
                    rv_adj=adjust_rv(rv, lam), lam=lam)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

RV_COLUMNS = {"date": tables.KEY, "ret": tables.FLOAT, "rv": tables.FLOAT,
              "rv_adj": tables.FLOAT}


def write_rv(series: RvSeries, csv_path: str, sidecar_path: str) -> None:
    """Write ``date,ret,rv,rv_adj`` rows plus the lambda sidecar JSON."""
    tables.write(csv_path, list(RV_COLUMNS),
                 [series.dates, series.ret, series.rv, series.rv_adj])
    with open(sidecar_path, "w") as fh:
        json.dump({"lambda": series.lam, "n_days": series.n_days}, fh)
        fh.write("\n")


def read_rv(csv_path: str) -> RvSeries:
    """Read back the CSV rows written by :func:`write_rv`; the sidecar
    is not read, so ``lam`` is NaN."""
    cols = tables.read(csv_path, RV_COLUMNS)
    return RvSeries(dates=cols["date"], ret=cols["ret"], rv=cols["rv"],
                    rv_adj=cols["rv_adj"], lam=math.nan)
