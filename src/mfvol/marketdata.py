"""Loading and alignment of mixed-frequency market data.

Three native frequencies flow into one daily panel:

* 5-minute intraday prices (one CSV row per bar),
* daily technical/OHLC records plus daily search-attention counts,
* monthly macroeconomic indicators.

Loaders return columns, never one object per row: a sorted key column
(dates or months) beside numpy columns. Monthly values are repeated
across every trading day of their month so that downstream models can
treat the panel as a plain daily matrix. Trading-day identity is the
exact ISO date string; no calendar arithmetic is performed on dates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import date as _date
from typing import Callable, Mapping, Sequence

import numpy as np

from . import tables
from .errors import (
    AllMissingColumn,
    DuplicateBar,
    EmptyPanel,
    InputError,
    MalformedRow,
    MissingColumn,
    NonPositivePrice,
    UncoveredMonth,
    ZeroVariance,
)

INTRADAY_HEADER = ["date", "time_min", "price"]
DAILY_HEADER = [
    "date", "open", "high", "low", "close", "volume", "turn", "boll",
    "ma5", "ma20", "macd", "rsi", "sobv", "roc",
]
MONTHLY_HEADER = [
    "month", "meci", "melei", "melai", "cpi", "retailsale", "rpi", "ppi",
    "m2", "finvest", "iop",
]
ATTENTION_HEADER = ["date", "csi300", "csi500", "sse50", "hsparts", "hsetf"]

MAX_BARS_PER_DAY = 48
BAR_MINUTES = 5
BAR_DTYPE = np.dtype([("day", np.int64), ("time_min", np.int64),
                      ("price", np.float64)])

# sorted keys (dates or months) and one float column per other field
Keyed = tuple[list[str], dict[str, np.ndarray]]


@dataclass
class IntradaySeries:
    """Validated 5-minute bars as columns.

    ``dates`` lists the distinct trading days in chronological order.
    ``bars`` is one structured array of :data:`BAR_DTYPE`: each bar's
    ``day`` (an index into ``dates``), ``time_min`` and ``price``,
    sorted by day and then by minute.
    """

    dates: list[str]
    bars: np.ndarray

    def day_starts(self) -> np.ndarray:
        """Each day's first row, then ``len(bars)``: day ``k`` holds
        ``bars[starts[k]:starts[k + 1]]``."""
        return np.searchsorted(self.bars["day"],
                               np.arange(len(self.dates) + 1))


@dataclass
class AlignedPanel:
    """Daily panel with monthly covariates repeated within each month.

    Attributes
    ----------
    dates : list of str
        Trading dates, strictly increasing.
    month_index : ndarray of int
        For each row, the 0-based index of its month (its ``YYYY-MM``
        prefix) among the panel's months in chronological order.
    columns : dict of str -> ndarray
        All numeric columns, each of length ``len(dates)``.
    """

    dates: list[str]
    month_index: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    def matrix(self, cols: Sequence[str]) -> np.ndarray:
        missing = [c for c in cols if c not in self.columns]
        if missing:
            raise MissingColumn(f"panel lacks columns {missing}")
        return np.column_stack([self.columns[c] for c in cols])

    def copy(self) -> "AlignedPanel":
        return AlignedPanel(
            dates=list(self.dates),
            month_index=self.month_index.copy(),
            columns={k: v.copy() for k, v in self.columns.items()},
        )


# ----------------------------------------------------------------------
# Cell parsing
# ----------------------------------------------------------------------

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_date(path: str, line: int, text: str) -> str:
    # fromisoformat also takes 20210301 and 2021-W09-1, but a trading
    # day is its exact text and its month is the text's first 7 chars
    try:
        if not _ISO_DATE.fullmatch(text):
            raise ValueError
        _date.fromisoformat(text)
    except ValueError:
        raise MalformedRow(path, line, f"bad date {text!r}")
    return text


def _parse_month(path: str, line: int, text: str) -> str:
    parts = text.split("-")
    ok = (
        len(parts) == 2 and len(parts[0]) == 4 and len(parts[1]) == 2
        and parts[0].isdigit() and parts[1].isdigit()
        and 1 <= int(parts[1]) <= 12
    )
    if not ok:
        raise MalformedRow(path, line, f"bad month {text!r}, expected YYYY-MM")
    return text


def _parse_float(path: str, line: int, text: str, col: str,
                 allow_missing: bool = True) -> float:
    if text == "":
        if allow_missing:
            return math.nan
        raise MalformedRow(path, line, f"missing required value for {col!r}")
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(path, line, f"bad number {text!r} for {col!r}")
    if math.isnan(value) or math.isinf(value):
        raise MalformedRow(path, line, f"non-finite value {text!r} for {col!r}")
    return value


def _columns(names: Sequence[str], rows: Sequence[list[float]]
             ) -> dict[str, np.ndarray]:
    """Row-wise values as one contiguous float column per name."""
    table = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return dict(zip(names, table.T.copy()))


# ----------------------------------------------------------------------
# Loaders
# ----------------------------------------------------------------------

def load_intraday(path: str) -> IntradaySeries:
    """Load and validate a 5-minute bar file.

    Every bar lies on the 5-minute grid 0, 5, ..., 235 (minutes into
    the trading day) and no (date, time) pair repeats. Bars may be
    unordered on disk; the series is sorted by (date, time).
    """
    _, rows = tables.read(path, INTRADAY_HEADER)
    day_of: dict[str, int] = {}      # each distinct date, validated once
    seen: set[int] = set()
    day, time_min, price = [], [], []
    for line_no, (d_text, t_text, p_text) in rows:
        k = day_of.get(d_text)
        if k is None:
            _parse_date(path, line_no, d_text)
            k = day_of[d_text] = len(day_of)
        try:
            t = int(t_text)
        except ValueError:
            raise MalformedRow(path, line_no, f"bad time_min {t_text!r}")
        if t < 0 or t % BAR_MINUTES != 0 or t >= MAX_BARS_PER_DAY * BAR_MINUTES:
            raise MalformedRow(
                path, line_no,
                f"time_min {t} outside 5-minute grid 0..235")
        p = _parse_float(path, line_no, p_text, "price", allow_missing=False)
        if p <= 0:
            raise NonPositivePrice(path, line_no, p)
        # a day has 48 grid slots, so without repeats it holds <= 48 bars
        key = k * MAX_BARS_PER_DAY + t // BAR_MINUTES
        if key in seen:
            raise DuplicateBar(d_text, t)
        seen.add(key)
        day.append(k)
        time_min.append(t)
        price.append(p)
    # day_of numbers the dates as they first appear; renumber them in order
    dates = sorted(day_of)
    rank = {d: i for i, d in enumerate(dates)}
    bars = np.empty(len(day), dtype=BAR_DTYPE)
    bars["day"] = np.array([rank[d] for d in day_of], dtype=np.int64)[day]
    bars["time_min"] = time_min
    bars["price"] = price
    return IntradaySeries(
        dates=dates, bars=bars[np.lexsort((bars["time_min"], bars["day"]))])


def _load_dated(path: str, header: Sequence[str], required: Sequence[str],
                check: Callable[[int, dict[str, float]], None]) -> Keyed:
    """A table keyed by distinct ISO dates, sorted by date.

    Blank cells become NaN, except in ``required`` columns.
    ``check(line_no, values)`` vets each parsed row.
    """
    _, rows = tables.read(path, header)
    names = header[1:]
    by_date: dict[str, list[float]] = {}
    for line_no, row in rows:
        d = _parse_date(path, line_no, row[0])
        if d in by_date:
            raise MalformedRow(path, line_no, f"duplicate date {d}")
        values = {col: _parse_float(path, line_no, text, col,
                                    allow_missing=col not in required)
                  for col, text in zip(names, row[1:])}
        check(line_no, values)
        by_date[d] = list(values.values())
    dates = sorted(by_date)
    return dates, _columns(names, [by_date[d] for d in dates])


def load_daily(path: str) -> Keyed:
    """Load daily OHLC plus technical-indicator columns.

    Open/high/low/close must be present, positive and ordered
    (low <= open, close <= high); the indicator columns may have
    missing cells, which become NaN.
    """
    ohlc = ("open", "high", "low", "close")

    def check(line_no: int, v: dict[str, float]) -> None:
        for col in ohlc:
            if v[col] <= 0:
                raise NonPositivePrice(path, line_no, v[col])
        if v["low"] > min(v["open"], v["close"]) or \
                v["high"] < max(v["open"], v["close"]):
            raise MalformedRow(
                path, line_no,
                "OHLC out of order (need low <= open,close <= high)")
        if v["volume"] < 0:
            raise MalformedRow(path, line_no, "negative volume")

    return _load_dated(path, DAILY_HEADER, ohlc, check)


def load_attention(path: str) -> Keyed:
    """Load daily search-attention counts (one row per trading date)."""
    def check(line_no: int, v: dict[str, float]) -> None:
        for col, count in v.items():
            if count < 0:
                raise MalformedRow(path, line_no,
                                   f"negative count for {col!r}")

    return _load_dated(path, ATTENTION_HEADER, (), check)


def load_monthly(path: str) -> Keyed:
    """Load monthly macro indicators; months must be contiguous."""
    _, rows = tables.read(path, MONTHLY_HEADER)
    names = MONTHLY_HEADER[1:]
    # (month, line, values), sorted by month and then by file position
    parsed = sorted(
        (_parse_month(path, line_no, row[0]), line_no,
         [_parse_float(path, line_no, text, col)
          for col, text in zip(names, row[1:])])
        for line_no, row in rows)
    for (prev, _, _), (month, line_no, _) in zip(parsed, parsed[1:]):
        if month == prev:
            raise MalformedRow(path, line_no, f"duplicate month {month}")
        if _next_month(prev) != month:
            raise MalformedRow(
                path, line_no, f"months not contiguous: {prev} -> {month}")
    return ([m for m, _, _ in parsed],
            _columns(names, [v for _, _, v in parsed]))


def _next_month(month: str) -> str:
    year, mon = int(month[:4]), int(month[5:7])
    mon += 1
    if mon > 12:
        mon = 1
        year += 1
    return f"{year:04d}-{mon:02d}"


# ----------------------------------------------------------------------
# Alignment and panel transforms
# ----------------------------------------------------------------------

def month_ids(dates: Sequence[str]
              ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Months of consecutive ``dates`` (their ``YYYY-MM`` prefixes) in
    order of appearance, each date's index into them, and the row at
    which each of them starts."""
    keys = [d[:7] for d in dates]
    starts = [i for i, m in enumerate(keys) if i == 0 or m != keys[i - 1]]
    first_rows = np.array(starts, dtype=np.int64)
    counts = np.diff(first_rows, append=len(keys))
    month_index = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    return [keys[i] for i in starts], month_index, first_rows


def align_mixed_frequency(
    daily: Keyed,
    attention: Keyed,
    monthly: Keyed,
    extra: Mapping[str, Mapping[str, float]] | None = None,
) -> AlignedPanel:
    """Merge daily, attention and monthly data into one daily panel.

    Each argument is a loader's ``(keys, columns)`` pair. The trading
    calendar is taken from ``daily``. Attention values are joined by
    date (absent dates become NaN cells). Every monthly value is
    repeated across all trading days of its month; a trading month
    absent from ``monthly`` raises :class:`UncoveredMonth`.

    ``extra`` maps additional daily column names to ``{date: value}``
    mappings (the realized-volatility outputs use this). When given,
    the panel is restricted to dates covered by every extra column.
    """
    daily_dates, daily_cols = daily
    if not daily_dates:
        raise EmptyPanel("no daily records")
    rows = [i for i, d in enumerate(daily_dates)
            if not extra or all(d in col for col in extra.values())]
    if not rows:
        raise EmptyPanel("no trading dates left after alignment")
    dates = [daily_dates[i] for i in rows]

    months, month_index, _ = month_ids(dates)
    month_row = {m: i for i, m in enumerate(monthly[0])}
    for m in months:
        if m not in month_row:
            raise UncoveredMonth(f"no monthly record for {m}")
    day_month_row = np.array([month_row[m] for m in months],
                             dtype=np.int64)[month_index]
    att_row = {d: i for i, d in enumerate(attention[0])}
    # -1 picks the NaN appended to every attention column
    day_att_row = np.array([att_row.get(d, -1) for d in dates],
                           dtype=np.int64)

    columns = {col: v[rows] for col, v in daily_cols.items()}
    columns.update((col, np.append(v, math.nan)[day_att_row])
                   for col, v in attention[1].items())
    columns.update((col, v[day_month_row]) for col, v in monthly[1].items())
    for name, mapping in (extra or {}).items():
        columns[name] = np.array([mapping[d] for d in dates], dtype=float)
    return AlignedPanel(dates=dates, month_index=month_index, columns=columns)


def fill_missing(panel: AlignedPanel, policy: str = "ffill") -> AlignedPanel:
    """Fill NaN cells column by column.

    ``ffill`` carries the last seen value forward (leading gaps take
    the first available value). ``linear`` interpolates between known
    points and clamps at the ends. A column with no observed value at
    all raises :class:`AllMissingColumn`.
    """
    if policy not in ("ffill", "linear"):
        raise InputError(f"unknown fill policy {policy!r}")
    out = panel.copy()
    for name, col in out.columns.items():
        mask = np.isnan(col)
        if not mask.any():
            continue
        if mask.all():
            raise AllMissingColumn(f"column {name!r} has no observed values")
        idx = np.flatnonzero(~mask)
        if policy == "ffill":
            # indices of the most recent observed cell at or before i
            pos = np.searchsorted(idx, np.arange(len(col)), side="right") - 1
            pos = np.clip(pos, 0, len(idx) - 1)
            out.columns[name] = col[idx[pos]]
        else:
            out.columns[name] = np.interp(np.arange(len(col)), idx, col[idx])
    return out


def normalize(
    panel: AlignedPanel,
    cols: Sequence[str] | None = None,
    stats: Mapping[str, tuple[float, float]] | None = None,
) -> tuple[AlignedPanel, dict[str, tuple[float, float]]]:
    """Z-score columns in place of their raw values.

    When ``stats`` is None, per-column mean and population standard
    deviation are computed from the panel itself and returned, so the
    identical transform can be applied to held-out data later. A
    constant column raises :class:`ZeroVariance`.
    """
    if cols is None:
        cols = list(panel.columns.keys())
    out = panel.copy()
    used: dict[str, tuple[float, float]] = {}
    for name in cols:
        if name not in out.columns:
            raise MissingColumn(f"panel lacks column {name!r}")
        col = out.columns[name]
        if stats is None:
            mean = float(np.mean(col))
            std = float(np.std(col))
        else:
            if name not in stats:
                raise ZeroVariance(f"no stats provided for column {name!r}")
            mean, std = stats[name]
        if not (std > 0) or not math.isfinite(std) or not math.isfinite(mean):
            raise ZeroVariance(f"column {name!r} has no usable variance")
        out.columns[name] = (col - mean) / std
        used[name] = (mean, std)
    return out, used


def chronological_split(
    panel: AlignedPanel, ratio: float
) -> tuple[AlignedPanel, AlignedPanel]:
    """Split the panel into leading train rows and trailing test rows.

    The boundary is ``floor(n_rows * ratio)``; every training date
    strictly precedes every test date.
    """
    if not (0.0 < ratio < 1.0):
        raise InputError(f"split ratio must lie in (0, 1), got {ratio}")
    if panel.n_rows == 0:
        raise EmptyPanel("cannot split an empty panel")
    n_train = int(math.floor(panel.n_rows * ratio))
    return _slice(panel, 0, n_train), _slice(panel, n_train, panel.n_rows)


def _slice(panel: AlignedPanel, lo: int, hi: int) -> AlignedPanel:
    month_index = panel.month_index[lo:hi]
    return AlignedPanel(
        dates=panel.dates[lo:hi],
        month_index=month_index - (month_index[0] if hi > lo else 0),
        columns={k: v[lo:hi].copy() for k, v in panel.columns.items()},
    )
