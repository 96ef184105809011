"""Loading and alignment of mixed-frequency market data.

Three native frequencies flow into one daily panel:

* 5-minute intraday prices (one CSV row per bar),
* daily technical/OHLC records plus daily search-attention counts,
* monthly macroeconomic indicators.

Monthly values are repeated across every trading day of their month so
that downstream models can treat the panel as a plain daily matrix.
Trading-day identity is the exact ISO date string; no calendar
arithmetic is performed on dates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date as _date
from typing import Mapping, Sequence

import numpy as np

from . import tables
from .errors import (
    AllMissingColumn,
    DuplicateBar,
    EmptyPanel,
    InputError,
    MalformedRow,
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


@dataclass(frozen=True)
class Bar:
    date: str
    time_min: int
    price: float


@dataclass
class IntradaySeries:
    """Validated, time-sorted intraday bars for one instrument."""

    instrument: str
    bars: list[Bar]

    def days(self) -> list[tuple[str, list[Bar]]]:
        """Group bars by trading date, preserving chronological order."""
        out: dict[str, list[Bar]] = {}
        for bar in self.bars:
            out.setdefault(bar.date, []).append(bar)
        return list(out.items())


@dataclass(frozen=True)
class DailyRecord:
    date: str
    open: float
    high: float
    low: float
    close: float
    volume: float
    turn: float
    boll: float
    ma5: float
    ma20: float
    macd: float
    rsi: float
    sobv: float
    roc: float


@dataclass(frozen=True)
class MonthlyRecord:
    month: str
    meci: float
    melei: float
    melai: float
    cpi: float
    retailsale: float
    rpi: float
    ppi: float
    m2: float
    finvest: float
    iop: float


@dataclass(frozen=True)
class AttentionRecord:
    date: str
    csi300: float
    csi500: float
    sse50: float
    hsparts: float
    hsetf: float


DAILY_FEATURE_COLUMNS = DAILY_HEADER[1:]
MONTHLY_FEATURE_COLUMNS = MONTHLY_HEADER[1:]
ATTENTION_FEATURE_COLUMNS = ATTENTION_HEADER[1:]


@dataclass
class AlignedPanel:
    """Daily panel with monthly covariates repeated within each month.

    Attributes
    ----------
    dates : list of str
        Trading dates, strictly increasing.
    months : list of str
        Unique months covering ``dates``, in chronological order.
    month_index : ndarray of int
        For each row, the index of its month in ``months``.
    day_of_month : ndarray of int
        1-based position of the row within its trading month.
    columns : dict of str -> ndarray
        All numeric columns, each of length ``len(dates)``.
    """

    dates: list[str]
    months: list[str]
    month_index: np.ndarray
    day_of_month: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    def matrix(self, cols: Sequence[str]) -> np.ndarray:
        from .errors import MissingColumn

        missing = [c for c in cols if c not in self.columns]
        if missing:
            raise MissingColumn(f"panel lacks columns {missing}")
        return np.column_stack([self.columns[c] for c in cols])

    def copy(self) -> "AlignedPanel":
        return AlignedPanel(
            dates=list(self.dates),
            months=list(self.months),
            month_index=self.month_index.copy(),
            day_of_month=self.day_of_month.copy(),
            columns={k: v.copy() for k, v in self.columns.items()},
        )


# ----------------------------------------------------------------------
# Cell parsing
# ----------------------------------------------------------------------

def _parse_date(path: str, line: int, text: str) -> str:
    try:
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


# ----------------------------------------------------------------------
# Loaders
# ----------------------------------------------------------------------

def load_intraday(path: str, instrument: str = "default") -> IntradaySeries:
    """Load and validate a 5-minute bar file.

    The file must contain at most 48 bars per date, on the 5-minute
    grid 0, 5, ..., 235 (minutes into the trading day). Bars may be
    unordered on disk; the returned series is sorted by (date, time).
    """
    _, rows = tables.read(path, INTRADAY_HEADER)
    bars: list[Bar] = []
    seen: set[tuple[str, int]] = set()
    per_day: dict[str, int] = {}
    for line_no, (d_text, t_text, p_text) in rows:
        d = _parse_date(path, line_no, d_text)
        try:
            t = int(t_text)
        except ValueError:
            raise MalformedRow(path, line_no, f"bad time_min {t_text!r}")
        if t < 0 or t % BAR_MINUTES != 0 or t >= MAX_BARS_PER_DAY * BAR_MINUTES:
            raise MalformedRow(
                path, line_no,
                f"time_min {t} outside 5-minute grid 0..235")
        price = _parse_float(path, line_no, p_text, "price", allow_missing=False)
        if price <= 0:
            raise NonPositivePrice(path, line_no, price)
        key = (d, t)
        if key in seen:
            raise DuplicateBar(d, t)
        seen.add(key)
        per_day[d] = per_day.get(d, 0) + 1
        if per_day[d] > MAX_BARS_PER_DAY:
            raise MalformedRow(
                path, line_no, f"more than {MAX_BARS_PER_DAY} bars for {d}")
        bars.append(Bar(d, t, price))
    bars.sort(key=lambda b: (b.date, b.time_min))
    return IntradaySeries(instrument=instrument, bars=bars)


def load_daily(path: str) -> list[DailyRecord]:
    """Load daily OHLC plus technical-indicator records.

    Open/high/low/close must be present, positive and ordered
    (low <= open, close <= high); the indicator columns may have
    missing cells, which become NaN.
    """
    _, rows = tables.read(path, DAILY_HEADER)
    records: list[DailyRecord] = []
    seen: set[str] = set()
    for line_no, row in rows:
        d = _parse_date(path, line_no, row[0])
        if d in seen:
            raise MalformedRow(path, line_no, f"duplicate date {d}")
        seen.add(d)
        values: dict[str, float] = {}
        for col, text in zip(DAILY_HEADER[1:], row[1:]):
            required = col in ("open", "high", "low", "close")
            values[col] = _parse_float(path, line_no, text, col,
                                       allow_missing=not required)
        for col in ("open", "high", "low", "close"):
            if values[col] <= 0:
                raise NonPositivePrice(path, line_no, values[col])
        if values["low"] > min(values["open"], values["close"]) or \
                values["high"] < max(values["open"], values["close"]):
            raise MalformedRow(
                path, line_no,
                "OHLC out of order (need low <= open,close <= high)")
        if not math.isnan(values["volume"]) and values["volume"] < 0:
            raise MalformedRow(path, line_no, "negative volume")
        records.append(DailyRecord(date=d, **values))
    records.sort(key=lambda r: r.date)
    return records


def load_monthly(path: str) -> list[MonthlyRecord]:
    """Load monthly macro indicators; months must be contiguous."""
    _, rows = tables.read(path, MONTHLY_HEADER)
    records: list[MonthlyRecord] = []
    for line_no, row in rows:
        m = _parse_month(path, line_no, row[0])
        values = {
            col: _parse_float(path, line_no, text, col)
            for col, text in zip(MONTHLY_HEADER[1:], row[1:])
        }
        records.append((line_no, MonthlyRecord(month=m, **values)))
    records.sort(key=lambda pair: pair[1].month)
    out: list[MonthlyRecord] = []
    prev: MonthlyRecord | None = None
    for line_no, rec in records:
        if prev is not None:
            if rec.month == prev.month:
                raise MalformedRow(path, line_no, f"duplicate month {rec.month}")
            if _next_month(prev.month) != rec.month:
                raise MalformedRow(
                    path, line_no,
                    f"months not contiguous: {prev.month} -> {rec.month}")
        out.append(rec)
        prev = rec
    return out


def load_attention(path: str) -> list[AttentionRecord]:
    """Load daily search-attention counts (one record per trading date)."""
    _, rows = tables.read(path, ATTENTION_HEADER)
    records: list[AttentionRecord] = []
    seen: set[str] = set()
    for line_no, row in rows:
        d = _parse_date(path, line_no, row[0])
        if d in seen:
            raise MalformedRow(path, line_no, f"duplicate date {d}")
        seen.add(d)
        values: dict[str, float] = {}
        for col, text in zip(ATTENTION_HEADER[1:], row[1:]):
            v = _parse_float(path, line_no, text, col)
            if not math.isnan(v) and v < 0:
                raise MalformedRow(path, line_no, f"negative count for {col!r}")
            values[col] = v
        records.append(AttentionRecord(date=d, **values))
    records.sort(key=lambda r: r.date)
    return records


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
    daily: Sequence[DailyRecord],
    attention: Sequence[AttentionRecord],
    monthly: Sequence[MonthlyRecord],
    extra: Mapping[str, Mapping[str, float]] | None = None,
) -> AlignedPanel:
    """Merge daily, attention and monthly data into one daily panel.

    The trading calendar is taken from ``daily``. Attention values are
    joined by date (absent dates become NaN cells). Every monthly value
    is repeated across all trading days of its month; a trading month
    absent from ``monthly`` raises :class:`UncoveredMonth`.

    ``extra`` maps additional daily column names to ``{date: value}``
    mappings (the realized-volatility outputs use this). When given,
    the panel is restricted to dates covered by every extra column.
    """
    if not daily:
        raise EmptyPanel("no daily records")
    dates = [rec.date for rec in daily]
    daily_by_date = {rec.date: rec for rec in daily}
    if extra:
        dates = [d for d in dates if all(d in col for col in extra.values())]
    if not dates:
        raise EmptyPanel("no trading dates left after alignment")

    monthly_by_month = {rec.month: rec for rec in monthly}
    months, month_index, first_rows = month_ids(dates)
    for m in months:
        if m not in monthly_by_month:
            raise UncoveredMonth(f"no monthly record for {m}")
    day_of_month = np.arange(1, len(dates) + 1) - first_rows[month_index]

    att_by_date = {rec.date: rec for rec in attention}
    columns: dict[str, np.ndarray] = {}
    for col in DAILY_FEATURE_COLUMNS:
        columns[col] = np.array(
            [getattr(daily_by_date[d], col) for d in dates], dtype=float)
    for col in ATTENTION_FEATURE_COLUMNS:
        columns[col] = np.array(
            [getattr(att_by_date[d], col) if d in att_by_date else math.nan
             for d in dates], dtype=float)
    for col in MONTHLY_FEATURE_COLUMNS:
        per_month = np.array(
            [getattr(monthly_by_month[m], col) for m in months], dtype=float)
        columns[col] = per_month[month_index]
    if extra:
        for name, mapping in extra.items():
            columns[name] = np.array([mapping[d] for d in dates], dtype=float)

    return AlignedPanel(
        dates=dates,
        months=months,
        month_index=month_index,
        day_of_month=day_of_month,
        columns=columns,
    )


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
            from .errors import MissingColumn

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
    dates = panel.dates[lo:hi]
    sub_idx = panel.month_index[lo:hi]
    months: list[str] = []
    remap: dict[int, int] = {}
    for mi in sub_idx:
        if int(mi) not in remap:
            remap[int(mi)] = len(months)
            months.append(panel.months[int(mi)])
    month_index = np.array([remap[int(mi)] for mi in sub_idx], dtype=np.int64)
    return AlignedPanel(
        dates=dates,
        months=months,
        month_index=month_index,
        day_of_month=panel.day_of_month[lo:hi].copy(),
        columns={k: v[lo:hi].copy() for k, v in panel.columns.items()},
    )
