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
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import tables
from .errors import InputError, MalformedRow

# each table's columns and their tables kinds; blank indicator cells are NaN
INTRADAY_COLUMNS = {"date": tables.DATE, "time_min": tables.INT,
                    "price": tables.FLOAT}
DAILY_COLUMNS = {"date": tables.DATE, **dict.fromkeys(
    ["open", "high", "low", "close"], tables.FLOAT), **dict.fromkeys(
    ["volume", "turn", "boll", "ma5", "ma20", "macd", "rsi", "sobv", "roc"],
    tables.OPTIONAL)}
MONTHLY_COLUMNS = {"month": tables.MONTH, **dict.fromkeys(
    ["meci", "melei", "melai", "cpi", "retailsale", "rpi", "ppi", "m2",
     "finvest", "iop"], tables.OPTIONAL)}
ATTENTION_COLUMNS = {"date": tables.DATE, **dict.fromkeys(
    ["csi300", "csi500", "sse50", "hsparts", "hsetf"], tables.OPTIONAL)}

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
            raise InputError(f"panel lacks columns {missing}")
        return np.column_stack([self.columns[c] for c in cols])

    def copy(self) -> "AlignedPanel":
        return AlignedPanel(
            dates=list(self.dates),
            month_index=self.month_index.copy(),
            columns={k: v.copy() for k, v in self.columns.items()},
        )


# ----------------------------------------------------------------------
# Loaders
# ----------------------------------------------------------------------

def load_intraday(path: str) -> IntradaySeries:
    """Load and validate a 5-minute bar file.

    Every bar lies on the 5-minute grid 0, 5, ..., 235 (minutes into
    the trading day) and no (date, time) pair repeats. Bars may be
    unordered on disk; the series is sorted by (date, time).
    """
    numbered = []    # the rule's distinct days and each row's slot

    def rule(cols: dict, lines) -> None:
        t, p = np.asarray(cols["time_min"], dtype=np.int64), cols["price"]
        # a day has 48 grid slots, so without repeats it holds <= 48 bars
        days, slot = _day_numbers(cols["date"])
        slot *= MAX_BARS_PER_DAY
        slot += t // BAR_MINUTES
        numbered[:] = days, slot
        tables.first_broken(lines, [
            ((t < 0) | (t % BAR_MINUTES != 0)
             | (t >= MAX_BARS_PER_DAY * BAR_MINUTES),
             lambda i, line: MalformedRow(
                 path, line, f"time_min {t[i]} outside 5-minute grid 0..235")),
            (p <= 0, lambda i, line: MalformedRow(
                path, line, f"non-positive price {float(p[i])!r}")),
            (tables.repeats(slot), lambda i, line: MalformedRow(
                path, line, f"duplicate bar for {cols['date'][i]} at "
                f"minute {int(t[i])}")),
        ])

    cols = tables.read(path, INTRADAY_COLUMNS, rule=rule)
    # read returns only after its rule passed every row, so each bar is
    # on the grid and its slot holds its day; each column is dropped as
    # it is copied into the bars
    del cols["date"]
    dates, day = numbered
    day //= MAX_BARS_PER_DAY
    bars = np.empty(len(day), dtype=BAR_DTYPE)
    bars["day"], bars["time_min"], bars["price"] = \
        day, cols.pop("time_min"), cols.pop("price")
    return IntradaySeries(
        dates=dates, bars=bars[np.lexsort((bars["time_min"], bars["day"]))])


def _day_numbers(dates: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ``dates`` in order, and each row's index into them."""
    days = sorted(set(dates))
    rank = dict(zip(days, range(len(days))))
    return days, np.fromiter(map(rank.__getitem__, dates), np.int64,
                             len(dates))


def _load_dated(path: str, columns: Mapping[str, object],
                tests: Callable[[dict], list]) -> Keyed:
    """A table keyed by distinct ISO dates, sorted by date; ``tests``
    gives the table's row tests, for :func:`tables.first_broken`, after
    its check of repeated dates."""
    def rule(cols: dict, lines) -> None:
        tables.first_broken(lines, [
            (tables.repeats(cols["date"]), lambda i, line: MalformedRow(
                path, line, f"duplicate date {cols['date'][i]}")),
            *tests(cols)])

    cols = tables.read(path, columns, rule=rule)
    dates = cols.pop("date")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return [dates[i] for i in order], {k: v[order] for k, v in cols.items()}


def load_daily(path: str) -> Keyed:
    """Load daily OHLC plus technical-indicator columns.

    Open/high/low/close must be present, positive and ordered
    (low <= open, close <= high); the indicator columns may have
    missing cells, which become NaN.
    """
    def tests(cols: dict) -> list:
        ohlc = np.column_stack([cols[c] for c in
                                ("open", "high", "low", "close")])
        open_, high, low, close = ohlc.T
        return [
            ((ohlc <= 0).any(axis=1), lambda i, line: MalformedRow(
                path, line, "non-positive price "
                f"{float(ohlc[i][np.argmax(ohlc[i] <= 0)])!r}")),
            ((low > np.minimum(open_, close))
             | (high < np.maximum(open_, close)),
             lambda i, line: MalformedRow(
                 path, line,
                 "OHLC out of order (need low <= open,close <= high)")),
            (cols["volume"] < 0,
             lambda i, line: MalformedRow(path, line, "negative volume")),
        ]

    return _load_dated(path, DAILY_COLUMNS, tests)


def load_attention(path: str) -> Keyed:
    """Load daily search-attention counts (one row per trading date)."""
    names = list(ATTENTION_COLUMNS)[1:]

    def tests(cols: dict) -> list:
        counts = np.column_stack([cols[c] for c in names])
        return [((counts < 0).any(axis=1), lambda i, line: MalformedRow(
            path, line,
            f"negative count for {names[np.argmax(counts[i] < 0)]!r}"))]

    return _load_dated(path, ATTENTION_COLUMNS, tests)


def load_monthly(path: str) -> Keyed:
    """Load monthly macro indicators; months must be contiguous."""
    def rule(cols: dict, lines) -> None:
        months = cols["month"]
        ids = [int(m[:4]) * 12 + int(m[5:]) for m in months]
        # ties stay in file order, so a repeat is named at its later line
        order = sorted(range(len(ids)), key=ids.__getitem__)
        for prev, i in zip(order, order[1:]):
            if ids[i] == ids[prev]:
                raise MalformedRow(path, lines[i],
                                   f"duplicate month {months[i]}")
            if ids[i] != ids[prev] + 1:
                raise MalformedRow(path, lines[i], "months not contiguous: "
                                   f"{months[prev]} -> {months[i]}")

    cols = tables.read(path, MONTHLY_COLUMNS, rule=rule)
    months = cols.pop("month")
    order = sorted(range(len(months)), key=months.__getitem__)
    return [months[i] for i in order], {k: v[order] for k, v in cols.items()}


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
    extra: Mapping[str, Mapping[str, float]],
) -> AlignedPanel:
    """Merge daily, attention and monthly data into one daily panel.

    Each argument is a loader's ``(keys, columns)`` pair. The trading
    calendar is taken from ``daily``. Attention values are joined by
    date (absent dates become NaN cells). Every monthly value is
    repeated across all trading days of its month; a trading month
    absent from ``monthly`` raises :class:`InputError`.

    ``extra`` maps additional daily column names to ``{date: value}``
    mappings (the realized-volatility outputs use this). The panel is
    restricted to dates covered by every extra column.
    """
    daily_dates, daily_cols = daily
    if not daily_dates:
        raise InputError("no daily records")
    rows = [i for i, d in enumerate(daily_dates)
            if all(d in col for col in extra.values())]
    if not rows:
        raise InputError("no trading dates left after alignment")
    dates = [daily_dates[i] for i in rows]

    months, month_index, _ = month_ids(dates)
    month_row = {m: i for i, m in enumerate(monthly[0])}
    for m in months:
        if m not in month_row:
            raise InputError(f"no monthly record for {m}")
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
    for name, mapping in extra.items():
        columns[name] = np.array([mapping[d] for d in dates], dtype=float)
    return AlignedPanel(dates=dates, month_index=month_index, columns=columns)


def fill_missing(panel: AlignedPanel, policy: str = "ffill") -> AlignedPanel:
    """Fill NaN cells column by column.

    ``ffill`` carries the last seen value forward (leading gaps take
    the first available value). ``linear`` interpolates between known
    points and clamps at the ends. A column with no observed value at
    all raises :class:`InputError`.
    """
    if policy not in ("ffill", "linear"):
        raise InputError(f"unknown fill policy {policy!r}")
    out = panel.copy()
    for name, col in out.columns.items():
        mask = np.isnan(col)
        if not mask.any():
            continue
        if mask.all():
            raise InputError(f"column {name!r} has no observed values")
        idx = np.flatnonzero(~mask)
        if policy == "ffill":
            # indices of the most recent observed cell at or before i
            pos = np.searchsorted(idx, np.arange(len(col)), side="right") - 1
            pos = np.clip(pos, 0, len(idx) - 1)
            out.columns[name] = col[idx[pos]]
        else:
            out.columns[name] = np.interp(np.arange(len(col)), idx, col[idx])
    return out


def normalize(panel: AlignedPanel, cols: Sequence[str], n_train: int
              ) -> tuple[AlignedPanel, dict[str, tuple[float, float]]]:
    """Z-score columns in place of their raw values.

    Each column's mean and population standard deviation come from its
    first ``n_train`` rows only, so held-out rows never shape the
    transform; they are returned beside the panel. A column with no
    usable variance over those rows raises :class:`InputError`.
    """
    out = panel.copy()
    used: dict[str, tuple[float, float]] = {}
    for name in cols:
        if name not in out.columns:
            raise InputError(f"panel lacks column {name!r}")
        col = out.columns[name]
        mean = float(np.mean(col[:n_train]))
        std = float(np.std(col[:n_train]))
        if not (std > 0) or not math.isfinite(std) or not math.isfinite(mean):
            raise InputError(f"column {name!r} has no usable variance")
        out.columns[name] = (col - mean) / std
        used[name] = (mean, std)
    return out, used


def split_boundary(n_rows: int, ratio: float) -> int:
    """Leading train rows of a split by time: ``floor(n_rows * ratio)``."""
    if not 0 < ratio < 1:
        raise InputError(f"split ratio must lie in (0, 1), got {ratio}")
    return math.floor(n_rows * ratio)
