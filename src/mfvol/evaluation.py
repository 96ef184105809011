"""Forecast accuracy measures and the ablation layout.

All losses compare a forecast series h against realized values rv, by
the formulas of :data:`FORMULA_FOOTER`, which ends every report. Except
for r2log, lower is better.

The ablation grid fixes four nested feature sets for the regressor:
technical factors alone (G1), plus the attention factor (G2), plus the
conditional-volatility input (G3), or both additions (G4).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tables
from .errors import InputError

log = logging.getLogger(__name__)

# also the field names of EvalRow, in order
REPORT_COLUMNS = {"model": tables.TEXT, "group": tables.TEXT, "n": tables.INT,
                  **dict.fromkeys(["mse", "hmse", "mae", "mape", "qlike",
                                   "r2log"], tables.FLOAT)}

FORMULA_FOOTER = [
    "# mse   = mean((rv - h)^2)",
    "# hmse  = mean((1 - h/rv)^2)",
    "# mae   = mean(|rv - h|)",
    "# mape  = mean(|1 - h/rv|)",
    "# qlike = mean(ln h + rv/h)",
    "# r2log = R^2 of OLS ln rv ~ ln h (higher is better)",
]

ABLATION_GROUPS: dict[str, tuple[str, ...]] = {
    "G1": ("tech1", "tech2", "tech3"),
    "G2": ("tech1", "tech2", "tech3", "bd1"),
    "G3": ("tech1", "tech2", "tech3", "h"),
    "G4": ("tech1", "tech2", "tech3", "bd1", "h"),
}


def _pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise InputError(f"pred {pred.shape} vs truth {truth.shape}")
    if pred.size == 0:
        raise InputError("empty series")
    return pred, truth


def mse(pred, truth) -> float:
    pred, truth = _pair(pred, truth)
    return float(np.mean((truth - pred) ** 2))


def hmse(pred, truth) -> float:
    pred, truth = _pair(pred, truth)
    if np.any(truth <= 0):
        raise InputError("hmse needs positive realized values")
    return float(np.mean((1.0 - pred / truth) ** 2))


def mae(pred, truth) -> float:
    pred, truth = _pair(pred, truth)
    return float(np.mean(np.abs(truth - pred)))


def mape(pred, truth) -> float:
    pred, truth = _pair(pred, truth)
    if np.any(truth <= 0):
        raise InputError("mape needs positive realized values")
    return float(np.mean(np.abs(1.0 - pred / truth)))


def qlike(pred, truth) -> float:
    pred, truth = _pair(pred, truth)
    if np.any(pred <= 0):
        raise InputError("qlike needs positive forecasts")
    return float(np.mean(np.log(pred) + truth / pred))


def r2log(pred, truth) -> float:
    """R-squared of regressing log realized variance on log forecast."""
    pred, truth = _pair(pred, truth)
    if len(pred) < 3:
        raise InputError("r2log needs at least 3 observations")
    if np.any(pred <= 0):
        raise InputError("r2log needs positive forecasts")
    if np.any(truth <= 0):
        raise InputError("r2log needs positive realized values")
    x = np.log(pred)
    y = np.log(truth)
    if np.ptp(y) == 0:
        raise InputError("log realized values are constant")
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0:
        return 0.0
    slope = float(np.sum((x - x.mean()) * (y - y.mean()))) / sxx
    resid = y - (y.mean() + slope * (x - x.mean()))
    sst = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - float(np.sum(resid ** 2)) / sst


@dataclass
class EvalRow:
    model: str
    group: str
    n: int
    mse: float
    hmse: float
    mae: float
    mape: float
    qlike: float
    r2log: float


def evaluate(pred, truth, model: str = "transformer",
             group: str = "G4") -> EvalRow:
    """All six measures of the pairs given. Which days count is
    :func:`score`'s rule, so a series with a non-positive value is
    scored through it, as its one entry."""
    pred, truth = _pair(pred, truth)
    if not ((truth > 0) & (pred > 0)).all():
        return score({(model, group): pred}, truth)[0]
    return EvalRow(model, group, len(pred), *(
        measure(pred, truth) for measure in (mse, hmse, mae, mape, qlike,
                                             r2log)))


def score(forecasts: dict[tuple[str, str], np.ndarray],
          truth) -> list[EvalRow]:
    """One :func:`evaluate` row per ``(model, group): forecast`` entry, in
    order, all on the days with a positive truth and a positive forecast
    in every entry: the one rule for which days count. Fewer than 3
    such days (r2log's minimum) is an error; where days are left out,
    one warning says how many remain."""
    truth = np.asarray(truth, dtype=float)
    keep = truth > 0
    for pred in forecasts.values():
        keep = keep & (_pair(pred, truth)[0] > 0)
    labels, kept = ", ".join(f"{m}/{g}" for m, g in forecasts), keep.sum()
    if kept < 3:
        raise InputError(f"scoring {labels}: only {kept} of {len(keep)} days "
                         "have a positive truth and a positive forecast; "
                         "at least 3 are needed")
    if kept < len(keep):
        log.warning("score: scored %s on %d of %d days, leaving out those "
                    "with a non-positive value", labels, kept, len(keep))
    return [evaluate(np.asarray(pred, dtype=float)[keep], truth[keep],
                     model=model, group=group)
            for (model, group), pred in forecasts.items()]


def persistence_baseline(rv, first: int) -> np.ndarray:
    """The previous day's realized value as the forecast of rows
    ``first...`` of ``rv``."""
    rv = np.asarray(rv, dtype=float)
    if not 1 <= first < len(rv):
        raise InputError(f"persistence needs a previous day for rows "
                         f"{first}... of {len(rv)}")
    return rv[first - 1:-1]


def ablation_features(group: str) -> tuple[str, ...]:
    if group not in ABLATION_GROUPS:
        raise InputError(
            f"unknown ablation group {group!r}; pick from "
            f"{sorted(ABLATION_GROUPS)}")
    return ABLATION_GROUPS[group]


# ----------------------------------------------------------------------
# Report files
# ----------------------------------------------------------------------

def write_report(rows: Sequence[EvalRow], path: str,
                 footer: bool = True) -> None:
    # read_report strips every cell and skips a row that starts with '#'
    for name in (n for row in rows for n in (row.model, row.group)):
        if name != name.strip() or name.startswith("#"):
            raise InputError(f"cannot write {path}: the name {name!r} would "
                             "not read back, as it starts with '#' or starts "
                             "or ends with whitespace")
    tables.write(path, list(REPORT_COLUMNS),
                 [[getattr(row, name) for row in rows]
                  for name in REPORT_COLUMNS],
                 footer=FORMULA_FOOTER if footer else ())


def read_report(path: str) -> list[EvalRow]:
    cols = tables.read(path, REPORT_COLUMNS, comment="#")
    return [EvalRow(*row) for row in zip(*(
        c.tolist() if isinstance(c, np.ndarray) else c for c in cols.values()))]
