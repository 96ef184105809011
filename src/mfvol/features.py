"""Principal-component compression of indicator groups.

Three indicator families are reduced to a handful of orthogonal
factors: the ten monthly macro series to two factors (pcm1, pcm2),
twelve daily technical columns to three (tech1..tech3), and the five
search-attention counts to one (bd1). Components come from an
eigendecomposition of the sample covariance of the (already
normalized) member columns; loadings are orthonormal and carry a
deterministic sign, the largest-magnitude entry of each component is
positive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError
from .marketdata import AlignedPanel, month_ids

EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class GroupSpec:
    """One indicator family to compress.

    ``granularity`` is "daily" or "monthly"; monthly groups are fitted
    on one row per month rather than on repeated daily rows.
    """

    name: str
    columns: tuple[str, ...]
    retain: int
    prefix: str
    granularity: str = "daily"


MACRO_GROUP = GroupSpec(
    name="macro",
    columns=("meci", "melei", "melai", "cpi", "retailsale", "rpi", "ppi",
             "m2", "finvest", "iop"),
    retain=2,
    prefix="pcm",
    granularity="monthly",
)

TECH_GROUP = GroupSpec(
    name="tech",
    columns=("turn", "boll", "ma5", "ma20", "macd", "rsi", "sobv", "roc",
             "volume", "high", "low", "open"),
    retain=3,
    prefix="tech",
)

ATTENTION_GROUP = GroupSpec(
    name="attention",
    columns=("csi300", "csi500", "sse50", "hsparts", "hsetf"),
    retain=1,
    prefix="bd",
)

DEFAULT_GROUPS = (MACRO_GROUP, TECH_GROUP, ATTENTION_GROUP)


@dataclass
class PcaModel:
    """Fitted loadings for one indicator group."""

    group: str
    columns: tuple[str, ...]
    means: np.ndarray
    loadings: np.ndarray       # (p, k), orthonormal columns
    variances: np.ndarray      # (k,) component variances, descending
    contributions: np.ndarray  # (k,) share of total variance

    @property
    def retain(self) -> int:
        return self.loadings.shape[1]

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "columns": list(self.columns),
            "means": self.means.tolist(),
            "loadings": self.loadings.tolist(),
            "variances": self.variances.tolist(),
            "contributions": self.contributions.tolist(),
        }


def save_model(model: PcaModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model.to_json(), fh, indent=1)
        fh.write("\n")


def fit_pca(data: np.ndarray, retain: int, group: str = "",
            columns: Sequence[str] | None = None) -> PcaModel:
    """Fit principal components on rows of ``data``.

    Parameters
    ----------
    data : ndarray, shape (n, p)
        Observations in rows, n > p recommended. Must be free of NaN.
    retain : int
        Number of leading components to keep, 1 <= retain <= p.

    Raises
    ------
    InputError
        On a malformed matrix or an out-of-range ``retain``.
    NumericalError
        When a retained component has (near-)zero variance.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] < 1:
        raise InputError(f"need a 2-d matrix with >= 2 rows, got {data.shape}")
    n, p = data.shape
    if not (1 <= retain <= p):
        raise InputError(f"retain must lie in 1..{p}, got {retain}")
    if not np.all(np.isfinite(data)):
        raise InputError("data contains non-finite values")

    means = data.mean(axis=0)
    centered = data - means
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if eigvals[retain - 1] < EIGENVALUE_FLOOR:
        raise NumericalError(
            f"component {retain} has variance {eigvals[retain - 1]:.3e}")

    loadings = eigvecs[:, :retain].copy()
    for j in range(retain):
        pivot = int(np.argmax(np.abs(loadings[:, j])))
        if loadings[pivot, j] < 0:
            loadings[:, j] = -loadings[:, j]

    total = float(np.trace(cov))
    contributions = eigvals[:retain] / total
    if columns is None:
        columns = tuple(f"x{i + 1}" for i in range(p))
    return PcaModel(
        group=group,
        columns=tuple(columns),
        means=means,
        loadings=loadings,
        variances=eigvals[:retain].copy(),
        contributions=contributions,
    )


def transform(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Project rows onto the retained components."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != model.loadings.shape[0]:
        raise InputError(
            f"expected (n, {model.loadings.shape[0]}), got {data.shape}")
    return (data - model.means) @ model.loadings


def inverse_transform(model: PcaModel, scores: np.ndarray) -> np.ndarray:
    """Map scores back to the original column space."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != model.loadings.shape[1]:
        raise InputError(
            f"expected (n, {model.loadings.shape[1]}), got {scores.shape}")
    return scores @ model.loadings.T + model.means


def extract_factor_panel(
    panel: AlignedPanel, groups: Sequence[GroupSpec], n_train: int
) -> tuple[AlignedPanel, dict[str, PcaModel]]:
    """Append factor columns for every group to a copy of the panel.

    Loadings are fitted on the first ``n_train`` rows only, so held-out
    rows never shape the factors. Monthly groups are fitted on one row
    per month; the months considered are those that contribute at
    least one training row.
    """
    if not (0 < n_train <= panel.n_rows):
        raise InputError(
            f"n_train must lie in 1..{panel.n_rows}, got {n_train}")

    out = panel.copy()
    models: dict[str, PcaModel] = {}
    for spec in groups:
        missing = [c for c in spec.columns if c not in panel.columns]
        if missing:
            raise InputError(f"group {spec.name!r} lacks columns {missing}")
        full = panel.matrix(spec.columns)
        if spec.granularity == "monthly":
            _, _, first_rows = month_ids(panel.dates)
            month_matrix = full[first_rows]
            train_months = int(panel.month_index[n_train - 1]) + 1
            model = fit_pca(month_matrix[:train_months], spec.retain,
                            group=spec.name, columns=spec.columns)
            month_scores = transform(model, month_matrix)
            scores = month_scores[panel.month_index]
        else:
            model = fit_pca(full[:n_train], spec.retain,
                            group=spec.name, columns=spec.columns)
            scores = transform(model, full)
        for j in range(spec.retain):
            out.columns[f"{spec.prefix}{j + 1}"] = scores[:, j].copy()
        models[spec.name] = model
    return out, models
