"""Command-line pipeline.

Eight subcommands cover the full workflow::

    mfvol simulate   synthetic scenario with a truth sidecar
    mfvol rv         realized variance from 5-minute bars
    mfvol pca        aligned factor panel with a train/test stamp
    mfvol midas-fit  daily conditional variance from monthly factors
    mfvol train      windowed attention regressor on the factor panel
    mfvol predict    out-of-sample forecasts from a trained model
    mfvol evaluate   loss table for one forecast file
    mfvol ablate     feature-group comparison on one panel

Every option can also come from a ``key = value`` config file passed
as ``--config``; an explicit flag wins over the file, the file wins
over the built-in default. Exit status is 0 on success, 2 on input
problems and 3 on numerical failures.

The pca step stamps each row of ``factors.csv`` as train or test.
Downstream commands reuse that stamp instead of re-deriving their own
boundary, so estimation never sees a held-out row no matter which
command runs first.
"""

from __future__ import annotations

import argparse
import logging
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import evaluation, features, marketdata, realized_vol, tables
from . import transformer as tfm
from .errors import (
    InputError,
    LengthMismatch,
    MalformedRow,
    MissingColumn,
    MissingFile,
    NumericalError,
)

log = logging.getLogger("mfvol")

FACTORS_FIXED = ["date", "split", "ret", "rv"]
H_HEADER = ["date", "tau", "g", "h"]
PRED_HEADER = ["date", "rv_true", "rv_pred"]


# ----------------------------------------------------------------------
# Config file and option resolution
# ----------------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InputError(f"expected a boolean, got {text!r}")


def _parse_names(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise InputError(f"expected a comma-separated list, got {text!r}")
    return names


def load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; ``#`` starts a comment."""
    if not os.path.exists(path):
        raise MissingFile(f"no such config file: {path}")
    out: dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MalformedRow(path, line_no,
                                   f"expected key = value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if not key:
                raise MalformedRow(path, line_no, "empty key")
            out[key] = value.strip()
    return out


class Options:
    """Flag > config-file > default resolution for one subcommand."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if args.config else {}

    def get(self, name: str, default=None, cast=str):
        value = getattr(self.args, name)
        if value is not None:
            return value
        if name in self.config:
            return cast(self.config[name])
        return default

    def require(self, name: str, cast=str):
        value = self.get(name, default=None, cast=cast)
        if value is None:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"missing required option {flag}")
        return value


# ----------------------------------------------------------------------
# Factor table I/O
# ----------------------------------------------------------------------

@dataclass
class FactorTable:
    """In-memory image of ``factors.csv``.

    ``col_order`` preserves the numeric columns in file order;
    ``columns`` may additionally carry a joined ``h`` column.
    """

    dates: list[str]
    split: list[str]
    columns: dict[str, np.ndarray]
    col_order: list[str]

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    @property
    def n_train(self) -> int:
        return sum(1 for s in self.split if s == "train")


def write_factors(table: FactorTable, path: str) -> None:
    tables.write(path, FACTORS_FIXED[:2] + table.col_order,
                 [table.dates, table.split]
                 + [table.columns[c] for c in table.col_order])


def read_factors(path: str) -> FactorTable:
    header, rows = tables.read(path, FACTORS_FIXED, open_ended=True)
    if not rows:
        raise MalformedRow(path, 1, "no data rows")
    dates = [cells[0] for _, cells in rows]
    split = [cells[1] for _, cells in rows]
    for i, (line_no, cells) in enumerate(rows):
        if cells[1] not in ("train", "test"):
            raise MalformedRow(path, line_no,
                               f"split must be train or test, got {cells[1]!r}")
        if i and dates[i] <= dates[i - 1]:
            raise MalformedRow(path, line_no,
                               "dates must be strictly increasing")
    col_order = header[2:]
    columns = {name: tables.floats(path, rows, j)
               for j, name in enumerate(col_order, start=2)}
    return FactorTable(dates=dates, split=split, columns=columns,
                       col_order=col_order)


def write_h(dates: list[str], filtered, path: str) -> None:
    """``date,tau,g,h`` rows for the days a GARCH-MIDAS filter models."""
    tables.write(path, H_HEADER, [dates[filtered.day_slice], filtered.tau,
                                  filtered.g, filtered.h])


def join_h(table: FactorTable, h_path: str) -> FactorTable:
    """Restrict the table to the dates of ``h.csv`` and attach ``h``.

    The conditional-variance file covers a contiguous trailing block
    of the panel (the warm-up months carry no value); anything else
    means the two files came from different runs.
    """
    _, rows = tables.read(h_path, H_HEADER)
    if not rows:
        raise MalformedRow(h_path, 1, "no data rows")
    h_dates = [cells[0] for _, cells in rows]
    h_values = tables.floats(h_path, rows, 3)
    pos = {d: i for i, d in enumerate(table.dates)}
    missing = [d for d in h_dates if d not in pos]
    if missing:
        raise LengthMismatch(
            f"{len(missing)} dates of {h_path} are absent from the factor "
            f"panel (first: {missing[0]})")
    idx = [pos[d] for d in h_dates]
    lo = idx[0]
    if idx != list(range(lo, lo + len(idx))) or idx[-1] != table.n_rows - 1:
        raise LengthMismatch(
            f"{h_path} does not cover a trailing contiguous block of the "
            "factor panel")
    columns = {name: col[lo:].copy() for name, col in table.columns.items()}
    columns["h"] = h_values
    return FactorTable(
        dates=table.dates[lo:],
        split=table.split[lo:],
        columns=columns,
        col_order=list(table.col_order),
    )


def windowed_split(table: FactorTable, feature_names: tuple[str, ...],
                   window: int
                   ) -> tuple[tfm.WindowedDataset, np.ndarray]:
    """Windows over the whole table plus each sample's split label.

    A sample belongs to the split of its target row; inputs always
    predate the target, so test samples may reach back into training
    rows without leaking anything forward.
    """
    missing = [f for f in feature_names if f not in table.columns]
    if missing:
        raise MissingColumn(
            f"factor panel lacks feature columns {missing} "
            f"(available: {sorted(table.columns)})")
    X = np.column_stack([table.columns[f] for f in feature_names])
    y = table.columns["rv"]
    dataset = tfm.build_windows(table.dates, X, y, window,
                                feature_names=feature_names)
    sample_split = np.array(table.split[window:])
    return dataset, sample_split


def subset(dataset: tfm.WindowedDataset, mask: np.ndarray
           ) -> tfm.WindowedDataset:
    idx = np.flatnonzero(mask)
    return tfm.WindowedDataset(
        X=dataset.X[idx].copy(),
        y=dataset.y[idx].copy(),
        dates=[dataset.dates[i] for i in idx],
        feature_names=list(dataset.feature_names),
    )


def _train_config(opts: Options) -> tfm.TrainConfig:
    """The training options that ``train`` and ``ablate`` share."""
    return tfm.TrainConfig(
        window=opts.get("window", 5, int),
        learning_rate=opts.get("lr", 0.05, float),
        batch_size=opts.get("batch", 32, int),
        max_epochs=opts.get("epochs", 200, int),
        seed=opts.get("seed", 0, int),
        shuffle=opts.get("shuffle", False, _parse_bool),
        patience=opts.get("patience", None, int),
        optimizer=opts.get("optimizer", "sgd"),
    )


def _load_windows(opts: Options, feature_names: tuple[str, ...],
                  window: int) -> tuple[tfm.WindowedDataset, np.ndarray]:
    table = read_factors(opts.require("factors"))
    h_file = opts.get("h_file")
    if h_file is not None:
        table = join_h(table, h_file)
    elif "h" in feature_names:
        raise InputError(
            "feature list includes 'h' but no --h-file was given")
    return windowed_split(table, feature_names, window)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_simulate(opts: Options) -> int:
    from . import simlab     # only this subcommand loads the simulator

    out_dir = opts.require("out")
    spec = simlab.ScenarioSpec(
        seed=opts.get("seed", 0, int),
        months=opts.get("months", 40, int),
        days_per_month=opts.get("days_per_month", 21, int),
        bars_per_day=opts.get("bars_per_day", 48, int),
        n_lags=opts.get("n_lags", 6, int),
        cov_rho=opts.get("cov_rho", 0.8, float),
        attention_coef=opts.get("attention_coef", 0.35, float),
        overnight_frac=opts.get("overnight_frac", 0.15, float),
        start_price=opts.get("start_price", 100.0, float),
        start_month=opts.get("start_month", "2015-01"),
    )
    result = simlab.gen_full_scenario(spec, out_dir)
    print(f"scenario seed={spec.seed}: {spec.months} months x "
          f"{spec.days_per_month} days, {spec.bars_per_day} bars/day")
    for name in ("intraday", "daily", "monthly", "attention", "truth"):
        print(f"  wrote {result.paths[name]}")
    return 0


def cmd_rv(opts: Options) -> int:
    series = marketdata.load_intraday(opts.require("intraday"))
    rv = realized_vol.compute_rv_series(series)
    out_csv = opts.get("out_csv", "rv.csv")
    out_sidecar = opts.get("out_sidecar", "rv_lambda.json")
    realized_vol.write_rv(rv, out_csv, out_sidecar)
    print(f"{rv.n_days} days, lambda = {rv.lam:.6f}")
    print(f"  wrote {out_csv}")
    print(f"  wrote {out_sidecar}")
    return 0


def cmd_pca(opts: Options) -> int:
    daily = marketdata.load_daily(opts.require("daily"))
    attention = marketdata.load_attention(opts.require("attention"))
    monthly = marketdata.load_monthly(opts.require("monthly"))
    rv = realized_vol.read_rv(opts.require("rv"))
    ratio = opts.get("ratio", 0.9, float)
    fill = opts.get("fill", "ffill")
    out_dir = opts.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)

    extra = {
        "ret": dict(zip(rv.dates, rv.ret)),
        "rv": dict(zip(rv.dates, rv.rv_adj)),
    }
    panel = marketdata.align_mixed_frequency(daily, attention, monthly,
                                             extra=extra)
    panel = marketdata.fill_missing(panel, policy=fill)
    train_panel, _ = marketdata.chronological_split(panel, ratio)
    n_train = train_panel.n_rows
    if n_train < 2 or n_train == panel.n_rows:
        raise InputError(
            f"ratio {ratio} leaves {n_train} training rows out of "
            f"{panel.n_rows}; nothing to fit or nothing to test")

    member_cols = [c for spec in features.DEFAULT_GROUPS
                   for c in spec.columns]
    _, stats = marketdata.normalize(train_panel, member_cols)
    norm_panel, _ = marketdata.normalize(panel, member_cols, stats=stats)
    factor_panel, models = features.extract_factor_panel(
        norm_panel, features.DEFAULT_GROUPS, n_train=n_train)

    factor_names = [f"{spec.prefix}{j + 1}" for spec in features.DEFAULT_GROUPS
                    for j in range(spec.retain)]
    split = ["train" if i < n_train else "test"
             for i in range(panel.n_rows)]
    table = FactorTable(
        dates=list(factor_panel.dates),
        split=split,
        columns={c: factor_panel.columns[c]
                 for c in ["ret", "rv"] + factor_names},
        col_order=["ret", "rv"] + factor_names,
    )
    factors_path = os.path.join(out_dir, "factors.csv")
    write_factors(table, factors_path)

    stats_path = os.path.join(out_dir, "norm_stats.json")
    with open(stats_path, "w") as fh:
        json.dump({
            "ratio": ratio,
            "n_train": n_train,
            "boundary_date": panel.dates[n_train - 1],
            "stats": {k: list(v) for k, v in stats.items()},
        }, fh, indent=1)
        fh.write("\n")

    print(f"{panel.n_rows} rows, {n_train} train / "
          f"{panel.n_rows - n_train} test")
    print(f"  wrote {factors_path}")
    print(f"  wrote {stats_path}")
    for spec in features.DEFAULT_GROUPS:
        model = models[spec.name]
        path = os.path.join(out_dir, f"pca_{spec.name}.json")
        features.save_model(model, path)
        shares = ", ".join(f"{c:.1%}" for c in model.contributions)
        print(f"  wrote {path} (variance shares: {shares})")
    return 0


def cmd_midas_fit(opts: Options) -> int:
    from . import garch_midas as gm     # loaded only where it is used

    table = read_factors(opts.require("factors"))
    mode = opts.get("mode", "exogenous")
    spec_kwargs = {
        "n_lags": opts.get("n_lags", 12, int),
        "mode": mode,
        "free_w1": opts.get("free_w1", False, _parse_bool),
    }
    link = opts.get("link")
    if link is not None:
        spec_kwargs["tau_link"] = link

    _, month_index, first_rows = marketdata.month_ids(table.dates)
    if mode == "exogenous":
        cov_names = _parse_names(opts.get("covariates", "pcm1,pcm2"))
        missing = [c for c in cov_names if c not in table.columns]
        if missing:
            raise MissingColumn(f"factor panel lacks columns {missing}")
        covariates = np.column_stack(
            [table.columns[c][first_rows] for c in cov_names])
        spec_kwargs["n_covariates"] = len(cov_names)
    else:
        cov_names = ("rv-window",)
        covariates = None

    spec = gm.MidasSpec(**spec_kwargs)
    data = gm.MidasData(returns=table.columns["ret"],
                        month_index=month_index,
                        covariates=covariates,
                        dates=list(table.dates))
    n_train = table.n_train
    if n_train < 1:
        raise InputError("factor panel has no training rows")
    result = gm.fit(spec, data.prefix(n_train),
                    n_restarts=opts.get("restarts", 5, int),
                    seed=opts.get("seed", 0, int),
                    max_iter=opts.get("max_iter", 5000, int))

    out_fit = opts.get("out_fit", "midas_fit.json")
    gm.write_fit(result, out_fit)
    filtered = gm.filter_volatility(spec, result.params, data)
    out_h = opts.get("out_h", "h.csv")
    write_h(table.dates, filtered, out_h)

    p = result.params
    print(f"fit on {n_train} train rows ({mode}, K={spec.n_lags}, "
          f"link={spec.tau_link}), log-likelihood {result.log_lik:.4f}")
    print(f"  mu={p.mu:.6f} alpha={p.alpha:.6f} beta={p.beta:.6f} "
          f"m={p.m:.6f}")
    for j, name in enumerate(cov_names):
        print(f"  {name}: theta={p.theta[j]:.6f} w2={p.w2[j]:.6f}")
    print(f"  wrote {out_fit}")
    print(f"  wrote {out_h} ({len(filtered.h)} modeled days)")
    return 0


def cmd_train(opts: Options) -> int:
    feature_names = _parse_names(
        opts.get("features", "tech1,tech2,tech3,bd1,h"))
    train_config = _train_config(opts)
    dataset, sample_split = _load_windows(opts, feature_names,
                                          train_config.window)
    train_ds = subset(dataset, sample_split == "train")
    if len(train_ds) == 0:
        raise InputError("no training samples after windowing")

    model_config = tfm.ModelConfig(
        n_features=len(feature_names),
        d_model=opts.get("d_model", 12, int),
        n_heads=opts.get("heads", 3, int),
        n_layers=opts.get("layers", 2, int),
        d_ff=opts.get("d_ff", 24, int),
    )
    model, history = tfm.train(train_ds, model_config, train_config)

    out_model = opts.get("out_model", "weights.json")
    tfm.save_model(model, out_model)
    out_history = opts.get("out_history", "loss_history.csv")
    tables.write(out_history, ["epoch", "loss"],
                 [range(1, len(history) + 1), history])

    print(f"trained on {len(train_ds)} samples, features "
          f"{','.join(feature_names)}")
    print(f"  final loss {history[-1]:.6f} after {len(history)} epochs")
    print(f"  wrote {out_model}")
    print(f"  wrote {out_history}")
    return 0


def cmd_predict(opts: Options) -> int:
    model = tfm.load_model(opts.require("model"))
    window = model.train_config.window if model.train_config else 5
    feature_names = tuple(model.feature_names)
    dataset, sample_split = _load_windows(opts, feature_names, window)
    which = opts.get("split", "test")
    if which not in ("train", "test", "all"):
        raise InputError(f"--split must be train, test or all, got {which!r}")
    if which != "all":
        dataset = subset(dataset, sample_split == which)
    if len(dataset) == 0:
        raise InputError(f"no {which} samples to predict")
    pred = tfm.predict(model, dataset)

    out = opts.get("out", "pred.csv")
    tables.write(out, PRED_HEADER, [dataset.dates, dataset.y, pred])
    print(f"{len(dataset)} {which} predictions")
    print(f"  wrote {out}")
    return 0


def read_predictions(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    _, rows = tables.read(path, PRED_HEADER)
    if not rows:
        raise MalformedRow(path, 1, "no data rows")
    return ([cells[0] for _, cells in rows], tables.floats(path, rows, 1),
            tables.floats(path, rows, 2))


def cmd_evaluate(opts: Options) -> int:
    _, truth, pred = read_predictions(opts.require("pred"))
    model_name = opts.get("model_name", "transformer")
    group = opts.get("group", "G4")
    new_rows = [evaluation.evaluate(pred, truth, model=model_name,
                                    group=group)]
    if opts.get("persistence", False, _parse_bool):
        base_pred, base_truth = evaluation.persistence_baseline(truth)
        new_rows.append(evaluation.evaluate(base_pred, base_truth,
                                            model="persistence", group=group))
    out = opts.get("out", "report.csv")
    rows = new_rows
    if opts.get("append", False, _parse_bool) and os.path.exists(out):
        rows = evaluation.read_report(out) + new_rows
    evaluation.write_report(rows, out,
                            footer=not opts.get("no_footer", False,
                                                _parse_bool))
    for row in new_rows:
        print(f"{row.model}/{row.group}: n={row.n} mse={row.mse:.6f} "
              f"qlike={row.qlike:.6f} r2log={row.r2log:.4f}")
    print(f"  wrote {out}")
    return 0


def cmd_ablate(opts: Options) -> int:
    table = read_factors(opts.require("factors"))
    table_h = join_h(table, opts.require("h_file"))
    group_names = _parse_names(opts.get("groups", "G1,G2,G3,G4"))
    # every name is resolved before the first group trains
    group_feats = [evaluation.ablation_features(name) for name in group_names]
    train_config = _train_config(opts)

    rows = []
    test_dates: list[str] | None = None
    mse_by_group: dict[str, float] = {}
    for name, feats in zip(group_names, group_feats):
        source = table_h if "h" in feats else table
        dataset, sample_split = windowed_split(source, feats,
                                               train_config.window)
        model, _ = tfm.train(subset(dataset, sample_split == "train"),
                             None, train_config)
        test_ds = subset(dataset, sample_split == "test")
        if len(test_ds) == 0:
            raise InputError("no test samples after windowing")
        if test_dates is None:
            test_dates = test_ds.dates
        elif test_ds.dates != test_dates:
            raise InputError(
                f"group {name} evaluates different test dates than "
                f"{group_names[0]}; the h file does not cover the test span")
        pred = tfm.predict(model, test_ds)
        row = evaluation.evaluate(pred, test_ds.y, model="transformer",
                                  group=name)
        mse_by_group[name] = row.mse
        rows.append(row)
        log.info("group %s: test mse %.6f", name, row.mse)

    if "test" not in table.split:
        raise InputError("factor panel has no test rows")
    first_test = table.split.index("test")
    rv_seq = table.columns["rv"][max(first_test - 1, 0):]
    base_pred, base_truth = evaluation.persistence_baseline(rv_seq)
    rows.append(evaluation.evaluate(base_pred, base_truth,
                                    model="persistence", group="-"))

    out = opts.get("out", "report.csv")
    evaluation.write_report(rows, out)
    for row in rows:
        print(f"{row.model}/{row.group}: n={row.n} mse={row.mse:.6f} "
              f"qlike={row.qlike:.6f} r2log={row.r2log:.4f}")
    if "G1" in mse_by_group:
        for name in ("G3", "G4"):
            if name in mse_by_group:
                verdict = "<" if mse_by_group[name] < mse_by_group["G1"] \
                    else ">="
                print(f"  mse({name}) {verdict} mse(G1)")
    print(f"  wrote {out}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfvol",
        description="Mixed-frequency stock-volatility forecasting pipeline.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value options file")
        return p

    p = add("simulate", "write a synthetic scenario with known truth")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--months", type=int)
    p.add_argument("--days-per-month", type=int, dest="days_per_month")
    p.add_argument("--bars-per-day", type=int, dest="bars_per_day")
    p.add_argument("--n-lags", type=int, dest="n_lags")
    p.add_argument("--cov-rho", type=float, dest="cov_rho")
    p.add_argument("--attention-coef", type=float, dest="attention_coef")
    p.add_argument("--overnight-frac", type=float, dest="overnight_frac")
    p.add_argument("--start-price", type=float, dest="start_price")
    p.add_argument("--start-month", dest="start_month")

    p = add("rv", "realized variance from 5-minute bars")
    p.add_argument("--intraday", help="intraday.csv path")
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-sidecar", dest="out_sidecar")

    p = add("pca", "aligned factor panel with train/test stamps")
    p.add_argument("--daily")
    p.add_argument("--attention")
    p.add_argument("--monthly")
    p.add_argument("--rv", help="rv.csv from the rv step")
    p.add_argument("--ratio", type=float, help="train fraction (default 0.9)")
    p.add_argument("--fill", choices=["ffill", "linear"])
    p.add_argument("--out-dir", dest="out_dir")

    p = add("midas-fit", "daily conditional variance from monthly factors")
    p.add_argument("--factors", help="factors.csv from the pca step")
    p.add_argument("--mode", choices=["exogenous", "rv-window"])
    p.add_argument("--covariates", help="comma-separated factor columns")
    p.add_argument("--link", choices=["log", "identity"])
    p.add_argument("--n-lags", type=int, dest="n_lags")
    p.add_argument("--free-w1", action="store_const", const=True,
                   dest="free_w1")
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--out-fit", dest="out_fit")
    p.add_argument("--out-h", dest="out_h")

    def add_train_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--window", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--shuffle", action="store_const", const=True)
        p.add_argument("--patience", type=int)
        p.add_argument("--optimizer", choices=["sgd", "adam"])

    p = add("train", "fit the attention regressor on stamped factors")
    p.add_argument("--factors")
    p.add_argument("--h-file", dest="h_file")
    p.add_argument("--features", help="comma-separated feature columns")
    add_train_flags(p)
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--heads", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--d-ff", type=int, dest="d_ff")
    p.add_argument("--out-model", dest="out_model")
    p.add_argument("--out-history", dest="out_history")

    p = add("predict", "forecasts from a trained model")
    p.add_argument("--factors")
    p.add_argument("--h-file", dest="h_file")
    p.add_argument("--model", help="weights.json from the train step")
    p.add_argument("--split", choices=["train", "test", "all"])
    p.add_argument("--out")

    p = add("evaluate", "loss table for one forecast file")
    p.add_argument("--pred", help="pred.csv from the predict step")
    p.add_argument("--model-name", dest="model_name")
    p.add_argument("--group")
    p.add_argument("--persistence", action="store_const", const=True)
    p.add_argument("--append", action="store_const", const=True)
    p.add_argument("--no-footer", action="store_const", const=True,
                   dest="no_footer")
    p.add_argument("--out")

    p = add("ablate", "train and score the feature-group ladder")
    p.add_argument("--factors")
    p.add_argument("--h-file", dest="h_file")
    p.add_argument("--groups", help="comma-separated subset of G1..G4")
    add_train_flags(p)
    p.add_argument("--out")

    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "rv": cmd_rv,
    "pca": cmd_pca,
    "midas-fit": cmd_midas_fit,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        opts = Options(args)
        return COMMANDS[args.command](opts)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
