"""Command-line pipeline: eight subcommands, from ``simulate`` to
``ablate``, each declared with its options in :data:`OPTIONS`.

Every option can also come from a ``key = value`` config file passed
as ``--config``; an explicit flag wins over the file, the file wins
over the built-in default. Flag and file values pass the same casts
and choices, and a key the subcommand does not take, or one given
twice, is an error. Exit status is 0 on success, 2 on input problems
and 3 on numerical failures.

The pca step decides the one train/test boundary, a row count, and
``factors.csv`` records it as leading train rows and trailing test
rows. Every downstream command reads that count back (interleaved
stamps are a bad input), so estimation never sees a held-out row.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from . import evaluation, features, marketdata, realized_vol, tables
from .errors import InputError, MalformedRow, NumericalError

if TYPE_CHECKING:
    # the functions that train or run the encoder import it themselves,
    # so rv, pca and midas-fit do not load it
    from . import transformer as tfm

log = logging.getLogger("mfvol")

# each table's columns and their kinds; factors.csv's further ones are FLOAT
FACTORS_COLUMNS = {"date": tables.KEY, "split": ("train", "test"),
                   "ret": tables.FLOAT, "rv": tables.FLOAT}
H_COLUMNS = {"date": tables.KEY, **dict.fromkeys(["tau", "g", "h"],
                                                 tables.FLOAT)}
PRED_COLUMNS = {"date": tables.KEY, "rv_true": tables.FLOAT,
                "rv_pred": tables.FLOAT}


# ----------------------------------------------------------------------
# Options: one table, cast and checked the same way from flag or file
# ----------------------------------------------------------------------

REQUIRED = object()     # the default of an option that must be given


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return seed


def _parse_names(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names or len(set(names)) < len(names):
        raise ValueError(f"expected a comma-separated list of distinct "
                         f"names, got {text!r}")
    return names


TRAINING = {
    "window": (int, "5"), "lr": (float, "0.05"), "batch": (int, "32"),
    "epochs": (int, "200"), "seed": (_parse_seed, "0"),
    "shuffle": (_parse_bool, "false"), "patience": (int, None),
    "optimizer": (("sgd", "adam"), "sgd"),
}

# Each subcommand's options in flag order, as name -> (cast or tuple of
# choices, default text). A default of None leaves the option unset.
# The options cast by _parse_bool are switches.
OPTIONS = {
    "simulate": {
        "out": (str, REQUIRED), "seed": (_parse_seed, "0"),
        "months": (int, "40"), "days_per_month": (int, "21"),
        "bars_per_day": (int, "48"), "n_lags": (int, "6"),
        "cov_rho": (float, "0.8"),
        "attention_coef": (float, "0.35"), "overnight_frac": (float, "0.15"),
        "start_price": (float, "100.0"), "start_month": (str, "2015-01"),
    },
    "rv": {
        "intraday": (str, REQUIRED), "out_csv": (str, "rv.csv"),
        "out_sidecar": (str, "rv_lambda.json"),
    },
    "pca": {
        "daily": (str, REQUIRED), "attention": (str, REQUIRED),
        "monthly": (str, REQUIRED), "rv": (str, REQUIRED),
        "ratio": (float, "0.9"), "fill": (("ffill", "linear"), "ffill"),
        "out_dir": (str, "."),
    },
    "midas-fit": {
        "factors": (str, REQUIRED), "covariates": (_parse_names, "pcm1,pcm2"),
        "n_lags": (int, "12"), "restarts": (int, "5"),
        "seed": (_parse_seed, "0"), "max_iter": (int, "5000"),
        "out_fit": (str, "midas_fit.json"), "out_h": (str, "h.csv"),
    },
    "train": {
        "factors": (str, REQUIRED), "h_file": (str, None),
        "features": (_parse_names, "tech1,tech2,tech3,bd1,h"), **TRAINING,
        "d_model": (int, "12"), "heads": (int, "3"), "layers": (int, "2"),
        "d_ff": (int, "24"), "out_model": (str, "weights.json"),
        "out_history": (str, "loss_history.csv"),
    },
    "predict": {
        "factors": (str, REQUIRED), "h_file": (str, None),
        "model": (str, REQUIRED), "split": (("train", "test", "all"), "test"),
        "out": (str, "pred.csv"),
    },
    "evaluate": {
        "pred": (str, REQUIRED), "model_name": (str, "transformer"),
        "group": (str, "G4"), "persistence": (_parse_bool, "false"),
        "append": (_parse_bool, "false"), "no_footer": (_parse_bool, "false"),
        "out": (str, "report.csv"),
    },
    "ablate": {
        "factors": (str, REQUIRED), "h_file": (str, REQUIRED),
        "groups": (_parse_names, "G1,G2,G3,G4"), **TRAINING,
        "out": (str, "report.csv"),
    },
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; ``#`` starts a comment."""
    if not os.path.exists(path):
        raise InputError(f"no such config file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise tables.utf8_error(path) from None
    out: dict[str, str] = {}
    for line_no, raw in enumerate(lines, start=1):
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
        if key in out:
            raise MalformedRow(path, line_no, f"repeated key {key!r}")
        out[key] = value.strip()
    return out


def _cast(kind, text: str, name: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise InputError(f"{_flag(name)} must be one of "
                             f"{', '.join(kind)}, got {text!r}")
        return text
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"bad value {text!r} for {_flag(name)}") from None


def resolve(command: str, args: argparse.Namespace) -> argparse.Namespace:
    """Every option of ``command``, typed: the flag's text, else the
    config file's, else the default, through one cast and check."""
    table = OPTIONS[command]
    config = load_config(args.config) if args.config else {}
    for key in config:
        if key not in table:
            raise InputError(f"{args.config}: {command} takes no option "
                             f"{key!r}")
    values = {}
    for name, (kind, default) in table.items():
        text = getattr(args, name)
        if text == []:
            # argparse drops the "--" of "--out=--" and hands on a list
            text = "--"
        if text is None:
            text = config.get(name, default)
        if text is REQUIRED:
            raise InputError(f"missing required option {_flag(name)}")
        values[name] = None if text is None else _cast(kind, text, name)
    return argparse.Namespace(**values)


# ----------------------------------------------------------------------
# Factor table I/O
# ----------------------------------------------------------------------

def write_factors(panel: marketdata.Panel, path: str) -> None:
    split = ["train"] * panel.n_train
    split += ["test"] * (panel.n_rows - panel.n_train)
    tables.write(path, list(FACTORS_COLUMNS)[:2] + list(panel.columns),
                 [panel.dates, split, *panel.columns.values()])


def read_factors(path: str) -> marketdata.Panel:
    """The panel of ``factors.csv``, whose ``train`` rows must all
    precede its ``test`` rows: a ``train`` row after a ``test`` row is a
    bad row."""
    def train_first(cols: dict) -> list:
        train = np.array([s == "train" for s in cols["split"]], dtype=bool)
        after_test = np.zeros(len(train), dtype=bool)
        after_test[1:] = train[1:] & ~train[:-1]
        return [(after_test, lambda i: "train row after a test row; every "
                 "train row must precede every test row")]

    columns = tables.read(path, FACTORS_COLUMNS, rest=tables.FLOAT,
                          tests=train_first)
    dates, split = columns.pop("date"), columns.pop("split")
    return marketdata.Panel(dates=dates, columns=columns,
                            n_train=split.count("train"))


def write_h(dates: list[str], filtered, path: str) -> None:
    """``date,tau,g,h`` rows for the days a GARCH-MIDAS filter models."""
    tables.write(path, list(H_COLUMNS),
                 [dates[filtered.day_slice], filtered.tau, filtered.g,
                  filtered.h])


def join_h(panel: marketdata.Panel, h_path: str) -> marketdata.Panel:
    """Restrict the panel to the dates of ``h.csv`` and attach ``h``.

    The conditional-variance file covers a contiguous trailing block
    of the panel (the warm-up months carry no value); anything else
    means the two files came from different runs.
    """
    h = tables.read(h_path, H_COLUMNS)
    lo = panel.n_rows - len(h["date"])
    if lo < 0 or panel.dates[lo:] != h["date"]:
        raise InputError(
            f"{h_path} does not cover a trailing contiguous block of the "
            "factor panel")
    columns = {name: col[lo:] for name, col in panel.columns.items()}
    columns["h"] = h["h"]
    return marketdata.Panel(dates=panel.dates[lo:], columns=columns,
                            n_train=max(panel.n_train - lo, 0))


def windowed_split(panel: marketdata.Panel, feature_names: tuple[str, ...],
                   window: int) -> tuple[tfm.WindowedDataset, int]:
    """Windows over the whole panel, and how many of them, from the
    first, are training samples.

    A sample belongs to the split of its target row; inputs always
    predate the target, so test samples may reach back into training
    rows without leaking anything forward.
    """
    from . import transformer as tfm

    missing = [f for f in feature_names if f not in panel.columns]
    if missing:
        raise InputError(
            f"factor panel lacks feature columns {missing} "
            f"(available: {sorted(panel.columns)})")
    X = np.column_stack([panel.columns[f] for f in feature_names])
    y = panel.columns["rv"]
    dataset = tfm.build_windows(panel.dates, X, y, window, feature_names)
    return dataset, max(panel.n_train - window, 0)


def _train_config(o: argparse.Namespace) -> tfm.TrainConfig:
    """The training options that ``train`` and ``ablate`` share."""
    from . import transformer as tfm

    return tfm.TrainConfig(
        window=o.window, learning_rate=o.lr, batch_size=o.batch,
        max_epochs=o.epochs, seed=o.seed, shuffle=o.shuffle,
        patience=o.patience, optimizer=o.optimizer)


def _read_panel(o: argparse.Namespace, feature_names) -> marketdata.Panel:
    """``--factors``, cut to the days ``--h-file`` covers if one is given."""
    panel = read_factors(o.factors)
    if o.h_file is None and "h" in feature_names:
        raise InputError("feature list includes 'h' but no --h-file was given")
    return panel if o.h_file is None else join_h(panel, o.h_file)


@contextlib.contextmanager
def _kept_log():
    """The package's log records of the block, kept in a list instead of
    shown, so that they can be shown later in the calling process."""
    records = []
    keep = logging.Handler()
    keep.emit = records.append
    log.addHandler(keep)
    log.propagate = False
    try:
        yield records
    finally:
        log.removeHandler(keep)
        log.propagate = True


def _print_rows(rows: list[evaluation.EvalRow]) -> None:
    for row in rows:
        print(f"{row.model}/{row.group}: n={row.n} mse={row.mse:.6f} "
              f"qlike={row.qlike:.6f} r2log={row.r2log:.4f}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_simulate(o: argparse.Namespace) -> int:
    """write a synthetic scenario with known truth"""
    from . import simlab     # only this subcommand loads the simulator

    # every option but --out is a field of the scenario spec
    spec = simlab.ScenarioSpec(**{name: value for name, value
                                  in vars(o).items() if name != "out"})
    paths = simlab.gen_full_scenario(spec, o.out)
    print(f"scenario seed={spec.seed}: {spec.months} months x "
          f"{spec.days_per_month} days, {spec.bars_per_day} bars/day")
    for path in paths.values():
        print(f"  wrote {path}")
    return 0


def cmd_rv(o: argparse.Namespace) -> int:
    """realized variance from 5-minute bars"""
    series = marketdata.load_intraday(o.intraday)
    rv, lam = realized_vol.compute_rv_series(series)
    with tables.all_or_none(o.out_csv, o.out_sidecar) as temps:
        realized_vol.write_rv(rv, lam, *temps)
    print(f"{rv.n_rows} days, lambda = {lam:.6f}")
    print(f"  wrote {o.out_csv}")
    print(f"  wrote {o.out_sidecar}")
    return 0


def cmd_pca(o: argparse.Namespace) -> int:
    """aligned factor panel with train/test stamps"""
    daily = marketdata.load_daily(o.daily)
    attention = marketdata.load_attention(o.attention)
    monthly = marketdata.load_monthly(o.monthly)
    rv = realized_vol.read_rv(o.rv)
    rv = replace(rv, columns={"ret": rv.columns["ret"],
                              "rv": rv.columns["rv_adj"]})

    panel = marketdata.align_mixed_frequency(daily, attention, monthly, rv)
    n_train = marketdata.split_boundary(panel.n_rows, o.ratio)
    if n_train < 2 or n_train == panel.n_rows:
        raise InputError(
            f"ratio {o.ratio} leaves {n_train} training rows out of "
            f"{panel.n_rows}; nothing to fit or nothing to test")
    panel.n_train = n_train
    panel = marketdata.fill_missing(panel, policy=o.fill)

    member_cols = [c for spec in features.DEFAULT_GROUPS
                   for c in spec.columns]
    norm_panel, stats = marketdata.normalize(panel, member_cols)
    factor_panel, models = features.extract_factor_panel(
        norm_panel, features.DEFAULT_GROUPS)

    factor_names = [f"{spec.prefix}{j + 1}" for spec in features.DEFAULT_GROUPS
                    for j in range(spec.retain)]
    factors = replace(factor_panel, columns={
        c: factor_panel.columns[c] for c in ["ret", "rv"] + factor_names})
    paths = [os.path.join(o.out_dir, name) for name in
             ["factors.csv", "norm_stats.json",
              *(f"pca_{spec.name}.json" for spec in features.DEFAULT_GROUPS)]]
    with tables.all_or_none(*paths, make_dirs=True) as temps:
        write_factors(factors, temps[0])
        tables.write_json(temps[1], {
            "ratio": o.ratio,
            "n_train": n_train,
            "boundary_date": panel.dates[n_train - 1],
            "stats": {k: list(v) for k, v in stats.items()},
        }, indent=1)
        for spec, temp in zip(features.DEFAULT_GROUPS, temps[2:]):
            features.save_model(models[spec.name], temp)

    print(f"{panel.n_rows} rows, {n_train} train / "
          f"{panel.n_rows - n_train} test")
    print(f"  wrote {paths[0]}")
    print(f"  wrote {paths[1]}")
    for spec, path in zip(features.DEFAULT_GROUPS, paths[2:]):
        shares = ", ".join(f"{c:.1%}"
                           for c in models[spec.name].contributions)
        print(f"  wrote {path} (variance shares: {shares})")
    return 0


def cmd_midas_fit(o: argparse.Namespace) -> int:
    """daily conditional variance from monthly factors"""
    from . import garch_midas as gm     # loaded only where it is used

    panel = read_factors(o.factors)
    _, month_index, first_rows = marketdata.month_ids(panel.dates)
    missing = [c for c in o.covariates if c not in panel.columns]
    if missing:
        raise InputError(f"factor panel lacks columns {missing}")
    spec = gm.MidasSpec(n_lags=o.n_lags, n_covariates=len(o.covariates))
    data = gm.MidasData(returns=panel.columns["ret"],
                        month_index=month_index,
                        covariates=np.column_stack(
                            [panel.columns[c][first_rows]
                             for c in o.covariates]))
    n_train = panel.n_train
    if n_train < 1:
        raise InputError("factor panel has no training rows")
    result = gm.fit(spec, data.prefix(n_train), n_restarts=o.restarts,
                    seed=o.seed, max_iter=o.max_iter)

    filtered = gm.filter_volatility(spec, result.params, data)
    with tables.all_or_none(o.out_fit, o.out_h) as (fit_tmp, h_tmp):
        gm.write_fit(result, fit_tmp)
        write_h(panel.dates, filtered, h_tmp)

    p = result.params
    print(f"fit on {n_train} train rows (exogenous, K={spec.n_lags}, "
          f"link={spec.tau_link}), log-likelihood {result.log_lik:.4f}")
    print(f"  mu={p.mu:.6f} alpha={p.alpha:.6f} beta={p.beta:.6f} "
          f"m={p.m:.6f}")
    for j, name in enumerate(o.covariates):
        print(f"  {name}: theta={p.theta[j]:.6f} w2={p.w2[j]:.6f}")
    print(f"  wrote {o.out_fit}")
    print(f"  wrote {o.out_h} ({len(filtered.h)} modeled days)")
    return 0


def cmd_train(o: argparse.Namespace) -> int:
    """fit the attention regressor on stamped factors"""
    from . import transformer as tfm

    panel, train_config = _read_panel(o, o.features), _train_config(o)
    model_config = tfm.ModelConfig(n_features=len(o.features),
                                   d_model=o.d_model, n_heads=o.heads,
                                   n_layers=o.layers, d_ff=o.d_ff)
    dataset, n_fit = windowed_split(panel, o.features, train_config.window)
    model, history = tfm.train(dataset[:n_fit], model_config, train_config)

    with tables.all_or_none(o.out_model, o.out_history) as (model_tmp,
                                                           history_tmp):
        tfm.save_model(model, model_tmp)
        tables.write(history_tmp, ["epoch", "loss"],
                     [range(1, len(history) + 1), history])

    print(f"trained on {n_fit} samples, features {','.join(o.features)}")
    print(f"  final loss {history[-1]:.6f} after {len(history)} epochs")
    print(f"  wrote {o.out_model}")
    print(f"  wrote {o.out_history}")
    return 0


def cmd_predict(o: argparse.Namespace) -> int:
    """forecasts from a trained model"""
    from . import transformer as tfm

    model = tfm.load_model(o.model)
    dataset, n_fit = windowed_split(_read_panel(o, model.feature_names),
                                    model.feature_names,
                                    model.train_config.window)
    dataset = dataset[{"train": slice(n_fit), "test": slice(n_fit, None),
                       "all": slice(None)}[o.split]]
    if len(dataset) == 0:
        raise InputError(f"no {o.split} samples to predict")
    pred = tfm.predict(model, dataset)

    with tables.all_or_none(o.out) as (out_tmp,):
        tables.write(out_tmp, list(PRED_COLUMNS),
                     [dataset.dates, dataset.y, pred])
    print(f"{len(dataset)} {o.split} predictions")
    print(f"  wrote {o.out}")
    return 0


def read_predictions(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    cols = tables.read(path, PRED_COLUMNS)
    return cols["date"], cols["rv_true"], cols["rv_pred"]


def cmd_evaluate(o: argparse.Namespace) -> int:
    """loss table for one forecast file"""
    _, truth, pred = read_predictions(o.pred)
    new_rows = evaluation.score({(o.model_name, o.group): pred}, truth)
    if o.persistence:
        # every day of pred.csv but its first, which has no previous day
        base = evaluation.persistence_baseline(truth, 1)
        new_rows += evaluation.score({("persistence", o.group): base},
                                     truth[1:])
    old_rows = evaluation.read_report(o.out) \
        if o.append and os.path.exists(o.out) else []
    with tables.all_or_none(o.out) as (out_tmp,):
        evaluation.write_report(old_rows + new_rows, out_tmp,
                                footer=not o.no_footer)
    _print_rows(new_rows)
    print(f"  wrote {o.out}")
    return 0


def cmd_ablate(o: argparse.Namespace) -> int:
    """train and score the feature-group ladder"""
    from . import parallel
    from . import transformer as tfm

    panel = read_factors(o.factors)
    if panel.n_train == panel.n_rows:
        raise InputError(f"{o.factors} has no test rows; nothing to score")
    panel_h = join_h(panel, o.h_file)
    # every name is resolved before a group trains
    group_feats = {name: evaluation.ablation_features(name)
                   for name in o.groups}
    train_config = _train_config(o)
    # each group's training and test windows, which forked workers
    # inherit, with its test days checked before any group trains
    test_days, splits = panel.dates[panel.n_train:], []
    for name, feats in group_feats.items():
        dataset, n_fit = windowed_split(panel_h if "h" in feats else panel,
                                        feats, train_config.window)
        splits.append((dataset[:n_fit], dataset[n_fit:]))
        if dataset.dates[n_fit:] != test_days:
            raise InputError(f"group {name} forecasts {len(dataset) - n_fit} "
                             f"of the {len(test_days)} test days of "
                             f"{o.factors}")

    def fit(i: int) -> tuple:
        """Group i's model and log records: what a worker sends back."""
        with _kept_log() as records:
            model, _ = tfm.train(splits[i][0], None, train_config,
                                 history=False)
        return model, records

    forecasts = {}
    for name, (_, test_ds), (model, records) in zip(
            group_feats, splits, parallel.run_all(fit, len(splits))):
        for record in records:
            log.handle(record)
        forecasts["transformer", name] = tfm.predict(model, test_ds)
    forecasts["persistence", "-"] = evaluation.persistence_baseline(
        panel.columns["rv"], panel.n_train)
    rows = evaluation.score(forecasts, panel.columns["rv"][panel.n_train:])
    for row in rows[:-1]:
        log.info("group %s: test mse %.6f", row.group, row.mse)

    with tables.all_or_none(o.out) as (out_tmp,):
        evaluation.write_report(rows, out_tmp)
    _print_rows(rows)
    mse = {row.group: row.mse for row in rows}
    for name in ("G3", "G4"):
        if "G1" in mse and name in mse:
            print(f"  mse({name}) {'<' if mse[name] < mse['G1'] else '>='} "
                  "mse(G1)")
    print(f"  wrote {o.out}")
    return 0


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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are input errors, so a bad flag
    exits 2 with one line, as every other bad input does."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One flag per option of :data:`OPTIONS`. A flag keeps its text (a
    switch stores "true") for :func:`resolve` to cast."""
    parser = _Parser(
        prog="mfvol",
        description="Mixed-frequency stock-volatility forecasting pipeline.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", help="key = value options file")
        for name, (kind, default) in OPTIONS[command].items():
            shown = ("required" if default is REQUIRED else "optional"
                     if default is None else f"default: {default}")
            if kind is _parse_bool:
                p.add_argument(_flag(name), dest=name, help=shown,
                               action="store_const", const="true")
            else:
                metavar = ("{" + ",".join(kind) + "}"
                           if isinstance(kind, tuple) else None)
                p.add_argument(_flag(name), dest=name, help=shown,
                               metavar=metavar)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        # every stage reports the non-finite values it meets with its own
        # one-line error, so numpy's floating-point warnings stay silent
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](resolve(args.command, args))
    except (InputError, OSError, MemoryError) as exc:
        # a size too large for this host is an input problem too
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # the stage has removed its temporaries and reaped its workers
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
