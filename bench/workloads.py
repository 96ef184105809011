"""The benchmark's three workloads: inputs, operations, checks, quality.

Every workload builds its inputs in-process through ``mfvol.cli.main``
(its set-up), then runs a fixed list of ``mfvol`` subcommands (its
operations). Scenario seeds are fixed so that every run does the same
work and scores the same numbers; the benchmark seed moves the
scenario's calendar, which changes the dates in every input file and
nothing else (see README.md for the measured reason).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import reference as ref

SCENARIO_SEED = 3          # the ROADMAP quick-start scenario
N_LAGS = 6
PANEL_MONTHS = 40          # quick-start panel: 839 days, 625 training windows
ESTIMATE_MONTHS = 120      # 2520 days x 48 bars, about 121k bars
GROUPS = ("G1", "G2", "G3", "G4")
ABLATE_FLAGS = ["--groups", ",".join(GROUPS), "--lr", "0.005", "--epochs", "10"]
FORECAST_TRAIN_FLAGS = ["--lr", "0.005", "--epochs", "3"]
COVARIATES = ["pcm1", "pcm2"]


class SetupFailed(RuntimeError):
    pass


@dataclass
class Op:
    label: str               # subcommand, plus the group where there is one
    argv: list[str]          # arguments after ``mfvol``
    outputs: list[str]       # files it writes


@dataclass
class Workload:
    setup: Callable[[str, int], None]                 # (input dir, seed)
    ops: Callable[[str, str], list[Op]]               # (input dir, output dir)
    check: Callable[[str, str], dict[str, Callable[[], list[str]]]]
    quality: Callable[[str, str], dict[str, float]]


def start_month(seed: int) -> str:
    """Calendar start of the scenario: one of 240 months from 2000-01."""
    offset = seed % 240
    return f"{2000 + offset // 12:04d}-{offset % 12 + 1:02d}"


def run_cli(argv: list[str]) -> int:
    """One in-process ``mfvol`` call, its report kept off our stdout."""
    # mfvol is imported on use: a process that spawns the cold runs must
    # not hold it, or its resident size shows up in theirs (see run.py)
    from mfvol import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def call(argv: list[str]) -> None:
    code = run_cli(argv)
    if code != 0:
        raise SetupFailed(f"mfvol {' '.join(argv)} exited with {code}")


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def _simulate(d: str, seed: int, months: int) -> None:
    call(["simulate", "--out", os.path.join(d, "scen"),
          "--seed", str(SCENARIO_SEED), "--months", str(months),
          "--n-lags", str(N_LAGS), "--start-month", start_month(seed)])


def _data_ops(scen: str, o: str) -> list[Op]:
    """rv, pca and midas-fit from a scenario directory into ``o``."""
    j = partial(os.path.join, o)
    return [
        Op("rv", ["rv", "--intraday", os.path.join(scen, "intraday.csv"),
                  "--out-csv", j("rv.csv"), "--out-sidecar", j("rv_lambda.json")],
           [j("rv.csv"), j("rv_lambda.json")]),
        Op("pca", ["pca", "--daily", os.path.join(scen, "daily.csv"),
                   "--attention", os.path.join(scen, "attention.csv"),
                   "--monthly", os.path.join(scen, "monthly.csv"),
                   "--rv", j("rv.csv"), "--out-dir", o],
           [j("factors.csv"), j("norm_stats.json"), j("pca_macro.json"),
            j("pca_tech.json"), j("pca_attention.json")]),
        Op("midas-fit", ["midas-fit", "--factors", j("factors.csv"),
                         "--n-lags", str(N_LAGS), "--out-fit", j("midas_fit.json"),
                         "--out-h", j("h.csv")],
           [j("midas_fit.json"), j("h.csv")]),
    ]


def setup_estimate(d: str, seed: int) -> None:
    _simulate(d, seed, ESTIMATE_MONTHS)


def setup_panel(d: str, seed: int) -> None:
    """Quick-start factor panel: factors.csv and h.csv in ``d``."""
    _simulate(d, seed, PANEL_MONTHS)
    for op in _data_ops(os.path.join(d, "scen"), d):
        call(op.argv)


def setup_forecast(d: str, seed: int) -> None:
    from mfvol import evaluation

    setup_panel(d, seed)
    for g in GROUPS:
        call(["train", "--factors", os.path.join(d, "factors.csv"),
              "--h-file", os.path.join(d, "h.csv"),
              "--features", ",".join(evaluation.ABLATION_GROUPS[g]),
              *FORECAST_TRAIN_FLAGS,
              "--out-model", os.path.join(d, f"weights_{g}.json"),
              "--out-history", os.path.join(d, f"history_{g}.csv")])


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

def ops_estimate(d: str, o: str) -> list[Op]:
    return _data_ops(os.path.join(d, "scen"), o)


def ops_ablate(d: str, o: str) -> list[Op]:
    out = os.path.join(o, "ablation.csv")
    return [Op("ablate", ["ablate", "--factors", os.path.join(d, "factors.csv"),
                          "--h-file", os.path.join(d, "h.csv"), *ABLATE_FLAGS,
                          "--out", out], [out])]


def ops_forecast(d: str, o: str) -> list[Op]:
    ops = []
    for g in GROUPS:
        pred = os.path.join(o, f"pred_{g}.csv")
        report = os.path.join(o, f"report_{g}.csv")
        ops.append(Op(f"predict {g}", [
            "predict", "--factors", os.path.join(d, "factors.csv"),
            "--h-file", os.path.join(d, "h.csv"),
            "--model", os.path.join(d, f"weights_{g}.json"),
            "--split", "all", "--out", pred], [pred]))
        ops.append(Op(f"evaluate {g}", [
            "evaluate", "--pred", pred, "--persistence", "--group", g,
            "--out", report], [report]))
    return ops


# ----------------------------------------------------------------------
# Output checks (label -> deferred check returning problems)
# ----------------------------------------------------------------------

def check_estimate(d: str, o: str) -> dict[str, Callable[[], list[str]]]:
    j = partial(os.path.join, o)
    intraday = os.path.join(d, "scen", "intraday.csv")
    return {
        "rv": lambda: ref.check_rv(intraday, j("rv.csv"), j("rv_lambda.json")),
        "pca": lambda: (ref.check_factor_targets(j("factors.csv"), j("rv.csv"))
                        + ref.check_factor_scores(j("factors.csv"))),
        "midas-fit": lambda: ref.check_midas(j("factors.csv"),
                                             j("midas_fit.json"), j("h.csv"),
                                             COVARIATES),
    }


def check_ablate(d: str, o: str) -> dict[str, Callable[[], list[str]]]:
    return {"ablate": lambda: ref.check_ablation(
        os.path.join(d, "factors.csv"), os.path.join(o, "ablation.csv"),
        list(GROUPS))}


def check_forecast(d: str, o: str) -> dict[str, Callable[[], list[str]]]:
    checks = {}
    for g in GROUPS:
        pred = os.path.join(o, f"pred_{g}.csv")
        checks[f"predict {g}"] = lambda g=g, pred=pred: ref.check_predictions(
            os.path.join(d, "factors.csv"), os.path.join(d, "h.csv"),
            os.path.join(d, f"weights_{g}.json"), pred)
        checks[f"evaluate {g}"] = lambda g=g, pred=pred: ref.check_report(
            pred, os.path.join(o, f"report_{g}.csv"), g)
    return checks


# ----------------------------------------------------------------------
# Forecast quality
# ----------------------------------------------------------------------

def h_rel_err(truth_path: str, h_path: str, factors_path: str) -> float:
    """Mean |h / h_true - 1| over the test days of the factor panel."""
    with open(truth_path) as fh:
        truth = json.load(fh)
    h_true = dict(zip(truth["dates"][truth["modeled_start"]:], truth["h"]))
    _, fac = ref.read_columns(factors_path)
    _, hcol = ref.read_columns(h_path)
    h = dict(zip(hcol["date"], hcol["h"]))
    test = [d for d, s in zip(fac["date"], fac["split"]) if s == "test"]
    return sum(abs(float(h[d]) / h_true[d] - 1.0) for d in test) / len(test)


def mse_ratio_vs_persistence(factors_path: str, forecast: dict[str, float]
                             ) -> float:
    """MSE of ``forecast`` (date -> value) over the MSE of yesterday's rv,
    both against rv on every test day of the factor panel."""
    _, fac = ref.read_columns(factors_path)
    rv = [float(v) for v in fac["rv"]]
    test = [i for i, s in enumerate(fac["split"]) if s == "test"]
    model = sum((rv[i] - forecast[fac["date"][i]]) ** 2 for i in test)
    persistence = sum((rv[i] - rv[i - 1]) ** 2 for i in test)
    return model / persistence


def quality_estimate(d: str, o: str) -> dict[str, float]:
    factors, h = os.path.join(o, "factors.csv"), os.path.join(o, "h.csv")
    _, hcol = ref.read_columns(h)
    return {
        "h_rel_err": h_rel_err(os.path.join(d, "scen", "truth.json"), h, factors),
        "mse_ratio_vs_persistence": mse_ratio_vs_persistence(
            factors, dict(zip(hcol["date"], map(float, hcol["h"])))),
    }


def _panel_h_rel_err(d: str) -> float:
    return h_rel_err(os.path.join(d, "scen", "truth.json"),
                     os.path.join(d, "h.csv"), os.path.join(d, "factors.csv"))


def quality_ablate(d: str, o: str) -> dict[str, float]:
    rows = {r["group"]: r for r in ref.read_report(os.path.join(o, "ablation.csv"))}
    return {"h_rel_err": _panel_h_rel_err(d),
            "mse_ratio_vs_persistence": rows["G4"]["mse"] / rows["-"]["mse"]}


def quality_forecast(d: str, o: str) -> dict[str, float]:
    _, pred = ref.read_columns(os.path.join(o, "pred_G4.csv"))
    return {"h_rel_err": _panel_h_rel_err(d),
            "mse_ratio_vs_persistence": mse_ratio_vs_persistence(
                os.path.join(d, "factors.csv"),
                dict(zip(pred["date"], map(float, pred["rv_pred"]))))}


WORKLOADS = {
    "estimate": Workload(setup_estimate, ops_estimate,
                         check_estimate, quality_estimate),
    "ablate": Workload(setup_panel, ops_ablate, check_ablate,
                       quality_ablate),
    "forecast": Workload(setup_forecast, ops_forecast,
                         check_forecast, quality_forecast),
}
