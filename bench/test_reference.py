"""Tests of the benchmark's reference computations.

    PYTHONPATH=src python3 -m pytest bench -q

Each reference is compared with the program on a small panel (the two
must agree) and then shown a damaged output (the check must object).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from functools import partial

import numpy as np
import pytest

import reference as ref
import workloads
from mfvol import cli, evaluation
from mfvol import transformer as tfm


def mfvol(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """A 14-month scenario run through every subcommand the benchmark uses."""
    d = str(tmp_path_factory.mktemp("panel"))
    j = partial(os.path.join, d)
    mfvol("simulate", "--out", j("scen"), "--seed", "5", "--months", "14",
          "--n-lags", "6", "--bars-per-day", "12")
    mfvol("rv", "--intraday", j("scen/intraday.csv"), "--out-csv", j("rv.csv"),
          "--out-sidecar", j("rv_lambda.json"))
    mfvol("pca", "--daily", j("scen/daily.csv"), "--attention",
          j("scen/attention.csv"), "--monthly", j("scen/monthly.csv"),
          "--rv", j("rv.csv"), "--out-dir", d)
    mfvol("midas-fit", "--factors", j("factors.csv"), "--n-lags", "6",
          "--restarts", "1", "--out-fit", j("midas_fit.json"), "--out-h", j("h.csv"))
    mfvol("train", "--factors", j("factors.csv"), "--h-file", j("h.csv"),
          "--features", "tech1,tech2,tech3,bd1,h", "--epochs", "2",
          "--out-model", j("weights.json"), "--out-history", j("history.csv"))
    mfvol("predict", "--factors", j("factors.csv"), "--h-file", j("h.csv"),
          "--model", j("weights.json"), "--split", "all", "--out", j("pred.csv"))
    mfvol("evaluate", "--pred", j("pred.csv"), "--persistence", "--group", "G4",
          "--out", j("report.csv"))
    mfvol("ablate", "--factors", j("factors.csv"), "--h-file", j("h.csv"),
          "--epochs", "2", "--lr", "0.005", "--out", j("ablation.csv"))
    return d


def damaged(path: str, tmp_path, old: str, new: str) -> str:
    """Copy of ``path`` with the first ``old`` replaced by ``new``."""
    with open(path) as fh:
        text = fh.read()
    assert old in text
    out = str(tmp_path / os.path.basename(path))
    with open(out, "w") as fh:
        fh.write(text.replace(old, new, 1))
    return out


def first_cell(path: str, column: str) -> str:
    return ref.read_columns(path)[1][column][0]


def test_realized_variance_by_hand(tmp_path):
    path = tmp_path / "intraday.csv"
    # bars out of order within a day; the reference must sort them
    path.write_text("date,time_min,price\n"
                    "2020-01-01,5,101.0\n2020-01-01,0,100.0\n"
                    "2020-01-02,0,102.0\n2020-01-02,10,99.0\n2020-01-02,5,103.0\n")
    dates, rets, rvs = ref.realized_variance(str(path))
    assert dates == ["2020-01-02"]
    assert rets == pytest.approx([100 * math.log(99.0 / 101.0)])
    want = (100 * math.log(103 / 102)) ** 2 + (100 * math.log(99 / 103)) ** 2
    assert rvs == pytest.approx([want])


def test_check_rv(panel, tmp_path):
    j = partial(os.path.join, panel)
    assert ref.check_rv(j("scen/intraday.csv"), j("rv.csv"), j("rv_lambda.json")) == []
    cell = first_cell(j("rv.csv"), "rv_adj")
    bad = damaged(j("rv.csv"), tmp_path, cell, repr(float(cell) * 1.001))
    assert ref.check_rv(j("scen/intraday.csv"), bad, j("rv_lambda.json"))


def test_check_factor_panel(panel, tmp_path):
    factors = os.path.join(panel, "factors.csv")
    assert ref.check_factor_scores(factors) == []
    assert ref.check_factor_targets(factors, os.path.join(panel, "rv.csv")) == []
    cell = first_cell(factors, "tech2")
    bad = damaged(factors, tmp_path, cell, repr(float(cell) + 0.5))
    assert ref.check_factor_scores(bad)
    assert ref.check_factor_targets(bad, os.path.join(panel, "rv.csv")) == []


def test_check_midas(panel, tmp_path):
    j = partial(os.path.join, panel)
    args = (j("factors.csv"), j("midas_fit.json"), j("h.csv"), ["pcm1", "pcm2"])
    assert ref.check_midas(*args) == []
    with open(j("midas_fit.json")) as fh:
        fit = json.load(fh)
    fit["params"]["beta"] *= 0.99
    bad = tmp_path / "midas_fit.json"
    bad.write_text(json.dumps(fit))
    problems = ref.check_midas(args[0], str(bad), args[2], args[3])
    assert any("log_likelihood" in p for p in problems)
    assert any(p.startswith("g:") for p in problems)


def test_midas_filter_matches_likelihood_of_program(panel):
    from mfvol import garch_midas as gm

    dates, returns, covariates, _ = ref.midas_inputs(
        os.path.join(panel, "factors.csv"), ["pcm1", "pcm2"])
    params = {"mu": 0.02, "alpha": 0.1, "beta": 0.8, "m": 0.3,
              "theta": [0.4, -0.2], "w1": [1.0, 1.0], "w2": [3.0, 1.5]}
    start, _, _, h = ref.midas_filter(dates, returns, covariates, params, 6)
    spec = gm.MidasSpec(n_lags=6, n_covariates=2, tau_link="log")
    data = gm.MidasData(returns=returns, month_index=ref.month_ids(dates),
                        covariates=covariates)
    want = gm.log_likelihood(spec, gm.MidasParams(**params), data)
    got = ref.midas_log_likelihood(returns, h, start, params["mu"])
    assert got == pytest.approx(want, rel=1e-12)


def test_encoder_forward_matches_program():
    config = tfm.ModelConfig(n_features=4)
    weights = tfm.init_weights(config, seed=1)
    x = np.random.default_rng(0).normal(size=(7, 5, 4))
    got = ref.encoder_forward(weights, config.n_layers, config.n_heads, x)
    np.testing.assert_allclose(got, tfm.forward_batch(x, weights, config),
                               rtol=1e-12, atol=1e-12)


def test_check_predictions(panel, tmp_path):
    j = partial(os.path.join, panel)
    args = [j("factors.csv"), j("h.csv"), j("weights.json"), j("pred.csv")]
    assert ref.check_predictions(*args) == []
    with open(j("weights.json")) as fh:
        doc = json.load(fh)
    doc["weights"]["mlp2.b"]["data"][0] += 1e-3
    bad = tmp_path / "weights.json"
    bad.write_text(json.dumps(doc))
    args[2] = str(bad)
    assert any("rv_pred" in p for p in ref.check_predictions(*args))


def test_loss_row_matches_program():
    rng = np.random.default_rng(2)
    truth = rng.gamma(2.0, size=50)
    pred = truth * rng.lognormal(0.0, 0.3, size=50)
    pred[3] = -0.1                       # dropped by both
    got = ref.loss_row(pred, truth)
    row = evaluation.evaluate(pred, truth)
    assert got["n"] == row.n == 49
    for name in ref.LOSS_NAMES:
        assert got[name] == pytest.approx(getattr(row, name), rel=1e-12)


def test_check_report(panel, tmp_path):
    j = partial(os.path.join, panel)
    assert ref.check_report(j("pred.csv"), j("report.csv"), "G4") == []
    cell = first_cell(j("report.csv"), "qlike")
    bad = damaged(j("report.csv"), tmp_path, cell, repr(float(cell) + 1e-6))
    assert ref.check_report(j("pred.csv"), bad, "G4")


def test_check_ablation(panel, tmp_path):
    j = partial(os.path.join, panel)
    groups = ["G1", "G2", "G3", "G4"]
    assert ref.check_ablation(j("factors.csv"), j("ablation.csv"), groups) == []
    rows = ref.read_report(j("ablation.csv"))
    assert ref.persistence_row(j("factors.csv"))["mse"] == \
        pytest.approx(rows[-1]["mse"], rel=1e-12)
    n = str(int(rows[0]["n"]))
    bad = damaged(j("ablation.csv"), tmp_path, f"G1,{n},", f"G1,{int(n) - 1},")
    assert ref.check_ablation(j("factors.csv"), bad, groups)


def test_benchmark_seed_moves_only_the_calendar(tmp_path):
    """Two benchmark seeds give the same numbers under other dates."""
    tables = []
    for seed in (0, 137):
        d = str(tmp_path / str(seed))
        mfvol("simulate", "--out", d, "--seed", "3", "--months", "8",
              "--n-lags", "6", "--bars-per-day", "6",
              "--start-month", workloads.start_month(seed))
        tables.append(ref.read_table(os.path.join(d, "daily.csv"))[1])
        shutil.rmtree(d)
    a, b = tables
    assert [r[0] for r in a] != [r[0] for r in b]
    assert [r[1:] for r in a] == [r[1:] for r in b]
