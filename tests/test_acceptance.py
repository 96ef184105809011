"""Acceptance suite: one test per release criterion.

Each test prints a single scoreboard line

    [criterion NN] <name>: PASS|FAIL (<detail>)

and tests/conftest.py echoes the collected lines after the run, so a
plain ``pytest`` invocation ends with the full scoreboard. Tolerances
and runtime budgets are part of the assertions. A red test here means
the package misses its contract; unit-level breakage shows up in the
per-module suites instead.

The slow criteria (parameter recovery, ablation ordering, the two
pipeline reruns) simulate their own data and run the public CLI, so
this file doubles as an end-to-end exercise of every subcommand.
"""

import itertools
import json
import time
from functools import partial
from pathlib import Path

import numpy as np

from mfvol import cli, evaluation, realized_vol
from mfvol import features as feat
from mfvol import garch_midas as gm
from mfvol import transformer as tfm

from oracles import (
    beta_weights_naive,
    encoder_mse_stacked,
    encoder_naive,
    fd_gradient_stacked,
    garch11_filter,
    loglik_naive,
    losses_naive,
)

RESULTS: list[str] = []


def record(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)


def run_cli(argv: list[str]) -> None:
    rc = cli.main([str(a) for a in argv])
    assert rc == 0, f"command {argv[0]} exited {rc}"


# ----------------------------------------------------------------------
# 1. Beta-weight suite
# ----------------------------------------------------------------------

def test_criterion_01_beta_weight_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(401)
    worst_sum = 0.0
    all_nonneg = True
    for i in range(1000):
        k = int(rng.integers(1, 25))
        w1 = float(rng.uniform(1.0, 5.0))
        w2 = float(rng.uniform(1.0, 100.0))
        w = gm.beta_weights(k, w1, w2)
        all_nonneg &= bool(np.all(w >= 0.0))
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        if i < 20:
            naive = np.array(beta_weights_naive(k, w1, w2))
            assert np.allclose(w, naive, rtol=0, atol=1e-12)

    anchor = gm.beta_weights(12, 1.0, 63.666123)
    mass = float(anchor[0])
    elapsed = time.perf_counter() - t0

    ok = all_nonneg and worst_sum <= 1e-12 and mass > 0.99 and elapsed < 1.0
    record(1, "beta-weight suite", ok,
           f"sum err {worst_sum:.1e}, lag-1 mass {mass:.4f}, {elapsed:.2f}s")
    assert ok


# ----------------------------------------------------------------------
# 2. Lambda-adjustment identity
# ----------------------------------------------------------------------

def test_criterion_02_lambda_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(402)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(30, 400))
        rets = rng.normal(0.0, rng.uniform(0.5, 3.0), n)
        rvs = rng.lognormal(0.0, 1.0, n)
        lam = realized_vol.scale_parameter(rets, rvs)
        adj = realized_vol.adjust_rv(rvs, lam)
        target = float(np.mean(rets ** 2))
        worst = max(worst, abs(float(np.mean(adj)) - target) / target)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and elapsed < 1.0
    record(2, "lambda adjustment identity", ok,
           f"200 series, worst rel err {worst:.1e}, {elapsed:.2f}s")
    assert ok


# ----------------------------------------------------------------------
# 3. Likelihood vs per-term summation
# ----------------------------------------------------------------------

def test_criterion_03_likelihood_per_term():
    t0 = time.perf_counter()
    rng = np.random.default_rng(403)
    worst = 0.0
    for _ in range(50):
        months, days = 10, 10
        n_lags = int(rng.integers(1, 5))
        j = int(rng.integers(1, 3))
        data = gm.MidasData(
            returns=rng.normal(0.05, 1.0, months * days),
            month_index=np.repeat(np.arange(months), days),
            covariates=rng.standard_normal((months, j)),
        )
        spec = gm.MidasSpec(n_lags=n_lags, n_covariates=j, tau_link="log")
        params = gm.MidasParams(
            mu=float(rng.normal(0.0, 0.1)),
            alpha=float(rng.uniform(0.02, 0.15)),
            beta=float(rng.uniform(0.6, 0.8)),
            m=float(rng.uniform(-1.0, 1.0)),
            theta=rng.normal(0.0, 0.4, j),
            w2=rng.uniform(1.1, 30.0, j),
        )
        got = gm.log_likelihood(spec, params, data)
        want = loglik_naive(
            params.mu, params.alpha, params.beta, params.m,
            params.theta.tolist(), params.w1.tolist(), params.w2.tolist(),
            data.returns.tolist(), data.month_index.tolist(),
            data.covariates.tolist(), n_lags, "log")
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and elapsed < 1.0
    record(3, "likelihood vs per-term oracle", ok,
           f"50 draws, worst rel err {worst:.1e}, {elapsed:.2f}s")
    assert ok


# ----------------------------------------------------------------------
# 4. GARCH(1,1) reduction at theta = 0
# ----------------------------------------------------------------------

def test_criterion_04_garch11_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    n_lags, months, days = 4, 24, 50
    data = gm.MidasData(
        returns=rng.normal(0.02, 1.1, months * days),
        month_index=np.repeat(np.arange(months), days),
        covariates=rng.standard_normal((months, 1)),
    )
    spec = gm.MidasSpec(n_lags=n_lags, n_covariates=1)
    worst = 0.0
    n_days = 0
    for level in (0.6, 1.4):
        # theta = 0 leaves tau at exp(m) every month
        params = gm.MidasParams(mu=0.02, alpha=0.08, beta=0.88,
                                m=float(np.log(level)), theta=np.array([0.0]),
                                w2=np.array([2.0]))
        filt = gm.filter_volatility(spec, params, data)
        r = data.returns[filt.day_slice]
        n_days = len(r)
        omega = float(np.exp(params.m)) * (1.0 - params.alpha - params.beta)
        plain = garch11_filter(params.mu, omega, params.alpha, params.beta,
                               r.tolist())
        worst = max(worst, float(np.max(np.abs(filt.h - np.array(plain)))))
    elapsed = time.perf_counter() - t0

    ok = n_days == 1000 and worst <= 1e-10 and elapsed < 1.0
    record(4, "GARCH(1,1) reduction", ok,
           f"{n_days} days, max |h diff| {worst:.1e}, {elapsed:.2f}s")
    assert ok


# ----------------------------------------------------------------------
# 5. Parameter recovery on simulated panels
# ----------------------------------------------------------------------

def test_criterion_05_parameter_recovery():
    t0 = time.perf_counter()
    spec = gm.MidasSpec(n_lags=12, n_covariates=1)
    true = gm.MidasParams(mu=0.05, alpha=0.07, beta=0.91, m=-0.5,
                          theta=[0.35], w2=[4.0])
    hits = 0
    for seed in range(10):
        data, _, _ = gm.simulate(spec, true, months=155, days_per_month=21,
                                 seed=seed)
        result = gm.fit(spec, data, n_restarts=2, seed=seed)
        p = result.params
        hits += (abs(p.alpha - true.alpha) <= 0.05
                 and abs(p.beta - true.beta) <= 0.05
                 and abs(p.mu - true.mu) <= 0.03)
    elapsed = time.perf_counter() - t0

    ok = hits >= 9 and elapsed < 300.0
    record(5, "parameter recovery", ok,
           f"{hits}/10 seeds within tolerance, {elapsed:.1f}s")
    assert ok


# ----------------------------------------------------------------------
# 6. PCA suite
# ----------------------------------------------------------------------

def test_criterion_06_pca_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(406)
    worst_ortho = worst_contrib = worst_round = 0.0
    signs_ok = True
    for _ in range(100):
        p = int(rng.integers(2, 13))
        n = int(rng.integers(p + 1, 51))
        data = rng.standard_normal((n, p)) * rng.uniform(0.5, 4.0, p)
        model = feat.fit_pca(data, retain=p)

        gram = model.loadings.T @ model.loadings
        worst_ortho = max(worst_ortho,
                          float(np.max(np.abs(gram - np.eye(p)))))
        worst_contrib = max(worst_contrib,
                            abs(float(model.contributions.sum()) - 1.0))
        back = feat.inverse_transform(model, feat.transform(model, data))
        worst_round = max(worst_round, float(np.max(np.abs(back - data))))
        for j in range(p):
            pivot = int(np.argmax(np.abs(model.loadings[:, j])))
            signs_ok &= model.loadings[pivot, j] > 0
    elapsed = time.perf_counter() - t0

    ok = (worst_ortho <= 1e-10 and worst_contrib <= 1e-10
          and worst_round <= 1e-8 and signs_ok and elapsed < 5.0)
    record(6, "PCA suite", ok,
           f"ortho {worst_ortho:.1e}, contrib {worst_contrib:.1e}, "
           f"roundtrip {worst_round:.1e}, {elapsed:.2f}s")
    assert ok


# ----------------------------------------------------------------------
# 7. Transformer gradient check
# ----------------------------------------------------------------------

def test_criterion_07_gradient_check():
    t0 = time.perf_counter()
    cfg = tfm.ModelConfig(n_features=5, d_model=12, n_heads=3, n_layers=2,
                          d_ff=24)
    dims = (5, 12, 3, 2, 24)
    worst = 0.0
    agree = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        weights = tfm.init_weights(cfg, seed=seed)
        X = rng.standard_normal((3, 5, cfg.n_features))
        y = rng.standard_normal(3)

        agree = max(agree, float(np.max(np.abs(
            encoder_naive(weights, dims, X) - tfm.forward_batch(X, weights, cfg)))))

        _, grads = tfm.gradient(weights, cfg, X, y)
        for name in weights:
            fd = fd_gradient_stacked(
                partial(encoder_mse_stacked, weights, dims, X, y, name),
                weights[name], eps=1e-5)
            rel = np.abs(grads[name] - fd) / (np.abs(grads[name])
                                              + np.abs(fd) + 1e-8)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-4 and agree < 1e-12 and elapsed < 60.0
    record(7, "transformer gradient check", ok,
           f"20 seeds, worst rel err {worst:.1e}, forward agree {agree:.1e}, "
           f"{elapsed:.1f}s")
    assert ok


# ----------------------------------------------------------------------
# 8. Permutation invariance of the encoder
# ----------------------------------------------------------------------

def test_criterion_08_permutation_invariance():
    t0 = time.perf_counter()
    cfg = tfm.ModelConfig(n_features=6)
    rng = np.random.default_rng(408)
    worst = 0.0
    for seed in range(10):
        weights = tfm.init_weights(cfg, seed=seed)
        window = rng.standard_normal((5, cfg.n_features))
        base = tfm.forward_batch(window[None], weights, cfg)[0]
        for perm in itertools.permutations(range(5)):
            shuffled = tfm.forward_batch(window[list(perm)][None], weights,
                                         cfg)[0]
            worst = max(worst, abs(shuffled - base))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and elapsed < 30.0
    record(8, "permutation invariance", ok,
           f"10 models x 120 permutations, worst |diff| {worst:.1e}, "
           f"{elapsed:.1f}s")
    assert ok


# ----------------------------------------------------------------------
# 9. Overfit capability at default hyperparameters
# ----------------------------------------------------------------------

def test_criterion_09_overfit_capability():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    rows = 37
    feats = rng.standard_normal((rows, 5))
    target = 1.5 * feats[:, 0] - 0.7 * feats[:, 1] * feats[:, 2] \
        + 0.4 * np.abs(feats[:, 3]) + 3.0
    dates = [f"d{i:03d}" for i in range(rows)]
    ds = tfm.build_windows(dates, feats, target, window=5,
                           feature_names=[f"f{j}" for j in range(5)])
    assert len(ds) == 32

    cfg = tfm.TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=2000)
    _, history = tfm.train(ds, train_config=cfg)
    hit = next((i + 1 for i, v in enumerate(history) if v < 1e-3), None)
    elapsed = time.perf_counter() - t0

    ok = hit is not None and elapsed < 120.0
    record(9, "overfit capability", ok,
           f"32 samples, lr 0.05, mse < 1e-3 at epoch {hit}, "
           f"final {history[-1]:.1e}, {elapsed:.1f}s")
    assert ok


# ----------------------------------------------------------------------
# 10. Loss functions vs brute force
# ----------------------------------------------------------------------

def test_criterion_10_loss_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(410)
    measures = {"mse": evaluation.mse, "hmse": evaluation.hmse,
                "mae": evaluation.mae, "mape": evaluation.mape,
                "qlike": evaluation.qlike, "r2log": evaluation.r2log}
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 120))
        truth = rng.lognormal(0.0, 0.8, n)
        pred = truth * np.exp(rng.normal(0.0, 0.4, n))
        want = losses_naive(pred.tolist(), truth.tolist())
        for name, fn in measures.items():
            got = fn(pred, truth)
            worst = max(worst, abs(got - want[name])
                        / max(abs(want[name]), 1e-30))

    truth = rng.lognormal(0.0, 0.8, 200)
    at_truth = evaluation.qlike(truth, truth)
    scan_ok = all(evaluation.qlike(c * truth, truth) > at_truth
                  for c in (0.5, 0.8, 0.95, 1.05, 1.25, 2.0))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and scan_ok and elapsed < 1.0
    record(10, "loss-function oracle", ok,
           f"six measures x 100 pairs, worst rel err {worst:.1e}, "
           f"qlike scan {'ok' if scan_ok else 'BAD'}, {elapsed:.2f}s")
    assert ok


# ----------------------------------------------------------------------
# 11. Ablation ordering on simulated scenarios
# ----------------------------------------------------------------------

def test_criterion_11_ablation_ordering(tmp_path):
    t0 = time.perf_counter()
    wins = 0
    lines = []
    for seed in range(10):
        d = tmp_path / f"seed{seed}"
        scen = d / "scen"
        run_cli(["simulate", "--out", scen, "--seed", seed,
                 "--months", 40, "--n-lags", 6])
        run_cli(["rv", "--intraday", scen / "intraday.csv",
                 "--out-csv", d / "rv.csv",
                 "--out-sidecar", d / "rv_lambda.json"])
        run_cli(["pca", "--daily", scen / "daily.csv",
                 "--attention", scen / "attention.csv",
                 "--monthly", scen / "monthly.csv",
                 "--rv", d / "rv.csv", "--out-dir", d])
        run_cli(["midas-fit", "--factors", d / "factors.csv",
                 "--n-lags", 6, "--out-fit", d / "midas_fit.json",
                 "--out-h", d / "h.csv"])
        run_cli(["ablate", "--factors", d / "factors.csv",
                 "--h-file", d / "h.csv", "--groups", "G1,G3,G4",
                 "--lr", 0.005, "--epochs", 60,
                 "--out", d / "report.csv"])
        rows = {r.group: r.mse
                for r in evaluation.read_report(str(d / "report.csv"))}
        won = rows["G4"] < rows["G1"] and rows["G3"] < rows["G1"]
        wins += won
        lines.append(f"  seed {seed}: G1={rows['G1']:.4f} "
                     f"G3={rows['G3']:.4f} G4={rows['G4']:.4f} "
                     f"{'ok' if won else 'MISS'}")
    elapsed = time.perf_counter() - t0

    print("\n".join(lines))
    ok = wins >= 8 and elapsed < 900.0
    record(11, "ablation ordering", ok,
           f"G3<G1 and G4<G1 in {wins}/10 seeds, {elapsed:.1f}s")
    assert ok


# ----------------------------------------------------------------------
# 12. End-to-end determinism
# ----------------------------------------------------------------------

def _full_pipeline(root: Path, seed: int) -> None:
    scen = root / "scen"
    run_cli(["simulate", "--out", scen, "--seed", seed,
             "--months", 14, "--n-lags", 6])
    run_cli(["rv", "--intraday", scen / "intraday.csv",
             "--out-csv", root / "rv.csv",
             "--out-sidecar", root / "rv_lambda.json"])
    run_cli(["pca", "--daily", scen / "daily.csv",
             "--attention", scen / "attention.csv",
             "--monthly", scen / "monthly.csv",
             "--rv", root / "rv.csv", "--out-dir", root])
    run_cli(["midas-fit", "--factors", root / "factors.csv", "--n-lags", 6,
             "--out-fit", root / "midas_fit.json", "--out-h", root / "h.csv"])
    run_cli(["train", "--factors", root / "factors.csv",
             "--h-file", root / "h.csv", "--epochs", 25,
             "--out-model", root / "weights.json",
             "--out-history", root / "loss_history.csv"])
    run_cli(["predict", "--factors", root / "factors.csv",
             "--h-file", root / "h.csv", "--model", root / "weights.json",
             "--out", root / "pred.csv"])
    run_cli(["evaluate", "--pred", root / "pred.csv", "--persistence",
             "--out", root / "report.csv"])


def test_criterion_12_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    first, second = tmp_path / "first", tmp_path / "second"
    _full_pipeline(first, seed=12)
    _full_pipeline(second, seed=12)

    same = {}
    for name in ("report.csv", "pred.csv", "weights.json", "factors.csv",
                 "h.csv", "midas_fit.json", "loss_history.csv"):
        same[name] = (first / name).read_bytes() == (second / name).read_bytes()
    elapsed = time.perf_counter() - t0

    ok = all(same.values()) and elapsed < 300.0
    diff = [k for k, v in same.items() if not v]
    record(12, "end-to-end determinism", ok,
           f"two runs bitwise identical{'' if ok else ': differs ' + str(diff)}, "
           f"{elapsed:.1f}s")
    assert ok, diff


# ----------------------------------------------------------------------
# 13. Look-ahead audit
# ----------------------------------------------------------------------

def _scale_rows(src: Path, dst: Path, factor: float, *,
                after_date: str | None = None,
                after_month: str | None = None) -> None:
    """Copy a CSV, scaling every numeric field on rows past the boundary.

    Rows are selected by their first field: dates strictly greater than
    ``after_date``, or months strictly greater than ``after_month``.
    A common positive factor keeps OHLC ordering and sign constraints
    intact. Empty cells (missing values) pass through untouched.
    """
    lines = src.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        key = parts[0]
        hit = ((after_date is not None and key > after_date)
               or (after_month is not None and key > after_month))
        if hit:
            parts = parts[:1] + [p if p == "" else repr(float(p) * factor)
                                 for p in parts[1:]]
        out.append(",".join(parts))
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text("\n".join(out) + "\n")


def _scale_test_factor_rows(src: Path, dst: Path, factor: float) -> None:
    lines = src.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        if parts[1] == "test":
            parts = parts[:2] + [repr(float(p) * factor) for p in parts[2:]]
        out.append(",".join(parts))
    dst.write_text("\n".join(out) + "\n")


def test_criterion_13_look_ahead_audit(tmp_path):
    t0 = time.perf_counter()
    base, pert = tmp_path / "base", tmp_path / "pert"
    pert.mkdir()
    scen = base / "scen"
    run_cli(["simulate", "--out", scen, "--seed", 13,
             "--months", 14, "--n-lags", 6])
    run_cli(["rv", "--intraday", scen / "intraday.csv",
             "--out-csv", base / "rv.csv",
             "--out-sidecar", base / "rv_lambda.json"])
    run_cli(["pca", "--daily", scen / "daily.csv",
             "--attention", scen / "attention.csv",
             "--monthly", scen / "monthly.csv",
             "--rv", base / "rv.csv", "--out-dir", base])

    meta = json.loads((base / "norm_stats.json").read_text())
    boundary, n_train = meta["boundary_date"], meta["n_train"]

    # Stage 1: shift every post-boundary row of the raw inputs, refit
    # the normalization and the three PCA models. Factor values on test
    # dates move; nothing fitted may.
    _scale_rows(scen / "daily.csv", pert / "daily.csv", 1.17,
                after_date=boundary)
    _scale_rows(scen / "attention.csv", pert / "attention.csv", 2.0,
                after_date=boundary)
    _scale_rows(scen / "monthly.csv", pert / "monthly.csv", 1.31,
                after_month=boundary[:7])
    run_cli(["pca", "--daily", pert / "daily.csv",
             "--attention", pert / "attention.csv",
             "--monthly", pert / "monthly.csv",
             "--rv", base / "rv.csv", "--out-dir", pert])

    fitted = ["norm_stats.json", "pca_macro.json", "pca_tech.json",
              "pca_attention.json"]
    stage1_ok = all((pert / n).read_bytes() == (base / n).read_bytes()
                    for n in fitted)
    base_rows = (base / "factors.csv").read_text().splitlines()
    pert_rows = (pert / "factors.csv").read_text().splitlines()
    prefix_ok = pert_rows[:n_train + 1] == base_rows[:n_train + 1]
    moved = pert_rows[n_train + 1:] != base_rows[n_train + 1:]

    # Stage 2: shift the test rows of the factor panel itself, refit the
    # volatility model and the transformer. Their artifacts may not move
    # either, and the filtered h path must agree on every training date.
    _scale_test_factor_rows(base / "factors.csv", pert / "factors2.csv", 1.23)
    for root, factors in ((base, base / "factors.csv"),
                          (pert, pert / "factors2.csv")):
        run_cli(["midas-fit", "--factors", factors, "--n-lags", 6,
                 "--out-fit", root / "midas_fit.json",
                 "--out-h", root / "h.csv"])
        run_cli(["train", "--factors", factors, "--h-file", root / "h.csv",
                 "--epochs", 15, "--out-model", root / "weights.json",
                 "--out-history", root / "loss_history.csv"])

    fitted2 = ["midas_fit.json", "weights.json", "loss_history.csv"]
    stage2_ok = all((pert / n).read_bytes() == (base / n).read_bytes()
                    for n in fitted2)
    h_prefix_ok = True
    for b_line, p_line in zip((base / "h.csv").read_text().splitlines()[1:],
                              (pert / "h.csv").read_text().splitlines()[1:]):
        if b_line.split(",")[0] > boundary:
            break
        h_prefix_ok &= b_line == p_line
    elapsed = time.perf_counter() - t0

    ok = (stage1_ok and prefix_ok and moved and stage2_ok and h_prefix_ok
          and elapsed < 120.0)
    record(13, "look-ahead audit", ok,
           f"pca stage {'clean' if stage1_ok and prefix_ok else 'LEAKS'}, "
           f"fit/train stage {'clean' if stage2_ok and h_prefix_ok else 'LEAKS'}, "
           f"test rows moved {moved}, {elapsed:.1f}s")
    assert ok
