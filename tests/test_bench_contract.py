"""The benchmark's tracer still fits the package.

``bench/tracing.py`` wraps module attributes of mfvol by name and counts
the bars each intraday load returns through ``len(series.bars)``. It
keeps the arguments of each training run's first ``tfm.gradient`` call
with a shallow copy of the weights dict, which ``bench/run.py`` later
runs through ``tfm.forward_batch``. ``bench/run.py`` also divides by
the number of ``gm.log_likelihood`` spans, which the tracer records
only in the calling process. These tests import it as the benchmark
does, from its own directory and unedited, so that renaming a traced
function, changing what ``load_intraday`` returns, updating the weights
a step saw in place or moving every restart of ``gm.fit`` out of the
calling process fails here rather than in a traced run. Its per-layer
metrics time ``marketdata.align_mixed_frequency`` and
``features.extract_factor_panel`` under a ``pca`` run, and count the
rows of what ``cli.read_factors`` returns through its ``n_rows``. The
tracer also wraps ``autodiff.Tensor.__init__``, so ``mfvol.autodiff`` stays as
an empty class that nothing in the package imports. It times a
``simulate`` by its one ``simlab.gen_full_scenario`` span. It checks
each ablation group from the ``(model, dataset)`` of that group's one
positional ``tfm.predict`` call, so a traced ``ablate`` reads and joins
its inputs once and predicts and scores once per group, in group order,
in the calling process. That process trains at least the first group
itself, so the step metrics have a first ``tfm.gradient`` to time;
workers may train the others, and on one CPU the tracer sees every
group's training run.
"""

import ast
import contextlib
import importlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

from mfvol import cli, evaluation
from mfvol import garch_midas as gm
from mfvol import marketdata
from mfvol import transformer as tfm

BENCH = Path(__file__).resolve().parents[1] / "bench"

INTRADAY = """date,time_min,price
2021-03-02,5,10.2
2021-03-02,0,10.0
2021-03-01,0,9.9
2021-03-01,5,10.05
2021-03-01,10,10.1
"""


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_install_counts_bars_and_restore_puts_originals_back(tracing,
                                                              tmp_path):
    path = tmp_path / "intraday.csv"
    path.write_text(INTRADAY)
    load = marketdata.load_intraday
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        assert marketdata.load_intraday is not load
        series = marketdata.load_intraday(str(path))
    finally:
        tracing.restore(saved)
    assert len(series.bars) == 5
    assert dict(recorder.counts) == {"bars@marketdata.load_intraday": 5}
    assert [s.name for s in recorder.spans] == ["marketdata.load_intraday"]
    assert marketdata.load_intraday is load
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original, attr


def test_first_step_capture_keeps_the_weights_it_saw(tracing):
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((24, 3))
    ds = tfm.build_windows([f"d{i:02d}" for i in range(24)], feats,
                           feats[:, 0] + 2.0, 4, ["f0", "f1", "f2"])
    config = tfm.ModelConfig(n_features=3, d_model=6, n_heads=2,
                             n_layers=1, d_ff=8)
    train_config = tfm.TrainConfig(learning_rate=0.05, max_epochs=1,
                                   batch_size=8, seed=5)
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        model, _ = tfm.train(ds, config, train_config)
    finally:
        tracing.restore(saved)

    [train] = recorder.select("tfm.train")
    steps = recorder.select("tfm.gradient")
    assert len(steps) == 3                          # 20 windows, batches of 8
    assert [recorder.spans[i].parent for i in steps] == [train] * 3
    [(index, (weights, step_config, x, _), _)] = [
        c for c in recorder.captures if recorder.spans[c[0]].name
        == "tfm.gradient"]
    assert index == steps[0] and step_config == config
    init = tfm.init_weights(config, train_config.seed)
    assert list(weights) == list(init)
    for name, w in init.items():
        assert weights[name].tobytes() == w.tobytes(), name
    # as bench/run.py times the captured step
    out = tfm.forward_batch(x, weights, step_config)
    assert out.tobytes() == tfm.forward_batch(x, init, config).tobytes()
    assert out.tobytes() != tfm.forward_batch(x, model.weights,
                                              config).tobytes()


def test_fit_keeps_likelihood_calls_in_the_calling_process(tracing,
                                                           monkeypatch):
    # bench/run.py divides by the gm.log_likelihood spans it records under
    # gm.fit; the tracer sees only the calling process, so that process
    # must run some restarts itself however many CPUs share the others
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    spec = gm.MidasSpec(n_lags=3, n_covariates=1)
    true = gm.MidasParams(mu=0.05, alpha=0.08, beta=0.85, m=0.2,
                          theta=np.array([0.7]), w2=np.array([4.0]))
    data, _, _ = gm.simulate(spec, true, months=14, days_per_month=15,
                             seed=2)
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        gm.fit(spec, data, n_restarts=3, seed=0)
    finally:
        tracing.restore(saved)
    [fit] = recorder.select("gm.fit")
    calls = recorder.select("gm.log_likelihood", parent="gm.fit")
    assert calls
    assert all(recorder.spans[i].parent == fit for i in calls)


def test_pca_layers_and_factor_rows_are_traced(tracing, scenario_dir,
                                              tmp_path):
    # bench/run.py reads marketdata.align_ms and
    # features.extract_factor_panel_ms from the spans under its pca root,
    # and cli.read_factors_rows_per_s from the factor_rows count
    s = scenario_dir
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        with recorder.span("pca"), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["rv", "--intraday", str(s / "intraday.csv"),
                             "--out-csv", str(tmp_path / "rv.csv"),
                             "--out-sidecar", str(tmp_path / "rv.json")]) == 0
            assert cli.main(["pca", "--daily", str(s / "daily.csv"),
                             "--attention", str(s / "attention.csv"),
                             "--monthly", str(s / "monthly.csv"),
                             "--rv", str(tmp_path / "rv.csv"),
                             "--out-dir", str(tmp_path)]) == 0
        with recorder.span("predict"):
            cli.read_factors(str(tmp_path / "factors.csv"))
    finally:
        tracing.restore(saved)
    for name in ("marketdata.align_mixed_frequency",
                 "features.extract_factor_panel"):
        assert len(recorder.select(name, "pca")) == 1, name
    rows = (tmp_path / "factors.csv").read_text().count("\n") - 1
    assert rows > 0
    assert recorder.counts["factor_rows@predict"] == rows


def test_simulate_records_one_scenario_span(tracing, tmp_path):
    # bench/run.py reads simlab.gen_full_scenario_s as the total of these
    # spans; the tracer wraps the function by name and ignores its result
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "--out", str(tmp_path / "scen"),
                             "--months", "8", "--n-lags", "4",
                             "--days-per-month", "6",
                             "--bars-per-day", "8"]) == 0
    finally:
        tracing.restore(saved)
    [span] = recorder.select("simlab.gen_full_scenario")
    assert recorder.spans[span].parent == -1
    assert recorder.total([span]) > 0
    assert (tmp_path / "scen" / "truth.json").exists()


def test_autodiff_is_an_empty_stub_nothing_imports():
    # the tracer wraps autodiff.Tensor.__init__; the tape itself is gone,
    # and the stub must not grow back into code the package runs
    src = Path(gm.__file__).resolve().parent
    tree = ast.parse((src / "autodiff.py").read_text())
    body = [node for node in tree.body
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant))]
    assert len(body) == 1 and isinstance(body[0], ast.ClassDef)
    assert body[0].name == "Tensor"
    assert not body[0].bases and not body[0].decorator_list
    assert all(isinstance(node, ast.Expr)
               and isinstance(node.value, ast.Constant)
               for node in body[0].body)
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n.rsplit(".", 1)[-1] == "autodiff"
                           for n in names), path.name


def traced_ablate(tracing, pipeline, tmp_path, recorder, groups):
    """One traced ``ablate`` of ``groups`` for one epoch, under an
    ``ablate`` root span; returns its tfm.gradient and tfm.predict
    captures as (parent span, args)."""
    with contextlib.redirect_stdout(io.StringIO()):
        saved = tracing.install(recorder)
        try:
            with recorder.span("ablate"):
                assert cli.main(["ablate", "--factors",
                                 str(pipeline / "factors.csv"),
                                 "--h-file", str(pipeline / "h.csv"),
                                 "--groups", ",".join(groups),
                                 "--epochs", "1",
                                 "--out", str(tmp_path / "ablation.csv")]) == 0
        finally:
            tracing.restore(saved)

    def captured(name):
        return [(recorder.spans[i].parent, args) for i, args, _
                in recorder.captures if recorder.spans[i].name == name
                and recorder.root_of(i) == "ablate"]
    for name in ("cli.read_factors", "cli.join_h"):
        assert len(recorder.select(name, "ablate")) == 1, name
    # one prediction per group, in group order, from the calling process
    panel = cli.read_factors(str(pipeline / "factors.csv"))
    predicted = captured("tfm.predict")
    assert [list(dataset.feature_names) for _, (_, dataset) in predicted] \
        == [list(evaluation.ablation_features(g)) for g in groups]
    for _, (group_model, dataset) in predicted:
        assert isinstance(group_model, tfm.TransformerModel)
        assert dataset.dates == panel.dates[panel.n_train:]
    assert len(recorder.select("evaluation.evaluate", "ablate")) \
        == len(groups) + 1
    return captured("tfm.gradient")


def test_ablate_and_predict_calls_and_captures(tracing, pipeline, tmp_path):
    # bench/run.py checks each ablation group from its positional
    # (model, dataset) tfm.predict capture and times the first tfm.gradient
    # of each training run the tracer sees; ablate and predict must read
    # factors.csv and join h.csv once, and ablate predict once per group
    # in the calling process, which trains at least its first group
    # itself while workers may train the others
    recorder = tracing.Recorder()
    groups = ("G1", "G2", "G3", "G4")
    stepped = traced_ablate(tracing, pipeline, tmp_path, recorder, groups)
    trains = recorder.select("tfm.train", "ablate")
    assert 1 <= len(trains) <= len(groups)
    assert [parent for parent, _ in stepped] == trains

    inputs = ["--factors", str(pipeline / "factors.csv"),
              "--h-file", str(pipeline / "h.csv")]
    model = tmp_path / "weights.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", *inputs, "--epochs", "1",
                         "--out-model", str(model),
                         "--out-history", str(tmp_path / "hist.csv")]) == 0
        saved = tracing.install(recorder)
        try:
            with recorder.span("predict"):
                assert cli.main(["predict", *inputs, "--model", str(model),
                                 "--out", str(tmp_path / "pred.csv")]) == 0
        finally:
            tracing.restore(saved)
    for name in ("cli.read_factors", "cli.join_h", "tfm.predict"):
        assert len(recorder.select(name, "predict")) == 1, name


def test_ablate_on_one_cpu_traces_every_group_step(tracing, pipeline,
                                                   tmp_path, monkeypatch):
    # on one CPU nothing forks, and the tracer sees one training run and
    # one first-step capture per group
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    recorder = tracing.Recorder()
    groups = ("G1", "G3")
    stepped = traced_ablate(tracing, pipeline, tmp_path, recorder, groups)
    trains = recorder.select("tfm.train", "ablate")
    assert len(trains) == len(groups)
    assert [parent for parent, _ in stepped] == trains
