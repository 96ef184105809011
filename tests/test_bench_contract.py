"""The benchmark's tracer still fits the package.

``bench/tracing.py`` wraps module attributes of mfvol by name and counts
the bars each intraday load returns through ``len(series.bars)``. It
keeps the arguments of each training run's first ``tfm.gradient`` call
with a shallow copy of the weights dict, which ``bench/run.py`` later
runs through ``tfm.forward_batch``. These tests import it as the
benchmark does, from its own directory and unedited, so that renaming a
traced function, changing what ``load_intraday`` returns or updating
the weights a step saw in place fails here rather than in a traced run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

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
