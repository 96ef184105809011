"""The benchmark's tracer still fits the package.

``bench/tracing.py`` wraps module attributes of mfvol by name and counts
the bars each intraday load returns through ``len(series.bars)``. This
test imports it as the benchmark does, from its own directory and
unedited, so that renaming a traced function or changing what
``load_intraday`` returns fails here rather than in a traced run.
"""

import importlib
from pathlib import Path

import pytest

from mfvol import marketdata

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
