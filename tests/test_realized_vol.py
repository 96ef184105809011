import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfvol import errors
from mfvol import realized_vol as rvmod
from mfvol.marketdata import BAR_DTYPE, IntradaySeries

from oracles import lambda_naive, rv_naive


def series_from_days(day_prices):
    bars = [(i, 5 * j, p) for i, prices in enumerate(day_prices)
            for j, p in enumerate(prices)]
    return IntradaySeries(
        dates=[f"2021-01-{i + 1:02d}" for i in range(len(day_prices))],
        bars=np.array(bars, dtype=BAR_DTYPE))


DAYS = [
    [10.0, 10.1, 10.05, 10.2],
    [10.25, 10.3, 10.28, 10.5],
    [10.45, 10.4, 10.35, 10.3],
]


class TestComputeRvSeries:
    def test_matches_loop_oracle(self):
        series = rvmod.compute_rv_series(series_from_days(DAYS))
        rets, rvs = rv_naive(DAYS)
        assert series.n_days == 2
        assert np.allclose(series.ret, rets, rtol=0, atol=1e-14)
        assert np.allclose(series.rv, rvs, rtol=0, atol=1e-14)
        lam = lambda_naive(rets, rvs)
        assert series.lam == pytest.approx(lam, abs=1e-14)
        assert np.allclose(series.rv_adj, lam * np.asarray(rvs), atol=1e-14)

    def test_first_day_dropped(self):
        series = rvmod.compute_rv_series(series_from_days(DAYS))
        assert series.dates == ["2021-01-02", "2021-01-03"]

    def test_scale_identity(self):
        series = rvmod.compute_rv_series(series_from_days(DAYS))
        assert np.mean(series.ret ** 2) == pytest.approx(
            np.mean(series.rv_adj), abs=1e-12)

    def test_single_day_rejected(self):
        with pytest.raises(errors.InputError,
                           match="need at least 2 trading days"):
            rvmod.compute_rv_series(series_from_days(DAYS[:1]))

    def test_single_bar_day_rejected(self):
        bad = [DAYS[0], [10.0], DAYS[2]]
        with pytest.raises(errors.InputError, match=r"has 1 bar\(s\)"):
            rvmod.compute_rv_series(series_from_days(bad))

    @given(st.lists(
        st.lists(st.floats(min_value=5.0, max_value=20.0), min_size=2,
                 max_size=8),
        min_size=2, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_identity_holds_on_random_paths(self, day_prices):
        # the scale step needs some within-day and some day-over-day
        # movement (the first day never contributes an rv)
        assume(any(p != day[0] for day in day_prices[1:] for p in day))
        assume(any(day[-1] != day_prices[0][-1] for day in day_prices[1:]))
        series = rvmod.compute_rv_series(series_from_days(day_prices))
        assert np.mean(series.ret ** 2) == pytest.approx(
            np.mean(series.rv_adj), rel=1e-12, abs=1e-12)

    @given(st.lists(
        st.lists(st.floats(min_value=5.0, max_value=20.0), min_size=2,
                 max_size=8),
        min_size=2, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_rv_nonnegative(self, day_prices):
        assume(any(p != day[0] for day in day_prices[1:] for p in day))
        assume(any(day[-1] != day_prices[0][-1] for day in day_prices[1:]))
        series = rvmod.compute_rv_series(series_from_days(day_prices))
        assert np.all(series.rv >= 0)
        assert np.all(series.rv_adj >= 0)


class TestPieces:
    def test_scale_parameter_zero_rv_rejected(self):
        with pytest.raises(errors.InputError,
                           match="realized variance sums to zero"):
            rvmod.scale_parameter(np.array([1.0, -1.0]),
                                  np.array([0.0, 0.0]))

    def test_scale_parameter_length_mismatch(self):
        with pytest.raises(errors.InputError,
                           match=r"returns \(1,\) vs rv \(2,\)"):
            rvmod.scale_parameter(np.array([1.0]), np.array([1.0, 2.0]))

    def test_monthly_rv_groups_by_month(self):
        rets = np.array([1.0, 2.0, 3.0, 4.0])
        idx = np.array([0, 0, 1, 1])
        out = rvmod.monthly_rv(rets, idx)
        assert out.tolist() == [5.0, 25.0]

    def test_monthly_rv_gap_rejected(self):
        with pytest.raises(errors.InputError,
                           match="month id 1 has no trading days"):
            rvmod.monthly_rv(np.array([1.0, 2.0]), np.array([0, 2]))


class TestPersistence:
    def test_roundtrip_is_exact(self, tmp_path):
        series = rvmod.compute_rv_series(series_from_days(DAYS))
        csv_path = str(tmp_path / "rv.csv")
        sidecar = str(tmp_path / "rv_lambda.json")
        rvmod.write_rv(series, csv_path, sidecar)
        back = rvmod.read_rv(csv_path)
        assert back.dates == series.dates
        assert np.array_equal(back.ret, series.ret)
        assert np.array_equal(back.rv, series.rv)
        assert np.array_equal(back.rv_adj, series.rv_adj)
        with open(sidecar) as fh:
            doc = json.load(fh)
        assert doc == {"lambda": series.lam, "n_days": series.n_days}

    def test_read_without_sidecar(self, tmp_path):
        series = rvmod.compute_rv_series(series_from_days(DAYS))
        csv_path = str(tmp_path / "rv.csv")
        rvmod.write_rv(series, csv_path, str(tmp_path / "s.json"))
        back = rvmod.read_rv(csv_path)
        assert math.isnan(back.lam)
