import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfvol import garch_midas as gm
from mfvol import marketdata as md
from mfvol import realized_vol as rv
from mfvol import simlab
from mfvol.errors import InputError
from mfvol.simlab import ScenarioSpec


SMALL = dict(seed=3, months=9, days_per_month=10, bars_per_day=12, n_lags=4)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.n_days == 40 * 21
        assert spec.midas_spec().n_covariates == 2

    def test_months_must_exceed_lags(self):
        with pytest.raises(InputError, match="must exceed n_lags"):
            ScenarioSpec(months=6, n_lags=6)

    def test_bounds(self):
        with pytest.raises(InputError, match="days_per_month must lie"):
            ScenarioSpec(days_per_month=40)
        with pytest.raises(InputError, match="bars_per_day must lie"):
            ScenarioSpec(bars_per_day=1)
        with pytest.raises(InputError, match="overnight_frac must lie"):
            ScenarioSpec(overnight_frac=1.0)
        for bad in (dict(start_price=0.0), dict(start_price=math.nan),
                    dict(start_price=math.inf),
                    dict(attention_coef=math.nan),
                    dict(start_month="abc"), dict(start_month="2015-13"),
                    dict(start_month="2015-00"), dict(start_month="2015-1"),
                    # days the pipeline cannot read back: year 0 and
                    # 40 months from 9999-12, which end in year 10003
                    dict(start_month="0000-01"),
                    dict(start_month="9999-12")):
            with pytest.raises(InputError, match=next(iter(bad))):
                ScenarioSpec(**bad)


def make_dates_loop(start_month, months, days_per_month):
    year, mon = int(start_month[:4]), int(start_month[5:7])
    dates, labels = [], []
    for _ in range(months):
        labels.append(f"{year:04d}-{mon:02d}")
        for d in range(1, days_per_month + 1):
            dates.append(f"{year:04d}-{mon:02d}-{d:02d}")
        mon += 1
        if mon > 12:
            mon = 1
            year += 1
    return dates, labels


def rolling_mean_loop(x, window):
    out = np.empty_like(x)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    for i in range(len(x)):
        lo = max(0, i - window + 1)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def rsi_loop(close, window):
    delta = np.diff(close, prepend=close[0])
    up = rolling_mean_loop(np.maximum(delta, 0.0), window)
    down = rolling_mean_loop(np.maximum(-delta, 0.0), window)
    out = np.empty_like(close)
    for i in range(len(close)):
        if down[i] == 0.0 and up[i] == 0.0:
            out[i] = 50.0
        elif down[i] == 0.0:
            out[i] = 100.0
        else:
            out[i] = 100.0 - 100.0 / (1.0 + up[i] / down[i])
    return out


# runs of (step, count): a zero step is a flat run, a positive one a rise
step_runs = st.lists(st.tuples(st.floats(-5.0, 5.0), st.integers(1, 30)),
                     min_size=1, max_size=5)


class TestCalendar:
    def test_make_dates_rolls_over_year(self):
        dates, labels = simlab.make_dates("2019-11", 3, 2)
        assert labels == ["2019-11", "2019-12", "2020-01"]
        assert dates == ["2019-11-01", "2019-11-02", "2019-12-01",
                         "2019-12-02", "2020-01-01", "2020-01-02"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9995), st.integers(1, 12), st.integers(1, 40),
           st.integers(1, 28))
    @example(1, 1, 1, 1)
    @example(9995, 12, 40, 28)
    def test_make_dates_equals_the_month_by_month_loop(self, year, month,
                                                       months, days):
        start = f"{year:04d}-{month:02d}"
        assert simlab.make_dates(start, months, days) \
            == make_dates_loop(start, months, days)


class TestDerivedColumns:
    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.integers(1, 60),
                  elements=st.floats(-1e6, 1e6)), st.integers(1, 80))
    def test_rolling_mean_equals_the_loop_bit_for_bit(self, x, window):
        assert simlab._rolling_mean(x, window).tobytes() \
            == rolling_mean_loop(x, window).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(step_runs, st.integers(1, 40))
    @example([(0.0, 30)], 14)
    @example([(0.5, 30)], 14)
    @example([(1.0, 5), (0.0, 20), (-1.0, 3)], 4)
    def test_rsi_equals_the_loop_bit_for_bit(self, runs, window):
        steps, counts = zip(*runs)
        close = 100.0 + np.cumsum(np.repeat(steps, counts))
        assert simlab._rsi(close, window).tobytes() \
            == rsi_loop(close, window).tobytes()

    def test_rsi_is_50_when_flat_and_100_when_rising(self):
        flat = simlab._rsi(np.full(20, 7.0), 5)
        rise = simlab._rsi(np.arange(20.0), 5)
        assert flat.tolist() == [50.0] * 20
        assert rise.tolist() == [50.0] + [100.0] * 19


class TestIntraday:
    def test_close_to_close_returns_are_exact(self):
        rng = np.random.default_rng(0)
        n = 30
        dates = [f"2020-01-{i + 1:02d}" for i in range(n)]
        var = np.full(n, 1.4)
        target = np.random.default_rng(1).standard_normal(n)
        series = simlab.gen_intraday(dates, var, rng, bars_per_day=10,
                                     overnight_frac=0.2,
                                     target_returns=target)
        closes = series.bars["price"][series.day_starts()[1:] - 1]
        for i in range(1, n):
            got = 100.0 * (math.log(closes[i]) - math.log(closes[i - 1]))
            assert got == pytest.approx(target[i], abs=1e-9)

    def test_bar_grid(self):
        rng = np.random.default_rng(0)
        series = simlab.gen_intraday(["2020-01-01"], np.array([1.0]), rng,
                                     bars_per_day=48)
        assert series.bars["time_min"].tolist() == list(range(0, 240, 5))
        assert series.bars["day"].tolist() == [0] * 48

    def test_zero_overnight_keeps_open_at_prior_close(self):
        rng = np.random.default_rng(2)
        dates = ["2020-01-01", "2020-01-02", "2020-01-03"]
        series = simlab.gen_intraday(dates, np.ones(3), rng, bars_per_day=6,
                                     overnight_frac=0.0)
        prices = series.bars["price"].reshape(3, 6)
        for i in range(1, 3):
            assert prices[i, 0] == pytest.approx(prices[i - 1, -1], rel=1e-12)

    def test_length_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputError, match="differ in length"):
            simlab.gen_intraday(["a", "b"], np.ones(3), rng)
        with pytest.raises(InputError, match="target_returns misaligned"):
            simlab.gen_intraday(["a"], np.ones(1), rng,
                                target_returns=np.ones(2))

    def test_negative_variance_rejected(self):
        with pytest.raises(InputError, match="must be nonnegative"):
            simlab.gen_intraday(["a"], np.array([-1.0]),
                                np.random.default_rng(0))


def read_truth(paths):
    with open(paths["truth"]) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def scen(tmp_path_factory):
    out = tmp_path_factory.mktemp("scen")
    return simlab.gen_full_scenario(ScenarioSpec(**SMALL), str(out))


@pytest.fixture(scope="module")
def truth(scen):
    return read_truth(scen)


class TestFullScenario:
    def test_files_exist_and_load(self, scen):
        intraday = md.load_intraday(scen["intraday"])
        daily = md.load_daily(scen["daily"])
        monthly = md.load_monthly(scen["monthly"])
        att = md.load_attention(scen["attention"])
        n_days = SMALL["months"] * SMALL["days_per_month"]
        dates, months = simlab.make_dates(ScenarioSpec().start_month,
                                          SMALL["months"],
                                          SMALL["days_per_month"])
        assert len(intraday.bars) == n_days * SMALL["bars_per_day"]
        assert intraday.dates == dates
        assert daily.dates == dates
        assert monthly.dates == months
        assert att.dates == dates

    def test_truth_json_refilters_to_same_h(self, truth):
        assert truth["mode"] == "exogenous"
        spec = gm.MidasSpec(n_lags=truth["n_lags"],
                            n_covariates=len(truth["params"]["theta"]),
                            tau_link=truth["tau_link"])
        params = gm.MidasParams(**truth["params"])
        n_dpm = truth["days_per_month"]
        data = gm.MidasData(
            returns=np.array(truth["returns"]),
            month_index=np.repeat(np.arange(truth["months"]), n_dpm),
            covariates=np.array(truth["covariates"]),
        )
        filt = gm.filter_volatility(spec, params, data)
        assert filt.day_slice.start == truth["modeled_start"]
        assert np.allclose(filt.h, truth["h"], rtol=1e-12, atol=1e-12)
        assert np.allclose(filt.tau, truth["tau"], rtol=1e-12, atol=1e-12)

    def test_truth_day_variance_combines_h_and_multiplier(self, truth):
        start = truth["modeled_start"]
        h = np.array(truth["h"])
        dv = np.array(truth["day_variance"])[start:]
        coef = truth["attention_coef"]
        lagged = np.concatenate([[0.0],
                                 np.array(truth["attention_latent"])[:-1]])
        mult = np.exp(coef * lagged - 0.5 * coef * coef)[start:]
        assert np.allclose(dv, h * mult, rtol=1e-12)

    def test_intraday_reproduces_model_returns(self, scen, truth):
        series = md.load_intraday(scen["intraday"])
        out, _ = rv.compute_rv_series(series)
        want = np.array(truth["returns"])[1:]
        assert np.allclose(out.columns["ret"], want, atol=1e-9)

    def test_rv_pipeline_accepts_scenario(self, scen):
        series = md.load_intraday(scen["intraday"])
        out, lam = rv.compute_rv_series(series)
        ret, rv_adj = out.columns["ret"], out.columns["rv_adj"]
        assert lam > 0
        assert np.all(rv_adj > 0)
        ident = abs(float(np.mean(ret ** 2) - np.mean(rv_adj)))
        assert ident < 1e-12

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        simlab.gen_full_scenario(ScenarioSpec(**SMALL), str(a))
        simlab.gen_full_scenario(ScenarioSpec(**SMALL), str(b))
        for name in ("intraday.csv", "daily.csv", "monthly.csv",
                     "attention.csv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_differs(self, truth, tmp_path):
        other = dict(SMALL, seed=SMALL["seed"] + 1)
        out = simlab.gen_full_scenario(ScenarioSpec(**other), str(tmp_path))
        assert read_truth(out)["returns"] != truth["returns"]

    def test_attention_placebo(self, tmp_path):
        # coef 0 switches the volatility channel off: day variance is h
        spec = ScenarioSpec(**dict(SMALL, attention_coef=0.0))
        truth = read_truth(simlab.gen_full_scenario(spec, str(tmp_path)))
        start = truth["modeled_start"]
        dv = np.array(truth["day_variance"])[start:]
        assert np.array_equal(dv, np.array(truth["h"]))

    def test_monthly_columns_follow_known_loadings(self, scen, truth):
        # subtracting mean and factor loadings must leave only the
        # _MACRO_NOISE-scaled innovations
        X = np.array(truth["covariates"])
        meci = md.load_monthly(scen["monthly"]).columns["meci"]
        resid = meci - simlab._MACRO_MEANS[0] \
            - simlab._MACRO_LOAD_1[0] * X[:, 0] \
            - simlab._MACRO_LOAD_2[0] * X[:, 1]
        noise = simlab._MACRO_NOISE
        assert np.all(np.abs(resid) < 6.0 * noise)
        assert np.std(resid) < 3.0 * noise


@pytest.mark.parametrize("days", [8, 30])
def test_roc_lag_is_twelve_days_or_back_to_the_first_close(days):
    series = simlab.gen_intraday(
        [f"2020-01-{d + 1:02d}" for d in range(days)], np.ones(days),
        np.random.default_rng(0), bars_per_day=4)
    close = series.bars["price"][3::4]
    roc = simlab._daily_columns(series, np.ones(days))["roc"]
    want = [100.0 * (close[i] / close[max(i - 12, 0)] - 1.0)
            for i in range(days)]
    assert roc.tolist() == want
