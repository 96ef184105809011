import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvol import evaluation as ev
from mfvol.errors import InputError, MalformedRow

from oracles import losses_naive

RNG = np.random.default_rng(21)


def random_pair(n=60, seed=0):
    rng = np.random.default_rng(seed)
    truth = np.exp(rng.standard_normal(n) * 0.6)
    pred = truth * np.exp(rng.standard_normal(n) * 0.3)
    return pred, truth


class TestLossValues:
    def test_all_measures_match_loop_oracle(self):
        for seed in range(4):
            pred, truth = random_pair(seed=seed)
            want = losses_naive(list(pred), list(truth))
            assert ev.mse(pred, truth) == pytest.approx(want["mse"], rel=1e-12)
            assert ev.hmse(pred, truth) == pytest.approx(want["hmse"], rel=1e-12)
            assert ev.mae(pred, truth) == pytest.approx(want["mae"], rel=1e-12)
            assert ev.mape(pred, truth) == pytest.approx(want["mape"], rel=1e-12)
            assert ev.qlike(pred, truth) == pytest.approx(want["qlike"], rel=1e-12)
            assert ev.r2log(pred, truth) == pytest.approx(want["r2log"], rel=1e-10)

    def test_returns_python_floats(self):
        pred, truth = random_pair()
        for fn in (ev.mse, ev.hmse, ev.mae, ev.mape, ev.qlike, ev.r2log):
            assert type(fn(pred, truth)) is float

    def test_perfect_forecast(self):
        truth = np.array([0.5, 1.0, 2.0, 4.0])
        assert ev.mse(truth, truth) == 0.0
        assert ev.hmse(truth, truth) == 0.0
        assert ev.mae(truth, truth) == 0.0
        assert ev.mape(truth, truth) == 0.0
        assert ev.r2log(truth, truth) == pytest.approx(1.0)

    def test_qlike_is_minimized_at_truth(self):
        # for each observation, h -> ln h + rv/h has its minimum at h = rv
        truth = np.full(5, 1.7)
        base = ev.qlike(truth, truth)
        for bump in (0.7, 0.9, 1.1, 1.5, 3.0):
            assert ev.qlike(truth * bump, truth) > base

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_qlike_ordering_property(self, h, rv):
        scalar = math.log(h) + rv / h
        optimum = math.log(rv) + 1.0
        assert scalar >= optimum - 1e-12

    def test_r2log_direction(self):
        pred, truth = random_pair(n=200, seed=9)
        good = ev.r2log(pred, truth)
        noise = np.exp(RNG.standard_normal(200) * 0.6)
        bad = ev.r2log(noise, truth)
        assert good > bad


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(InputError, match=r"pred \(3,\) vs truth \(4,\)"):
            ev.mse(np.ones(3), np.ones(4))

    def test_empty(self):
        with pytest.raises(InputError, match="empty series"):
            ev.mae(np.array([]), np.array([]))

    def test_nonpositive_truth(self):
        for fn in (ev.hmse, ev.mape, ev.r2log):
            with pytest.raises(InputError,
                               match="needs positive realized values"):
                fn(np.ones(4), np.array([1.0, 2.0, 0.0, 3.0]))

    def test_nonpositive_forecast(self):
        for fn in (ev.qlike, ev.r2log):
            with pytest.raises(InputError, match="needs positive forecasts"):
                fn(np.array([1.0, -0.5, 2.0]), np.ones(3))

    def test_r2log_needs_spread_and_length(self):
        with pytest.raises(InputError, match="at least 3 observations"):
            ev.r2log(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(InputError,
                           match="log realized values are constant"):
            ev.r2log(np.array([1.0, 2.0, 3.0]), np.full(3, 2.0))

    def test_r2log_constant_forecast_scores_zero(self):
        truth = np.array([1.0, 2.0, 3.0, 1.5])
        assert ev.r2log(np.full(4, 2.0), truth) == 0.0


class TestEvaluate:
    def test_row_fields(self):
        pred, truth = random_pair(seed=3)
        row = ev.evaluate(pred, truth, model="m", group="G2")
        want = losses_naive(list(pred), list(truth))
        assert (row.model, row.group, row.n) == ("m", "G2", len(pred))
        assert row.mse == pytest.approx(want["mse"], rel=1e-12)
        assert row.qlike == pytest.approx(want["qlike"], rel=1e-12)

    def test_drops_nonpositive_pairs(self, caplog):
        pred = np.array([1.0, -1.0, 2.0, 3.0, 4.0])
        truth = np.array([1.1, 2.0, 0.0, 2.9, 4.2])
        with caplog.at_level(logging.WARNING, logger="mfvol.evaluation"):
            row = ev.evaluate(pred, truth)
        assert row.n == 3
        assert "dropped 2" in caplog.text
        clean = ev.evaluate(pred[[0, 3, 4]], truth[[0, 3, 4]])
        assert row.mse == clean.mse

    def test_too_few_survivors(self):
        with pytest.raises(InputError, match="only 2 usable pairs left"):
            ev.evaluate(np.array([1.0, -1.0, -2.0, 2.0]),
                        np.array([1.0, 1.0, 1.0, 1.0]))


class TestBaselineAndGroups:
    def test_persistence_shift(self):
        rv = np.array([1.0, 2.0, 3.0, 4.0])
        pred, truth = ev.persistence_baseline(rv)
        assert np.array_equal(pred, [1.0, 2.0, 3.0])
        assert np.array_equal(truth, [2.0, 3.0, 4.0])

    def test_persistence_too_short(self):
        with pytest.raises(InputError, match="at least 2 observations"):
            ev.persistence_baseline([1.0])

    def test_ablation_groups(self):
        assert ev.ablation_features("G1") == ("tech1", "tech2", "tech3")
        assert ev.ablation_features("G4") == ("tech1", "tech2", "tech3",
                                              "bd1", "h")
        assert set(ev.ablation_features("G3")) - set(
            ev.ablation_features("G1")) == {"h"}
        with pytest.raises(InputError):
            ev.ablation_features("G9")


class TestReportFiles:
    def test_roundtrip_with_footer(self, tmp_path):
        pred, truth = random_pair(seed=5)
        rows = [ev.evaluate(pred, truth, model="transformer", group=g)
                for g in ("G1", "G4")]
        path = tmp_path / "report.csv"
        ev.write_report(rows, str(path))
        text = path.read_text()
        assert text.startswith(",".join(ev.REPORT_COLUMNS))
        assert "# qlike" in text
        back = ev.read_report(str(path))
        assert back == rows

    def test_footer_optional(self, tmp_path):
        path = tmp_path / "r.csv"
        ev.write_report([], str(path), footer=False)
        assert "#" not in path.read_text()
        assert ev.read_report(str(path)) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("nope\n")
        with pytest.raises(MalformedRow):
            ev.read_report(str(path))
