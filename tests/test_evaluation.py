import ast
import logging
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfvol
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

    def test_a_nonpositive_pair_is_scored_by_the_rule_of_score(self,
                                                                caplog):
        pred, truth = random_pair(seed=4)
        pred[3] = -0.1
        with caplog.at_level(logging.WARNING, logger="mfvol.evaluation"):
            row = ev.evaluate(pred, truth, model="m", group="G2")
        assert caplog.text.count("WARNING") == 1
        assert "scored m/G2 on 59 of 60 days" in caplog.text
        assert [row] == ev.score({("m", "G2"): pred}, truth)


class TestScore:
    def forecasts(self):
        truth = random_pair(seed=5)[1]
        return {(f"m{k}", f"G{k}"): random_pair(seed=k)[0]
                for k in (3, 1, 2)}, truth

    def test_rows_match_evaluate_on_common_days(self, caplog):
        forecasts, truth = self.forecasts()
        truth[7] = 0.0
        forecasts["m1", "G1"][[2, 40]] = [-1.0, 0.0]
        keep = [t > 0 and all(f[i] > 0 for f in forecasts.values())
                for i, t in enumerate(truth)]
        with caplog.at_level(logging.WARNING, logger="mfvol.evaluation"):
            rows = ev.score(forecasts, truth)
        assert sum(keep) == len(truth) - 3
        assert rows == [ev.evaluate(f[keep], truth[keep], model=m, group=g)
                        for (m, g), f in forecasts.items()]
        assert [r.n for r in rows] == [len(truth) - 3] * 3
        assert caplog.text.count("WARNING") == 1
        assert f"on {len(truth) - 3} of {len(truth)} days" in caplog.text

    def test_a_day_left_out_of_one_row_leaves_every_row(self):
        forecasts, truth = self.forecasts()
        whole = ev.score(forecasts, truth)
        for key in forecasts:
            drop = {k: f.copy() for k, f in forecasts.items()}
            drop[key][11] = 0.0
            rows = ev.score(drop, truth)
            rest = np.arange(len(truth)) != 11
            assert [(r.model, r.group) for r in rows] == list(forecasts)
            assert rows == [ev.evaluate(f[rest], truth[rest], model=m,
                                        group=g)
                            for (m, g), f in forecasts.items()]
            assert all(r.mse != w.mse for r, w in zip(rows, whole))

    def test_drops_nonpositive_pairs(self, caplog):
        pred = np.array([1.0, -1.0, 2.0, 3.0, 4.0])
        truth = np.array([1.1, 2.0, 0.0, 2.9, 4.2])
        with caplog.at_level(logging.WARNING, logger="mfvol.evaluation"):
            [row] = ev.score({("transformer", "G4"): pred}, truth)
        assert row.n == 3
        assert caplog.text.count("WARNING") == 1
        assert "scored transformer/G4 on 3 of 5 days" in caplog.text
        clean = ev.evaluate(pred[[0, 3, 4]], truth[[0, 3, 4]])
        assert row == clean

    def test_too_few_survivors(self, caplog):
        with caplog.at_level(logging.WARNING, logger="mfvol.evaluation"), \
                pytest.raises(InputError) as info:
            ev.score({("m", "G1"): np.array([1.0, -1.0, -2.0, 2.0])},
                     np.array([1.0, 1.0, 1.0, 1.0]))
        assert str(info.value) == (
            "scoring m/G1: only 2 of 4 days have a positive truth and a "
            "positive forecast; at least 3 are needed")
        assert caplog.text == ""

    def test_too_few_days_names_every_row(self):
        forecasts, truth = self.forecasts()
        forecasts["m2", "G2"][2:] = 0.0
        with pytest.raises(InputError, match=(
                r"^scoring m3/G3, m1/G1, m2/G2: only 2 of 60 days ")):
            ev.score(forecasts, truth)

    def test_lengths_must_match(self):
        forecasts, truth = self.forecasts()
        with pytest.raises(InputError, match="pred"):
            ev.score(forecasts, truth[1:])


class TestBaselineAndGroups:
    def test_persistence_shift(self):
        rv = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(ev.persistence_baseline(rv, 1), [1.0, 2.0, 3.0])

    def test_persistence_from_row_first(self):
        # the forecast of rows first... is rv of rows first-1 ... n-2
        rv = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        for first in range(1, 5):
            pred = ev.persistence_baseline(rv, first)
            assert len(pred) == len(rv[first:])
            assert np.array_equal(pred, rv[first - 1:-1])
        assert np.array_equal(ev.persistence_baseline(rv, 3), [3.0, 4.0])

    def test_persistence_too_short(self):
        for rv, first in (([1.0], 1), ([1.0, 2.0], 0), ([1.0, 2.0], 2)):
            with pytest.raises(InputError, match="needs a previous day"):
                ev.persistence_baseline(rv, first)

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


def test_only_evaluation_calls_evaluate():
    # evaluation.score decides which days count; a caller that scored a
    # row through evaluate itself would fork that rule again
    callers = set()
    for path in sorted(pathlib.Path(mfvol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "evaluate" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                callers.add(path.name)
    assert callers <= {"evaluation.py"}
