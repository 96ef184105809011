import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfvol import errors, features, marketdata
from mfvol.marketdata import Panel, month_ids

from oracles import pca_naive

RNG = np.random.default_rng(42)


def correlated_data(n=200, p=6, seed=0):
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, 2))
    mix = rng.standard_normal((2, p))
    return latent @ mix + 0.1 * rng.standard_normal((n, p)) + 5.0


class TestFitPca:
    def test_agrees_with_svd_route(self):
        data = correlated_data()
        model = features.fit_pca(data, retain=3)
        means, loadings, variances = pca_naive(data, 3)
        assert np.allclose(model.means, means, atol=1e-12)
        assert np.allclose(model.loadings, loadings, atol=1e-8)
        assert np.allclose(model.variances, variances, atol=1e-8)

    def test_loadings_orthonormal(self):
        model = features.fit_pca(correlated_data(), retain=4)
        gram = model.loadings.T @ model.loadings
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_variances_descending(self):
        model = features.fit_pca(correlated_data(), retain=6)
        assert np.all(np.diff(model.variances) <= 1e-12)

    def test_sign_convention(self):
        model = features.fit_pca(correlated_data(), retain=6)
        for j in range(model.retain):
            col = model.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_score_variance_matches_eigenvalue(self):
        data = correlated_data()
        model = features.fit_pca(data, retain=3)
        scores = features.transform(model, data)
        got = scores.var(axis=0, ddof=1)
        assert np.allclose(got, model.variances, rtol=1e-10)

    def test_scores_uncorrelated(self):
        data = correlated_data()
        model = features.fit_pca(data, retain=3)
        scores = features.transform(model, data)
        cov = np.cov(scores, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-10

    def test_contributions_are_variance_shares(self):
        data = correlated_data()
        model = features.fit_pca(data, retain=6)
        assert sum(model.contributions) == pytest.approx(1.0, abs=1e-10)
        total = np.trace(np.cov(data, rowvar=False, ddof=1))
        assert model.contributions[0] == pytest.approx(
            model.variances[0] / total, rel=1e-10)

    def test_full_retain_reconstructs_exactly(self):
        data = correlated_data(p=5)
        model = features.fit_pca(data, retain=5)
        back = features.inverse_transform(
            model, features.transform(model, data))
        assert np.allclose(back, data, atol=1e-10)

    def test_rank_deficient_rejected(self):
        col = RNG.standard_normal(50)
        data = np.column_stack([col, col, RNG.standard_normal(50)])
        with pytest.raises(errors.NumericalError,
                           match="component 3 has variance"):
            features.fit_pca(data, retain=3)

    def test_bad_shapes_rejected(self):
        data = correlated_data(n=10, p=3)
        with pytest.raises(errors.InputError, match="retain must lie in"):
            features.fit_pca(data, retain=0)
        with pytest.raises(errors.InputError, match="retain must lie in"):
            features.fit_pca(data, retain=4)
        with pytest.raises(errors.InputError, match="need a 2-d matrix"):
            features.fit_pca(data[:1], retain=1)
        with pytest.raises(errors.InputError, match="need a 2-d matrix"):
            features.fit_pca(np.array([1.0, 2.0]), retain=1)

    def test_nan_rejected(self):
        data = correlated_data(n=10, p=3)
        data[3, 1] = np.nan
        with pytest.raises(errors.InputError, match="non-finite values"):
            features.fit_pca(data, retain=1)

    @given(arrays(np.float64, (30, 4),
                  elements=st.floats(min_value=-50, max_value=50)),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_projection_never_inflates_variance(self, data, retain):
        try:
            model = features.fit_pca(data, retain=retain)
        except errors.NumericalError:
            return
        scores = features.transform(model, data)
        total = np.trace(np.cov(data, rowvar=False, ddof=1))
        kept = float(np.sum(scores.var(axis=0, ddof=1)))
        assert kept <= total * (1 + 1e-10)


class TestRoundtrip:
    def test_save_load_is_exact(self, tmp_path):
        model = features.fit_pca(correlated_data(), retain=2, group="g",
                                 columns=["a", "b", "c", "d", "e", "f"])
        path = str(tmp_path / "m.json")
        features.save_model(model, path)
        with open(path) as fh:
            back = json.load(fh)
        assert back["group"] == "g"
        assert back["columns"] == list(model.columns)
        for name in ("means", "loadings", "variances", "contributions"):
            assert np.array_equal(back[name], getattr(model, name)), name


def panel_with_groups(n_months=6, days=4, seed=3, n_train=None):
    rng = np.random.default_rng(seed)
    n = n_months * days
    month_index = np.repeat(np.arange(n_months), days)
    dates = [f"2021-{m + 1:02d}-{d + 1:02d}"
             for m in range(n_months) for d in range(days)]
    columns = {}
    for spec in features.DEFAULT_GROUPS:
        if spec.granularity == "monthly":
            base = rng.standard_normal((n_months, len(spec.columns)))
            block = base[month_index]
        else:
            block = rng.standard_normal((n, len(spec.columns)))
        for i, c in enumerate(spec.columns):
            columns[c] = block[:, i].copy()
    return Panel(dates=dates, columns=columns,
                 n_train=n if n_train is None else n_train)


class TestExtractFactorPanel:
    def test_adds_expected_columns(self):
        panel = panel_with_groups()
        out, models = features.extract_factor_panel(
            panel, features.DEFAULT_GROUPS)
        for name in ("pcm1", "pcm2", "tech1", "tech2", "tech3", "bd1"):
            assert name in out.columns
        assert set(models) == {"macro", "tech", "attention"}
        assert "pcm1" not in panel.columns

    def test_monthly_factor_constant_within_month(self):
        panel = panel_with_groups()
        out, _ = features.extract_factor_panel(
            panel, features.DEFAULT_GROUPS)
        month_index = month_ids(out.dates)[1]
        for m in range(int(month_index[-1]) + 1):
            vals = out.columns["pcm1"][month_index == m]
            assert np.ptp(vals) == 0.0

    def test_train_only_fit_ignores_tail_rows(self):
        n_train = 16
        panel = panel_with_groups(n_train=n_train)
        out, models = features.extract_factor_panel(
            panel, features.DEFAULT_GROUPS)
        tampered = Panel(panel.dates, {name: col.copy() for name, col
                                       in panel.columns.items()}, n_train)
        for c in features.TECH_GROUP.columns:
            tampered.columns[c][n_train:] += 100.0
        out2, models2 = features.extract_factor_panel(
            tampered, features.DEFAULT_GROUPS)
        assert np.array_equal(models["tech"].loadings,
                              models2["tech"].loadings)
        assert np.array_equal(out.columns["tech1"][:n_train],
                              out2.columns["tech1"][:n_train])

    def test_monthly_fit_sees_partial_final_month(self):
        # n_train lands mid-month: the broken month still contributes
        panel = panel_with_groups(n_train=14)
        out, models = features.extract_factor_panel(
            panel, features.DEFAULT_GROUPS)
        month_rows = np.column_stack(
            [panel.columns[c] for c in features.MACRO_GROUP.columns]
        )[month_ids(panel.dates)[2]]
        direct = features.fit_pca(month_rows[:4], 2, group="macro",
                                  columns=features.MACRO_GROUP.columns)
        assert np.array_equal(models["macro"].loadings, direct.loadings)

    def test_missing_column_rejected(self):
        panel = panel_with_groups()
        del panel.columns["rsi"]
        with pytest.raises(errors.InputError, match="lacks columns"):
            features.extract_factor_panel(panel, features.DEFAULT_GROUPS)


def test_pca_stages_leave_their_input_panel_as_it_was():
    # every stage returns a new panel and shares the arrays it does not
    # replace, so none may write into a column array in place
    panel = panel_with_groups(n_train=16)
    panel.columns["csi300"] = panel.columns["csi300"].copy()
    panel.columns["csi300"][[0, 15, 16]] = np.nan
    members = [c for spec in features.DEFAULT_GROUPS for c in spec.columns]
    for policy in ("ffill", "linear"):
        stages = [
            lambda p: marketdata.fill_missing(p, policy),
            lambda p: marketdata.normalize(p, members)[0],
            lambda p: features.extract_factor_panel(
                p, features.DEFAULT_GROUPS)[0],
        ]
        stage_in = panel
        for stage in stages:
            keys = list(stage_in.columns)
            cells = [col.tobytes() for col in stage_in.columns.values()]
            out = stage(stage_in)
            assert list(stage_in.columns) == keys
            assert [col.tobytes() for col in stage_in.columns.values()] \
                == cells
            assert (out.dates, out.n_train) == (panel.dates, 16)
            stage_in = out
        assert not np.isnan(out.columns["bd1"]).any()
