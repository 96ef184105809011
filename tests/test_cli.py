import contextlib
import io
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfvol import cli, evaluation
from mfvol import transformer as tfm
from mfvol.marketdata import Panel
from mfvol.errors import InputError, MalformedRow

from forks import no_child_left, on_cpus


def run(argv):
    return cli.main(argv)


class TestFactorTableIO:
    def small_table(self):
        return Panel(
            dates=["2020-01-01", "2020-01-02", "2020-01-03"],
            n_train=2,
            columns={"ret": np.array([0.1, -0.2, 0.3]),
                     "rv": np.array([1.0, 2.0, 3.0]),
                     "tech1": np.array([0.5, 0.6, 0.7])},
        )

    def test_roundtrip(self, tmp_path):
        table = self.small_table()
        path = tmp_path / "factors.csv"
        cli.write_factors(table, str(path))
        back = cli.read_factors(str(path))
        assert back.dates == table.dates
        assert back.n_train == table.n_train
        assert list(back.columns) == list(table.columns)
        for name in table.columns:
            assert np.array_equal(back.columns[name], table.columns[name])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("date,ret,rv\n2020-01-01,0.1,1.0\n")
        with pytest.raises(MalformedRow):
            cli.read_factors(str(path))

    def test_bad_split_token(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("date,split,ret,rv\n2020-01-01,validation,0.1,1.0\n")
        with pytest.raises(MalformedRow):
            cli.read_factors(str(path))

    def test_dates_must_increase(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("date,split,ret,rv\n"
                        "2020-01-02,train,0.1,1.0\n"
                        "2020-01-01,train,0.2,2.0\n")
        with pytest.raises(MalformedRow):
            cli.read_factors(str(path))

    def test_join_h_trailing_block(self, tmp_path):
        table = self.small_table()
        h = tmp_path / "h.csv"
        h.write_text("date,tau,g,h\n"
                     "2020-01-02,1.0,1.0,1.5\n"
                     "2020-01-03,1.0,1.0,2.5\n")
        joined = cli.join_h(table, str(h))
        assert joined.dates == ["2020-01-02", "2020-01-03"]
        assert np.array_equal(joined.columns["h"], [1.5, 2.5])
        assert joined.n_train == 1

    def test_join_h_rejects_gap(self, tmp_path):
        table = self.small_table()
        h = tmp_path / "h.csv"
        h.write_text("date,tau,g,h\n"
                     "2020-01-01,1.0,1.0,1.5\n"
                     "2020-01-03,1.0,1.0,2.5\n")
        with pytest.raises(InputError, match="trailing contiguous block"):
            cli.join_h(table, str(h))

    def test_join_h_rejects_non_trailing(self, tmp_path):
        table = self.small_table()
        h = tmp_path / "h.csv"
        h.write_text("date,tau,g,h\n"
                     "2020-01-01,1.0,1.0,1.5\n"
                     "2020-01-02,1.0,1.0,2.5\n")
        with pytest.raises(InputError, match="trailing contiguous block"):
            cli.join_h(table, str(h))

    def test_join_h_rejects_unknown_dates(self, tmp_path):
        table = self.small_table()
        h = tmp_path / "h.csv"
        h.write_text("date,tau,g,h\n2021-05-05,1.0,1.0,1.5\n")
        with pytest.raises(InputError, match="trailing contiguous block"):
            cli.join_h(table, str(h))

    def test_windowed_split_labels_by_target_row(self):
        table = Panel(
            dates=[f"2020-01-{d:02d}" for d in range(1, 8)],
            n_train=5,
            columns={"ret": np.zeros(7),
                     "rv": np.arange(7, dtype=float) + 1.0,
                     "tech1": np.arange(7, dtype=float)},
        )
        dataset, n_fit = cli.windowed_split(table, ("tech1",), 2)
        assert dataset.dates == table.dates[2:]
        assert n_fit == 3     # the samples whose targets are rows 2..4
        # last test sample reads rows 4..5 (train+test inputs, test target)
        assert np.array_equal(dataset.X[-1][:, 0], [4.0, 5.0])
        assert dataset.y[-1] == 7.0

    def test_windowed_split_missing_column(self):
        table = self.small_table()
        with pytest.raises(InputError, match="lacks feature columns"):
            cli.windowed_split(table, ("nope",), 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["train", "test"]), min_size=1,
                max_size=12))
def test_read_factors_takes_train_rows_first(tmp_path_factory, stamps):
    path = tmp_path_factory.mktemp("factors") / "factors.csv"
    path.write_text("date,split,ret,rv\n" + "".join(
        f"2020-01-{i + 1:02d},{s},0.1,1.0\n" for i, s in enumerate(stamps)))
    leading = next((i for i, s in enumerate(stamps) if s == "test"),
                   len(stamps))
    late = [i for i, s in enumerate(stamps) if s == "train" and i > leading]
    if not late:
        table = cli.read_factors(str(path))
        assert table.n_train == leading
        assert table.n_rows == len(stamps)
    else:
        with pytest.raises(MalformedRow) as info:
            cli.read_factors(str(path))
        assert info.value.line == late[0] + 2    # the header is line 1


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("# comment line\n"
                       "out-csv = from_config.csv   # trailing comment\n"
                       "months = 9\n")
        parsed = cli.load_config(str(cfg))
        assert parsed == {"out_csv": "from_config.csv", "months": "9"}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("no equals sign here\n")
        with pytest.raises(MalformedRow):
            cli.load_config(str(cfg))

    def test_flag_beats_config_beats_default(self, pipeline, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 2\nlr = 0.005\nfeatures = tech1,tech2\n")
        hist = tmp_path / "hist.csv"
        assert run(["train", "--factors", str(pipeline / "factors.csv"),
                    "--config", str(cfg),
                    "--out-model", str(tmp_path / "m.json"),
                    "--out-history", str(hist)]) == 0
        assert hist.read_text().count("\n") == 3   # header + 2 epochs

        assert run(["train", "--factors", str(pipeline / "factors.csv"),
                    "--config", str(cfg), "--epochs", "1",
                    "--out-model", str(tmp_path / "m.json"),
                    "--out-history", str(hist)]) == 0
        assert hist.read_text().count("\n") == 2   # flag overrode the file

    def test_missing_config_file(self, tmp_path):
        assert run(["rv", "--config", str(tmp_path / "absent.cfg"),
                    "--intraday", "whatever.csv"]) == 2

    @pytest.mark.parametrize("command, text, message", [
        ("simulate", "months = ten\n", "bad value 'ten' for --months"),
        ("pca", "ratio = 0.x\n", "bad value '0.x' for --ratio"),
        ("pca", "fill = cubic\n",
         "--fill must be one of ffill, linear, got 'cubic'"),
        ("train", "shuffle = maybe\n", "bad value 'maybe' for --shuffle"),
        ("simulate", "monhts = 5\n", "simulate takes no option 'monhts'"),
        ("simulate", "months = 9\nmonths = 8\n",
         "bad.cfg:2: repeated key 'months'"),
        ("simulate", b"months = \xff\n",
         "bad.cfg:1: not valid UTF-8 (byte 0xff)"),
        ("simulate", "seed = -1\n", "bad value '-1' for --seed"),
        ("midas-fit", "seed = -1\n", "bad value '-1' for --seed"),
        ("train", "seed = -1\n", "bad value '-1' for --seed"),
        ("ablate", "seed = -1\n", "bad value '-1' for --seed"),
        ("simulate", "start_month = abc\n", "start_month must be YYYY-MM"),
        ("simulate", "start_month = 2015-13\n",
         "start_month must be YYYY-MM with a month from 01 to 12"),
        # rv cannot read the days back: year 0, and year 10003 after the
        # default 40 months
        ("simulate", "start_month = 0000-01\n",
         "start_month=0000-01 with months=40 ends at 0003-04, outside"),
        ("simulate", "start_month = 9999-12\n",
         "start_month=9999-12 with months=40 ends at 10003-03, outside"),
        ("simulate", "start_price = nan\n",
         "start_price must be positive and finite"),
        ("simulate", "attention_coef = nan\n",
         "attention_coef must be finite"),
    ], ids=["bad-int", "bad-float", "bad-choice", "bad-switch",
            "unknown-key", "repeated-key", "not-utf8", "simulate-seed",
            "midas-fit-seed", "train-seed", "ablate-seed",
            "start-month-text", "start-month-13", "start-month-year-0",
            "start-month-past-9999", "start-price-nan",
            "attention-coef-nan"])
    def test_bad_config_exits_2(self, scenario_dir, pipeline, tmp_path,
                                capsys, command, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "out"
        inputs = {
            "simulate": ["--out", str(out)],
            "pca": ["--daily", str(scenario_dir / "daily.csv"),
                    "--attention", str(scenario_dir / "attention.csv"),
                    "--monthly", str(scenario_dir / "monthly.csv"),
                    "--rv", str(pipeline / "rv.csv"), "--out-dir", str(out)],
            "midas-fit": ["--factors", str(pipeline / "factors.csv"),
                          "--n-lags", "6", "--out-fit", str(out),
                          "--out-h", str(tmp_path / "h.csv")],
            "train": ["--factors", str(pipeline / "factors.csv"),
                      "--h-file", str(pipeline / "h.csv"), "--epochs", "1",
                      "--out-model", str(out),
                      "--out-history", str(tmp_path / "hist.csv")],
            "ablate": ["--factors", str(pipeline / "factors.csv"),
                       "--h-file", str(pipeline / "h.csv"), "--epochs", "1",
                       "--out", str(out)],
        }[command]
        code = run([command, "--config", str(cfg)] + inputs)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_help_shows_each_default(self, capsys):
        for command, table in cli.OPTIONS.items():
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            shown = " ".join(capsys.readouterr().out.split())
            for name, (_, default) in table.items():
                text = ("required" if default is cli.REQUIRED else
                        "optional" if default is None
                        else f"default: {default}")
                # the flag's own entry: flag, metavar if any, then text
                entry = (re.escape(cli._flag(name)) + r"(?: \S+)? "
                         + re.escape(text) + r"(?: |$)")
                assert re.search(entry, shown), (command, name)


def declared(kind, value):
    """Whether ``value`` has the type an option of ``kind`` declares."""
    if isinstance(kind, tuple):
        return value in kind
    if kind is cli._parse_names:
        return (isinstance(value, tuple) and len(value) > 0
                and all(isinstance(v, str) and v for v in value))
    return type(value) is {cli._parse_bool: bool,
                           cli._parse_seed: int}.get(kind, kind)


def resolve_with(cfg_dir, command, name, text, by_flag):
    """``cli.resolve`` with option ``name`` given ``text`` by flag or
    by config file, and every other required option given by flag."""
    kind, _ = cli.OPTIONS[command][name]
    argv = [command] + [f"{cli._flag(n)}=x"
                        for n, (_, d) in cli.OPTIONS[command].items()
                        if d is cli.REQUIRED and n != name]
    if not by_flag:
        cfg = cfg_dir / "opts.cfg"
        cfg.write_text(f"{name} = {text}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    elif kind is cli._parse_bool:
        argv.append(cli._flag(name))
    else:
        argv.append(f"{cli._flag(name)}={text}")
    return cli.resolve(command, cli.build_parser().parse_args(argv))


@settings(max_examples=300, deadline=None)
@example(case=("simulate", "out"), text="--")
@given(case=st.sampled_from([(c, n) for c, table in cli.OPTIONS.items()
                             for n in table]),
       text=st.one_of(st.text(), st.sampled_from(
           ["1", "-2", "0.5", "nan", "1e400", "true", "off", "a,b", " , ",
            "log", "test", "sgd", "ffill", "rv-window", "x # y", "a\nb"])))
def test_any_option_text_resolves_or_is_an_input_error(tmp_path_factory,
                                                       case, text):
    command, name = case
    outcomes = []
    for by_flag in (True, False):
        try:
            o = resolve_with(tmp_path_factory.getbasetemp(), command, name,
                             text, by_flag)
        except InputError:
            outcomes.append(None)
            continue
        for n, (kind, default) in cli.OPTIONS[command].items():
            value = getattr(o, n)
            assert (value is None and default is None) \
                or declared(kind, value), (n, value)
        outcomes.append(getattr(o, name))
    # a file value is stripped and cut at '#' and at line ends; any other
    # text means the same given by flag or by file, switches aside
    plain = text == text.strip() and not set(text) & set("#\r\n")
    if plain and cli.OPTIONS[command][name][0] is not cli._parse_bool:
        assert repr(outcomes[0]) == repr(outcomes[1])


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        for name in ("rv.csv", "rv_lambda.json", "factors.csv",
                     "norm_stats.json", "pca_macro.json", "pca_tech.json",
                     "pca_attention.json", "midas_fit.json", "h.csv"):
            assert (pipeline / name).exists(), name

    def test_factors_have_expected_columns(self, pipeline):
        table = cli.read_factors(str(pipeline / "factors.csv"))
        assert list(table.columns) == ["ret", "rv", "pcm1", "pcm2",
                                       "tech1", "tech2", "tech3", "bd1"]
        assert 0 < table.n_train < table.n_rows

    def test_boundary_is_floor_of_ratio(self, pipeline):
        table = cli.read_factors(str(pipeline / "factors.csv"))
        meta = json.loads((pipeline / "norm_stats.json").read_text())
        assert meta["n_train"] == math.floor(table.n_rows * 0.9)
        assert table.n_train == meta["n_train"]
        assert meta["boundary_date"] == table.dates[table.n_train - 1]

    def test_h_joins_cleanly(self, pipeline):
        table = cli.read_factors(str(pipeline / "factors.csv"))
        joined = cli.join_h(table, str(pipeline / "h.csv"))
        assert joined.dates[-1] == table.dates[-1]
        assert np.all(joined.columns["h"] > 0)

    def test_train_predict_evaluate(self, pipeline, tmp_path):
        model = tmp_path / "weights.json"
        assert run(["train", "--factors", str(pipeline / "factors.csv"),
                    "--h-file", str(pipeline / "h.csv"),
                    "--lr", "0.005", "--epochs", "3",
                    "--out-model", str(model),
                    "--out-history", str(tmp_path / "hist.csv")]) == 0

        pred = tmp_path / "pred.csv"
        assert run(["predict", "--factors", str(pipeline / "factors.csv"),
                    "--h-file", str(pipeline / "h.csv"),
                    "--model", str(model), "--out", str(pred)]) == 0
        dates, truth, values = cli.read_predictions(str(pred))
        table = cli.read_factors(str(pipeline / "factors.csv"))
        assert dates == table.dates[table.n_train:]
        rv_map = dict(zip(table.dates, table.columns["rv"]))
        assert truth == pytest.approx([rv_map[d] for d in dates])

        report = tmp_path / "report.csv"
        assert run(["evaluate", "--pred", str(pred), "--persistence",
                    "--out", str(report)]) == 0
        rows = evaluation.read_report(str(report))
        assert [r.model for r in rows] == ["transformer", "persistence"]
        assert rows[0].n == len(dates)

    def test_predict_split_all_and_train(self, pipeline, tmp_path):
        model = tmp_path / "weights.json"
        assert run(["train", "--factors", str(pipeline / "factors.csv"),
                    "--features", "tech1,tech2,tech3",
                    "--lr", "0.005", "--epochs", "2",
                    "--out-model", str(model),
                    "--out-history", str(tmp_path / "hist.csv")]) == 0
        table = cli.read_factors(str(pipeline / "factors.csv"))
        window = 5
        for which, want in (("all", table.n_rows - window),
                            ("train", table.n_train - window),
                            ("test", table.n_rows - table.n_train)):
            out = tmp_path / f"pred_{which}.csv"
            assert run(["predict", "--factors",
                        str(pipeline / "factors.csv"),
                        "--model", str(model), "--split", which,
                        "--out", str(out)]) == 0
            dates, _, _ = cli.read_predictions(str(out))
            assert len(dates) == want, which

    def test_evaluate_append_and_footer(self, pipeline, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("date,rv_true,rv_pred\n"
                        + "".join(f"2020-01-{d:02d},1.{d},1.0\n"
                                  for d in range(1, 6)))
        report = tmp_path / "report.csv"
        assert run(["evaluate", "--pred", str(pred), "--group", "G1",
                    "--out", str(report), "--no-footer"]) == 0
        assert "#" not in report.read_text()
        assert run(["evaluate", "--pred", str(pred), "--group", "G2",
                    "--out", str(report), "--append"]) == 0
        rows = evaluation.read_report(str(report))
        assert [r.group for r in rows] == ["G1", "G2"]
        assert "# qlike" in report.read_text()

    def test_rerun_is_byte_identical(self, scenario_dir, pipeline,
                                     tmp_path):
        out = tmp_path
        assert run(["rv", "--intraday", str(scenario_dir / "intraday.csv"),
                    "--out-csv", str(out / "rv.csv"),
                    "--out-sidecar", str(out / "rv_lambda.json")]) == 0
        assert run(["pca", "--daily", str(scenario_dir / "daily.csv"),
                    "--attention", str(scenario_dir / "attention.csv"),
                    "--monthly", str(scenario_dir / "monthly.csv"),
                    "--rv", str(out / "rv.csv"),
                    "--out-dir", str(out)]) == 0
        assert run(["midas-fit", "--factors", str(out / "factors.csv"),
                    "--n-lags", "6",
                    "--out-fit", str(out / "midas_fit.json"),
                    "--out-h", str(out / "h.csv")]) == 0
        for name in ("rv.csv", "factors.csv", "h.csv", "midas_fit.json"):
            assert (out / name).read_bytes() \
                == (pipeline / name).read_bytes(), name


class TestFreeW1:
    def test_flag_and_config_fit_free_w1(self, pipeline, tmp_path):
        from mfvol import garch_midas as gm

        common = ["midas-fit", "--factors", str(pipeline / "factors.csv"),
                  "--n-lags", "6", "--restarts", "1",
                  "--out-h", str(tmp_path / "h.csv")]
        by_flag = tmp_path / "flag.json"
        assert run(common + ["--free-w1", "--out-fit", str(by_flag)]) == 0
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("free_w1 = true\n")
        by_config = tmp_path / "config.json"
        assert run(common + ["--config", str(cfg),
                             "--out-fit", str(by_config)]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()

        doc = json.loads(by_flag.read_text())
        spec = gm.MidasSpec(**doc["spec"])
        params = gm.MidasParams(**doc["params"])
        assert doc["spec"]["free_w1"] is True
        assert np.all(params.w1 >= 1.0)
        # _pack floors w1 - 1 at 1e-10, so a w1 fitted onto its bound
        # of 1 comes back 1e-10 above it
        back = gm._unpack(gm._pack(params, spec), spec)
        np.testing.assert_allclose(back.w1, params.w1, rtol=1e-9)


class TestAblate:
    def test_ladder_runs_and_reports(self, pipeline, tmp_path):
        report = tmp_path / "report.csv"
        assert run(["ablate", "--factors", str(pipeline / "factors.csv"),
                    "--h-file", str(pipeline / "h.csv"),
                    "--groups", "G1,G3",
                    "--lr", "0.005", "--epochs", "2",
                    "--out", str(report)]) == 0
        rows = evaluation.read_report(str(report))
        assert [r.group for r in rows] == ["G1", "G3", "-"]
        assert rows[0].n == rows[1].n
        assert rows[2].model == "persistence"

    @pytest.mark.parametrize("groups", ["G1,G9", "G1,G1"],
                             ids=["unknown", "repeated"])
    def test_unknown_group_rejected_before_training(self, pipeline, tmp_path,
                                                    monkeypatch, capsys,
                                                    groups):
        def no_training(*args, **kwargs):
            raise AssertionError(f"a group trained before {groups} was "
                                 "rejected")

        monkeypatch.setattr(tfm, "train", no_training)
        report = tmp_path / "report.csv"
        assert run(["ablate", "--factors", str(pipeline / "factors.csv"),
                    "--h-file", str(pipeline / "h.csv"),
                    "--groups", groups, "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not report.exists()

    def test_g4_row_is_train_predict_evaluate(self, pipeline, tmp_path,
                                              monkeypatch):
        """One path: ablate's G4 model and row are those of train (whose
        default features are G4's), predict --split test and evaluate,
        given the same inputs and options."""
        inputs = ["--factors", str(pipeline / "factors.csv"),
                  "--h-file", str(pipeline / "h.csv")]
        options = ["--epochs", "2", "--lr", "0.005"]
        train, models = tfm.train, []

        def keep_model(*args, **kwargs):
            result = train(*args, **kwargs)
            models.append(result[0])
            return result

        monkeypatch.setattr(tfm, "train", keep_model)
        ablation = tmp_path / "ablation.csv"
        assert run(["ablate", *inputs, "--groups", "G4,G1", *options,
                    "--out", str(ablation)]) == 0
        monkeypatch.undo()
        weights, pred, report = (tmp_path / name for name in
                                 ("weights.json", "pred.csv", "report.csv"))
        assert run(["train", *inputs, *options, "--out-model", str(weights),
                    "--out-history", str(tmp_path / "hist.csv")]) == 0
        assert run(["predict", *inputs, "--model", str(weights),
                    "--split", "test", "--out", str(pred)]) == 0
        assert run(["evaluate", "--pred", str(pred), "--out",
                    str(report)]) == 0
        tfm.save_model(models[0], str(tmp_path / "g4.json"))
        assert (tmp_path / "g4.json").read_bytes() == weights.read_bytes()
        g4 = evaluation.read_report(str(ablation))[0]
        assert (g4.model, g4.group) == ("transformer", "G4")
        assert evaluation.read_report(str(report)) == [g4]

    @pytest.fixture(scope="class")
    def quick_start(self, tmp_path_factory):
        """The README's quick-start factors.csv and h.csv."""
        out = tmp_path_factory.mktemp("quick_start")
        scen = out / "scen"
        for argv in (["simulate", "--out", str(scen), "--seed", "3",
                      "--months", "40", "--n-lags", "6"],
                     ["rv", "--intraday", str(scen / "intraday.csv"),
                      "--out-csv", str(out / "rv.csv"),
                      "--out-sidecar", str(out / "rv_lambda.json")],
                     ["pca", "--daily", str(scen / "daily.csv"),
                      "--attention", str(scen / "attention.csv"),
                      "--monthly", str(scen / "monthly.csv"),
                      "--rv", str(out / "rv.csv"), "--out-dir", str(out)],
                     ["midas-fit", "--factors", str(out / "factors.csv"),
                      "--n-lags", "6", "--restarts", "1",
                      "--out-fit", str(out / "midas_fit.json"),
                      "--out-h", str(out / "h.csv")]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(argv) == 0, argv[0]
        return out

    def test_a_panel_without_test_rows_is_refused_before_training(
            self, quick_start, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("a group trained on a panel with no test "
                                 "rows")

        monkeypatch.setattr(tfm, "train", no_training)
        forks = on_cpus(monkeypatch, 4)
        factors = tmp_path / "factors.csv"
        factors.write_text((quick_start / "factors.csv").read_text()
                           .replace(",test,", ",train,"))
        report = tmp_path / "report.csv"
        assert run(["ablate", "--factors", str(factors),
                    "--h-file", str(quick_start / "h.csv"),
                    "--epochs", "60", "--out", str(report)]) == 2
        assert capsys.readouterr().err == (
            f"error: {factors} has no test rows; nothing to score\n")
        assert forks == [] and not report.exists()

    def test_every_group_keeps_its_verbose_lines_in_order(self, pipeline,
                                                          tmp_path):
        """Groups trained in workers log to the caller's stderr, each
        group's epoch lines together and the groups in order, the same
        lines on one CPU as on several (the default and three)."""
        script = ("import os, sys\n"
                  "cpus = int(sys.argv[1])\n"
                  "if cpus:\n"
                  "    os.sched_getaffinity = lambda pid: set(range(cpus))\n"
                  "from mfvol import cli\n"
                  "sys.exit(cli.main(sys.argv[2:]))\n")
        outputs = []
        for cpus in (1, 0, 3):
            report = tmp_path / f"report{cpus}.csv"
            proc = subprocess.run(
                [sys.executable, "-c", script, str(cpus), "-v", "ablate",
                 "--factors", str(pipeline / "factors.csv"),
                 "--h-file", str(pipeline / "h.csv"), "--lr", "0.005",
                 "--epochs", "3", "--out", str(report)],
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout.replace(str(report), "report.csv"),
                            re.sub(r", \d+\.\d{3} s$", ", - s", proc.stderr,
                                   flags=re.M),
                            report.read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        lines = outputs[0][1].splitlines()
        want = [f"INFO mfvol.transformer: epoch {e}:" for e in (1, 2, 3)] * 4
        want += [f"INFO mfvol: group G{g}: test mse" for g in (1, 2, 3, 4)]
        assert len(lines) == len(want)
        assert [line[:len(w)] for line, w in zip(lines, want)] == want

    def test_an_interrupt_during_a_parallel_ablate_stops_every_worker(
            self, pipeline, tmp_path, monkeypatch, capfd, time_bound):
        caller, started = os.getpid(), tmp_path / "worker-started"

        def interrupted_in_the_caller(*args):
            if os.getpid() != caller:       # a worker waits to be killed
                started.touch()
                time.sleep(60)
                os._exit(1)
            deadline = time.monotonic() + 30
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            os.kill(caller, signal.SIGINT)
            time.sleep(30)

        monkeypatch.setattr(cli, "fit_group", interrupted_in_the_caller)
        forks = on_cpus(monkeypatch, 2)
        report, start = tmp_path / "report.csv", time.monotonic()
        try:
            code = run(["ablate", "--factors", str(pipeline / "factors.csv"),
                        "--h-file", str(pipeline / "h.csv"),
                        "--out", str(report)])
        except KeyboardInterrupt:   # would stop the whole pytest run
            pytest.fail("the interrupt escaped cli.main")
        # the worker was killed, not waited for
        assert time.monotonic() - start < 30
        assert code == 130 and started.exists()
        assert capfd.readouterr() == ("", "error: interrupted\n")
        assert len(forks) == 1 and no_child_left()
        assert list(tmp_path.iterdir()) == [started]


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert run(["rv", "--intraday", str(tmp_path / "nope.csv")]) == 2

    def test_missing_required_option(self):
        assert run(["rv"]) == 2

    def test_feature_h_without_h_file(self, pipeline, tmp_path):
        assert run(["train", "--factors", str(pipeline / "factors.csv"),
                    "--features", "tech1,h", "--epochs", "1",
                    "--out-model", str(tmp_path / "m.json"),
                    "--out-history", str(tmp_path / "h.csv")]) == 2

    def test_unknown_feature_column(self, pipeline, tmp_path):
        assert run(["train", "--factors", str(pipeline / "factors.csv"),
                    "--features", "bogus", "--epochs", "1",
                    "--out-model", str(tmp_path / "m.json"),
                    "--out-history", str(tmp_path / "h.csv")]) == 2

    def test_numerical_divergence(self, pipeline, tmp_path):
        assert run(["train", "--factors", str(pipeline / "factors.csv"),
                    "--features", "tech1,tech2,tech3",
                    "--lr", "80.0", "--epochs", "30",
                    "--out-model", str(tmp_path / "m.json"),
                    "--out-history", str(tmp_path / "h.csv")]) == 3

    def test_bad_ratio(self, scenario_dir, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        for ratio in ("0", "1.0", "-1", "2", "nan"):
            assert run(["pca", "--daily", str(scenario_dir / "daily.csv"),
                        "--attention", str(scenario_dir / "attention.csv"),
                        "--monthly", str(scenario_dir / "monthly.csv"),
                        "--rv", str(pipeline / "rv.csv"),
                        "--ratio", ratio, "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: split ratio must lie in (0, 1)"), ratio
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["midas-fit", "train", "predict",
                                         "ablate"])
    def test_interleaved_factors(self, pipeline, tmp_path, capsys, command):
        """Stamps that put a train row after a test row are a bad
        input at the first such row, whichever stage reads them."""
        lines = (pipeline / "factors.csv").read_text().splitlines()
        n_train = sum(1 for line in lines if ",train," in line)
        # the last 20 train rows become test, the last 20 test rows train
        for i in range(n_train - 19, n_train + 1):
            lines[i] = lines[i].replace(",train,", ",test,")
        for i in range(len(lines) - 20, len(lines)):
            lines[i] = lines[i].replace(",test,", ",train,")
        path = tmp_path / "factors.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = {
            "midas-fit": ["--n-lags", "6", "--out-fit", str(out),
                          "--out-h", str(tmp_path / "h.csv")],
            "train": ["--epochs", "1", "--out-model", str(out),
                      "--out-history", str(tmp_path / "hist.csv")],
            "predict": ["--model", str(pathlib.Path(__file__).parent
                                       / "data" / "model_per_head.json"),
                        "--out", str(out)],
            "ablate": ["--h-file", str(pipeline / "h.csv"), "--epochs", "1",
                       "--out", str(out)],
        }[command]
        code = run([command, "--factors", str(path)] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}:{len(lines) - 19}: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--heads", "0"],
        ["train", "--d-ff", "0"],
        ["train", "--epochs", "0"],
        ["ablate", "--groups", "G1,G9"],
        ["train", "--seed", "-1"],
        ["ablate", "--seed", "-1"],
        ["train", "--lr", "nan"],
        ["train", "--lr", "-1"],
        ["train", "--patience", "-1"],
    ], ids=["heads-0", "d-ff-0", "epochs-0", "group-G9", "train-seed",
            "ablate-seed", "lr-nan", "lr-negative", "patience-negative"])
    def test_bad_model_option(self, pipeline, tmp_path, capsys, argv):
        out = tmp_path / "out"
        outputs = (["--out-model", str(out), "--out-history",
                    str(tmp_path / "hist.csv")] if argv[0] == "train"
                   else ["--out", str(out)])
        code = run(argv + outputs + [
            "--factors", str(pipeline / "factors.csv"),
            "--h-file", str(pipeline / "h.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--restarts", "-3", "n_restarts"),
        ("--max-iter", "0", "max_iter"),
    ], ids=["restarts-negative", "max-iter-0"])
    def test_bad_fit_option(self, pipeline, tmp_path, capsys, flag, value,
                            named):
        out = tmp_path / "fit.json"
        code = run(["midas-fit", "--factors", str(pipeline / "factors.csv"),
                    flag, value, "--out-fit", str(out),
                    "--out-h", str(tmp_path / "h.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name, line, cell, value", [
        ("rv.csv", 5, 3, "nan"),
        ("rv.csv", 6, 0, None),
        ("pred.csv", 4, 2, "nan"),
        ("factors.csv", 4, 2, "inf"),
    ], ids=["rv-nan", "rv-repeated-date", "pred-nan", "factors-inf"])
    def test_bad_pipeline_file(self, scenario_dir, pipeline, tmp_path, capsys,
                               name, line, cell, value):
        """A non-finite number or a repeated date in a file that one
        stage wrote for the next is a bad input, named by path and line."""
        if name == "pred.csv":
            text = "date,rv_true,rv_pred\n" + "".join(
                f"2020-01-{d:02d},1.{d},1.0\n" for d in range(1, 8))
        else:
            text = (pipeline / name).read_text()
        rows = [r.split(",") for r in text.splitlines()]
        # no value: repeat the date of the line before
        rows[line - 1][cell] = value or rows[line - 2][cell]
        path = tmp_path / name
        path.write_text("\n".join(map(",".join, rows)) + "\n")
        out = tmp_path / "out"
        argv = {
            "rv.csv": ["pca", "--daily", str(scenario_dir / "daily.csv"),
                       "--attention", str(scenario_dir / "attention.csv"),
                       "--monthly", str(scenario_dir / "monthly.csv"),
                       "--rv", str(path), "--out-dir", str(out)],
            "pred.csv": ["evaluate", "--pred", str(path), "--out", str(out)],
            "factors.csv": ["midas-fit", "--factors", str(path),
                            "--n-lags", "6", "--out-fit", str(out),
                            "--out-h", str(tmp_path / "h.csv")],
        }[name]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}:{line}: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "model,group,n,mse,hmse,mae,mape,qlike,r2log\ntransformer,G4,84\n",
        "model,group,n,mse,hmse,mae,mape,qlike,r2log\n"
        "transformer,G4,many,1,1,1,1,1,1\n",
        b"model,group,n,mse,hmse,mae,mape,qlike,r2log\n"
        b"transformer,G\xff,84,1,1,1,1,1,1\n",
    ], ids=["too-few-fields", "non-numeric-n", "not-utf8"])
    def test_append_onto_malformed_report(self, tmp_path, capsys, text):
        pred = tmp_path / "pred.csv"
        pred.write_text("date,rv_true,rv_pred\n"
                        + "".join(f"2020-01-{d:02d},1.{d},1.0\n"
                                  for d in range(1, 6)))
        report = tmp_path / "report.csv"
        text = text if isinstance(text, bytes) else text.encode()
        report.write_bytes(text)
        code = run(["evaluate", "--pred", str(pred), "--append",
                    "--out", str(report)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {report}:2: ")
        assert "Traceback" not in err
        assert report.read_bytes() == text

    @pytest.mark.parametrize("flag, value", [
        ("--model-name", "a,b"),
        ("--group", "G\n4"),
        ("--model-name", "a\rb"),
    ], ids=["comma-in-model", "newline-in-group", "return-in-model"])
    def test_name_that_would_break_the_report(self, tmp_path, capsys, flag,
                                              value):
        pred = tmp_path / "pred.csv"
        pred.write_text("date,rv_true,rv_pred\n"
                        + "".join(f"2020-01-{d:02d},1.{d},1.0\n"
                                  for d in range(1, 6)))
        report = tmp_path / "report.csv"
        code = run(["evaluate", "--pred", str(pred), "--persistence",
                    flag, value, "--out", str(report)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "comma or a line break" in err
        assert not report.exists()

    def test_quote_in_a_name_keeps_the_report_readable(self, tmp_path,
                                                       capsys):
        # a quoted group used to be written, and then broke the next
        # --append on the same report
        pred = tmp_path / "pred.csv"
        pred.write_text("date,rv_true,rv_pred\n"
                        + "".join(f"2020-01-{d:02d},1.{d},1.0\n"
                                  for d in range(1, 6)))
        report = tmp_path / "rep.csv"
        assert run(["evaluate", "--pred", str(pred), "--group", '"G4',
                    "--out", str(report)]) == 2
        assert "double quote" in capsys.readouterr().err
        assert not report.exists()
        assert run(["evaluate", "--pred", str(pred), "--group", "G5",
                    "--append", "--out", str(report)]) == 0
        assert [r.group for r in evaluation.read_report(str(report))] \
            == ["G5"]

    @pytest.mark.parametrize("text", [
        "not json at all\n",
        "[1, 2, 3]\n",
        '{"model_config": {"n_features": 1}, "train_config": null}\n',
    ], ids=["not-json", "not-an-object", "no-weights"])
    def test_predict_with_malformed_model(self, pipeline, tmp_path, capsys,
                                          text):
        model = tmp_path / "weights.json"
        model.write_text(text)
        out = tmp_path / "pred.csv"
        code = run(["predict", "--factors", str(pipeline / "factors.csv"),
                    "--model", str(model), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {model}: not a model file")
        assert "Traceback" not in err
        assert not out.exists()

    def test_predict_with_mismatched_weights(self, pipeline, tmp_path,
                                             capsys):
        doc = json.loads((pathlib.Path(__file__).parent / "data"
                          / "model_per_head.json").read_text())
        del doc["weights"]["mlp2.b"]
        model = tmp_path / "weights.json"
        model.write_text(json.dumps(doc))
        code = run(["predict", "--factors", str(pipeline / "factors.csv"),
                    "--model", str(model), "--out", str(tmp_path / "p.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "do not fit the model configuration" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, index, value", [
        ("mlp2.b", 0, math.nan),
        ("feature_mean", 1, math.nan),
        ("feature_std", 0, math.inf),
        ("feature_std", 0, 0.0),
        ("target_mean", None, -math.inf),
        ("target_std", None, math.inf),
        ("target_std", None, -1.0),
        ("model_config", "n_layers", 2.0),
        ("model_config", "n_heads", 3.0),
        ("train_config", "window", True),
        ("train_config", "window", 5.0),
    ], ids=["nan-weight", "nan-feature-mean", "inf-feature-std",
            "zero-feature-std", "inf-target-mean", "inf-target-std",
            "negative-target-std", "float-layers", "float-heads",
            "bool-window", "float-window"])
    def test_predict_refuses_a_model_it_cannot_use(self, pipeline, tmp_path,
                                                   capsys, field, index,
                                                   value):
        model = tmp_path / "weights.json"
        assert run(["train", "--factors", str(pipeline / "factors.csv"),
                    "--features", "tech1,tech2,tech3", "--epochs", "1",
                    "--out-model", str(model),
                    "--out-history", str(tmp_path / "hist.csv")]) == 0
        doc = json.loads(model.read_text())
        if index is None:
            doc[field] = value
        elif field.endswith("_config"):
            doc[field][index] = value
        else:
            (doc["weights"][field]["data"] if field in doc["weights"]
             else doc[field])[index] = value
        model.write_text(json.dumps(doc))     # NaN and Infinity as json
        capsys.readouterr()
        out = tmp_path / "pred.csv"
        code = run(["predict", "--factors", str(pipeline / "factors.csv"),
                    "--model", str(model), "--split", "all",
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {model}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_train_refuses_a_feature_it_cannot_scale(self, pipeline,
                                                     tmp_path, capsys):
        # the spread of +-1e300 overflows, and a model with an infinite
        # feature_std is one that predict refuses
        lines = (pipeline / "factors.csv").read_text().splitlines()
        col = lines[0].split(",").index("tech1")
        for i in range(1, len(lines)):
            row = lines[i].split(",")
            row[col] = "1e300" if i % 2 else "-1e300"
            lines[i] = ",".join(row)
        factors = tmp_path / "factors.csv"
        factors.write_text("\n".join(lines) + "\n")
        model = tmp_path / "weights.json"
        code = run(["train", "--factors", str(factors),
                    "--features", "tech1,tech2,tech3", "--epochs", "1",
                    "--out-model", str(model),
                    "--out-history", str(tmp_path / "hist.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: feature 'tech1' has a non-finite mean or "
                       "standard deviation\n")
        assert not model.exists()

    def test_simulate_refuses_to_write_an_overflowing_table(self, tmp_path,
                                                           capsys):
        # daily indicators of prices near the float limit overflow, and
        # pca would refuse the daily.csv that held them
        out = tmp_path / "scen"
        argv = ["simulate", "--out", str(out), "--start-price", "1e306"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'daily.csv'}: a ")
        assert err.endswith(" cell is not a finite number\n")
        assert not out.exists()      # nor the directory made to hold it
        # intraday.csv, written before daily.csv, used to stay behind
        out.mkdir()
        for name in ("intraday.csv", "daily.csv", "truth.json"):
            (out / name).write_text(f"an earlier run's {name}\n")
        before = tree(tmp_path)
        assert run(argv) == 2
        assert "wrote" not in capsys.readouterr().out
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("argv, code, first", [
        (["train", "--features", "tech1,tech2,tech3", "--lr", "80",
          "--epochs", "30"], 3, "numerical error: non-finite gradient for "),
        (["simulate", "--start-price", "1e306"], 2, "error: cannot write "),
        (["evaluate"], 2, "error: only 2 usable pairs left after dropping 2"),
    ], ids=["train-lr-80", "simulate-start-price-1e306",
            "evaluate-two-usable-pairs"])
    def test_a_failure_prints_one_line(self, pipeline, tmp_path, argv, code,
                                       first):
        # numpy's overflow warnings, with paths into the package, used to
        # come before the error line, as did evaluate's count of the pairs
        # it dropped
        if argv[0] == "train":
            argv = argv + ["--factors", str(pipeline / "factors.csv"),
                           "--out-model", str(tmp_path / "m.json"),
                           "--out-history", str(tmp_path / "h.csv")]
        elif argv[0] == "evaluate":
            pred = tmp_path / "pred.csv"
            pred.write_text("date,rv_true,rv_pred\n2021-01-04,1.0,-1.0\n"
                            "2021-01-05,1.0,1.0\n2021-01-06,2.0,0.0\n"
                            "2021-01-07,1.5,1.2\n")
            argv = argv + ["--pred", str(pred),
                           "--out", str(tmp_path / "report.csv")]
        else:
            argv = argv + ["--out", str(tmp_path / "scen")]
        proc = subprocess.run([sys.executable, "-m", "mfvol", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stderr.startswith(first), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_failed_train_leaves_no_output(self, pipeline, tmp_path, capsys):
        model = tmp_path / "out" / "weights.json"
        history = tmp_path / "missing" / "loss_history.csv"
        model.parent.mkdir()
        argv = ["train", "--factors", str(pipeline / "factors.csv"),
                "--features", "tech1,tech2,tech3", "--epochs", "1",
                "--out-model", str(model), "--out-history", str(history)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{history}'\n")
        assert list(model.parent.iterdir()) == []     # nor a temporary
        model.write_bytes(b"an earlier run's model\n")
        assert run(argv) == 2
        assert model.read_bytes() == b"an earlier run's model\n"
        assert list(model.parent.iterdir()) == [model]

    def test_help_via_module_entry(self):
        proc = subprocess.run([sys.executable, "-m", "mfvol", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "ablate" in proc.stdout

    def test_simulate_command(self, tmp_path):
        assert run(["simulate", "--out", str(tmp_path / "scen"),
                    "--seed", "2", "--months", "8", "--days-per-month", "6",
                    "--bars-per-day", "8", "--n-lags", "4"]) == 0
        assert (tmp_path / "scen" / "truth.json").exists()


def tree(top: pathlib.Path) -> dict:
    """Every path under ``top``, with a file's bytes or None for a
    directory."""
    return {str(path.relative_to(top)):
            path.read_bytes() if path.is_file() else None
            for path in sorted(top.rglob("*"))}


@pytest.fixture(scope="module")
def forecast(pipeline, tmp_path_factory):
    """A one-epoch model and its test predictions."""
    out = tmp_path_factory.mktemp("forecast")
    assert run(["train", "--factors", str(pipeline / "factors.csv"),
                "--features", "tech1,tech2,tech3", "--epochs", "1",
                "--out-model", str(out / "weights.json"),
                "--out-history", str(out / "hist.csv")]) == 0
    assert run(["predict", "--factors", str(pipeline / "factors.csv"),
                "--model", str(out / "weights.json"),
                "--out", str(out / "pred.csv")]) == 0
    return out


# each writing stage's outputs, in the order it writes them
STAGE_OUTPUTS = {
    "simulate": ["intraday.csv", "daily.csv", "monthly.csv", "attention.csv",
                 "truth.json"],
    "rv": ["rv.csv", "rv_lambda.json"],
    "pca": ["factors.csv", "norm_stats.json", "pca_macro.json",
            "pca_tech.json", "pca_attention.json"],
    "midas-fit": ["midas_fit.json", "h.csv"],
    "predict": ["pred.csv"],
    "evaluate": ["report.csv"],
    "ablate": ["report.csv"],
}


def stage_argv(stage, paths, scenario_dir, pipeline, forecast):
    """The argv of ``stage`` with its outputs at ``paths``; simulate and
    pca write theirs into the directory of the first."""
    s, p, out = scenario_dir, pipeline, paths[0].parent
    args = {
        "simulate": ["--out", out, "--seed", "2", "--months", "8",
                     "--days-per-month", "6", "--bars-per-day", "8",
                     "--n-lags", "4"],
        "rv": ["--intraday", s / "intraday.csv", "--out-csv", paths[0],
               "--out-sidecar", paths[-1]],
        "pca": ["--daily", s / "daily.csv", "--attention",
                s / "attention.csv", "--monthly", s / "monthly.csv",
                "--rv", p / "rv.csv", "--out-dir", out],
        "midas-fit": ["--factors", p / "factors.csv", "--n-lags", "6",
                      "--restarts", "1", "--out-fit", paths[0],
                      "--out-h", paths[-1]],
        "predict": ["--factors", p / "factors.csv",
                    "--model", forecast / "weights.json", "--out", paths[0]],
        "evaluate": ["--pred", forecast / "pred.csv", "--persistence",
                     "--append", "--out", paths[0]],
        "ablate": ["--factors", p / "factors.csv", "--h-file", p / "h.csv",
                   "--groups", "G1", "--epochs", "1", "--out", paths[0]],
    }[stage]
    return [stage, *map(str, args)]


# every output of every writing stage, blocked in turn by a directory in
# its place or, where a flag names it, by a directory that does not
# exist; among them rv with a missing sidecar directory, pca with a
# directory named pca_tech.json and midas-fit with a missing h directory
BLOCKED = [(stage, k, how) for stage, outputs in STAGE_OUTPUTS.items()
           for k in range(len(outputs))
           for how in (("in-place",) if stage in ("simulate", "pca")
                       else ("in-place", "missing-dir"))]


@pytest.mark.parametrize(
    "stage, blocked, how", BLOCKED,
    ids=[f"{stage}-{STAGE_OUTPUTS[stage][k]}-{how}"
         for stage, k, how in BLOCKED])
def test_a_stage_that_cannot_write_one_output_writes_none(
        scenario_dir, pipeline, forecast, tmp_path, capsys, stage, blocked,
        how):
    out = tmp_path / "out"
    out.mkdir()
    paths = [out / name for name in STAGE_OUTPUTS[stage]]
    for path in paths:
        path.write_text(f"an earlier run's {path.name}\n")
    if how == "in-place":
        paths[blocked].unlink()
        paths[blocked].mkdir()
    else:
        paths[blocked] = out / "missing" / paths[blocked].name
    before = tree(tmp_path)
    code = run(stage_argv(stage, paths, scenario_dir, pipeline, forecast))
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("error: ") \
        and str(paths[blocked]) in captured.err
    assert "wrote" not in captured.out
    assert tree(tmp_path) == before     # no new file, nor a temporary


@pytest.mark.parametrize("stage, first, second", [
    ("rv", "--out-csv", "--out-sidecar"),
    ("midas-fit", "--out-fit", "--out-h"),
    ("train", "--out-model", "--out-history"),
])
def test_two_outputs_that_name_one_file_exit_2(scenario_dir, pipeline,
                                               tmp_path, capsys, stage,
                                               first, second):
    # the second output used to replace the first, and both were "wrote"
    inputs = {
        "rv": ["--intraday", scenario_dir / "intraday.csv"],
        "midas-fit": ["--factors", pipeline / "factors.csv", "--n-lags", "6",
                      "--restarts", "1"],
        "train": ["--factors", pipeline / "factors.csv",
                  "--features", "tech1,tech2,tech3", "--epochs", "1"],
    }[stage]
    out = tmp_path / "same.out"
    argv = [stage, *map(str, inputs), first, str(out),
            second, f"{tmp_path}/./same.out"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: two outputs name one file: {out} "
                            f"and {tmp_path}/./same.out\n")
    assert "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_an_interrupt_exits_130_with_one_line_and_no_output(
        pipeline, tmp_path, capsys, monkeypatch):
    # as a SIGINT would while the outputs are being written: the fit's
    # temporary is on disk when write_h is interrupted
    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "write_h", interrupted)
    before = tree(tmp_path)
    try:
        code = run(["midas-fit", "--factors", str(pipeline / "factors.csv"),
                    "--n-lags", "6", "--restarts", "1",
                    "--out-fit", str(tmp_path / "midas_fit.json"),
                    "--out-h", str(tmp_path / "h.csv")])
    except KeyboardInterrupt:   # would stop the whole pytest run
        pytest.fail("the interrupt escaped cli.main")
    assert code == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n"
    assert "wrote" not in captured.out
    assert tree(tmp_path) == before     # no new file, nor a temporary


def test_verbose_midas_fit_logs_each_restart_to_stderr(pipeline, tmp_path):
    outputs = []
    for flags in ([], ["-v"]):
        out = tmp_path / ("verbose" if flags else "quiet")
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "mfvol", *flags, "midas-fit",
             "--factors", str(pipeline / "factors.csv"), "--n-lags", "6",
             "--restarts", "3", "--out-fit", str(out / "midas_fit.json"),
             "--out-h", str(out / "h.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout.replace(str(out), ""), tree(out),
                        proc.stderr.splitlines()))
    (quiet_out, quiet_files, quiet_err), (out, files, err) = outputs
    assert (out, files, quiet_err) == (quiet_out, quiet_files, [])
    assert [line.split(":")[:2] for line in err] == [
        ["INFO mfvol.garch_midas", f" restart {i}"] for i in range(3)]


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency, for every subcommand
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mfvol.cli, mfvol.garch_midas, mfvol.simlab; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rv_pca_and_midas_fit_never_load_the_encoder(scenario_dir, tmp_path):
    # a cold rv, pca or midas-fit pays for no module it does not run
    s, out = scenario_dir, tmp_path
    argvs = [
        ["rv", "--intraday", f"{s}/intraday.csv", "--out-csv",
         f"{out}/rv.csv", "--out-sidecar", f"{out}/rv_lambda.json"],
        ["pca", "--daily", f"{s}/daily.csv", "--attention",
         f"{s}/attention.csv", "--monthly", f"{s}/monthly.csv",
         "--rv", f"{out}/rv.csv", "--out-dir", str(out)],
        ["midas-fit", "--factors", f"{out}/factors.csv", "--n-lags", "6",
         "--restarts", "1", "--out-fit", f"{out}/midas_fit.json",
         "--out-h", f"{out}/h.csv"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from mfvol import cli\n"
        "def loaded():\n"
        "    return [m for m in ('mfvol.transformer', 'mfvol.garch_midas',\n"
        "                        'mfvol.simlab', 'mfvol.parallel')\n"
        "            if m in sys.modules]\n"
        "seen = [('import', 0, loaded())]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        seen.append((argv[0], cli.main(argv), loaded()))\n"
        "print(json.dumps(seen))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import", 0, []], ["rv", 0, []], ["pca", 0, []],
        ["midas-fit", 0, ["mfvol.garch_midas", "mfvol.parallel"]]]


def test_linear_fill_reads_no_test_row_for_a_training_row(
        scenario_dir, pipeline, tmp_path):
    # attention gaps around the boundary: a linear fill of the last
    # training rows must not interpolate towards the first test values
    boundary = json.loads((pipeline / "norm_stats.json").read_text())[
        "boundary_date"]
    header, *lines = (scenario_dir / "attention.csv").read_text().splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.split(",")[0] > boundary)
    kept = lines[:at - 3] + lines[at + 3:]
    scaled = [line if line.split(",")[0] <= boundary else ",".join(
        [line.split(",")[0]] + [repr(3.0 * float(v))
                                for v in line.split(",")[1:]])
        for line in kept]
    outputs = []
    for name, rows in (("gaps", kept), ("scaled", scaled)):
        attention = tmp_path / f"{name}.csv"
        attention.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / name
        assert run(["pca", "--fill", "linear",
                    "--daily", str(scenario_dir / "daily.csv"),
                    "--attention", str(attention),
                    "--monthly", str(scenario_dir / "monthly.csv"),
                    "--rv", str(pipeline / "rv.csv"),
                    "--out-dir", str(out)]) == 0
        outputs.append(tree(out))
    gaps, moved = outputs
    assert gaps.pop("factors.csv") != moved.pop("factors.csv")
    assert sorted(gaps) == ["norm_stats.json", "pca_attention.json",
                            "pca_macro.json", "pca_tech.json"]
    assert gaps == moved


def test_ablate_scores_every_row_on_one_set_of_days(pipeline, tmp_path,
                                                    monkeypatch):
    """ablate's report is evaluation.score of its forecasts, with
    persistence and truth taken from the panel on every test day."""
    predict = tfm.predict
    preds = []

    def one_g1_forecast_not_positive(model, dataset):
        pred = predict(model, dataset)
        if not preds:
            pred[3] = 0.0
        preds.append(pred)
        return pred

    monkeypatch.setattr(tfm, "predict", one_g1_forecast_not_positive)
    report = tmp_path / "report.csv"
    assert run(["ablate", "--factors", str(pipeline / "factors.csv"),
                "--h-file", str(pipeline / "h.csv"), "--groups", "G1,G3",
                "--epochs", "1", "--out", str(report)]) == 0
    panel = cli.read_factors(str(pipeline / "factors.csv"))
    rv, n_train = panel.columns["rv"], panel.n_train
    assert len(preds) == 2 and np.all(rv > 0)
    rows = evaluation.read_report(str(report))
    assert rows == evaluation.score(
        {("transformer", "G1"): preds[0], ("transformer", "G3"): preds[1],
         ("persistence", "-"): rv[n_train - 1:-1]}, rv[n_train:])
    assert [r.n for r in rows] == [panel.n_rows - n_train - 1] * 3


def mutate(text: str, kind: str, at: int, cell: int) -> str:
    """``text`` of a CSV file with one mutation of ``kind`` at the body
    line ``at`` (modulo their count) and its cell ``cell``."""
    header, *body = text.splitlines(keepends=True)
    if kind == "header":
        return "".join(body)
    i = at % len(body)
    cells = body[i].rstrip("\n").split(",")
    if kind == "drop":
        del body[i]
    elif kind == "duplicate":
        body.insert(i, body[i])
    elif kind == "swap":
        j = (i + 1) % len(body)
        body[i], body[j] = body[j], body[i]
    elif kind == "cut":
        body[i:] = [body[i][:1 + cell % (len(body[i]) - 1)]]
    elif kind == "flip":
        cells[1] = {"train": "test", "test": "train"}[cells[1]]
    else:
        cells[cell % len(cells)] = {"blank": "", "nan": "nan",
                                    "text": "x1"}[kind]
    if kind in ("flip", "blank", "nan", "text"):
        body[i] = ",".join(cells) + "\n"
    return header + "".join(body)


MUTATIONS = [(name, kind) for name in ("factors.csv", "h.csv", "rv.csv",
                                      "daily.csv", "attention.csv",
                                      "monthly.csv", "intraday.csv",
                                      "pred.csv", "report.csv")
             for kind in ("drop", "duplicate", "swap", "blank", "nan", "text",
                          "flip", "cut", "header")
             if kind != "flip" or name == "factors.csv"]


def mutations_of(*names):
    return st.sampled_from([m for m in MUTATIONS if m[0] in names])


def exits_cleanly(top: pathlib.Path, argv: list[str]) -> None:
    """``argv`` in process exits 0, 2 or 3; on 2 or 3 with one line on
    stderr and ``top`` as it was."""
    before = tree(top)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith(("error: ", "numerical error: "))
        assert tree(top) == before     # no new file, nor a temporary


@settings(max_examples=30, deadline=None)
@given(mutations_of("factors.csv", "h.csv"), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
# both commands take an h.csv that starts a day later, and both refuse
# a first training row stamped test
@example(("h.csv", "drop"), 0, 0)
@example(("factors.csv", "flip"), 0, 0)
def test_a_mutated_factor_or_h_file_exits_cleanly(pipeline, tmp_path_factory,
                                                  mutation, at, cell):
    name, kind = mutation
    top = tmp_path_factory.mktemp("mutated")
    for file in ("factors.csv", "h.csv"):
        text = (pipeline / file).read_text()
        (top / file).write_text(mutate(text, kind, at, cell)
                                if file == name else text)
    out = top / "out"
    out.mkdir()
    inputs = ["--factors", str(top / "factors.csv"),
              "--h-file", str(top / "h.csv"), "--epochs", "1"]
    exits_cleanly(top, ["train", *inputs,
                        "--out-model", str(out / "weights.json"),
                        "--out-history", str(out / "loss_history.csv")])
    exits_cleanly(top, ["ablate", *inputs, "--groups", "G1,G3",
                        "--out", str(out / "report.csv")])


def pca_exits_cleanly(scenario_dir, pipeline, top, mutation, at, cell):
    """``pca`` on the scenario's tables and the pipeline's ``rv.csv``,
    with the one that ``mutation`` names mutated into ``top``, exits
    cleanly."""
    name, kind = mutation
    inputs = {table: scenario_dir / f"{table}.csv"
              for table in ("daily", "attention", "monthly")}
    inputs["rv"] = pipeline / "rv.csv"
    table = name.removesuffix(".csv")
    (top / name).write_text(mutate(inputs[table].read_text(), kind, at, cell))
    inputs[table] = top / name
    exits_cleanly(top, ["pca", *(arg for key, path in inputs.items()
                                 for arg in (f"--{key}", str(path))),
                        "--out-dir", str(top / "out")])


@settings(max_examples=30, deadline=None)
@given(mutations_of("rv.csv"), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_a_mutated_rv_file_exits_cleanly(scenario_dir, pipeline,
                                         tmp_path_factory, mutation, at,
                                         cell):
    pca_exits_cleanly(scenario_dir, pipeline,
                      tmp_path_factory.mktemp("mutated"), mutation, at, cell)


@settings(max_examples=30, deadline=None)
@given(mutations_of("daily.csv", "attention.csv", "monthly.csv"),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_a_mutated_daily_attention_or_monthly_file_exits_cleanly(
        scenario_dir, pipeline, tmp_path_factory, mutation, at, cell):
    pca_exits_cleanly(scenario_dir, pipeline,
                      tmp_path_factory.mktemp("mutated"), mutation, at, cell)


@pytest.fixture(scope="module")
def report(forecast, tmp_path_factory):
    """The forecast's report: its transformer and persistence rows."""
    out = tmp_path_factory.mktemp("report") / "report.csv"
    assert run(["evaluate", "--pred", str(forecast / "pred.csv"),
                "--persistence", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["intraday.csv", "pred.csv", "report.csv"])
@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_a_mutated_intraday_prediction_or_report_file_exits_cleanly(
        scenario_dir, forecast, report, tmp_path_factory, name, data, at,
        cell):
    _, kind = data.draw(mutations_of(name))
    top = tmp_path_factory.mktemp("mutated")
    source = {"intraday.csv": scenario_dir / name,
              "pred.csv": forecast / name, "report.csv": report}[name]
    (top / name).write_text(mutate(source.read_text(), kind, at, cell))
    exits_cleanly(top, {
        "intraday.csv": ["rv", "--intraday", str(top / name),
                         "--out-csv", str(top / "rv.csv"),
                         "--out-sidecar", str(top / "rv.json")],
        "pred.csv": ["evaluate", "--pred", str(top / name), "--persistence",
                     "--out", str(top / "report.csv")],
        # exits_cleanly also holds a failed append to the report's bytes
        "report.csv": ["evaluate", "--pred", str(forecast / "pred.csv"),
                       "--append", "--out", str(top / name)],
    }[name])


def json_places(node) -> list:
    """(container, key) of every entry of every object under ``node``,
    and of the first item of every array."""
    if isinstance(node, dict):
        entries = list(node.items())
    elif isinstance(node, list):
        entries = list(enumerate(node[:1]))
    else:
        return []
    return [place for key, child in entries
            for place in [(node, key), *json_places(child)]]


JSON_MUTATIONS = ("drop", "shape", "nan", "inf", "text", "true", "null",
                  "list", "count", "cut", "wrap")


def mutate_json(text: str, kind: str, at: int, cell: int) -> str:
    """``text`` of a model file with one mutation of ``kind`` at the
    place ``at`` (modulo the count of places that kind reaches), with
    the value ``cell`` picks where the kind takes one."""
    if kind == "cut":
        return text[:cell % len(text)]
    doc = json.loads(text)
    if kind == "wrap":
        return json.dumps([doc])
    if kind == "shape":
        places = [(spec["shape"], i) for spec in doc["weights"].values()
                  for i in range(len(spec["shape"]))]
    elif kind == "count":
        places = [(doc[part], key) for part in ("model_config",
                                                "train_config")
                  for key, value in doc[part].items()
                  if value is None or type(value) is int]
    else:
        places = [(node, key) for node, key in json_places(doc)
                  if kind != "drop" or isinstance(node, dict)]
    node, key = places[at % len(places)]
    if kind == "drop":
        del node[key]
    elif kind == "list":
        node[key] = [node[key]]
    elif kind == "shape":
        node[key] += 1 + cell % 3
    else:
        node[key] = {
            "nan": math.nan, "inf": math.inf, "text": "x1", "true": True,
            "null": None,
            "count": (0, 1, 7, 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12)[cell % 7],
        }[kind]
    return json.dumps(doc)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(JSON_MUTATIONS), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
# place 16 is the first feature name: as a list it used to reach the
# panel's column lookup and escape as a TypeError
@example("list", 16, 0)
def test_a_mutated_model_file_exits_cleanly(pipeline, forecast,
                                            tmp_path_factory, kind, at, cell):
    top = tmp_path_factory.mktemp("mutated")
    (top / "weights.json").write_text(
        mutate_json((forecast / "weights.json").read_text(), kind, at, cell))
    (top / "out").mkdir()
    exits_cleanly(top, ["predict", "--factors", str(pipeline / "factors.csv"),
                        "--model", str(top / "weights.json"),
                        "--split", "all", "--out", str(top / "out" / "p.csv")])


def cap_address_space():
    """Run in the child before exec: 2 GiB of address space at most."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("claim", [
    {"n_layers": 10 ** 9}, {"n_heads": 10 ** 9, "d_model": 10 ** 9},
], ids=["layers", "heads"])
def test_a_model_file_that_claims_more_arrays_than_it_holds_exits_2(
        pipeline, forecast, tmp_path, claim):
    # loading used to lay out every array the configuration claims
    # before it compared them with the file's, in time and memory that
    # grew with the claim
    doc = json.loads((forecast / "weights.json").read_text())
    doc["model_config"].update(claim)
    model = tmp_path / "weights.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "pred.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mfvol", "predict",
         "--factors", str(pipeline / "factors.csv"), "--model", str(model),
         "--split", "all", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"error: {model}: ")
    assert not out.exists()


@pytest.mark.parametrize("edits", [
    [(("target_mean",), True), (("feature_mean", 0), True)],
    [(("weights", "mlp2.b", "data", 0), True)],
    [(("train_config", "learning_rate"), True)],
    [(("train_config", "shuffle"), 1)],
    [(("target_std",), str)],
    [(("feature_std", 0), str)],
    [(("weights", "mlp1.w", "data", 0), str)],
], ids=["bool-means", "bool-weight", "bool-learning-rate", "int-shuffle",
        "text-target-std", "text-feature-std", "text-weight"])
def test_a_model_file_number_field_takes_only_json_numbers(
        pipeline, forecast, tmp_path, capsys, edits):
    # float() and numpy read true as 1.0 and "0.5" as 0.5, so each of
    # these files used to predict with exit 0; str writes a value as text
    doc = json.loads((forecast / "weights.json").read_text())
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = str(node[path[-1]]) if value is str else value
    model = tmp_path / "weights.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "pred.csv"
    code = run(["predict", "--factors", str(pipeline / "factors.csv"),
                "--model", str(model), "--split", "all", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"error: {model}: not a model file")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--d-model", "100000", "--heads", "1"],
    ["train", "--d-model", str(10 ** 10), "--heads", "1"],
    ["train", "--d-ff", str(10 ** 20)],
    ["train", "--layers", str(10 ** 7)],
    ["train", "--heads", str(10 ** 6), "--d-model", str(10 ** 6)],
    ["simulate", "--months", str(10 ** 8)],
    ["simulate", "--months", str(10 ** 21)],
], ids=["d-model-1e5", "d-model-1e10", "d-ff-1e20", "layers-1e7",
        "heads-1e6", "months-1e8", "months-1e21"])
def test_a_request_too_large_to_allocate_exits_2(pipeline, tmp_path, argv):
    # each used to end in a traceback: a MemoryError, or numpy's
    # "Maximum allowed dimension exceeded"; run them only under the cap.
    # The layers and heads cases laid out one entry per array for 10 s
    # or more before they allocated the weight vector that cannot exist
    start = time.perf_counter()
    outputs = {
        "train": ["--factors", str(pipeline / "factors.csv"),
                  "--h-file", str(pipeline / "h.csv"), "--epochs", "1",
                  "--out-model", str(tmp_path / "weights.json"),
                  "--out-history", str(tmp_path / "loss_history.csv")],
        "simulate": ["--out", str(tmp_path / "scen")],
    }[argv[0]]
    proc = subprocess.run(
        [sys.executable, "-m", "mfvol", *argv, *outputs],
        capture_output=True, text=True, timeout=60,
        preexec_fn=cap_address_space)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
