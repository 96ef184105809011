import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvol import errors, marketdata as md


def write(path, text):
    path.write_text(text)
    return str(path)


INTRADAY_OK = """date,time_min,price
2021-03-02,5,10.2
2021-03-02,0,10.0
2021-03-01,0,9.9
2021-03-01,5,10.05
"""


def daily_line(date, close=10.0, **over):
    vals = {"open": close - 0.1, "high": close + 0.2, "low": close - 0.2,
            "close": close, "volume": 1e6, "turn": 0.5, "boll": close,
            "ma5": close, "ma20": close, "macd": 0.01, "rsi": 55.0,
            "sobv": 1.0, "roc": 0.5}
    vals.update(over)
    return date + "," + ",".join(str(vals[c]) for c in list(md.DAILY_COLUMNS)[1:])


def monthly_line(month, base=100.0):
    return month + "," + ",".join(str(base + i) for i in range(10))


def attention_line(date, base=500.0):
    return date + "," + ",".join(str(base + i) for i in range(5))


class TestLoadIntraday:
    def test_sorts_by_date_then_time(self, tmp_path):
        series = md.load_intraday(write(tmp_path / "i.csv", INTRADAY_OK))
        assert series.dates == ["2021-03-01", "2021-03-02"]
        got = [(series.dates[d], t) for d, t, _ in series.bars.tolist()]
        assert got == sorted(got)
        assert series.bars["price"][0] == 9.9
        assert series.day_starts().tolist() == [0, 2, 4]

    def test_duplicate_bar_rejected(self, tmp_path):
        text = INTRADAY_OK + "2021-03-02,5,10.3\n"
        with pytest.raises(errors.MalformedRow) as info:
            md.load_intraday(write(tmp_path / "i.csv", text))
        # the second occurrence's line; the first is on line 2
        assert str(info.value) == (f"{tmp_path / 'i.csv'}:6: duplicate bar "
                                   "for 2021-03-02 at minute 5")

    def test_off_grid_time_rejected(self, tmp_path):
        for bad in ("3", "240", "-5"):
            text = f"date,time_min,price\n2021-03-01,{bad},10.0\n"
            with pytest.raises(errors.MalformedRow):
                md.load_intraday(write(tmp_path / "i.csv", text))

    def test_nonpositive_price_rejected(self, tmp_path):
        text = "date,time_min,price\n2021-03-01,0,0.0\n"
        with pytest.raises(errors.MalformedRow, match="non-positive price 0.0"):
            md.load_intraday(write(tmp_path / "i.csv", text))

    def test_missing_file(self):
        with pytest.raises(errors.InputError, match="no such file"):
            md.load_intraday("/nonexistent/i.csv")

    def test_bad_header(self, tmp_path):
        with pytest.raises(errors.MalformedRow):
            md.load_intraday(write(tmp_path / "i.csv", "a,b,c\n1,2,3\n"))

    def test_error_names_first_offending_line(self, tmp_path):
        # a bad date seen twice is reported at its first line, ahead of
        # a later line's other fault
        text = ("date,time_min,price\n2021-03-01,0,10.0\n"
                "2021-02-30,0,10.0\n2021-02-30,5,10.0\n2021-03-01,7,1.0\n")
        with pytest.raises(errors.MalformedRow) as info:
            md.load_intraday(write(tmp_path / "i.csv", text))
        assert info.value.line == 3
        text = ("date,time_min,price\n2021-03-01,0,10.0\n"
                "2021-03-01,5,-1.0\n2021-03-01,7,1.0\n")
        with pytest.raises(errors.MalformedRow,
                           match="non-positive price -1.0") as info:
            md.load_intraday(write(tmp_path / "i.csv", text))
        assert info.value.line == 3

    def test_error_line_counts_lines_inside_quotes(self, tmp_path):
        # the first bar's quoted minute spans lines 2 and 3, so the
        # off-grid minute of the third bar sits on line 5
        text = ('date,time_min,price\n2021-01-04,"0\n",100\n'
                "2021-01-04,5,101\n2021-01-04,7,102\n")
        with pytest.raises(errors.MalformedRow) as info:
            md.load_intraday(write(tmp_path / "intr.csv", text))
        assert info.value.line == 5
        assert str(info.value).startswith(f"{tmp_path / 'intr.csv'}:5: ")

    def test_full_day_accepted(self, tmp_path):
        lines = ["date,time_min,price"]
        lines += [f"2021-03-01,{5 * j},10.0" for j in range(48)]
        series = md.load_intraday(write(tmp_path / "i.csv",
                                        "\n".join(lines) + "\n"))
        assert len(series.bars) == 48


class TestLoadDaily:
    def test_roundtrip_and_sort(self, tmp_path):
        text = "\n".join([",".join(md.DAILY_COLUMNS),
                          daily_line("2021-03-02", 11.0),
                          daily_line("2021-03-01", 10.0)]) + "\n"
        daily = md.load_daily(write(tmp_path / "d.csv", text))
        assert daily.dates == ["2021-03-01", "2021-03-02"]
        assert daily.n_train == 0
        assert daily.columns["close"].tolist() == [10.0, 11.0]
        assert list(daily.columns) == list(md.DAILY_COLUMNS)[1:]

    def test_missing_indicator_becomes_nan(self, tmp_path):
        line = daily_line("2021-03-01").split(",")
        line[list(md.DAILY_COLUMNS).index("rsi")] = ""
        text = ",".join(md.DAILY_COLUMNS) + "\n" + ",".join(line) + "\n"
        daily = md.load_daily(write(tmp_path / "d.csv", text))
        assert math.isnan(daily.columns["rsi"][0])

    def test_missing_close_rejected(self, tmp_path):
        line = daily_line("2021-03-01").split(",")
        line[list(md.DAILY_COLUMNS).index("close")] = ""
        text = ",".join(md.DAILY_COLUMNS) + "\n" + ",".join(line) + "\n"
        with pytest.raises(errors.MalformedRow):
            md.load_daily(write(tmp_path / "d.csv", text))

    def test_ohlc_order_enforced(self, tmp_path):
        text = ",".join(md.DAILY_COLUMNS) + "\n" \
            + daily_line("2021-03-01", 10.0, low=10.5) + "\n"
        with pytest.raises(errors.MalformedRow):
            md.load_daily(write(tmp_path / "d.csv", text))

    def test_duplicate_date_rejected(self, tmp_path):
        text = "\n".join([",".join(md.DAILY_COLUMNS),
                          daily_line("2021-03-01"),
                          daily_line("2021-03-01")]) + "\n"
        with pytest.raises(errors.MalformedRow):
            md.load_daily(write(tmp_path / "d.csv", text))


    def test_error_names_first_offending_line(self, tmp_path):
        text = "\n".join([",".join(md.DAILY_COLUMNS),
                          daily_line("2021-03-01"),
                          daily_line("2021-03-02", volume=-1.0),
                          daily_line("2021-03-03", low=99.0)]) + "\n"
        with pytest.raises(errors.MalformedRow) as info:
            md.load_daily(write(tmp_path / "d.csv", text))
        assert info.value.line == 3


@pytest.mark.parametrize("bad", ["20210302", "2021-W09-2"],
                         ids=["basic-form", "week-date"])
@pytest.mark.parametrize("kind", ["intraday", "daily", "attention"])
def test_date_must_be_yyyy_mm_dd(tmp_path, kind, bad):
    # both forms name 2021-03-02 to date.fromisoformat
    header, line, load = {
        "intraday": ("date,time_min,price", lambda d: f"{d},0,10.0",
                     md.load_intraday),
        "daily": (",".join(md.DAILY_COLUMNS), daily_line, md.load_daily),
        "attention": (",".join(md.ATTENTION_COLUMNS), attention_line,
                      md.load_attention),
    }[kind]
    text = "\n".join([header, line("2021-03-01"), line(bad),
                      line("2021-03-03")]) + "\n"
    with pytest.raises(errors.MalformedRow) as info:
        load(write(tmp_path / "f.csv", text))
    assert info.value.line == 3
    assert repr(bad) in info.value.reason


class TestLoadMonthly:
    def test_contiguity_enforced(self, tmp_path):
        text = "\n".join([",".join(md.MONTHLY_COLUMNS),
                          monthly_line("2021-01"),
                          monthly_line("2021-03")]) + "\n"
        with pytest.raises(errors.MalformedRow):
            md.load_monthly(write(tmp_path / "m.csv", text))

    def test_year_boundary_ok(self, tmp_path):
        text = "\n".join([",".join(md.MONTHLY_COLUMNS),
                          monthly_line("2020-12"),
                          monthly_line("2021-01")]) + "\n"
        monthly = md.load_monthly(write(tmp_path / "m.csv", text))
        assert monthly.dates == ["2020-12", "2021-01"]
        assert monthly.n_train == 0
        assert monthly.columns["meci"].tolist() == [100.0, 100.0]

    def test_bad_month_format(self, tmp_path):
        text = ",".join(md.MONTHLY_COLUMNS) + "\n" \
            + monthly_line("2021-13") + "\n"
        with pytest.raises(errors.MalformedRow):
            md.load_monthly(write(tmp_path / "m.csv", text))


    def test_duplicate_month_names_later_line(self, tmp_path):
        text = "\n".join([",".join(md.MONTHLY_COLUMNS),
                          monthly_line("2021-02"),
                          monthly_line("2021-01"),
                          monthly_line("2021-02")]) + "\n"
        with pytest.raises(errors.MalformedRow) as info:
            md.load_monthly(write(tmp_path / "m.csv", text))
        assert info.value.line == 4


class TestLoadAttention:
    def test_negative_count_rejected(self, tmp_path):
        text = ",".join(md.ATTENTION_COLUMNS) + "\n" \
            + attention_line("2021-03-01", -10.0) + "\n"
        with pytest.raises(errors.MalformedRow) as info:
            md.load_attention(write(tmp_path / "a.csv", text))
        assert info.value.line == 2

    def test_sorted_columns_and_missing_cells(self, tmp_path):
        text = "\n".join([",".join(md.ATTENTION_COLUMNS),
                          attention_line("2021-03-02", 600.0),
                          "2021-03-01,1,,3,4,5"]) + "\n"
        att = md.load_attention(write(tmp_path / "a.csv", text))
        assert att.dates == ["2021-03-01", "2021-03-02"]
        assert att.n_train == 0
        assert list(att.columns) == list(md.ATTENTION_COLUMNS)[1:]
        assert att.columns["csi300"].tolist() == [1.0, 600.0]
        assert math.isnan(att.columns["csi500"][0])


def build_panel(tmp_path, dates, months, att_dates=None, rv_dates=None):
    att_dates = dates if att_dates is None else att_dates
    rv_dates = dates if rv_dates is None else rv_dates
    daily = md.load_daily(write(
        tmp_path / "d.csv",
        ",".join(md.DAILY_COLUMNS) + "\n"
        + "\n".join(daily_line(d, 10.0 + i) for i, d in enumerate(dates))
        + "\n"))
    monthly = md.load_monthly(write(
        tmp_path / "m.csv",
        ",".join(md.MONTHLY_COLUMNS) + "\n"
        + "\n".join(monthly_line(m, 100.0 + 10 * i)
                    for i, m in enumerate(months)) + "\n"))
    attention = md.load_attention(write(
        tmp_path / "a.csv",
        ",".join(md.ATTENTION_COLUMNS) + "\n"
        + "\n".join(attention_line(d, 500.0 + i)
                    for i, d in enumerate(att_dates)) + "\n"))
    rv = md.Panel(rv_dates, {"rv": np.arange(len(rv_dates), dtype=float)})
    return md.align_mixed_frequency(daily, attention, monthly, rv)


DATES = ["2021-01-04", "2021-01-05", "2021-02-01", "2021-02-02",
         "2021-02-03"]
MONTHS = ["2021-01", "2021-02"]


class TestAlign:
    def test_monthly_values_repeat_within_month(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS)
        assert panel.dates == DATES
        assert md.month_ids(panel.dates)[1].tolist() == [0, 0, 1, 1, 1]
        assert panel.columns["meci"].tolist() == [100.0, 100.0, 110.0,
                                                  110.0, 110.0]

    def test_missing_attention_date_is_nan(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS, att_dates=DATES[1:])
        assert math.isnan(panel.columns["csi300"][0])
        assert not math.isnan(panel.columns["csi300"][1])

    def test_uncovered_month_raises(self, tmp_path):
        with pytest.raises(errors.InputError, match="no monthly record for"):
            build_panel(tmp_path, DATES, MONTHS[:1])

    def test_rv_dates_restrict_the_calendar(self, tmp_path):
        # rv starts a day before the daily file and misses one of its days
        rv_dates = ["2021-01-01", *DATES[2:4]]
        panel = build_panel(tmp_path, DATES, MONTHS, rv_dates=rv_dates)
        assert panel.dates == DATES[2:4]
        assert panel.n_train == 0
        assert md.month_ids(panel.dates)[1].tolist() == [0, 0]
        assert panel.columns["rv"].tolist() == [1.0, 2.0]
        assert panel.columns["close"].tolist() == [12.0, 13.0]

    def test_no_rv_date_in_the_calendar_raises(self, tmp_path):
        with pytest.raises(errors.InputError, match="no trading dates left"):
            build_panel(tmp_path, DATES, MONTHS, rv_dates=["2020-12-31"])


class TestFillMissing:
    def test_ffill_carries_forward_and_backfills_lead(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS)
        col = np.array([math.nan, 1.0, math.nan, math.nan, 4.0])
        panel.columns["x"] = col
        filled = md.fill_missing(panel, "ffill")
        assert filled.columns["x"].tolist() == [1.0, 1.0, 1.0, 1.0, 4.0]

    def test_linear_interpolates(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS)
        panel.columns["x"] = np.array([0.0, math.nan, math.nan, 3.0, 3.0])
        filled = md.fill_missing(panel, "linear")
        assert filled.columns["x"].tolist() == [0.0, 1.0, 2.0, 3.0, 3.0]

    def test_all_missing_column_raises(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS)
        panel.columns["x"] = np.full(5, math.nan)
        with pytest.raises(errors.InputError, match="has no observed values"):
            md.fill_missing(panel)

    def test_untouched_without_nans(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS)
        filled = md.fill_missing(panel)
        for name, col in panel.columns.items():
            assert np.array_equal(filled.columns[name], col)

    def test_linear_fills_training_rows_from_training_rows(self):
        col = np.array([1.0, 2.0, 3.0, 4.0, math.nan, 10.0, 11.0, 12.0])
        dates = [f"2021-01-{d:02d}" for d in range(1, 9)]
        panel = md.Panel(dates, {"x": col}, n_train=5)
        # the gap clamps to the last training value; interpolating towards
        # the test row 10.0 would give 7.0, and 52.0 were that row 100.0
        assert md.fill_missing(panel, "linear").columns["x"].tolist() == [
            1.0, 2.0, 3.0, 4.0, 4.0, 10.0, 11.0, 12.0]
        panel.n_train = 0
        assert md.fill_missing(panel, "linear").columns["x"][4] == 7.0

    def test_gap_in_a_test_row_still_reads_later_test_rows(self):
        col = np.array([1.0, 2.0, 3.0, math.nan, 5.0, math.nan, math.nan])
        panel = md.Panel([f"2021-01-{d:02d}" for d in range(1, 8)],
                         {"x": col}, n_train=2)
        assert md.fill_missing(panel, "linear").columns["x"].tolist() == [
            1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0]
        assert md.fill_missing(panel, "ffill").columns["x"].tolist() == [
            1.0, 2.0, 3.0, 3.0, 5.0, 5.0, 5.0]

    def test_no_training_observation_raises(self):
        col = np.array([math.nan, math.nan, 3.0, 4.0])
        panel = md.Panel([f"2021-01-{d:02d}" for d in range(1, 5)],
                         {"x": col}, n_train=2)
        for policy in ("ffill", "linear"):
            with pytest.raises(errors.InputError,
                               match="no observed values in its 2 training"):
                md.fill_missing(panel, policy)

    @given(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=2,
                    max_size=12),
           st.integers(min_value=1, max_value=12),
           st.lists(st.floats(-1e6, 1e6), min_size=12, max_size=12),
           st.sampled_from(["ffill", "linear"]))
    @settings(max_examples=200, deadline=None)
    def test_test_rows_never_shape_filled_training_rows(self, cells, n_train,
                                                        later, policy):
        # None is a missing cell; every observed test cell then moves
        n_train = min(n_train, len(cells) - 1)
        col = np.array([math.nan if c is None else c for c in cells])
        moved = col.copy()
        observed = ~np.isnan(col)
        observed[:n_train] = False
        moved[observed] = np.array(later[:len(col)])[observed]
        dates = [f"2021-01-{d:02d}" for d in range(1, len(col) + 1)]
        outcomes = []
        for values in (col, moved):
            try:
                filled = md.fill_missing(
                    md.Panel(dates, {"x": values}, n_train=n_train), policy)
            except errors.InputError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(filled.columns["x"][:n_train].tobytes())
        assert outcomes[0] == outcomes[1]


class TestNormalize:
    def test_zscore_and_reuse_stats(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS)
        panel.n_train = panel.n_rows
        normed, stats = md.normalize(panel, ["close"])
        col = normed.columns["close"]
        assert abs(col.mean()) < 1e-12
        assert abs(col.std() - 1.0) < 1e-12
        mean, std = stats["close"]
        assert np.array_equal((panel.columns["close"] - mean) / std, col)

    @given(st.integers(min_value=2, max_value=4),
           st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_held_out_rows_leave_stats_unchanged(self, tmp_path_factory,
                                                 n_train, later):
        panel = build_panel(tmp_path_factory.mktemp("norm"), DATES, MONTHS)
        panel.n_train = n_train
        before, stats = md.normalize(panel, ["close"])
        panel.columns["close"] = np.concatenate(
            [panel.columns["close"][:n_train], later[n_train:]])
        after, again = md.normalize(panel, ["close"])
        assert again == stats
        assert np.array_equal(after.columns["close"][:n_train],
                              before.columns["close"][:n_train])

    def test_constant_column_raises(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS)
        panel.columns["x"] = np.ones(5)
        panel.n_train = panel.n_rows
        with pytest.raises(errors.InputError, match="has no usable variance"):
            md.normalize(panel, ["x"])


class TestSplit:
    def test_boundary_is_floor(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS)
        n_train = md.split_boundary(panel.n_rows, 0.5)
        assert n_train == 2
        assert panel.dates[:n_train] == DATES[:2]
        assert panel.dates[n_train:] == DATES[2:]

    def test_bad_ratio(self, tmp_path):
        panel = build_panel(tmp_path, DATES, MONTHS)
        for ratio in (0.0, 1.0, -1.0, 2.0, math.nan):
            with pytest.raises(errors.InputError):
                md.split_boundary(panel.n_rows, ratio)

    @given(st.integers(min_value=2, max_value=60),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_split_partitions_rows(self, n, ratio):
        n_train = md.split_boundary(n, ratio)
        assert n_train == math.floor(n * ratio)
        assert 0 <= n_train < n
