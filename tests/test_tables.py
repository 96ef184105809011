import ast
import builtins
import csv
import datetime
import importlib
import json
import math
import pathlib
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfvol
from mfvol import tables
from mfvol.errors import InputError, MalformedRow


def package_imports():
    """(module file name, absolutely imported module) of every import
    statement in the package, at any depth."""
    for path in sorted(pathlib.Path(mfvol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path.name, alias.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module


def test_only_tables_imports_csv():
    # a second CSV parser is how the per-table rules drifted apart
    assert [name for name, module in package_imports()
            if module == "csv" and name != "tables.py"] == []


def test_only_tables_imports_re_or_datetime():
    # date, month and number rules live in one place
    assert [name for name, module in package_imports()
            if module in ("re", "datetime") and name != "tables.py"] == []


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency; scipy is for the tests only
    assert [name for name, module in package_imports()
            if module.split(".")[0] == "scipy"] == []


def test_every_imported_name_is_used():
    # no linter runs here; a name used only in an annotation counts
    unused = []
    paths = [*pathlib.Path(mfvol.__file__).parent.glob("*.py"),
             *pathlib.Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_only_tables_and_load_config_build_a_malformed_row():
    # a table's owner states reasons and tables.read finds the line; the
    # config file is not a table, so load_config numbers its own lines
    builders = set()
    for path in sorted(pathlib.Path(mfvol.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "MalformedRow" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    builders.add((path.name, getattr(top, "name", None)))
    assert {b for b in builders if b[0] != "tables.py"} \
        == {("cli.py", "load_config")}


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=20), st.booleans())
@example([-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
          1.7976931348623157e308, -1.7976931348623157e308], True)
def test_float_roundtrip_is_bitwise(tmp_path_factory, values, as_array):
    path = str(tmp_path_factory.mktemp("tables") / "t.csv")
    column = np.array(values, dtype=float) if as_array else values
    tables.write(path, ["i", "x"], [range(len(values)), column])
    back = tables.read(path, {"i": tables.INT, "x": tables.FLOAT})
    assert back["i"] == list(range(len(values)))
    assert [bits(x) for x in back["x"].tolist()] == list(map(bits, values))


@pytest.mark.parametrize("text, line, reason", [
    ("a,b\n1\n", 2, "expected 2 fields, got 1"),
    ("a,b\n1,2\n\n , \n3,4,5\n", 5, "expected 2 fields, got 3"),
    ("a,c\n1,2\n", 1, "bad header"),
    ("", 1, "bad header"),
    ("a,b\nx,y\n", 2, "bad number 'y'"),
    ("a,b\nx,1\nz,nan\n", 3, "non-finite value 'nan' for 'b'"),
    ("a,b\nx,-inf\n", 2, "non-finite value '-inf' for 'b'"),
    ("a,b\nx,1e999\n", 2, "non-finite value '1e999' for 'b'"),
    ("a,b\nx,\n", 2, "bad number '' for 'b'"),
    ("a,a\n1,2\n", 1, "bad header"),
])
def test_read_rejects(tmp_path, text, line, reason):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(MalformedRow) as info:
        tables.read(str(path), {"a": tables.TEXT, "b": tables.FLOAT})
    assert info.value.line == line
    assert info.value.reason.startswith(reason)


@pytest.mark.parametrize("kind, cells, line, reason", [
    (tables.DATE, ["2021-03-01", "2021-02-30"], 3, "bad date '2021-02-30'"),
    (tables.DATE, ["20210301"], 2, "bad date '20210301'"),
    (tables.KEY, ["2021-03-01", "2021-03-01"], 3, "date '2021-03-01' "
     "repeats or precedes '2021-03-01'"),
    (tables.KEY, ["2021-03-02", "2021-03-01"], 3, "date '2021-03-01' "
     "repeats or precedes '2021-03-02'"),
    (tables.MONTH, ["2021-12", "2021-13"], 3, "bad month '2021-13'"),
    (tables.INT, ["4", "4.0"], 3, "bad integer '4.0'"),
    (("train", "test"), ["train", "dev"], 3, "bad choice 'dev'"),
    (tables.INT, ["4", "9223372036854775808"], 3,
     "bad integer '9223372036854775808'"),
])
def test_kind_rejects(tmp_path, kind, cells, line, reason):
    path = tmp_path / "t.csv"
    path.write_text("k\n" + "\n".join(cells) + "\n")
    with pytest.raises(MalformedRow) as info:
        tables.read(str(path), {"k": kind})
    assert info.value.line == line
    assert info.value.reason.startswith(reason)
    assert info.value.reason.endswith(" for 'k'")


def test_read_options(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" a , b ,c\n# note\n\n1, 2 ,\n#,x,y\n")
    schema = {"a": tables.INT, "b": tables.FLOAT}
    with pytest.raises(MalformedRow):
        tables.read(str(path), schema)
    seen = []
    back = tables.read(str(path), schema, rest=tables.OPTIONAL, comment="#",
                       tests=lambda columns: seen.append(columns) or [])
    assert list(back) == ["a", "b", "c"]
    assert back["a"] == [1] and back["b"].tolist() == [2.0]
    assert math.isnan(back["c"][0])
    [columns] = seen
    assert columns is back
    # the one data row is the file's line 4
    with pytest.raises(MalformedRow) as info:
        tables.read(str(path), schema, rest=tables.OPTIONAL, comment="#",
                    tests=lambda columns: [(np.ones(1, dtype=bool),
                                            lambda i: "broken")])
    assert (info.value.line, info.value.reason) == (4, "broken")
    with pytest.raises(InputError, match="no such file"):
        tables.read(str(tmp_path / "absent.csv"), schema)


def test_a_key_table_needs_a_data_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("k,a\n# note\n\n")
    with pytest.raises(MalformedRow) as info:
        tables.read(str(path), {"k": tables.KEY, "a": tables.FLOAT},
                    comment="#")
    assert str(info.value) == f"{path}:1: no data rows"
    # a table without a KEY column may be empty
    back = tables.read(str(path), {"k": tables.DATE, "a": tables.FLOAT},
                       comment="#")
    assert back["k"] == [] and back["a"].size == 0


def negative(name):
    """The row tests that a negative ``name`` cell breaks."""
    return lambda columns: [(columns[name] < 0, lambda i: "negative")]


def test_check_sees_rows_in_file_order(tmp_path):
    # a broken row fails ahead of a later row's bad cell
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n-1\nx\n")
    with pytest.raises(MalformedRow) as info:
        tables.read(str(path), {"a": tables.FLOAT},
                    tests=negative("a"))
    assert (info.value.line, info.value.reason) == (3, "negative")


@pytest.mark.parametrize("text, line, reason", [
    # every cell parses, so np.loadtxt reads the file
    ("k,a\n2021-03-01,1\n2021-03-02,-1\n2021-03-02,2\n", 3, "negative"),
    ("k,a\n2021-03-01,1\n2021-03-01,2\n2021-03-02,-1\n", 3,
     "date '2021-03-01' repeats or precedes '2021-03-01' for 'k'"),
    # at one row the KEY order comes first
    ("k,a\n2021-03-02,1\n2021-03-01,-1\n", 3,
     "date '2021-03-01' repeats or precedes '2021-03-02' for 'k'"),
    # a quote sends the file to the row path, where the same rules hold
    ('k,a\n2021-03-01,"1"\n2021-03-02,-1\n2021-03-02,2\n', 3, "negative"),
])
def test_earlier_broken_rule_wins(tmp_path, text, line, reason):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(MalformedRow) as info:
        tables.read(str(path), {"k": tables.KEY, "a": tables.FLOAT},
                    tests=negative("a"))
    assert (info.value.line, info.value.reason) == (line, reason)


@pytest.mark.parametrize("text, line", [
    ("a,b\r\n2021-03-01,1\r\n2021-03-02,2\r\n2021-03-03,nan\r\n", 4),
    ("a,b\n2021-03-01,1\n\n2021-03-02,2\n2021-03-03,nan\n", 5),
], ids=["crlf", "blank-line"])
def test_bad_cell_names_its_physical_line(tmp_path, text, line):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    with pytest.raises(MalformedRow) as info:
        tables.read(str(path), {"a": tables.DATE, "b": tables.FLOAT})
    assert info.value.line == line


SCHEMA = {"key": tables.KEY, "day": tables.DATE, "month": tables.MONTH,
          "n": tables.INT, "x": tables.FLOAT, "y": tables.OPTIONAL,
          "name": tables.TEXT, "split": ("train", "test")}
VALID = [["2020-01-02", "2021-03-01", "2020-12", "3", "1.5", "", "a", "train"],
         ["2020-01-05", "2021-03-01", "2021-01", "-4", "2e-3", "7", "b",
          "test"],
         ["2020-01-09", "1999-12-31", "1999-01", "0", "-0.0", "1", "", "test"]]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(VALID) - 1), st.sampled_from(list(SCHEMA)),
       st.one_of(st.text(), st.from_regex(
           r"-?([0-9.eE+-]{1,8}|nan|inf|Infinity)|[0-9-]{7,10}",
           fullmatch=True)))
@example(1, "x", "nan")
@example(0, "y", " -inf ")
@example(1, "key", "2020-01-09")
@example(0, "day", "2021-02-30")
@example(0, "day", "2021-03-01X")
@example(2, "split", "trainX")
@example(1, "x", "1_0")
@example(0, "x", "infinity")
@example(1, "n", "\u0665")
def test_one_replaced_cell_parses_or_names_its_line(tmp_path_factory, row,
                                                    name, text):
    """Any one cell set to any text either reads as a value of its
    column's kind or raises MalformedRow at that cell's line. Without
    its TEXT column the table is read by np.loadtxt unless the cell
    needs quotes, so both paths are held to the same answer."""
    numeric = {k: v for k, v in SCHEMA.items() if v != tables.TEXT}
    for schema in (SCHEMA, numeric) if name in numeric else (SCHEMA,):
        rows = [[cell for col, cell in zip(SCHEMA, r) if col in schema]
                for r in VALID]
        rows[row][list(schema).index(name)] = text
        path = tmp_path_factory.mktemp("tables") / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([list(schema),
                                                           *rows])
        kind = schema[name]
        try:
            back = tables.read(str(path), schema)
        except MalformedRow as exc:
            # a valid date past the next row's breaks the order at that row
            assert exc.line == row + 2 or (kind == tables.KEY
                                           and exc.line == row + 3)
            continue
        assert of_kind(kind, text.strip(), back[name][row])


def of_kind(kind, text, value) -> bool:
    """Whether ``value`` is what a cell ``text`` of ``kind`` reads as."""
    if kind == tables.OPTIONAL and not text:
        return math.isnan(value)
    if kind in (tables.FLOAT, tables.OPTIONAL):
        return math.isfinite(value) and value == float(text)
    if kind == tables.INT:
        return value == int(text)
    if kind in (tables.DATE, tables.KEY):
        return value == text and bool(
            re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text)
            and datetime.date.fromisoformat(text))
    if kind == tables.MONTH:
        return value == text and bool(
            re.fullmatch(r"[0-9]{4}-(0[1-9]|1[0-2])", text))
    return value == text and (kind == tables.TEXT or text in kind)


@pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\rb", '"a', 'a"b'])
def test_write_refuses_a_cell_that_breaks_the_row(tmp_path, cell):
    path = tmp_path / "t.csv"
    for column in ([cell, "ok"], np.array([cell, "ok"])):
        with pytest.raises(InputError,
                           match="a double quote, a comma or a line break"):
            tables.write(str(path), ["name", "x"], [column, [1.0, 2.0]])
    assert not path.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_refuses_a_non_finite_float(tmp_path, value):
    # read would refuse the cell, so the next stage could not take it
    path = tmp_path / "t.csv"
    for column in ([1.0, value], np.array([1.0, value]),
                   [1.0, np.float64(value)]):
        with pytest.raises(InputError, match="'x' cell is not a finite"):
            tables.write(str(path), ["name", "x"], [["a", "b"], column])
    assert not path.exists()
    tables.write(str(path), ["name", "n"], [["nan", "inf"], [1, 2]])
    assert tables.read(str(path), {"name": tables.TEXT, "n": tables.INT}) \
        == {"name": ["nan", "inf"], "n": [1, 2]}


def test_exit_codes_are_the_whole_error_taxonomy():
    # the command line maps InputError to 2 and NumericalError to 3; a
    # finer class would be a name that no caller tells apart
    derived, raised = {}, set()
    for path in sorted(pathlib.Path(mfvol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.bases:
                # an error class by what it derives from: Weights is a
                # Mapping
                module = importlib.import_module(f"mfvol.{path.stem}")
                if issubclass(getattr(module, node.name), BaseException):
                    derived[node.name] = path.name
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                # a class by its name; a variable or a function that
                # builds the error is spelt in lower case
                if isinstance(exc, ast.Name) \
                        and exc.id.lstrip("_")[:1].isupper():
                    raised.add(exc.id)
    assert derived == {"InputError": "errors.py",
                       "NumericalError": "errors.py",
                       "MalformedRow": "errors.py",
                       "_Exhausted": "garch_midas.py"}
    builtin = {name for name in raised if isinstance(
        getattr(builtins, name, None), type)}
    assert raised - builtin <= set(derived)


def test_only_tables_writes_a_file():
    # every stage commits its outputs through tables.all_or_none, so no
    # other module opens a file for writing or renames one into place
    writers = set()
    for path in sorted(pathlib.Path(mfvol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                modes = [*node.args[1:2], *(k.value for k in node.keywords
                                             if k.arg == "mode")]
                # a mode that is not a literal may write
                writes = any(not isinstance(mode, ast.Constant)
                             or set(mode.value) & set("wax+")
                             for mode in modes)
            else:
                writes = isinstance(func, ast.Attribute) and (
                    func.attr in ("write_text", "write_bytes")
                    or func.attr in ("replace", "rename")
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os")
            if writes:
                writers.add(path.name)
    assert writers == {"tables.py"}


def test_all_or_none_writes_every_file_or_none(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.json"
    b.write_text("an earlier run's b\n")
    with pytest.raises(RuntimeError, match="a late failure"):
        with tables.all_or_none(str(a), str(b)) as (temp_a, temp_b):
            pathlib.Path(temp_a).write_text("new a\n")
            pathlib.Path(temp_b).write_text("new b\n")
            raise RuntimeError("a late failure")
    assert [p.name for p in tmp_path.iterdir()] == ["b.json"]
    assert b.read_text() == "an earlier run's b\n"

    with tables.all_or_none(str(a), str(b)) as (temp_a, temp_b):
        pathlib.Path(temp_a).write_text("new a\n")
        pathlib.Path(temp_b).write_text("new b\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.json"]
    assert (a.read_text(), b.read_text()) == ("new a\n", "new b\n")


def test_all_or_none_names_the_target_of_a_failed_write(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "missing" / "bad.csv"
    with pytest.raises(FileNotFoundError) as info:
        with tables.all_or_none(str(good), str(bad)) as temps:
            for temp in temps:
                tables.write(temp, ["x"], [[1.0]])
    assert info.value.filename == str(bad)
    assert list(tmp_path.iterdir()) == []
    # a directory in a target's place fails before anything is written
    bad.parent.mkdir()
    bad.mkdir()
    with pytest.raises(IsADirectoryError):
        with tables.all_or_none(str(good), str(bad)):
            raise AssertionError("the block must not run")
    assert [p.name for p in tmp_path.iterdir()] == ["missing"]


def test_all_or_none_makes_directories_only_for_a_commit(tmp_path):
    path = tmp_path / "a" / "b" / "c.csv"
    with pytest.raises(RuntimeError, match="a late failure"):
        with tables.all_or_none(str(path), make_dirs=True) as (temp,):
            pathlib.Path(temp).write_text("new c\n")
            raise RuntimeError("a late failure")
    assert list(tmp_path.iterdir()) == []      # neither a nor a/b stays
    with tables.all_or_none(str(path), make_dirs=True) as (temp,):
        pathlib.Path(temp).write_text("new c\n")
    assert [p.name for p in path.parent.iterdir()] == ["c.csv"]
    assert path.read_text() == "new c\n"


def test_all_or_none_refuses_two_paths_that_name_one_file(tmp_path):
    # the second would replace the first, and the stage would report both
    path = tmp_path / "same.out"
    (tmp_path / "link.out").symlink_to(path)
    for other in (str(path), f"{tmp_path}/./same.out",
                  str(tmp_path / "link.out")):
        message = f"two outputs name one file: {path} and {other}"
        with pytest.raises(InputError, match=re.escape(message)):
            with tables.all_or_none(str(path), other, make_dirs=True):
                raise AssertionError("the block must not run")
        assert [p.name for p in tmp_path.iterdir()] == ["link.out"]


@pytest.mark.parametrize("indent", [None, 1])
def test_write_json_writes_what_json_dump_writes(tmp_path, indent):
    doc = {"a": [1.5, -0.0, 1e-300, 2, [0.1, "x"]], "b": {"c": "dé",
           "e": 123456789012345678}, "f": 1 / 3, "g": [], "h": {}}
    path = tmp_path / "doc.json"
    tables.write_json(str(path), doc, indent=indent)
    with open(tmp_path / "dump.json", "w") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()
