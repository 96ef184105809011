import ast
import math
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfvol
from mfvol import tables
from mfvol.errors import InputError, MalformedRow, MissingFile


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


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency; scipy is for the tests only
    assert [name for name, module in package_imports()
            if module.split(".")[0] == "scipy"] == []


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(), max_size=20), st.booleans())
@example([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
          2.2250738585072014e-308, 1.7976931348623157e308], True)
def test_float_roundtrip_is_bitwise(tmp_path_factory, values, as_array):
    path = str(tmp_path_factory.mktemp("tables") / "t.csv")
    column = np.array(values, dtype=float) if as_array else values
    tables.write(path, ["i", "x"], [range(len(values)), column])
    header, rows = tables.read(path, ["i", "x"])
    assert header == ["i", "x"]
    assert [line_no for line_no, _ in rows] == list(range(2, len(values) + 2))
    back = tables.floats(path, rows, 1).tolist()
    assert len(back) == len(values)
    for got, want in zip(back, values):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert bits(got) == bits(want)


@pytest.mark.parametrize("text, line, reason", [
    ("a,b\n1\n", 2, "expected 2 fields, got 1"),
    ("a,b\n1,2\n\n , \n3,4,5\n", 5, "expected 2 fields, got 3"),
    ("a,c\n1,2\n", 1, "bad header"),
    ("", 1, "bad header"),
    ("a,b\nx,y\n", 2, "bad number 'y'"),
])
def test_read_rejects(tmp_path, text, line, reason):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(MalformedRow) as info:
        _, rows = tables.read(str(path), ["a", "b"])
        tables.floats(str(path), rows, 1)
    assert info.value.line == line
    assert info.value.reason.startswith(reason)


def test_read_options(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" a , b ,c\n# note\n\n1, 2 ,3\n#,x,y\n")
    with pytest.raises(MalformedRow):
        tables.read(str(path), ["a", "b"])
    header, rows = tables.read(str(path), ["a", "b"], open_ended=True,
                               comment="#")
    assert header == ["a", "b", "c"]
    assert rows == [(4, ["1", "2", "3"])]
    with pytest.raises(MissingFile):
        tables.read(str(tmp_path / "absent.csv"), ["a"])


@pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\rb"])
def test_write_refuses_a_cell_that_breaks_the_row(tmp_path, cell):
    path = tmp_path / "t.csv"
    for column in ([cell, "ok"], np.array([cell, "ok"])):
        with pytest.raises(InputError, match="comma or a line break"):
            tables.write(str(path), ["name", "x"], [column, [1.0, 2.0]])
    assert not path.exists()
