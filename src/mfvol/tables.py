"""CSV tables, the one format every pipeline stage reads and writes.

Each table declares its columns once, in the module that owns it, as a
schema: a mapping from column name to kind. :func:`read` parses every
cell by its kind:

* ``DATE``: ``YYYY-MM-DD`` text, each distinct text validated once;
* ``KEY``: a ``DATE`` that strictly increases down the file;
* ``MONTH``: ``YYYY-MM`` text;
* ``INT``: an integer;
* ``FLOAT``: a finite number;
* ``OPTIONAL``: a finite number, or a blank cell for NaN;
* ``TEXT``: any text;
* a tuple of strings: one of those choices.

The header must match, blank rows are skipped and every other row has
the header's field count. The first broken rule in file order raises
:class:`MalformedRow` at its line. Rules that span a row (price order,
duplicate keys, ...) stay with the table's owner, as ``read``'s
``check``. :func:`write` formats every cell through ``str``, for a
float its shortest round-trip ``repr``, so every finite float it
writes reads back bit for bit.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import re
from datetime import date
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InputError, MalformedRow, MissingFile

DATE, KEY, MONTH = "date", "key", "month"
INT, FLOAT, OPTIONAL, TEXT = "int", "float", "optional", "text"

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_ISO_MONTH = re.compile(r"[0-9]{4}-(0[1-9]|1[0-2])")


@functools.lru_cache(maxsize=None)
def _date(text: str) -> str:
    # fromisoformat also takes 20210301 and 2021-W09-1, but a trading
    # day is its exact text and its month is the text's first 7 chars
    try:
        if _ISO_DATE.fullmatch(text) and date.fromisoformat(text):
            return text
    except ValueError:
        pass
    raise ValueError(f"bad date {text!r}")


def _month(text: str) -> str:
    if not _ISO_MONTH.fullmatch(text):
        raise ValueError(f"bad month {text!r}")
    return text


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r}") from None


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


_PARSERS = {DATE: _date, MONTH: _month, INT: _int, FLOAT: _float, TEXT: str,
            OPTIONAL: lambda text: _float(text) if text else math.nan}


def parse(kind, text: str):
    """One cell of ``kind``, or ValueError."""
    return _parser(kind)(text)


def _parser(kind) -> Callable[[str], object]:
    if isinstance(kind, tuple):
        def choice(text):
            if text not in kind:
                raise ValueError(f"bad choice {text!r} (one of "
                                 f"{', '.join(kind)})")
            return text
        return choice
    if kind == KEY:
        last = [""]      # the date of the row before

        def key(text):
            if _date(text) <= last[0]:
                raise ValueError(f"date {text!r} repeats or precedes "
                                 f"{last[0]!r}")
            last[0] = text
            return text
        return key
    return _PARSERS[kind]


def read(path: str, schema: Mapping[str, object], *, rest=None,
         comment: str | None = None,
         check: Callable[[int, list], None] | None = None) -> dict:
    """Every column of the file, parsed by ``schema``: ``FLOAT`` and
    ``OPTIONAL`` columns as float arrays, the others as lists.

    ``rest`` is the kind of any further header columns after the
    schema's. Rows whose first cell starts with ``comment`` are
    skipped. ``check(line_no, values)`` vets each parsed row.
    """
    if not os.path.exists(path):
        raise MissingFile(f"no such file: {path}")
    names = list(schema)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            found = [h.strip() for h in next(reader, [])]
            if (found[:len(names)] if rest else found) != names \
                    or len(set(found)) < len(found):
                raise MalformedRow(path, 1, f"bad header {found!r}, expected "
                                   f"{'to start with ' if rest else ''}"
                                   f"{names!r}")
            kinds = [*schema.values(), *[rest] * (len(found) - len(names))]
            parsers = [_parser(kind) for kind in kinds]
            columns: list[list] = [[] for _ in found]
            # a quoted cell may span lines: a row's line is its first one
            last_line = reader.line_num
            for row in reader:
                line_no, last_line = last_line + 1, reader.line_num
                cells = [c.strip() for c in row]
                if not any(cells) or (comment
                                      and cells[0].startswith(comment)):
                    continue
                if len(cells) != len(found):
                    raise MalformedRow(path, line_no, f"expected {len(found)}"
                                       f" fields, got {len(cells)}")
                values = []
                try:
                    for parse_cell, text in zip(parsers, cells):
                        values.append(parse_cell(text))
                except ValueError as exc:
                    raise MalformedRow(path, line_no, f"{exc} for "
                                       f"{found[len(values)]!r}") from None
                if check:
                    check(line_no, values)
                for column, value in zip(columns, values):
                    column.append(value)
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    return {name: np.array(column, dtype=float)
            if kind in (FLOAT, OPTIONAL) else column
            for name, kind, column in zip(found, kinds, columns)}


def utf8_error(path: str) -> MalformedRow:
    """The error for a file that failed to decode as UTF-8, at the line
    of its first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return MalformedRow(path, data.count(b"\n", 0, exc.start) + 1,
                            f"not valid UTF-8 (byte {data[exc.start]:#04x})")
    return MalformedRow(path, 1, "not valid UTF-8")


def write(path: str, header: Sequence[str], columns: Sequence) -> None:
    """One header line, then one line per row of the equal-length
    ``columns`` (ndarrays or lists).

    A cell of a text column that holds a comma or a line break would
    shift the row's fields, so it raises :class:`InputError` before the
    file is opened. Each such column is checked as one joined string.
    """
    text = []
    for name, column in zip(header, columns, strict=True):
        if isinstance(column, np.ndarray):
            if column.dtype.kind in "biuf":
                text.append(map(str, column.tolist()))
                continue
            column = column.tolist()
        cells = list(map(str, column))
        joined = "".join(cells)
        if "," in joined or "\n" in joined or "\r" in joined:
            raise InputError(f"cannot write {path}: a {name!r} cell holds "
                             "a comma or a line break")
        text.append(cells)
    lines = [",".join(header), *map(",".join, zip(*text, strict=True))]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
