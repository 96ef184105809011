"""CSV tables, the one format every pipeline stage reads and writes.

Each table declares its columns once, in the module that owns it, as a
schema: a mapping from column name to kind. :func:`read` parses every
cell by its kind:

* ``DATE``: ``YYYY-MM-DD`` text, each distinct text validated once;
* ``KEY``: a ``DATE`` that strictly increases down the file;
* ``MONTH``: ``YYYY-MM`` text;
* ``INT``: an integer in the int64 range;
* ``FLOAT``: a finite number;
* ``OPTIONAL``: a finite number, or a blank cell for NaN;
* ``TEXT``: any text;
* a tuple of strings: one of those choices.

The header must match, blank rows are skipped and every other row has
the header's field count. Rules that span rows or cells (price order,
duplicate keys, ...) stay with the table's owner, as ``read``'s
``rule``: a function over the parsed columns and each row's physical
line. The first broken rule or bad cell in file order raises
:class:`MalformedRow` at its line; at one row a bad cell comes first.

Two tokenizers read a file, and the input decides which. A clean file
(ASCII, no double quote, blank line or lone carriage return, no
``comment`` and no ``TEXT`` column) is parsed column at once in C by
``np.loadtxt``, and each distinct date-like text is validated once.
Any other file, and any file in which that parse meets a cell it
cannot take, is read row by row through ``csv``; that path is the one
source of every cell error. :func:`write` formats every cell through
``str``, for a float its shortest round-trip ``repr``, so every float
it writes reads back bit for bit. It refuses a non-finite float and a
cell that would need quotes, so every numeric table it writes is clean.
:func:`write_json` writes the JSON sidecars and models.

This is the one module that opens a file for writing. Every stage
computes all of its outputs first and then writes them in one
:func:`all_or_none` block, so either all of them appear or none does.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
import json
import math
import os
import re
from datetime import date
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InputError, MalformedRow

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
    # the int64 range, as in the column-at-once parse
    try:
        if -2**63 <= (value := int(text)) < 2**63:
            return value
    except ValueError:
        pass
    raise ValueError(f"bad integer {text!r}")


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


_PARSERS = {DATE: _date, KEY: _date, MONTH: _month, INT: _int,
            FLOAT: _float, TEXT: str,
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
    return _PARSERS[kind]


# rule(columns, lines) raises MalformedRow at the first row that breaks it
Rule = Callable[[dict, Sequence[int]], None]


def read(path: str, schema: Mapping[str, object], *, rest=None,
         comment: str | None = None, rule: Rule | None = None) -> dict:
    """Every column of the file, parsed by ``schema``: ``FLOAT`` and
    ``OPTIONAL`` columns as float arrays, ``INT`` columns as lists of
    ints, the others as lists of strings.

    ``rest`` is the kind of any further header columns after the
    schema's. Rows whose first cell starts with ``comment`` are
    skipped. ``rule(columns, lines)`` gets the parsed columns and each
    row's physical line, and raises at the first row that breaks it.
    When a bad cell stops the read at row k, the rules first run on
    rows 0..k-1, so an earlier broken rule still wins.
    """
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
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
            columns, lines, error = \
                _read_clean(path, found, kinds, comment) \
                or _read_rows(path, reader, found, kinds, comment)
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    rules = [_increasing(path, name)
             for name, kind in zip(found, kinds) if kind == KEY]
    if rule:
        rules.append(rule)
    broken = []
    for check in rules:
        try:
            check(columns, lines)
        except MalformedRow as exc:
            broken.append(exc)
    if broken:
        # min keeps the first of equal lines: at one row, KEY order first
        raise min(broken, key=lambda exc: exc.line)
    if error:
        raise error
    return columns


# one byte wider than the longest legal value, so a longer one shows
_FIELD = {INT: "i8", FLOAT: "f8", OPTIONAL: "f8", DATE: "S11", KEY: "S11",
          MONTH: "S8"}


def _read_clean(path: str, found: list[str], kinds: list,
                comment: str | None):
    """(columns, lines, None) for a file the row path would read to the
    same columns without an error, tokenized and parsed in C by
    ``np.loadtxt``; None for any file it cannot take, which the row path
    then reads."""
    if comment or TEXT in kinds:
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    body = data.find(b"\n") + 1      # no quotes, so line 1 is the header
    # np.loadtxt would read a double quote, a NUL, a blank line or a lone
    # carriage return differently from csv, or count its lines apart; and
    # numpy 2.4.6 crashes on a character beyond U+FFFF in an integer cell
    if not 0 < body < len(data) or not data.isascii() \
            or any(bad in data for bad in (b'"', b"\0", b"\n\n", b"\n\r\n")) \
            or data.count(b"\r") != data.count(b"\r\n"):
        return None
    del data
    dtype = np.dtype([(name, _FIELD.get(kind) or f"S{max(map(len, kind)) + 1}")
                      for name, kind in zip(found, kinds)])
    try:
        table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                           skiprows=1, ndmin=1, encoding="utf-8")
        columns = {name: _column(kind, table[name])
                   for name, kind in zip(found, kinds)}
    except ValueError:
        return None
    return columns, range(2, len(table) + 2), None


def _column(kind, cells: np.ndarray):
    """One column of a ``np.loadtxt`` table as :func:`read` returns it,
    or ValueError for a cell the row path must judge."""
    if kind in (FLOAT, OPTIONAL):
        if not np.isfinite(cells).all():
            raise ValueError("non-finite value")
        return cells.copy()     # a contiguous copy, so the table can go
    if kind == INT:
        return cells.tolist()
    # each run of equal cells is decoded and validated once
    starts = np.flatnonzero(np.concatenate([[True], cells[1:] != cells[:-1]]))
    check = _parser(kind)
    texts = np.array([check(text.decode("ascii")) for text in cells[starts]],
                     dtype=object)
    return np.repeat(texts, np.diff(starts, append=len(cells))).tolist()


def _read_rows(path: str, reader, found: list[str], kinds: list,
               comment: str | None):
    """(columns, lines, error) of the rows up to the first bad cell,
    read one by one through ``csv``; ``error`` names that cell, or is
    None."""
    parsers = [_parser(kind) for kind in kinds]
    cells_of: list[list] = [[] for _ in found]
    lines: list[int] = []
    error = None
    # a quoted cell may span lines: a row's line is its first one
    last_line = reader.line_num
    for row in reader:
        line_no, last_line = last_line + 1, reader.line_num
        cells = [c.strip() for c in row]
        if not any(cells) or (comment and cells[0].startswith(comment)):
            continue
        if len(cells) != len(found):
            error = MalformedRow(path, line_no, f"expected {len(found)} "
                                 f"fields, got {len(cells)}")
            break
        values = []
        try:
            for parse_cell, text in zip(parsers, cells):
                values.append(parse_cell(text))
        except ValueError as exc:
            error = MalformedRow(path, line_no, f"{exc} for "
                                 f"{found[len(values)]!r}")
            break
        for column, value in zip(cells_of, values):
            column.append(value)
        lines.append(line_no)
    columns = {name: np.array(column, dtype=float)
               if kind in (FLOAT, OPTIONAL) else column
               for name, kind, column in zip(found, kinds, cells_of)}
    return columns, lines, error


def _increasing(path: str, name: str) -> Rule:
    """The rule of a ``KEY`` column: each date after the row before's."""
    def rule(columns: dict, lines: Sequence[int]) -> None:
        dates = columns[name]
        out_of_order = np.zeros(len(dates), dtype=bool)
        out_of_order[1:] = [b <= a for a, b in zip(dates, dates[1:])]
        first_broken(lines, [(out_of_order, lambda i, line: MalformedRow(
            path, line, f"date {dates[i]!r} repeats or precedes "
            f"{dates[i - 1]!r} for {name!r}"))])
    return rule


def first_broken(lines: Sequence[int], tests) -> None:
    """Raise the error of the first row that breaks one of ``tests``.

    Each test is a boolean array, True at every row that breaks it, and
    a function from such a row's index and physical line to its error.
    At one row the earlier test wins.
    """
    firsts = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(tests)
              if bad.any()]
    if firsts:
        row, k = min(firsts)
        raise tests[k][1](row, lines[row])


def repeats(values) -> np.ndarray:
    """True at each row whose value an earlier row already holds."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")   # equal values in row order
    ordered = values[order]
    later = np.zeros(len(values), dtype=bool)
    later[order[1:][ordered[1:] == ordered[:-1]]] = True
    return later


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


def write(path: str, header: Sequence[str], columns: Sequence,
          footer: Sequence[str] = ()) -> None:
    """One header line, then one line per row of the equal-length
    ``columns`` (ndarrays or lists), then the ``footer`` lines.

    A non-finite float, which :func:`read` refuses, and a cell of a
    text column that holds a double quote, a comma or a line break,
    which would shift the row's fields when read back, raise
    :class:`InputError` before the file is opened. Each text column is
    checked as one joined string.
    """
    text = []
    for name, column in zip(header, columns, strict=True):
        if isinstance(column, np.ndarray):
            numeric = column.dtype.kind in "biuf"
            finite = not numeric or np.isfinite(column).all()
            column = column.tolist()
        else:
            numeric = False
            finite = all(math.isfinite(cell) for cell in column
                         if isinstance(cell, float))
        if not finite:
            raise InputError(f"cannot write {path}: a {name!r} cell is not "
                             "a finite number")
        if numeric:
            text.append(map(str, column))
            continue
        cells = list(map(str, column))
        joined = "".join(cells)
        if any(bad in joined for bad in ',"\n\r'):
            raise InputError(f"cannot write {path}: a {name!r} cell holds "
                             "a double quote, a comma or a line break")
        text.append(cells)
    lines = [",".join(header), *map(",".join, zip(*text, strict=True)),
             *footer]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, doc, indent: int | None = None) -> None:
    """``doc`` as JSON, then a newline, in one write: ``json.dumps``
    encodes in C where ``indent`` is None, ``json.dump`` never does."""
    text = json.dumps(doc, indent=indent) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


@contextlib.contextmanager
def all_or_none(*paths: str, make_dirs: bool = False):
    """Temporary paths for a block to write ``paths`` through, one in
    each target's directory; with ``make_dirs``, the directories that
    do not exist yet are made first.

    When the block returns, each temporary is renamed onto its path;
    when it, or a rename, fails, every temporary left is removed, and
    so is every directory made. So a stage that fails leaves no new
    output file, and a file an earlier run wrote keeps its bytes. An
    error that names a temporary names its target instead. Two paths
    that name one file raise :class:`InputError` before anything is
    written, since one output would replace the other.
    """
    seen = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise InputError(f"two outputs name one file: {seen[real]} "
                             f"and {path}")
        seen[real] = path
    for path in paths:
        if os.path.isdir(path):      # a rename onto it would fail late
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
    missing = []
    for directory in dict.fromkeys(map(os.path.dirname, paths)) \
            if make_dirs else ():
        while directory and not os.path.exists(directory):
            missing.append(directory)
            directory = os.path.dirname(directory)
    temps = [os.path.join(os.path.dirname(path), f".{os.path.basename(path)}"
                          f".{os.getpid()}-{k}.tmp")
             for k, path in enumerate(paths)]
    try:
        for directory in missing:
            os.makedirs(directory, exist_ok=True)
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException as exc:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        for directory in sorted(missing, key=len, reverse=True):
            with contextlib.suppress(OSError):
                os.rmdir(directory)      # children first; never a full one
        # the message names the file asked for, not its temporary
        for temp, path in zip(temps, paths):
            if isinstance(exc, OSError) and exc.filename == temp:
                raise OSError(exc.errno, exc.strerror, path) from None
            if isinstance(exc, InputError) and temp in str(exc):
                raise InputError(str(exc).replace(temp, path)) from None
        raise
