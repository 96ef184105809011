"""CSV tables, the one format every pipeline stage reads and writes.

:func:`read` holds the structural rules shared by every table: a
missing file raises :class:`MissingFile`; the header must match; blank
rows are skipped; every other row carries as many fields as the
header. A broken rule raises :class:`MalformedRow` with the line
number. What the cells mean (dates, split tokens, price order, ...)
stays with the module that owns the table.

:func:`write` formats column by column: an ndarray column goes through
``tolist()`` and every cell through ``str``, which for a float is its
shortest round-trip ``repr``. So :func:`floats` reads back every
written float bit for bit. It refuses a text cell that holds a comma
or a line break rather than quote it, so every written row has the
header's field count.
"""

from __future__ import annotations

import csv
import os
from typing import Sequence

import numpy as np

from .errors import InputError, MalformedRow, MissingFile

Row = tuple[int, list[str]]


def read(path: str, header: Sequence[str], *, open_ended: bool = False,
         comment: str | None = None) -> tuple[list[str], list[Row]]:
    """The file's header and its ``(line_no, cells)`` data rows.

    Header cells and data cells come back stripped. ``open_ended``
    accepts further header columns after ``header``; every row must
    then match the file's own header. Rows whose first cell starts
    with ``comment`` are skipped.
    """
    if not os.path.exists(path):
        raise MissingFile(f"no such file: {path}")
    header = list(header)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            found = [h.strip() for h in next(reader, [])]
            if (found[:len(header)] if open_ended else found) != header:
                expected = "to start with " if open_ended else ""
                raise MalformedRow(
                    path, 1,
                    f"bad header {found!r}, expected {expected}{header!r}")
            width = len(found)
            rows: list[Row] = []
            for line_no, row in enumerate(reader, start=2):
                cells = [c.strip() for c in row]
                if not any(cells) or (comment
                                      and cells[0].startswith(comment)):
                    continue
                if len(cells) != width:
                    raise MalformedRow(path, line_no, f"expected {width} "
                                       f"fields, got {len(cells)}")
                rows.append((line_no, cells))
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    return found, rows


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


def floats(path: str, rows: Sequence[Row], j: int) -> np.ndarray:
    """Cell ``j`` of every row as a float array; ``nan`` and ``inf``
    parse, anything else that is not a number raises MalformedRow."""
    out: list[float] = []
    for line_no, cells in rows:
        try:
            out.append(float(cells[j]))
        except ValueError:
            raise MalformedRow(path, line_no,
                               f"bad number {cells[j]!r}") from None
    return np.array(out, dtype=float)


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
