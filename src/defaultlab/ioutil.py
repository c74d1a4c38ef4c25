"""Deterministic report writers: canonical JSON and RFC-4180 CSV.

Determinism contract: the same in-memory report serializes to identical
bytes on every run (sorted keys, shortest round-trip float repr, fixed
line endings).  Nothing here writes timestamps, hostnames, or versions.

A CSV table is either a sequence of row tuples, written through
`csv.writer`, or a `BlockTable` of numeric columns, formatted here one
block of rows at a time and written as it is formatted, so a large table
never exists as a list of rows.  Both forms spell a cell the same way:
ints in decimal, floats by their shortest round-trip ``repr`` (``nan``,
``inf`` and ``-inf`` included), CRLF after every row.  Those spellings
hold no comma, quote or line break, so `csv.writer` never quotes them,
and the block form, which never quotes, writes the same bytes.
"""

from __future__ import annotations

import csv
import json
import operator
import os

import numpy as np

from .errors import ConfigurationError


def jsonable(value):
    """Recursively convert report values to plain JSON-safe types.

    numpy scalars and arrays become python scalars and lists; non-finite
    floats become the strings "inf", "-inf", "nan" (json has no spelling
    for them and silent null would hide a defect).
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if value is None or isinstance(value, str):
        return value
    raise ConfigurationError(f"cannot serialize {type(value).__name__} into a report")


def canonical_json(data) -> str:
    return json.dumps(jsonable(data), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, data) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_json(data))


def _cell(value):
    if type(value) is float:
        return repr(value)
    if type(value) is int:
        return value
    if isinstance(value, (np.bool_, bool)):
        return int(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return repr(float(value))
    if isinstance(value, float):
        return repr(value)
    return value


def _numbers(column) -> list:
    col = np.asarray(column)
    if col.ndim != 1 or col.dtype.kind not in "iuf":
        raise ConfigurationError(
            f"a block column must be a 1-D int or float array, not {col.ndim}-D {col.dtype}"
        )
    return col.tolist()


def _block_text(lead, columns) -> str:
    """CSV text of the rows ``lead + row``, one row per entry of ``columns``."""
    head = "".join(f"{operator.index(v)}," for v in lead)
    cols = [_numbers(c) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ConfigurationError("the columns of a block differ in length")
    if n == 0:
        return ""
    # cell, separator, cell, ...: a row ends in CRLF plus the next row's lead
    width = 2 * len(cols)
    tokens = [","] * (width * n)
    for j, col in enumerate(cols):
        tokens[2 * j :: width] = map(repr, col)
    tokens[width - 1 :: width] = ["\r\n" + head] * n
    tokens[-1] = "\r\n"
    return head + "".join(tokens)


class BlockTable:
    """A numeric table that `write_csv` formats and writes block by block.

    ``blocks`` is a callable taking no argument that returns an iterable of
    ``(lead, columns)``: ``lead`` is a tuple of integers that starts every
    row of the block, ``columns`` are equal-length 1-D int or float arrays
    that fill the rest of the row.  ``len()`` is the number of rows;
    iterating yields each block's CSV text.
    """

    def __init__(self, blocks):
        self._blocks = blocks

    def __len__(self) -> int:
        return sum(len(columns[0]) for _, columns in self._blocks())

    def __iter__(self):
        for lead, columns in self._blocks():
            yield _block_text(lead, columns)


def write_csv(path, header, rows) -> None:
    """RFC-4180 CSV (CRLF line endings, quoting only where needed).

    ``rows`` is a sequence of row tuples or a `BlockTable`.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        if isinstance(rows, BlockTable):
            fh.writelines(rows)
            return
        for row in rows:
            writer.writerow([_cell(v) for v in row])
