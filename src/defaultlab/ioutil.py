"""Deterministic report writers: canonical JSON and RFC-4180 CSV.

Determinism contract: the same in-memory report serializes to identical
bytes on every run (sorted keys, shortest round-trip float repr, fixed
line endings).  Nothing here writes timestamps, hostnames, or versions.
"""

from __future__ import annotations

import csv
import json
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


def write_csv(path, header, rows) -> None:
    """RFC-4180 CSV (CRLF line endings, quoting only where needed)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
