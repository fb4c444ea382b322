"""Row types, table columns, the log-log slope, and table serialization.

Nothing here computes a quantity of the chain: cli.py builds each claim's
rows.  A table is a NamedTuple whose fields are equal-length columns,
numpy arrays or lists: patch-test and dump-operator keep the arrays
their kernels return, and the short scans turn their rows into lists
with columns().  write_table formats each distinct value of an array
column once per chunk of rows.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x); nan when every x is the same.

    The closed form of the straight-line fit,
    sum((lx - mean(lx)) * ly) / sum((lx - mean(lx))^2).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two points for a slope")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    lx = np.log(xs)
    lx -= lx.mean()
    sxx = float(lx @ lx)
    return float(lx @ np.log(ys)) / sxx if sxx > 0.0 else float("nan")


class PatchTestRow(NamedTuple):
    F: float
    N: int
    K: int
    residual: float
    tolerance: float
    passed: bool


class CoercivityScanRow(NamedTuple):
    N: int
    K: int
    rayleigh_min: float
    witness_value: float


class InfSupScanRow(NamedTuple):
    N: int
    K: int
    p: float
    kind: str
    value: float


class EigScanRow(NamedTuple):
    N: int
    K: int
    min_real: float
    max_imag_abs: float
    n_nonpositive: int


def columns(row_type, rows: Sequence) -> NamedTuple:
    """Rows of row_type as one table: a row_type whose fields are lists, the columns."""
    return row_type._make([r[i] for r in rows] for i in range(len(row_type._fields)))


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    return str(v)


# rows per chunk of CSV text: the writer holds one chunk's text at a time
CHUNK_ROWS = 4096


def _cells(column, end: str) -> Sequence[str]:
    """The text of each cell of a column, each followed by end.

    An array's cells are the values tolist() gives, and each distinct bit
    pattern is formatted once, so -0.0 and 0.0 keep their own text; a
    list is formatted cell by cell.
    """
    if isinstance(column, np.ndarray):
        bits, where = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
        return np.array([_format_value(v) + end for v in bits.view(column.dtype).tolist()], dtype=object)[where]
    return [_format_value(v) + end for v in column]


def _strict_json(v):
    """v with each non-finite float as the text of its CSV cell: JSON has no inf or nan."""
    if isinstance(v, (dict, list, tuple)):
        return {k: _strict_json(x) for k, x in v.items()} if isinstance(v, dict) else [_strict_json(x) for x in v]
    return _format_value(v) if isinstance(v, float) and not np.isfinite(v) else v


def write_table(
    path: str,
    fmt: str,
    command: str,
    config: dict,
    table: NamedTuple,
    extras: Optional[dict] = None,
) -> None:
    """Write a table (a NamedTuple of equal-length columns) as CSV, with a config echo in # comments, or JSON.

    The CSV header names the table's fields, with or without rows.  CSV
    is written CHUNK_ROWS rows at a time, so no table text is held at
    once: each column of a chunk becomes its cells' texts (see _cells),
    and each line joins one text of every column.
    JSON is strict (RFC 8259): a non-finite float is its CSV text, "inf", "-inf" or "nan".
    """
    extras = extras or {}
    if fmt == "csv":
        ends = [""] * (len(table) - 1) + ["\n"]
        with open(path, "w") as fh:
            fh.write(f"# qcf1d {command}\n")
            for echo in (config, extras):
                for k in sorted(echo):
                    fh.write(f"# {k}={_format_value(echo[k])}\n")
            fh.write(",".join(table._fields) + "\n")
            for start in range(0, len(table[0]), CHUNK_ROWS):
                texts = [_cells(c[start:start + CHUNK_ROWS], end) for c, end in zip(table, ends)]
                fh.writelines(map(",".join, zip(*texts)))
    elif fmt == "json":
        import json

        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in table]
        doc = {
            "command": command,
            "config": config,
            "extras": extras,
            "rows": [dict(zip(table._fields, r)) for r in zip(*cells)],
        }
        with open(path, "w") as fh:
            json.dump(_strict_json(doc), fh, indent=2, default=float, allow_nan=False)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format '{fmt}'")
