"""Output checks: a CLI table against its reference, number by number.

Byte equality is wrong here: the seed's own output already differs from
the committed tables by about 1e-16 relative in eigenvalues and about
1e-10 in convergence errors.  So rows are matched by their key columns
(compared exactly), every other reference column is compared as a number
within a relative tolerance, and the `# key=value` extras a command
writes (slopes, verdict flags) are compared the same way.  Columns the
output adds beyond the reference are ignored.

Every reference row is one sweep point.  A point fails when its row is
missing or differs beyond tolerance.  An exit status other than 0, an
unreadable table, a missing column, an extra or duplicated row, or a
wrong extra fails every point of the invocation.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass
from pathlib import Path

# Relative tolerance per command.  Convergence errors at N=512 carry the
# rounding floor of the displacement-form solve: a banded solve differs
# from the refined dense one by about 5e-6 relative there.
DEFAULT_RTOL = 1e-6
RTOL = {"convergence": 1e-4}

# Absolute tolerances for columns that hold rounding-level values: a
# number, or the name of a reference column that holds the bound.
ATOL = {
    ("patch-test", "residual"): "tolerance",  # the patch-test tolerance itself
    ("patch-test", "max_residual"): 1e-9,
    ("eig-scan", "max_imag_abs"): 1e-9,
}

# `# key=value` lines that echo the configuration rather than report a
# result; they are not compared.
CONFIG_KEYS = frozenset(
    "command phiF phi2F potential F F_list N N_list K K_ratio K_all M_factor "
    "p_list load operator jobs out format seed".split()
)


@dataclass
class Table:
    extras: dict
    columns: list
    rows: list


@dataclass
class CheckResult:
    attempted: int
    failed: int
    rows: int  # data rows the output holds
    problems: list


def read_table(path: Path) -> Table:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        lines = fh.read().splitlines()
    extras = {}
    body = []
    for line in lines:
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep and key not in CONFIG_KEYS:
                extras[key] = value
        elif line:
            body.append(line.split(","))
    if not body:
        return Table(extras, [], [])
    return Table(extras, body[0], body[1:])


def _close(out: str, ref: str, rtol: float, atol: float) -> bool:
    try:
        o, r = float(out), float(ref)
    except ValueError:
        return out == ref
    if math.isnan(r) or math.isinf(r):
        return out == ref or (math.isnan(r) and math.isnan(o))
    return abs(o - r) <= atol + rtol * abs(r)


def _atol(command: str, col: str, columns: list, row: list) -> float:
    a = ATOL.get((command, col), 0.0)
    return float(row[columns.index(a)]) if isinstance(a, str) else a


def check_table(command: str, keys: tuple, out_path: Path, ref: Table, returncode: int) -> CheckResult:
    attempted = len(ref.rows)

    def fail_all(reason: str, rows: int = 0) -> CheckResult:
        return CheckResult(attempted, attempted, rows, [reason])

    if returncode != 0:
        return fail_all(f"exit status {returncode}")
    try:
        out = read_table(out_path)
    except (OSError, UnicodeDecodeError) as exc:
        return fail_all(f"cannot read output: {exc}")
    n_rows = len(out.rows)
    missing = [c for c in ref.columns if c not in out.columns]
    if missing:
        return fail_all(f"missing columns {missing}", n_rows)
    if any(len(r) != len(out.columns) for r in out.rows):
        return fail_all("ragged rows", n_rows)
    rtol = RTOL.get(command, DEFAULT_RTOL)

    for key, value in ref.extras.items():
        if key not in out.extras:
            return fail_all(f"missing extra {key}", n_rows)
        atol = ATOL.get((command, key), 0.0)
        if not _close(out.extras[key], value, rtol, atol):
            return fail_all(f"extra {key}={out.extras[key]}, reference {value}", n_rows)

    out_pos = [out.columns.index(c) for c in ref.columns]
    key_idx = [ref.columns.index(k) for k in keys]
    by_key = {}
    for row in out.rows:
        aligned = [row[i] for i in out_pos]
        by_key.setdefault(tuple(aligned[i] for i in key_idx), []).append(aligned)
    ref_keys = {tuple(r[i] for i in key_idx) for r in ref.rows}
    if any(len(v) > 1 for v in by_key.values()):
        return fail_all("duplicated row keys", n_rows)
    extra = set(by_key) - ref_keys
    if extra:
        return fail_all(f"{len(extra)} rows not in the reference, e.g. {sorted(extra)[0]}", n_rows)

    failed = 0
    problems = []
    for r in ref.rows:
        key = tuple(r[i] for i in key_idx)
        got = by_key.get(key)
        bad = None if got else "missing row"
        for j, col in enumerate(ref.columns):
            if bad or j in key_idx:
                continue
            if not _close(got[0][j], r[j], rtol, _atol(command, col, ref.columns, r)):
                bad = f"{col}={got[0][j]}, reference {r[j]}"
        if bad:
            failed += 1
            if len(problems) < 5:
                problems.append(f"row {dict(zip(keys, key))}: {bad}")
    return CheckResult(attempted, failed, n_rows, problems)
