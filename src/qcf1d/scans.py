"""Sweep points behind the CLI, plus table serialization.

Each *_point function maps one domain size and split to rows of plain
numbers, and the CLI runs them in input order; a patch-test point takes
every split of its size at once.  A table is a NamedTuple whose fields
are equal-length columns, numpy arrays or lists: patch-test and
dump-operator keep the arrays their kernels return, and the short scans
turn their rows into lists with columns().  write_table formats each
distinct value of an array column once per chunk of rows.

The coercivity, inf-sup and convergence points import their kernels
from stability and solver in their bodies, so a process that runs only
patch-test or dump-operator never loads those modules.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .chain import max_abs_force_qcf
from .lattice import DomainSpec, lp_norm, uniform_positions
from .operators import strain_stencil
from .potentials import Coefficients

PATCH_TEST_TOL = 1e-13


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


def _patch_point(phi: Callable, F: float, n: int, ks: Sequence[int]) -> PatchTestRow:
    """The patch-test table of one strain and size, a row per split in ks."""
    eps = DomainSpec(n, ks[0]).eps
    y = uniform_positions(F, n, eps)
    slopes = float(phi(F)), float(phi(2.0 * F))
    if not np.all(np.isfinite(slopes)):
        raise ValueError(f"phi'(F) and phi'(2F) must be finite, got {slopes} at F={F}")
    k = np.asarray(ks)
    residual = max_abs_force_qcf(y, k, phi)
    scale = max(1.0, abs(slopes[0]) + abs(slopes[1]))
    tol = PATCH_TEST_TOL * scale / eps
    return PatchTestRow(np.full(k.size, F), np.full(k.size, n), k, residual, np.full(k.size, tol), residual <= tol)


def patch_test_scan(phi: Callable, F_values: Sequence[float], splits: Sequence[tuple]) -> PatchTestRow:
    """Ghost-force residuals of the coupled force at uniform states, as one table of arrays.

    One sweep point per F and (N, splits K at N) in splits, which
    evaluates the forces once for all of its splits; the rows keep the
    order F, then splits.  Neither F_values nor splits may be empty.
    """
    points = [_patch_point(phi, F, n, ks) for F in F_values for n, ks in splits]
    return PatchTestRow._make(map(np.concatenate, zip(*points)))


def columns(row_type, rows: Sequence) -> NamedTuple:
    """Rows of row_type as one table: a row_type whose fields are lists, the columns."""
    return row_type._make([r[i] for r in rows] for i in range(len(row_type._fields)))


def coercivity_point(c: Coefficients, n: int, k: int) -> CoercivityScanRow:
    """The Rayleigh minimum next to the value at the explicit spike candidate."""
    from .stability import quadratic_form, rayleigh_min, unstable_candidate

    spec = DomainSpec(n, k)
    witness = min(quadratic_form(c, spec, unstable_candidate(spec, sign)) for sign in "+-")
    return CoercivityScanRow(n, k, rayleigh_min(c, spec), witness)


def coercivity_slope(rows: Sequence[CoercivityScanRow]) -> Optional[float]:
    """Log-log slope of |rayleigh_min| vs N over the negative-value rows."""
    neg = [r for r in rows if r.rayleigh_min < 0.0]
    if len(neg) < 2:
        return None
    return loglog_slope([r.N for r in neg], [abs(r.rayleigh_min) for r in neg])


def infsup_point(c: Coefficients, ps: Sequence[float], n: int, k: int) -> list[InfSupScanRow]:
    """Certified lower bound, exact 2-norm value, and probe upper bounds."""
    from .stability import infsup_2, infsup_p_upper, rdd_margin

    spec = DomainSpec(n, k)
    rows = [
        InfSupScanRow(n, k, np.inf, "lower_bound", 0.5 * rdd_margin(c, strain_stencil(n, k))),
        InfSupScanRow(n, k, 2.0, "exact", infsup_2(c, spec)),
    ]
    for p in ps:
        rows.append(InfSupScanRow(n, k, float(p), "upper_bound", infsup_p_upper(c, spec, p)))
    return rows


def convergence_point(c: Coefficients, load: Callable, m_factor: int, n: int, k: int) -> tuple:
    """(ErrorReport, half 1-norm of the truncation error, rounding floor)."""
    from .solver import error_report_detailed

    spec = DomainSpec(n, k, M=m_factor * n)
    report, t, floor = error_report_detailed(c, load, spec)
    return report, 0.5 * lp_norm(t, spec.eps, 1), floor


def eig_point(c: Coefficients, n: int, k: int) -> EigScanRow:
    """Eigenvalues of the interior block of Lqcf (atoms -N+1..N-1), from two half-size blocks.

    Row j of Lqcf is ((E Dv)_j - (E Dv)_{j+1}) / eps with E = phiF * I +
    phi2F * B, so its rows j >= 0 are the second differences, across
    rows and columns, of I and B on bonds 0..N: small integers,
    differenced before the scaling.  Lqcf commutes exactly with the
    reflection j -> -j, so the interior block splits into its action on
    even fields (v_{-m} = v_m: columns m and -m summed, rows j >= 0,
    N x N) and on odd ones (v_{-m} = -v_m: their difference, rows
    j >= 1, (N-1) x (N-1)).  Each block is similar, by a diagonal
    scaling, to a diagonal block of Q^T L Q with Q the orthonormal
    even/odd basis, so together they carry the spectrum of the interior
    block for a quarter of the flops and memory of its dense eigensolve.
    """
    row, col, entry = strain_stencil(n, DomainSpec(n, k).K).integer_entries()
    ints = np.zeros((2, n + 1, 2 * n), dtype=np.int8)  # I and B on bonds 0..N (offsets N-1..2N-1)
    ints[0, np.arange(n + 1), np.arange(n - 1, 2 * n)] = 1
    half = row >= n - 1
    ints[1, row[half] - n + 1, col[half]] = entry[half]
    a, b = np.diff(np.diff(ints, axis=1), axis=2)  # rows j = 0..N-1, columns atoms -N+1..N-1
    rows = (c.phiF * a + c.phi2F * b) / (1.0 / n) ** 2
    even = rows[:, n - 1:].copy()  # columns m = 0..N-1
    even[:, 1:] += rows[:, n - 2::-1]  # columns -m = -1..-N+1
    odd = rows[1:, n:] - rows[1:, n - 2::-1]
    del ints, a, b, rows  # freed before the eigensolves
    ev = np.concatenate([np.linalg.eigvals(even), np.linalg.eigvals(odd)])
    return EigScanRow(
        n,
        k,
        float(ev.real.min()),
        float(np.abs(ev.imag).max()),
        int(np.sum(ev.real <= 0.0)),
    )


def _strain_entries(c: Coefficients, n: int, k: int) -> tuple:
    """(row, col, value) of E on bonds -n+1..n, B from strain_stencil(n, k)."""
    row, col, value = strain_stencil(n, k).entries(c)
    return row - n + 1, col - n + 1, value


# dump-operator's (row, col, value) from (c, N, K), indexed by bond; only Eqcf
# reads K, and DomainSpec checks its range before the stencil
OPERATOR_BUILDERS = {
    "Ea": lambda c, n, k: _strain_entries(c, n, n - 1),
    "Eqcf": lambda c, n, k: _strain_entries(c, n, DomainSpec(n, k).K),
}


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
