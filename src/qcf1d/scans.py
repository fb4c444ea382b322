"""Sweep points behind the CLI, plus table serialization.

Each *_point function maps one domain size and split to rows of plain
numbers, and the CLI runs them in input order; patch_test_scan groups
its points by N.  Rows are NamedTuples, so a row costs one tuple and
serializes by position to CSV and by name to JSON.

The coercivity, inf-sup and convergence points import their kernels
from stability and solver in their bodies, so a process that runs only
patch-test or dump-operator never loads those modules.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .chain import max_abs_force_qcf
from .lattice import DomainSpec, lp_norm, uniform_positions
from .operators import strain_stencil
from .potentials import Coefficients, PairPotential

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


def _patch_point(phi: PairPotential, F: float, n: int, ks: Sequence[int]) -> list[PatchTestRow]:
    eps = DomainSpec(n, ks[0]).eps
    y = uniform_positions(F, n, eps)
    slopes = float(phi.deriv1(F)), float(phi.deriv1(2.0 * F))
    if not np.all(np.isfinite(slopes)):
        raise ValueError(f"phi'(F) and phi'(2F) must be finite, got {slopes} at F={F}")
    residuals = max_abs_force_qcf(y, ks, phi).tolist()
    scale = max(1.0, abs(slopes[0]) + abs(slopes[1]))
    tol = PATCH_TEST_TOL * scale / eps
    return [PatchTestRow(F, n, k, r, tol, r <= tol) for k, r in zip(ks, residuals)]


def patch_test_scan(
    phi: PairPotential,
    F_values: Sequence[float],
    nk_pairs: Sequence[tuple],
) -> list[PatchTestRow]:
    """Ghost-force residuals of the coupled force at uniform states.

    One sweep point per F and run of consecutive pairs with the same N,
    which evaluates the forces once for all of its splits K; the rows
    keep the order F, then nk_pairs.
    """
    runs = []  # (N, [K, ...])
    for n, k in nk_pairs:
        if runs and runs[-1][0] == n:
            runs[-1][1].append(k)
        else:
            runs.append((n, [k]))
    return [row for F in F_values for n, ks in runs for row in _patch_point(phi, F, n, ks)]


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

    Lqcf commutes exactly with the reflection j -> -j, so the interior
    block splits into its action on even fields (v_{-m} = v_m: columns m
    and -m summed, rows j >= 0, N x N) and on odd ones (v_{-m} = -v_m:
    their difference, rows j >= 1, (N-1) x (N-1)).  Each block is
    similar, by a diagonal scaling, to a diagonal block of Q^T L Q with Q
    the orthonormal even/odd basis, so together they carry the spectrum
    of the interior block for a quarter of the flops and memory of its
    dense eigensolve.
    """
    row, col, value = strain_stencil(n, DomainSpec(n, k).K).conjugate_entries(1.0 / n, c.phiF, c.phi2F)
    m = np.abs(col)
    even = (row >= 0) & (m < n)
    odd = (row >= 1) & (m >= 1) & (m < n)
    blocks = (
        np.bincount(row[even] * n + m[even], value[even], minlength=n * n).reshape(n, n),
        np.bincount((row[odd] - 1) * (n - 1) + m[odd] - 1, np.sign(col[odd]) * value[odd],
                    minlength=(n - 1) ** 2).reshape(n - 1, n - 1),
    )
    ev = np.concatenate([np.linalg.eigvals(b) for b in blocks])
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


# dump-operator's (row, col, value) from (c, N, K), indexed by atom or bond; only
# the coupled operators read K, and DomainSpec checks its range before the stencil
OPERATOR_BUILDERS = {
    "La": lambda c, n, k: strain_stencil(n, n - 1).conjugate_entries(1.0 / n, c.phiF, c.phi2F),
    "Llqc": lambda c, n, k: strain_stencil(n, n - 1).conjugate_entries(1.0 / n, c.phiF + 4.0 * c.phi2F),
    "Lqcf": lambda c, n, k: strain_stencil(n, DomainSpec(n, k).K).conjugate_entries(1.0 / n, c.phiF, c.phi2F),
    "Ea": lambda c, n, k: _strain_entries(c, n, n - 1),
    "Eqcf": lambda c, n, k: _strain_entries(c, n, DomainSpec(n, k).K),
}


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    return str(v)


# the %-conversion of each exact cell type whose text equals _format_value's
CONVERSIONS = {float: "%r", int: "%d", bool: "%d", str: "%s"}


def _row_format(rows: Sequence) -> Optional[str]:
    """One %-format line for every row, or None unless each column's cells share one type in CONVERSIONS.

    Types are compared exactly: a bool in an int column, an int in a
    float column or a numpy scalar anywhere leaves the table to
    _format_value, cell by cell.
    """
    types = [type(v) for v in rows[0]]
    if not all(t in CONVERSIONS for t in types):
        return None
    for i, t in enumerate(types):
        if set(map(type, map(itemgetter(i), rows))) != {t}:
            return None
    return ",".join(CONVERSIONS[t] for t in types) + "\n"


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
    rows: Sequence,
    extras: Optional[dict] = None,
    fields: Sequence[str] = (),
) -> None:
    """Write scan rows (NamedTuples of one type) as CSV, with a config echo in # comments, or JSON.

    The CSV header names the rows' fields, or fields when there are no
    rows.  CSV is written a row at a time, so no table text is held at
    once, each row through one format string when _row_format finds one.
    JSON is strict (RFC 8259): a non-finite float is its CSV text, "inf", "-inf" or "nan".
    """
    extras = extras or {}
    names = rows[0]._fields if rows else fields
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(f"# qcf1d {command}\n")
            for echo in (config, extras):
                for k in sorted(echo):
                    fh.write(f"# {k}={_format_value(echo[k])}\n")
            fh.write(",".join(names) + "\n")
            line = _row_format(rows) if rows else None
            if line:
                for r in rows:
                    fh.write(line % r)
            else:
                for r in rows:
                    fh.write(",".join(map(_format_value, r)) + "\n")
    elif fmt == "json":
        import json

        doc = {
            "command": command,
            "config": config,
            "extras": extras,
            "rows": [r._asdict() for r in rows],
        }
        with open(path, "w") as fh:
            json.dump(_strict_json(doc), fh, indent=2, default=float, allow_nan=False)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format '{fmt}'")
