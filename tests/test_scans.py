import gc
import json
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcf1d import operators, stability
from qcf1d.cli import RunConfig, cmd_dump_operator
from qcf1d.lattice import LOADS, DomainSpec
from qcf1d.potentials import Coefficients, lennard_jones
from qcf1d.scans import (
    CoercivityScanRow,
    PatchTestRow,
    _format_value,
    _row_format,
    coercivity_point,
    convergence_point,
    eig_point,
    infsup_point,
    loglog_slope,
    patch_test_scan,
    write_table,
)
from qcf1d.solver import ErrorReport

from oracles import DIFFERENTIAL_PHI2F, lqcf_dense

EIG_GRID = [
    (n, k)
    for n in (4, 8, 17, 64)
    for k in sorted({2, n // 4, n // 2})
    if 2 <= k <= n // 2
]


@pytest.mark.parametrize("n,k", EIG_GRID)
@pytest.mark.parametrize("phi2F", sorted({-0.49, -0.2, -0.05, 0.3, 0.7, *DIFFERENTIAL_PHI2F}))
def test_eig_point_matches_full_interior_block(phi2F, n, k):
    # the two reflection blocks against one dense eigensolve of the
    # interior block of the loop-assembled oracle
    c = Coefficients(1.0, phi2F)
    interior = lqcf_dense(c, DomainSpec(n, k))[:, 1:-1]
    flip = np.eye(2 * n - 1)[::-1]
    assert np.array_equal(interior @ flip, flip @ interior)  # the symmetry the blocks rest on
    ev = np.linalg.eigvals(interior)
    row = eig_point(c, n, k)
    assert (row.N, row.K) == (n, k)
    assert row.n_nonpositive == np.sum(ev.real <= 0.0)
    assert_allclose(row.min_real, ev.real.min(), rtol=1e-10)
    scale = np.abs(ev).max()  # rounding of an eigensolve is relative to the spectral radius
    assert abs(row.max_imag_abs - np.abs(ev.imag).max()) <= 1e-10 * scale


@pytest.mark.parametrize("phi2F", [-0.2, 0.3])
def test_coercivity_point_evaluates_each_candidate_once(phi2F, monkeypatch):
    # the two spike candidates give the witness; rayleigh_min factors
    # sym(E) - sigma once, at the shift below the Weyl floor
    c = Coefficients(1.0, phi2F)
    form = stability.quadratic_form
    calls, solves = [], []

    def counted(*args):
        calls.append(args[1])
        return form(*args)

    class CountedSolve(operators.BorderedSolve):
        def __init__(self, *args, **kwargs):
            solves.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(stability, "quadratic_form", counted)
    monkeypatch.setattr(stability, "BorderedSolve", CountedSolve)
    for n, k in ((64, 16), (257, 64), (1024, 256)):
        spec = DomainSpec(n, k)
        calls.clear()
        solves.clear()
        row = coercivity_point(c, n, k)
        assert calls == [spec, spec]
        assert len(solves) == 1
        assert row.rayleigh_min == stability.rayleigh_min(c, spec)


@pytest.mark.parametrize("phi2F", [-0.2, 0.0, 0.3])
def test_coercivity_point_splits_sym_e_once(phi2F, monkeypatch):
    # rayleigh_min's Weyl floor, factor, residual and norm read one split
    split = operators.StrainStencil.split
    forms = []

    def counted(self, c, form="E"):
        forms.append(form)
        return split(self, c, form)

    monkeypatch.setattr(operators.StrainStencil, "split", counted)
    coercivity_point(Coefficients(1.0, phi2F), 64, 16)
    assert sorted(forms) == ["E", "E", "sym"]  # one E per spike candidate


def test_loglog_slope_matches_least_squares_fit():
    # ladders as the sweeps take them: a power law with noise
    rng = np.random.default_rng(5)
    for size, power in ((2, 0.5), (3, -2.0), (7, 1.0), (40, -0.25)):
        xs = 16.0 * 2.0 ** np.arange(size)
        ys = xs**power * rng.uniform(0.5, 2.0, size)
        fit = np.polyfit(np.log(xs), np.log(ys), 1)[0]
        assert_allclose(loglog_slope(xs, ys), fit, rtol=1e-12, atol=1e-12)
    assert loglog_slope([2.0, 4.0, 8.0], [3.0, 12.0, 48.0]) == pytest.approx(2.0, rel=1e-14)
    assert np.isnan(loglog_slope([16, 16], [1.0, 2.0]))  # no spread in x: no slope
    with pytest.raises(ValueError, match="two points"):
        loglog_slope([1.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        loglog_slope([1.0, 2.0], [1.0, 0.0])


def test_csv_table_bytes(tmp_path):
    rows = [PatchTestRow(0.9, 16, 2, 1.5e-14, 2e-13, True), PatchTestRow(1.1, 16, 8, 0.25, 2e-13, False)]
    out = tmp_path / "t.csv"
    write_table(out, "csv", "patch-test", {"N_list": [16], "F_list": [0.9, 1.1]}, rows, {"all_passed": False})
    assert out.read_text() == (
        "# qcf1d patch-test\n"
        "# F_list=[0.9, 1.1]\n"
        "# N_list=[16]\n"
        "# all_passed=0\n"
        "F,N,K,residual,tolerance,passed\n"
        "0.9,16,2,1.5e-14,2e-13,1\n"
        "1.1,16,8,0.25,2e-13,0\n"
    )
    write_table(out, "csv", "eig-scan", {}, [])
    assert out.read_text() == "# qcf1d eig-scan\n\n"


def csv_per_cell(command, config, rows, extras):
    """A table's CSV text formatted cell by cell, row after row, by field name."""
    names = rows[0]._fields if rows else ()
    lines = [f"# qcf1d {command}"]
    for echo in (config, extras):
        lines += [f"# {k}={_format_value(echo[k])}" for k in sorted(echo)]
    lines.append(",".join(names))
    lines += [",".join(_format_value(getattr(r, n)) for n in names) for r in rows]
    return "\n".join(lines) + "\n"


def json_per_row(command, config, rows, extras):
    """A table's JSON text with each row's fields read by name, a non-finite float as its CSV text."""
    def strict(v):
        return _format_value(v) if isinstance(v, float) and not np.isfinite(v) else v

    rows = [{n: strict(getattr(r, n)) for n in r._fields} for r in rows]
    doc = {"command": command, "config": config, "extras": extras, "rows": rows}
    return json.dumps(doc, indent=2, default=float, allow_nan=False) + "\n"


def every_row_type():
    c = Coefficients(1.0, -0.2)
    return {
        "patch-test": patch_test_scan(lennard_jones(), [0.9, 1.0], [(8, 2), (8, 3), (8, 4), (16, 2)]),
        "coercivity": [coercivity_point(c, n, k) for n, k in [(16, 4), (32, 8)]],
        "infsup": [row for n, k in [(16, 4), (32, 8)] for row in infsup_point(c, [1.0, 2.0, 4.0], n, k)],
        "convergence": [convergence_point(Coefficients(1.0, -0.05), LOADS["cospi"], 4, n, k)[0]
                        for n, k in [(16, 4), (32, 8)]],
        "dump-operator": cmd_dump_operator(RunConfig("dump-operator", operator="Eqcf", N=8, K=2, phiF=1.0,
                                                     phi2F=-0.2))[1],
        "eig-scan": [eig_point(c, n, k) for n, k in [(8, 2), (16, 4)]],
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_row_type_writes_as_cell_by_cell(tmp_path, fmt):
    reference = csv_per_cell if fmt == "csv" else json_per_row
    out = tmp_path / "t"
    config, extras = {"N_list": [16, 32], "phiF": 1.0}, {"all_passed": True, "slope": -0.5}
    for command, rows in every_row_type().items():
        write_table(out, fmt, command, config, rows, extras)
        assert out.read_text() == reference(command, config, rows, extras), command


def test_float_columns_keep_every_bit_pattern_apart(tmp_path):
    # -0.0 == 0.0 and True == 1 compare and hash alike, yet each keeps its own text
    values = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -0.0, 0.0, 5e-324, 1.0]
    rows = [PatchTestRow(v, 16, 2 + i, -v, 2e-13, i % 2 == 1) for i, v in enumerate(values)]
    out = tmp_path / "t.csv"
    write_table(out, "csv", "patch-test", {}, rows)
    text = out.read_text()
    assert text == csv_per_cell("patch-test", {}, rows, {})
    assert [line.split(",")[0] for line in text.splitlines()[2:]] == [
        "0.0", "-0.0", "nan", "inf", "-inf", "5e-324", "-0.0", "0.0", "5e-324", "1.0",
    ]
    assert [line.split(",")[5] for line in text.splitlines()[2:]] == ["0", "1"] * 5


class Cells(NamedTuple):
    x: float
    n: int
    flag: bool
    name: str


def test_single_typed_columns_write_as_cell_by_cell(tmp_path):
    # one exact type per column: the whole table goes through one format string
    floats = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 0.1 + 0.2, 0.0]
    rows = [Cells(x, 2**64 - 3 * i, i % 3 == 0, f"r{i}") for i, x in enumerate(floats)]
    assert _row_format(rows) == "%r,%d,%d,%s\n"
    out = tmp_path / "t.csv"
    write_table(out, "csv", "patch-test", {}, rows)
    text = out.read_text()
    assert text == csv_per_cell("patch-test", {}, rows, {})
    assert [line.split(",")[0] for line in text.splitlines()[2:]] == [
        "-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "0.30000000000000004", "0.0",
    ]
    assert text.splitlines()[2] == f"-0.0,{2**64},1,r0"


def test_int_columns_above_int64_and_mixed_columns(tmp_path):
    big = 2**63 + 5
    rows = [
        CoercivityScanRow(big, 2, 1.0, 1),  # int above 2^63; an int among the floats
        CoercivityScanRow(-big, True, 1.0, 2.5),  # a bool among the ints
        CoercivityScanRow(big, 2, np.float64(0.5), (1, 2)),  # numpy and non-scalar values
        CoercivityScanRow(2**64, 1, float("nan"), None),
    ]
    out = tmp_path / "t.csv"
    write_table(out, "csv", "coercivity", {}, rows)
    text = out.read_text()
    assert text == csv_per_cell("coercivity", {}, rows, {})
    assert [line.split(",")[:2] for line in text.splitlines()[2:]] == [
        [str(big), "2"], [str(-big), "1"], [str(big), "2"], [str(2**64), "1"],
    ]


def test_convergence_json_bytes(tmp_path):
    rows = [ErrorReport(16, 4, 64, 0.0625, 1.5e-05, 2.5e-05, -0.0, 3e-05),
            ErrorReport(32, 8, 128, 0.03125, 3.75e-06, 6.25e-06, 1e-300, 7.5e-06)]
    out = tmp_path / "c.json"
    write_table(out, "json", "convergence", {"N_list": [16, 32], "load": "cospi"}, rows,
                {"all_inequalities_hold": True, "slope_err_vs_eps": 2.0})
    row_text = [
        '{\n      "N": %d,\n      "K": %d,\n      "M": %d,\n      "eps": %s,\n'
        '      "err_strain_inf": %s,\n      "bound_rhs": %s,\n      "trunc_star": %s,\n'
        '      "trunc_bound": %s\n    }' % tuple(r) for r in rows
    ]
    assert out.read_text() == (
        '{\n  "command": "convergence",\n  "config": {\n    "N_list": [\n      16,\n      32\n'
        '    ],\n    "load": "cospi"\n  },\n  "extras": {\n    "all_inequalities_hold": true,\n'
        '    "slope_err_vs_eps": 2.0\n  },\n  "rows": [\n    ' + ",\n    ".join(row_text) + "\n  ]\n}\n"
    )


def test_writing_a_large_table_barely_runs_the_garbage_collector(tmp_path):
    # a writer that keeps one tracked object per row alive, e.g. columns
    # gathered by zip(*rows), runs 14 collections for this table, and a
    # full one once scipy is loaded
    rows = [PatchTestRow(0.9 + 0.05 * (i % 5), 16 + i, 2 + i % 7, 0.0, 1e-13 * (i % 20), True)
            for i in range(10**4)]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        write_table(tmp_path / "t.csv", "csv", "patch-test", {}, rows)
    finally:
        gc.callbacks.remove(count)
    assert len(starts) <= 1, starts
    assert (tmp_path / "t.csv").read_text() == csv_per_cell("patch-test", {}, rows, {})


def test_writing_holds_no_table_text(tmp_path):
    # 10^5 rows, about 4 MB of text: formatting all of them at once holds
    # about 30 MB, and raises the CLI's peak RSS at N=131072 from 69 to 110 MB
    rows = [PatchTestRow(0.9, 2**20, i, 1e-13 * i, 1e-12, True) for i in range(10**5)]
    tracemalloc.start()
    try:
        write_table(tmp_path / "t.csv", "csv", "patch-test", {}, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak
