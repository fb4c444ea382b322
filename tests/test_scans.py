import gc
import json
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcf1d import operators, stability
from qcf1d.cli import COMMANDS, RunConfig, cmd_coercivity
from qcf1d.lattice import DomainSpec
from qcf1d.potentials import Coefficients
from qcf1d.scans import (
    CHUNK_ROWS,
    CoercivityScanRow,
    EigScanRow,
    PatchTestRow,
    _format_value,
    columns,
    loglog_slope,
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
    assert operators.strain_stencil(n, k).conjugate_eigenvalues(c).size == ev.size
    cfg = RunConfig("eig-scan", phiF=1.0, phi2F=phi2F, N_list=[n], K=k)
    row = EigScanRow(*(column[0] for column in COMMANDS["eig-scan"](cfg)[0]))
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
        table, _, _ = cmd_coercivity(RunConfig("coercivity", phiF=c.phiF, phi2F=c.phi2F, N_list=[n], K=k))
        assert calls == [spec, spec]
        assert len(solves) == 1
        assert table.rayleigh_min == [stability.rayleigh_min(c, spec)]


@pytest.mark.parametrize("phi2F", [-0.2, 0.0, 0.3])
def test_coercivity_point_splits_sym_e_once(phi2F, monkeypatch):
    # rayleigh_min's Weyl floor, factor, residual and norm read one split
    split = operators.StrainStencil.split
    forms = []

    def counted(self, c, form="E"):
        forms.append(form)
        return split(self, c, form)

    monkeypatch.setattr(operators.StrainStencil, "split", counted)
    cmd_coercivity(RunConfig("coercivity", phiF=1.0, phi2F=phi2F, N_list=[64], K=16))
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
    write_table(out, "csv", "patch-test", {"N_list": [16], "F_list": [0.9, 1.1]}, columns(PatchTestRow, rows),
                {"all_passed": False})
    assert out.read_text() == (
        "# qcf1d patch-test\n"
        "# F_list=[0.9, 1.1]\n"
        "# N_list=[16]\n"
        "# all_passed=0\n"
        "F,N,K,residual,tolerance,passed\n"
        "0.9,16,2,1.5e-14,2e-13,1\n"
        "1.1,16,8,0.25,2e-13,0\n"
    )
    # a table with no rows still names its columns
    write_table(out, "csv", "eig-scan", {}, columns(EigScanRow, []))
    assert out.read_text() == "# qcf1d eig-scan\nN,K,min_real,max_imag_abs,n_nonpositive\n"


def table_rows(table):
    """A table's rows, each a dict of its cells by field name; an array's cells are its tolist() values."""
    cells = {n: c.tolist() if isinstance(c, np.ndarray) else list(c) for n, c in zip(table._fields, table)}
    return [{n: cells[n][i] for n in table._fields} for i in range(len(table[0]))]


def csv_per_cell(command, config, table, extras):
    """A table's CSV text formatted cell by cell, row after row, by field name."""
    lines = [f"# qcf1d {command}"]
    for echo in (config, extras):
        lines += [f"# {k}={_format_value(echo[k])}" for k in sorted(echo)]
    lines.append(",".join(table._fields))
    lines += [",".join(_format_value(row[n]) for n in table._fields) for row in table_rows(table)]
    return "\n".join(lines) + "\n"


def json_text(command, config, rows, extras):
    """The JSON text of rows, dicts of cells by field name, with a non-finite float as its CSV text."""
    def strict(v):
        return _format_value(v) if isinstance(v, float) and not np.isfinite(v) else v

    rows = [{n: strict(v) for n, v in row.items()} for row in rows]
    doc = {"command": command, "config": config, "extras": extras, "rows": rows}
    return json.dumps(doc, indent=2, default=float, allow_nan=False) + "\n"


def json_per_row(command, config, table, extras):
    """A table's JSON text with each row's fields read by name."""
    return json_text(command, config, table_rows(table), extras)


def every_table():
    def table(command, **values):
        return COMMANDS[command](RunConfig(command, **values))[0]

    # the short scans at N=16, 32 with the default K_ratio=0.25: K=4, 8
    return {
        "patch-test": table("patch-test", F_list=[0.9, 1.0], N_list=[8, 16], K_all=True),
        "coercivity": table("coercivity", phiF=1.0, phi2F=-0.2, N_list=[16, 32]),
        "infsup": table("infsup", phiF=1.0, phi2F=-0.2, N_list=[16, 32], p_list=[1.0, 2.0, 4.0]),
        "convergence": table("convergence", phiF=1.0, phi2F=-0.05, N_list=[16, 32], M_factor=4, load="cospi"),
        "dump-operator": table("dump-operator", operator="Eqcf", N=8, K=2, phiF=1.0, phi2F=-0.2),
        "eig-scan": table("eig-scan", phiF=1.0, phi2F=-0.2, N_list=[8, 16]),
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_row_type_writes_as_cell_by_cell(tmp_path, fmt):
    reference = csv_per_cell if fmt == "csv" else json_per_row
    out = tmp_path / "t"
    config, extras = {"N_list": [16, 32], "phiF": 1.0}, {"all_passed": True, "slope": -0.5}
    for command, table in every_table().items():
        write_table(out, fmt, command, config, table, extras)
        assert out.read_text() == reference(command, config, table, extras), command


def test_float_columns_keep_every_bit_pattern_apart(tmp_path):
    # -0.0 == 0.0 and True == 1 compare and hash alike, yet each keeps its own text
    values = np.array([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -0.0, 0.0, 5e-324, 1.0])
    i = np.arange(values.size)
    table = PatchTestRow(values, np.full(i.size, 16), 2 + i, -values, np.full(i.size, 2e-13), i % 2 == 1)
    out = tmp_path / "t.csv"
    write_table(out, "csv", "patch-test", {}, table)
    text = out.read_text()
    assert text == csv_per_cell("patch-test", {}, table, {})
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
    # a float64 and a bool array, and lists of ints beyond int64 and of str
    floats = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 0.1 + 0.2, 0.0]
    i = np.arange(len(floats))
    table = Cells(np.array(floats), [2**64 - 3 * j for j in range(len(floats))], i % 3 == 0,
                  [f"r{j}" for j in range(len(floats))])
    out = tmp_path / "t.csv"
    write_table(out, "csv", "patch-test", {}, table)
    text = out.read_text()
    assert text == csv_per_cell("patch-test", {}, table, {})
    assert [line.split(",")[0] for line in text.splitlines()[2:]] == [
        "-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "0.30000000000000004", "0.0",
    ]
    assert text.splitlines()[2] == f"-0.0,{2**64},1,r0"


class Mixed(NamedTuple):
    x: float
    n: int
    flag: bool
    name: str
    big: int


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_writer_matches_cell_by_cell_across_chunks(tmp_path, fmt):
    # longer than one chunk, with -0.0 on both sides of the chunk boundary:
    # a writer that took distinct floats by value (np.unique merges -0.0
    # into 0.0), or that misplaced the boundary, fails here
    special = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 0.1 + 0.2]
    n = CHUNK_ROWS + 5
    x = np.array([special[j % len(special)] for j in range(n)])
    x[CHUNK_ROWS - 1] = x[CHUNK_ROWS] = -0.0
    j = np.arange(n)
    table = Mixed(x, j - 3, j % 3 == 0, [f"r{i}" for i in range(n)], [2**63 + i % 3 - 1 for i in range(n)])
    out = tmp_path / "t"
    write_table(out, fmt, "patch-test", {}, table)
    text = out.read_text()
    if fmt == "csv":
        assert text == csv_per_cell("patch-test", {}, table, {})
        lines = text.splitlines()[2:]
        assert [line.split(",")[0] for line in lines[CHUNK_ROWS - 1:CHUNK_ROWS + 1]] == ["-0.0", "-0.0"]
        assert lines[1] == f"0.0,-2,0,r1,{2**63}"
    else:
        assert text == json_per_row("patch-test", {}, table, {})
        # the rows a list of NamedTuple rows gives through _asdict
        rows = [Mixed(*r)._asdict() for r in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table))]
        assert text == json_text("patch-test", {}, rows, {})


def test_int_columns_above_int64_and_mixed_columns(tmp_path):
    big = 2**63 + 5
    rows = [
        CoercivityScanRow(big, 2, 1.0, 1),  # int above 2^63; an int among the floats
        CoercivityScanRow(-big, True, 1.0, 2.5),  # a bool among the ints
        CoercivityScanRow(big, 2, np.float64(0.5), (1, 2)),  # numpy and non-scalar values
        CoercivityScanRow(2**64, 1, float("nan"), None),
    ]
    table = columns(CoercivityScanRow, rows)
    out = tmp_path / "t.csv"
    write_table(out, "csv", "coercivity", {}, table)
    text = out.read_text()
    assert text == csv_per_cell("coercivity", {}, table, {})
    assert [line.split(",")[:2] for line in text.splitlines()[2:]] == [
        [str(big), "2"], [str(-big), "1"], [str(big), "2"], [str(2**64), "1"],
    ]


def test_convergence_json_bytes(tmp_path):
    rows = [ErrorReport(16, 4, 64, 0.0625, 1.5e-05, 2.5e-05, -0.0, 3e-05),
            ErrorReport(32, 8, 128, 0.03125, 3.75e-06, 6.25e-06, 1e-300, 7.5e-06)]
    out = tmp_path / "c.json"
    write_table(out, "json", "convergence", {"N_list": [16, 32], "load": "cospi"}, columns(ErrorReport, rows),
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
    # a writer that keeps one tracked object per row alive, e.g. a tuple
    # per row, runs 14 collections for this table, and a full one once
    # scipy is loaded
    i = np.arange(10**4)
    table = PatchTestRow(0.9 + 0.05 * (i % 5), 16 + i, 2 + i % 7, np.zeros(i.size), 1e-13 * (i % 20),
                         np.ones(i.size, dtype=bool))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        write_table(tmp_path / "t.csv", "csv", "patch-test", {}, table)
    finally:
        gc.callbacks.remove(count)
    assert len(starts) <= 1, starts
    assert (tmp_path / "t.csv").read_text() == csv_per_cell("patch-test", {}, table, {})


def test_writing_holds_no_table_text(tmp_path):
    # 10^5 rows, about 4 MB of text: formatting all of them at once holds
    # about 30 MB, and raises the CLI's peak RSS at N=131072 from 69 to 110 MB
    i = np.arange(10**5)
    table = PatchTestRow(np.full(i.size, 0.9), np.full(i.size, 2**20), i, 1e-13 * i, np.full(i.size, 1e-12),
                         np.ones(i.size, dtype=bool))
    tracemalloc.start()
    try:
        write_table(tmp_path / "t.csv", "csv", "patch-test", {}, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak
