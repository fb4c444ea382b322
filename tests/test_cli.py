import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcf1d import chain, cli, solver, stability
from qcf1d.cli import main, read_config_file
from qcf1d.lattice import DomainSpec
from qcf1d.operators import StrainStencil


def run(argv):
    return main([str(a) for a in argv])


def checkout_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_process(argv, timeout=60):
    """Run the CLI in a fresh interpreter on this checkout; a hang fails the timeout."""
    return subprocess.run([sys.executable, "-m", "qcf1d.cli", *map(str, argv)],
                          capture_output=True, text=True, env=checkout_env(), timeout=timeout)


def read_rows(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return comments, header, rows


def test_patch_test_csv(tmp_path):
    out = tmp_path / "patch.csv"
    code = run(["patch-test", "--N-list", "16,32", "--K", "4",
                "--F-list", "0.9,1.0,1.1", "--out", out])
    assert code == 0
    comments, header, rows = read_rows(out)
    assert header == ["F", "N", "K", "residual", "tolerance", "passed"]
    assert len(rows) == 6  # one row per (F, N, K)
    assert any("F_list=[0.9, 1.0, 1.1]" in c for c in comments)
    assert all(float(r["residual"]) <= float(r["tolerance"]) for r in rows)
    assert "# points_checked=6" in comments
    assert "# worst_residual_over_tol=0.0" in comments


def test_patch_test_echoes_only_its_options(tmp_path):
    out = tmp_path / "patch.csv"
    assert run(["patch-test", "--N-list", "16", "--K", "4", "--out", out]) == 0
    comments, _, _ = read_rows(out)
    keys = {c[2:].split("=", 1)[0] for c in comments if "=" in c}
    assert {"command", "N_list", "K", "F_list"} <= keys
    assert not keys & {"load", "p_list", "M_factor", "phiF", "phi2F", "potential", "F", "K_ratio"}


@pytest.mark.parametrize("flag", ["--M-factor", "--phiF", "--phi2F"])
def test_patch_test_rejects_flags_it_ignores(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run(["patch-test", "--N-list", "8", flag, "8", "--out", tmp_path / "x.csv"])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_patch_test_k_out_of_range(tmp_path, capsys):
    code = run(["patch-test", "--N-list", "16", "--K", "16", "--out", tmp_path / "x.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert "K out of range" in err
    assert "usage:" in err


@pytest.mark.parametrize("F", ["nan", "inf"])
def test_patch_test_nonfinite_strain_exits_2(tmp_path, capsys, F):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["patch-test", "--N-list", "16", "--K-all", "--F-list", F, "--out", out])
    assert code == 2
    assert f"strain F must be finite, got F={F}" in capsys.readouterr().err
    assert not out.exists()


def test_patch_test_extras_propagate_nan(tmp_path, monkeypatch):
    # wherever a NaN residual sits among the rows, the extras report it
    def residuals_with_nan(y, ks, phi):
        return np.where(np.asarray(ks) == 3, float("nan"), 0.0)

    monkeypatch.setattr(chain, "max_abs_force_qcf", residuals_with_nan)
    out = tmp_path / "x.csv"
    assert run(["patch-test", "--N-list", "8", "--K-all", "--F-list", "1.0", "--out", out]) == 1
    comments, _, _ = read_rows(out)
    for line in ("# max_residual=nan", "# worst_residual_over_tol=nan",
                 "# points_checked=3", "# all_passed=0"):
        assert line in comments


def test_missing_out_path(tmp_path, capsys):
    code = run(["convergence", "--phiF", "1", "--phi2F", "-0.05", "--N-list", "16"])
    assert code == 2
    assert "output path" in capsys.readouterr().err


def test_convergence_json_and_exit(tmp_path):
    out = tmp_path / "conv.json"
    code = run(["convergence", "--phiF", "1", "--phi2F", "-0.05",
                "--N-list", "16,32", "--K-ratio", "0.25", "--format", "json", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "convergence"
    assert doc["extras"]["all_inequalities_hold"]
    assert len(doc["rows"]) == 2
    assert set(doc["rows"][0]) == {
        "N", "K", "M", "eps", "err_strain_inf", "bound_rhs", "trunc_star", "trunc_bound",
    }


def test_convergence_holds_past_dense_solve_limit(tmp_path):
    # N=1024 and 2048 need M=4096 and 8192 reference chains
    out = tmp_path / "conv.csv"
    code = run(["convergence", "--phiF", "1", "--phi2F", "-0.05", "--N-list", "1024,2048",
                "--K-ratio", "0.25", "--M-factor", "4", "--load", "cospi", "--out", out])
    assert code == 0
    comments, _, rows = read_rows(out)
    assert [r["N"] for r in rows] == ["1024", "2048"]
    extras = dict(c[2:].split("=", 1) for c in comments if "=" in c)
    assert extras["all_inequalities_hold"] == "1"
    assert abs(float(extras["slope_err_vs_eps"]) - 2.0) <= 0.2


def test_convergence_checks_the_error_bound_up_to_the_rounding_floor(tmp_path, monkeypatch):
    # with phi2F = 0 the bound is 0 and the error is the solves' rounding residue
    argv = ["convergence", "--phiF", "1", "--phi2F", "0", "--N-list", "16,32,64", "--out", tmp_path / "c.csv"]
    assert run(argv) == 0
    real = solver.error_report_detailed

    def inflated(*args):
        rep, t, floor = real(*args)
        return rep._replace(err_strain_inf=rep.bound_rhs + 2.0 * floor), t, floor

    monkeypatch.setattr(solver, "error_report_detailed", inflated)
    assert run(argv) == 1


def test_convergence_margin_lost_to_rounding_exits_1(tmp_path, capsys):
    # the true margin is phiF > 0, but at 1e-300 beside phi2F = 1e300 the
    # margin's sums round it away: a numerical failure, not a configuration error
    out = tmp_path / "c.csv"
    assert run(["convergence", "--phiF", "1e-300", "--phi2F", "1e300", "--N-list", "16", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "gamma = 0 is within its rounding allowance" in err and "usage:" not in err
    assert not out.exists()


def test_coercivity_reports_slope(tmp_path):
    out = tmp_path / "coerc.csv"
    code = run(["coercivity", "--phiF", "1", "--phi2F", "-0.2",
                "--N-list", "64,128", "--K-ratio", "0.25", "--out", out])
    assert code == 0
    comments, header, rows = read_rows(out)
    assert header == ["N", "K", "rayleigh_min", "witness_value"]
    assert any("slope_abs_rayleigh_vs_N=" in c for c in comments)
    for r in rows:
        assert float(r["rayleigh_min"]) <= float(r["witness_value"])


def test_coercivity_nearest_neighbor_skips_fit(tmp_path):
    out = tmp_path / "coerc0.csv"
    code = run(["coercivity", "--phiF", "1", "--phi2F", "0",
                "--N-list", "16,32", "--out", out])
    assert code == 0
    comments, _, rows = read_rows(out)
    assert not any("slope" in c for c in comments)
    assert all(float(r["rayleigh_min"]) > 0 for r in rows)


def test_stability_commands_assemble_no_matrix(tmp_path, monkeypatch):
    # coercivity reads Eqcf from the bands of its strain stencil,
    # convergence solves on it, and patch-test evaluates forces: none lists
    # the entries of an operator (infsup does, for its lower bound's margin)
    def no_assembly(*args, **kwargs):
        raise RuntimeError("a matrix was assembled")

    monkeypatch.setattr(StrainStencil, "integer_entries", no_assembly)
    springs = ["--phiF", "1", "--phi2F", "-0.2"]
    for argv, code in ((["coercivity", *springs, "--N-list", "16,32"], 0),
                       (["convergence", "--phiF", "1", "--phi2F", "-0.05", "--N-list", "16,32"], 0),
                       (["patch-test", "--N-list", "16,32"], 0),
                       # the control: these two do list them
                       (["eig-scan", *springs, "--N-list", "16"], 1),
                       (["dump-operator", *springs, "--operator", "Eqcf", "--N", "8"], 1)):
        out = tmp_path / f"{argv[0]}.csv"
        assert run([*argv, "--K-ratio", "0.25", "--out", out]) == code, argv[0]


def test_infsup_table(tmp_path):
    out = tmp_path / "infsup.csv"
    code = run(["infsup", "--phiF", "1", "--phi2F", "-0.05",
                "--N-list", "16,32", "--K-ratio", "0.25", "--p-list", "1,2", "--out", out])
    assert code == 0
    _, header, rows = read_rows(out)
    assert header == ["N", "K", "p", "kind", "value"]
    kinds = {r["kind"] for r in rows}
    assert kinds == {"lower_bound", "exact", "upper_bound"}
    lower = [float(r["value"]) for r in rows if r["kind"] == "lower_bound"]
    assert all(abs(v - 0.3) <= 1e-14 for v in lower)


@pytest.mark.parametrize("n_list,slope", [("16,32", float), ("16,16", str)])
def test_json_is_strict(tmp_path, n_list, slope):
    # JSON has no inf or nan: the lower bound's p = inf, and the slope over
    # one N (nan), are written as the text of their CSV cells
    out = tmp_path / "infsup.json"
    assert run(["infsup", "--phiF", "1", "--phi2F", "-0.2", "--N-list", n_list,
                "--format", "json", "--out", out]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert {r["p"] for r in doc["rows"] if r["kind"] == "lower_bound"} == {"inf"}
    assert type(doc["extras"]["slope_exact_p2"]) is slope


def test_dump_operator_triples(tmp_path):
    out = tmp_path / "eqcf.csv"
    code = run(["dump-operator", "--operator", "Eqcf", "--N", "8", "--K", "2",
                "--phiF", "1", "--phi2F", "1", "--out", out])
    assert code == 0
    _, header, rows = read_rows(out)
    assert header == ["row", "col", "value"]
    got = {(r["row"], r["col"]): float(r["value"]) for r in rows}
    assert got[("-3", "-3")] == 6.0
    assert got[("-3", "-2")] == -2.0
    assert got[("-3", "-1")] == 1.0


def test_dump_operator_takes_its_size_from_n_only(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(["dump-operator", "--operator", "Eqcf", "--N-list", "8,16", "--K", "2",
             "--phiF", "1", "--phi2F", "1", "--out", out])
    assert exc.value.code == 2
    assert run(["dump-operator", "--operator", "Eqcf", "--K", "2",
                "--phiF", "1", "--phi2F", "1", "--out", out]) == 2
    assert "need --N" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("operator,size,n_rows", [
    ("Ea", ["--N", "3"], 6),
    ("Ea", ["--N", "8", "--K", "7"], 16),
])
def test_dump_operator_reads_k_only_for_coupled_operators(tmp_path, operator, size, n_rows):
    # Ea takes no split, so an N with no admissible K, or a K that N leaves
    # no room for, is no error
    out = tmp_path / "x.csv"
    springs = ["--phiF", "1", "--phi2F", "0.1", "--out", out]
    assert run(["dump-operator", "--operator", operator, *size, *springs]) == 0
    _, _, rows = read_rows(out)
    assert len({r["row"] for r in rows}) == n_rows
    assert run(["dump-operator", "--operator", "Eqcf", *size, *springs]) == 2


@pytest.mark.parametrize("operator,n,code,message", [
    ("Ea", 1, 0, None),
    ("Eqcf", 2, 2, "K=2, N=2"),
])
def test_dump_operator_smallest_sizes(tmp_path, capsys, operator, n, code, message):
    # Ea is 2 x 2 at N=1, and N=2 leaves Eqcf no split K
    out = tmp_path / "x.csv"
    assert run(["dump-operator", "--operator", operator, "--N", n, "--phiF", "1", "--phi2F", "0.1",
                "--out", out]) == code
    if message:
        assert message in capsys.readouterr().err
        assert not out.exists()
    else:
        assert len(read_rows(out)[2]) == 4


@pytest.mark.parametrize("operator", ["La", "Llqc", "Lqcf"])
def test_dump_operator_offers_only_strain_operators(tmp_path, capsys, operator):
    # the displacement operators are the conjugates of Ea and Eqcf, and are not dumped
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(["dump-operator", "--operator", operator, "--N", "8", "--phiF", "1", "--phi2F", "0.1", "--out", out])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_dump_operator_ea_is_symmetric(tmp_path):
    out = tmp_path / "ea.csv"
    assert run(["dump-operator", "--operator", "Ea", "--N", "6", "--K", "2",
                "--phiF", "1", "--phi2F", "-0.1", "--out", out]) == 0
    _, _, rows = read_rows(out)
    entries = {(r["row"], r["col"]): float(r["value"]) for r in rows}
    assert entries == {(c, r): v for (r, c), v in entries.items()}


def test_eig_scan_runs(tmp_path):
    out = tmp_path / "eig.csv"
    assert run(["eig-scan", "--phiF", "1", "--phi2F", "-0.2",
                "--N-list", "16,32", "--K-ratio", "0.25", "--out", out]) == 0
    _, header, rows = read_rows(out)
    assert header == ["N", "K", "min_real", "max_imag_abs", "n_nonpositive"]
    assert len(rows) == 2
    # bulk-stable coefficients: every eigenvalue stays in the right half plane
    assert all(int(r["n_nonpositive"]) == 0 for r in rows)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# convergence defaults\n"
        "phiF = 1.0\n"
        "phi2F = -0.05\n"
        "N_list = 16,32\n"
        "K_ratio = 0.25\n"
        "format = json\n"
    )
    out = tmp_path / "c.json"
    code = run(["convergence", "--config", cfg, "--N-list", "16", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["N_list"] == [16]  # flag wins over file
    assert doc["config"]["phi2F"] == -0.05


def test_config_file_diagnostics(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("phiF = 1.0\nnonsense_key = 3\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        read_config_file(str(bad), "coercivity")
    bad.write_text("phiF\n")
    with pytest.raises(ValueError, match="expected key=value"):
        read_config_file(str(bad), "coercivity")


@pytest.mark.parametrize("key, args", [
    ("format", ["--operator", "Ea", "--phiF", "1", "--phi2F", "1"]),
    ("operator", ["--phiF", "1", "--phi2F", "1"]),
])
def test_config_file_bad_choice_exits_2(tmp_path, capsys, key, args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = foo\n")
    code = run(["dump-operator", "--config", cfg, "--N", "8", "--K", "2", *args,
                "--out", tmp_path / "x.csv"])
    assert code == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_unknown_load_exits_2_naming_the_choices(tmp_path, capsys):
    args = ["convergence", "--phiF", "1", "--phi2F", "-0.05", "--N-list", "16", "--out", tmp_path / "x.csv"]
    with pytest.raises(SystemExit) as exc:
        run([*args, "--load", "foo"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "foo" in err and all(name in err for name in ("const", "cospi", "zero"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("load = foo\n")
    assert run([*args, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "'load'" in err and "const, cospi, exp, zero" in err


def test_config_file_bad_format_exits_before_sweep(tmp_path, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(chain, "max_abs_force_qcf", no_sweep)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = xml\n")
    code = run(["patch-test", "--config", cfg, "--N-list", "16", "--out", tmp_path / "x.csv"])
    assert code == 2


def test_config_file_keys_are_scoped_per_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K_all = yes\n")
    code = run(["coercivity", "--config", cfg, "--phiF", "1", "--phi2F", "-0.2",
                "--N-list", "16", "--out", tmp_path / "x.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert "'K_all'" in err and "coercivity" in err


RESULTS = Path(__file__).resolve().parents[1] / "results"
# exact arithmetic: a residual of zero and an operator of small integers
EXACT_TABLES = ("patch_test.csv", "eqcf_n8_k2.csv")


def table_command(table):
    return table.read_text().split("\n", 1)[0].removeprefix("# qcf1d ")


def lines_but_out(path):
    """A table's lines, but its `# out=` echo, which names where each run wrote it."""
    return [line for line in path.read_text().splitlines() if not line.startswith("# out=")]


def cells(line):
    return line.split("=", 1) if line.startswith("#") else line.split(",")


def same_cell(a, b, abs_tol):
    """Equal texts, or numbers within 1e-9 relative: a float may move in its last digits on another BLAS."""
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=abs_tol)
    except ValueError:
        return False


@pytest.mark.parametrize("table", sorted(RESULTS.glob("*.csv")), ids=lambda table: table.name)
def test_a_committed_table_reruns_from_its_own_header(tmp_path, table):
    # --out always, so the test never rewrites results/
    out = tmp_path / table.name
    assert run([table_command(table), "--config", table, "--out", out]) == 0
    want, got = lines_but_out(table), lines_but_out(out)
    assert f"# out={out}" in out.read_text()
    if table.name in EXACT_TABLES:
        assert got == want
        return
    assert len(got) == len(want)
    header = cells(next(line for line in want if not line.startswith("#")))
    # eig-scan's max_imag_abs is a rounding-level imaginary part: an absolute tolerance
    row_tols = [1e-9 if name == "max_imag_abs" else 0.0 for name in header]
    for w, g in zip(want, got):
        tols = [0.0] * len(cells(w)) if w.startswith("#") else row_tols
        assert len(cells(w)) == len(cells(g)) == len(tols), (w, g)
        assert all(map(same_cell, cells(w), cells(g), tols)), (w, g)


@pytest.mark.parametrize("name", EXACT_TABLES)
def test_a_table_with_a_potential_line_still_reruns(tmp_path, name):
    # earlier tables echo `# potential=lj`, a key that names no option: it is skipped
    table = tmp_path / name
    first, rest = (RESULTS / name).read_text().split("\n", 1)
    table.write_text(f"{first}\n# potential=lj\n{rest}")
    out = tmp_path / f"re_{name}"
    assert run([table_command(table), "--config", table, "--out", out]) == 0
    assert lines_but_out(out) == lines_but_out(RESULTS / name)


def test_a_default_patch_test_table_echoes_its_strains_and_reruns(tmp_path):
    # with no K flag, the split rule is the default --K-ratio, which the table echoes
    for split in (["--K", "4"], []):
        first = tmp_path / "p.csv"
        assert run(["patch-test", "--N-list", "16", *split, "--out", first]) == 0
        comments, _, rows = read_rows(first)
        assert "# F_list=[0.9, 1.0, 1.1]" in comments
        assert ("# K_ratio=0.25" in comments) == (not split)
        assert [r["F"] for r in rows] == ["0.9", "1.0", "1.1"]
        again = tmp_path / "again.csv"
        assert run(["patch-test", "--config", first, "--out", again]) == 0
        assert lines_but_out(again) == lines_but_out(first)


def test_a_table_given_to_another_subcommand_exits_2_naming_both(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text((RESULTS / "coercivity.csv").read_text())
    out = tmp_path / "x.csv"
    assert run(["infsup", "--config", table, "--out", out]) == 2
    assert f"{table}:1: a table of coercivity, not of infsup" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("# K_all=1", "unknown key 'K_all' for coercivity"),  # an option of patch-test only
    ("# N_list=[256, x]", "bad value for 'N_list'"),
    ("# phiF=one", "bad value for 'phiF'"),
    ("# format=xml", "bad value for 'format'"),
    ("# phiF", "expected key=value"),
])
def test_a_bad_table_header_line_exits_2_naming_it(tmp_path, capsys, line, message):
    first, rest = (RESULTS / "coercivity.csv").read_text().split("\n", 1)
    table = tmp_path / "t.csv"
    table.write_text(f"{first}\n{line}\n{rest}")
    assert run(["coercivity", "--config", table, "--out", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert f"{table}:2: {message}" in err


SMALL_RUNS = {
    "patch-test": ["--N-list", "16", "--K-all"],
    "coercivity": ["--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32"],
    "infsup": ["--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32"],
    "convergence": ["--phiF", "1", "--phi2F", "-0.05", "--N-list", "16,32"],
    "dump-operator": ["--operator", "Eqcf", "--N", "8", "--K", "2", "--phiF", "1", "--phi2F", "1"],
    "eig-scan": ["--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32"],
}


def test_no_extra_is_named_as_an_option(tmp_path):
    # a table's echo is read back skipping the keys that name no option, so
    # an extra named as an option would be read as that option
    names = {f.name for f in cli.OPTIONS}
    assert set(SMALL_RUNS) == set(cli.COMMANDS)
    for command, args in SMALL_RUNS.items():
        out = tmp_path / f"{command}.json"
        assert run([command, *args, "--format", "json", "--out", out]) == 0
        extras = json.loads(out.read_text())["extras"]
        assert not set(extras) & names, command


COMMON_OPTIONS = {
    "-h", "--help", "--config", "--K", "--K-ratio", "--out", "--format",
}
SPRINGS = {"--phiF", "--phi2F"}
COMMAND_OPTIONS = {
    "patch-test": {"--N-list", "--F-list", "--K-all"},
    "coercivity": SPRINGS | {"--N-list"},
    "infsup": SPRINGS | {"--N-list", "--p-list"},
    "convergence": SPRINGS | {"--N-list", "--load", "--M-factor"},
    "dump-operator": SPRINGS | {"--operator", "--N"},
    "eig-scan": SPRINGS | {"--N-list"},
}


def test_parser_option_strings_per_subcommand():
    # every subcommand is registered, with its help; only the one a run names takes options
    for command in COMMAND_OPTIONS:
        parser = cli.build_parser(command)
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(subs.choices) == set(COMMAND_OPTIONS)
        for name, sub in subs.choices.items():
            expected = COMMON_OPTIONS | COMMAND_OPTIONS[name] if name == command else {"-h", "--help"}
            assert set(sub._option_string_actions) == expected, (command, name)


@pytest.mark.parametrize("flag", ["--jobs", "--seed"])
def test_removed_flags_exit_2(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run(["patch-test", "--N-list", "16", flag, "1", "--out", tmp_path / "x.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [("--potential", "lj"), ("--F", "1.0")])
@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_retired_spring_and_strain_flags_exit_2(tmp_path, capsys, command, flag, value):
    # spring constants come only from --phiF/--phi2F, and patch-test's strains only from --F-list
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run([command, *SMALL_RUNS[command], flag, value, "--out", out])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_abbreviated_flag_exits_2(tmp_path):
    # --N is not an option of coercivity and must not abbreviate --N-list
    with pytest.raises(SystemExit) as exc:
        run(["coercivity", "--phiF", "1", "--phi2F", "0", "--N", "16",
             "--out", tmp_path / "x.csv"])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_infsup_checks_p2_bound_without_p2_row(tmp_path, monkeypatch):
    # the exact 2-norm value is checked against the p=2 probe bound even
    # when --p-list writes no p=2 row
    upper = stability.infsup_p_upper

    def zero_at_p2(c, spec, p):
        return 0.0 if p == 2 else upper(c, spec, p)

    monkeypatch.setattr(stability, "infsup_p_upper", zero_at_p2)
    out = tmp_path / "infsup.csv"
    argv = ["infsup", "--phiF", "1", "--phi2F", "-0.05", "--N-list", "16,32",
            "--p-list", "1", "--out", out]
    assert run(argv) == 1
    _, _, rows = read_rows(out)
    assert {r["p"] for r in rows if r["kind"] == "upper_bound"} == {"1.0"}
    monkeypatch.setattr(stability, "infsup_p_upper", upper)
    assert run(argv) == 0


@pytest.mark.parametrize("argv,flags", [
    (["patch-test", "--N-list", "16", "--K", "3", "--K-all"], "--K contradicts --K-all"),
    (["coercivity", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16", "--K", "4", "--K-ratio", "0.5"],
     "--K contradicts --K-ratio"),
    (["dump-operator", "--operator", "Ea", "--N", "8", "--phiF", "1", "--phi2F", "1", "--K", "2", "--K-ratio", "0.25"],
     "--K contradicts --K-ratio"),
    # named in the table's order, whatever the order of the flags
    (["eig-scan", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16", "--K-ratio", "0.25", "--K", "4"],
     "--K contradicts --K-ratio"),
    (["patch-test", "--N-list", "16", "--K-ratio", "0.5", "--K-all"], "--K-ratio contradicts --K-all"),
])
def test_contradicting_flags_exit_2_naming_both(tmp_path, capsys, argv, flags):
    # each pair sets one quantity, and the table would echo the flag the run ignored
    out = tmp_path / "x.csv"
    assert run([*argv, "--out", out]) == 2
    assert flags in capsys.readouterr().err
    assert not out.exists()


def test_a_configuration_error_prints_the_subcommand_usage(tmp_path, capsys):
    argv = ["coercivity", "--phiF", "2", "--phi2F", "-0.2", "--N-list", "16", "--K", "4", "--K-ratio", "0.25"]
    assert run([*argv, "--out", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --K contradicts --K-ratio")
    assert "usage: qcf1d coercivity " in err


def test_a_flag_replaces_the_config_files_split_rule(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phiF = 2\nphi2F = -0.2\nK = 4\n")
    out = tmp_path / "x.csv"
    assert run(["coercivity", "--config", cfg, "--K-ratio", "0.25", "--N-list", "16", "--out", out]) == 0
    comments, _, _ = read_rows(out)
    assert "# K_ratio=0.25" in comments
    assert not any(c.startswith("# K=") for c in comments)
    # K_all = no sets nothing, so it leaves --K free
    cfg.write_text("K_all = no\n")
    assert run(["patch-test", "--config", cfg, "--N-list", "16", "--K", "3", "--out", out]) == 0


@pytest.mark.parametrize("split", [[], ["--K", "4"]])
def test_a_config_file_naming_two_split_rules_exits_2(tmp_path, capsys, split):
    # a flag's rule replaces the file's, but the file still names at most one
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phiF = 2\nphi2F = -0.2\nK = 4\nK_ratio = 0.25\n")
    out = tmp_path / "x.csv"
    assert run(["coercivity", "--config", cfg, "--N-list", "16", *split, "--out", out]) == 2
    assert "--K contradicts --K-ratio" in capsys.readouterr().err
    assert not out.exists()


def test_a_default_table_reruns_under_k_all(tmp_path):
    default, rerun, direct = tmp_path / "d.csv", tmp_path / "rerun.csv", tmp_path / "direct.csv"
    assert run(["patch-test", "--N-list", "16", "--out", default]) == 0
    assert run(["patch-test", "--config", default, "--K-all", "--out", rerun]) == 0
    assert run(["patch-test", "--N-list", "16", "--K-all", "--out", direct]) == 0
    assert lines_but_out(rerun) == lines_but_out(direct)
    comments, _, _ = read_rows(rerun)
    assert "# K_all=1" in comments
    assert not any(c.startswith("# K_ratio=") for c in comments)


def test_coefficients_required(tmp_path, capsys):
    code = run(["coercivity", "--N-list", "16", "--out", tmp_path / "x.csv"])
    assert code == 2
    assert "phiF" in capsys.readouterr().err


@pytest.mark.parametrize("n_list", ["3", "16,3"])
def test_patch_test_k_all_needs_n_at_least_4(tmp_path, capsys, monkeypatch, n_list):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(chain, "max_abs_force_qcf", no_sweep)
    out = tmp_path / "x.csv"
    assert run(["patch-test", "--N-list", n_list, "--K-all", "--out", out]) == 2
    assert "no admissible split K for N=3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["patch-test", "coercivity"])
@pytest.mark.parametrize("split,n_list,bad", [
    (["--K", "9"], "16", "K=9, N=16"),  # K > N/2
    (["--K", "1"], "16", "K=1, N=16"),  # K < 2
    (["--K", "4"], "16,6", "K=4, N=6"),  # K > N/2 at one N of several
    (["--K-ratio", "0.6"], "16", "K=10, N=16"),
    (["--K-ratio", "0.25"], "16,3", "K=2, N=3"),  # 0.25 * 3 gives K=1, raised to 2
])
def test_split_out_of_range_exits_2_and_names_the_range(tmp_path, capsys, command, split, n_list, bad):
    # --K-ratio never gives K < 2: the ratio's K is at least 2
    coefficients = ["--phiF", "1", "--phi2F", "-0.2"] if command == "coercivity" else []
    out = tmp_path / "x.csv"
    assert run([command, *coefficients, "--N-list", n_list, *split, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"K out of range: need 2 <= K <= N/2, got {bad}" in err
    assert not out.exists()


def test_k_all_pairs_are_every_admissible_split():
    n_list = [4, 5, 6, 7, 16, 17, 64]
    cfg = cli.RunConfig(command="patch-test", N_list=n_list, K_all=True)
    expected = []
    for n in n_list:
        for k in range(-1, n + 2):
            try:
                DomainSpec(n, k)
            except ValueError:
                continue
            expected.append((n, k))
    assert cfg.nk_pairs() == expected
    # a small positive ratio is raised to K=2; a ratio <= 0 gives no split at all
    assert cli.RunConfig(command="patch-test", N_list=[16], K_ratio=0.01).nk_pairs() == [(16, 2)]
    with pytest.raises(ValueError, match="--K-ratio must be positive, got 0.0"):
        cli.RunConfig(command="patch-test", N_list=[16], K_ratio=0.0).nk_pairs()


@pytest.mark.parametrize("via_file", [False, True])
def test_patch_test_empty_f_list_exits_2(tmp_path, capsys, monkeypatch, via_file):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(chain, "max_abs_force_qcf", no_sweep)
    out = tmp_path / "x.csv"
    argv = ["patch-test", "--N-list", "16", "--K", "2", "--out", out]
    if via_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("F_list = ,\n")
        argv += ["--config", cfg]
    else:
        argv += ["--F-list", ","]
    assert run(argv) == 2
    assert "--F-list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via_file", [False, True])
def test_infsup_empty_p_list_exits_2(tmp_path, capsys, monkeypatch, via_file):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(stability, "infsup_2", no_sweep)
    out = tmp_path / "x.csv"
    argv = ["infsup", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32", "--out", out]
    if via_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_list = ,\n")
        argv += ["--config", cfg]
    else:
        argv += ["--p-list", ","]
    assert run(argv) == 2
    assert "--p-list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p_list", ["0.5", "2,inf", "1,nan"])
def test_infsup_bad_p_exits_2_before_any_sweep_point(tmp_path, capsys, monkeypatch, p_list):
    # the whole first point used to run before its probe bound rejected p
    def not_reached(*args, **kwargs):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(stability, "infsup_2", not_reached)
    out = tmp_path / "x.csv"
    argv = ["infsup", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32", "--p-list", p_list, "--out", out]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "--p-list: p must satisfy 1 <= p < inf" in err
    assert "usage: qcf1d infsup " in err
    assert not out.exists()


@pytest.mark.parametrize("phi2F", ["0", "-0.0"])
def test_infsup_zero_phi2F_exits_2_before_any_sweep_point(tmp_path, capsys, monkeypatch, phi2F):
    # the exit status reads the p=2 probe bound, which needs phi2F != 0, at every point
    def not_reached(*args, **kwargs):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(StrainStencil, "rdd_margin", not_reached)
    monkeypatch.setattr(stability, "infsup_2", not_reached)
    out = tmp_path / "x.csv"
    assert run(["infsup", "--phiF", "1", "--phi2F", phi2F, "--N-list", "16,32", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "--phi2F: the probe upper bound needs phi2F != 0" in err
    assert "usage: qcf1d infsup " in err
    assert not out.exists()


def test_infsup_small_phi2F_writes_its_probe_bounds(tmp_path):
    # alpha = (phiF + 5 phi2F) / (2 phi2F) is 5e99: alpha**p overflowed, yet every bound is about phiF
    out = tmp_path / "i.csv"
    proc = run_process(["infsup", "--phiF", "1", "--phi2F", "1e-100", "--N-list", "16,32", "--out", out])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    _, _, rows = read_rows(out)
    assert [float(r["value"]) for r in rows if r["kind"] == "upper_bound"] == [1.0] * 6


def test_convergence_holds_at_large_n(tmp_path):
    # strain-form solves keep err_strain_inf on its eps^2 line up to
    # N=131072 (M=524288); displacement-form solves lost it from N=32768
    out = tmp_path / "conv.csv"
    assert run(["convergence", "--phiF", "1", "--phi2F", "-0.05",
                "--N-list", "16384,32768,65536,131072", "--K-ratio", "0.25",
                "--M-factor", "4", "--load", "cospi", "--out", out]) == 0
    comments, _, rows = read_rows(out)
    extras = dict(c[2:].split("=", 1) for c in comments if "=" in c)
    assert extras["all_inequalities_hold"] == "1"
    assert abs(float(extras["slope_err_vs_eps"]) - 2.0) <= 0.2
    assert [int(r["N"]) for r in rows] == [16384, 32768, 65536, 131072]


def test_infsup_outside_dominance_exits_2(tmp_path, capsys):
    code = main(["infsup", "--phiF", "1", "--phi2F", "-0.3", "--N-list", "16,32",
                 "--out", str(tmp_path / "i.csv")])
    assert code == 2
    assert "infsup_2 needs phiF + 4*phi2F > 0 (diagonal dominance of T), got -0.2" in capsys.readouterr().err
    assert not (tmp_path / "i.csv").exists()


def coefficient_command(command, coefficients, out):
    size = ["--operator", "Ea", "--N", "8"] if command == "dump-operator" else ["--N-list", "16"]
    return [command, *coefficients, *size, "--out", out]


@pytest.mark.parametrize("command", cli.COEFFICIENT_COMMANDS)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_phi2F_exits_2(tmp_path, command, value):
    # in a fresh process, so that a hang fails the timeout: a loop that
    # waits for a comparison with nan to hold never ends
    out = tmp_path / "x.csv"
    proc = run_process(coefficient_command(command, ["--phiF", "1", "--phi2F", value], out))
    assert proc.returncode == 2, proc.stderr
    assert f"phi2F must be finite, got {value}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", cli.COEFFICIENT_COMMANDS)
# 1e999 is too large for a double, and reads as inf
@pytest.mark.parametrize("coefficients", [["--phiF", "inf", "--phi2F", "0.1"], ["--phiF", "1e999", "--phi2F", "0.1"]])
def test_infinite_phiF_exits_2(tmp_path, capsys, command, coefficients):
    out = tmp_path / "x.csv"
    assert run(coefficient_command(command, coefficients, out)) == 2
    assert "phiF must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,message", [
    ("patch-test", "phi'(F) and phi'(2F) must be finite, got (-inf, -inf) at F=1e-30"),
])
def test_overflowing_strain_exits_2_without_warnings(tmp_path, command, message):
    # phi'(1e-30) overflows to inf: a configuration error,
    # reported once by the CLI, with no numpy warning before it
    out = tmp_path / "x.csv"
    proc = run_process([command, "--F-list", "1e-30", "--N-list", "16", "--out", out])
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Warning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("operator", ("Ea", "Eqcf"))
@pytest.mark.parametrize("n", [0, -2])
def test_dump_operator_nonpositive_n_exits_2_naming_the_flag(tmp_path, capsys, operator, n):
    out = tmp_path / "x.csv"
    assert run(["dump-operator", "--operator", operator, "--N", n,
                "--phiF", "1", "--phi2F", "0.1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"need --N for dump-operator, a positive size, got {n}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_coercivity_failed_shift_check_exits_1_naming_the_shift(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(stability, "_below_spectrum", lambda solve, c: False)
    out = tmp_path / "x.csv"
    assert run(["coercivity", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16", "--out", out]) == 1
    assert "inertia check failed, shift -" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,kernel", [("coercivity", "rayleigh_min"), ("infsup", "infsup_2")])
def test_linalg_breakdown_exits_1_without_usage(tmp_path, capsys, monkeypatch, command, kernel):
    # LinAlgError subclasses ValueError, yet a numerical breakdown is no configuration error
    def breaks_down(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(stability, kernel, breaks_down)
    out = tmp_path / "x.csv"
    assert run([command, "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error: Eigenvalues did not converge" in err
    assert "usage:" not in err
    assert not out.exists()


@pytest.mark.parametrize("phi2F", ["1e-308", "-1e-308"])
def test_tiny_phi2F_exits_0_with_the_nearest_neighbor_minimum(tmp_path, phi2F):
    # rayleigh_min's inertia check forms no C^{-1} = 2/phi2F, which would overflow
    out = tmp_path / "x.csv"
    proc = run_process(["coercivity", "--phiF", "1", "--phi2F", phi2F, "--N-list", "16", "--out", out])
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    _, _, rows = read_rows(out)
    assert rows[0]["rayleigh_min"] == "1.0"


@pytest.mark.parametrize("command", ["coercivity", "infsup"])
def test_extreme_constants_give_the_unit_run_scaled(tmp_path, command):
    # the kernels run on the unit constants, and each check's allowance is
    # relative to max(phiF, |phi2F|), so every scale exits 0 with s times the values
    tables = {}
    for s in ("1", "1e-300", "1e-6", "1e300"):
        out = tmp_path / f"{s}.csv"
        proc = run_process([command, "--phiF", s, "--phi2F", repr(-0.2 * float(s)), "--N-list", "16,64",
                            "--out", out])
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        _, header, rows = read_rows(out)
        names = [name for name in header if name in ("rayleigh_min", "witness_value", "value")]
        tables[s] = np.array([[float(row[name]) for name in names] for row in rows])
    for s in ("1e-300", "1e-6", "1e300"):
        np.testing.assert_allclose(tables[s], float(s) * tables["1"], rtol=1e-12)


@pytest.mark.parametrize("command", ["coercivity", "infsup"])
def test_underflowed_unit_phiF_is_no_configuration_error(tmp_path, command):
    # phiF / max(phiF, |phi2F|) = 1e-600 underflows to 0 in the unit constants:
    # rounding, not an input that fails the check phiF > 0
    out = tmp_path / "x.csv"
    proc = run_process([command, "--phiF", "1e-300", "--phi2F", "1e300", "--N-list", "16", "--out", out])
    assert proc.returncode == 0, proc.stderr
    assert "phiF must be positive" not in proc.stderr


@pytest.mark.parametrize("ratio", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("args", [
    ["coercivity", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16"],
    ["patch-test", "--N-list", "16"],
    ["dump-operator", "--operator", "Ea", "--N", "8", "--phiF", "1", "--phi2F", "0.1"],
])
def test_nonfinite_k_ratio_exits_2_naming_the_flag(tmp_path, capsys, args, ratio):
    out = tmp_path / "x.csv"
    assert run([*args, "--K-ratio", ratio, "--out", out]) == 2
    assert f"--K-ratio must be finite, got {ratio}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via_file", [False, True])
@pytest.mark.parametrize("ratio", ["-3", "0", "-0.0", "-1e-3"])
@pytest.mark.parametrize("args", [
    ["coercivity", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "64"],
    ["patch-test", "--N-list", "16"],
    ["dump-operator", "--operator", "Eqcf", "--N", "8", "--phiF", "1", "--phi2F", "0.1"],
])
def test_nonpositive_k_ratio_exits_2_naming_the_flag(tmp_path, capsys, args, ratio, via_file):
    # a ratio <= 0 names no split: it is not raised to K=2
    out = tmp_path / "x.csv"
    if via_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"K_ratio = {ratio}\n")
        argv = [*args, "--config", cfg]
    else:
        argv = [*args, "--K-ratio", ratio]
    assert run([*argv, "--out", out]) == 2
    assert f"--K-ratio must be positive, got {float(ratio)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1e-3", "-2E-1", "-.5e-1"])
def test_negative_exponent_values_read_alike_from_flags_and_config(tmp_path, value):
    # argparse's own negative-number pattern has no exponent, so it took
    # `--phi2F -1e-3` for two flags and exited 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"phi2F={value}\n")
    base = ["coercivity", "--phiF", "1", "--N-list", "16,32"]
    tables = []
    for i, argv in enumerate(([*base, "--phi2F", value], [*base, f"--phi2F={value}"], [*base, "--config", cfg])):
        out = tmp_path / f"{i}.csv"
        assert run([*argv, "--out", out]) == 0
        tables.append(lines_but_out(out))
    assert tables[0] == tables[1] == tables[2]
    assert f"# phi2F={float(value)}" in tables[0]


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
def test_negative_nonfinite_values_read_alike_from_flags_and_config(tmp_path, capsys, value):
    # argparse's own pattern, and one for -digit alone, took `--phi2F -inf` for two flags
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"phi2F={value}\n")
    out = tmp_path / "x.csv"
    base = ["coercivity", "--phiF", "1", "--N-list", "16", "--out", out]
    errors = []
    for argv in ([*base, "--phi2F", value], [*base, "--config", cfg]):
        assert run(argv) == 2
        errors.append(capsys.readouterr().err.splitlines()[0])
    assert errors[0] == errors[1] == f"error: phi2F must be finite, got {float(value)}"
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["infsup", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16", "--p-list", "-1e0,2"],
     "p must satisfy 1 <= p < inf, got -1.0"),
    (["patch-test", "--N-list", "16", "--F-list", "-1e-1,1"], "needs a positive separation"),
])
def test_negative_exponent_list_values_reach_the_run(tmp_path, capsys, args, message):
    assert run([*args, "--out", tmp_path / "x.csv"]) == 2
    assert message in capsys.readouterr().err


GC_COUNT = """
import gc, json, sys
from qcf1d.cli import main
starts = []
gc.collect()
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info["generation"]))
code = main(["patch-test", "--N-list", "2048", "--K-all", "--F-list", "0.9,0.95,1.0,1.05,1.1",
             "--out", sys.argv[1]])
print(json.dumps({"code": code, "starts": starts}))
"""


def test_patch_test_makes_no_object_per_row(tmp_path):
    # 5115 rows: a tuple per split or per row runs the collector 9 times
    # or more, and building every subcommand's options once ran it once
    out = tmp_path / "p.csv"
    proc = subprocess.run([sys.executable, "-c", GC_COUNT, str(out)], capture_output=True, text=True,
                          env=checkout_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["code"] == 0
    assert got["starts"] == []
    assert "# points_checked=5115" in out.read_text()
