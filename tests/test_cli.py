import argparse
import json
import warnings

import numpy as np
import pytest

from qcf1d import cli
from qcf1d.cli import main, read_config_file
from qcf1d.scans import PatchTestRow


def run(argv):
    return main([str(a) for a in argv])


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
    assert {"command", "N_list", "K", "potential"} <= keys
    assert not keys & {"load", "p_list", "M_factor", "phiF", "phi2F"}


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
    def scan_with_nan(phi, F_values, nk_pairs):
        return [PatchTestRow(1.0, 16, 2, 0.0, 1e-11, True),
                PatchTestRow(1.0, 16, 3, float("nan"), 1e-11, False),
                PatchTestRow(1.0, 16, 4, 0.0, 1e-11, True)]

    monkeypatch.setattr(cli, "patch_test_scan", scan_with_nan)
    out = tmp_path / "x.csv"
    assert run(["patch-test", "--N-list", "16", "--K-all", "--out", out]) == 1
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


def test_dump_operator_la_row_sums(tmp_path):
    out = tmp_path / "la.csv"
    code = run(["dump-operator", "--operator", "La", "--N", "8", "--K", "2",
                "--phiF", "1", "--phi2F", "-0.1", "--out", out])
    assert code == 0
    _, _, rows = read_rows(out)
    sums = {}
    for r in rows:
        sums[r["row"]] = sums.get(r["row"], 0.0) + float(r["value"])
    assert all(abs(s) <= 1e-9 for s in sums.values())


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
        read_config_file(str(bad))
    bad.write_text("phiF\n")
    with pytest.raises(ValueError, match="expected key=value"):
        read_config_file(str(bad))


@pytest.mark.parametrize("key, args", [
    ("potential", ["--F", "1.0"]),
    ("operator", ["--phiF", "1", "--phi2F", "1"]),
])
def test_config_file_bad_choice_exits_2(tmp_path, capsys, key, args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = foo\n")
    code = run(["dump-operator", "--config", cfg, "--N", "8", "--K", "2", *args,
                "--out", tmp_path / "x.csv"])
    assert code == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_config_file_bad_format_exits_before_sweep(tmp_path, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(cli, "patch_test_scan", no_sweep)
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


COMMON_OPTIONS = {
    "-h", "--help", "--config", "--potential", "--F", "--N-list",
    "--K", "--K-ratio", "--out", "--format",
}
SPRINGS = {"--phiF", "--phi2F"}
COMMAND_OPTIONS = {
    "patch-test": {"--F-list", "--K-all"},
    "coercivity": SPRINGS,
    "infsup": SPRINGS | {"--p-list"},
    "convergence": SPRINGS | {"--load", "--M-factor"},
    "dump-operator": SPRINGS | {"--operator", "--N"},
    "eig-scan": SPRINGS,
}


def test_parser_option_strings_per_subcommand():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subs.choices) == set(COMMAND_OPTIONS)
    for command, sub in subs.choices.items():
        assert set(sub._option_string_actions) == COMMON_OPTIONS | COMMAND_OPTIONS[command]


@pytest.mark.parametrize("flag", ["--jobs", "--seed"])
def test_removed_flags_exit_2(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run(["patch-test", "--N-list", "16", flag, "1", "--out", tmp_path / "x.csv"])
    assert exc.value.code == 2


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
    upper = cli.infsup_p_upper

    def zero_at_p2(c, spec, p):
        return 0.0 if p == 2 else upper(c, spec, p)

    monkeypatch.setattr(cli, "infsup_p_upper", zero_at_p2)
    out = tmp_path / "infsup.csv"
    argv = ["infsup", "--phiF", "1", "--phi2F", "-0.05", "--N-list", "16,32",
            "--p-list", "1", "--out", out]
    assert run(argv) == 1
    _, _, rows = read_rows(out)
    assert {r["p"] for r in rows if r["kind"] == "upper_bound"} == {"1.0"}
    monkeypatch.setattr(cli, "infsup_p_upper", upper)
    assert run(argv) == 0


def test_coefficients_required(tmp_path, capsys):
    code = run(["coercivity", "--N-list", "16", "--out", tmp_path / "x.csv"])
    assert code == 2
    assert "phiF" in capsys.readouterr().err


@pytest.mark.parametrize("n_list", ["3", "16,3"])
def test_patch_test_k_all_needs_n_at_least_4(tmp_path, capsys, monkeypatch, n_list):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(cli, "patch_test_scan", no_sweep)
    out = tmp_path / "x.csv"
    assert run(["patch-test", "--N-list", n_list, "--K-all", "--out", out]) == 2
    assert "no admissible split K for N=3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via_file", [False, True])
def test_patch_test_empty_f_list_exits_2(tmp_path, capsys, monkeypatch, via_file):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(cli, "patch_test_scan", no_sweep)
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

    monkeypatch.setattr(cli, "infsup_scan", no_sweep)
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
