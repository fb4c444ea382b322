"""Experiment runner: every verifiable claim as a named subcommand.

Subcommands write one machine-readable table each (CSV with the full
config echoed in # comments, or JSON) and encode acceptance in the exit
status: 0 when every proved inequality and tolerance in the run holds,
1 when one fails, 2 for configuration errors.

Each option is declared once, in the OPTIONS table; the flags, the
config-file keys, the RunConfig fields and the echo all read it.  Flags
can also be given in a config file (--config): a flat key=value file, or
a CSV table, whose echo re-runs it; explicit flags override file values.

A `qcf1d` or `python -m qcf1d.cli` process freezes its heap once main
returns, so the interpreter's shutdown collections skip the objects
that importing numpy and qcf1d left; main itself leaves the heap alone
for in-process callers.  Each claim's subcommand builds its rows from
the kernels and checks them in its one cmd_* function; the chain,
operator, stability and solver kernels load only in the subcommands
that run them.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .lattice import LOADS, DomainSpec, lp_norm, uniform_positions
from .potentials import Coefficients, lj_deriv1
from .scans import (
    CoercivityScanRow,
    EigScanRow,
    InfSupScanRow,
    PatchTestRow,
    columns,
    loglog_slope,
    write_table,
)

# the subcommands that read spring constants through RunConfig.coefficients
COEFFICIENT_COMMANDS = ("coercivity", "infsup", "convergence", "dump-operator", "eig-scan")
# the patch test's residual allowance, relative to the pair forces' scale over eps
PATCH_TEST_TOL = 1e-13
# the options that each name the split rule: the config file names at most one, the flags at
# most one, and the flags' rule replaces the file's
SPLIT_RULE = ("K", "K_ratio", "K_all")


def _items(s: str) -> list[str]:
    """The items of a comma list, bare (16,32) or as a table's echo writes it ([16, 32])."""
    bracketed = s.startswith("[") and s.endswith("]")
    return [tok for tok in (s[1:-1] if bracketed else s).split(",") if tok != ""]


def _int_list(s: str) -> list[int]:
    return [int(tok) for tok in _items(s)]


def _float_list(s: str) -> list[float]:
    return [float(tok) for tok in _items(s)]


def _bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


class Option(NamedTuple):
    """A RunConfig field that is also a flag and a config-file key.

    parse converts the string given on the command line or in the file;
    choices, when given, lists the accepted values; commands names the
    subcommands that take the option (None: every subcommand).  A _bool
    option is a flag without a value on the command line.
    """

    name: str
    parse: Callable
    default: object = None
    choices: Optional[Sequence] = None
    commands: Optional[tuple] = None


OPTIONS = (
    Option("format", str, "csv", ("csv", "json")),
    Option("out", str, ""),
    Option("phiF", float, commands=COEFFICIENT_COMMANDS),
    Option("phi2F", float, commands=COEFFICIENT_COMMANDS),
    Option("F_list", _float_list, [0.9, 1.0, 1.1], commands=("patch-test",)),
    Option("N", int, commands=("dump-operator",)),
    Option("N_list", _int_list, [], commands=("patch-test", "coercivity", "infsup", "convergence", "eig-scan")),
    Option("K", int),
    Option("K_ratio", float, 0.25),
    Option("K_all", _bool, False, commands=("patch-test",)),
    Option("M_factor", int, 4, commands=("convergence",)),
    Option("p_list", _float_list, [1.0, 2.0, 4.0], commands=("infsup",)),
    Option("load", str, "cospi", sorted(LOADS), ("convergence",)),
    Option("operator", str, None, ("Ea", "Eqcf"), ("dump-operator",)),
)


class RunConfig(NamedTuple("RunConfig", [("command", str), *((o.name, object) for o in OPTIONS)])):
    """Resolved configuration of one subcommand run: the command, and one field per option."""

    __slots__ = ()

    def __new__(cls, command: str, **values):
        fields = [values.pop(o.name, o.default) for o in OPTIONS]
        if values:
            raise TypeError(f"unknown options {sorted(values)}")
        # a copy of each list, so that no two runs share one
        return super().__new__(cls, command, *(list(v) if isinstance(v, list) else v for v in fields))

    def coefficients(self) -> Coefficients:
        if self.phiF is None or self.phi2F is None:
            raise ValueError("need --phiF and --phi2F")
        return Coefficients(self.phiF, self.phi2F)

    def k_for(self, n: int) -> int:
        if self.K is not None:
            return self.K
        if not np.isfinite(self.K_ratio):
            raise ValueError(f"--K-ratio must be finite, got {self.K_ratio}")
        if self.K_ratio <= 0:
            raise ValueError(f"--K-ratio must be positive, got {self.K_ratio}")
        return max(2, int(round(self.K_ratio * n)))

    def splits(self) -> list[tuple]:
        """(N, the splits K run at N) for each N of --N-list, in order; --K-all's splits are a range."""
        if not self.N_list:
            raise ValueError("need --N-list")
        runs = []
        for n in self.N_list:
            if self.K_all:
                # every K in 2..N//2 is admissible once N >= 4
                if n < 4:
                    raise ValueError(f"no admissible split K for N={n} (--K-all needs N >= 4)")
                runs.append((n, range(2, n // 2 + 1)))
            else:
                k = self.k_for(n)
                DomainSpec(n, k)  # validates the range, K included
                runs.append((n, [k]))
        return runs

    def nk_pairs(self) -> list[tuple]:
        return [(n, k) for n, ks in self.splits() for k in ks]

    def echo(self) -> dict:
        d = {"command": self.command}
        for o in options(self.command):
            v = getattr(self, o.name)
            if v is not None and v != []:
                d[o.name] = v
        return d


def options(command: str) -> list:
    """The options command takes."""
    return [o for o in OPTIONS if o.commands is None or command in o.commands]


def _parse(o: Option, text: str):
    value = o.parse(text)
    if o.choices is not None and value not in o.choices:
        raise ValueError(f"{value!r} is not one of {', '.join(o.choices)}")
    return value


def read_config_file(path: str, command: str) -> dict:
    """Flat key=value file; # starts a comment.  Or a CSV table, whose first line is `# qcf1d <command>`.

    Keys are the names (dashes or underscores) of the options command
    takes.  Values go through the same parser and choices as the flags.  A
    table of the command is read up to its CSV header, skipping the echo's
    keys that name no option.
    """
    known = {o.name: o for o in options(command)}
    table = None
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1 and raw.startswith("# qcf1d "):
                table = raw[len("# qcf1d "):].strip()
                if table != command:
                    raise ValueError(f"{path}:1: a table of {table}, not of {command}")
                continue
            if table is not None and not raw.startswith("#"):
                break  # the table's CSV header: its echo is over
            line = (raw.split("#", 1)[0] if table is None else raw[1:]).strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                if table is not None and key not in {o.name for o in OPTIONS}:
                    continue  # the echo's command, or one of its extras
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} for {command}")
            try:
                values[key] = _parse(known[key], val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """Every subcommand with its help; only command's subparser takes its options."""
    # no abbreviations: --N must not mean --N-list, as the config key N does not
    parser = argparse.ArgumentParser(
        prog="qcf1d",
        description="experiments for the force-based coupled chain",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, run in COMMANDS.items():
        sub = subs.add_parser(name, help=run.__doc__, allow_abbrev=False)
        if name != command:
            continue
        # a token that starts with -digit or -.digit, or is -inf, -infinity or -nan in
        # any case, is a value: argparse's own pattern has no exponent and no non-finite
        # form, and would read --phi2F -1e-3 or --phi2F -inf as two flags
        sub._negative_number_matcher = re.compile(r"-\.?\d|-(?:inf|infinity|nan)$", re.IGNORECASE)
        sub.set_defaults(parser=sub)  # main prints its usage under a configuration error
        sub.add_argument("--config", help="flat key=value file, or a qcf1d CSV table; flags override it")
        for o in options(command):
            flag = "--" + o.name.replace("_", "-")
            if o.parse is _bool:
                sub.add_argument(flag, dest=o.name, action="store_true", default=None)
            else:
                sub.add_argument(flag, dest=o.name, type=o.parse, choices=o.choices, default=None)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    flags = {o.name: getattr(args, o.name) for o in options(args.command) if getattr(args, o.name) is not None}
    merged = {}
    for source in (read_config_file(args.config, args.command) if args.config else {}, flags):
        rule = [name for name in SPLIT_RULE if source.get(name, False) is not False]  # K_all = no names none
        if len(rule) > 1:
            a, b = (name.replace("_", "-") for name in rule[:2])
            raise ValueError(f"--{a} contradicts --{b}: give one of them")
        merged = {name: v for name, v in merged.items() if not (rule and name in SPLIT_RULE)} | source
    if "K" in merged or merged.get("K_all"):
        merged["K_ratio"] = None  # so the echo names only the split rule the run used
    cfg = RunConfig(command=args.command, **merged)
    if not cfg.out:
        raise ValueError("missing output path (--out)")
    return cfg


class TripleRow(NamedTuple):
    row: int
    col: int
    value: float


def cmd_patch_test(cfg: RunConfig) -> tuple:
    """ghost-force residuals at uniform states"""
    from .chain import max_abs_force_qcf

    if not cfg.F_list:
        raise ValueError("need at least one strain in --F-list")
    splits, points = cfg.splits(), []
    for F in cfg.F_list:
        for n, ks in splits:
            # one point per (F, N): the forces are evaluated once for all its splits
            eps = DomainSpec(n, ks[0]).eps
            y = uniform_positions(F, n, eps)
            slopes = float(lj_deriv1(F)), float(lj_deriv1(2.0 * F))
            if not np.all(np.isfinite(slopes)):
                raise ValueError(f"phi'(F) and phi'(2F) must be finite, got {slopes} at F={F}")
            k = np.asarray(ks)
            residual = max_abs_force_qcf(y, k, lj_deriv1)
            scale = max(1.0, abs(slopes[0]) + abs(slopes[1]))
            tol = PATCH_TEST_TOL * scale / eps
            # F, N and the tolerance repeat along the point's splits
            points.append(
                PatchTestRow(np.full(k.size, F), np.full(k.size, n), k, residual, np.full(k.size, tol), residual <= tol)
            )
    table = PatchTestRow._make(map(np.concatenate, zip(*points)))
    ok = bool(np.all(table.passed))
    # np.max, not max: a NaN residual must show in the extras wherever it sits
    extras = {
        "max_residual": float(np.max(table.residual)),
        "worst_residual_over_tol": float(np.max(table.residual / table.tolerance)),
        "points_checked": len(table.residual),
        "all_passed": ok,
    }
    return table, extras, ok


def cmd_coercivity(cfg: RunConfig) -> tuple:
    """scan the minimum of the quadratic form"""
    from .stability import quadratic_form, rayleigh_min, unstable_candidate

    c = cfg.coefficients()
    rows = []
    for n, k in cfg.nk_pairs():
        spec = DomainSpec(n, k)
        # the Rayleigh minimum next to the value at the explicit spike candidate
        witness = min(quadratic_form(c, spec, unstable_candidate(spec, sign)) for sign in "+-")
        rows.append(CoercivityScanRow(n, k, rayleigh_min(c, spec), witness))
    neg = [r for r in rows if r.rayleigh_min < 0.0]
    extras = {}
    if len(neg) >= 2:
        extras["slope_abs_rayleigh_vs_N"] = loglog_slope([r.N for r in neg], [abs(r.rayleigh_min) for r in neg])
    # feasibility of the witness is the one proved relation in this scan; allowances scale with c.unit()
    ok = all(r.rayleigh_min <= r.witness_value + 1e-9 * max(c.unit()[1], abs(r.witness_value)) for r in rows)
    return columns(CoercivityScanRow, rows), extras, ok


def cmd_infsup(cfg: RunConfig) -> tuple:
    """inf-sup bounds and exact 2-norm values"""
    from .operators import strain_stencil
    from .stability import infsup_2, infsup_p_upper

    c = cfg.coefficients()
    if not cfg.p_list:
        raise ValueError("need at least one exponent in --p-list")
    for p in cfg.p_list:  # before any sweep point, though infsup_p_upper checks p too
        if not 1.0 <= p < np.inf:
            raise ValueError(f"--p-list: p must satisfy 1 <= p < inf, got {p}")
    if c.phi2F == 0.0:  # likewise: the exit status reads the p=2 bound at every point
        raise ValueError("--phi2F: the probe upper bound needs phi2F != 0")
    rows, ok = [], True
    for n, k in cfg.nk_pairs():
        spec = DomainSpec(n, k)
        exact = infsup_2(c, spec)  # before the margin, whose freed temporaries would raise its peak
        # a certified lower bound, the exact 2-norm value and the probe upper bounds
        rows.append(InfSupScanRow(n, k, np.inf, "lower_bound", 0.5 * strain_stencil(n, k).rdd_margin(c).gamma))
        rows.append(InfSupScanRow(n, k, 2.0, "exact", exact))
        rows += [InfSupScanRow(n, k, float(p), "upper_bound", infsup_p_upper(c, spec, p)) for p in cfg.p_list]
        # the exact value against the p=2 probe bound, whether or not --p-list writes it
        ok = ok and exact <= infsup_p_upper(c, spec, 2.0) + 1e-12 * c.unit()[1]
    extras = {}
    by_kind = {}
    for r in rows:
        by_kind.setdefault((r.kind, r.p), []).append(r)
    for (kind, p), group in sorted(by_kind.items()):
        if len(group) >= 2 and all(g.value > 0 for g in group):
            extras[f"slope_{kind}_p{p:g}"] = loglog_slope(
                [g.N for g in group], [g.value for g in group]
            )
    return columns(InfSupScanRow, rows), extras, ok


def cmd_convergence(cfg: RunConfig) -> tuple:
    """coupled-vs-reference error study"""
    from .operators import UNIT_ROUNDOFF
    from .solver import ErrorReport, error_report_detailed

    c = cfg.coefficients()
    rows, ok = [], True
    for n, k in cfg.nk_pairs():
        spec = DomainSpec(n, k, M=cfg.M_factor * n)
        # t is the truncation error, floor the strain solves' rounding floor
        rep, t, floor = error_report_detailed(c, LOADS[cfg.load], spec)
        rows.append(rep)
        ok = ok and rep.err_strain_inf <= rep.bound_rhs + floor
        ok = ok and rep.trunc_star <= rep.trunc_bound
        # trunc_star's suffix sums and the 1-norm each sum the t.size = 2N+1 entries of t, so
        # the two round by less than 2 t.size u ||t||_1 together (Higham, ch. 4)
        ok = ok and rep.trunc_star <= (0.5 + 2.0 * t.size * UNIT_ROUNDOFF) * lp_norm(t, spec.eps, 1)
    extras = {"all_inequalities_hold": ok}
    errs = [r.err_strain_inf for r in rows]
    if len(rows) >= 2 and all(e > 0 for e in errs):
        extras["slope_err_vs_eps"] = loglog_slope([r.eps for r in rows], errs)
    return columns(ErrorReport, rows), extras, ok


def cmd_dump_operator(cfg: RunConfig) -> tuple:
    """write (row,col,value) triples"""
    from .operators import strain_stencil

    if not cfg.operator:
        raise ValueError("need --operator")
    if cfg.N is None or cfg.N < 1:
        raise ValueError(f"need --N for dump-operator, a positive size, got {cfg.N}")
    c, n, k = cfg.coefficients(), cfg.N, cfg.k_for(cfg.N)
    # Ea's band covers every bond; only Eqcf reads K, whose range DomainSpec checks
    row, col, value = strain_stencil(n, n - 1 if cfg.operator == "Ea" else DomainSpec(n, k).K).entries(c)
    order = np.lexsort((col, row))  # row-major
    order = order[value[order] != 0.0]  # an entry that cancels is an exact zero, and is not written
    return TripleRow(row[order] - n + 1, col[order] - n + 1, value[order]), {}, True  # indexed by bond


def cmd_eig_scan(cfg: RunConfig) -> tuple:
    """exploratory eigenvalue-sign scan"""
    from .operators import strain_stencil

    c = cfg.coefficients()
    rows = []
    for n, k in cfg.nk_pairs():
        ev = strain_stencil(n, k).conjugate_eigenvalues(c)
        rows.append(
            EigScanRow(
                n,
                k,
                float(ev.real.min()),
                float(np.abs(ev.imag).max()),
                int(np.sum(ev.real <= 0.0)),
            )
        )
    return columns(EigScanRow, rows), {}, True


# each run returns (table, extras, ok); main writes the table and maps ok to the exit status
COMMANDS = {
    "patch-test": cmd_patch_test,
    "coercivity": cmd_coercivity,
    "infsup": cmd_infsup,
    "convergence": cmd_convergence,
    "dump-operator": cmd_dump_operator,
    "eig-scan": cmd_eig_scan,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser takes no option but --help, so its first other token names the subcommand
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        table, extras, ok = COMMANDS[cfg.command](cfg)
        write_table(cfg.out, cfg.format, cfg.command, cfg.echo(), table, extras)
        return 0 if ok else 1
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # numerical failures, ahead of ValueError: LinAlgError is one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        args.parser.print_usage(sys.stderr)
        return 2


def _entry() -> None:  # the console script's and `python -m qcf1d.cli`'s
    import gc

    status = main()
    # here, not in main, so in-process callers keep their heap; and not os._exit,
    # which would skip the stdio flushes and the atexit handlers
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    _entry()
