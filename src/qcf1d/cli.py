"""Experiment runner: every verifiable claim as a named subcommand.

Subcommands write one machine-readable table each (CSV with the full
config echoed in # comments, or JSON) and encode acceptance in the exit
status: 0 when every proved inequality and tolerance in the run holds,
1 when one fails, 2 for configuration errors.

Each option is declared once, as a RunConfig field; the flags, the
config-file keys and the echo are all derived from those fields.  Flags
can also be given in a flat key=value config file (--config); explicit
flags override file values.

A process started as `python -m qcf1d.cli` freezes its heap once main
returns, so the interpreter's shutdown collections skip the objects
that importing numpy and qcf1d left; main itself leaves the heap alone
for in-process callers.  The stability and solver kernels load only in
the subcommands that run them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .lattice import LOADS, DomainSpec
from .potentials import Coefficients, lennard_jones
from .scans import (
    OPERATOR_BUILDERS,
    CoercivityScanRow,
    EigScanRow,
    InfSupScanRow,
    coercivity_point,
    coercivity_slope,
    columns,
    convergence_point,
    eig_point,
    infsup_point,
    loglog_slope,
    patch_test_scan,
    write_table,
)

POTENTIALS = {"lj": lennard_jones}
# the subcommands that read spring constants through RunConfig.coefficients
COEFFICIENT_COMMANDS = ("coercivity", "infsup", "convergence", "dump-operator", "eig-scan")
# pairs of options that each set the same quantity, so a run takes at most one of a pair
CONTRADICTIONS = (("K", "K_all"), ("K", "K_ratio"), ("K_ratio", "K_all"), ("F", "phiF"), ("F", "phi2F"),
                  ("F", "F_list"))


def _int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.split(",") if tok != ""]


def _float_list(s: str) -> list[float]:
    return [float(tok) for tok in s.split(",") if tok != ""]


def _bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _option(parse: Callable, default=None, choices: Optional[Sequence] = None,
            commands: Optional[tuple] = None):
    """A RunConfig field that is also a flag and a config-file key.

    parse converts the string given on the command line or in the file;
    choices, when given, lists the accepted values; commands names the
    subcommands that take the option (None: every subcommand).  A _bool
    option is a flag without a value on the command line.
    """
    meta = {"parse": parse, "choices": choices, "commands": commands}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one subcommand run."""

    command: str
    format: str = _option(str, "csv", choices=("csv", "json"))
    out: str = _option(str, "")
    phiF: Optional[float] = _option(float, commands=COEFFICIENT_COMMANDS)
    phi2F: Optional[float] = _option(float, commands=COEFFICIENT_COMMANDS)
    potential: str = _option(str, "lj", choices=sorted(POTENTIALS))
    F: Optional[float] = _option(float)
    F_list: Optional[list] = _option(_float_list, commands=("patch-test",))
    N: Optional[int] = _option(int, commands=("dump-operator",))
    N_list: list = _option(_int_list, [], commands=("patch-test", "coercivity", "infsup", "convergence", "eig-scan"))
    K: Optional[int] = _option(int)
    K_ratio: Optional[float] = _option(float)
    K_all: bool = _option(_bool, False, commands=("patch-test",))
    M_factor: int = _option(int, 4, commands=("convergence",))
    p_list: list = _option(_float_list, [1.0, 2.0, 4.0], commands=("infsup",))
    load: str = _option(str, "cospi", choices=sorted(LOADS), commands=("convergence",))
    operator: Optional[str] = _option(
        str, choices=sorted(OPERATOR_BUILDERS), commands=("dump-operator",)
    )

    def coefficients(self) -> Coefficients:
        if self.phiF is not None and self.phi2F is not None:
            return Coefficients(self.phiF, self.phi2F)
        if self.F is not None:
            return Coefficients.from_potential(POTENTIALS[self.potential](), self.F)
        raise ValueError("need either --phiF and --phi2F, or --potential with --F")

    def k_for(self, n: int) -> int:
        if self.K is not None:
            return self.K
        ratio = 0.25 if self.K_ratio is None else self.K_ratio
        if not np.isfinite(ratio):
            raise ValueError(f"--K-ratio must be finite, got {ratio}")
        if ratio <= 0:
            raise ValueError(f"--K-ratio must be positive, got {ratio}")
        return max(2, int(round(ratio * n)))

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
        for f in options(self.command):
            v = getattr(self, f.name)
            if v is not None and v != []:
                d[f.name] = v
        return d


def options(command: Optional[str] = None) -> list:
    """The settable RunConfig fields; with a command, only those it takes."""
    return [
        f
        for f in fields(RunConfig)
        if f.name != "command"
        and (command is None or f.metadata["commands"] is None or command in f.metadata["commands"])
    ]


def _parse(f, text: str):
    value = f.metadata["parse"](text)
    choices = f.metadata["choices"]
    if choices is not None and value not in choices:
        raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
    return value


def read_config_file(path: str, command: Optional[str] = None) -> dict:
    """Flat key=value file; # starts a comment.

    Keys are option names (dashes or underscores).  Values go through the
    same parser and choices as the flags, and with a command only the
    options of that subcommand are accepted.
    """
    known = {f.name: f for f in options(command)}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                scope = f" for {command}" if command else ""
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}{scope}")
            try:
                values[key] = _parse(known[key], val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --N must not mean --N-list, as the config key N does not
    parser = argparse.ArgumentParser(
        prog="qcf1d",
        description="experiments for the force-based coupled chain",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        sub = subs.add_parser(command, help=run.__doc__, allow_abbrev=False)
        sub.add_argument("--config", help="flat key=value config file; flags override it")
        for f in options(command):
            flag = "--" + f.name.replace("_", "-")
            if f.metadata["parse"] is _bool:
                sub.add_argument(flag, dest=f.name, action="store_true", default=None)
            else:
                sub.add_argument(flag, dest=f.name, type=f.metadata["parse"],
                                 choices=f.metadata["choices"], default=None)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = read_config_file(args.config, args.command) if args.config else {}
    for f in options(args.command):
        if getattr(args, f.name) is not None:
            merged[f.name] = getattr(args, f.name)
    given = {name for name, value in merged.items() if value is not False}
    for a, b in CONTRADICTIONS:
        if a in given and b in given:
            a, b = (name.replace("_", "-") for name in (a, b))
            raise ValueError(f"--{a} contradicts --{b}: give one of them")
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
    phi = POTENTIALS[cfg.potential]()
    if cfg.F_list == []:
        raise ValueError("need at least one strain in --F-list")
    F_values = cfg.F_list or ([cfg.F] if cfg.F is not None else [0.9, 1.0, 1.1])
    table = patch_test_scan(phi, F_values, cfg.splits())
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
    c = cfg.coefficients()
    rows = [coercivity_point(c, n, k) for n, k in cfg.nk_pairs()]
    slope = coercivity_slope(rows)
    extras = {} if slope is None else {"slope_abs_rayleigh_vs_N": slope}
    # feasibility of the witness is the one proved relation in this scan
    ok = all(r.rayleigh_min <= r.witness_value + 1e-9 * max(1.0, abs(r.witness_value)) for r in rows)
    return columns(CoercivityScanRow, rows), extras, ok


def cmd_infsup(cfg: RunConfig) -> tuple:
    """inf-sup bounds and exact 2-norm values"""
    from .stability import infsup_p_upper

    c = cfg.coefficients()
    if not cfg.p_list:
        raise ValueError("need at least one exponent in --p-list")
    rows = [row for n, k in cfg.nk_pairs() for row in infsup_point(c, cfg.p_list, n, k)]
    extras = {}
    by_kind = {}
    for r in rows:
        by_kind.setdefault((r.kind, r.p), []).append(r)
    for (kind, p), group in sorted(by_kind.items()):
        if len(group) >= 2 and all(g.value > 0 for g in group):
            extras[f"slope_{kind}_p{p:g}"] = loglog_slope(
                [g.N for g in group], [g.value for g in group]
            )
    # every exact value against the p=2 probe bound, whether or not --p-list writes it
    ok = all(r.value <= infsup_p_upper(c, DomainSpec(r.N, r.K), 2.0) + 1e-12
             for r in rows if r.kind == "exact")
    return columns(InfSupScanRow, rows), extras, ok


def cmd_convergence(cfg: RunConfig) -> tuple:
    """coupled-vs-reference error study"""
    from .solver import ErrorReport

    c = cfg.coefficients()
    checked = [convergence_point(c, LOADS[cfg.load], cfg.M_factor, n, k) for n, k in cfg.nk_pairs()]
    rows = [rep for rep, _, _ in checked]
    ok = True
    for rep, half_t_l1, floor in checked:
        ok = ok and rep.err_strain_inf <= rep.bound_rhs + floor
        ok = ok and rep.trunc_star <= rep.trunc_bound
        ok = ok and rep.trunc_star <= half_t_l1 + 1e-15
    extras = {"all_inequalities_hold": ok}
    errs = [r.err_strain_inf for r in rows]
    if len(rows) >= 2 and all(e > 0 for e in errs):
        extras["slope_err_vs_eps"] = loglog_slope([r.eps for r in rows], errs)
    return columns(ErrorReport, rows), extras, ok


def cmd_dump_operator(cfg: RunConfig) -> tuple:
    """write (row,col,value) triples"""
    if not cfg.operator:
        raise ValueError("need --operator")
    if cfg.N is None or cfg.N < 1:
        raise ValueError(f"need --N for dump-operator, a positive size, got {cfg.N}")
    row, col, value = OPERATOR_BUILDERS[cfg.operator](cfg.coefficients(), cfg.N, cfg.k_for(cfg.N))
    order = np.lexsort((col, row))  # row-major
    order = order[value[order] != 0.0]  # an entry that cancels is an exact zero, and is not written
    return TripleRow(row[order], col[order], value[order]), {}, True


def cmd_eig_scan(cfg: RunConfig) -> tuple:
    """exploratory eigenvalue-sign scan"""
    c = cfg.coefficients()
    return columns(EigScanRow, [eig_point(c, n, k) for n, k in cfg.nk_pairs()]), {}, True


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        table, extras, ok = COMMANDS[cfg.command](cfg)
        write_table(cfg.out, cfg.format, cfg.command, cfg.echo(), table, extras)
        return 0 if ok else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except RuntimeError as exc:  # solver/eigensolver failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    import gc

    status = main()
    # here, not in main, so in-process callers keep their heap; and not os._exit,
    # which would skip the stdio flushes and the atexit handlers
    gc.freeze()
    sys.exit(status)
