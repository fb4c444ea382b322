"""Experiment runner: every verifiable claim as a named subcommand.

Subcommands write one machine-readable table each (CSV with the full
config echoed in # comments, or JSON) and encode acceptance in the exit
status: 0 when every proved inequality and tolerance in the run holds,
1 when one fails, 2 for configuration errors.

Each option is declared once, as a RunConfig field; the flags, the
config-file keys and the echo are all derived from those fields.  Flags
can also be given in a flat key=value config file (--config); explicit
flags override file values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import DomainSpec
from .potentials import Coefficients, lennard_jones
from .scans import (
    OPERATOR_BUILDERS,
    coercivity_scan,
    coercivity_slope,
    convergence_scan_with_checks,
    eig_scan,
    infsup_scan,
    loglog_slope,
    patch_test_scan,
    write_table,
)
from .solver import LOADS, named_load
from .stability import infsup_p_upper

POTENTIALS = {"lj": lennard_jones}
# the subcommands that read spring constants through RunConfig.coefficients
COEFFICIENT_COMMANDS = ("coercivity", "infsup", "convergence", "dump-operator", "eig-scan")


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
    N_list: list = _option(_int_list, [])
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
        return max(2, int(round(ratio * n)))

    def nk_pairs(self) -> list[tuple]:
        if not self.N_list:
            raise ValueError("need --N-list")
        pairs = []
        for n in self.N_list:
            if self.K_all:
                if n < 4:
                    raise ValueError(f"no admissible split K for N={n} (--K-all needs N >= 4)")
                pairs.extend((n, k) for k in range(2, n // 2 + 1))
            else:
                pairs.append((n, self.k_for(n)))
        for n, k in pairs:
            DomainSpec(n, k)  # validates the range, K included
        return pairs

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
    cfg = RunConfig(command=args.command, **merged)
    if not cfg.out:
        raise ValueError("missing output path (--out)")
    return cfg


@dataclass(frozen=True)
class TripleRow:
    row: int
    col: int
    value: float


def cmd_patch_test(cfg: RunConfig) -> int:
    """ghost-force residuals at uniform states"""
    phi = POTENTIALS[cfg.potential]()
    if cfg.F_list == []:
        raise ValueError("need at least one strain in --F-list")
    F_values = cfg.F_list or ([cfg.F] if cfg.F is not None else [0.9, 1.0, 1.1])
    rows = patch_test_scan(phi, F_values, cfg.nk_pairs())
    ok = all(r.passed for r in rows)
    # np.max, not max: a NaN residual must show in the extras wherever it sits
    residuals = np.array([r.residual for r in rows])
    extras = {
        "max_residual": float(np.max(residuals)),
        "worst_residual_over_tol": float(np.max(residuals / [r.tolerance for r in rows])),
        "points_checked": len(rows),
        "all_passed": ok,
    }
    write_table(cfg.out, cfg.format, cfg.command, cfg.echo(), rows, extras)
    return 0 if ok else 1


def cmd_coercivity(cfg: RunConfig) -> int:
    """scan the minimum of the quadratic form"""
    c = cfg.coefficients()
    rows = coercivity_scan(c, cfg.nk_pairs())
    slope = coercivity_slope(rows)
    extras = {} if slope is None else {"slope_abs_rayleigh_vs_N": slope}
    # feasibility of the witness is the one proved relation in this scan
    ok = all(r.rayleigh_min <= r.witness_value + 1e-9 * max(1.0, abs(r.witness_value)) for r in rows)
    write_table(cfg.out, cfg.format, cfg.command, cfg.echo(), rows, extras)
    return 0 if ok else 1


def cmd_infsup(cfg: RunConfig) -> int:
    """inf-sup bounds and exact 2-norm values"""
    c = cfg.coefficients()
    if not cfg.p_list:
        raise ValueError("need at least one exponent in --p-list")
    rows = infsup_scan(c, cfg.nk_pairs(), cfg.p_list)
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
    write_table(cfg.out, cfg.format, cfg.command, cfg.echo(), rows, extras)
    return 0 if ok else 1


def cmd_convergence(cfg: RunConfig) -> int:
    """coupled-vs-reference error study"""
    c = cfg.coefficients()
    load = named_load(cfg.load)
    pairs = cfg.nk_pairs()
    checked = convergence_scan_with_checks(c, load, pairs, cfg.M_factor)
    rows = [rep for rep, _ in checked]
    ok = True
    for rep, half_t_l1 in checked:
        ok = ok and rep.err_strain_inf <= rep.bound_rhs
        ok = ok and rep.trunc_star <= rep.trunc_bound
        ok = ok and rep.trunc_star <= half_t_l1 + 1e-15
    extras = {"all_inequalities_hold": ok}
    errs = [r.err_strain_inf for r in rows]
    if len(rows) >= 2 and all(e > 0 for e in errs):
        extras["slope_err_vs_eps"] = loglog_slope([r.eps for r in rows], errs)
    write_table(cfg.out, cfg.format, cfg.command, cfg.echo(), rows, extras)
    return 0 if ok else 1


def cmd_dump_operator(cfg: RunConfig) -> int:
    """write (row,col,value) triples"""
    if not cfg.operator:
        raise ValueError("need --operator")
    n = cfg.N if cfg.N is not None else (cfg.N_list[0] if cfg.N_list else None)
    if n is None:
        raise ValueError("need --N (or --N-list) for dump-operator")
    spec = DomainSpec(n, cfg.k_for(n))
    op = OPERATOR_BUILDERS[cfg.operator](cfg.coefficients(), spec)
    rows = [TripleRow(*t) for t in op.to_triples()]
    write_table(cfg.out, cfg.format, cfg.command, cfg.echo(), rows, {})
    return 0


def cmd_eig_scan(cfg: RunConfig) -> int:
    """exploratory eigenvalue-sign scan"""
    rows = eig_scan(cfg.coefficients(), cfg.nk_pairs())
    write_table(cfg.out, cfg.format, cfg.command, cfg.echo(), rows, {})
    return 0


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
        return COMMANDS[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except RuntimeError as exc:  # solver/eigensolver failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
