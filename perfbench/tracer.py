"""Run one `qcf1d` CLI invocation in-process with every layer call timed.

    python3 perfbench/tracer.py SUMMARY.json <qcf1d CLI arguments...>

The library stays untouched: before `qcf1d.cli.main(argv)` runs, each
public function of every `qcf1d` module (and each public method of its
public classes) is replaced by a wrapper that records a span, both where
it is defined and wherever another `qcf1d` module bound it by name
(`from .x import y`) or stored it in a module-level dict.  Each span
keeps its parent, so a layer's self time is its duration minus the time
its child spans cover.  The process exits with the CLI's status and
writes the aggregated spans to SUMMARY.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
import time

LAYERS = ("lattice", "potentials", "chain", "operators", "stability", "solver", "scans", "cli")

# Private functions the library hands out as values, so callers reach them
# without a name lookup in another module: sweep-point functions go
# through functools.partial and potential kernels sit in a PairPotential.
PRIVATE_ENTRY_POINTS = {
    "scans": re.compile(r"_\w+_point"),
    "potentials": re.compile(r"_lj_(eval|deriv1|deriv2)"),
}

# Spans whose duration is recorded against problem size for a log-log fit.
SIZED = ("stability.rayleigh_min", "stability.infsup_2", "solver.solve_atomistic")


class Recorder:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end, raised]
        self.stack = []
        self.sizes = {}  # span index -> problem size
        self.dense_bytes = {}  # span index -> 8*rows*cols of the result
        self.lu_flops = 0.0
        self.lu_calls = 0

    def wrap(self, fn, name):
        sized = name in SIZED
        assembles = name.startswith("operators.assemble_")
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if sized:
                self.sizes[idx] = _problem_size(args)
            if assembles:
                self.dense_bytes[idx] = _dense_bytes(result)
            return result

        return traced

    def count_lu(self, lu_factor):
        @functools.wraps(lu_factor)
        def counted(a, *args, **kwargs):
            n = len(a)
            self.lu_calls += 1
            self.lu_flops += 2.0 / 3.0 * n**3
            return lu_factor(a, *args, **kwargs)

        return counted


def _problem_size(args) -> int:
    """N of a DomainSpec, or the length of the first field or matrix."""
    for a in args:
        n = getattr(a, "N", None)
        if isinstance(n, int):
            return n
        shape = getattr(getattr(a, "values", getattr(a, "entries", a)), "shape", ())
        if shape:
            return shape[0]
    return 0


def _dense_bytes(result) -> int:
    """Computed bytes of a dense operator: 8 * rows * cols, 0 otherwise."""
    entries = getattr(result, "entries", result)
    shape = getattr(entries, "shape", ())
    if len(shape) == 2 and not hasattr(entries, "nnz"):
        return 8 * shape[0] * shape[1]
    return 0


def install(rec: Recorder) -> None:
    modules = {layer: importlib.import_module(f"qcf1d.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        private = PRIVATE_ENTRY_POINTS.get(layer)
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if not name.startswith("_") or (private and private.fullmatch(name)):
                    wrappers[obj] = rec.wrap(obj, f"{layer}.{name}")
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, member in list(vars(obj).items()):
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        setattr(obj, attr, rec.wrap(member, f"{layer}.{name}.{attr}"))
    for mod in [importlib.import_module("qcf1d"), *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]
    import scipy.linalg

    scipy.linalg.lu_factor = rec.count_lu(scipy.linalg.lu_factor)


def summarize(rec: Recorder) -> dict:
    spans = rec.spans
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    names = {}  # name -> calls, total_s, self_s, raised
    layers = {}  # layer -> entries from outside, their total_s, self_s, raised
    points = []
    sized = {name: [] for name in SIZED}
    assemble = {"calls": 0, "s": 0.0, "dense_bytes": 0}
    for i, (name, parent, t0, t1, raised) in enumerate(spans):
        dur = t1 - t0
        own = dur - child_s[i]
        layer = name.split(".", 1)[0]
        pname = spans[parent][0] if parent >= 0 else ""
        s = names.setdefault(name, [0, 0.0, 0.0, 0])
        s[0] += 1
        s[1] += dur
        s[2] += own
        s[3] += raised
        entry = layers.setdefault(layer, [0, 0.0, 0.0, 0])
        entry[2] += own
        if pname.split(".", 1)[0] != layer:
            entry[0] += 1
            entry[1] += dur
            entry[3] += raised
        if layer == "scans" and name.endswith("_point"):
            points.append(dur)
        if name in sized:
            sized[name].append([rec.sizes.get(i, 0), dur])
        if i in rec.dense_bytes and not pname.startswith("operators.assemble_"):
            assemble["calls"] += 1
            assemble["s"] += dur
            assemble["dense_bytes"] += rec.dense_bytes[i]
    return {
        "names": names,
        "layers": layers,
        "points": points,
        "sized": sized,
        "assemble": assemble,
        "lu": {"calls": rec.lu_calls, "flops": rec.lu_flops},
    }


def main(argv: list) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    import qcf1d.cli

    try:
        return qcf1d.cli.main(cli_args)
    finally:
        with open(summary_path, "w") as fh:
            json.dump(summarize(rec), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
