"""Benchmark of the `qcf1d` CLI, run the way users run it.

    python3 perfbench/run.py --workload experiments|convergence|patch|all \
        [--seed 0] [--seconds 20] [--trace 0|1]

Run it from anywhere inside a source checkout; nothing needs installing.
The CLI runs from that checkout's `src/`, one child process at a time,
with BLAS pinned to one thread.  Workloads are defined in workloads.py
and every table they write is checked against perfbench/reference/ by
check.py.

A run first probes the environment and, without --trace, times a fresh
interpreter importing `qcf1d.cli` several times (`setup_s`).  It then
repeats passes over the workload's invocations until `--seconds` is
used up, starting no pass that would overrun it, and always runs one.

--trace 0 reports the end-to-end metrics, medians over the passes:
  wall_s       spawn-to-exit seconds of the workload's CLI processes, summed
  cpu_s        user plus system CPU seconds of those processes
  peak_rss_mb  largest peak resident memory of any of them
  setup_s      seconds for a fresh interpreter to import qcf1d.cli
--trace 1 instead runs rounds of one untraced pass and one traced pass,
in which tracer.py wraps the library from outside, inside each CLI
process, and reports the per-layer metrics as medians over the rounds;
`trace.overhead_s` is traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count sweep
points (reference rows) over all passes, so error_rate = failed /
attempted.  The exit status is 0 when every output matches its
reference, 1 when one does not, and 2 when the checkout holds no qcf1d
source or the environment probe fails.  The full record of a run, with
provenance and every sample, is kept in .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tomllib
from collections import defaultdict
from dataclasses import dataclass, field
from math import log
from pathlib import Path

from check import check_table, read_table
from workloads import ROW_KEYS, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench"
PYTHON = sys.executable

# With two BLAS threads on a 2-core machine one N=128 convergence point
# ranged from 48 to 472 ms; with one thread, from 45 to 60 ms.
BLAS_PINS = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "stability.rayleigh_min_s": "s",
    "stability.infsup_2_s": "s",
    "stability.quadratic_form_s": "s",
    "stability.rdd_margin_s": "s",
    "stability.dual_norm_star_s": "s",
    "stability.self_s": "s",
    "stability.rayleigh_min.exp": "1",
    "stability.infsup_2.exp": "1",
    "solver.solve_atomistic.exp": "1",
    "operators.assemble_calls": "count",
    "operators.assemble_s": "s",
    "operators.apply_s": "s",
    "operators.dense_bytes": "B_computed",
    "solver.solve_atomistic_s": "s",
    "solver.solve_qcf_s": "s",
    "solver.truncation_error_s": "s",
    "solver.lu_flops": "flop_computed",
    "solver.failures": "count",
    "chain.force_qcf_s": "s",
    "chain.calls": "count",
    "potentials.s": "s",
    "potentials.calls": "count",
    "lattice.s": "s",
    "lattice.calls": "count",
    "scans.points": "count",
    "scans.point_s.p50": "s",
    "scans.point_s.max": "s",
    "scans.self_s": "s",
    "scans.write_table_s": "s",
    "scans.rows": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    summaries: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_PINS)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv: list, log: Path, deadline: float) -> Child:
    """Run one process to its exit and take its own resource usage."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_pass(invocations, references, tmp: Path, traced: bool, deadline: float) -> Pass:
    result = Pass()
    for i, inv in enumerate(invocations):
        out = tmp / f"out{i}.csv"
        summary = tmp / f"trace{i}.json"
        log = tmp / "stderr.txt"
        if traced:
            head = [PYTHON, str(HERE / "tracer.py"), str(summary)]
        else:
            head = [PYTHON, "-m", "qcf1d.cli"]
        child = run_child([*head, *inv.argv, "--out", str(out)], log, deadline)
        check = check_table(
            inv.command, ROW_KEYS[inv.command], out, references[inv.reference], child.returncode
        )
        if check.failed:
            print(f"check failed: qcf1d {' '.join(inv.argv)}", file=sys.stderr)
            for problem in check.problems:
                print(f"  {problem}", file=sys.stderr)
            print(log.read_text(errors="replace")[-2000:], file=sys.stderr)
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.attempted += check.attempted
        result.failed += check.failed
        result.rows += check.rows
        if traced and summary.exists():
            result.summaries.append(json.loads(summary.read_text()))
        out.unlink(missing_ok=True)
        summary.unlink(missing_ok=True)
    return result


def _merge(summaries: list) -> dict:
    merged = {
        "names": defaultdict(lambda: [0, 0.0, 0.0, 0]),
        "layers": defaultdict(lambda: [0, 0.0, 0.0, 0]),
        "points": [],
        "sized": defaultdict(list),
        "assemble": defaultdict(float),
        "lu": defaultdict(float),
    }
    for s in summaries:
        for key in ("names", "layers"):
            for name, values in s[key].items():
                merged[key][name] = [a + b for a, b in zip(merged[key][name], values)]
        merged["points"] += s["points"]
        for name, pairs in s["sized"].items():
            merged["sized"][name] += pairs
        for key in ("assemble", "lu"):
            for name, value in s[key].items():
                merged[key][name] += value
    return merged


def loglog_exponent(pairs: list) -> float:
    """Slope of log(median time) against log(size); 0 with fewer than two sizes."""
    by_size = defaultdict(list)
    for size, dur in pairs:
        if size > 0 and dur > 0:
            by_size[size].append(dur)
    if len(by_size) < 2:
        return 0.0
    sizes = sorted(by_size)
    xs = [log(s) for s in sizes]
    ys = [log(statistics.median(by_size[s])) for s in sizes]
    return statistics.linear_regression(xs, ys).slope


def layer_metrics(traced: Pass, untraced: Pass) -> dict:
    m = _merge(traced.summaries)
    names, layers = m["names"], m["layers"]

    def total(name):  # seconds inside a function, children included
        return names[name][1]

    points = m["points"]
    return {
        "stability.rayleigh_min_s": total("stability.rayleigh_min"),
        "stability.infsup_2_s": total("stability.infsup_2"),
        "stability.quadratic_form_s": total("stability.quadratic_form"),
        "stability.rdd_margin_s": total("stability.rdd_margin"),
        "stability.dual_norm_star_s": total("stability.dual_norm_star"),
        "stability.self_s": layers["stability"][2],
        "stability.rayleigh_min.exp": loglog_exponent(m["sized"]["stability.rayleigh_min"]),
        "stability.infsup_2.exp": loglog_exponent(m["sized"]["stability.infsup_2"]),
        "solver.solve_atomistic.exp": loglog_exponent(m["sized"]["solver.solve_atomistic"]),
        "operators.assemble_calls": m["assemble"]["calls"],
        "operators.assemble_s": m["assemble"]["s"],
        "operators.apply_s": total("operators.DenseOperator.apply"),
        "operators.dense_bytes": m["assemble"]["dense_bytes"],
        "solver.solve_atomistic_s": total("solver.solve_atomistic"),
        "solver.solve_qcf_s": total("solver.solve_qcf"),
        "solver.truncation_error_s": total("solver.truncation_error"),
        "solver.lu_flops": m["lu"]["flops"],
        "solver.failures": layers["solver"][3],
        "chain.force_qcf_s": total("chain.force_qcf"),
        "chain.calls": layers["chain"][0],
        "potentials.s": layers["potentials"][1],
        "potentials.calls": layers["potentials"][0],
        "lattice.s": layers["lattice"][1],
        "lattice.calls": layers["lattice"][0],
        "scans.points": len(points),
        "scans.point_s.p50": statistics.median(points) if points else 0.0,
        "scans.point_s.max": max(points, default=0.0),
        "scans.self_s": layers["scans"][2],
        "scans.write_table_s": total("scans.write_table"),
        "scans.rows": traced.rows,
        "cli.self_s": layers["cli"][2],
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(deadline: float) -> dict:
    """Versions, machine and source identity; also warms the import cache."""
    probe = subprocess.run(
        [PYTHON, str(HERE / "probe.py")],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if probe.returncode != 0:
        raise Fatal(f"environment probe failed:\n{probe.stderr[-2000:]}")
    info = json.loads(probe.stdout.splitlines()[-1])
    if Path(info["qcf1d_file"]).resolve().parent != ROOT / "src" / "qcf1d":
        raise Fatal(f"qcf1d loaded from {info['qcf1d_file']}, not from this checkout")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcf1d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        version = None
    return {
        "qcf1d_version": version,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        **{k: info[k] for k in ("python", "numpy", "scipy", "blas", "blas_threads")},
        "blas_env": BLAS_PINS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    invocations = generate(name, seed)
    references = {inv.reference: read_table(REFERENCE / inv.reference) for inv in invocations}
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup = []
        for _ in range(0 if trace else SETUP_SAMPLES):
            child = run_child([PYTHON, "-c", "import qcf1d.cli"], tmp / "stderr.txt", deadline)
            if child.returncode != 0:
                raise Fatal(f"import qcf1d.cli failed:\n{(tmp / 'stderr.txt').read_text()[-2000:]}")
            setup.append(child.wall_s)

        rounds = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            untraced = run_pass(invocations, references, tmp, False, deadline)
            traced = run_pass(invocations, references, tmp, True, deadline) if trace else None
            rounds.append((untraced, traced))
            took = time.perf_counter() - t0
            if time.perf_counter() - start + took > seconds or time.monotonic() + took > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = [p for pair in rounds for p in pair if p is not None]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        samples = [layer_metrics(t, u) for u, t in rounds]
        units = PER_LAYER_UNITS
    else:
        setup_s = statistics.median(setup)
        samples = [
            {"wall_s": u.wall_s, "cpu_s": u.cpu_s, "peak_rss_mb": u.rss_mb, "setup_s": setup_s}
            for u, _ in rounds
        ]
        units = END_TO_END_UNITS
    metrics = {
        metric: {"value": statistics.median(s[metric] for s in samples), "unit": unit}
        for metric, unit in units.items()
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "invocations": [" ".join(inv.argv) for inv in invocations],
        "rounds": len(rounds),
        "setup_samples": setup,
        "samples": samples,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qcf1d" / "cli.py").is_file():
        print(f"error: no qcf1d source at {ROOT / 'src' / 'qcf1d'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    try:
        prov = {**provenance(deadline), "seed": args.seed}
        print("provenance " + json.dumps(prov))
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace), deadline) for n in names]
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for rec in records:
        rec["provenance"] = prov
        out = WORK / "results" / f"{rec['workload']}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(rec, indent=1) + "\n")
        error_rate = rec["failed"] / rec["attempted"]
        print(
            f"{rec['workload']}: {rec['rounds']} round(s), {rec['attempted']} points checked, "
            f"{rec['failed']} failed, error_rate {error_rate:.3g}"
        )
        for metric, m in rec["metrics"].items():
            print(f"  {rec['workload']:<12} {metric:<28} {m['value']:>14.6g} {m['unit']}")

    if len(records) == 1:
        rec = records[0]
        result = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
