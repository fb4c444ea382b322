"""No subcommand loads scipy, nor numpy.random: qcf1d runs on numpy's core and linalg alone.

Every solve, eigen- and singular-value kernel runs on the bordered
strain solve, and the sparse operators are numpy (row, col, value)
arrays.  Only the dense test oracles use scipy.  And every public
function of the library, and every method of its public classes, is
run by some subcommand.

Nor does a subcommand load a kernel it does not run: only patch-test
loads the chain module, patch-test never loads the operators module,
and patch-test and dump-operator never load the solver or stability
modules.  Both `qcf1d` and `python -m qcf1d.cli` freeze the heap before
they exit.

Each case runs a fresh interpreter, since this test session has long
since imported scipy itself.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcf1d

SRC = str(Path(qcf1d.__file__).resolve().parents[1])


def fresh_run(code: str, *args) -> dict:
    """Run code in a new interpreter that imports qcf1d from this checkout; it prints JSON."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = """
import json, sys
from importlib import import_module
import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "qcf1d")))
"""


@pytest.mark.parametrize("module", ["lattice", "potentials"])
def test_importing_one_module_loads_no_other(module):
    # the package re-exports nothing, so each module loads only what it imports
    assert fresh_run(LOADED, f"qcf1d.{module}") == ["qcf1d", f"qcf1d.{module}"]


PATCH_TEST = """
import json, sys
import qcf1d, qcf1d.cli
after_import = sorted(m for m in sys.modules if m.startswith("scipy"))
code = qcf1d.cli.main(["patch-test", "--N-list", "16", "--K-all", "--out", sys.argv[1]])
after_run = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"code": code, "after_import": after_import, "after_run": after_run}))
"""


def test_import_and_patch_test_load_no_scipy(tmp_path):
    out = tmp_path / "p.csv"
    got = fresh_run(PATCH_TEST, out)
    assert got == {"code": 0, "after_import": [], "after_run": []}
    assert "# all_passed=1" in out.read_text()


CONVERGENCE = """
import json, sys
import qcf1d.cli
code = qcf1d.cli.main(["convergence", "--phiF", "1", "--phi2F", "-0.05", "--N-list", "16,32",
                       "--K-ratio", "0.25", "--M-factor", "4", "--load", "cospi",
                       "--out", sys.argv[1]])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_convergence_loads_no_scipy(tmp_path):
    out = tmp_path / "conv.csv"
    assert fresh_run(CONVERGENCE, out) == {"code": 0, "scipy": []}
    assert "# all_inequalities_hold=1" in out.read_text()


STABILITY_RUNS = """
import json, sys
import qcf1d.cli
runs = [
    ["coercivity", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32"],
    ["infsup", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32", "--p-list", "1,2,4"],
    ["dump-operator", "--operator", "Eqcf", "--N", "8", "--K", "2", "--phiF", "1", "--phi2F", "1"],
    ["eig-scan", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32"],
]
codes = [qcf1d.cli.main(argv + ["--out", f"{sys.argv[1]}/{argv[0]}.csv"]) for argv in runs]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_stability_commands_load_no_scipy(tmp_path):
    assert fresh_run(STABILITY_RUNS, tmp_path) == {"codes": [0, 0, 0, 0], "scipy": []}
    rows = {path.stem: path.read_text().splitlines() for path in tmp_path.glob("*.csv")}
    assert rows["coercivity"][-2].startswith("16,4,")
    assert sum(line.startswith("32,8,2.0,exact,") for line in rows["infsup"]) == 1
    assert len(rows["dump-operator"]) > 20 and len(rows["eig-scan"]) > 2


EVERY_SUBCOMMAND = """
import json, sys
import qcf1d.cli
runs = [
    ["patch-test", "--N-list", "16", "--K-all", "--F-list", "0.9,1.1"],
    ["coercivity", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32"],
    ["infsup", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32", "--p-list", "1,2,4"],
    ["convergence", "--phiF", "1", "--phi2F", "-0.05", "--N-list", "16,32", "--K-ratio", "0.25",
     "--M-factor", "4", "--load", "cospi"],
    ["dump-operator", "--operator", "Eqcf", "--N", "8", "--K", "2", "--phiF", "1", "--phi2F", "1"],
    ["eig-scan", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "16,32"],
]
codes = [qcf1d.cli.main(argv + ["--out", f"{sys.argv[1]}/{argv[0]}.csv"]) for argv in runs]
print(json.dumps({"codes": codes, "numpy.random": "numpy.random" in sys.modules}))
"""


def test_no_subcommand_loads_numpy_random(tmp_path):
    # numpy imports numpy.random lazily; loading it costs every process
    # about 6 MB, and no table needs a random number
    assert fresh_run(EVERY_SUBCOMMAND, tmp_path) == {"codes": [0] * 6, "numpy.random": False}


EVERY_FUNCTION = """
import inspect, json, pkgutil, sys
from importlib import import_module
import qcf1d, qcf1d.cli
out = sys.argv[1]
public = {}  # code object -> name of each public function, and each function a public class defines
for info in pkgutil.iter_modules(qcf1d.__path__):
    module = import_module(f"qcf1d.{info.name}")
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            public[obj.__code__] = f"{info.name}.{name}"
        elif inspect.isclass(obj):
            # methods, dunders, properties and classmethods written in the module,
            # not those NamedTuple generates
            for attr, member in vars(obj).items():
                fn = getattr(member, "fget", getattr(member, "__func__", member))
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    public[fn.__code__] = f"{info.name}.{name}.{attr}"
with open(f"{out}/run.cfg", "w") as fh:
    fh.write("phiF=1\\nphi2F=-0.2\\nN-list=16,32\\n")
coefficients = ["--phiF", "1", "--phi2F", "-0.2"]
runs = [
    ["patch-test", "--N-list", "16", "--K-all", "--F-list", "0.9,1.1"],
    ["coercivity", *coefficients, "--N-list", "16,32"],
    ["infsup", *coefficients, "--N-list", "16,32", "--p-list", "1,2,4", "--format", "json"],
    ["convergence", "--phiF", "1", "--phi2F", "-0.05", "--N-list", "16,32", "--load", "cospi"],
    ["eig-scan", *coefficients, "--N-list", "16,32"],
    ["coercivity", "--config", f"{out}/run.cfg"],
] + [["dump-operator", "--operator", op, "--N", "8", "--K", "2", *coefficients]
     for op in ("Ea", "Eqcf")]
called = set()
sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
codes = [qcf1d.cli.main(argv + ["--out", f"{out}/{i}.out"]) for i, argv in enumerate(runs)]
sys.setprofile(None)
print(json.dumps({"codes": codes, "never_called": sorted(public[c] for c in public.keys() - called)}))
"""


def test_every_library_function_runs_in_a_subcommand(tmp_path):
    # src/ holds only what a subcommand runs; test-only oracles live in
    # tests/oracles.py
    got = fresh_run(EVERY_FUNCTION, tmp_path)
    assert got == {"codes": [0] * 8, "never_called": []}


FOOTPRINT = """
import sys
import qcf1d.cli
kernels = ("qcf1d.chain", "qcf1d.operators", "qcf1d.solver", "qcf1d.stability")
imported = sorted(m for m in (*kernels, "json", "numpy", "dataclasses", "copy") if m in sys.modules)
argv = sys.argv[2:]
code = qcf1d.cli.main(argv + ["--out", f"{sys.argv[1]}/{argv[0]}.csv"])
import json
print(json.dumps({"import": imported, "run": [code, sorted(m for m in kernels if m in sys.modules)]}))
"""

SPRINGS = ["--phiF", "1", "--phi2F", "-0.2"]
FOOTPRINT_RUNS = {
    "patch-test": ["--N-list", "16", "--K-all"],
    "coercivity": [*SPRINGS, "--N-list", "16,32"],
    "infsup": [*SPRINGS, "--N-list", "16,32", "--p-list", "1,2"],
    "convergence": ["--phiF", "1", "--phi2F", "-0.05", "--N-list", "16,32"],
    "dump-operator": ["--operator", "Eqcf", "--N", "8", "--K", "2", "--phiF", "1", "--phi2F", "1"],
    "eig-scan": [*SPRINGS, "--N-list", "16"],
}


def test_a_subcommand_loads_only_the_kernels_it_runs(tmp_path):
    # each subcommand in a fresh process: only patch-test evaluates forces, and
    # it alone never reads a strain stencil; only the stability claims load
    # stability, and only convergence the solver.  The records are NamedTuples
    # and the options one table, so neither dataclasses nor the copy module it
    # imports is loaded
    got = {command: fresh_run(FOOTPRINT, tmp_path, command, *argv) for command, argv in FOOTPRINT_RUNS.items()}
    runs = {
        "patch-test": ["qcf1d.chain"],
        "coercivity": ["qcf1d.operators", "qcf1d.stability"],
        "infsup": ["qcf1d.operators", "qcf1d.stability"],
        "convergence": ["qcf1d.operators", "qcf1d.solver"],
        "dump-operator": ["qcf1d.operators"],
        "eig-scan": ["qcf1d.operators"],
    }
    assert got == {command: {"import": ["numpy"], "run": [0, loaded]} for command, loaded in runs.items()}


AS_MAIN = """
import gc, json, runpy, sys
sys.argv = ["qcf1d", *sys.argv[1:]]
code = None
try:
    runpy.run_module("qcf1d.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "frozen": gc.get_freeze_count() > 0}))
"""


@pytest.mark.parametrize("argv,code", [
    (["patch-test", "--N-list", "16", "--K-all"], 0),
    (["patch-test", "--N-list", "16", "--K", "3", "--K-all"], 2),  # a configuration error
])
def test_the_module_entry_freezes_the_heap_before_exit(tmp_path, argv, code):
    # the interpreter's shutdown collections then skip the import heap
    got = fresh_run(AS_MAIN, *argv, "--out", tmp_path / "p.csv")
    assert got == {"code": code, "frozen": True}


AS_CONSOLE_SCRIPT = """
import gc, json, sys
from importlib import import_module
module, name = sys.argv[1].split(":")
sys.argv = ["qcf1d", *sys.argv[2:]]
code = None
try:
    getattr(import_module(module), name)()
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "frozen": gc.get_freeze_count() > 0}))
"""


def test_the_console_script_freezes_the_heap_before_exit(tmp_path):
    # the qcf1d command runs pyproject.toml's target, so it pays no more at exit than python -m
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
    (target,) = re.findall(r'^qcf1d = "(.+)"$', pyproject, re.M)
    got = fresh_run(AS_CONSOLE_SCRIPT, target, "patch-test", "--N-list", "16", "--K-all",
                    "--out", tmp_path / "p.csv")
    assert got == {"code": 0, "frozen": True}


def test_no_source_file_uses_dataclasses():
    # one record idiom: typing.NamedTuple, with a validating subclass where a record checks its values
    sources = sorted(Path(SRC, "qcf1d").glob("*.py"))
    assert sources and not [p.name for p in sources if "dataclass" in p.read_text()]
