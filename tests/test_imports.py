"""scipy stays out of every run that builds no operator.

Each case runs a fresh interpreter, since this test session has long
since imported scipy itself.
"""

import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import scipy.sparse

import qcf1d
from qcf1d import operators, stability

SRC = str(Path(qcf1d.__file__).resolve().parents[1])


def fresh_run(code: str, *args) -> dict:
    """Run code in a new interpreter that imports qcf1d from this checkout; it prints JSON."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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


OPERATOR_RUNS = """
import json, sys
from qcf1d import Coefficients, assemble_ea
import qcf1d.cli
E = assemble_ea(Coefficients(1.0, -0.2), 4, 0.25)
triples = E.to_triples()
code = qcf1d.cli.main(["coercivity", "--phiF", "1", "--phi2F", "-0.2",
                       "--N-list", "16,32", "--out", sys.argv[1]])
print(json.dumps({"triples": triples[:3], "nnz": len(triples), "code": code,
                  "sparse_loaded": "scipy.sparse" in sys.modules}))
"""


def test_operator_build_and_coercivity_load_scipy_sparse(tmp_path):
    got = fresh_run(OPERATOR_RUNS, tmp_path / "c.csv")
    # bonds -3..4: phiF + phi2F * [1,1] corner rows and [1,2,1] band rows
    assert got["triples"] == [[-3, -3, 0.8], [-3, -2, -0.2], [-2, -3, -0.2]]
    assert got["nnz"] == 3 * 8 - 2
    assert got["code"] == 0 and got["sparse_loaded"]


def test_sparse_annotations_name_csr_array():
    # the annotations are import-time strings; they resolve wherever scipy is bound
    ns = {"scipy": scipy}
    assert typing.get_type_hints(operators.Operator, localns=ns)["entries"] is scipy.sparse.csr_array
    assert typing.get_type_hints(stability._square, localns=ns)["return"] is scipy.sparse.csr_array
