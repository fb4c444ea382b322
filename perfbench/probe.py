"""Print, as JSON, what a `qcf1d` CLI process runs on.

    python3 perfbench/probe.py

Imports `qcf1d.cli` as the CLI does and reports where it was loaded
from, the Python, numpy and scipy versions, and each loaded OpenBLAS
with the thread count it reports under the current environment.
"""

from __future__ import annotations

import ctypes
import json
import platform

import numpy
import scipy

import qcf1d.cli

THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, keyed by library file name."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                found[path.rsplit("/", 1)[-1]] = query()
                break
    return found


def main() -> None:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        json.dumps(
            {
                "qcf1d_file": qcf1d.cli.__file__,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "blas_threads": blas_threads(),
            }
        )
    )


if __name__ == "__main__":
    main()
