"""Workload definitions: fixed lists of `qcf1d` CLI invocations.

Each invocation names the reference table its output is checked against
(under perfbench/reference/) and the columns that identify a row.  The
`--out` flag is added by the runner, which writes every table to a
scratch directory inside the checkout.

The N ladders, and so the work, are the same for every seed.  Seed 0
runs each workload exactly as written below.  Any other seed shuffles
the order of the invocations of a workload and the order of the values
of `--F-list` and `--p-list`; rows are matched by key, so the checks and
the work do not change.  The seed is never passed to the CLI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

ROW_KEYS = {
    "patch-test": ("F", "N", "K"),
    "coercivity": ("N", "K"),
    "infsup": ("N", "K", "p", "kind"),
    "convergence": ("N", "K", "M"),
    "dump-operator": ("row", "col"),
    "eig-scan": ("N", "K"),
}

# list-valued flags whose order changes neither the rows nor the work
SHUFFLED_FLAGS = ("--F-list", "--p-list")


@dataclass(frozen=True)
class Invocation:
    reference: str  # path relative to perfbench/reference/
    argv: tuple  # CLI arguments without --out

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bypasses: str
    invocations: tuple


def _inv(reference: str, line: str) -> Invocation:
    return Invocation(reference, tuple(line.split()))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="experiments",
            why=(
                "the six commands of scripts/run_experiments.sh with their exact "
                "parameters: what users run and the end-to-end target"
            ),
            # About 73% of a pass is `stability`: rayleigh_min at N=2048
            # (coercivity) and infsup_2 at N=1024 (infsup).
            bypasses="nothing: every module runs, at small N outside stability",
            invocations=(
                _inv(
                    "experiments/patch_test.csv",
                    "patch-test --N-list 16,32,64 --K-all --F-list 0.9,0.95,1.0,1.05,1.1",
                ),
                _inv(
                    "experiments/coercivity.csv",
                    "coercivity --phiF 1 --phi2F -0.2 --N-list 256,512,1024,2048 --K-ratio 0.25",
                ),
                _inv(
                    "experiments/infsup.csv",
                    "infsup --phiF 1 --phi2F -0.2 --N-list 64,128,256,512,1024 "
                    "--K-ratio 0.25 --p-list 1,2,4",
                ),
                _inv(
                    "experiments/convergence.csv",
                    "convergence --phiF 1 --phi2F -0.05 --N-list 16,32,64,128 "
                    "--K-ratio 0.25 --M-factor 4 --load cospi",
                ),
                _inv(
                    "experiments/eqcf_n8_k2.csv",
                    "dump-operator --operator Eqcf --N 8 --K 2 --phiF 1 --phi2F 1",
                ),
                _inv(
                    "experiments/eig_scan.csv",
                    "eig-scan --phiF 1 --phi2F -0.2 --N-list 64,128,256 --K-ratio 0.25",
                ),
            ),
        ),
        Workload(
            name="convergence",
            why=(
                "the solver's dense LU on the M=4N reference chain dominates; "
                "measures the solve layer alone"
            ),
            # The ladder stops at N=512 because N >= 768 fails today with
            # "atomistic solve: residual ... exceeds 1e-10" (an absolute
            # residual gate while ||A|| grows like N^2), and each failing
            # point then spends about 142 s in the np.linalg.cond call of
            # the error path, which cannot be repeated in every run.
            # Extending the ladder is a separate benchmark change once the
            # solver's residual gate scales with the problem.
            bypasses="stability eigensolves and SVDs: a stability change predicts no change here",
            invocations=(
                _inv(
                    "convergence.csv",
                    "convergence --phiF 1 --phi2F -0.05 --N-list 64,128,256,512 "
                    "--K-ratio 0.25 --M-factor 4 --load cospi",
                ),
            ),
        ),
        Workload(
            name="patch",
            why=(
                "9580 tiny points and rows: measures chain, potentials, lattice "
                "and the per-point and per-row overhead of scans and cli"
            ),
            bypasses="every dense kernel: a dense-kernel change predicts no change here",
            invocations=(
                _inv(
                    "patch.csv.gz",
                    "patch-test --N-list 256,512,1024,2048 --K-all "
                    "--F-list 0.9,0.95,1.0,1.05,1.1",
                ),
            ),
        ),
    )
}


def _shuffle_flags(argv: tuple, rng: random.Random) -> tuple:
    out = list(argv)
    for i, tok in enumerate(out[:-1]):
        if tok in SHUFFLED_FLAGS:
            values = out[i + 1].split(",")
            rng.shuffle(values)
            out[i + 1] = ",".join(values)
    return tuple(out)


def generate(name: str, seed: int) -> list[Invocation]:
    """The invocations of workload `name` for `seed`, in run order."""
    invocations = list(WORKLOADS[name].invocations)
    if seed == 0:
        return invocations
    rng = random.Random(seed)
    rng.shuffle(invocations)
    return [replace(inv, argv=_shuffle_flags(inv.argv, rng)) for inv in invocations]
