"""Reference and coupled solves, truncation errors, convergence reports.

The reference problem resolves the whole chain (half-width M, usually
4N) atomistically; the coupled problem lives on the computational domain
-N..N with boundary values copied from the reference solution, so every
measured error is coupling error and not boundary error.

Plugging the reference solution into the coupled equations leaves a
residual supported in the continuum region, equal there to
eps^2 * phi2F * (centered fourth difference); measuring it in the dual
norm of dual_norm_star and dividing by the certified inf-sup constant
bounds the strain error at order eps^2.  The residual is taken from
differences of third differences of the reference solution in O(N);
applying both operators and subtracting, the direct route the tests keep
as an oracle, cancels terms of size 1/eps^2 down to eps^2.

Both solves factor the sparse interior block as a banded LU (LAPACK
dgbtrf, partial pivoting, bandwidth 2 on each side), so a solve costs
O(N) time and memory; no dense N x N matrix is formed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import DomainSpec, Field, diff, diff3, lp_norm
from .operators import assemble_la, assemble_lqcf
from .potentials import Coefficients
from .stability import dual_norm_star

BACKWARD_ERROR_TOL = 1e-13


@dataclass(frozen=True)
class ForceField:
    """External load: a closed form sampled at x_j = j*eps, or stored samples."""

    fn: Optional[Callable] = None
    samples: Optional[Field] = None
    name: str = ""

    @classmethod
    def from_function(cls, fn: Callable, name: str = "") -> "ForceField":
        return cls(fn=fn, name=name)

    @classmethod
    def from_samples(cls, samples: Field, name: str = "") -> "ForceField":
        return cls(samples=samples, name=name)

    def sample(self, half_width: int, eps: float) -> Field:
        if self.fn is not None:
            x = np.arange(-half_width, half_width + 1) * eps
            v = np.asarray(self.fn(x), dtype=float)
            if v.shape != x.shape:
                raise ValueError("load function must map samples elementwise")
            return Field(v, -half_width)
        if self.samples is None:
            raise ValueError("empty ForceField")
        if self.samples.half_width < half_width:
            raise ValueError(
                f"stored samples cover half-width {self.samples.half_width}, "
                f"need {half_width}"
            )
        return self.samples.restrict(-half_width, half_width)


LOADS = {
    "cospi": ForceField.from_function(lambda x: np.cos(np.pi * x), name="cospi"),
    "const": ForceField.from_function(lambda x: np.ones_like(x), name="const"),
    "zero": ForceField.from_function(lambda x: np.zeros_like(x), name="zero"),
}


def named_load(name: str) -> ForceField:
    try:
        return LOADS[name]
    except KeyError:
        raise ValueError(f"unknown load '{name}', choose from {sorted(LOADS)}")


def _solve_refined(A, b: np.ndarray, what: str) -> np.ndarray:
    """Banded LU solve with one step of iterative refinement, O(N) memory.

    A is a sparse (or dense) square matrix.  Its stored entries, with
    the bandwidths they span, go into LAPACK band storage, factored by
    dgbtrf with the partial pivoting of a dense LU.  Warns LinAlgWarning
    on an exactly zero pivot.  Raises RuntimeError on a non-finite x (a
    singular matrix) and, with a dgbcon condition estimate, unless the
    normwise backward error ||Ax - b|| / (||A|| ||x|| + ||b||) in the max
    norm stays within BACKWARD_ERROR_TOL (Rigal-Gaches; Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 7).  A residual against
    ||b|| alone grows with ||A|| ~ N^2.
    """
    import scipy.linalg
    import scipy.sparse

    coo = scipy.sparse.coo_array(A)
    offsets = coo.col - coo.row
    kl, ku = int(-offsets.min(initial=0)), int(offsets.max(initial=0))
    ab = np.zeros((2 * kl + ku + 1, coo.shape[1]))
    ab[kl + ku - offsets, coo.col] = coo.data
    lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info < 0:
        raise RuntimeError(f"{what}: factorization failed: dgbtrf info {info}")
    if info > 0:
        warnings.warn(
            f"{what}: diagonal number {info} is exactly zero, singular matrix",
            scipy.linalg.LinAlgWarning,
            stacklevel=2,
        )

    def lu_solve(r):
        return scipy.linalg.lapack.dgbtrs(lu, kl, ku, r, piv)[0]

    x = lu_solve(b)
    if not np.all(np.isfinite(x)):
        raise RuntimeError(f"{what}: solution is not finite (singular matrix)")
    x += lu_solve(b - A @ x)
    a_norm = float(abs(A).sum(axis=1).max())
    resid = float(np.max(np.abs(A @ x - b)))
    scale = a_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(b)))
    if not resid <= BACKWARD_ERROR_TOL * scale:  # also catches NaN
        rcond, _ = scipy.linalg.lapack.dgbcon(kl, ku, lu, piv, a_norm, norm="I")
        raise RuntimeError(
            f"{what}: backward error {resid / scale:.3e} exceeds {BACKWARD_ERROR_TOL:.1e} "
            f"(reciprocal condition estimate {rcond:.3e})"
        )
    return x


def solve_atomistic(c: Coefficients, f: Field, eps: float) -> Field:
    """Solve the linearized atomistic system with zero boundary values.

    f holds samples over the full chain -M..M; its boundary entries pair
    with constrained atoms and are ignored.
    """
    if not c.phiF + 4.0 * c.phi2F > 0.0:
        raise ValueError(
            f"atomistic system needs phiF + 4*phi2F > 0, got "
            f"{c.phiF + 4.0 * c.phi2F}"
        )
    m = f.half_width
    A = assemble_la(c, m, eps).interior_block()
    x = _solve_refined(A, f.values[1:-1], "atomistic solve")
    u = np.zeros(2 * m + 1)
    u[1:-1] = x
    return Field(u, -m)


def solve_qcf(
    c: Coefficients, f: Field, spec: DomainSpec, bc_left: float, bc_right: float
) -> Field:
    """Solve the coupled system on -N..N with prescribed boundary values.

    The boundary data enters through an affine lift, which the coupled
    operator annihilates, plus a homogeneous solve for the remainder.
    Outside the proven stability regime phiF + 8*phi2F > 0 the solve
    still runs (instability studies need it) but warns.
    """
    n = spec.N
    if f.half_width != n:
        raise ValueError(f"load must cover -N..N with N={n}")
    if not c.phiF + 8.0 * c.phi2F > 0.0:
        warnings.warn(
            f"phiF + 8*phi2F = {c.phiF + 8.0 * c.phi2F:.4g} <= 0: outside the "
            "proven stability regime",
            RuntimeWarning,
            stacklevel=2,
        )
    A = assemble_lqcf(c, spec).interior_block()
    x = _solve_refined(A, f.values[1:-1], "coupled solve")
    j = np.arange(-n, n + 1)
    u = bc_left + (bc_right - bc_left) * (n + j) / (2.0 * n)
    u[1:-1] += x
    u[0] = bc_left
    u[-1] = bc_right
    return Field(u, -n)


def truncation_error_stencil(u_a: Field, c: Coefficients, spec: DomainSpec) -> Field:
    """Residual of the reference solution in the coupled equations.

    On the continuum sites it is eps^2 * phi2F * D4_j, taken here as
    eps * phi2F * (D3_{j+2} - D3_{j+1}) from one array of third
    differences; zero on the atomistic sites and at the boundary.  Each
    entry carries rounding of order 1e-16 * N^2, as on any route, but the
    suffix sums of dual_norm_star telescope to differences of the same
    third differences, so there the rounding of each D3 cancels.  That of
    a separately computed fourth difference (diff4_centered) would not.
    O(N).
    """
    spec.require_reference(2)
    n, k = spec.N, spec.K
    d3 = diff3(u_a, spec.eps)
    j = np.arange(-n, n + 1)
    cont = (np.abs(j) > k) & (np.abs(j) <= n - 1)
    jc = j[cont] - d3.lo
    t = np.zeros(2 * n + 1)
    t[cont] = spec.eps * c.phi2F * (d3.values[jc + 2] - d3.values[jc + 1])
    return Field(t, -n)


@dataclass(frozen=True)
class ErrorReport:
    """One convergence-study run: measured errors next to the proved bounds."""

    N: int
    K: int
    M: int
    eps: float
    err_strain_inf: float
    bound_rhs: float
    trunc_star: float
    trunc_bound: float


@dataclass(frozen=True)
class ErrorDetails:
    """The fields behind an ErrorReport that downstream checks need."""

    u_a: Field
    u_qcf: Field
    t: Field


def error_report_detailed(
    c: Coefficients, load: ForceField, spec: DomainSpec
) -> tuple[ErrorReport, ErrorDetails]:
    """Run the reference and coupled solves; return (ErrorReport, ErrorDetails)."""
    if not c.phiF + 8.0 * c.phi2F > 0.0:
        raise ValueError("error report needs the stability regime phiF + 8*phi2F > 0")
    m = spec.require_reference(2)
    n = spec.N
    eps = spec.eps
    f_m = load.sample(m, eps)
    u_a = solve_atomistic(c, f_m, eps)
    u_q = solve_qcf(c, f_m.restrict(-n, n), spec, u_a.at(-n), u_a.at(n))
    e = u_a.restrict(-n, n) - u_q
    err_strain_inf = lp_norm(diff(e, eps), eps, np.inf)
    d3 = diff3(u_a, eps)
    cbonds = spec.extended_continuum_bonds()
    d3_max = float(np.max(np.abs(d3.values[cbonds - d3.lo])))
    t = truncation_error_stencil(u_a, c, spec)
    gamma = c.phiF + 8.0 * c.phi2F
    report = ErrorReport(
        N=n,
        K=spec.K,
        M=m,
        eps=eps,
        err_strain_inf=err_strain_inf,
        bound_rhs=4.0 * eps**2 * abs(c.phi2F) * d3_max / gamma,
        trunc_star=dual_norm_star(t, eps),
        trunc_bound=2.0 * eps**2 * abs(c.phi2F) * d3_max,
    )
    return report, ErrorDetails(u_a, u_q, t)
