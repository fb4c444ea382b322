"""Reference and coupled solves, truncation errors, convergence reports.

The reference problem resolves the whole chain (half-width M, usually
4N) atomistically; the coupled problem lives on the computational domain
-N..N with boundary values copied from the reference solution, so every
measured error is coupling error and not boundary error.

Both are solved for strains.  A displacement u with L u = f in the
interior has strain w = Du with E w = G + const, where E is the
conjugate strain operator and G_i = eps * sum_{j>=i} f_j the summed load;
the boundary values enter as the mean constraint
eps * sum(w) = u(N) - u(-N).  E is the tridiagonal part T of
strain_stencil plus one rank-one term per interface.  T is strictly row
diagonally dominant when phiF + 4*phi2F > 0, and odd-even cyclic
reduction keeps each reduced system so, with a margin no smaller than
before, so it needs no pivoting (Heller, SIAM J. Numer. Anal. 13, 1976).
One vectorised reduction takes every right-hand side, and a 3x3
(reference: 1x1) system couples the constant of the mean constraint
with the two interface values.  A solve costs O(N) in numpy alone, and
the condition number of the strain system stays bounded in N, where
that of the displacement system grows like M^2.

Plugging the reference solution into the coupled equations leaves a
residual supported in the continuum region, equal there to
eps^2 * phi2F * (centered fourth difference); measuring it in the dual
norm of dual_norm_star and dividing by the certified inf-sup constant
bounds the strain error at order eps^2.  The residual is taken from
differences of third differences of the reference displacement, which
are second differences of its strains, in O(N); applying both operators
and subtracting, the direct route the tests keep as an oracle, cancels
terms of size 1/eps^2 down to eps^2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import DomainSpec, Field, diff, lp_norm, summed_load
from .operators import strain_stencil
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


def _cyclic_reduction(lower, diag, upper, rhs: np.ndarray) -> np.ndarray:
    """Solve lower_i x_{i-1} + diag_i x_i + upper_i x_{i+1} = rhs_i, column by column.

    lower[0] and upper[-1] are ignored as zero.  Eliminating the even
    unknowns from each odd row leaves a tridiagonal system of half the
    size in the odd unknowns; once it is solved, each even unknown takes
    one division.  An even-sized system first gains a decoupled row
    x = 0, so that every odd row has two even neighbors.
    """
    size = diag.size
    if size == 1:
        return rhs / diag[0]
    if size % 2 == 0:
        lower, diag, upper = np.append(lower, 0.0), np.append(diag, 1.0), np.append(upper, 0.0)
        rhs = np.vstack([rhs, np.zeros((1, rhs.shape[1]))])
    a, b, c, d = lower[0::2], diag[0::2], upper[0::2], rhs[0::2]
    left = -lower[1::2] / b[:-1]
    right = -upper[1::2] / b[1:]
    x_odd = _cyclic_reduction(
        left * a[:-1],
        diag[1::2] + left * c[:-1] + right * a[1:],
        right * c[1:],
        rhs[1::2] + left[:, None] * d[:-1] + right[:, None] * d[1:],
    )
    padded = np.zeros((b.size + 1, rhs.shape[1]))
    padded[1:-1] = x_odd
    x = np.empty_like(rhs)
    x[0::2] = (d - a[:, None] * padded[:-1] - c[:, None] * padded[1:]) / b[:, None]
    x[1::2] = x_odd
    return x[:size]


def solve_strain(
    c: Coefficients, n: int, k: int, g: np.ndarray, delta_u: float, eps: float,
    what: str = "strain solve",
) -> np.ndarray:
    """Strains w on bonds -n+1..n with E w = g + const and eps * sum(w) = delta_u.

    E is phiF * I + phi2F * B with B = strain_stencil(n, k): the
    conjugate atomistic operator for k = n-1, the conjugate coupled one
    for k = K.  Writing E = T + phi2F * sum_s chi_s a_s^T (chi_s marks
    the far-field rows of interface s, a_s its [1, -2, 1] columns), one
    cyclic reduction of T against g, 1 and each phi2F * chi_s gives w as
    T^{-1} g + const * T^{-1} 1 - sum_s (a_s^T w) T^{-1} phi2F chi_s,
    and a small dense solve fixes the constant and the a_s^T w.

    Raises ValueError unless phiF + 4*phi2F > 0, which (with phiF > 0)
    makes T strictly row diagonally dominant.  Raises RuntimeError on a
    non-finite w and unless the normwise backward error of the bordered
    system [[E, -1], [eps 1^T, 0]] in the max norm,
    ||residual|| / (||A|| ||(w, const)|| + ||(g, delta_u)||), stays within
    BACKWARD_ERROR_TOL (Rigal-Gaches; Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 7).  ||E|| is taken row by row as
    ||T|| + 4 |phi2F| on far-field rows, exact unless a far field is a
    single row wide.
    """
    if not c.phiF + 4.0 * c.phi2F > 0.0:
        raise ValueError(
            f"{what} needs phiF + 4*phi2F > 0, got {c.phiF + 4.0 * c.phi2F}"
        )
    s = strain_stencil(n, k)
    lower, diag, upper = s.tridiagonal(c)
    far = [c.phi2F * rows for rows, _ in s.interfaces]
    y = _cyclic_reduction(lower, diag, upper, np.column_stack([g, np.ones(2 * n), *far]))

    def constraints(v):  # eps * sum(v) and a_s^T v, per column of v
        return np.array([eps * np.sum(v, axis=0)]
                        + [v[col] - 2.0 * v[col + 1] + v[col + 2] for _, col in s.interfaces])

    # w = y[:, 0] + Y z with z = (const, a_1^T w, ...); iface picks the a_s^T w
    iface = np.append(0.0, np.ones(len(far)))
    Y = y[:, 1:] * (1.0 - 2.0 * iface)
    try:
        z = np.linalg.solve(constraints(Y) - np.diag(iface),
                            (1.0 - iface) * delta_u - constraints(y[:, 0]))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"{what}: bordered system is singular") from exc
    w = y[:, 0] + Y @ z
    if not np.all(np.isfinite(w)):
        raise RuntimeError(f"{what}: solution is not finite")
    resid = max(float(np.max(np.abs(s.apply(c, w) - g - z[0]))),
                abs(eps * float(np.sum(w)) - delta_u))
    off = np.abs(lower) + np.abs(upper)
    row_norms = np.abs(diag) + off + 4.0 * abs(c.phi2F) * sum(rows for rows, _ in s.interfaces)
    a_norm = max(float(np.max(row_norms)) + 1.0, 2.0 * n * eps)
    scale = (a_norm * max(float(np.max(np.abs(w))), abs(z[0]))
             + max(float(np.max(np.abs(g))), abs(delta_u)))
    if not resid <= BACKWARD_ERROR_TOL * scale:  # also catches NaN
        margin = float(np.min(np.abs(diag) - off))
        raise RuntimeError(
            f"{what}: backward error {resid / scale:.3e} exceeds {BACKWARD_ERROR_TOL:.1e} "
            f"(diagonal-dominance margin of T {margin:.3e})"
        )
    return w


def _displacements(w: np.ndarray, eps: float, bc_left: float, bc_right: float) -> Field:
    """u = bc_left + eps * cumsum(w) on the sites around bonds w, ends set exactly."""
    u = np.empty(w.size + 1)
    u[0] = bc_left
    u[1:] = bc_left + eps * np.cumsum(w)
    u[-1] = bc_right
    return Field(u, -(w.size // 2))


def solve_atomistic(c: Coefficients, f: Field, eps: float) -> Field:
    """Solve the linearized atomistic system with zero boundary values.

    f holds samples over the full chain -M..M; its boundary entries pair
    with constrained atoms and are ignored.
    """
    m = f.half_width
    w = solve_strain(c, m, m - 1, summed_load(f, eps).values, 0.0, eps, "atomistic solve")
    return _displacements(w, eps, 0.0, 0.0)


def solve_qcf(
    c: Coefficients, f: Field, spec: DomainSpec, bc_left: float, bc_right: float
) -> Field:
    """Solve the coupled system on -N..N with prescribed boundary values.

    Outside the proven stability regime phiF + 8*phi2F > 0 the solve
    still runs (instability studies need it) but warns.
    """
    n = spec.N
    if f.half_width != n:
        raise ValueError(f"load must cover -N..N with N={n}")
    g = summed_load(f, spec.eps).values
    w = solve_strain(c, n, spec.K, g, bc_right - bc_left, spec.eps, "coupled solve")
    if not c.phiF + 8.0 * c.phi2F > 0.0:
        warnings.warn(
            f"phiF + 8*phi2F = {c.phiF + 8.0 * c.phi2F:.4g} <= 0: outside the "
            "proven stability regime",
            RuntimeWarning,
            stacklevel=2,
        )
    return _displacements(w, spec.eps, bc_left, bc_right)


def truncation_error_stencil(w_a: Field, c: Coefficients, spec: DomainSpec) -> Field:
    """Residual of the reference solution in the coupled equations, from its strains.

    w_a holds the reference strains on bonds -M+1..M.  On the continuum
    sites the residual is eps^2 * phi2F * D4_j, taken here as
    eps * phi2F * (D3_{j+2} - D3_{j+1}) from one array of third
    differences D3 of the displacement, the second differences of w_a;
    zero on the atomistic sites and at the boundary.  Each entry carries
    rounding of order 1e-16 * N^2, as on any route, but the suffix sums
    of dual_norm_star telescope to differences of the same D3, so there
    the rounding of each D3 cancels.  That of a separately computed
    fourth difference (diff4_centered) would not.  O(N).
    """
    spec.require_reference(2)
    if w_a.lo != 1 - w_a.hi:
        raise ValueError(f"strains must cover bonds -L+1..L, got {w_a.lo}..{w_a.hi}")
    n, k = spec.N, spec.K
    d3 = diff(diff(w_a, spec.eps), spec.eps)
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
    """Run the reference and coupled solves; return (ErrorReport, ErrorDetails).

    Both solves are strain solves on the reference's summed load: on
    bonds -N+1..N it differs from the coupled problem's own by the
    constant eps * sum_{j=N}^{M-1} f_j, which the multiplier of the mean
    constraint absorbs, and sharing it keeps its cumsum rounding out of
    the error.  The error, D3 and the truncation residual are all taken
    from strains; displacements are only integrated for ErrorDetails.
    """
    if not c.phiF + 8.0 * c.phi2F > 0.0:
        raise ValueError("error report needs the stability regime phiF + 8*phi2F > 0")
    m = spec.require_reference(2)
    n = spec.N
    eps = spec.eps
    g = summed_load(load.sample(m, eps), eps)
    w_a = Field(solve_strain(c, m, m - 1, g.values, 0.0, eps, "atomistic solve"), g.lo)
    w_an = w_a.restrict(-n + 1, n).values
    w_q = solve_strain(c, n, spec.K, g.restrict(-n + 1, n).values, eps * float(np.sum(w_an)),
                       eps, "coupled solve")
    d3 = diff(diff(w_a, eps), eps)
    cbonds = spec.extended_continuum_bonds()
    d3_max = float(np.max(np.abs(d3.values[cbonds - d3.lo])))
    t = truncation_error_stencil(w_a, c, spec)
    gamma = c.phiF + 8.0 * c.phi2F
    report = ErrorReport(
        N=n,
        K=spec.K,
        M=m,
        eps=eps,
        err_strain_inf=lp_norm(w_an - w_q, eps, np.inf),
        bound_rhs=4.0 * eps**2 * abs(c.phi2F) * d3_max / gamma,
        trunc_star=dual_norm_star(t, eps),
        trunc_bound=2.0 * eps**2 * abs(c.phi2F) * d3_max,
    )
    u_a = _displacements(w_a.values, eps, 0.0, 0.0)
    u_q = _displacements(w_q, eps, u_a.at(-n), u_a.at(n))
    return report, ErrorDetails(u_a, u_q, t)
