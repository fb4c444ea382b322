"""Reference and coupled solves, truncation errors, convergence reports.

The reference problem resolves the whole chain (half-width M, usually
4N) atomistically; the coupled problem lives on the computational domain
-N..N with boundary values copied from the reference solution, so every
measured error is coupling error and not boundary error.

Both are solved for strains.  A displacement u with L u = f in the
interior has strain w = Du with E w = G + const, where E is the
conjugate strain operator and G_i = eps * sum_{j>=i} f_j the summed load;
the boundary values enter as the mean constraint
eps * sum(w) = u(N) - u(-N).  The bordered strain solve of
operators.StrainStencil (one cyclic reduction of the tridiagonal part
of E, strictly diagonally dominant when phiF + 4*phi2F > 0, plus a 3x3,
for the reference 1x1, capacitance system) costs O(N) in numpy alone,
and the condition number of the strain system stays bounded in N, where
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

from typing import Callable, NamedTuple

import numpy as np

from .lattice import DomainSpec, diff, lp_norm, summed_load
from .operators import multiply, strain_stencil
from .potentials import Coefficients
from .stability import dual_norm_star

BACKWARD_ERROR_TOL = 1e-13
UNIT_ROUNDOFF = 2.0**-53  # u: a strain solve refines once when its backward error exceeds 16 u


def sample_load(load: Callable, half_width: int, eps: float) -> np.ndarray:
    """The load sampled at x_j = j*eps on sites -half_width..half_width."""
    x = np.arange(-half_width, half_width + 1) * eps
    v = np.asarray(load(x), dtype=float)
    if v.shape != x.shape:
        raise ValueError("load function must map samples elementwise")
    return v


def solve_strain(
    c: Coefficients, n: int, k: int, g: np.ndarray, delta_u: float, eps: float,
    what: str = "strain solve",
) -> np.ndarray:
    """Strains w on bonds -n+1..n with E w = g + const and eps * sum(w) = delta_u.

    E is phiF * I + phi2F * B with B = strain_stencil(n, k): the
    conjugate atomistic operator for k = n-1, the conjugate coupled one
    for k = K.  StrainStencil.split writes E as T + L^T R, its
    tridiagonal part T plus one rank-one term per interface, and the
    bordered solve of StrainStencil.factor takes w from one cyclic
    reduction of T and a small capacitance system for the constant and
    the interface values.  The residual and the norm bound below read
    T, L and R from that factor.

    Raises ValueError unless phiF + 4*phi2F > 0, which (with phiF > 0)
    makes T strictly row diagonally dominant.  Raises RuntimeError on a
    non-finite w and unless the normwise backward error of the bordered
    system [[E, -1], [eps 1^T, 0]] in the max norm,
    ||residual|| / (||A|| ||(w, const)|| + ||(g, delta_u)||), stays within
    BACKWARD_ERROR_TOL (Rigal-Gaches; Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 7).  ||E|| is bounded row by row by
    |T| 1 + |L|^T |R| 1, which adds 4 |phi2F| on far-field rows and is
    exact unless a far field is a single row wide.  A backward error above
    16 u first buys one step of iterative refinement through the same
    factor, and the refined pair is gated (Skeel, Math. Comp. 35 (1980);
    Higham, ch. 12).
    """
    solve = strain_stencil(n, k).factor(c, "E", weight=eps, what=what)
    w, const = solve.solve(g, delta_u)
    if not np.all(np.isfinite(w)):
        raise RuntimeError(f"{what}: solution is not finite")
    (lower, diag, upper), left, right = solve.tridiagonal, solve.left, solve.right
    off = np.abs(lower) + np.abs(upper)
    row_norms = np.abs(diag) + off + np.abs(left).T @ np.abs(right).sum(axis=1)
    a_norm = max(float(np.max(row_norms)) + 1.0, 2.0 * n * eps)
    for step in range(2):  # the solve, then at most one step of refinement
        r = multiply((lower, diag, upper), left, right, w) - g - const
        r_mean = eps * float(np.sum(w)) - delta_u
        resid = max(float(np.max(np.abs(r))), abs(r_mean))
        scale = (a_norm * max(float(np.max(np.abs(w))), abs(const))
                 + max(float(np.max(np.abs(g))), abs(delta_u)))
        if step or not resid > 16.0 * UNIT_ROUNDOFF * scale:
            break
        dw, dconst = solve.solve(-r, -r_mean)
        w, const = w + dw, const + dconst
    if not resid <= BACKWARD_ERROR_TOL * scale:  # also catches NaN
        margin = float(np.min(np.abs(diag) - off))
        raise RuntimeError(
            f"{what}: backward error {resid / scale:.3e} exceeds {BACKWARD_ERROR_TOL:.1e} "
            f"(diagonal-dominance margin of T {margin:.3e})"
        )
    return w


def truncation_error_stencil(w_a: np.ndarray, c: Coefficients, spec: DomainSpec) -> np.ndarray:
    """Residual of the reference solution in the coupled equations, on sites -N..N.

    w_a holds the reference strains on bonds -L+1..L for any L >= N+2,
    L read from its length.  On the continuum sites the residual is
    eps^2 * phi2F * D4_j, taken here as eps * phi2F * (D3_{j+2} -
    D3_{j+1}) from one array of third differences D3 of the
    displacement, the second differences of w_a; zero on the atomistic
    sites and at the boundary.  Each entry carries
    rounding of order 1e-16 * N^2, as on any route, but the suffix sums
    of dual_norm_star telescope to differences of the same D3, so there
    the rounding of each D3 cancels.  That of a separately computed
    fourth difference would not.  O(N).
    """
    n, k = spec.N, spec.K
    if len(w_a) % 2:
        raise ValueError(f"strains must cover bonds -L+1..L, got {len(w_a)} values")
    if len(w_a) < 2 * n + 4:
        raise ValueError(f"reference half-width too small: need L >= N+2, got L={len(w_a) // 2}, N={n}")
    d3 = diff(diff(w_a, spec.eps), spec.eps)  # D3_j at offset j + L - 3
    j = np.arange(-n, n + 1)
    cont = (np.abs(j) > k) & (np.abs(j) <= n - 1)
    jc = j[cont] + len(w_a) // 2 - 3
    t = np.zeros(2 * n + 1)
    t[cont] = spec.eps * c.phi2F * (d3[jc + 2] - d3[jc + 1])
    return t


class ErrorReport(NamedTuple):
    """One convergence-study run: measured errors next to the proved bounds."""

    N: int
    K: int
    M: int
    eps: float
    err_strain_inf: float
    bound_rhs: float
    trunc_star: float
    trunc_bound: float


def error_report_detailed(
    c: Coefficients, load: Callable, spec: DomainSpec
) -> tuple[ErrorReport, np.ndarray, float]:
    """Run the reference and coupled solves; return (ErrorReport, truncation error t, floor).

    Both solves are strain solves on the reference's summed load: on
    bonds -N+1..N it differs from the coupled problem's own by the
    constant eps * sum_{j=N}^{M-1} f_j, which the multiplier of the mean
    constraint absorbs, and sharing it keeps its cumsum rounding out of
    the error.  The error, D3 and the truncation residual are all taken
    from strains.  floor, BACKWARD_ERROR_TOL times the strains' max
    norm, is the rounding the two solves may leave in err_strain_inf:
    the error bound is checked up to it, since with phi2F = 0 the bound
    is 0 and the error is rounding residue alone.
    """
    if not c.phiF + 8.0 * c.phi2F > 0.0:
        raise ValueError("error report needs the stability regime phiF + 8*phi2F > 0")
    m = spec.require_reference()
    n = spec.N
    eps = spec.eps
    g = summed_load(sample_load(load, m, eps), eps)
    w_a = solve_strain(c, m, m - 1, g, 0.0, eps, "atomistic solve")
    inner = slice(m - n, m + n)  # bonds -N+1..N
    w_an = w_a[inner]
    w_q = solve_strain(c, n, spec.K, g[inner], eps * float(np.sum(w_an)), eps, "coupled solve")
    d3 = diff(diff(w_a, eps), eps)  # D3_j at offset j + M - 3
    d3_max = float(np.max(np.abs(d3[spec.extended_continuum_bonds() + m - 3])))
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
    return report, t, BACKWARD_ERROR_TOL * float(np.max(np.abs(w_an)))
