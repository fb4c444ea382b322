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
norm of lattice.dual_norm_star and dividing by the certified inf-sup constant
bounds the strain error at order eps^2.  The residual is taken from
differences of third differences of the reference displacement, which
are second differences of its strains, in O(N); applying both operators
and subtracting, the direct route the tests keep as an oracle, cancels
terms of size 1/eps^2 down to eps^2.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .lattice import DomainSpec, diff, dual_norm_star, lp_norm, summed_load
from .operators import UNIT_ROUNDOFF, multiply, norm_bound, strain_stencil
from .potentials import Coefficients

BACKWARD_ERROR_TOL = 1e-13


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
    Numerical Algorithms, ch. 7).  ||E|| is bounded by norm_bound, which
    adds 4 |phi2F| on far-field rows and is exact unless a far field is
    a single row wide.  A backward error above 16 u first buys one step
    of iterative refinement through the same factor, and the refined
    pair is gated (Skeel, Math. Comp. 35 (1980); Higham, ch. 12).
    """
    solve = strain_stencil(n, k).factor(c, "E", weight=eps, what=what)
    w, const = solve.solve(g, delta_u)
    if not np.all(np.isfinite(w)):
        raise RuntimeError(f"{what}: solution is not finite")
    split = solve.tridiagonal, solve.left, solve.right
    a_norm = max(norm_bound(*split) + 1.0, 2.0 * n * eps)
    for step in range(2):  # the solve, then at most one step of refinement
        r = multiply(*split, w) - g - const
        r_mean = eps * float(np.sum(w)) - delta_u
        resid = max(float(np.max(np.abs(r))), abs(r_mean))
        scale = (a_norm * max(float(np.max(np.abs(w))), abs(const))
                 + max(float(np.max(np.abs(g))), abs(delta_u)))
        if step or not resid > 16.0 * UNIT_ROUNDOFF * scale:
            break
        dw, dconst = solve.solve(-r, -r_mean)
        w, const = w + dw, const + dconst
    if not resid <= BACKWARD_ERROR_TOL * scale:  # also catches NaN
        lower, diag, upper = solve.tridiagonal
        margin = float(np.min(np.abs(diag) - np.abs(lower) - np.abs(upper)))
        raise RuntimeError(
            f"{what}: backward error {resid / scale:.3e} exceeds {BACKWARD_ERROR_TOL:.1e} "
            f"(diagonal-dominance margin of T {margin:.3e})"
        )
    return w


def truncation_error_stencil(d3: np.ndarray, c: Coefficients, spec: DomainSpec) -> np.ndarray:
    """Residual of the reference solution in the coupled equations, on sites -N..N.

    d3 holds the third differences D3_j of the reference displacement
    (the second differences of its strains) on j = -L+3..L, at offset
    j + L - 3, for any L >= N+2 read from its length.  On the continuum
    sites the residual is eps^2 * phi2F * D4_j, taken as eps * phi2F *
    (D3_{j+2} - D3_{j+1}); zero on the atomistic sites and at the
    boundary.  Each entry carries rounding of order 1e-16 * N^2, as on
    any route, but the suffix sums of dual_norm_star telescope to
    differences of the same D3, so there the rounding of each D3
    cancels, as that of a separate fourth difference would not.  O(N).
    """
    n, k = spec.N, spec.K
    if len(d3) % 2:
        raise ValueError(f"third differences must cover bonds -L+3..L, got {len(d3)} values")
    if len(d3) < 2 * n + 2:
        raise ValueError(f"reference half-width too small: need L >= N+2, got L={len(d3) // 2 + 1}, N={n}")
    j = np.arange(-n, n + 1)
    cont = (np.abs(j) > k) & (np.abs(j) <= n - 1)
    jc = j[cont] + len(d3) // 2 - 2  # offset of D3_j
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
    is 0 and the error is rounding residue alone.  bound_rhs is
    trunc_bound over the inf-sup lower bound gamma/2, gamma the margin
    StrainStencil.rdd_margin of the coupled E, which must be positive.

    A margin below minus its rounding allowance raises ValueError; one
    within the allowance, or NaN, raises RuntimeError: it cannot be told
    from 0 at this scale, whether it is 0 (phi2F = -phiF/8) or a positive
    margin lost in the sums.
    """
    # the margin before the solves, so its temporaries are freed before they peak
    gamma, allowance = strain_stencil(spec.N, spec.K).rdd_margin(c)
    if gamma < -allowance:
        raise ValueError(f"error report needs the stability regime gamma > 0, got gamma = {gamma:.6g}")
    if not gamma > allowance:
        raise RuntimeError(
            f"error report: margin gamma = {gamma:.6g} is within its rounding allowance {allowance:.6g}, "
            "so it cannot be told from 0 at this scale"
        )
    if spec.M is None:
        raise ValueError("error report needs the reference half-width DomainSpec.M")
    m, n, k, eps = spec.M, spec.N, spec.K, spec.eps
    g = summed_load(sample_load(load, m, eps), eps)
    w_a = solve_strain(c, m, m - 1, g, 0.0, eps, "atomistic solve")
    inner = slice(m - n, m + n)  # bonds -N+1..N
    w_an = w_a[inner]
    w_q = solve_strain(c, n, k, g[inner], eps * float(np.sum(w_an)), eps, "coupled solve")
    d3 = diff(diff(w_a, eps), eps)  # D3_j at offset j + M - 3
    t = truncation_error_stencil(d3, c, spec)
    # on bonds -N+2..-K+1 and K+2..N+1, whose D3 the continuum residual reads
    d3_max = float(max(np.max(np.abs(d3[m - n - 1:m - k - 1])), np.max(np.abs(d3[m + k - 1:m + n - 1]))))
    trunc_bound = 2.0 * eps**2 * abs(c.phi2F) * d3_max
    report = ErrorReport(N=n, K=k, M=m, eps=eps, err_strain_inf=lp_norm(w_an - w_q, eps, np.inf),
                         bound_rhs=2.0 * trunc_bound / gamma, trunc_star=dual_norm_star(t, eps),
                         trunc_bound=trunc_bound)
    return report, t, BACKWARD_ERROR_TOL * float(np.max(np.abs(w_an)))
