"""Coercivity loss and inf-sup stability of the coupled operator.

The coupled operator keeps a uniform inf-sup constant only for one norm
pairing: testing max-norm strains against summed-strain test fields.
There the row diagonal-dominance margin gamma of its conjugate certifies
an inf-sup constant of at least gamma/2, with gamma = phiF + 8*phi2F
independently of domain sizes.  In every other strain pairing the
constant decays like N^(-1/p), and the quadratic form itself takes values
as low as -const * sqrt(N): both effects come from the interface columns
of the conjugate operator and are reproduced here by explicit
constructions.  Every kernel reads that operator, E, from the bands of
operators.StrainStencil and assembles no matrix; the minimum of the form
is found about one shift below Weyl's lower bound on the spectrum.  The
values are linear in (phiF, phi2F), so each kernel that solves or takes
powers runs on Coefficients.unit() and scales its result back.
"""

from __future__ import annotations

import numpy as np

from .lattice import DomainSpec, diff, lp_norm
from .operators import BorderedSolve, StrainStencil, frobenius_norm, multiply, strain_stencil
from .potentials import Coefficients

EIG_TOL = 1e-10
LANCZOS_TOL = 1e-10
LANCZOS_MAX_ITER = 200


def _start_vector(n: int) -> np.ndarray:
    """Fixed Lanczos start vector, so every run returns the same digits.

    Entry i is 2 frac((i+1)^2 g) - 1 with g = (sqrt(5) - 1)/2, a
    quadratic Weyl sequence, equidistributed in [-1, 1).  Lanczos finds
    the largest eigenvalue only if the start vector has a component
    along its eigenvector; a random vector has one with probability one,
    and this sequence is no more likely to miss it, except by symmetry:
    every operator here commutes with the reflection of the chain, which
    maps the strain at offset i to that at n-1-i, so a vector even or
    odd under it has no component along any eigenvector of the other
    parity.  A linear Weyl sequence frac((i+1) g) falls into that trap:
    its entries at i and n-1-i sum to frac((n+1) g) or that plus 1, and
    when 2N+1 = n+1 is a Fibonacci number (N = 6, 10, 27, 44, ...) every
    pair takes the same sum, so the vector is odd once its mean is
    removed.  In the quadratic sequence the pairs' arguments (i+1)^2 g
    and (n-i)^2 g sum to a quadratic in i, so the pair sums vary; once
    the mean, which the operators ignore, is removed, its even and odd
    parts each hold at least 0.43 of its norm for every N below 3000
    and at N = 2^12..2^20.
    """
    i = np.arange(1, n + 1, dtype=float)
    return np.modf(i * i * ((np.sqrt(5.0) - 1.0) / 2.0))[0] * 2.0 - 1.0


def _lanczos_max(op, n: int, what: str) -> tuple:
    """Largest eigenvalue and unit eigenvector of a symmetric op on mean-zero vectors of size n.

    Plain Lanczos with full reorthogonalisation (Golub and Van Loan,
    Matrix Computations, ch. 10) from the fixed start vector, stopped
    when the residual |beta_m s_m| of the largest Ritz pair falls to
    LANCZOS_TOL times its Ritz value, or when the Krylov space is
    invariant.  Each new basis vector is also kept free of constants:
    when beta is small, rounding would leave it a mean of relative size
    1e-16 * ||op|| / beta, and the returned vector with it.  Raises
    RuntimeError after LANCZOS_MAX_ITER steps.
    """
    v = _start_vector(n)
    v -= v.mean()
    basis = np.empty((min(n, 32), n))
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    resid = theta = np.inf
    for m in range(min(LANCZOS_MAX_ITER, n - 1)):
        w = op(basis[m])
        alpha.append(float(basis[m] @ w))
        for _ in range(2):  # twice is enough (Kahan, Parlett)
            w -= basis[: m + 1].T @ (basis[: m + 1] @ w)
            w -= w.mean()  # and against the constants, which op ignores
        beta.append(float(np.linalg.norm(w)))
        ritz, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        theta, resid = ritz[-1], beta[-1] * abs(vecs[-1, -1])
        if resid <= LANCZOS_TOL * abs(theta) or m + 2 == n:
            return float(theta), basis[: m + 1].T @ vecs[:, -1]
        if m + 1 == basis.shape[0]:
            basis = np.vstack([basis, np.empty_like(basis)])
        basis[m + 1] = w / beta[-1]
    raise RuntimeError(
        f"{what}: Lanczos did not converge in {LANCZOS_MAX_ITER} iterations "
        f"(residual {resid:.3e} > {LANCZOS_TOL:.1e} * Ritz value {theta:.3e})"
    )


def quadratic_form(c: Coefficients, spec: DomainSpec, v: np.ndarray) -> float:
    """<L v, v> = <E Dv, Dv> (the conjugate identity) for a field vanishing exactly at +-N, on c.unit()."""
    if not (v[0] == 0.0 and v[-1] == 0.0):
        raise ValueError("quadratic form is defined on fields vanishing at +-N")
    c, scale = c.unit()
    dv = diff(v, spec.eps)
    return scale * spec.eps * float(dv @ multiply(*strain_stencil(spec.N, spec.K).split(c), dv))


def _below_spectrum(solve, c: Coefficients) -> bool:
    """Whether the bordered solve of sym(E) - sigma has sigma below the mean-zero spectrum.

    With A = sym(T) - sigma positive definite and sym(E) - sigma =
    A + U^T C U (StrainStencil.split), Sylvester's law of inertia applied
    to [[A, U^T, 1], [U, -C^{-1}, 0], [1^T, 0, 0]] in two elimination
    orders shows that the Schur matrix -C^{-1} - [1 U^T]^T A^{-1} [1 U^T]
    (C^{-1} padded by a zero for the 1 column) has r/2 + 1 + m negative
    eigenvalues, where m counts the eigenvalues below sigma of sym(E)
    on mean-zero strains and r/2 those of -C^{-1}.  The factor holds
    A^{-1} [1, (C U)^T], so [1 U^T]^T A^{-1} [1 U^T] is its Gram matrix
    times diag(1, C^{-1}).  The count is taken on h times the Schur
    matrix, h = |phi2F|/2 (1 with no interface terms), which has the same
    inertia and no 2/phi2F to overflow: h C^{-1} is sign(phi2F) times the
    swap of U's blocks [far; kink].
    """
    r = solve.gram.shape[0] - 1
    c_inv = np.zeros((r + 1, r + 1))  # h C^{-1}, padded
    c_inv[1:, 1:] = np.sign(c.phi2F) * np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(r // 2))
    one_c_inv = c_inv.copy()
    one_c_inv[0, 0] = 0.5 * abs(c.phi2F) if r else 1.0  # h diag(1, C^{-1})
    schur = -c_inv - solve.gram @ one_c_inv
    eig = np.linalg.eigvalsh(0.5 * (schur + schur.T))
    return np.count_nonzero(eig < 0.0) == r // 2 + 1 and np.count_nonzero(eig > 0.0) == r // 2


def _spectrum_floor(tridiagonal: tuple, left: np.ndarray, right: np.ndarray) -> float:
    """Weyl's lower bound on the spectrum of T' + L^T R (Horn and Johnson, Thm 4.3.1).

    The Gershgorin bound of the tridiagonal T' plus the smallest
    eigenvalue of L^T R, which has a zero one and shares its others with
    the r x r matrix R L^T.  Any sigma below it leaves T' - sigma
    strictly diagonally dominant.
    """
    lower, diag, upper = tridiagonal
    low_rank = np.linalg.eigvals(right @ left.T).real  # empty with phi2F = 0
    return float(np.min(diag - np.abs(lower) - np.abs(upper)) + np.min(low_rank, initial=0.0))


def rayleigh_min(c: Coefficients, spec: DomainSpec) -> float:
    """Minimum of <L v, v> over fields vanishing at +-N with ||Dv|| = 1.

    By the conjugate identity <L v, v> = <E Dv, Dv>, and since Dv ranges
    over all mean-zero strains, this is the smallest eigenvalue of
    sym(E) on mean-zero strains, E = Eqcf.  All below reads one split of
    sym(E) = T' + L^T R.  Shift-invert Lanczos solves with its shifted
    bands sym(E) - sigma, sigma a fixed gap below _spectrum_floor; a
    failed inertia check of sigma (_below_spectrum) raises RuntimeError.
    The Lanczos vector's Rayleigh quotient is returned, and the pair must
    pass a residual check on the unshifted bands, scaled by ||sym(E)||_F + |lam| ||I||_F.
    All of it runs on c.unit(), and the minimum is scaled back.
    """
    c, scale = c.unit()
    n = 2 * spec.N
    (lower, diag, upper), left, right = strain_stencil(spec.N, spec.K).split(c, "sym")
    floor = _spectrum_floor((lower, diag, upper), left, right)
    sigma = floor - 1e-3 * max(1.0, abs(floor))
    solve = BorderedSolve((lower, diag - sigma, upper), left, right)
    if not _below_spectrum(solve, c):
        raise RuntimeError(f"rayleigh_min: inertia check failed, shift {scale * sigma:.6g} is not below the spectrum")
    _, x = _lanczos_max(lambda x: solve.solve(x)[0], n, "rayleigh_min")
    hx = multiply((lower, diag, upper), left, right, x)
    lam = float(x @ hx / (x @ x))
    resid = np.linalg.norm(hx - hx.mean() - lam * x)
    bound = (frobenius_norm((lower, diag, upper), left, right) + abs(lam) * np.sqrt(n)) * np.linalg.norm(x)
    if not resid <= EIG_TOL * bound:  # also catches NaN
        raise RuntimeError(f"eigensolve residual {resid:.3e} exceeds {EIG_TOL:.1e} * {bound:.3e}")
    return scale * lam


def unstable_candidate(spec: DomainSpec, sign: str = "-") -> np.ndarray:
    """Explicit low-energy candidate: plateau plus one sqrt(eps) spike, scaled to ||Dv|| = 1.

    Before scaling, the field is 1 on -K-2..K+2, ramps linearly to 0 at
    +-N, and carries a spike of height +-sqrt(eps) at site K+1.  Its
    strain stays bounded while the interface term of the quadratic form
    grows like sqrt(N), which is what makes the form indefinite for
    large N.
    """
    n, k = spec.N, spec.K
    if n - k - 2 < 1:
        raise ValueError(f"domain too small for the ramp: N={n}, K={k}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    j = np.arange(-n, n + 1)
    ramp = n - np.abs(j)
    v = np.where(np.abs(j) <= k + 2, 1.0, ramp / (n - k - 2.0))
    v[(k + 1) + n] += (1.0 if sign == "+" else -1.0) * np.sqrt(spec.eps)
    return v * (1.0 / lp_norm(diff(v, spec.eps), spec.eps, 2))


def rdd_margin(c: Coefficients, stencil: StrainStencil) -> float:
    """Row diagonal-dominance margin gamma of the strain operator E of stencil.

    gamma = min_i (E_ii + sum of negative off-diagonals in row i)
            - max_i (sum of positive off-diagonals in row i).
    When gamma > 0 the mean-zero max-norm/1-norm inf-sup constant of E is
    at least gamma/2.
    """
    row, _, value = stencil.entries(c)
    nb = stencil.diag.size  # entries lists the diagonal first
    neg, pos = (np.bincount(row[nb:], clip(value[nb:], 0.0), minlength=nb) for clip in (np.minimum, np.maximum))
    return float(np.min(value[:nb] + neg) - np.max(pos))


def infsup_2(c: Coefficients, spec: DomainSpec) -> float:
    """Inf-sup constant of Eqcf over mean-zero strains in the 2-norm pairing.

    Equals the smallest singular value s of E compressed to the
    mean-zero subspace (the eps-weights cancel between trial and test
    norms).  The bordered solve S of E maps b to the mean-zero x with
    E x - b constant: the inverse of the compressed E; S^T is the
    bordered solve of E^T.  Each absorbs any constant in b, so Lanczos on
    x -> S^T S x over mean-zero vectors returns 1/s^2 as the largest
    eigenvalue.  It runs on c.unit(), and s is scaled back.  Raises
    ValueError unless phiF + 4*phi2F > 0, as the coupled solve does.
    """
    stencil = strain_stencil(spec.N, spec.K)
    if not c.phiF + 4.0 * c.phi2F > 0.0:  # the factor's error names c's margin, not that of c.unit()
        stencil.factor(c, what="infsup_2")
    c, scale = c.unit()
    solve, solve_t = (stencil.factor(c, form, what="infsup_2") for form in ("E", "E^T"))
    lam, _ = _lanczos_max(lambda x: solve_t.solve(solve.solve(x)[0])[0], 2 * spec.N, "infsup_2")
    return float(scale / np.sqrt(lam))


def infsup_p_upper(c: Coefficients, spec: DomainSpec, p: float) -> float:
    """Upper bound ||E xi|| / ||xi|| in the p-norm at the interface probe xi.

    xi is the mean-zero strain -1 on bonds j <= -K-1, -alpha at -K,
    alpha at K+1 and 1 on j >= K+2, with alpha = (phiF + 5*phi2F) /
    (2*phi2F) chosen so the far-field rows of E xi cancel exactly.
    Closed form: the image keeps exactly four nonzero entries (two per
    interface) while the probe itself has about 2(N-K) unit entries, so
    the quotient decays like N^(-1/p).  Every term is scaled by w^p,
    w = 1/max(1, |alpha|), so no power overflows when |phi2F| is small,
    and the bound is taken on c.unit() and scaled back.
    """
    if not (1.0 <= float(p) < np.inf):
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    if c.phi2F == 0.0:
        raise ValueError("upper bound needs phi2F != 0")
    p = float(p)
    c, scale = c.unit()
    n, k = spec.N, spec.K
    eps = spec.eps
    alpha = (c.phiF + 5.0 * c.phi2F) / (2.0 * c.phi2F)
    w = 1.0 / max(1.0, abs(alpha))
    a = max(-1.0, min(1.0, alpha))  # w * alpha, exactly; alpha itself when w = 1
    num_p = 2.0 * eps * (
        abs(a * c.phi2F) ** p
        + abs(a * c.phiF + (w + 2.0 * a) * c.phi2F) ** p
    )
    den_p = 2.0 * eps * ((n - k - 1) * w**p + abs(a) ** p)
    return scale * (num_p / den_p) ** (1.0 / p)
