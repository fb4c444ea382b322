"""Coercivity loss and inf-sup stability of the coupled operator.

The coupled operator keeps a uniform inf-sup constant only for one norm
pairing: testing max-norm strains against summed-strain test fields.
There the row diagonal-dominance margin gamma of its conjugate certifies
an inf-sup constant of at least gamma/2, with gamma = phiF + 8*phi2F
independently of domain sizes.  In every other strain pairing the
constant decays like N^(-1/p), and the quadratic form itself takes values
as low as -const * sqrt(N): both effects come from the interface columns
of the conjugate operator and are reproduced here by explicit
constructions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .lattice import DomainSpec, Field, diff, lp_norm
from .operators import Operator, assemble_l1, assemble_lqcf, pair_with_test
from .potentials import Coefficients

if TYPE_CHECKING:
    import scipy.sparse

EIG_TOL = 1e-10

# In every qcf1d module, scipy is imported only inside the functions that call
# it: the import costs more than a whole patch test, which never needs scipy.


def _square(A, what: str) -> scipy.sparse.csr_array:
    """An Operator's entries, or any dense or sparse matrix, as square CSR."""
    import scipy.sparse

    M = scipy.sparse.csr_array(A.entries if isinstance(A, Operator) else A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} needs a square matrix")
    return M


def _start_vector(n: int) -> np.ndarray:
    """Fixed Lanczos start vector, so every run returns the same digits."""
    return np.random.default_rng(0).uniform(-1.0, 1.0, n)


def quadratic_form(c: Coefficients, spec: DomainSpec, v: Field) -> float:
    """<L v, v> for the coupled operator and a field vanishing at +-N."""
    if not v.is_homogeneous:
        raise ValueError("quadratic form is defined on fields vanishing at +-N")
    return pair_with_test(assemble_lqcf(c, spec), v, v, spec.eps)


def _rayleigh_pencil(c: Coefficients, spec: DomainSpec) -> tuple:
    """Symmetrized coupled interior block A, Gram matrix B of ||Dv||^2 (eps * L1)."""
    Li = assemble_lqcf(c, spec).interior_block()
    return spec.eps * 0.5 * (Li + Li.T), spec.eps * assemble_l1(spec.N, spec.eps).interior_block()


def _certified_shift(A, B) -> float:
    """A shift sigma below every generalized eigenvalue of banded (A, B).

    With B positive definite, A - sigma*B has a Cholesky factorization
    exactly when every eigenvalue exceeds sigma.  sigma starts at -1 and
    doubles downward until the banded factorization (LAPACK upper band
    storage) succeeds, which it must since B is definite.
    """
    import scipy.linalg

    a, b = (np.array([np.pad(S.diagonal(d), (d, 0)) for d in (2, 1, 0)]) for S in (A, B))
    sigma = -1.0
    while True:
        try:
            scipy.linalg.cholesky_banded(a - sigma * b)
            return sigma
        except scipy.linalg.LinAlgError:
            sigma *= 2.0


def rayleigh_min(c: Coefficients, spec: DomainSpec) -> float:
    """Minimum of <L v, v> over fields vanishing at +-N with ||Dv|| = 1.

    Only the symmetric part of the operator enters a quadratic form, so
    this is the smallest eigenvalue of the symmetrized interior block A
    against the strain Gram matrix B: the one nearest a shift sigma that
    a banded Cholesky factorization of A - sigma*B certifies to lie below
    the spectrum, found by shift-invert Lanczos.  It is returned as the
    Rayleigh quotient of the Lanczos vector (2e-12 relative at N=4096,
    where the Ritz value is off by 4e-10), and the pair must pass a
    residual check scaled by Frobenius norms.
    """
    import scipy.sparse.linalg

    A, B = _rayleigh_pencil(c, spec)
    _, vecs = scipy.sparse.linalg.eigsh(
        A, k=1, M=B, sigma=_certified_shift(A, B), which="LM", v0=_start_vector(A.shape[0])
    )
    x = vecs[:, 0]
    lam = float(x @ (A @ x) / (x @ (B @ x)))
    resid = np.linalg.norm(A @ x - lam * (B @ x))
    scale = (np.linalg.norm(A.data) + abs(lam) * np.linalg.norm(B.data)) * np.linalg.norm(x)
    if scale > 0 and resid > EIG_TOL * scale:
        raise RuntimeError(
            f"eigensolve residual {resid:.3e} exceeds {EIG_TOL:.1e} * {scale:.3e}"
        )
    return lam


def unstable_candidate(spec: DomainSpec, sign: str = "-", normalize: bool = True) -> Field:
    """Explicit low-energy candidate: plateau plus one sqrt(eps) spike.

    The field is 1 on -K-2..K+2, ramps linearly to 0 at +-N, and carries a
    spike of height +-sqrt(eps) at site K+1.  Its strain stays bounded
    while the interface term of the quadratic form grows like sqrt(N),
    which is what makes the form indefinite for large N.  With
    normalize=True the field is rescaled to ||Dv|| = 1.
    """
    n, k = spec.N, spec.K
    if n - k - 2 < 1:
        raise ValueError(f"domain too small for the ramp: N={n}, K={k}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    j = np.arange(-n, n + 1)
    ramp = n - np.abs(j)
    v = np.where(np.abs(j) <= k + 2, 1.0, ramp / (n - k - 2.0))
    v = v.astype(float)
    v[(k + 1) + n] += (1.0 if sign == "+" else -1.0) * np.sqrt(spec.eps)
    f = Field(v, -n)
    if normalize:
        f = f * (1.0 / lp_norm(diff(f, spec.eps), spec.eps, 2))
    return f


def rdd_margin(A) -> float:
    """Row diagonal-dominance margin gamma of a square matrix.

    gamma = min_i (A_ii + sum of negative off-diagonals in row i)
            - max_i (sum of positive off-diagonals in row i).
    When gamma > 0 the mean-zero max-norm/1-norm inf-sup constant of A is
    at least gamma/2.
    """
    import scipy.sparse

    M = _square(A, "rdd_margin")
    off = M - scipy.sparse.diags_array(M.diagonal())
    neg = off.minimum(0.0).sum(axis=1)
    pos = off.maximum(0.0).sum(axis=1)
    return float(np.min(M.diagonal() + neg) - np.max(pos))


def infsup_2(A) -> float:
    """Inf-sup constant of A over mean-zero strains in the 2-norm pairing.

    Equals the smallest singular value s of A compressed to the mean-zero
    subspace (the eps-weights cancel between trial and test norms).  The
    solve S of the bordered system [[A, -1], [1^T, 0]] (one sparse LU)
    maps b to the mean-zero x with A x - b constant: the inverse of the
    compressed A.  Lanczos on x -> P S^T S P x, with P removing the
    mean, returns 1/s^2 as the largest eigenvalue.
    """
    import scipy.sparse.linalg

    M = _square(A, "infsup_2")
    n = M.shape[0]
    one = np.ones((n, 1))
    bordered = scipy.sparse.block_array([[M, -one], [one.T, None]], format="csc")
    lu = scipy.sparse.linalg.splu(bordered)

    def normal(x):
        y = lu.solve(np.append(x - x.mean(), 0.0))[:n]
        z = lu.solve(np.append(y, 0.0), trans="T")[:n]
        return z - z.mean()

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=normal, dtype=float)
    lam = scipy.sparse.linalg.eigsh(
        op, k=1, which="LA", v0=_start_vector(n), return_eigenvectors=False
    )
    return float(1.0 / np.sqrt(lam[0]))


def interface_probe(c: Coefficients, spec: DomainSpec) -> Field:
    """Mean-zero strain that the conjugate operator nearly annihilates.

    Piecewise constant -1 / 0 / 1 with values -alpha and alpha at the two
    bonds flanking the atomistic band, alpha chosen so the far-field rows
    of the image cancel exactly.
    """
    if c.phi2F == 0.0:
        raise ValueError("the probe needs phi2F != 0")
    n, k = spec.N, spec.K
    alpha = (c.phiF + 5.0 * c.phi2F) / (2.0 * c.phi2F)
    xi = np.zeros(2 * n)
    j = np.arange(-n + 1, n + 1)
    xi[j <= -k - 1] = -1.0
    xi[j == -k] = -alpha
    xi[j == k + 1] = alpha
    xi[j >= k + 2] = 1.0
    return Field(xi, -n + 1)


def infsup_p_upper(c: Coefficients, spec: DomainSpec, p: float) -> float:
    """Upper bound ||E xi|| / ||xi|| in the p-norm at the interface probe.

    Closed form: the image keeps exactly four nonzero entries (two per
    interface) while the probe itself has about 2(N-K) unit entries, so
    the quotient decays like N^(-1/p).
    """
    if not (1.0 <= float(p) < np.inf):
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    if c.phi2F == 0.0:
        raise ValueError("upper bound needs phi2F != 0")
    p = float(p)
    n, k = spec.N, spec.K
    eps = spec.eps
    alpha = (c.phiF + 5.0 * c.phi2F) / (2.0 * c.phi2F)
    num_p = 2.0 * eps * (
        abs(alpha * c.phi2F) ** p
        + abs(alpha * c.phiF + (1.0 + 2.0 * alpha) * c.phi2F) ** p
    )
    den_p = 2.0 * eps * (n - k - 1 + abs(alpha) ** p)
    return (num_p / den_p) ** (1.0 / p)


def dual_norm_star(f: Field, eps: float) -> float:
    """Dual norm of a load: sup <f, w> over w in V0 with ||Dw||_1 = 1.

    Closed form: half the oscillation of the weighted suffix sums
    g_i = eps * sum_{j=i}^{N-1} f_j (with g_N = 0).  The boundary samples
    f_{+-N} never pair with an admissible w and are ignored.
    """
    n = f.half_width
    if n < 1:
        raise ValueError("field too short")
    interior = f.values[1:-1]
    g = np.empty(2 * n)
    g[-1] = 0.0
    g[:-1] = eps * np.cumsum(interior[::-1])[::-1]
    return 0.5 * float(g.max() - g.min())
