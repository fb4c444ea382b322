"""Independent oracles the tests check the library against.

Everything here recomputes quantities by a different route than the
library: explicit bond loops for energies, finite differences for
gradients and Jacobians, direct pairing maximization for the dual norm,
dense row loops for the operators, dense eigen- and singular-value
solves for the stability constants, dense LU for the linear solves, and
a direct operator product in exact rational arithmetic for the
truncation error.
Keep these dumb and slow on purpose.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

from qcf1d.lattice import Field, diff, inner, lp_norm
from qcf1d.potentials import Coefficients


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_jacobian(F, x, h=1e-6):
    """Central-difference Jacobian of a vector function of a vector."""
    cols = []
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((F(xp) - F(xm)) / (2.0 * h))
    return np.column_stack(cols)


def energy_atomistic_loop(y, phi, eps):
    """Brute-force bond loop over both neighbor ranges."""
    v = y.values
    total = 0.0
    for j in range(1, len(v)):
        total += eps * float(phi.eval((v[j] - v[j - 1]) / eps))
    for j in range(2, len(v)):
        total += eps * float(phi.eval((v[j] - v[j - 2]) / eps))
    return total


def energy_lqc_loop(y, phi, eps):
    v = y.values
    total = 0.0
    for j in range(1, len(v)):
        r = (v[j] - v[j - 1]) / eps
        total += eps * float(phi.eval(r) + phi.eval(2.0 * r))
    return total


def plateau_dual_norm(f, eps):
    """Exact dual-norm maximization over the extreme points of the ball.

    The unit ball of w -> ||Dw||_1 on fields vanishing at +-N has the
    normalized indicator fields (plateaus of height 1/2) as extreme
    points; enumerating all of them and pairing directly against f gives
    the supremum.
    """
    n = f.half_width
    best = 0.0
    for a in range(-n + 1, n):
        for b in range(a, n):
            w = np.zeros(2 * n + 1)
            w[a + n : b + 1 + n] = 1.0
            wf = Field(w, -n)
            nrm = lp_norm(diff(wf, eps), eps, 1)
            best = max(best, abs(inner(wf, f, eps)) / nrm)
    return best


def sampled_dual_norm(f, eps, n_samples, rng):
    """Max of <f, w>/||Dw||_1 over random fields from three families.

    Half the draws are random plateaus (extreme points of the constraint
    ball), the rest Gaussian noise and Brownian bridges.  Every draw is a
    feasible candidate, so the result can only undershoot the dual norm.
    """
    n = f.half_width
    best = 0.0
    n_plateau = n_samples // 2
    n_noise = (n_samples - n_plateau) // 2
    n_bridge = n_samples - n_plateau - n_noise

    a = rng.integers(-n + 1, n, size=n_plateau)
    b = rng.integers(-n + 1, n, size=n_plateau)
    lo = np.minimum(a, b) + n
    hi = np.maximum(a, b) + n
    prefix = np.concatenate([[0.0], np.cumsum(f.values)])
    # <f, plateau>/||D plateau||_1 evaluated directly: height 1, norm 2
    vals = eps * (prefix[hi + 1] - prefix[lo]) / 2.0
    best = max(best, float(np.max(np.abs(vals))))

    for kind, count in (("noise", n_noise), ("bridge", n_bridge)):
        done = 0
        while done < count:
            batch = min(2000, count - done)
            done += batch
            if kind == "noise":
                W = rng.standard_normal((batch, 2 * n + 1))
                W[:, 0] = 0.0
                W[:, -1] = 0.0
            else:
                steps = rng.standard_normal((batch, 2 * n))
                path = np.cumsum(steps, axis=1)
                path -= path[:, -1:] * (np.arange(1, 2 * n + 1) / (2 * n))
                W = np.concatenate([np.zeros((batch, 1)), path], axis=1)
                W[:, -1] = 0.0
            dW = np.diff(W, axis=1) / eps
            norms = eps * np.abs(dW).sum(axis=1)
            pairings = eps * (W @ f.values)
            best = max(best, float(np.max(np.abs(pairings) / norms)))
    return best


# Grid for differential tests of the sparse operators and kernels: K=2,
# K=N/2 and K in between, and phiF + 8*phi2F -> 0 (with phiF = 1).
DIFFERENTIAL_PHI2F = [0.0, -0.2, -0.125 + 1e-6, 0.3]
DIFFERENTIAL_NK = [(16, 2), (64, 32), (128, 2), (256, 63), (512, 128)]

# Dense loop assemblers: one explicit loop over rows per operator, with
# the same index conventions as qcf1d.operators (displacement operators
# on rows -n+1..n-1 by columns -n..n, strain operators on bonds -n+1..n).


def la_dense(c, m, eps):
    s1 = c.phiF / eps**2
    s2 = c.phi2F / eps**2
    A = np.zeros((2 * m - 1, 2 * m + 1))
    for j in range(-m + 1, m):
        i = j + m - 1
        o = j + m
        A[i, o - 1] += -s1
        A[i, o] += 2.0 * s1
        A[i, o + 1] += -s1
        if j == -m + 1:
            A[i, o] += s2
            A[i, o + 2] += -s2
        elif j == m - 1:
            A[i, o] += s2
            A[i, o - 2] += -s2
        else:
            A[i, o - 2] += -s2
            A[i, o] += 2.0 * s2
            A[i, o + 2] += -s2
    return A


def llqc_dense(c, n, eps):
    s = (c.phiF + 4.0 * c.phi2F) / eps**2
    A = np.zeros((2 * n - 1, 2 * n + 1))
    for i in range(2 * n - 1):
        A[i, i] = -s
        A[i, i + 1] = 2.0 * s
        A[i, i + 2] = -s
    return A


def lqcf_dense(c, spec):
    n, k = spec.N, spec.K
    eps = spec.eps
    s1 = c.phiF / eps**2
    s2 = c.phi2F / eps**2
    slqc = (c.phiF + 4.0 * c.phi2F) / eps**2
    A = np.zeros((2 * n - 1, 2 * n + 1))
    for j in range(-n + 1, n):
        i = j + n - 1
        o = j + n
        if abs(j) <= k:
            A[i, o - 1] += -s1
            A[i, o] += 2.0 * s1
            A[i, o + 1] += -s1
            A[i, o - 2] += -s2
            A[i, o] += 2.0 * s2
            A[i, o + 2] += -s2
        else:
            A[i, o - 1] += -slqc
            A[i, o] += 2.0 * slqc
            A[i, o + 1] += -slqc
    return A


def l2_dense(spec):
    n, k = spec.N, spec.K
    s = 1.0 / spec.eps**2
    A = np.zeros((2 * n - 1, 2 * n + 1))
    for j in range(-n + 1, n):
        i = j + n - 1
        o = j + n
        if abs(j) <= k:
            A[i, o - 2] += -s
            A[i, o] += 2.0 * s
            A[i, o + 2] += -s
        else:
            A[i, o - 1] += -4.0 * s
            A[i, o] += 8.0 * s
            A[i, o + 1] += -4.0 * s
    return A


def ea_dense(c, m):
    nb = 2 * m
    B = np.zeros((nb, nb))
    for i in range(nb):
        B[i, i] = 2.0
        if i > 0:
            B[i, i - 1] = 1.0
        if i < nb - 1:
            B[i, i + 1] = 1.0
    B[0, 0] = 1.0
    B[nb - 1, nb - 1] = 1.0
    return c.phiF * np.eye(nb) + c.phi2F * B


def eqcf_dense(c, spec):
    n, k = spec.N, spec.K
    nb = 2 * n
    off = n - 1  # bond j sits at offset j + off
    B = np.zeros((nb, nb))
    for j in range(-n + 1, n + 1):
        i = j + off
        if j <= -k - 2:
            B[i, i] += 4.0
            B[i, -k - 1 + off] += 1.0
            B[i, -k + off] += -2.0
            B[i, -k + 1 + off] += 1.0
        elif j == -k - 1:
            B[i, -k - 1 + off] += 5.0
            B[i, -k + off] += -2.0
            B[i, -k + 1 + off] += 1.0
        elif j <= k + 1:
            B[i, i - 1] += 1.0
            B[i, i] += 2.0
            B[i, i + 1] += 1.0
        elif j == k + 2:
            B[i, k + off] += 1.0
            B[i, k + 1 + off] += -2.0
            B[i, k + 2 + off] += 5.0
        else:
            B[i, i] += 4.0
            B[i, k + off] += 1.0
            B[i, k + 1 + off] += -2.0
            B[i, k + 2 + off] += 1.0
    return c.phiF * np.eye(nb) + c.phi2F * B


def rayleigh_min_dense(c, spec):
    """Smallest eigenvalue of the symmetrized interior block against the
    strain Gram matrix, by a dense generalized symmetric eigensolve."""
    n, eps = spec.N, spec.eps
    Li = lqcf_dense(c, spec)[:, 1:-1]
    A = eps * 0.5 * (Li + Li.T)
    B = (2.0 * np.eye(2 * n - 1) - np.eye(2 * n - 1, k=1) - np.eye(2 * n - 1, k=-1)) / eps
    return float(scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=(0, 0))[0])


def infsup_2_dense(M):
    """Smallest singular value of M compressed to the mean-zero subspace."""
    Q = scipy.linalg.null_space(np.ones((1, M.shape[0])))
    return float(scipy.linalg.svdvals(Q.T @ M @ Q)[-1])


def solve_refined_dense(A, b):
    """Dense LU solve with one step of iterative refinement."""
    lu, piv = scipy.linalg.lu_factor(A)
    x = scipy.linalg.lu_solve((lu, piv), b)
    return x + scipy.linalg.lu_solve((lu, piv), b - A @ x)


def solve_bordered_dense(E, g, delta_u, eps):
    """Strains w with E w = g + const and eps * sum(w) = delta_u, densely."""
    nb = E.shape[0]
    A = np.zeros((nb + 1, nb + 1))
    A[:nb, :nb] = E
    A[:nb, nb] = -1.0
    A[nb, :nb] = eps
    return solve_refined_dense(A, np.append(g, delta_u))[:nb]


def truncation_error_dense(u_a, c, spec):
    """Residual of the reference solution in the coupled equations, directly.

    The coupled operator phiF * L1 + phi2F * L2, with the integer
    stencils of the dense loop assemblers, applied to the restriction,
    minus the atomistic stencil applied to the full field, with zeros at
    the boundary sites.  The two applications agree to O(eps^2) relative,
    so in floating point the rounding of their 1/eps^2-sized terms would
    be all the noise in the result: at N=1024 it moves the dual norm by
    1e-7 to 7e-6 relative, depending on the last bits of u_a.  So every
    product and sum runs in exact rational arithmetic on the float data,
    rounded once per entry.  Needs M >= N+2 so the atomistic stencil at
    rows +-(N-1) stays inside the reference chain.
    """
    spec.require_reference(2)
    n, eps = spec.N, spec.eps
    if u_a.half_width < n + 2:
        raise ValueError("reference field too short for the stencils at +-(N-1)")
    u = [Fraction(v) for v in u_a.values]
    phiF, phi2F = Fraction(c.phiF), Fraction(c.phi2F)
    L1 = np.rint(llqc_dense(Coefficients(1.0, 0.0), n, eps) * eps**2).astype(int)
    L2 = np.rint(l2_dense(spec) * eps**2).astype(int)
    t = np.zeros(2 * n + 1)
    for i, j in enumerate(range(-n + 1, n)):
        lq = sum((phiF * int(L1[i, q]) + phi2F * int(L2[i, q])) * u[q - n - u_a.lo]
                 for q in np.flatnonzero(L1[i] | L2[i]))
        s = j - u_a.lo
        la = phiF * (2 * u[s] - u[s - 1] - u[s + 1]) + phi2F * (2 * u[s] - u[s - 2] - u[s + 2])
        t[i + 1] = float((lq - la) / Fraction(eps) ** 2)
    return Field(t, -n)
