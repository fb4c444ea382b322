"""Independent oracles the tests check the library against.

Everything here recomputes quantities by a different route than the
library: explicit bond loops for energies, finite differences for
gradients and Jacobians, the site-by-site dispatch of the coupled force,
direct pairing maximization for the dual norm, dense row loops for the
operators, the summation-by-parts split of the next-nearest pairing,
the explicit interface probe, dense eigen- and singular-value solves for
the stability constants, dense LU for the linear solves, and direct
operator products in exact rational arithmetic for the truncation error
and the quadratic form.  The forces of the energy-based coupling (QCE),
which has ghost forces, serve the negative controls.  The
Lennard-Jones energy and second derivative, with the spring constants
they give at a strain, live here because the CLI is given spring
constants directly; so do the site sets of a domain (interior,
atomistic, continuum), since only the tests index by them.
Keep these dumb and slow on purpose.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

from qcf1d.chain import force_atomistic, force_lqc
from qcf1d.lattice import diff, lp_norm, summed_load
from qcf1d.operators import strain_stencil
from qcf1d.potentials import Coefficients
from qcf1d.solver import solve_strain


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


@np.errstate(over="ignore", invalid="ignore")
def lj_energy(r):
    """The normalized Lennard-Jones potential r^-12 - 2 r^-6, whose first derivative is lj_deriv1.

    Scalars or arrays; r <= 0 raises, as the derivatives do.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("Lennard-Jones potential needs a positive separation")
    s = r**-6
    return s * s - 2.0 * s


@np.errstate(over="ignore", invalid="ignore")
def lj_deriv2(r):
    """The second derivative 156 r^-14 - 84 r^-8 of lj_energy; scalars or arrays, r <= 0 raises."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("Lennard-Jones potential needs a positive separation")
    return 156.0 * r**-14 - 84.0 * r**-8


def lj_coefficients(F):
    """The spring constants phi''(F) and phi''(2F) of the Lennard-Jones chain at the strain F."""
    return Coefficients(float(lj_deriv2(F)), float(lj_deriv2(2.0 * F)))


def energy_atomistic_loop(v, energy, eps):
    """Brute-force bond loop over both neighbor ranges; energy is the potential of the bond strain."""
    total = 0.0
    for j in range(1, len(v)):
        total += eps * float(energy((v[j] - v[j - 1]) / eps))
    for j in range(2, len(v)):
        total += eps * float(energy((v[j] - v[j - 2]) / eps))
    return total


def energy_lqc_loop(v, energy, eps):
    total = 0.0
    for j in range(1, len(v)):
        r = (v[j] - v[j - 1]) / eps
        total += eps * float(energy(r) + energy(2.0 * r))
    return total


def qce_bonds(spec):
    """(lo, hi, a) of each term eps/2 * phi(a * (y_hi - y_lo) / eps) of the QCE energy on -N..N.

    The energy-based coupling sums site energies, each half of every bond
    at its site: the nearest and next-nearest bonds (a = 1) on the
    atomistic sites |j| <= K, and phi(r) + phi(2r) of each nearest bond r
    (a = 1, 2) on the others, the Cauchy-Born ones.  lo and hi are
    offsets into positions over -N..N.
    """
    n, terms = spec.N, []
    for i in range(2 * n + 1):
        reach = ((1, 1), (2, 1)) if abs(i - n) <= spec.K else ((1, 1), (1, 2))
        for d, a in reach:
            terms += [(lo, lo + d, a) for lo in (i - d, i) if lo >= 0 and lo + d <= 2 * n]
    return terms


def energy_qce_loop(y, spec, energy):
    return sum(0.5 * spec.eps * float(energy(a * (y[hi] - y[lo]) / spec.eps))
               for lo, hi, a in qce_bonds(spec))


def force_qce(y, spec, phi):
    """Minus the gradient of energy_qce_loop on -N+1..N-1, per lattice spacing as force_atomistic is.

    Unlike the coupled force, it has ghost forces: at a uniform state it
    is phi'(2F) / (2 eps) in size next to each interface.
    """
    grad = np.zeros(len(y))
    for lo, hi, a in qce_bonds(spec):
        g = 0.5 * a * float(phi(a * (y[hi] - y[lo]) / spec.eps))
        grad[hi] += g
        grad[lo] -= g
    return -grad[1:-1] / spec.eps


def interior_sites(spec):
    """Sites -N+1..N-1 of a DomainSpec."""
    return np.arange(-spec.N + 1, spec.N)


def atomistic_sites(spec):
    """Sites -K..K of a DomainSpec."""
    return np.arange(-spec.K, spec.K + 1)


def continuum_sites(spec):
    """Interior sites with |j| > K."""
    j = interior_sites(spec)
    return j[np.abs(j) > spec.K]


def force_qcf(y, spec, phi):
    """Coupled force on -N+1..N-1, dispatched site by site: atomistic on |j| <= K, local elsewhere."""
    if len(y) != 2 * spec.N + 1:
        raise ValueError(f"expected positions over -N..N with N={spec.N}")
    fa = force_atomistic(y, phi, spec.eps)
    fl = force_lqc(y, phi, spec.eps)
    return np.where(np.abs(interior_sites(spec)) <= spec.K, fa, fl)


def diff3(v, eps):
    """Third backward difference, (v_j - 3v_{j-1} + 3v_{j-2} - v_{j-3})/eps^3, on j = -L+3..L."""
    return (v[3:] - 3.0 * v[2:-1] + 3.0 * v[1:-2] - v[:-3]) / eps**3


def diff4_centered(v, eps):
    """Centered fourth difference on interior sites -L+2..L-2."""
    return (v[4:] - 4.0 * v[3:-1] + 6.0 * v[2:-2] - 4.0 * v[1:-3] + v[:-4]) / eps**4


def displacement_solve(c, f, k, eps, bc=(0.0, 0.0)):
    """u on -n..n with L u = f on the free atoms and u = bc at -+n, n the half-width of f.

    L is La for k = n-1 and Lqcf for k = K: the strain solve of its
    conjugate on the summed load, summed up from bc[0].
    """
    n = len(f) // 2
    w = solve_strain(c, n, k, summed_load(f, eps), bc[1] - bc[0], eps)
    return np.concatenate(([bc[0]], bc[0] + eps * np.cumsum(w)))


def plateau_dual_norm(f, eps):
    """Exact dual-norm maximization over the extreme points of the ball.

    The unit ball of w -> ||Dw||_1 on fields vanishing at +-N has the
    normalized indicator fields (plateaus of height 1/2) as extreme
    points; enumerating all of them and pairing directly against f gives
    the supremum.
    """
    n = len(f) // 2
    best = 0.0
    for a in range(-n + 1, n):
        for b in range(a, n):
            w = np.zeros(2 * n + 1)
            w[a + n : b + 1 + n] = 1.0
            nrm = lp_norm(diff(w, eps), eps, 1)
            best = max(best, abs(eps * float(w @ f)) / nrm)
    return best


def sampled_dual_norm(f, eps, n_samples, rng):
    """Max of <f, w>/||Dw||_1 over random fields from three families.

    Half the draws are random plateaus (extreme points of the constraint
    ball), the rest Gaussian noise and Brownian bridges.  Every draw is a
    feasible candidate, so the result can only undershoot the dual norm.
    """
    n = len(f) // 2
    best = 0.0
    n_plateau = n_samples // 2
    n_noise = (n_samples - n_plateau) // 2
    n_bridge = n_samples - n_plateau - n_noise

    a = rng.integers(-n + 1, n, size=n_plateau)
    b = rng.integers(-n + 1, n, size=n_plateau)
    lo = np.minimum(a, b) + n
    hi = np.maximum(a, b) + n
    prefix = np.concatenate([[0.0], np.cumsum(f)])
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
            pairings = eps * (W @ f)
            best = max(best, float(np.max(np.abs(pairings) / norms)))
    return best


# Grid for differential tests of the sparse operators and kernels: K=2,
# K=N/2 and K in between, and phiF + 8*phi2F -> 0 (with phiF = 1).
DIFFERENTIAL_PHI2F = [0.0, -0.2, -0.125 + 1e-6, 0.3]
DIFFERENTIAL_NK = [(16, 2), (64, 32), (128, 2), (256, 63), (512, 128)]

# Dense loop assemblers: one explicit loop over rows per operator, with
# the same index conventions as qcf1d.operators (displacement operators
# on rows -n+1..n-1 by columns -n..n, strain operators on bonds -n+1..n).


def dense(entries, rows, cols):
    """The dense matrix of (row, col, value) entries on the index ranges rows and cols.

    Raises ValueError on an index outside the ranges, where numpy would
    silently wrap a negative offset, and on a position listed twice.
    """
    row, col, value = entries
    r, k = np.asarray(row, dtype=np.int64) - rows.start, np.asarray(col, dtype=np.int64) - cols.start
    if np.any((r < 0) | (r >= len(rows)) | (k < 0) | (k >= len(cols))):
        raise ValueError(f"an entry lies outside rows {rows} by columns {cols}")
    if np.unique(r * len(cols) + k).size != r.size:
        raise ValueError("a position is listed twice")
    a = np.zeros((len(rows), len(cols)))
    a[r, k] = value
    return a


def bonds(n):
    """The bonds -n+1..n of a chain of half-width n: the rows and columns of a strain operator."""
    return range(-n + 1, n + 1)


def conjugate_dense(stencil, eps, identity, next_nearest=0.0):
    """The displacement operator conjugate to identity * I + next_nearest * B, densely.

    Row j is ((E Dv)_j - (E Dv)_{j+1}) / eps: the rows and columns of I
    and of B (the library's own integer_entries) are differenced as
    integers before the scaling, so entries that cancel are exact zeros.
    Rows are the free atoms -n+1..n-1, columns every atom -n..n.
    """
    row, col, b = stencil.integer_entries()
    nb = stencil.diag.size
    ints = np.zeros((2, nb, nb + 2), dtype=np.int64)  # bond columns padded by a zero column on each side
    ints[0, np.arange(nb), np.arange(nb) + 1] = 1
    ints[1, row, col + 1] = b
    a, b = np.diff(np.diff(ints, axis=1), axis=2)
    return (identity * a + next_nearest * b) / eps**2


# the displacement operators, as (band of B, identity, next_nearest) from (c, n, k)
CONJUGATES = {
    "La": lambda c, n, k: (n - 1, c.phiF, c.phi2F),
    "Llqc": lambda c, n, k: (n - 1, c.phiF + 4.0 * c.phi2F, 0.0),
    "Lqcf": lambda c, n, k: (k, c.phiF, c.phi2F),
}


def dump_entries(name, c, n, k):
    """dump-operator's (row, col, value) of Ea or Eqcf, unsorted, indexed by bond; only Eqcf reads k."""
    row, col, value = strain_stencil(n, n - 1 if name == "Ea" else k).entries(c)
    return row - n + 1, col - n + 1, value


def operator_dense(name, c, n, k=None):
    """The dense matrix of operator name at eps = 1/n; k is read by Lqcf and Eqcf only.

    Ea and Eqcf are dump-operator's entries; La, Llqc and Lqcf are their
    conjugates, built here from the same stencil.
    """
    if name in CONJUGATES:
        band, identity, next_nearest = CONJUGATES[name](c, n, k)
        return conjugate_dense(strain_stencil(n, band), 1.0 / n, identity, next_nearest)
    return dense(dump_entries(name, c, n, k), bonds(n), bonds(n))


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


def pair_dense(L, v, w, eps):
    """<L v, w> for a dense displacement operator and w vanishing on the rows L omits."""
    return eps * float((L @ v) @ w[1:-1])


def l2_decomposition(v, w, spec):
    """Split <L2 v, w> into a strain-pairing part plus two interface terms.

    Returns (regular, left_interface, right_interface); the interface
    terms are eps^2 * (third difference of v at bond -K+1) * w_{-K} and
    minus the mirror expression at bond K+2.  Their sum reconstructs the
    direct pairing for every v and every w vanishing at +-N.
    """
    n, k = spec.N, spec.K
    eps = spec.eps
    if len(v) != 2 * n + 1 or len(w) != 2 * n + 1:
        raise ValueError(f"fields must cover -N..N with N={n}")
    if not (w[0] == 0.0 and w[-1] == 0.0):
        raise ValueError("test field must vanish at the boundary sites")
    dv = diff(v, eps)
    dw = diff(w, eps)
    off = n - 1  # bond j at offset j + off
    left = slice(0, -k + off + 1)  # bonds -N+1..-K
    mid = np.arange(-k + 1 + off, k + off + 1)  # bonds -K+1..K
    right = slice(k + 1 + off, 2 * n)  # bonds K+1..N
    regular = 4.0 * eps * float(dv[left] @ dw[left])
    regular += eps * float((dv[mid - 1] + 2.0 * dv[mid] + dv[mid + 1]) @ dw[mid])
    regular += 4.0 * eps * float(dv[right] @ dw[right])
    d3 = diff3(v, eps)  # j at offset j + n - 3
    left_interface = eps**2 * d3[-k + 1 + n - 3] * w[-k + n]
    right_interface = -(eps**2) * d3[k + 2 + n - 3] * w[k + n]
    return regular, left_interface, right_interface


def interface_probe(c, spec):
    """Mean-zero strain that the conjugate coupled operator nearly annihilates.

    Piecewise constant -1 / 0 / 1 with values -alpha and alpha at the two
    bonds flanking the atomistic band, alpha chosen so the far-field rows
    of the image cancel exactly; stability.infsup_p_upper is its closed form.
    """
    n, k = spec.N, spec.K
    alpha = (c.phiF + 5.0 * c.phi2F) / (2.0 * c.phi2F)
    xi = np.zeros(2 * n)
    j = np.arange(-n + 1, n + 1)
    xi[j <= -k - 1] = -1.0
    xi[j == -k] = -alpha
    xi[j == k + 1] = alpha
    xi[j >= k + 2] = 1.0
    return xi


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


def quadratic_form_exact(c, spec, v):
    """<L v, v> for the coupled operator in exact rational arithmetic, rounded once.

    Row by row from the displacement stencils of lqcf_dense: atomistic
    rows on |j| <= K, local rows elsewhere, on the float data of v and
    the coefficients taken exactly.
    """
    n, k = spec.N, spec.K
    u = [Fraction(x) for x in v]  # site j at j + n
    phiF, phi2F = Fraction(c.phiF), Fraction(c.phi2F)
    total = Fraction(0)
    for o in range(1, 2 * n):
        near = 2 * u[o] - u[o - 1] - u[o + 1]
        if abs(o - n) <= k:
            lv = phiF * near + phi2F * (2 * u[o] - u[o - 2] - u[o + 2])
        else:
            lv = (phiF + 4 * phi2F) * near
        total += lv * u[o]
    return float(total / Fraction(spec.eps))


def rdd_margin_dense(A):
    """Row diagonal-dominance margin of a square dense array, from its dense row sums."""
    d = np.diag(A)
    off = A - np.diag(d)
    return float(np.min(d + np.minimum(off, 0.0).sum(axis=1)) - np.max(np.maximum(off, 0.0).sum(axis=1)))


def rayleigh_min_dense(c, spec):
    """Smallest eigenvalue of sym(Eqcf) compressed to the mean-zero strains, densely.

    Q^T sym(E) Q, with Q an orthonormal basis of the mean-zero strains,
    is conditioned like sym(E) itself; the generalized problem of the
    interior block of Lqcf against the strain Gram matrix D^T D / eps is
    not, as that Gram matrix's condition number grows like N^2.
    """
    E = eqcf_dense(c, spec)
    Q = scipy.linalg.null_space(np.ones((1, E.shape[0])))
    return float(np.linalg.eigvalsh(Q.T @ (0.5 * (E + E.T)) @ Q)[0])


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
    if spec.M is None:
        raise ValueError("the direct route needs the reference half-width DomainSpec.M")
    n, eps = spec.N, spec.eps
    m = len(u_a) // 2  # site j at j + m
    if m < n + 2:
        raise ValueError("reference field too short for the stencils at +-(N-1)")
    u = [Fraction(v) for v in u_a]
    phiF, phi2F = Fraction(c.phiF), Fraction(c.phi2F)
    L1 = np.rint(llqc_dense(Coefficients(1.0, 0.0), n, eps) * eps**2).astype(int)
    L2 = np.rint(l2_dense(spec) * eps**2).astype(int)
    t = np.zeros(2 * n + 1)
    for i, j in enumerate(range(-n + 1, n)):
        lq = sum((phiF * int(L1[i, q]) + phi2F * int(L2[i, q])) * u[q - n + m]
                 for q in np.flatnonzero(L1[i] | L2[i]))
        s = j + m
        la = phiF * (2 * u[s] - u[s - 1] - u[s + 1]) + phi2F * (2 * u[s] - u[s - 2] - u[s + 2])
        t[i + 1] = float((lq - la) / Fraction(eps) ** 2)
    return t
