"""The linearized chain operators, in strain form.

Linearizing the three force laws about the uniformly strained state gives
operators L acting on displacements:

  * atomistic: second differences of both neighbor ranges, with one-sided
    next-nearest stencils on the first and last free atom;
  * local: a single tridiagonal stencil with spring constant
    phiF + 4*phi2F;
  * coupled: atomistic rows on |j| <= K, local rows elsewhere.

Each is the conjugate of an operator E acting on strains, which puts it
in divergence form: <E Dv, Dw> = <L v, w> for all test fields w
vanishing at the boundary, so row j of L is
((E Dv)_j - (E Dv)_{j+1}) / eps.  Only the strain operators are built
here.  The coupled E is not banded: interface and far-field rows carry
three extra entries in the interface columns, the fingerprint of the
coupling being non-conservative.

Every operator has one source, the bands of StrainStencil.  split
writes E, E^T or sym(E) in one form T' + L^T R: a tridiagonal T' plus
one rank-one term per interface, or two for sym(E), with L and R plain
arrays.  It is the one form of E the kernels read: each splits once
and passes the split to multiply, norm_bound and BorderedSolve (factor
builds one for E or E^T), and rdd_margin reads it too, so no kernel
builds a matrix.  integer_entries lists B's nonzeros as small integers,
for eig-scan, and entries scales them to E, for dump-operator: (row,
col, value) arrays with one entry per position, assembled without loops
in O(N).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .potentials import Coefficients


def _reduce(lower, diag, upper) -> tuple:
    """Odd-even cyclic reduction of lower_i x_{i-1} + diag_i x_i + upper_i x_{i+1}.

    lower[0] and upper[-1] are ignored as zero.  Eliminating the even
    unknowns from each odd row leaves a tridiagonal system of half the
    size in the odd unknowns, until one unknown is left; an even-sized
    system first gains a decoupled row x = 0, so that every odd row has
    two even neighbors.  Returns the levels, each with the even rows
    (a, b, c) and the multipliers (left, right) of its elimination, and
    the last diagonal entry.  Cyclic reduction is Gaussian elimination
    on the odd-even permuted matrix, so strict diagonal dominance by
    rows or by columns carries over to every reduced system and no
    pivot is needed (Heller, SIAM J. Numer. Anal. 13, 1976).
    """
    levels = []
    while diag.size > 1:
        size = diag.size
        if size % 2 == 0:
            lower, diag, upper = (np.concatenate((v, [pad])) for v, pad in ((lower, 0.0), (diag, 1.0), (upper, 0.0)))
        # copies: views of the even rows would keep every row of the level alive
        a, b, c = lower[0::2].copy(), diag[0::2].copy(), upper[0::2].copy()
        left = -lower[1::2] / b[:-1]
        right = -upper[1::2] / b[1:]
        levels.append((size, a, b, c, left, right))
        lower, diag, upper = left * a[:-1], diag[1::2] + left * c[:-1] + right * a[1:], right * c[1:]
    return levels, diag[0]


def _substitute(reduction: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve for each row of rhs: down the reduced systems, then each even unknown by one division.

    Each level's even rows are freed once the way back up has used them,
    and the even unknowns are solved in place in the level's solution;
    rhs itself is only read.
    """
    levels, last = reduction
    evens = []
    for size, _, _, _, left, right in levels:
        if size % 2 == 0:
            rhs = np.concatenate((rhs, np.zeros((rhs.shape[0], 1))), axis=1)
        evens.append(rhs[:, 0::2])
        rhs = rhs[:, 1::2] + left * rhs[:, 0:-1:2] + right * rhs[:, 2::2]
    x = rhs / last
    for size, a, b, c, _, _ in reversed(levels):
        full = np.empty((x.shape[0], 2 * b.size - 1))
        e = full[:, 0::2]
        e[...] = evens.pop()
        e[:, 1:] -= a[1:] * x
        e[:, :-1] -= c[:-1] * x
        e /= b
        full[:, 1::2] = x
        x = full[:, :size]
    return x


def multiply(tridiagonal: tuple, left: np.ndarray, right: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(T + L^T R) w, with T given by its (lower, diag, upper) bands."""
    lower, diag, upper = tridiagonal
    out = diag * w
    out[1:] += lower[1:] * w[:-1]
    out[:-1] += upper[:-1] * w[1:]
    return out + (right @ w) @ left


def norm_bound(tridiagonal: tuple, left: np.ndarray, right: np.ndarray) -> float:
    """Max row sum of |T| + |L|^T |R|: a bound on ||T + L^T R||_inf, and on its 2-norm if it is symmetric.

    Summed in place on one vector, one row of L at a time, in O(rN).
    """
    lower, diag, upper = tridiagonal
    rows = np.abs(lower) + np.abs(upper)
    rows += np.abs(diag)
    for lk, rk in zip(left, right):
        rows += float(np.sum(np.abs(rk))) * np.abs(lk)
    return float(np.max(rows))


class BorderedSolve:
    """Solves (T + L^T R) x = b + const * 1 with weight * sum(x) = d, for many b.

    T is tridiagonal and strictly diagonally dominant by rows or by
    columns; L and R are (r, size) arrays, kept with T's bands for the
    callers' residuals and norm bounds.  Factoring reduces T once and
    substitutes the columns T^{-1} [1, L^T] and their Gram matrix; then
    x = T^{-1} b + [T^{-1} 1, T^{-1} L^T] u, and u = (const, -R x) comes
    from an (r+1)^2 capacitance system (Sherman-Morrison-Woodbury form).
    So each solve costs one substitution plus a small dense solve.
    """

    def __init__(self, tridiagonal: tuple, left: np.ndarray, right: np.ndarray, weight: float = 1.0,
                 what: str = "strain solve"):
        self.reduction = _reduce(*tridiagonal)
        self.tridiagonal, self.left, self.right = tridiagonal, left, right
        self.weight, self.what = weight, what
        self.iface = np.append(0.0, np.ones(len(left)))
        # T^{-1} [1, L^T], one column per right-hand side, as the capacitance
        # sums expect; [1, L^T] is passed unnamed so the substitution can free it
        self.columns = _substitute(
            self.reduction, np.vstack((np.ones(tridiagonal[1].size), left))).T.copy()
        self.gram = self.constraints(self.columns)  # [weight * 1^T; R] T^{-1} [1, L^T]

    def constraints(self, v: np.ndarray) -> np.ndarray:
        """weight * sum(v) and R v, per column of v."""
        return np.concatenate(([self.weight * np.sum(v, axis=0)], self.right @ v))

    def solve(self, b: np.ndarray, d: float = 0.0) -> tuple:
        """(x, const) with (T + L^T R) x = b + const * 1 and weight * sum(x) = d."""
        y = _substitute(self.reduction, b[None, :])[0]
        try:
            u = np.linalg.solve(self.gram + np.diag(self.iface),
                                (1.0 - self.iface) * d - self.constraints(y))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"{self.what}: bordered system is singular") from exc
        return y + self.columns @ u, float(u[0])


class StrainStencil(NamedTuple):
    """Next-nearest part B of a strain operator phiF * I + phi2F * B, as bands.

    Bonds -n+1..n sit at offsets 0..2n-1.  Row i of B has diag[i] on the
    diagonal and band[i] toward each neighboring bond that exists; a band
    row couples to both neighbors, a far-field row to neither.  Each
    interface (rows, col) adds [1, -2, 1] in columns col..col+2 to the
    rows its boolean mask marks.  So E = phiF * I + phi2F * B is
    T + L^T R, with T tridiagonal and one rank-one term per interface:
    the rows of L are phi2F times the far-field masks, those of R the
    [1, -2, 1] kinks.
    """

    band: np.ndarray
    diag: np.ndarray
    interfaces: tuple

    def split(self, c: Coefficients, form: str = "E") -> tuple:
        """((lower, diag, upper), L, R) of E, E^T or sym(E) = T' + L^T R; lower[0] = upper[-1] = 0.

        T' is strictly row diagonally dominant for E, and strictly
        column dominant for E^T, when phiF > 0 and phiF + 4*phi2F > 0.
        U = [far; kink] stacks the far-field masks over the [1, -2, 1]
        kinks.  E is (L, R) = (phi2F * far, kink), E^T swaps far and
        kink, and sym(E) is L = C U, R = U with C = (phi2F / 2) times the
        block swap.  With phi2F = 0 there are no low-rank terms.
        """
        b = c.phi2F * self.band
        below, above = b[1:], b[:-1]  # T[i+1, i] and T[i, i+1]
        if form == "E^T":
            below, above = above, below
        elif form == "sym":
            below = above = 0.5 * (below + above)
        elif form != "E":
            raise ValueError(f"unknown form {form!r}")
        tridiagonal = np.append(0.0, below), c.phiF + c.phi2F * self.diag, np.append(above, 0.0)
        terms = self.interfaces if c.phi2F != 0.0 else ()
        # zeros leaves unwritten pages unallocated, so the kink rows of u hold little memory
        u = np.zeros((2 * len(terms), self.diag.size))
        far, kink = u[:len(terms)], u[len(terms):]
        # phi2F is written into the far rows for E and the kink rows for E^T,
        # so that L and R are both blocks of u
        f, k = {"E": (c.phi2F, 1.0), "E^T": (1.0, c.phi2F)}.get(form, (1.0, 1.0))
        for mask, vec, (rows, col) in zip(far, kink, terms):
            mask[rows] = f
            vec[col:col + 3] = k, -2.0 * k, k
        if form == "E":
            return tridiagonal, far, kink
        if form == "E^T":
            return tridiagonal, kink, far
        left = np.vstack((kink, far))
        left *= 0.5 * c.phi2F  # in place: one full copy fewer at the peak of rayleigh_min
        return tridiagonal, left, u

    def rdd_margin(self, c: Coefficients) -> float:
        """Row diagonal-dominance margin gamma of E, read from split.

        gamma = min_i (E_ii + negative off-diagonals of row i) - max_i
        (positive off-diagonals of row i); if gamma > 0, gamma/2 bounds E's
        mean-zero max-norm/1-norm inf-sup constant below.  T's bands and
        each kink column of L^T R hold entries of one sign; a kink entry
        on a row's own diagonal adds to it, as in integer_entries.
        """
        (lower, diag, upper), left, right = self.split(c)
        off = np.zeros((2, diag.size))  # row sums of the positive and of the negative off-diagonals
        np.add(lower, upper, out=off[int(c.phi2F < 0.0)])
        for far, kink, (_, col) in zip(left, right, self.interfaces):
            for j in range(col, col + 3):
                v = kink[j] * far  # column j of this term
                diag[j] += v[j]
                v[j] = 0.0
                off[int(kink[j] * c.phi2F < 0.0)] += v
        diag += off[1]
        return float(np.min(diag) - np.max(off[0]))

    def integer_entries(self) -> tuple:
        """(row, col, b) of B at offsets 0..2n-1: one entry per position, diagonal first.

        A far-field row of T holds only its diagonal, so an interface term
        meets T only on the diagonal of the far row next to the band,
        where B's small integers are summed.
        """
        i = np.arange(self.diag.size)
        lo, up = np.flatnonzero(self.band[1:]) + 1, np.flatnonzero(self.band[:-1])  # rows with a neighbor term
        rows, cols, b = [i, lo, up], [i, lo - 1, up + 1], [self.diag.copy(), self.band[lo], self.band[up]]
        for far, col in self.interfaces:
            far_rows = np.flatnonzero(far)
            for j, coef in enumerate((1.0, -2.0, 1.0), start=col):
                if far[j]:  # the far row next to the band meets its own diagonal
                    b[0][j] += coef
                r = far_rows[far_rows != j]
                rows.append(r)
                cols.append(np.full(r.size, j))
                b.append(np.full(r.size, coef))
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(b)

    def entries(self, c: Coefficients) -> tuple:
        """(row, col, value) of E, positioned as integer_entries lists B.

        B's integer entries are scaled by phi2F once, so an entry
        phiF + 5*phi2F that cancels is an exact zero.
        """
        row, col, b = self.integer_entries()
        value = c.phi2F * b
        value[:self.diag.size] += c.phiF
        return row, col, value

    def factor(self, c: Coefficients, form: str = "E", weight: float = 1.0,
               what: str = "strain solve") -> BorderedSolve:
        """The bordered solve of E (form "E") or E^T ("E^T"), from split.

        Raises ValueError unless phiF + 4*phi2F > 0.
        """
        if not c.phiF + 4.0 * c.phi2F > 0.0:
            raise ValueError(
                f"{what} needs phiF + 4*phi2F > 0 (diagonal dominance of T), "
                f"got {c.phiF + 4.0 * c.phi2F:.6g}"
            )
        return BorderedSolve(*self.split(c, form), weight, what)


def strain_stencil(n: int, k: int) -> StrainStencil:
    """B on bonds -n+1..n, with next-nearest band -k..k+1.

    A band row of B has 1 toward each neighboring bond and as many on the
    diagonal; a row left of the band has 4 on the diagonal plus
    [1, -2, 1] in the interface columns -k-1..-k+1, and a row right of it
    the same in columns k..k+2.  With k = n-1 the band covers every bond
    and there is no interface.
    """
    j = np.arange(-n + 1, n + 1)
    band = ((j >= -k) & (j <= k + 1)).astype(float)
    diag = 4.0 - 2.0 * band
    diag[[0, -1]] -= band[[0, -1]]  # a band row at a chain end has one neighbor
    sides = ((j < -k, -k - 1), (j > k + 1, k))
    return StrainStencil(band, diag, tuple((rows, col + n - 1) for rows, col in sides if rows.any()))
