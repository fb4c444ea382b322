"""Assembly of the linearized chain operators and their strain-space twins.

Linearizing the three force laws about the uniformly strained state gives
operators acting on displacements:

  * atomistic: second differences of both neighbor ranges, with one-sided
    next-nearest stencils on the first and last free atom;
  * local: a single tridiagonal stencil with spring constant
    phiF + 4*phi2F;
  * coupled: atomistic rows on |j| <= K, local rows elsewhere, extended by
    zero to the boundary sites so pairings against fields vanishing at
    +-N are well defined.

Each displacement operator has a conjugate acting on strains that puts it
in divergence form: <E Dv, Dw> = <L v, w> for all test fields w vanishing
at the boundary.  The conjugate of the coupled operator is not banded:
interface and far-field rows carry three extra entries in the interface
columns, the fingerprint of the coupling being non-conservative.

Matrices are sparse (CSR, at most five nonzeros per row) and assembled
without loops from two region tables: displacement operators from the
spring constants of each row's two second-difference stencils, strain
operators from the next-nearest band plus the interface columns of
strain_stencil, which the strain solver reads as numpy bands without
building a matrix.  Assembly and application cost O(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .lattice import DomainSpec, Field, diff, diff3, inner
from .potentials import Coefficients

if TYPE_CHECKING:
    import scipy.sparse


@dataclass(frozen=True)
class Operator:
    """Sparse CSR matrix with explicit signed index ranges for rows and columns.

    Stored without explicit zeros, column indices sorted within each row.
    """

    entries: scipy.sparse.csr_array
    row_lo: int
    col_lo: int

    def __post_init__(self):
        import scipy.sparse

        e = scipy.sparse.csr_array(self.entries, dtype=float, copy=True)
        if e.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        e.sum_duplicates()
        e.eliminate_zeros()
        object.__setattr__(self, "entries", e)

    @property
    def row_hi(self) -> int:
        return self.row_lo + self.entries.shape[0] - 1

    @property
    def col_hi(self) -> int:
        return self.col_lo + self.entries.shape[1] - 1

    def at(self, i: int, j: int) -> float:
        return float(self.entries[i - self.row_lo, j - self.col_lo])

    def apply(self, f: Field) -> Field:
        if f.lo != self.col_lo or len(f) != self.entries.shape[1]:
            raise ValueError(
                f"operator columns {self.col_lo}..{self.col_hi} do not match "
                f"field range {f.lo}..{f.hi}"
            )
        return Field(self.entries @ f.values, self.row_lo)

    def interior_block(self) -> scipy.sparse.csr_array:
        """Square block obtained by dropping the boundary columns.

        Valid for displacement operators whose rows cover the free atoms
        and whose columns include the two constrained boundary sites.
        """
        n_rows, n_cols = self.entries.shape
        if n_cols != n_rows + 2 or self.col_lo != self.row_lo - 1:
            raise ValueError("operator is not in free-rows / full-columns form")
        return self.entries[:, 1:-1]

    def to_triples(self):
        """(row, col, value) for every stored nonzero, row-major."""
        e = self.entries.tocoo()
        return [
            (int(r) + self.row_lo, int(c) + self.col_lo, float(v))
            for r, c, v in zip(e.row, e.col, e.data)
        ]


def _second_differences(n: int, eps: float, springs, core=(0.0, 0.0), k: int = -1) -> Operator:
    """Displacement operator from per-row spring constants (k1, k2).

    Row j (free atoms -n+1..n-1, columns -n..n) is k1/eps^2 times the
    second difference plus k2/eps^2 times the wide second difference,
    with (k1, k2) = core on |j| <= k and springs elsewhere.  A
    next-nearest bond reaching past +-n is absent, which leaves half the
    wide diagonal on the first and last row.
    """
    import scipy.sparse

    j = np.arange(-n + 1, n)
    k1, k2 = np.transpose(np.where((np.abs(j) <= k)[:, None], core, springs)) / eps**2
    wide = np.where(np.abs(j) == n - 1, 1.0, 2.0)
    diagonals = [-k2[1:], -k1, 2.0 * k1 + wide * k2, -k1, -k2[:-1]]
    A = scipy.sparse.diags_array(diagonals, offsets=[-1, 0, 1, 2, 3], shape=(2 * n - 1, 2 * n + 1))
    return Operator(A, -n + 1, -n)


@dataclass(frozen=True)
class StrainStencil:
    """Next-nearest part B of a strain operator phiF * I + phi2F * B, as bands.

    Bonds -n+1..n sit at offsets 0..2n-1.  Row i of B has diag[i] on the
    diagonal and band[i] toward each neighboring bond that exists; a band
    row couples to both neighbors, a far-field row to neither.  Each
    interface (rows, col) adds [1, -2, 1] in columns col..col+2 to the
    rows its boolean mask marks.  So B = T + sum of rank-one terms, with
    T tridiagonal.
    """

    band: np.ndarray
    diag: np.ndarray
    interfaces: tuple

    def tridiagonal(self, c: Coefficients) -> tuple:
        """(lower, diag, upper) of phiF * I + phi2F * T; lower[0] = upper[-1] = 0."""
        lower = c.phi2F * self.band
        upper = lower.copy()
        lower[0] = upper[-1] = 0.0
        return lower, c.phiF + c.phi2F * self.diag, upper

    def apply(self, c: Coefficients, w: np.ndarray) -> np.ndarray:
        """(phiF * I + phi2F * B) w for strains w at offsets 0..2n-1."""
        bw = self.diag * w
        bw[1:] += self.band[1:] * w[:-1]
        bw[:-1] += self.band[:-1] * w[1:]
        for rows, col in self.interfaces:
            bw[rows] += w[col] - 2.0 * w[col + 1] + w[col + 2]
        return c.phiF * w + c.phi2F * bw


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


def _strain_operator(c: Coefficients, n: int, k: int) -> Operator:
    """phiF * I + phi2F * B on bonds -n+1..n, B from strain_stencil(n, k)."""
    import scipy.sparse

    s = strain_stencil(n, k)
    nb = 2 * n
    B = scipy.sparse.diags_array([s.band[1:], s.diag, s.band[:-1]], offsets=[-1, 0, 1])
    for rows, col in s.interfaces:
        far = np.flatnonzero(rows)
        coords = (np.repeat(far, 3), np.tile(col + np.arange(3), far.size))
        B = B + scipy.sparse.coo_array((np.tile([1.0, -2.0, 1.0], far.size), coords), shape=(nb, nb))
    return Operator(c.phiF * scipy.sparse.eye_array(nb) + c.phi2F * B, -n + 1, -n + 1)


def assemble_la(c: Coefficients, m: int, eps: float) -> Operator:
    """Linearized atomistic operator: rows -m+1..m-1, columns -m..m.

    Interior rows carry both second-difference stencils; the first and
    last row lose the out-of-range half of the next-nearest stencil.
    """
    if m < 2:
        raise ValueError("half-width must be at least 2")
    return _second_differences(m, eps, (c.phiF, c.phi2F))


def assemble_llqc(c: Coefficients, n: int, eps: float) -> Operator:
    """Linearized local operator: one tridiagonal stencil, rows -n+1..n-1."""
    if n < 2:
        raise ValueError("half-width must be at least 2")
    return _second_differences(n, eps, (c.phiF + 4.0 * c.phi2F, 0.0))


def assemble_lqcf(c: Coefficients, spec: DomainSpec) -> Operator:
    """Coupled operator: atomistic rows on |j| <= K, local rows elsewhere.

    Rows cover the free atoms -N+1..N-1 only; the zero extension to +-N
    is realized by omitting those rows, which pair to zero against any
    field vanishing at the boundary.
    """
    local = (c.phiF + 4.0 * c.phi2F, 0.0)
    return _second_differences(spec.N, spec.eps, local, (c.phiF, c.phi2F), spec.K)


def assemble_l1(n: int, eps: float) -> Operator:
    """Nearest-neighbor part: plain second difference on every free atom."""
    return _second_differences(n, eps, (1.0, 0.0))


def assemble_l2(spec: DomainSpec) -> Operator:
    """Next-nearest part of the coupled operator.

    Wide second differences on |j| <= K, four times the narrow one on the
    continuum rows; the coupled operator is phiF * L1 + phi2F * L2.
    """
    return _second_differences(spec.N, spec.eps, (4.0, 0.0), (0.0, 1.0), spec.K)


def assemble_ea(c: Coefficients, m: int, eps: float) -> Operator:
    """Conjugate of the atomistic operator, on bonds -m+1..m.

    phiF on the diagonal plus phi2F times the symmetric [1,2,1] band whose
    corner rows degenerate to [1,1].
    """
    return _strain_operator(c, m, m - 1)


def assemble_eqcf(c: Coefficients, spec: DomainSpec) -> Operator:
    """Conjugate of the coupled operator, on bonds -N+1..N.

    The atomistic band -K..K+1 keeps the symmetric tridiagonal rows; the
    interface rows -K-1 and K+2 and every far-field row pick up entries in
    the three interface columns, connecting each strain to the boundary
    through as few nonzeros as possible.  Every row has at most 4 nonzeros.
    """
    return _strain_operator(c, spec.N, spec.K)


def pair_with_test(L: Operator, v: Field, w: Field, eps: float) -> float:
    """<L v, w> where w vanishes on the rows L omits."""
    return inner(L.apply(v), w.restrict(L.row_lo, L.row_hi), eps)


def l2_decomposition(v: Field, w: Field, spec: DomainSpec) -> Tuple[float, float, float]:
    """Split <L2 v, w> into a strain-pairing part plus two interface terms.

    Returns (regular, left_interface, right_interface); the interface
    terms are eps^2 * (third difference of v at bond -K+1) * w_{-K} and
    minus the mirror expression at bond K+2.  Their sum reconstructs the
    direct pairing for every v and every w vanishing at +-N.
    """
    n, k = spec.N, spec.K
    eps = spec.eps
    if v.half_width != n or w.half_width != n:
        raise ValueError(f"fields must cover -N..N with N={n}")
    if not w.is_homogeneous:
        raise ValueError("test field must vanish at the boundary sites")
    dv = diff(v, eps)
    dw = diff(w, eps)
    off = n - 1  # bond j at offset j + off
    left = slice(0, -k + off + 1)           # bonds -N+1..-K
    mid = np.arange(-k + 1 + off, k + off + 1)  # bonds -K+1..K
    right = slice(k + 1 + off, 2 * n)       # bonds K+1..N
    regular = 4.0 * eps * float(dv.values[left] @ dw.values[left])
    regular += eps * float(
        (dv.values[mid - 1] + 2.0 * dv.values[mid] + dv.values[mid + 1])
        @ dw.values[mid]
    )
    regular += 4.0 * eps * float(dv.values[right] @ dw.values[right])
    d3 = diff3(v, eps)
    left_interface = eps**2 * d3.at(-k + 1) * w.at(-k)
    right_interface = -(eps**2) * d3.at(k + 2) * w.at(k)
    return regular, left_interface, right_interface
