"""Lattice fields and difference operators for a 1D chain.

Displacements live on lattice sites j = -L..L, strains on bonds
j = -L+1..L (bond j connects sites j-1 and j).  The chain is scaled so
that the computational domain {-N..N} maps to x in [-1, 1] via
x_j = j*eps with eps = 1/N; a reference chain of half-width M > N uses
the same spacing.

Every field carries its index range.  Operations that combine two
fields refuse mismatched ranges instead of truncating silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class DomainSpec:
    """Geometry of a coupled computation.

    N: computational half-width; sets the scale eps = 1/N.
    K: atomistic half-width; sites |j| <= K use the atomistic force law,
       the remaining interior sites the local one.  Admissible range is
       2 <= K <= N/2.
    M: reference half-width of the fully resolved chain (only needed for
       reference solves and truncation errors; must exceed N).
    """

    N: int
    K: int
    M: Optional[int] = None

    def __post_init__(self):
        if not (2 <= self.K and 2 * self.K <= self.N):
            raise ValueError(
                f"K out of range: need 2 <= K <= N/2, got K={self.K}, N={self.N}"
            )
        if self.M is not None and self.M <= self.N:
            raise ValueError(f"M must exceed N, got M={self.M}, N={self.N}")

    @property
    def eps(self) -> float:
        return 1.0 / self.N

    def interior_sites(self) -> np.ndarray:
        return np.arange(-self.N + 1, self.N)

    def atomistic_sites(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def continuum_sites(self) -> np.ndarray:
        j = self.interior_sites()
        return j[np.abs(j) > self.K]

    def extended_continuum_bonds(self) -> np.ndarray:
        """Bond indices {-N+2..-K+1} and {K+2..N+1}."""
        left = np.arange(-self.N + 2, -self.K + 2)
        right = np.arange(self.K + 2, self.N + 2)
        return np.concatenate([left, right])

    def require_reference(self, min_margin: int = 2) -> int:
        if self.M is None:
            raise ValueError("DomainSpec.M is required for this operation")
        if self.M < self.N + min_margin:
            raise ValueError(
                f"reference half-width too small: need M >= N+{min_margin}, "
                f"got M={self.M}, N={self.N}"
            )
        return self.M


@dataclass(frozen=True)
class Field:
    """Real values on a contiguous range of signed indices lo..lo+len-1."""

    values: np.ndarray
    lo: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("Field values must be a nonempty 1-D array")
        object.__setattr__(self, "values", v)

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    @property
    def half_width(self) -> int:
        if self.lo != -self.hi:
            raise ValueError(f"field over {self.lo}..{self.hi} is not centered")
        return self.hi

    def __len__(self) -> int:
        return len(self.values)

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def at(self, j: int) -> float:
        if not self.lo <= j <= self.hi:
            raise IndexError(f"index {j} outside field range {self.lo}..{self.hi}")
        return float(self.values[j - self.lo])

    def restrict(self, lo: int, hi: int) -> "Field":
        if lo < self.lo or hi > self.hi or lo > hi:
            raise ValueError(
                f"cannot restrict field over {self.lo}..{self.hi} to {lo}..{hi}"
            )
        return Field(self.values[lo - self.lo : hi - self.lo + 1], lo)

    def same_range(self, other: "Field") -> bool:
        return self.lo == other.lo and len(self) == len(other)

    def _check_range(self, other: "Field"):
        if not self.same_range(other):
            raise ValueError(
                f"index range mismatch: {self.lo}..{self.hi} vs {other.lo}..{other.hi}"
            )

    def __add__(self, other: "Field") -> "Field":
        self._check_range(other)
        return Field(self.values + other.values, self.lo)

    def __sub__(self, other: "Field") -> "Field":
        self._check_range(other)
        return Field(self.values - other.values, self.lo)

    def __mul__(self, a: float) -> "Field":
        return Field(self.values * a, self.lo)

    __rmul__ = __mul__

    @property
    def is_homogeneous(self) -> bool:
        """True if the boundary values are exactly zero (membership in V0)."""
        return self.values[0] == 0.0 and self.values[-1] == 0.0


def displacement(values, half_width: Optional[int] = None) -> Field:
    """Field over sites -L..L; L inferred from the (odd) length if omitted."""
    v = np.asarray(values, dtype=float)
    if half_width is None:
        if v.size % 2 == 0:
            raise ValueError("cannot infer half-width from an even-length array")
        half_width = (v.size - 1) // 2
    if v.size != 2 * half_width + 1:
        raise ValueError(f"expected {2 * half_width + 1} values, got {v.size}")
    return Field(v, -half_width)


def inner(f: Field, g: Field, eps: float) -> float:
    """Weighted inner product eps * sum_j f_j g_j over a shared index range."""
    f._check_range(g)
    return eps * float(f.values @ g.values)


def lp_norm(f, eps: float, p) -> float:
    """Weighted norm (eps * sum |v|^p)^(1/p); p = inf gives the max norm."""
    v = f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
    if p == np.inf or p == "inf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    p = float(p)
    if p < 1:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    return float((eps * np.sum(np.abs(v) ** p)) ** (1.0 / p))


def diff(f: Field, eps: float) -> Field:
    """Backward difference (Dv)_j = (v_j - v_{j-1})/eps on bonds lo+1..hi."""
    if len(f) < 2:
        raise ValueError("need at least 2 values to difference")
    return Field(np.diff(f.values) / eps, f.lo + 1)


def summed_load(f: Field, eps: float) -> Field:
    """Weighted suffix sums g_i = eps * sum_{j=i}^{hi-1} f_j on bonds lo+1..hi.

    g_hi = 0.  For every w vanishing at lo and hi, <f, w> = <g, Dw>: the
    load paired with a field equals g paired with its strain.  The end
    samples f_lo and f_hi never enter.
    """
    if len(f) < 2:
        raise ValueError("need at least 2 values for a summed load")
    g = np.zeros(len(f) - 1)
    g[:-1] = eps * np.cumsum(f.values[-2:0:-1])[::-1]
    return Field(g, f.lo + 1)


def diff3(f: Field, eps: float) -> Field:
    """Third backward difference, (v_j - 3v_{j-1} + 3v_{j-2} - v_{j-3})/eps^3."""
    if len(f) < 4:
        raise ValueError("need at least 4 values for a third difference")
    v = f.values
    d = (v[3:] - 3.0 * v[2:-1] + 3.0 * v[1:-2] - v[:-3]) / eps**3
    return Field(d, f.lo + 3)


def diff4_centered(f: Field, eps: float) -> Field:
    """Centered fourth difference on interior sites lo+2..hi-2."""
    if len(f) < 5:
        raise ValueError("need at least 5 values for a fourth difference")
    v = f.values
    d = (v[4:] - 4.0 * v[3:-1] + 6.0 * v[2:-2] - 4.0 * v[1:-3] + v[:-4]) / eps**4
    return Field(d, f.lo + 2)


def uniform_positions(F: float, half_width: int, eps: float, snap: bool = False) -> Field:
    """Positions y_j = F*j*eps of the uniformly strained chain.

    With snap=True the bond length is first rounded to a float with enough
    trailing zero bits that every position j*b is exactly representable.
    All bond differences of a snapped state are then bitwise identical, so a
    ghost-force test sees coupling artifacts only, not rounding residue of
    the input state.  The snapped strain differs from F by < 2^-40 relative.
    """
    if half_width < 1:
        raise ValueError("half_width must be positive")
    if not np.isfinite(F):
        raise ValueError(f"strain F must be finite, got F={F}")
    j = np.arange(-half_width, half_width + 1, dtype=float)
    b = F * eps
    if not snap or b == 0.0:
        return Field(F * (j * eps), -half_width)
    drop = int(np.ceil(np.log2(half_width + 1))) + 1
    quantum = 2.0 ** (np.floor(np.log2(abs(b))) - (52 - drop))
    b_snapped = np.round(b / quantum) * quantum
    return Field(j * b_snapped, -half_width)
