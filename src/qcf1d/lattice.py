"""Lattice arrays and difference operators for a 1D chain.

Displacements live on lattice sites j = -L..L, strains on bonds
j = -L+1..L (bond j connects sites j-1 and j).  The chain is scaled so
that the computational domain {-N..N} maps to x in [-1, 1] via
x_j = j*eps with eps = 1/N; a reference chain of half-width M > N uses
the same spacing.

Every lattice quantity is a plain 1-D numpy array under one offset rule:
on a chain of half-width L, site j sits at offset j+L and bond j at
offset j+L-1.  An array of 2L+1 sites or 2L bonds thus carries L in its
length, and the forces on the free atoms -L+1..L-1 form a site array of
half-width L-1.  diff labels each difference by its right end, so it
maps sites to bonds and shifts the first label by one per application.

LOADS names the body forces of the convergence study, each a numpy
function of x = j*eps.  They live here, next to the scaling, so the CLI
can list them without importing the solver.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

LOADS = {
    "cospi": lambda x: np.cos(np.pi * x),
    "const": np.ones_like,
    "zero": np.zeros_like,
    "exp": np.exp,  # not even under the reflection x -> -x, as every other load is
}


class DomainSpec(NamedTuple("DomainSpec", [("N", int), ("K", int), ("M", Optional[int])])):
    """Geometry of a coupled computation, checked when it is built.

    N: computational half-width; sets the scale eps = 1/N.
    K: atomistic half-width; sites |j| <= K use the atomistic force law,
       the remaining interior sites the local one.  Admissible range is
       2 <= K <= N/2.
    M: reference half-width of the fully resolved chain (only needed for
       reference solves and truncation errors; at least N+2).
    """

    __slots__ = ()

    def __new__(cls, N: int, K: int, M: Optional[int] = None):
        if not (2 <= K and 2 * K <= N):
            raise ValueError(f"K out of range: need 2 <= K <= N/2, got K={K}, N={N}")
        if M is not None and M < N + 2:
            raise ValueError(f"M must exceed N+1, got M={M}, N={N}")
        return super().__new__(cls, N, K, M)

    @property
    def eps(self) -> float:
        return 1.0 / self.N

    def extended_continuum_bonds(self) -> np.ndarray:
        """Bond indices {-N+2..-K+1} and {K+2..N+1}."""
        left = np.arange(-self.N + 2, -self.K + 2)
        right = np.arange(self.K + 2, self.N + 2)
        return np.concatenate([left, right])

    def require_reference(self) -> int:
        if self.M is None:
            raise ValueError("DomainSpec.M is required for this operation")
        return self.M


def lp_norm(f, eps: float, p) -> float:
    """Weighted norm (eps * sum |v|^p)^(1/p); p = inf gives the max norm."""
    v = np.asarray(f, dtype=float)
    if p == np.inf:
        return float(np.max(np.abs(v))) if v.size else 0.0
    p = float(p)
    if p < 1:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    return float((eps * np.sum(np.abs(v) ** p)) ** (1.0 / p))


def diff(v: np.ndarray, eps: float) -> np.ndarray:
    """Backward difference (Dv)_j = (v_j - v_{j-1})/eps: sites to bonds."""
    if len(v) < 2:
        raise ValueError("need at least 2 values to difference")
    return np.diff(v) / eps


def summed_load(f: np.ndarray, eps: float) -> np.ndarray:
    """Weighted suffix sums g_i = eps * sum_{j=i}^{L-1} f_j: sites -L..L to bonds.

    g_L = 0.  For every w vanishing at -L and L, <f, w> = <g, Dw>: the
    load paired with a field equals g paired with its strain.  The end
    samples f_{-L} and f_L never enter.
    """
    if len(f) < 2:
        raise ValueError("need at least 2 values for a summed load")
    g = np.zeros(len(f) - 1)
    g[:-1] = eps * np.cumsum(f[-2:0:-1])[::-1]
    return g


def uniform_positions(F: float, half_width: int, eps: float) -> np.ndarray:
    """Positions y_j = j*b of the uniformly strained chain, b = F*eps snapped.

    The bond length b is first rounded to a float with enough trailing
    zero bits that every position j*b is exactly representable.  All
    bond differences are then bitwise identical, so a ghost-force test
    sees coupling artifacts only, not rounding residue of the input
    state.  The snapped strain differs from F by < 2^-40 relative.
    """
    if half_width < 1:
        raise ValueError("half_width must be positive")
    if not np.isfinite(F):
        raise ValueError(f"strain F must be finite, got F={F}")
    j = np.arange(-half_width, half_width + 1, dtype=float)
    b = F * eps
    if b == 0.0:
        return F * (j * eps)
    drop = int(np.ceil(np.log2(half_width + 1))) + 1
    quantum = 2.0 ** (np.floor(np.log2(abs(b))) - (52 - drop))
    b_snapped = np.round(b / quantum) * quantum
    return j * b_snapped
