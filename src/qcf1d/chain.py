"""Force fields of the chain with first and second neighbors.

The chain of 2L+1 atoms at positions y_j carries a nearest-neighbor bond
for every adjacent pair and a next-nearest bond for every pair two sites
apart.  Three force laws act on the free atoms j = -L+1..L-1:

  * the atomistic law, minus the position gradient of the full two-bond
    energy (per lattice spacing);
  * the local law, obtained by replacing the next-nearest bond strain
    y_j - y_{j-2} with 2(y_j - y_{j-1}) in the energy before
    differentiating;
  * the coupled law, which evaluates the atomistic formula on sites
    |j| <= K and the local formula on the remaining interior sites.

The coupled field passes the patch test (it vanishes identically at a
uniformly strained state) but is not a gradient: its Jacobian is not
symmetric.
"""

from __future__ import annotations

import numpy as np

from .lattice import DomainSpec, diff
from .potentials import PairPotential


def _nnn_strains(y: np.ndarray, eps: float) -> np.ndarray:
    """Strains (y_j - y_{j-2})/eps of next-nearest pairs ending at -L+2..L."""
    return (y[2:] - y[:-2]) / eps


def force_atomistic(y: np.ndarray, phi: PairPotential, eps: float) -> np.ndarray:
    """Atomistic force (per lattice spacing) on the free atoms -L+1..L-1.

    The next-nearest terms that would reach atoms -L-1 or L+1 are taken to
    be zero, which makes the field exactly minus the scaled energy
    gradient on the 2L+1 chain.
    """
    d1 = phi.deriv1(diff(y, eps))
    d2 = phi.deriv1(_nnn_strains(y, eps))
    zero = np.zeros(1)
    d2_right = np.concatenate([d2[1:], zero])
    d2_left = np.concatenate([zero, d2[:-1]])
    # grouping like terms lets equal neighbor contributions cancel exactly
    return ((d1[1:] - d1[:-1]) + (d2_right - d2_left)) / eps


def force_lqc(y: np.ndarray, phi: PairPotential, eps: float) -> np.ndarray:
    """Local QC force (per lattice spacing) on the free atoms -L+1..L-1."""
    r = diff(y, eps)
    g = phi.deriv1(r) + 2.0 * phi.deriv1(2.0 * r)
    return (g[1:] - g[:-1]) / eps


def max_abs_force_qcf(y: np.ndarray, ks: list[int], phi: PairPotential) -> np.ndarray:
    """max_j |f_j| of the coupled force f at y, for every split K in ks.

    The coupled force takes the atomistic law on sites |j| <= K and the
    local law on the other free atoms; y holds the sites -N..N.  Each
    force law is evaluated once: sites j and -j fold into the shell
    m = |j|, and since a split's atomistic shells come first, a running
    maximum of the atomistic field from the center out and one of the
    local field from the boundary in give each K in O(1), O(N + len(ks))
    in all.  Maxima are exact and propagate NaN as np.max does, so every
    value equals the direct one bit for bit.
    """
    n = len(y) // 2
    ks = np.asarray(ks, dtype=int)
    DomainSpec(n, int(ks.min()))  # admissible splits form a range: check both ends
    eps = DomainSpec(n, int(ks.max())).eps
    fa = force_atomistic(y, phi, eps)
    fl = force_lqc(y, phi, eps)

    def shells(f):  # max |f_j| over j = m and j = -m, for m = 0..N-1
        a = np.abs(f)
        return np.maximum(a[n - 1 :], a[n - 1 :: -1])

    inner = np.maximum.accumulate(shells(fa))
    outer = np.maximum.accumulate(shells(fl)[::-1])[::-1]
    s = ks + 1  # shells m = 0..K take the atomistic law
    return np.maximum(inner[s - 1], outer[s])
