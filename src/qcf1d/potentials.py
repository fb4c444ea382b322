"""Pair potentials and the linearized spring coefficients they induce.

Potentials take the dimensionless bond strain r (deformed bond length per
reference spacing).  Linearizing the chain about the uniform strain F
leaves only two material constants, the second derivatives at F and 2F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class PairPotential:
    """Two-body potential of the bond strain with analytic derivatives.

    eval, deriv1, deriv2 accept scalars or numpy arrays.
    """

    eval: Callable
    deriv1: Callable
    deriv2: Callable


def _lj_checked(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("Lennard-Jones potential needs a positive separation")
    return r


# a tiny r overflows to inf (or nan) silently: callers check the values are finite
@np.errstate(over="ignore", invalid="ignore")
def _lj_eval(r):
    s = _lj_checked(r) ** -6
    return s * s - 2.0 * s


@np.errstate(over="ignore", invalid="ignore")
def _lj_deriv1(r):
    r = _lj_checked(r)
    return -12.0 * r**-13 + 12.0 * r**-7


@np.errstate(over="ignore", invalid="ignore")
def _lj_deriv2(r):
    r = _lj_checked(r)
    return 156.0 * r**-14 - 84.0 * r**-8


def lennard_jones() -> PairPotential:
    """Normalized Lennard-Jones potential r^-12 - 2 r^-6.

    The minimum sits at r = 1 with value -1.  Evaluation at r <= 0 raises.
    """
    return PairPotential(_lj_eval, _lj_deriv1, _lj_deriv2)


@dataclass(frozen=True)
class Coefficients:
    """Spring constants phiF = phi''(F) and phi2F = phi''(2F).

    Both must be finite, and phiF positive.  phi2F may be zero (pure
    nearest-neighbor model); operations that need phi2F != 0 or a sign
    condition check it themselves.
    """

    phiF: float
    phi2F: float

    def __post_init__(self):
        for name in ("phiF", "phi2F"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.phiF > 0.0:
            raise ValueError(f"phiF must be positive, got {self.phiF}")

    @classmethod
    def from_potential(cls, phi: PairPotential, F: float) -> "Coefficients":
        return cls(float(phi.deriv2(F)), float(phi.deriv2(2.0 * F)))

