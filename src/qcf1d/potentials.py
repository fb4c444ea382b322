"""Pair potentials and the linearized spring coefficients they induce.

Potentials take the dimensionless bond strain r (deformed bond length per
reference spacing).  Linearizing the chain about the uniform strain F
leaves only two material constants, the second derivatives at F and 2F.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class PairPotential(NamedTuple):
    """Analytic first and second derivatives of a two-body potential of the bond strain.

    deriv1 and deriv2 accept scalars or numpy arrays.
    """

    deriv1: Callable
    deriv2: Callable


def _lj_checked(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("Lennard-Jones potential needs a positive separation")
    return r


# a tiny r overflows to inf (or nan) silently: callers check the values are finite
@np.errstate(over="ignore", invalid="ignore")
def _lj_deriv1(r):
    r = _lj_checked(r)
    return -12.0 * r**-13 + 12.0 * r**-7


@np.errstate(over="ignore", invalid="ignore")
def _lj_deriv2(r):
    r = _lj_checked(r)
    return 156.0 * r**-14 - 84.0 * r**-8


def lennard_jones() -> PairPotential:
    """The derivatives of the normalized Lennard-Jones potential r^-12 - 2 r^-6.

    The minimum sits at r = 1 with value -1.  Evaluation at r <= 0 raises.
    No subcommand reads the energy itself: tests/oracles.py holds it.
    """
    return PairPotential(_lj_deriv1, _lj_deriv2)


class Coefficients(NamedTuple("Coefficients", [("phiF", float), ("phi2F", float)])):
    """Spring constants phiF = phi''(F) and phi2F = phi''(2F).

    Both must be finite, and phiF positive.  phi2F may be zero (pure
    nearest-neighbor model); operations that need phi2F != 0 or a sign
    condition check it themselves.
    """

    __slots__ = ()

    def __new__(cls, phiF: float, phi2F: float):
        for name, value in (("phiF", phiF), ("phi2F", phi2F)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not phiF > 0.0:
            raise ValueError(f"phiF must be positive, got {phiF}")
        return super().__new__(cls, phiF, phi2F)

    @classmethod
    def from_potential(cls, phi: PairPotential, F: float) -> "Coefficients":
        return cls(float(phi.deriv2(F)), float(phi.deriv2(2.0 * F)))

