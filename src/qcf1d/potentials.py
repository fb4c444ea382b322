"""The pair potential of the patch test, and the spring constants of the linearized chain.

The potential takes the dimensionless bond strain r (deformed bond length
per reference spacing).  Linearizing the chain about the uniform strain F
leaves only two material constants, the second derivatives at F and 2F,
which every other subcommand is given directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _lj_checked(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("Lennard-Jones potential needs a positive separation")
    return r


# a tiny r overflows to inf (or nan) silently: callers check the values are finite
@np.errstate(over="ignore", invalid="ignore")
def lj_deriv1(r):
    """The first derivative of the normalized Lennard-Jones potential r^-12 - 2 r^-6.

    The minimum sits at r = 1 with value -1.  Accepts scalars or numpy
    arrays; evaluation at r <= 0 raises.  No subcommand reads the energy
    or its second derivative: tests/oracles.py holds them.
    """
    r = _lj_checked(r)
    return -12.0 * r**-13 + 12.0 * r**-7


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

    def unit(self) -> tuple:
        """(Coefficients(phiF/s, phi2F/s), s) with s = max(phiF, |phi2F|): every kernel is linear in them."""
        s = max(self.phiF, abs(self.phi2F))
        return tuple.__new__(Coefficients, (self.phiF / s, self.phi2F / s)), s  # unchecked: phiF/s may underflow

