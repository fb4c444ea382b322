import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qcf1d.potentials import Coefficients, lennard_jones

from oracles import lj_coefficients, lj_deriv2, lj_energy

LJ = lennard_jones()


def test_minimum_at_one():
    assert lj_energy(1.0) == -1.0
    assert LJ.deriv1(1.0) == 0.0


def test_second_derivative_values():
    # analytic differentiation: 156 r^-14 - 84 r^-8
    assert lj_deriv2(1.0) == 72.0
    assert_allclose(lj_deriv2(2.0), 156.0 * 2.0**-14 - 84.0 * 2.0**-8, rtol=1e-15)
    assert_allclose(lj_deriv2(2.0), -0.318603515625, rtol=1e-15)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(min_value=0.5, max_value=3.0))
def test_derivatives_match_finite_differences(r):
    h = 1e-5
    # atol covers stationary points, where the relative error is undefined
    fd1 = (lj_energy(r + h) - lj_energy(r - h)) / (2.0 * h)
    assert_allclose(LJ.deriv1(r), fd1, rtol=1e-6, atol=1e-6)
    fd2 = (LJ.deriv1(r + h) - LJ.deriv1(r - h)) / (2.0 * h)
    assert_allclose(lj_deriv2(r), fd2, rtol=1e-6, atol=1e-6)


def test_domain_error_at_nonpositive_separation():
    for fn in (lj_energy, LJ.deriv1, lj_deriv2):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.3)
        with pytest.raises(ValueError):
            fn(np.array([1.0, -0.5]))


def test_vectorized_evaluation():
    r = np.array([0.8, 1.0, 1.5])
    assert lj_energy(r).shape == (3,)
    assert_allclose(lj_energy(r)[1], -1.0)


@pytest.mark.parametrize("F", [0.9, 1.0, 1.05, 1.1])
def test_admissible_strains_have_the_right_curvatures(F):
    # the nearest bond stiffens and the next-nearest softens
    assert lj_deriv2(F) > 0.0
    assert lj_deriv2(2.0 * F) < 0.0


def test_inadmissible_strain():
    # nearest-neighbor curvature goes negative past r ~ 1.109
    assert not (lj_deriv2(1.2) > 0.0 and lj_deriv2(2.4) < 0.0)


def test_coefficients_from_potential():
    c = lj_coefficients(1.0)
    assert c.phiF == 72.0
    assert_allclose(c.phi2F, -0.318603515625, rtol=1e-15)


def test_the_readme_recipe_gives_the_oracle_springs_bit_for_bit():
    # README's recipe for --phiF/--phi2F at a strain F; on a numpy array, since
    # Python's float ** rounds differently from numpy's power
    for F in np.linspace(0.5, 1.1, 601).tolist():
        r = np.array([F, 2 * F])
        assert tuple((156.0 * r**-14 - 84.0 * r**-8).tolist()) == lj_coefficients(F), F


def test_coefficients_require_positive_phiF():
    with pytest.raises(ValueError):
        Coefficients(-1.0, -0.1)
    with pytest.raises(ValueError):
        Coefficients(0.0, -0.1)
    # phi2F = 0 is the pure nearest-neighbor model and stays allowed
    Coefficients(1.0, 0.0)


def test_coefficients_are_an_immutable_value():
    c = Coefficients(1.0, -0.2)
    assert c == Coefficients(1.0, -0.2) and c != Coefficients(1.0, 0.2)
    for name in ("phi2F", "extra"):
        with pytest.raises(AttributeError):
            setattr(c, name, 0.0)
