import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qcf1d.lattice import DomainSpec, diff, lp_norm, uniform_positions

from oracles import atomistic_sites, continuum_sites, diff3, diff4_centered


def test_domain_spec_validation():
    DomainSpec(16, 8)
    DomainSpec(16, 2, M=64)
    with pytest.raises(ValueError, match="K out of range"):
        DomainSpec(16, 9)
    with pytest.raises(ValueError, match="K out of range"):
        DomainSpec(16, 1)
    DomainSpec(16, 4, M=18)
    for m in (16, 17):  # the reference stencils need M >= N+2
        with pytest.raises(ValueError, match="M must exceed N"):
            DomainSpec(16, 4, M=m)


def test_domain_spec_regions():
    spec = DomainSpec(8, 2)
    assert spec.eps == 0.125
    assert list(atomistic_sites(spec)) == [-2, -1, 0, 1, 2]
    cont = list(continuum_sites(spec))
    assert cont == [-7, -6, -5, -4, -3, 3, 4, 5, 6, 7]
    bonds = list(spec.extended_continuum_bonds())
    assert bonds == [-6, -5, -4, -3, -2, -1, 4, 5, 6, 7, 8, 9]


def test_lp_norms():
    f = np.array([3.0, -4.0])
    assert lp_norm(f, 0.5, 1) == 3.5
    assert lp_norm(f, 0.5, np.inf) == 4.0
    assert_allclose(lp_norm(f, 0.5, 2), np.sqrt(0.5 * 25.0))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5, 0.5)


def test_diff_of_constant_and_affine():
    eps = 0.25
    const = np.full(9, 2.5)
    assert np.all(diff(const, eps) == 0.0)
    j = np.arange(-4, 5)
    affine = 1.0 + 2.0 * j * eps
    assert_allclose(diff(affine, eps), 2.0, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=21))
def test_diff_telescopes_to_zero_mean_for_homogeneous_fields(vals):
    v = np.asarray(vals, dtype=float)
    v[0] = 0.0
    v[-1] = 0.0
    eps = 1.0 / len(v)
    d = diff(v, eps)
    assert abs(eps * d.sum()) <= 1e-12 * max(1.0, np.abs(d).sum() * eps)


def test_diff3_and_diff4_on_polynomials():
    n = 8
    eps = 1.0 / n
    x = np.arange(-n, n + 1) * eps
    cubic = x**3
    d3 = diff3(cubic, eps)
    assert_allclose(d3, 6.0, rtol=1e-10)
    assert len(d3) == 2 * n - 2  # j = -n+3..n
    d4 = diff4_centered(cubic, eps)
    assert np.max(np.abs(d4)) <= 1e-9
    assert len(d4) == 2 * n - 3  # j = -n+2..n-2
    quartic = x**4
    assert_allclose(diff4_centered(quartic, eps), 24.0, rtol=1e-9)


def test_uniform_positions_snap_makes_bonds_exact():
    eps = 1.0 / 48
    y = uniform_positions(0.9, 48, eps)
    bonds = np.diff(y)
    assert np.all(bonds == bonds[0])
    assert_allclose(bonds[0] / eps, 0.9, rtol=1e-12)
    assert_allclose(y, 0.9 * np.arange(-48, 49) * eps, rtol=1e-12, atol=1e-14)
