import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qcf1d.chain import force_atomistic, force_lqc, max_abs_force_qcf
from qcf1d.lattice import DomainSpec, uniform_positions
from qcf1d.potentials import lj_deriv1
from qcf1d.scans import patch_test_scan

from oracles import (energy_atomistic_loop, energy_lqc_loop, fd_gradient, fd_jacobian, force_qcf, interior_sites,
                     lj_energy)

LJ = lj_deriv1
RNG = np.random.default_rng(42)


def perturbed_uniform(F, half_width, eps, scale=0.1, rng=RNG):
    """Uniform state plus a perturbation small enough to keep strains safe."""
    y = uniform_positions(F, half_width, eps)
    p = rng.standard_normal(2 * half_width + 1)
    p *= scale * eps / np.max(np.abs(p))
    return y + p


def test_energy_uniform_bond_count():
    # 5 atoms: 4 nearest bonds, 3 next-nearest bonds
    eps = 0.25
    for F in (1.0, 0.9):
        y = uniform_positions(F, 2, eps)
        expected = eps * (4.0 * lj_energy(F) + 3.0 * lj_energy(2.0 * F))
        assert_allclose(energy_atomistic_loop(y, lj_energy, eps), expected, rtol=1e-12)


def test_energy_uniform_lj_value():
    eps = 0.25
    y = uniform_positions(1.0, 2, eps)
    assert_allclose(energy_atomistic_loop(y, lj_energy, eps), eps * (-4.0 + 3.0 * lj_energy(2.0)), rtol=1e-14)


def test_energy_lqc_uniform_and_extra_bond():
    eps = 0.25
    y = uniform_positions(1.0, 2, eps)
    assert_allclose(energy_lqc_loop(y, lj_energy, eps), eps * 4.0 * (lj_energy(1.0) + lj_energy(2.0)), rtol=1e-12)
    # the local energy carries one more next-nearest term than the atomistic one
    diff = energy_lqc_loop(y, lj_energy, eps) - energy_atomistic_loop(y, lj_energy, eps)
    assert_allclose(diff, eps * lj_energy(2.0), rtol=1e-12)


def test_energy_domain_error_propagates():
    eps = 0.25
    y = np.array([0.0, 0.25, 0.2, 0.5, 0.75])  # one inverted bond
    with pytest.raises(ValueError):
        energy_atomistic_loop(y, lj_energy, eps)


def test_local_minimum_at_uniform_unit_strain():
    # perturbing one interior atom strictly increases the energy near F = 1
    eps = 1.0 / 4
    y = uniform_positions(1.0, 4, eps)
    e0 = energy_atomistic_loop(y, lj_energy, eps)
    for delta in (1e-3 * eps, -1e-3 * eps):
        yp = y.copy()
        yp[4] += delta
        assert energy_atomistic_loop(yp, lj_energy, eps) > e0


def test_force_atomistic_is_scaled_energy_gradient():
    eps = 1.0 / 8
    y = perturbed_uniform(1.0, 8, eps)
    f = force_atomistic(y, LJ, eps)
    grad = fd_gradient(lambda v: energy_atomistic_loop(v, lj_energy, eps), y)
    expected = -grad[1:-1] / eps
    assert_allclose(f, expected, rtol=1e-6, atol=1e-6 * np.max(np.abs(expected)))


def test_force_lqc_is_scaled_energy_gradient():
    eps = 1.0 / 8
    y = perturbed_uniform(1.0, 8, eps)
    f = force_lqc(y, LJ, eps)
    grad = fd_gradient(lambda v: energy_lqc_loop(v, lj_energy, eps), y)
    expected = -grad[1:-1] / eps
    assert_allclose(f, expected, rtol=1e-6, atol=1e-6 * np.max(np.abs(expected)))


def test_force_atomistic_uniform_interior_and_boundary():
    eps = 1.0 / 8
    F = 0.95
    y = uniform_positions(F, 8, eps)
    f = force_atomistic(y, LJ, eps)
    interior = f[1:-1]
    assert np.max(np.abs(interior)) <= 1e-10 / eps
    # at the last free atom only the left next-nearest pull survives the
    # boundary convention; substituting the uniform state into the force
    # formula (and the gradient oracle) gives -phi'(2F)/eps there
    assert len(f) == 15  # free atoms -7..7
    assert_allclose(f[-1], -LJ(2.0 * F) / eps, rtol=1e-10)
    assert_allclose(f[0], +LJ(2.0 * F) / eps, rtol=1e-10)


def test_force_lqc_uniform_vanishes_everywhere():
    eps = 1.0 / 8
    y = uniform_positions(1.05, 8, eps)
    assert np.max(np.abs(force_lqc(y, LJ, eps))) <= 1e-12 / eps


def test_force_lqc_locality():
    eps = 1.0 / 8
    y = uniform_positions(1.0, 8, eps)
    f0 = force_lqc(y, LJ, eps)
    yp = y.copy()
    yp[8 + 2] += 0.3 * eps  # j0 = 2
    f1 = force_lqc(yp, LJ, eps)
    changed = np.abs(f1 - f0) > 0.0
    js = np.arange(-7, 8)
    assert not np.any(changed & (np.abs(js - 2) > 1))
    assert np.all(changed[np.abs(js - 2) <= 1])


def test_force_qcf_dispatch_is_exact():
    spec = DomainSpec(16, 4)
    y = perturbed_uniform(1.0, 16, spec.eps)
    fq = force_qcf(y, spec, LJ)
    fa = force_atomistic(y, LJ, spec.eps)
    fl = force_lqc(y, LJ, spec.eps)
    js = interior_sites(spec)
    assert np.array_equal(fq[np.abs(js) <= 4], fa[np.abs(js) <= 4])
    assert np.array_equal(fq[np.abs(js) > 4], fl[np.abs(js) > 4])


def test_force_qcf_rejects_wrong_domain():
    spec = DomainSpec(16, 4)
    y = uniform_positions(1.0, 8, spec.eps)
    with pytest.raises(ValueError):
        force_qcf(y, spec, LJ)


@settings(max_examples=50, deadline=None)
@given(
    F=st.floats(min_value=0.8, max_value=1.2),
    n=st.sampled_from([8, 16, 32]),
    k_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_patch_test_property(F, n, k_frac):
    # no ghost forces: the coupled force vanishes at every uniform state
    k = 2 + int(round(k_frac * (n // 2 - 2)))
    spec = DomainSpec(n, k)
    y = uniform_positions(F, n, spec.eps)
    residual = max_abs_force_qcf(y, [k], LJ)[0]
    scale = max(1.0, abs(LJ(F)) + abs(LJ(2.0 * F)))
    assert residual <= 1e-13 * scale / spec.eps


# phi''(2F) > 0, unlike LJ near F = 1: a zigzag then moves the local field
# more than the atomistic one
def QUARTIC(r):  # the derivative of r^4 / 12
    return r**3 / 3


def graded_zigzag(F, n, rng, grow):
    """Snapped uniform state plus an alternating perturbation whose seeded
    random amplitude grows (or, with grow=False, shrinks) with |j| up to
    |j| = n//2 + 2 and is zero beyond.

    Under LJ with growing amplitude, max|force_qcf| for split K is the
    atomistic value at |j| = K; under QUARTIC with shrinking amplitude, it
    is the local value at |j| = K+1.  Either way every K has its own value.
    """
    eps = 1.0 / n
    j = np.arange(-n, n + 1)
    m = np.abs(j)
    amp = np.sort(rng.uniform(1.0, 1.002, n + 1))
    amp = (amp if grow else amp[::-1])[m]
    amp[m > n // 2 + 2] = 0.0
    y = uniform_positions(F, n, eps)
    return y + 0.01 * eps * amp * (-1.0) ** j


def direct_maxima(y, ks, phi=LJ):
    """max|force_qcf| per split, from the site-by-site dispatch oracle."""
    n = len(y) // 2
    return np.array([np.max(np.abs(force_qcf(y, DomainSpec(n, k), phi))) for k in ks])


@pytest.mark.parametrize("n", [4, 9, 16, 64, 257])
def test_split_maxima_match_direct_dispatch(n):
    # every admissible K, the edges K=2 and K=n//2 included, compared with ==
    ks = list(range(2, n // 2 + 1))
    F_values = [0.9, 1.0, 1.1]
    table = patch_test_scan(LJ, F_values, [(n, ks)])
    assert list(zip(table.F.tolist(), table.N.tolist(), table.K.tolist())) == [(F, n, k) for F in F_values for k in ks]
    for F, group in zip(F_values, np.split(table.residual, 3)):
        assert np.all(group == 0.0)
        assert np.array_equal(group, direct_maxima(uniform_positions(F, n, 1.0 / n), ks))

    rng = np.random.default_rng(n)
    states = [(graded_zigzag(F, n, rng, grow=True), LJ, True) for F in (0.9, 1.0)]
    states.append((graded_zigzag(1.0, n, rng, grow=False), QUARTIC, True))
    states += [(perturbed_uniform(F, n, 1.0 / n, rng=rng), LJ, False) for F in (0.9, 1.0)]
    for y, phi, graded in states:
        fast = max_abs_force_qcf(y, ks, phi)
        assert np.all(fast > 0.0)
        assert np.array_equal(fast, direct_maxima(y, ks, phi))
        if graded:
            assert len(set(fast.tolist())) == len(ks)

    # a NaN anywhere reaches every split's maximum, as np.max propagates it
    v = states[0][0].copy()
    v[n + n // 2] = np.nan
    with np.errstate(invalid="ignore"):
        fast = max_abs_force_qcf(v, ks, LJ)
        direct = direct_maxima(v, ks)
    assert np.all(np.isnan(fast)) and np.all(np.isnan(direct))


def test_split_maxima_reject_inadmissible_split():
    y = uniform_positions(1.0, 16, 1.0 / 16)
    for ks in ([1, 2, 3], [2, 8, 9]):
        with pytest.raises(ValueError, match="K out of range"):
            max_abs_force_qcf(y, ks, LJ)


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(min_value=-3.0, max_value=3.0))
def test_translation_invariance(shift):
    spec = DomainSpec(16, 4)
    eps = spec.eps
    y = perturbed_uniform(1.0, 16, eps, rng=np.random.default_rng(11))
    ys = y + shift
    for force in (
        lambda z: force_atomistic(z, LJ, eps),
        lambda z: force_lqc(z, LJ, eps),
        lambda z: force_qcf(z, spec, LJ),
    ):
        a = force(y)
        b = force(ys)
        # shifting perturbs the strains by eps^-1 rounding of the inputs,
        # so invariance can only hold relative to the force magnitude
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


def test_force_qcf_jacobian_is_asymmetric():
    # the coupled force field is not a gradient: its Jacobian at the
    # uniform state has a nonzero skew part for every admissible split
    n = 12
    eps = 1.0 / n
    y = uniform_positions(1.0, n, eps)
    for k in range(2, n // 2 + 1):
        spec = DomainSpec(n, k)
        J = fd_jacobian(lambda v: force_qcf(v, spec, LJ), y)
        Ji = J[:, 1:-1]
        asym = np.max(np.abs(Ji - Ji.T))
        assert asym > 1e-3 * np.max(np.abs(Ji))


def test_force_atomistic_jacobian_is_symmetric():
    n = 12
    eps = 1.0 / n
    y = uniform_positions(1.0, n, eps)
    J = fd_jacobian(lambda v: force_atomistic(v, LJ, eps), y)
    Ji = J[:, 1:-1]
    assert np.max(np.abs(Ji - Ji.T)) <= 1e-5 * np.max(np.abs(Ji))
