from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qcf1d import stability
from qcf1d.lattice import DomainSpec, diff, dual_norm_star, lp_norm
from qcf1d.operators import BorderedSolve, strain_stencil
from qcf1d.potentials import Coefficients
from qcf1d.stability import (
    _below_spectrum,
    _lanczos_max,
    _spectrum_floor,
    _start_vector,
    infsup_2,
    infsup_p_upper,
    quadratic_form,
    rayleigh_min,
    unstable_candidate,
)

from oracles import (
    DIFFERENTIAL_NK,
    DIFFERENTIAL_PHI2F,
    ea_dense,
    eqcf_dense,
    infsup_2_dense,
    interface_probe,
    l2_decomposition,
    l2_dense,
    operator_dense,
    pair_dense,
    plateau_dual_norm,
    quadratic_form_exact,
    rayleigh_min_dense,
    rdd_margin_dense,
    sampled_dual_norm,
)

C = Coefficients(1.0, -0.05)
RNG = np.random.default_rng(19)


def test_rayleigh_min_nearest_neighbor_only():
    # without second neighbors the quadratic form is exactly the strain norm
    spec = DomainSpec(16, 4)
    assert_allclose(rayleigh_min(Coefficients(1.0, 0.0), spec), 1.0, atol=1e-10)


def test_rayleigh_min_is_a_lower_bound_for_the_candidates():
    c = Coefficients(1.0, -0.2)
    for n, k in [(16, 4), (32, 8), (64, 16), (64, 32)]:
        spec = DomainSpec(n, k)
        r = rayleigh_min(c, spec)
        for sign in "+-":
            assert r <= quadratic_form(c, spec, unstable_candidate(spec, sign)) + 1e-9


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("sign", "+-")
def test_witness_matches_exact_quadratic_form(sign, n):
    # the conjugate route eps * Dv . E Dv against the displacement
    # stencils summed in exact rational arithmetic
    c = Coefficients(1.0, -0.2)
    spec = DomainSpec(n, n // 4)
    v = unstable_candidate(spec, sign)
    assert_allclose(quadratic_form(c, spec, v), quadratic_form_exact(c, spec, v), rtol=1e-14)


def test_candidate_normalization_and_support():
    spec = DomainSpec(32, 8)
    v = unstable_candidate(spec, "+")
    assert len(v) == 65 and v[0] == 0.0 and v[-1] == 0.0
    assert_allclose(lp_norm(diff(v, spec.eps), spec.eps, 2), 1.0, rtol=1e-12)
    # constant on the plateau through the left interface: every plateau
    # entry is the same float, so dividing by the one at site 0 gives 1.0
    raw = v / v[32]
    assert np.all(raw[np.abs(np.arange(-32, 33)) <= 8 + 2] >= 1.0)


def test_quadratic_form_membership_is_exact():
    c, spec = Coefficients(1.0, -0.2), DomainSpec(8, 2)
    v = np.zeros(17)
    v[1:-1] = 1.0
    assert_allclose(quadratic_form(c, spec, v), quadratic_form_exact(c, spec, v), rtol=1e-14)
    for end in (0, -1):
        near = v.copy()
        near[end] = 1e-300
        with pytest.raises(ValueError, match="vanishing"):
            quadratic_form(c, spec, near)


def test_candidate_interface_identity():
    # at plateau value 1, the interface part of the next-nearest pairing is
    # exactly 3*sqrt(N) for the '+' spike, and the left interface is silent
    for n in (64, 256, 1024):
        spec = DomainSpec(n, n // 4)
        v = unstable_candidate(spec, "+")
        v = v / v[n]  # site 0
        reg, left, right = l2_decomposition(v, v, spec)
        assert left == 0.0
        assert_allclose(left + right, 3.0 * np.sqrt(n), rtol=1e-10)
        direct = pair_dense(l2_dense(spec), v, v, spec.eps)
        assert_allclose(direct - reg, 3.0 * np.sqrt(n), rtol=1e-10)


def test_candidate_needs_room_for_the_ramp():
    with pytest.raises(ValueError):
        unstable_candidate(DomainSpec(4, 2), "+")


def test_rdd_margin_identity_matrix():
    assert rdd_margin_dense(np.eye(7)) == 1.0
    # phi2F = 0 leaves E = phiF * I
    assert strain_stencil(8, 2).rdd_margin(Coefficients(1.0, 0.0)) == 1.0


def test_rdd_margin_of_conjugate_operators():
    # conjugate coupled operator: margin phiF + 8 phi2F, size-independent
    g = strain_stencil(64, 16).rdd_margin(Coefficients(1.0, -0.05))
    assert_allclose(g, 0.6, atol=1e-14)
    # conjugate atomistic operator: no positive off-diagonals, margin
    # comes from the interior rows alone: phiF + 4 phi2F
    g = strain_stencil(32, 31).rdd_margin(Coefficients(1.0, -0.1))
    assert_allclose(g, 0.6, atol=1e-14)


@pytest.mark.parametrize("n", [16, 64])
def test_rdd_margin_independent_of_split(n):
    # gamma = phiF + 8*min(phi2F, 0): with phi2F > 0 the smallest diagonal plus
    # negative off-diagonals is phiF + 2*phi2F, and the largest positive sum 2*phi2F
    for c in (C, Coefficients(1.0, 0.1), Coefficients(1.0, 0.3)):
        for k in range(2, n // 2 + 1):
            g = strain_stencil(n, k).rdd_margin(c)
            assert abs(g - (c.phiF + 8.0 * min(c.phi2F, 0.0))) <= 1e-14


def test_infsup_2_identity():
    # phi2F = 0 leaves E = phiF * I on 12 bonds
    assert_allclose(infsup_2(Coefficients(1.5, 0.0), DomainSpec(6, 2)), 1.5, atol=1e-12)


def test_infsup_2_decay_rate():
    # coefficients with a vanishing probe weight reach the asymptotic
    # N^(-1/2) rate inside this window
    c = Coefficients(1.0, -0.2)
    ns = [64, 128, 256, 512]
    vals = [infsup_2(c, DomainSpec(n, n // 4)) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert abs(slope - (-0.5)) <= 0.1


def test_infsup_2_below_upper_bound():
    for n in (64, 128, 256):
        spec = DomainSpec(n, n // 4)
        assert infsup_2(C, spec) <= infsup_p_upper(C, spec, 2) + 1e-12


def test_infsup_p_upper_matches_direct_computation():
    spec = DomainSpec(64, 16)
    E = operator_dense("Eqcf", C, spec.N, spec.K)
    xi = interface_probe(C, spec)
    for p in (1.0, 2.0, 4.0):
        direct = lp_norm(E @ xi, spec.eps, p) / lp_norm(xi, spec.eps, p)
        assert_allclose(infsup_p_upper(C, spec, p), direct, rtol=1e-12)


def probe_bound_exact(c, spec, p):
    """infsup_p_upper's closed form in exact rational arithmetic, up to the final root."""
    phiF, phi2F = Fraction(c.phiF), Fraction(c.phi2F)
    alpha = (phiF + 5 * phi2F) / (2 * phi2F)
    num = abs(alpha * phi2F) ** p + abs(alpha * phiF + (1 + 2 * alpha) * phi2F) ** p
    return float(num / (spec.N - spec.K - 1 + abs(alpha) ** p)) ** (1.0 / p)


@pytest.mark.parametrize("phi2F", [-0.24, -0.2, -0.05, -1e-3, 1e-20, -1e-20, 1e-100, -1e-100,
                                   1e-300, -1e-300, 0.1, 0.3, 2.0, 1e-310, -5e-324])
def test_infsup_p_upper_matches_exact_arithmetic(phi2F):
    # with |phi2F| small, alpha is large and an unscaled alpha**p overflows,
    # though the bound itself is close to phiF
    c = Coefficients(1.0, phi2F)
    for n in (16, 1024, 2**20):
        spec = DomainSpec(n, n // 4)
        for p in (1, 2, 4):
            assert_allclose(infsup_p_upper(c, spec, p), probe_bound_exact(c, spec, p), rtol=1e-15, atol=0)


def test_interface_probe_is_mean_zero():
    xi = interface_probe(C, DomainSpec(32, 8))
    assert abs(xi.sum()) <= 1e-12
    assert len(xi) == 64  # bonds -31..32


def test_probe_weight_example():
    # alpha = (phiF + 5 phi2F) / (2 phi2F)
    c = Coefficients(1.0, -0.25)
    alpha = (c.phiF + 5.0 * c.phi2F) / (2.0 * c.phi2F)
    assert alpha == 0.5


def test_infsup_p_upper_bound_constant():
    # for N >= 2K+2 the quotient is below C * N^(-1/p) with the closed
    # form constant
    for p in (1.0, 2.0, 4.0):
        alpha = (C.phiF + 5.0 * C.phi2F) / (2.0 * C.phi2F)
        const = (
            2.0
            * (
                abs(alpha * C.phi2F) ** p
                + abs(alpha * C.phiF + (1.0 + 2.0 * alpha) * C.phi2F) ** p
            )
        ) ** (1.0 / p)
        for n in (64, 256, 1024):
            spec = DomainSpec(n, n // 4)
            assert infsup_p_upper(C, spec, p) <= const * n ** (-1.0 / p) + 1e-12


def test_infsup_p_upper_rejects_bad_input():
    spec = DomainSpec(16, 4)
    with pytest.raises(ValueError):
        infsup_p_upper(Coefficients(1.0, 0.0), spec, 2)
    with pytest.raises(ValueError):
        infsup_p_upper(C, spec, 0.5)
    with pytest.raises(ValueError):
        infsup_p_upper(C, spec, np.inf)


def test_dual_norm_star_zero():
    assert dual_norm_star(np.zeros(17), 0.125) == 0.0


def test_dual_norm_star_matches_plateau_enumeration():
    n = 16
    eps = 1.0 / n
    for _ in range(5):
        f = RNG.standard_normal(2 * n + 1)
        assert_allclose(dual_norm_star(f, eps), plateau_dual_norm(f, eps), rtol=1e-12)


def test_dual_norm_star_impulse():
    n = 16
    eps = 1.0 / n
    f = np.zeros(2 * n + 1)
    f[n] = 1.0 / eps
    closed = dual_norm_star(f, eps)
    assert closed == 0.5
    assert_allclose(plateau_dual_norm(f, eps), 0.5, rtol=1e-14)
    sampled = sampled_dual_norm(f, eps, 10_000, np.random.default_rng(3))
    assert sampled <= closed + 1e-12
    assert (closed - sampled) / closed <= 0.01


def test_dual_norm_star_dominates_every_sample():
    n = 16
    eps = 1.0 / n
    for seed in range(3):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(2 * n + 1)
        sampled = sampled_dual_norm(f, eps, 5_000, rng)
        assert sampled <= dual_norm_star(f, eps) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=5, max_size=33))
def test_dual_norm_star_below_half_l1(vals):
    if len(vals) % 2 == 0:
        vals = vals + [0.0]
    n = (len(vals) - 1) // 2
    eps = 1.0 / max(n, 1)
    f = np.asarray(vals)
    lim = 0.5 * lp_norm(f[1:-1], eps, 1)
    assert dual_norm_star(f, eps) <= lim + 1e-12 * max(1.0, lim)


def test_certified_bound_never_beaten_by_candidates():
    # search the max/1-norm pairing over many mean-zero trial strains:
    # no candidate drops below gamma/2
    gamma_half = 0.5 * (C.phiF + 8.0 * C.phi2F)
    rng = np.random.default_rng(23)
    for n in (8, 16, 32):
        for k in range(2, n // 2 + 1):
            E = operator_dense("Eqcf", C, n, k)
            X = rng.standard_normal((300, 2 * n))
            X = np.vstack([X, interface_probe(C, DomainSpec(n, k))])
            X -= X.mean(axis=1, keepdims=True)
            X /= np.abs(X).max(axis=1, keepdims=True)
            img = X @ E.T
            # the 1-norm dual over mean-zero test strains is half the range
            osc = 0.5 * (img.max(axis=1) - img.min(axis=1))
            assert osc.min() >= gamma_half - 1e-10


def test_noncoercivity_onset_grows_with_stiffness_ratio():
    # the domain size at which the quadratic form first goes indefinite
    # cannot shrink when the next-nearest coupling weakens; at ratio <= 5
    # every admissible domain is already indefinite, so the onset clamps
    # at the smallest admissible size
    def onset(c):
        for n in range(4, 200):
            k = max(2, n // 4)
            if 2 * k > n:
                continue
            if rayleigh_min(c, DomainSpec(n, k)) < 0.0:
                return n
        raise AssertionError("no onset found")

    onsets = [onset(Coefficients(1.0, -1.0 / r)) for r in (2.5, 5.0, 10.0)]
    assert onsets[0] <= onsets[1] <= onsets[2]
    assert onsets[1] < onsets[2]


# 2N+1 Fibonacci: a linear Weyl start vector frac((i+1) g) is odd at these N
FIBONACCI_NK = [(n, max(2, n // 4)) for n in (6, 10, 27, 44)]


@pytest.mark.parametrize("n", [n for n, _ in FIBONACCI_NK] + list(range(2, 3000, 97)) + [2**12, 2**20])
def test_start_vector_has_both_reflection_parities(n):
    v = _start_vector(2 * n)
    v -= v.mean()
    even, odd = 0.5 * (v + v[::-1]), 0.5 * (v - v[::-1])
    assert min(np.linalg.norm(even), np.linalg.norm(odd)) >= 0.43 * np.linalg.norm(v)


@pytest.mark.parametrize("n", [n for n, _ in FIBONACCI_NK])
def test_lanczos_finds_an_even_top_eigenvector(n):
    # x -> 2x + reflected x, on mean-zero vectors: 3 on even vectors, 1 on
    # odd ones; a start vector of one parity would return that parity's value
    def op(x):
        y = 2.0 * x + x[::-1]
        return y - y.mean()

    lam, x = _lanczos_max(op, 2 * n, "test")
    assert_allclose(lam, 3.0, rtol=1e-12)
    assert_allclose(x, x[::-1], atol=1e-10 * np.linalg.norm(x))


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK + FIBONACCI_NK)
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F)
def test_sparse_kernels_match_dense_oracles(phi2F, n, k):
    c = Coefficients(1.0, phi2F)
    spec = DomainSpec(n, k)
    dense = rayleigh_min_dense(c, spec)
    assert_allclose(rayleigh_min(c, spec), dense, rtol=1e-12)
    # up to the dense eigensolve's rounding: at phi2F = 0 the floor is
    # exactly phiF, and the oracle returns it low by 1.1e-14 at most here
    assert _spectrum_floor(*strain_stencil(n, k).split(c, "sym")) <= dense + 1e-12 * max(1.0, abs(dense))
    assert_allclose(infsup_2(c, spec), infsup_2_dense(eqcf_dense(c, spec)), rtol=1e-9)
    for band, dense in ((k, eqcf_dense(c, spec)), (n - 1, ea_dense(c, n))):
        assert strain_stencil(n, band).rdd_margin(c) == rdd_margin_dense(dense)


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK)
def test_rayleigh_min_where_t_alone_is_not_dominant(n, k):
    # phiF + 4*phi2F = -0.6: only the shift makes sym(T) - sigma dominant
    c = Coefficients(1.0, -0.4)
    spec = DomainSpec(n, k)
    assert_allclose(rayleigh_min(c, spec), rayleigh_min_dense(c, spec), rtol=1e-12)


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK)
@pytest.mark.parametrize("phi2F", [-0.249, -0.25 + 1e-6])
def test_infsup_2_near_the_dominance_limit(phi2F, n, k):
    # The bordered solve divides by pivots of T no smaller than its
    # dominance margin phiF + 4*phi2F, and its capacitance step cancels
    # terms up to ||T^-1|| ~ 1/margin in size, so its rounding grows like
    # 1/margin while the compressed E stays well conditioned: measured
    # 3.8e-13 at margin 4e-3 and 3.5e-9 at 4e-6 on this grid, about
    # 1.4e-14 / margin.  So the tolerance scales with 1/margin, with a
    # factor 7 of room; at -0.249 it is 2.5e-11, tighter than 1e-9.
    c = Coefficients(1.0, phi2F)
    spec = DomainSpec(n, k)
    margin = c.phiF + 4.0 * c.phi2F
    assert_allclose(infsup_2(c, spec), infsup_2_dense(eqcf_dense(c, spec)), rtol=1e-13 / margin)


@pytest.mark.parametrize("phi2F,margin", [(-0.25, "0"), (-0.3, "-0.2"), (-2.0, "-7")])
def test_infsup_2_needs_diagonal_dominance(phi2F, margin):
    # at phi2F = -2 the kernel runs on the constants halved, yet names their own margin
    with pytest.raises(ValueError, match=rf"infsup_2 needs phiF \+ 4\*phi2F > 0 .*, got {margin}$"):
        infsup_2(Coefficients(1.0, phi2F), DomainSpec(16, 4))


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK)
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F + [-0.4, 1e-308, -1e-308])
def test_inertia_certificate_matches_dense_eigenvalues(phi2F, n, k):
    # on both sides of the smallest eigenvalue, wherever sym(T) - sigma
    # is strictly dominant, as the certificate requires; at |phi2F| = 1e-308
    # a certificate that formed C^{-1} = 2/phi2F would overflow
    c = Coefficients(1.0, phi2F)
    spec = DomainSpec(n, k)
    dense = rayleigh_min_dense(c, spec)
    (lower, diag, upper), left, right = strain_stencil(n, k).split(c, "sym")
    dominant_below = np.min(diag - np.abs(lower) - np.abs(upper))
    checked = 0
    for sigma in dense + np.array([-1.0, -1e-3, 1e-3, 0.5]) * max(1.0, abs(dense)):
        if sigma < dominant_below:
            solve = BorderedSolve((lower, diag - sigma, upper), left, right)
            assert _below_spectrum(solve, c) == (sigma < dense), sigma
            checked += 1
    assert checked >= 2


def test_failed_inertia_check_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(stability, "_below_spectrum", lambda solve, c: False)
    with pytest.raises(RuntimeError, match=r"inertia check failed, shift -[0-9.]+ is not below the spectrum"):
        rayleigh_min(Coefficients(1.0, -0.2), DomainSpec(64, 16))


@pytest.mark.parametrize("kernel", [rayleigh_min, infsup_2])
def test_lanczos_cap_is_a_numerical_failure(kernel, monkeypatch):
    monkeypatch.setattr(stability, "LANCZOS_MAX_ITER", 2)
    with pytest.raises(RuntimeError, match=r"did not converge in 2 iterations \(residual [0-9.e+-]+ >"):
        kernel(Coefficients(1.0, -0.2), DomainSpec(64, 16))


@pytest.mark.parametrize("scale", [1e-300, 1e-6, 1e300, 1e307])
@pytest.mark.parametrize("phi2F", [-0.2, 0.3])
def test_kernels_are_scale_covariant(phi2F, scale):
    # each kernel is linear in (phiF, phi2F), whatever the scale of the constants
    c, scaled = Coefficients(1.0, phi2F), Coefficients(scale, phi2F * scale)
    for n, k in ((16, 4), (64, 16)):
        spec = DomainSpec(n, k)
        v = unstable_candidate(spec)
        for kernel in (rayleigh_min, infsup_2, lambda c, spec: infsup_p_upper(c, spec, 2.0),
                       lambda c, spec: quadratic_form(c, spec, v)):
            assert_allclose(kernel(scaled, spec), scale * kernel(c, spec), rtol=1e-12)
