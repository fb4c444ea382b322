import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcf1d.lattice import LOADS, DomainSpec, diff, dual_norm_star, lp_norm, summed_load
from qcf1d import solver
from qcf1d.operators import strain_stencil
from qcf1d.potentials import Coefficients
from qcf1d.solver import (
    error_report_detailed,
    sample_load,
    solve_strain,
    truncation_error_stencil,
)

from oracles import (
    DIFFERENTIAL_NK,
    DIFFERENTIAL_PHI2F,
    continuum_sites,
    diff3,
    diff4_centered,
    displacement_solve,
    ea_dense,
    eqcf_dense,
    la_dense,
    lqcf_dense,
    solve_bordered_dense,
    solve_refined_dense,
    truncation_error_dense,
)

C = Coefficients(1.0, -0.05)
RNG = np.random.default_rng(31)


def test_zero_load_gives_zero_solution():
    w = solve_strain(C, 32, 31, np.zeros(64), 0.0, 1.0 / 8)
    assert np.all(w == 0.0)


def test_atomistic_solve_residual():
    m = 64
    eps = 1.0 / 16
    f = RNG.standard_normal(2 * m + 1)
    u = displacement_solve(C, f, m - 1, eps)
    resid = la_dense(C, m, eps) @ u - f[1:-1]
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(f))
    assert u[0] == 0.0 and abs(u[-1]) <= 1e-13 * np.max(np.abs(u))


def test_atomistic_solve_backward_stable_at_large_m():
    # ||A|| grows like M^2: at M=3072 the residual exceeds 1e-10 * max|b|,
    # yet the normwise backward error stays at rounding level
    eps = 1.0 / 768
    g = summed_load(sample_load(LOADS["cospi"], 3072, eps), eps)
    w = solve_strain(C, 3072, 3071, g, 0.0, eps)
    assert np.all(np.isfinite(w))
    assert abs(eps * np.sum(w)) <= 1e-13 * np.max(np.abs(w))  # u(M) - u(-M) = 0


def test_solve_gate_reports_dominance_margin(monkeypatch):
    # the margin of the tridiagonal part T bounds ||T^{-1}|| by its inverse:
    # min(phiF, phiF + 4*phi2F) for the strain operators
    monkeypatch.setattr(solver, "BACKWARD_ERROR_TOL", 0.0)
    g = RNG.standard_normal(64)
    for k in (8, 31):  # coupled, atomistic
        with pytest.raises(RuntimeError, match="test solve: backward error") as exc:
            solve_strain(C, 32, k, g, 0.3, 1.0 / 32, "test solve")
        margin = float(str(exc.value).rsplit(" ", 1)[1].rstrip(")"))
        assert_allclose(margin, C.phiF + 4.0 * C.phi2F, rtol=1e-3)


@pytest.mark.parametrize("load", [np.ones_like, np.exp], ids=["const", "exp"])
@pytest.mark.parametrize("phi2F", [-0.24, 0.1, 0.3])
def test_refined_solves_are_backward_stable_to_16_unit_roundoffs(monkeypatch, load, phi2F):
    # the reference and coupled solves of a convergence run at N = 2^14, K = N/4: unrefined,
    # the coupled solve's backward error is 380-1270 u at phi2F > 0 and 19-27 u at
    # phi2F = -0.24; one step of refinement brings it below 1 u
    monkeypatch.setattr(solver, "BACKWARD_ERROR_TOL", 16.0 * solver.UNIT_ROUNDOFF)
    c, n = Coefficients(1.0, phi2F), 2**14
    m, eps = 4 * n, 1.0 / n
    g = summed_load(sample_load(load, m, eps), eps)
    w_a = solve_strain(c, m, m - 1, g, 0.0, eps)
    inner = slice(m - n, m + n)
    solve_strain(c, n, n // 4, g[inner], eps * float(np.sum(w_a[inner])), eps)


def test_nonfinite_solve_is_a_numerical_failure():
    # the summed load of finite samples overflows: that must surface as
    # RuntimeError (exit 1), not as the ValueError of a configuration error
    with np.errstate(all="ignore"):
        g = summed_load(np.full(65, 1e308), 1.0 / 8)
    for k in (31, 8):  # atomistic, coupled
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="not finite"):
            solve_strain(C, 32, k, g, 0.0, 1.0 / 8)


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK)
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F)
def test_banded_solve_matches_dense_oracle(phi2F, n, k):
    # the strain solve against a dense bordered solve of Ea and Eqcf, and
    # both displacements summed from it against a dense LU of the interior block
    c = Coefficients(1.0, phi2F)
    spec = DomainSpec(n, k)
    eps = spec.eps
    rng = np.random.default_rng(n + k)
    g, delta_u = rng.standard_normal(2 * n), rng.standard_normal()
    for E, band in ((ea_dense(c, n), n - 1), (eqcf_dense(c, spec), k)):
        w = solve_strain(c, n, band, g, delta_u, eps)
        w_dense = solve_bordered_dense(E, g, delta_u, eps)
        assert np.max(np.abs(w - w_dense)) <= 1e-12 * np.max(np.abs(w_dense))
    f = rng.standard_normal(2 * n + 1)
    bc = rng.standard_normal(2)
    cases = (
        (displacement_solve(c, f, n - 1, eps), la_dense(c, n, eps), (0.0, 0.0)),
        (displacement_solve(c, f, k, eps, bc), lqcf_dense(c, spec), bc),
    )
    for u, L, (left, right) in cases:
        x_dense = solve_refined_dense(L[:, 1:-1], f[1:-1] - left * L[:, 0] - right * L[:, -1])
        assert np.max(np.abs(u[1:-1] - x_dense)) <= 1e-10 * np.max(np.abs(x_dense))
        assert u[0] == left and abs(u[-1] - right) <= 1e-10 * np.max(np.abs(x_dense))


def test_atomistic_solve_reflection_symmetry():
    m = 32
    eps = 1.0 / 8
    half = RNG.standard_normal(m + 1)
    vals = np.concatenate([half[:0:-1], half])  # even samples
    u = displacement_solve(C, vals, m - 1, eps)
    assert_allclose(u, u[::-1], atol=1e-12 * np.max(np.abs(u)))


def test_atomistic_solve_needs_bulk_stability():
    with pytest.raises(ValueError):
        solve_strain(Coefficients(1.0, -0.3), 8, 7, np.zeros(16), 0.0, 0.125)


@pytest.mark.parametrize("phi2F", [-0.25, -0.3])
def test_qcf_solve_needs_diagonal_dominance(phi2F):
    # phiF + 4*phi2F <= 0 leaves the tridiagonal part of Eqcf without
    # strict diagonal dominance, which cyclic reduction relies on
    with pytest.raises(ValueError, match="coupled solve needs phiF \\+ 4\\*phi2F > 0"):
        solve_strain(Coefficients(1.0, phi2F), 16, 4, np.zeros(32), 0.0, 1.0 / 16, "coupled solve")


def test_qcf_solve_trivial_and_affine():
    zero = np.zeros(33)
    u = displacement_solve(C, zero, 4, 1.0 / 16)
    assert np.all(u == 0.0)
    a = 0.37
    u = displacement_solve(C, zero, 4, 1.0 / 16, (-a, a))
    expected = a * np.arange(-16, 17) / 16.0
    assert_allclose(u, expected, rtol=1e-12, atol=1e-15)


def test_qcf_solve_residual():
    spec = DomainSpec(32, 8)
    f = RNG.standard_normal(65)
    u = displacement_solve(C, f, spec.K, spec.eps, (0.1, -0.2))
    resid = lqcf_dense(C, spec) @ u - f[1:-1]
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(f))


def test_qcf_strain_bound_random_loads():
    spec = DomainSpec(32, 8, M=128)
    gamma = C.phiF + 8.0 * C.phi2F
    for seed in range(5):
        rng = np.random.default_rng(seed)
        f_m = np.zeros(2 * 128 + 1)
        f_m[128 - 31 : 128 + 32] = rng.standard_normal(63)
        u_a = displacement_solve(C, f_m, 127, spec.eps)
        f_n = f_m[128 - 32 : 128 + 33]
        bc = u_a[[-32 + 128, 32 + 128]]
        u_q = displacement_solve(C, f_n, spec.K, spec.eps, bc)
        lhs = lp_norm(diff(u_q, spec.eps), spec.eps, np.inf)
        rhs = 2.0 * dual_norm_star(f_n, spec.eps) / gamma + abs((bc[1] - bc[0]) / (2.0 * spec.N))
        assert lhs <= rhs


def make_reference(spec, load=None):
    load = load or LOADS["cospi"]
    return displacement_solve(C, sample_load(load, spec.M, spec.eps), spec.M - 1, spec.eps)


def test_truncation_error_supported_on_continuum():
    spec = DomainSpec(32, 8, M=128)
    u_a = make_reference(spec)
    t = truncation_error_dense(u_a, C, spec)
    js = np.arange(-32, 33)
    # the two operators share their rows on the atomistic band, so the
    # residual vanishes there
    assert np.max(np.abs(t[np.abs(js) <= 8])) <= 1e-12 / spec.eps**2
    assert len(t) == 65 and t[0] == 0.0 and t[-1] == 0.0
    assert np.max(np.abs(t)) > 1e3 * np.max(np.abs(t[np.abs(js) <= 8]))


def test_truncation_error_matches_stencil_route():
    # the third-difference route against the direct dense oracle: entries
    # to the oracle's cancellation floor, the dual norm to its rounding
    for n in (12, 32, 128, 512, 1024):
        spec = DomainSpec(n, n // 4, M=4 * n)
        u_a = make_reference(spec)
        t = truncation_error_dense(u_a, C, spec)
        ts = truncation_error_stencil(diff(diff(diff(u_a, spec.eps), spec.eps), spec.eps), C, spec)
        assert np.max(np.abs(t - ts)) <= 1e-12 / spec.eps**2, n
        assert_allclose(dual_norm_star(ts, spec.eps), dual_norm_star(t, spec.eps), rtol=1e-6)


def test_truncation_norm_identity():
    # direct-route norms against the fourth-difference closed form; small
    # domain keeps the eps^-2 cancellation noise under the tight tolerance
    spec = DomainSpec(12, 3, M=48)
    u_a = make_reference(spec)
    t = truncation_error_dense(u_a, C, spec)
    d4 = diff4_centered(u_a, spec.eps)
    cont = continuum_sites(spec)
    for p in (1, 2, np.inf):
        lhs = lp_norm(t, spec.eps, p)
        rhs = spec.eps**2 * abs(C.phi2F) * lp_norm(d4[cont + spec.M - 2], spec.eps, p)
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_truncation_vanishes_on_cubic_fields():
    spec = DomainSpec(16, 4, M=64)
    x = np.arange(-64, 65) * spec.eps
    cubic = 1.0 + x - 0.5 * x**2 + 0.25 * x**3
    stencil = truncation_error_stencil(diff(diff(diff(cubic, spec.eps), spec.eps), spec.eps), C, spec)
    for name, t in (("dense", truncation_error_dense(cubic, C, spec)), ("stencil", stencil)):
        assert np.max(np.abs(t)) <= 1e-12 / spec.eps**2, name


def test_truncation_offset_comes_from_the_strains_length():
    # the third differences of the reference strains of half-width M and of
    # the same strains sliced to half-width N+2 give the same residual, bit for bit
    spec = DomainSpec(32, 8, M=128)
    w_a = diff(make_reference(spec), spec.eps)  # bond j at offset j + M - 1
    sliced = w_a[spec.M - spec.N - 2 : spec.M + spec.N + 2]  # bonds -N-1..N+2
    assert len(sliced) == 2 * (spec.N + 2)

    def residual(w):
        return truncation_error_stencil(diff(diff(w, spec.eps), spec.eps), C, spec)

    full = residual(w_a)
    assert np.max(np.abs(full)) > 0.0
    assert np.array_equal(residual(sliced), full)
    with pytest.raises(ValueError, match="reference half-width"):
        residual(sliced[1:-1])
    with pytest.raises(ValueError, match="bonds"):
        residual(sliced[1:])


def test_truncation_needs_reference_margin():
    # each route reads the reference half-width from its field; DomainSpec
    # itself rejects M = N+1 (test_lattice)
    spec = DomainSpec(32, 8, M=34)
    u = np.zeros(67)  # sites -33..33: half-width N+1
    d3 = diff(diff(diff(u, spec.eps), spec.eps), spec.eps)
    for route, field in ((truncation_error_dense, u), (truncation_error_stencil, d3)):
        with pytest.raises(ValueError, match="reference (half-width|field) too"):
            route(field, C, spec)


def test_trunc_star_holds_its_bound_at_large_n():
    # the direct route fails here: trunc_star 4.50e-10 against the bound
    # 3.66e-10 at N=32768, and a ratio of 1.29 between the first two sizes;
    # a separately rounded fourth difference fails at N=131072 (7.8e-11
    # against 2.5e-11)
    load = LOADS["cospi"]
    reports = [
        error_report_detailed(C, load, DomainSpec(n, n // 4, M=4 * n))[0]
        for n in (16384, 32768, 131072)
    ]
    for rep in reports:
        assert rep.trunc_star <= rep.trunc_bound, rep.N
    assert 3.8 <= reports[0].trunc_star / reports[1].trunc_star <= 4.2


def test_error_report_inequalities_and_symmetry():
    spec = DomainSpec(32, 8, M=128)
    rep, t, _ = error_report_detailed(C, LOADS["cospi"], spec)
    assert rep.err_strain_inf <= rep.bound_rhs
    assert rep.trunc_star <= rep.trunc_bound
    assert rep.trunc_star <= 0.5 * lp_norm(t, spec.eps, 1) + 1e-15
    # even load -> even solutions and even error field
    f_m = sample_load(LOADS["cospi"], 128, spec.eps)
    u_a = displacement_solve(C, f_m, 127, spec.eps)
    window = slice(128 - 32, 128 + 33)  # sites -32..32
    u_q = displacement_solve(C, f_m[window], spec.K, spec.eps, u_a[[-32 + 128, 32 + 128]])
    for u in (u_a, u_q):
        assert_allclose(u, u[::-1], atol=1e-11 * np.max(np.abs(u)))
    e = u_a[window] - u_q
    assert_allclose(e, e[::-1], atol=1e-9 * max(np.max(np.abs(e)), 1e-30))


def test_error_report_requires_stability_regime():
    spec = DomainSpec(16, 4, M=64)
    with pytest.raises(ValueError, match="stability regime"):
        error_report_detailed(Coefficients(1.0, -0.2), LOADS["cospi"], spec)


def test_a_margin_within_rounding_of_zero_is_a_numerical_failure():
    # phi2F = -phiF/8 makes the margin phiF + 8 phi2F exactly 0, and with phiF
    # beside phi2F = 1e300 the true margin phiF > 0 is lost in the sums: neither
    # can be told from 0 within the margin's rounding allowance
    spec = DomainSpec(16, 4, M=64)
    for c in (Coefficients(1.0, -0.125), Coefficients(8.0, -1.0), Coefficients(1e-300, 1e300)):
        gamma, allowance = strain_stencil(spec.N, spec.K).rdd_margin(c)
        assert gamma == 0.0 and allowance > 0.0
        with pytest.raises(RuntimeError, match="within its rounding allowance"):
            error_report_detailed(c, LOADS["cospi"], spec)


def test_bound_rhs_divides_by_the_margin_at_positive_phi2F():
    # with phi2F > 0 the margin is phiF, not phiF + 8*phi2F = 1.8: half of
    # 1.8 exceeds the exact max-norm inf-sup constant, about 0.53 at phi2F = 0.1
    c = Coefficients(1.0, 0.1)
    spec = DomainSpec(32, 8, M=128)
    gamma = strain_stencil(spec.N, spec.K).rdd_margin(c).gamma
    assert gamma == 1.0
    rep, _, _ = error_report_detailed(c, LOADS["cospi"], spec)
    assert rep.bound_rhs > 0.0
    assert rep.bound_rhs == 2.0 * rep.trunc_bound / gamma


@pytest.mark.parametrize("load", [np.exp, lambda x: np.exp(-x), lambda x: np.arctan(20.0 * x)],
                         ids=["exp", "exp_reflected", "arctan"])
def test_trunc_bound_reads_d3_on_the_continuum_residuals_bonds(load):
    # 2 eps^2 |phi2F| max|D3| over bonds -N+2..-K+1 and K+2..N+1, the third
    # differences of the reference displacement that the continuum residual
    # reads; under these three loads |D3| peaks at the outer end bond N+1,
    # at -N+2, and at the inner end bonds -K+1 and K+2, next to larger values
    # on the atomistic bonds -K+2 and K+1
    spec = DomainSpec(32, 8, M=128)
    n, k, m = spec.N, spec.K, spec.M
    report = error_report_detailed(C, load, spec)[0]
    d3 = diff3(make_reference(spec, load), spec.eps)  # D3_j at offset j + M - 3
    bonds = np.concatenate((np.arange(-n + 2, -k + 2), np.arange(k + 2, n + 2)))
    expected = 2.0 * spec.eps**2 * abs(C.phi2F) * np.max(np.abs(d3[bonds + m - 3]))
    assert_allclose(report.trunc_bound, expected, rtol=1e-9)
    with pytest.raises(ValueError, match="DomainSpec.M"):
        error_report_detailed(C, load, DomainSpec(n, k))


def test_constant_load_hits_rounding_floor():
    # a constant load makes the reference solution a sampled parabola in
    # the computational window, so the fourth differences vanish and the
    # coupled solve reproduces it to rounding
    spec = DomainSpec(32, 8, M=128)
    rep, _, _ = error_report_detailed(C, LOADS["const"], spec)
    assert rep.err_strain_inf <= 1e-9
    assert rep.trunc_star <= 1e-9


def test_sample_load():
    load = LOADS["cospi"]
    s = sample_load(load, 8, 0.125)
    assert len(s) == 17
    j = np.arange(-8, 9)
    assert np.array_equal(s, load(j * 0.125))
    assert np.all(sample_load(LOADS["zero"], 8, 0.125) == 0.0)
