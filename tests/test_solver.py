import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qcf1d.lattice import DomainSpec, Field, diff, diff4_centered, lp_norm
from qcf1d import solver
from qcf1d.operators import assemble_la, assemble_lqcf
from qcf1d.potentials import Coefficients
from qcf1d.solver import (
    ForceField,
    error_report_detailed,
    named_load,
    solve_atomistic,
    solve_qcf,
    truncation_error_stencil,
)
from qcf1d.stability import dual_norm_star

from oracles import (
    DIFFERENTIAL_NK,
    DIFFERENTIAL_PHI2F,
    solve_refined_dense,
    truncation_error_dense,
)

C = Coefficients(1.0, -0.05)
RNG = np.random.default_rng(31)


def test_zero_load_gives_zero_solution():
    u = solve_atomistic(C, Field(np.zeros(65), -32), 1.0 / 8)
    assert np.all(u.values == 0.0)


def test_atomistic_solve_residual():
    m = 64
    eps = 1.0 / 16
    f = Field(RNG.standard_normal(2 * m + 1), -m)
    u = solve_atomistic(C, f, eps)
    from qcf1d.operators import assemble_la

    resid = assemble_la(C, m, eps).apply(u).values - f.values[1:-1]
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(f.values))
    assert u.at(-m) == 0.0 and u.at(m) == 0.0


def test_atomistic_solve_backward_stable_at_large_m():
    # ||A|| grows like M^2: at M=3072 the residual exceeds 1e-10 * max|b|,
    # yet the normwise backward error stays at rounding level
    eps = 1.0 / 768
    u = solve_atomistic(C, named_load("cospi").sample(3072, eps), eps)
    assert np.all(np.isfinite(u.values))
    assert u.at(-3072) == 0.0 and u.at(3072) == 0.0


def test_solve_gate_reports_condition_estimate(monkeypatch):
    monkeypatch.setattr(solver, "BACKWARD_ERROR_TOL", 0.0)
    A = RNG.standard_normal((50, 50))
    rcond = 1.0 / np.linalg.cond(A, np.inf)
    with pytest.raises(RuntimeError, match="backward error") as exc:
        solver._solve_refined(A, RNG.standard_normal(50), "test solve")
    estimate = float(str(exc.value).rsplit(" ", 1)[1].rstrip(")"))
    assert rcond / 10 <= estimate <= rcond * 10


def test_singular_solve_is_a_numerical_failure():
    # a zero pivot gives inf/NaN; that must surface as RuntimeError (exit 1),
    # not as the ValueError of a configuration error (exit 2)
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.warns(scipy.linalg.LinAlgWarning):
        with pytest.raises(RuntimeError, match="not finite"):
            solver._solve_refined(A, np.array([1.0, 2.0]), "test solve")


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK)
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F)
def test_banded_solve_matches_dense_oracle(phi2F, n, k):
    # La blocks are symmetric, Lqcf blocks are not
    c = Coefficients(1.0, phi2F)
    spec = DomainSpec(n, k)
    b = np.random.default_rng(n + k).standard_normal(2 * n - 1)
    for L in (assemble_la(c, n, spec.eps), assemble_lqcf(c, spec)):
        A = L.interior_block()
        x = solver._solve_refined(A, b, "test solve")
        x_dense = solve_refined_dense(A.toarray(), b)
        assert np.max(np.abs(x - x_dense)) <= 1e-10 * np.max(np.abs(x_dense))


def test_atomistic_solve_reflection_symmetry():
    m = 32
    eps = 1.0 / 8
    half = RNG.standard_normal(m + 1)
    vals = np.concatenate([half[:0:-1], half])  # even samples
    u = solve_atomistic(C, Field(vals, -m), eps)
    assert_allclose(u.values, u.values[::-1], atol=1e-12 * np.max(np.abs(u.values)))


def test_atomistic_solve_needs_bulk_stability():
    with pytest.raises(ValueError):
        solve_atomistic(Coefficients(1.0, -0.3), Field(np.zeros(17), -8), 0.125)


def test_qcf_solve_trivial_and_affine():
    spec = DomainSpec(16, 4)
    zero = Field(np.zeros(33), -16)
    u = solve_qcf(C, zero, spec, 0.0, 0.0)
    assert np.all(u.values == 0.0)
    a = 0.37
    u = solve_qcf(C, zero, spec, -a, a)
    expected = a * np.arange(-16, 17) / 16.0
    assert_allclose(u.values, expected, rtol=1e-12, atol=1e-15)
    assert u.at(-16) == -a and u.at(16) == a


def test_qcf_solve_residual():
    spec = DomainSpec(32, 8)
    f = Field(RNG.standard_normal(65), -32)
    u = solve_qcf(C, f, spec, 0.1, -0.2)
    from qcf1d.operators import assemble_lqcf

    resid = assemble_lqcf(C, spec).apply(u).values - f.values[1:-1]
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(f.values))


def test_qcf_solve_warns_outside_stability_regime():
    spec = DomainSpec(16, 4)
    with pytest.warns(RuntimeWarning, match="stability regime"):
        solve_qcf(Coefficients(1.0, -0.2), Field(np.zeros(33), -16), spec, 0.0, 0.0)


def test_qcf_strain_bound_random_loads():
    spec = DomainSpec(32, 8, M=128)
    gamma = C.phiF + 8.0 * C.phi2F
    load_m = named_load("cospi").sample(128, spec.eps)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        vals = np.zeros(2 * 128 + 1)
        vals[128 - 31 : 128 + 32] = rng.standard_normal(63)
        f_m = Field(vals, -128)
        u_a = solve_atomistic(C, f_m, spec.eps)
        f_n = f_m.restrict(-32, 32)
        u_q = solve_qcf(C, f_n, spec, u_a.at(-32), u_a.at(32))
        lhs = lp_norm(diff(u_q, spec.eps), spec.eps, np.inf)
        rhs = 2.0 * dual_norm_star(f_n, spec.eps) / gamma + abs(
            (u_a.at(32) - u_a.at(-32)) / (2.0 * spec.N)
        )
        assert lhs <= rhs


def make_reference(spec, load=None):
    load = load or named_load("cospi")
    f_m = load.sample(spec.M, spec.eps)
    return solve_atomistic(C, f_m, spec.eps)


def test_truncation_error_supported_on_continuum():
    spec = DomainSpec(32, 8, M=128)
    u_a = make_reference(spec)
    t = truncation_error_dense(u_a, C, spec)
    js = t.indices()
    # the two operators share their rows on the atomistic band, so the
    # residual there sits at the rounding floor of the applications
    assert np.max(np.abs(t.values[np.abs(js) <= 8])) <= 1e-12 / spec.eps**2
    assert t.at(-32) == 0.0 and t.at(32) == 0.0
    assert np.max(np.abs(t.values)) > 1e3 * np.max(np.abs(t.values[np.abs(js) <= 8]))


def test_truncation_error_matches_stencil_route():
    # the third-difference route against the direct dense oracle: entries
    # to the oracle's cancellation floor, the dual norm to its rounding
    for n in (12, 32, 128, 512, 1024):
        spec = DomainSpec(n, n // 4, M=4 * n)
        u_a = make_reference(spec)
        t = truncation_error_dense(u_a, C, spec)
        ts = truncation_error_stencil(u_a, C, spec)
        assert np.max(np.abs(t.values - ts.values)) <= 1e-12 / spec.eps**2, n
        assert_allclose(dual_norm_star(ts, spec.eps), dual_norm_star(t, spec.eps), rtol=1e-6)


def test_truncation_norm_identity():
    # direct-route norms against the fourth-difference closed form; small
    # domain keeps the eps^-2 cancellation noise under the tight tolerance
    spec = DomainSpec(12, 3, M=48)
    u_a = make_reference(spec)
    t = truncation_error_dense(u_a, C, spec)
    d4 = diff4_centered(u_a, spec.eps)
    cont = spec.continuum_sites()
    for p in (1, 2, np.inf):
        lhs = lp_norm(t, spec.eps, p)
        rhs = spec.eps**2 * abs(C.phi2F) * lp_norm(d4.values[cont - d4.lo], spec.eps, p)
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_truncation_vanishes_on_cubic_fields():
    spec = DomainSpec(16, 4, M=64)
    x = np.arange(-64, 65) * spec.eps
    cubic = Field(1.0 + x - 0.5 * x**2 + 0.25 * x**3, -64)
    for route in (truncation_error_dense, truncation_error_stencil):
        t = route(cubic, C, spec)
        assert np.max(np.abs(t.values)) <= 1e-12 / spec.eps**2, route.__name__


def test_truncation_needs_reference_margin():
    spec = DomainSpec(32, 8, M=33)
    for route in (truncation_error_dense, truncation_error_stencil):
        with pytest.raises(ValueError, match="reference half-width"):
            route(Field(np.zeros(67), -33), C, spec)


def test_trunc_star_holds_its_bound_at_large_n():
    # the direct route fails here: trunc_star 4.50e-10 against the bound
    # 3.66e-10 at N=32768, and a ratio of 1.29 between the first two sizes;
    # a separately rounded fourth difference fails at N=131072 (7.8e-11
    # against 2.5e-11)
    load = named_load("cospi")
    reports = [
        error_report_detailed(C, load, DomainSpec(n, n // 4, M=4 * n))[0]
        for n in (16384, 32768, 131072)
    ]
    for rep in reports:
        assert rep.trunc_star <= rep.trunc_bound, rep.N
    assert 3.8 <= reports[0].trunc_star / reports[1].trunc_star <= 4.2


def test_error_report_inequalities_and_symmetry():
    spec = DomainSpec(32, 8, M=128)
    rep, det = error_report_detailed(C, named_load("cospi"), spec)
    assert rep.err_strain_inf <= rep.bound_rhs
    assert rep.trunc_star <= rep.trunc_bound
    assert rep.trunc_star <= 0.5 * lp_norm(det.t, spec.eps, 1) + 1e-15
    # even load -> even solutions and even error field
    u_a, u_q = det.u_a, det.u_qcf
    for u in (u_a, u_q):
        assert_allclose(u.values, u.values[::-1], atol=1e-11 * np.max(np.abs(u.values)))
    e = u_a.restrict(-32, 32) - u_q
    assert_allclose(e.values, e.values[::-1], atol=1e-9 * max(np.max(np.abs(e.values)), 1e-30))


def test_error_report_requires_stability_regime():
    spec = DomainSpec(16, 4, M=64)
    with pytest.raises(ValueError, match="stability regime"):
        error_report_detailed(Coefficients(1.0, -0.2), named_load("cospi"), spec)


def test_constant_load_hits_rounding_floor():
    # a constant load makes the reference solution a sampled parabola in
    # the computational window, so the fourth differences vanish and the
    # coupled solve reproduces it to rounding
    spec = DomainSpec(32, 8, M=128)
    rep, _ = error_report_detailed(C, named_load("const"), spec)
    assert rep.err_strain_inf <= 1e-9
    assert rep.trunc_star <= 1e-9


def test_force_field_interface():
    f = named_load("zero")
    s = f.sample(8, 0.125)
    assert np.all(s.values == 0.0)
    with pytest.raises(ValueError):
        named_load("nope")
    stored = ForceField.from_samples(Field(np.arange(17.0), -8))
    assert stored.sample(4, 0.125).at(0) == 8.0
    with pytest.raises(ValueError):
        stored.sample(16, 0.125)
    with pytest.raises(ValueError):
        ForceField().sample(4, 0.125)
