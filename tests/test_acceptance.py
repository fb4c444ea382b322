"""Acceptance gate: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; the test verdicts themselves are the pass/fail record.
"""

import time

import numpy as np
from numpy.testing import assert_allclose

from qcf1d.chain import force_atomistic, force_lqc, max_abs_force_qcf
from qcf1d.lattice import LOADS, DomainSpec, diff, dual_norm_star, lp_norm, uniform_positions
from qcf1d.operators import strain_stencil
from qcf1d.potentials import Coefficients, lj_deriv1
from qcf1d.scans import loglog_slope
from qcf1d.solver import error_report_detailed, sample_load, truncation_error_stencil
from qcf1d.stability import (
    infsup_2,
    infsup_p_upper,
    rayleigh_min,
    unstable_candidate,
)

from oracles import (
    continuum_sites,
    diff4_centered,
    displacement_solve,
    fd_jacobian,
    force_qcf,
    interface_probe,
    l2_decomposition,
    l2_dense,
    la_dense,
    lj_coefficients,
    lqcf_dense,
    operator_dense,
    pair_dense,
    sampled_dual_norm,
    truncation_error_dense,
)

LJ = lj_deriv1


def report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def test_c01_patch_test():
    t0 = time.monotonic()
    worst = 0.0
    for n in (16, 32, 64):
        eps = 1.0 / n
        ks = list(range(2, n // 2 + 1))
        for F in (0.9, 0.95, 1.0, 1.05, 1.1):
            residuals = max_abs_force_qcf(uniform_positions(F, n, eps), ks, LJ)
            scale = max(1.0, abs(LJ(F)) + abs(LJ(2 * F)))
            tol = 1e-13 * scale / eps
            assert np.all(residuals <= tol), (F, n, residuals, tol)
            worst = max(worst, float(np.max(residuals)))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, "patch-test", f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_c02_weak_form_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    n = m = 32
    eps = 1.0 / 32
    spec = DomainSpec(n, 8)
    c = Coefficients(1.0, -0.05)
    # the library's strain operators against the loop-assembled displacement operators
    pairs = [
        (operator_dense("Ea", c, m), la_dense(c, m, eps)),
        (operator_dense("Eqcf", c, n, spec.K), lqcf_dense(c, spec)),
    ]
    worst = 0.0
    for E, L in pairs:
        for _ in range(100):
            v = rng.standard_normal(2 * n + 1)
            w = rng.standard_normal(2 * n + 1)
            w[0] = w[-1] = 0.0
            dv, dw = diff(v, eps), diff(w, eps)
            lhs = eps * float((E @ dv) @ dw)
            rhs = pair_dense(L, v, w, eps)
            scale = (
                lp_norm(E @ dv, eps, 2) * lp_norm(dw, eps, 2)
                + lp_norm(L @ v, eps, 2) * lp_norm(w, eps, 2)
            )
            assert abs(lhs - rhs) <= 1e-12 * scale
            worst = max(worst, abs(lhs - rhs) / scale)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(2, "weak-form identities", f"max scaled gap {worst:.2e}, {elapsed:.1f}s")


def test_c03_summation_by_parts_decomposition():
    rng = np.random.default_rng(3)
    spec = DomainSpec(32, 8)
    L2 = l2_dense(spec)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(65)
        w = rng.standard_normal(65)
        w[0] = w[-1] = 0.0
        direct = pair_dense(L2, v, w, spec.eps)
        parts = l2_decomposition(v, w, spec)
        scale = max(abs(direct), sum(abs(p) for p in parts))
        assert abs(sum(parts) - direct) <= 1e-12 * scale
        worst = max(worst, abs(sum(parts) - direct) / scale)
    report(3, "summation-by-parts split", f"max relative gap {worst:.2e}")


def test_c04_jacobian_consistency():
    n = m = 32
    eps = 1.0 / 32
    F = 1.05
    spec = DomainSpec(n, 8)
    c = lj_coefficients(F)
    y = uniform_positions(F, m, eps)
    cases = {
        "atomistic": (operator_dense("La", c, m), lambda v: force_atomistic(v, LJ, eps)),
        "local": (operator_dense("Llqc", c, n), lambda v: force_lqc(v, LJ, eps)),
        "coupled": (operator_dense("Lqcf", c, n, spec.K), lambda v: force_qcf(v, spec, LJ)),
    }
    worst = 0.0
    for name, (L, force) in cases.items():
        J = fd_jacobian(force, y)
        scaled_L = eps**2 * L
        gap = np.max(np.abs(scaled_L + eps**2 * J))  # L = -dF/dy
        rel = gap / np.max(np.abs(scaled_L))
        assert rel <= 1e-6, name
        worst = max(worst, rel)
    report(4, "Jacobian consistency", f"max relative entry error {worst:.2e}")


def test_c05_noncoercivity_rate():
    t0 = time.monotonic()
    c = Coefficients(1.0, -0.2)
    values = {}
    for n in (256, 512, 1024, 2048):
        values[n] = rayleigh_min(c, DomainSpec(n, n // 4))
    for n in (512, 1024, 2048):
        assert values[n] < 0.0
    slope = loglog_slope(sorted(values), [abs(values[n]) for n in sorted(values)])
    assert abs(slope - 0.5) <= 0.1
    # exact interface identity of the '+' candidate rescaled to its plateau value 1
    spec = DomainSpec(1024, 256)
    v = unstable_candidate(spec, "+")
    v = v / v[spec.N]  # site 0
    reg, left, right = l2_decomposition(v, v, spec)
    assert_allclose(left + right, 3.0 * np.sqrt(1024), rtol=1e-10)
    direct = pair_dense(l2_dense(spec), v, v, spec.eps)
    assert_allclose(direct - reg, 3.0 * np.sqrt(1024), rtol=1e-10)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(5, "non-coercivity rate", f"slope {slope:.3f}, identity ok, {elapsed:.0f}s")


def test_c06_diagonal_dominance_margin():
    c = Coefficients(1.0, -0.05)
    closed = c.phiF + 8.0 * c.phi2F
    worst = 0.0
    for n in (16, 64, 256):
        for k in range(2, n // 2 + 1):
            g = strain_stencil(n, k).rdd_margin(c)
            assert abs(g - closed) <= 1e-14
            assert abs(0.5 * g - 0.3) <= 1e-14
            worst = max(worst, abs(g - closed))
    report(6, "diagonal-dominance margin", f"max deviation {worst:.1e}; bound 0.3 for all N")


def test_c07_infsup_decay():
    t0 = time.monotonic()
    ns = (64, 128, 256, 512, 1024)
    # rate fits use coefficients whose probe weight vanishes (alpha = 0),
    # which reach the asymptotic decay inside this window
    c_rate = Coefficients(1.0, -0.2)
    exact = {n: infsup_2(c_rate, DomainSpec(n, n // 4)) for n in ns}
    slope2 = loglog_slope(ns, [exact[n] for n in ns])
    assert abs(slope2 - (-0.5)) <= 0.1
    for p in (1.0, 2.0, 4.0):
        uppers = [infsup_p_upper(c_rate, DomainSpec(n, n // 4), p) for n in ns]
        slope = loglog_slope(ns, uppers)
        assert abs(slope - (-1.0 / p)) <= 0.1, p
    for n in ns:
        assert exact[n] <= infsup_p_upper(c_rate, DomainSpec(n, n // 4), 2) + 1e-12
    # closed form against the direct quotient, including a probe with
    # every entry type exercised
    for c in (c_rate, Coefficients(1.0, -0.05)):
        for n, k in ((64, 16), (128, 32)):
            spec = DomainSpec(n, k)
            E = operator_dense("Eqcf", c, n, k)
            xi = interface_probe(c, spec)
            for p in (1.0, 2.0, 4.0):
                direct = lp_norm(E @ xi, spec.eps, p) / lp_norm(xi, spec.eps, p)
                assert_allclose(infsup_p_upper(c, spec, p), direct, rtol=1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(7, "inf-sup decay", f"p=2 slope {slope2:.3f}, closed forms match, {elapsed:.0f}s")


def test_c08_truncation_identity():
    c = Coefficients(1.0, -0.05)
    load = LOADS["cospi"]
    # entrywise, at the standard configuration
    spec = DomainSpec(32, 8, M=128)
    u_a = displacement_solve(c, sample_load(load, 128, spec.eps), 127, spec.eps)
    t = truncation_error_dense(u_a, c, spec)
    ts = truncation_error_stencil(diff(diff(diff(u_a, spec.eps), spec.eps), spec.eps), c, spec)
    entry_tol = 1e-12 / spec.eps**2
    assert np.max(np.abs(t - ts)) <= entry_tol
    js = np.arange(-32, 33)
    assert np.max(np.abs(t[np.abs(js) <= 8])) <= entry_tol
    # norm identity, on a domain small enough that the float rounding of
    # diff4_centered on the right-hand side stays below the 1e-12 relative
    # tolerance (the direct route is exact rational): the gap is 9.8e-14
    # at N=12 and 7.6e-11 at N=64
    spec_small = DomainSpec(12, 3, M=48)
    u_small = displacement_solve(c, sample_load(load, 48, spec_small.eps), 47, spec_small.eps)
    t_small = truncation_error_dense(u_small, c, spec_small)
    d4 = diff4_centered(u_small, spec_small.eps)
    cont = continuum_sites(spec_small)
    worst = 0.0
    for p in (1, 2, np.inf):
        lhs = lp_norm(t_small, spec_small.eps, p)
        rhs = spec_small.eps**2 * abs(c.phi2F) * lp_norm(
            d4[cont + spec_small.M - 2], spec_small.eps, p  # site j at offset j + M - 2
        )
        assert_allclose(lhs, rhs, rtol=1e-12)
        worst = max(worst, abs(lhs - rhs) / rhs)
    report(8, "truncation identity", f"entrywise ok, worst norm gap {worst:.2e}")


def test_c09_convergence():
    t0 = time.monotonic()
    c = Coefficients(1.0, -0.05)
    load = LOADS["cospi"]
    errs, epss = [], []
    for n in (16, 32, 64, 128):
        spec = DomainSpec(n, n // 4, M=4 * n)
        rep, t, _ = error_report_detailed(c, load, spec)
        assert rep.err_strain_inf <= rep.bound_rhs, n
        assert rep.trunc_star <= rep.trunc_bound, n
        assert rep.trunc_star <= 0.5 * lp_norm(t, spec.eps, 1) + 1e-15, n
        errs.append(rep.err_strain_inf)
        epss.append(rep.eps)
    slope = loglog_slope(epss, errs)
    assert abs(slope - 2.0) <= 0.2
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(9, "convergence", f"slope {slope:.3f} vs eps, bounds hold, {elapsed:.1f}s")


def test_c10_stability_bound():
    c = Coefficients(1.0, -0.05)
    spec = DomainSpec(64, 16, M=256)
    gamma = c.phiF + 8.0 * c.phi2F
    rng = np.random.default_rng(10)
    worst_ratio = 0.0
    for _ in range(50):
        f_m = np.zeros(2 * 256 + 1)
        f_m[256 - 63 : 256 + 64] = rng.standard_normal(127)
        u_a = displacement_solve(c, f_m, 255, spec.eps)
        f_n = f_m[256 - 64 : 256 + 65]
        bc = u_a[[-64 + 256, 64 + 256]]
        u_q = displacement_solve(c, f_n, spec.K, spec.eps, bc)
        lhs = lp_norm(diff(u_q, spec.eps), spec.eps, np.inf)
        rhs = 2.0 * dual_norm_star(f_n, spec.eps) / gamma + abs((bc[1] - bc[0]) / (2.0 * spec.N))
        assert lhs <= rhs
        worst_ratio = max(worst_ratio, lhs / rhs)
    # dual-norm closed form against the brute-force maximization oracle
    f_imp = np.zeros(2 * 64 + 1)
    f_imp[64] = 1.0 / spec.eps
    closed = dual_norm_star(f_imp, spec.eps)
    sampled = sampled_dual_norm(f_imp, spec.eps, 100_000, np.random.default_rng(11))
    assert sampled <= closed + 1e-12
    assert (closed - sampled) / closed <= 0.01
    report(
        10,
        "stability bound",
        f"max lhs/rhs {worst_ratio:.3f}; impulse oracle gap {(closed - sampled) / closed:.2%}",
    )
