import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_max_ulp

from qcf1d.chain import force_atomistic, force_lqc
from qcf1d.lattice import DomainSpec, diff, lp_norm, uniform_positions
from qcf1d.cli import RunConfig, cmd_dump_operator
from qcf1d.operators import BorderedSolve, _reduce, _substitute, multiply, norm_bound, strain_stencil
from qcf1d.potentials import Coefficients, lj_deriv1

from oracles import (
    DIFFERENTIAL_NK,
    DIFFERENTIAL_PHI2F,
    bonds,
    dense,
    dump_entries,
    ea_dense,
    eqcf_dense,
    fd_jacobian,
    force_qcf,
    interface_probe,
    l2_decomposition,
    l2_dense,
    la_dense,
    lj_coefficients,
    llqc_dense,
    lqcf_dense,
    operator_dense,
    pair_dense,
)

LJ = lj_deriv1
C = Coefficients(1.0, -0.05)
RNG = np.random.default_rng(7)


def random_pair(n, rng=RNG):
    v = rng.standard_normal(2 * n + 1)
    w = rng.standard_normal(2 * n + 1)
    w[0] = 0.0
    w[-1] = 0.0
    return v, w


def weak_form_gap(E, L, v, w, eps):
    """Defect of <E Dv, Dw> = <L v, w> and its natural magnitude, for dense E and L."""
    dv, dw = diff(v, eps), diff(w, eps)
    lhs = eps * float((E @ dv) @ dw)
    rhs = pair_dense(L, v, w, eps)
    scale = lp_norm(E @ dv, eps, 2) * lp_norm(dw, eps, 2) + lp_norm(L @ v, eps, 2) * lp_norm(w, eps, 2)
    return abs(lhs - rhs), scale


def test_la_stencils():
    m = 6
    eps = 1.0 / m
    a = operator_dense("La", C, m)  # row i at offset i + 5, column j at offset j + 6
    assert a.shape == (11, 13)
    s = 1.0 / eps**2
    assert_allclose(a[5, 6], (2 * C.phiF + 2 * C.phi2F) * s)
    assert_allclose(a[5, 7], -C.phiF * s)
    assert_allclose(a[5, 8], -C.phi2F * s)
    # first row: one-sided next-nearest stencil with 4 nonzeros
    assert_allclose(a[0, 1], (2 * C.phiF + C.phi2F) * s)
    assert_allclose(a[0, 3], -C.phi2F * s)
    assert np.count_nonzero(a[0]) == 4


def test_la_interior_rows_annihilate_affine():
    m = 8
    eps = 1.0 / 8
    A = operator_dense("La", C, m)
    j = np.arange(-m, m + 1)
    out = A @ (0.7 + 1.3 * j * eps)
    # interior rows only: the one-sided boundary stencil is a first
    # difference in the next-nearest direction and keeps a slope term
    assert np.max(np.abs(out[1:-1])) <= 1e-10 / eps**2
    assert np.max(np.abs(A @ np.full(2 * m + 1, 0.7))) <= 1e-10 / eps**2


def test_llqc_stencil_readoff():
    n = 8
    eps = 1.0 / n
    A = operator_dense("Llqc", C, n)
    out = A @ np.eye(2 * n + 1)[n]  # row j at offset j + n - 1
    assert_allclose(out[n - 1], 2.0 * (C.phiF + 4.0 * C.phi2F) / eps**2)
    assert_allclose(out[n], -(C.phiF + 4.0 * C.phi2F) / eps**2)
    affine = 1.0 + 2.0 * np.arange(-n, n + 1) * eps
    assert np.max(np.abs(A @ affine)) <= 1e-10 / eps**2


def test_lqcf_row_dispatch_is_exact():
    spec = DomainSpec(16, 4)
    Lq = operator_dense("Lqcf", C, spec.N, spec.K)
    La = operator_dense("La", C, 16)
    Ll = operator_dense("Llqc", C, 16)
    for j in range(-15, 16):
        i = j + 15
        if abs(j) <= 4:
            assert np.array_equal(Lq[i], La[i])
        else:
            assert np.array_equal(Lq[i], Ll[i])


def test_lqcf_affine_kernel():
    spec = DomainSpec(16, 4)
    Lq = operator_dense("Lqcf", C, spec.N, spec.K)
    j = np.arange(-16, 17)
    assert np.max(np.abs(Lq @ (-0.3 + 0.9 * j * spec.eps))) <= 1e-10 / spec.eps**2


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_lqcf_affine_kernel_property(a, b):
    spec = DomainSpec(8, 2)
    Lq = operator_dense("Lqcf", C, spec.N, spec.K)
    j = np.arange(-8, 9)
    scale = max(1.0, abs(a) + abs(b))
    assert np.max(np.abs(Lq @ (a + b * j * spec.eps))) <= 1e-10 * scale / spec.eps**2


def test_lqcf_is_not_symmetric():
    spec = DomainSpec(16, 4)
    Li = operator_dense("Lqcf", C, spec.N, spec.K)[:, 1:-1]
    assert np.max(np.abs(Li - Li.T)) > 1e-3 * np.max(np.abs(Li))


def test_lqcf_splits_into_l1_and_l2():
    spec = DomainSpec(12, 3)
    Lq = operator_dense("Lqcf", C, spec.N, spec.K)
    L1 = llqc_dense(Coefficients(1.0, 0.0), 12, spec.eps)
    L2 = l2_dense(spec)
    assert_allclose(Lq, C.phiF * L1 + C.phi2F * L2, rtol=1e-14, atol=1e-9)


def test_bandwidth_and_sparsity():
    spec = DomainSpec(16, 4)
    row, col = np.nonzero(operator_dense("Lqcf", C, spec.N, spec.K))  # atoms row - 15 and col - 16
    assert np.max(np.abs((row - 15) - (col - 16))) <= 2
    Eq = operator_dense("Eqcf", C, spec.N, spec.K)
    counts = (Eq != 0.0).sum(axis=1)
    assert counts.max() <= 4
    # atomistic band rows are symmetric tridiagonal
    off = 15  # bond j at offset j + off
    band = Eq[-4 + off : 5 + off + 1, :]
    for local, i in enumerate(range(-4 + off, 5 + off + 1)):
        row = band[local]
        nz = np.nonzero(row)[0]
        assert set(nz) <= {i - 1, i, i + 1}
    sub = Eq[-4 + off : 5 + off + 1, -4 + off : 5 + off + 1]
    assert np.array_equal(sub, sub.T)


def test_ea_structure():
    m = 5
    E = operator_dense("Ea", C, m)
    B = (E - C.phiF * np.eye(2 * m)) / C.phi2F
    assert_allclose(B[0], [1, 1, 0, 0, 0, 0, 0, 0, 0, 0], atol=1e-14)
    assert_allclose(B[1], [1, 2, 1, 0, 0, 0, 0, 0, 0, 0], atol=1e-14)
    assert_allclose(B[-1], [0, 0, 0, 0, 0, 0, 0, 0, 1, 1], atol=1e-14)
    assert np.array_equal(E, E.T)


def test_weak_form_identity_ea():
    m = 8
    eps = 1.0 / m
    E = operator_dense("Ea", C, m)
    L = la_dense(C, m, eps)
    for _ in range(20):
        v, w = random_pair(m)
        gap, scale = weak_form_gap(E, L, v, w, eps)
        assert gap <= 1e-12 * scale


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_weak_form_identity_eqcf_all_k(n):
    eps = 1.0 / n
    for k in range(2, n // 2 + 1):
        spec = DomainSpec(n, k)
        E = operator_dense("Eqcf", C, spec.N, spec.K)
        L = lqcf_dense(C, spec)
        for _ in range(5):
            v, w = random_pair(n)
            gap, scale = weak_form_gap(E, L, v, w, eps)
            assert gap <= 1e-12 * scale


def test_eqcf_image_of_interface_probe():
    # the probe with alpha = (phiF + 5 phi2F)/(2 phi2F) maps to the
    # displayed piecewise values; with phiF = phi2F = 1, alpha = 3
    c = Coefficients(1.0, 1.0)
    spec = DomainSpec(8, 2)
    xi = interface_probe(c, spec)
    out = operator_dense("Eqcf", c, spec.N, spec.K) @ xi
    alpha = 3.0
    for j in range(-7, 9):
        if j <= -3:
            expected = -c.phiF + c.phi2F * (-5.0 + 2.0 * alpha)
        elif j == -2:
            expected = -alpha * c.phiF + c.phi2F * (-1.0 - 2.0 * alpha)
        elif j == -1:
            expected = -alpha * c.phi2F
        elif j <= 1:
            expected = 0.0
        elif j == 2:
            expected = alpha * c.phi2F
        elif j == 3:
            expected = alpha * c.phiF + c.phi2F * (1.0 + 2.0 * alpha)
        else:
            expected = c.phiF + c.phi2F * (5.0 - 2.0 * alpha)
        assert_allclose(out[j + 7], expected, atol=1e-13)  # bond j at offset j + N - 1


def test_eqcf_interface_row_entries():
    c = Coefficients(1.0, 1.0)
    spec = DomainSpec(8, 2)
    E = operator_dense("Eqcf", c, spec.N, spec.K)
    k, off = 2, 7  # bond j at offset j + N - 1
    assert_allclose(E[k + 2 + off, k + off : k + 3 + off], [c.phi2F, -2.0 * c.phi2F, c.phiF + 5.0 * c.phi2F])
    assert_allclose(E[-k - 1 + off, -k - 1 + off : -k + 2 + off], [c.phiF + 5.0 * c.phi2F, -2.0 * c.phi2F, c.phi2F])


def jacobian_of(force, n, eps, f=1.05):
    y = uniform_positions(f, n, eps)
    return fd_jacobian(force, y)


@pytest.mark.parametrize(
    "assemble,force_name",
    [
        (lambda c, n, k: operator_dense("La", c, n), "atomistic"),
        (lambda c, n, k: operator_dense("Llqc", c, n), "lqc"),
        (lambda c, n, k: operator_dense("Lqcf", c, n, k), "qcf"),
    ],
)
def test_operators_linearize_their_force_fields(assemble, force_name):
    n = 16
    eps = 1.0 / n
    F = 1.05
    spec = DomainSpec(n, 4)
    c = lj_coefficients(F)
    forces = {
        "atomistic": lambda y: force_atomistic(y, LJ, eps),
        "lqc": lambda y: force_lqc(y, LJ, eps),
        "qcf": lambda y: force_qcf(y, spec, LJ),
    }
    J = jacobian_of(forces[force_name], n, eps, F)
    L = assemble(c, n, spec.K)
    # linearizing the equilibrium equations gives L = -dF/dy exactly
    scaled = eps**2 * L
    gap = np.max(np.abs(scaled - (-(eps**2) * J)))
    assert gap <= 1e-6 * np.max(np.abs(scaled))


def test_l2_decomposition_reconstructs_direct_pairing():
    spec = DomainSpec(32, 8)
    L2 = l2_dense(spec)
    for _ in range(30):
        v, w = random_pair(32)
        direct = pair_dense(L2, v, w, spec.eps)
        parts = l2_decomposition(v, w, spec)
        assert abs(sum(parts) - direct) <= 1e-12 * max(abs(direct), sum(abs(p) for p in parts), 1.0)


def test_l2_decomposition_affine_trial():
    spec = DomainSpec(16, 4)
    j = np.arange(-16, 17)
    v = 0.4 - 1.1 * j * spec.eps
    _, w = random_pair(16)
    reg, li, ri = l2_decomposition(v, w, spec)
    dw_scale = np.abs(np.diff(w)).sum() / spec.eps
    assert abs(li) <= 1e-12 * dw_scale
    assert abs(ri) <= 1e-12 * dw_scale
    assert abs(reg) <= 1e-11 * dw_scale


def test_l2_decomposition_interface_terms_vanish_away_from_interface():
    spec = DomainSpec(16, 4)
    v, w = random_pair(16)
    w_vals = w.copy()
    w_vals[4 + 16] = 0.0
    w_vals[-4 + 16] = 0.0
    _, li, ri = l2_decomposition(v, w_vals, spec)
    assert li == 0.0
    assert ri == 0.0


def test_l2_decomposition_requires_homogeneous_test_field():
    spec = DomainSpec(8, 2)
    v, _ = random_pair(8)
    bad = np.ones(17)
    with pytest.raises(ValueError):
        l2_decomposition(v, bad, spec)


def dumped(name, c, n, k):
    """The rows dump-operator writes for operator name, as (row, col, value) arrays."""
    table, _, _ = cmd_dump_operator(RunConfig("dump-operator", operator=name, N=n, K=k, phiF=c.phiF, phi2F=c.phi2F))
    return (np.asarray(table.row, dtype=np.int64), np.asarray(table.col, dtype=np.int64),
            np.asarray(table.value, dtype=float))


def test_dense_oracle_rejects_entries_outside_its_ranges():
    rows, cols = range(-1, 1), range(-2, 1)
    assert_allclose(dense(([-1, 0], [0, -2], [0.5, 2.0]), rows, cols), [[0.0, 0.0, 0.5], [2.0, 0.0, 0.0]])
    assert np.array_equal(dense(([], [], []), rows, cols), np.zeros((2, 3)))
    # a negative offset would wrap to the last row or column in numpy
    for row, col in (([1], [0]), ([-2], [0]), ([0], [1]), ([0], [-3])):
        with pytest.raises(ValueError, match="outside"):
            dense((row, col, [1.0]), rows, cols)
    with pytest.raises(ValueError, match="twice"):
        dense(([0, 0], [-1, -1], [1.0, 2.0]), rows, cols)


def test_every_dump_is_row_major_without_duplicates_or_zeros():
    # the stencil lists one entry per position, exact zeros included: every
    # next-nearest entry at phi2F = 0, and the interface diagonal
    # phiF + 5*phi2F of E at phi2F = -0.2
    for name in ("Ea", "Eqcf"):
        for phiF, phi2F in [(1.0, 0.0), (1.0, -0.2), (1.0, -0.25), (2.5, 0.3)]:
            for n, k in [(4, 2), (8, 2), (16, 7)]:
                case = (name, phiF, phi2F, n, k)
                c = Coefficients(phiF, phi2F)
                row, col, value = dumped(name, c, n, k)
                key = (row + n - 1) * 2 * n + (col + n - 1)  # bond j at offset j + n - 1
                assert np.all(np.diff(key) > 0), case  # row-major, each position once
                assert np.all(value != 0.0), case
                listed = dump_entries(name, c, n, k)[2]
                assert row.size == np.count_nonzero(listed), case
                assert row.size < listed.size or phi2F != 0.0, case


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK)
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F)
def test_sparse_assembly_matches_dense_oracles(phi2F, n, k):
    c = Coefficients(1.0, phi2F)
    spec = DomainSpec(n, k)
    eps = spec.eps
    # the conjugates of the library's stencil, built in the test
    conjugates = {"La": la_dense(c, n, eps), "Llqc": llqc_dense(c, n, eps), "Lqcf": lqcf_dense(c, spec)}
    for name, expected in conjugates.items():
        got = operator_dense(name, c, n, k)
        assert got.shape == expected.shape
        assert_array_max_ulp(got, expected, maxulp=1)
    for name, expected in (("Ea", ea_dense(c, n)), ("Eqcf", eqcf_dense(c, spec))):
        row, col, value = dumped(name, c, n, k)
        got = dense((row, col, value), bonds(n), bonds(n))
        assert got.shape == expected.shape
        assert_array_max_ulp(got, expected, maxulp=1)
        # stored pattern = nonzero pattern, read row-major
        nz_rows, nz_cols = np.nonzero(expected)
        assert np.array_equal(row, nz_rows - n + 1) and np.array_equal(col, nz_cols - n + 1)


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK)
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F)
def test_strain_stencil_bands_match_dense_oracles(phi2F, n, k):
    # the factors the strain solver reads: T' + L^T R is E, E^T or sym(E)
    c = Coefficients(1.0, phi2F)
    w = np.random.default_rng(n + k).standard_normal(2 * n)
    for band, expected in ((n - 1, ea_dense(c, n)), (k, eqcf_dense(c, DomainSpec(n, k)))):
        s = strain_stencil(n, band)
        for form, dense_form in (("E", expected), ("E^T", expected.T), ("sym", 0.5 * (expected + expected.T))):
            (lower, diag, upper), left, right = s.split(c, form)
            assert lower[0] == upper[-1] == 0.0
            assert left.shape == right.shape and left.shape[1] == 2 * n
            assert (left.shape[0] == 0) == (phi2F == 0.0 or not s.interfaces)  # phi2F = 0: no low-rank rows
            E = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1) + left.T @ right
            assert_allclose(E, dense_form, rtol=0, atol=1e-15)
            assert_allclose(multiply((lower, diag, upper), left, right, w), dense_form @ w, rtol=0,
                            atol=1e-14 * np.max(np.abs(w)))
            if form != "sym":  # the factor keeps the T' + L^T R it solves with
                solve = s.factor(c, form)
                assert_allclose(multiply(solve.tridiagonal, solve.left, solve.right, w), dense_form @ w,
                                rtol=0, atol=1e-14 * np.max(np.abs(w)))
        # entries: one per position, diagonal first, exactly the oracle's values
        row, col, value = s.entries(c)
        assert np.array_equal(row[:2 * n], np.arange(2 * n)) and np.array_equal(col[:2 * n], np.arange(2 * n))
        assert np.unique(row * 2 * n + col).size == row.size
        E = np.zeros_like(expected)
        E[row, col] = value
        assert np.array_equal(E, expected)
        assert_allclose(np.linalg.norm(value), np.linalg.norm(expected), rtol=1e-14)


@pytest.mark.parametrize("phiF", [1.0, 0.3])
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F + [-1.7])
@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (8, 4), (16, 7)] + DIFFERENTIAL_NK)
def test_frobenius_norm_matches_listed_entries(phiF, phi2F, n, k):
    # the split and the listed entries carry the same E in the Frobenius
    # norm, for E, E^T and sym(E) of the coupled stencil and the atomistic
    # one (k = n-1: no interface), at phiF != 1 and on far fields one row
    # wide (n=4, k=2), where the kink meets the diagonal only
    c = Coefficients(phiF, phi2F)
    for band, E in ((k, eqcf_dense(c, DomainSpec(n, k))), (n - 1, ea_dense(c, n))):
        s = strain_stencil(n, band)
        assert_allclose(np.linalg.norm(s.entries(c)[2]), np.linalg.norm(E), rtol=1e-14)
        for form, expected in (("E", E), ("E^T", E.T), ("sym", 0.5 * (E + E.T))):
            (lower, diag, upper), left, right = s.split(c, form)
            split = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1) + left.T @ right
            assert np.linalg.norm(split - expected) <= 1e-14 * np.linalg.norm(expected)


@pytest.mark.parametrize("phiF", [1.0, 0.3])
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F + [-1.7, -0.25 + 1e-6])
@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (8, 4), (16, 7)] + DIFFERENTIAL_NK)
def test_norm_bound_matches_listed_entries(phiF, phi2F, n, k):
    # from the split alone, for E, E^T and sym(E) of the coupled stencil and
    # the atomistic one (k = n-1: no interface); a far field one row wide
    # (n=4, k=2) meets the kink on its diagonal only, and phi2F = -0.25 + 1e-6
    # takes phiF + 4*phi2F to 0 at phiF = 1
    c = Coefficients(phiF, phi2F)
    for band, E in ((k, eqcf_dense(c, DomainSpec(n, k))), (n - 1, ea_dense(c, n))):
        s = strain_stencil(n, band)
        for form, expected in (("E", E), ("E^T", E.T), ("sym", 0.5 * (E + E.T))):
            (lower, diag, upper), left, right = s.split(c, form)
            T = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
            rows = np.abs(T).sum(axis=1) + (np.abs(left).T @ np.abs(right)).sum(axis=1)
            bound = norm_bound((lower, diag, upper), left, right)
            assert_allclose(bound, np.max(rows), rtol=1e-14)
            assert bound >= np.linalg.norm(expected, np.inf) * (1.0 - 1e-14)


def test_substitution_frees_even_rows_on_the_way_up():
    # 5 right-hand sides at n=2^16: freeing each level's even rows once
    # the way back up has used them, and solving the even unknowns in
    # place in the level's solution, peaks at 2.5 times their bytes; a
    # zero-padded copy of each level's odd unknowns peaks at 4.0, and
    # keeping every level's even rows to the end at 5.0
    n = 2**16
    rng = np.random.default_rng(3)
    lower, upper = rng.uniform(-1.0, 1.0, (2, n))
    diag = 3.0 + rng.uniform(0.0, 1.0, n)
    reduction = _reduce(lower, diag, upper)
    rhs = rng.standard_normal((5, n))
    tracemalloc.start()
    try:
        x = _substitute(reduction, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * rhs.nbytes, peak / rhs.nbytes
    tx = diag * x
    tx[:, 1:] += lower[1:] * x[:, :-1]
    tx[:, :-1] += upper[:-1] * x[:, 1:]
    assert_allclose(tx, rhs, rtol=0, atol=1e-12 * np.max(np.abs(rhs)))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 1001])
def test_substitution_leaves_the_right_hand_sides_unchanged(n):
    # at an odd size the first level's even rows are views of rhs itself,
    # so the even unknowns must not be solved for in them
    rng = np.random.default_rng(n)
    lower, upper = rng.uniform(-1.0, 1.0, (2, n))
    diag = 3.0 + rng.uniform(0.0, 1.0, n)
    rhs = rng.standard_normal((3, n))
    given = rhs.copy()
    x = _substitute(_reduce(lower, diag, upper), rhs)
    assert np.array_equal(rhs, given)
    tx = diag * x
    tx[:, 1:] += lower[1:] * x[:, :-1]
    tx[:, :-1] += upper[:-1] * x[:, 1:]
    assert_allclose(tx, rhs, rtol=0, atol=1e-12 * np.max(np.abs(rhs)))


@pytest.mark.parametrize("form", ["E", "E^T", "sym"])
@pytest.mark.parametrize("phi2F", [-0.2, 0.3])
@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (64, 2), (64, 32)])
def test_bordered_solve_absorbs_constants_and_returns_its_weighted_sum(n, k, phi2F, form):
    # the Lanczos operators of the stability kernels apply these solves to
    # vectors with no mean removed: a constant t in b only moves const by -t,
    # and x carries the prescribed sum d (solve_strain passes delta_u / eps);
    # sym(E) is shifted below its Gershgorin bound, as rayleigh_min shifts it
    c = Coefficients(1.0, phi2F)
    (lower, diag, upper), left, right = strain_stencil(n, k).split(c, form)
    if form == "sym":
        diag = diag - (np.min(diag - np.abs(lower) - np.abs(upper)) - 1.0)
    solve = BorderedSolve((lower, diag, upper), left, right, "bordered solve", 1.0)
    rng = np.random.default_rng(n + k)
    b, (t, d) = rng.standard_normal(2 * n), rng.standard_normal(2)
    x, const = solve.solve(b, d)
    x_t, const_t = solve.solve(b + t, d)
    assert_allclose(x_t, x, rtol=0, atol=1e-13 * np.max(np.abs(x)))
    assert_allclose(const_t, const - t, rtol=0, atol=1e-13 * max(abs(const), abs(t)))
    for v, e in ((x, d), (x_t, d), (solve.solve(b + t)[0], 0.0)):
        # to the rounding bound of a sum of 2n terms: measured up to 28 u here
        assert abs(np.sum(v) - e) <= 2 * n * 2.0**-53 * (np.sum(np.abs(v)) + abs(e))
