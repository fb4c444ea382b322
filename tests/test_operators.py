import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_max_ulp

from qcf1d.chain import force_atomistic, force_lqc, force_qcf
from qcf1d.lattice import DomainSpec, Field, diff, inner, uniform_positions
from qcf1d.operators import (
    assemble_ea,
    assemble_eqcf,
    assemble_l1,
    assemble_l2,
    assemble_la,
    assemble_llqc,
    assemble_lqcf,
    l2_decomposition,
    pair_with_test,
    strain_stencil,
)
from qcf1d.potentials import Coefficients, lennard_jones

from oracles import (
    DIFFERENTIAL_NK,
    DIFFERENTIAL_PHI2F,
    ea_dense,
    eqcf_dense,
    fd_jacobian,
    l2_dense,
    la_dense,
    llqc_dense,
    lqcf_dense,
)

LJ = lennard_jones()
C = Coefficients(1.0, -0.05)
RNG = np.random.default_rng(7)


def random_pair(n, rng=RNG):
    v = Field(rng.standard_normal(2 * n + 1), -n)
    w_vals = rng.standard_normal(2 * n + 1)
    w_vals[0] = 0.0
    w_vals[-1] = 0.0
    return v, Field(w_vals, -n)


def weak_form_gap(E, L, v, w, eps):
    """Defect of <E Dv, Dw> = <L v, w> and its natural magnitude."""
    dv, dw = diff(v, eps), diff(w, eps)
    lhs = inner(E.apply(dv), dw, eps)
    rhs = pair_with_test(L, v, w, eps)
    from qcf1d.lattice import lp_norm

    scale = lp_norm(E.apply(dv), eps, 2) * lp_norm(dw, eps, 2) + lp_norm(
        L.apply(v), eps, 2
    ) * lp_norm(w, eps, 2)
    return abs(lhs - rhs), scale


def test_la_stencils():
    m = 6
    eps = 0.125
    A = assemble_la(C, m, eps)
    assert (A.row_lo, A.row_hi, A.col_lo, A.col_hi) == (-5, 5, -6, 6)
    s = 1.0 / eps**2
    assert_allclose(A.at(0, 0), (2 * C.phiF + 2 * C.phi2F) * s)
    assert_allclose(A.at(0, 1), -C.phiF * s)
    assert_allclose(A.at(0, 2), -C.phi2F * s)
    # first row: one-sided next-nearest stencil with 4 nonzeros
    assert_allclose(A.at(-5, -5), (2 * C.phiF + C.phi2F) * s)
    assert_allclose(A.at(-5, -3), -C.phi2F * s)
    assert np.count_nonzero(A.entries.toarray()[0]) == 4


def test_la_interior_rows_annihilate_affine():
    m = 8
    eps = 1.0 / 8
    A = assemble_la(C, m, eps)
    j = np.arange(-m, m + 1)
    v = Field(0.7 + 1.3 * j * eps, -m)
    out = A.apply(v)
    # interior rows only: the one-sided boundary stencil is a first
    # difference in the next-nearest direction and keeps a slope term
    assert np.max(np.abs(out.values[1:-1])) <= 1e-10 / eps**2
    const = Field(np.full(2 * m + 1, 0.7), -m)
    assert np.max(np.abs(A.apply(const).values)) <= 1e-10 / eps**2


def test_llqc_stencil_readoff():
    n = 8
    eps = 1.0 / n
    A = assemble_llqc(C, n, eps)
    delta = Field(np.eye(2 * n + 1)[n], -n)
    out = A.apply(delta)
    assert_allclose(out.at(0), 2.0 * (C.phiF + 4.0 * C.phi2F) / eps**2)
    assert_allclose(out.at(1), -(C.phiF + 4.0 * C.phi2F) / eps**2)
    affine = Field(1.0 + 2.0 * np.arange(-n, n + 1) * eps, -n)
    assert np.max(np.abs(A.apply(affine).values)) <= 1e-10 / eps**2


def test_lqcf_row_dispatch_is_exact():
    spec = DomainSpec(16, 4)
    Lq = assemble_lqcf(C, spec).entries.toarray()
    La = assemble_la(C, 16, spec.eps).entries.toarray()
    Ll = assemble_llqc(C, 16, spec.eps).entries.toarray()
    for j in range(-15, 16):
        i = j + 15
        if abs(j) <= 4:
            assert np.array_equal(Lq[i], La[i])
        else:
            assert np.array_equal(Lq[i], Ll[i])


def test_lqcf_affine_kernel():
    spec = DomainSpec(16, 4)
    Lq = assemble_lqcf(C, spec)
    j = np.arange(-16, 17)
    v = Field(-0.3 + 0.9 * j * spec.eps, -16)
    assert np.max(np.abs(Lq.apply(v).values)) <= 1e-10 / spec.eps**2


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_lqcf_affine_kernel_property(a, b):
    spec = DomainSpec(8, 2)
    Lq = assemble_lqcf(C, spec)
    j = np.arange(-8, 9)
    v = Field(a + b * j * spec.eps, -8)
    scale = max(1.0, abs(a) + abs(b))
    assert np.max(np.abs(Lq.apply(v).values)) <= 1e-10 * scale / spec.eps**2


def test_lqcf_is_not_symmetric():
    spec = DomainSpec(16, 4)
    Li = assemble_lqcf(C, spec).interior_block()
    assert np.max(np.abs(Li - Li.T)) > 1e-3 * np.max(np.abs(Li))


def test_lqcf_splits_into_l1_and_l2():
    spec = DomainSpec(12, 3)
    Lq = assemble_lqcf(C, spec).entries.toarray()
    L1 = assemble_l1(12, spec.eps).entries.toarray()
    L2 = assemble_l2(spec).entries.toarray()
    assert_allclose(Lq, C.phiF * L1 + C.phi2F * L2, rtol=1e-14, atol=1e-9)


def test_bandwidth_and_sparsity():
    spec = DomainSpec(16, 4)
    Lq = assemble_lqcf(C, spec)
    for i, j, _ in Lq.to_triples():
        assert abs(i - j) <= 2
    Eq = assemble_eqcf(C, spec)
    counts = (Eq.entries.toarray() != 0.0).sum(axis=1)
    assert counts.max() <= 4
    # atomistic band rows are symmetric tridiagonal
    off = 15  # bond j at offset j + off
    band = Eq.entries.toarray()[-4 + off : 5 + off + 1, :]
    for local, i in enumerate(range(-4 + off, 5 + off + 1)):
        row = band[local]
        nz = np.nonzero(row)[0]
        assert set(nz) <= {i - 1, i, i + 1}
    sub = Eq.entries.toarray()[-4 + off : 5 + off + 1, -4 + off : 5 + off + 1]
    assert np.array_equal(sub, sub.T)


def test_ea_structure():
    m = 5
    E = assemble_ea(C, m, 0.2)
    B = (E.entries.toarray() - C.phiF * np.eye(2 * m)) / C.phi2F
    assert_allclose(B[0], [1, 1, 0, 0, 0, 0, 0, 0, 0, 0], atol=1e-14)
    assert_allclose(B[1], [1, 2, 1, 0, 0, 0, 0, 0, 0, 0], atol=1e-14)
    assert_allclose(B[-1], [0, 0, 0, 0, 0, 0, 0, 0, 1, 1], atol=1e-14)
    assert np.array_equal(E.entries.toarray(), E.entries.toarray().T)


def test_weak_form_identity_ea():
    m = 8
    eps = 1.0 / m
    E = assemble_ea(C, m, eps)
    L = assemble_la(C, m, eps)
    for _ in range(20):
        v, w = random_pair(m)
        gap, scale = weak_form_gap(E, L, v, w, eps)
        assert gap <= 1e-12 * scale


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_weak_form_identity_eqcf_all_k(n):
    eps = 1.0 / n
    for k in range(2, n // 2 + 1):
        spec = DomainSpec(n, k)
        E = assemble_eqcf(C, spec)
        L = assemble_lqcf(C, spec)
        for _ in range(5):
            v, w = random_pair(n)
            gap, scale = weak_form_gap(E, L, v, w, eps)
            assert gap <= 1e-12 * scale


def test_eqcf_image_of_interface_probe():
    # the probe with alpha = (phiF + 5 phi2F)/(2 phi2F) maps to the
    # displayed piecewise values; with phiF = phi2F = 1, alpha = 3
    c = Coefficients(1.0, 1.0)
    spec = DomainSpec(8, 2)
    from qcf1d.stability import interface_probe

    xi = interface_probe(c, spec)
    out = assemble_eqcf(c, spec).apply(xi)
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
        assert_allclose(out.at(j), expected, atol=1e-13)


def test_eqcf_interface_row_entries():
    c = Coefficients(1.0, 1.0)
    spec = DomainSpec(8, 2)
    E = assemble_eqcf(c, spec)
    k = 2
    assert_allclose(
        [E.at(k + 2, k), E.at(k + 2, k + 1), E.at(k + 2, k + 2)],
        [c.phi2F, -2.0 * c.phi2F, c.phiF + 5.0 * c.phi2F],
    )
    assert_allclose(
        [E.at(-k - 1, -k - 1), E.at(-k - 1, -k), E.at(-k - 1, -k + 1)],
        [c.phiF + 5.0 * c.phi2F, -2.0 * c.phi2F, c.phi2F],
    )


def jacobian_of(force, n, eps, f=1.05):
    y = uniform_positions(f, n, eps)
    return fd_jacobian(lambda v: force(Field(v, -n)).values, y.values)


@pytest.mark.parametrize(
    "assemble,force_name",
    [
        (lambda c, n, eps, spec: assemble_la(c, n, eps), "atomistic"),
        (lambda c, n, eps, spec: assemble_llqc(c, n, eps), "lqc"),
        (lambda c, n, eps, spec: assemble_lqcf(c, spec), "qcf"),
    ],
)
def test_operators_linearize_their_force_fields(assemble, force_name):
    n = 16
    eps = 1.0 / n
    F = 1.05
    spec = DomainSpec(n, 4)
    c = Coefficients.from_potential(LJ, F)
    forces = {
        "atomistic": lambda y: force_atomistic(y, LJ, eps),
        "lqc": lambda y: force_lqc(y, LJ, eps),
        "qcf": lambda y: force_qcf(y, spec, LJ),
    }
    J = jacobian_of(forces[force_name], n, eps, F)
    L = assemble(c, n, eps, spec).entries
    # linearizing the equilibrium equations gives L = -dF/dy exactly
    scaled = eps**2 * L
    gap = np.max(np.abs(scaled - (-(eps**2) * J)))
    assert gap <= 1e-6 * np.max(np.abs(scaled))


def test_l2_decomposition_reconstructs_direct_pairing():
    spec = DomainSpec(32, 8)
    L2 = assemble_l2(spec)
    for _ in range(30):
        v, w = random_pair(32)
        direct = pair_with_test(L2, v, w, spec.eps)
        parts = l2_decomposition(v, w, spec)
        assert abs(sum(parts) - direct) <= 1e-12 * max(abs(direct), sum(abs(p) for p in parts), 1.0)


def test_l2_decomposition_affine_trial():
    spec = DomainSpec(16, 4)
    j = np.arange(-16, 17)
    v = Field(0.4 - 1.1 * j * spec.eps, -16)
    _, w = random_pair(16)
    reg, li, ri = l2_decomposition(v, w, spec)
    dw_scale = np.abs(np.diff(w.values)).sum() / spec.eps
    assert abs(li) <= 1e-12 * dw_scale
    assert abs(ri) <= 1e-12 * dw_scale
    assert abs(reg) <= 1e-11 * dw_scale


def test_l2_decomposition_interface_terms_vanish_away_from_interface():
    spec = DomainSpec(16, 4)
    v, w = random_pair(16)
    w_vals = w.values.copy()
    w_vals[4 + 16] = 0.0
    w_vals[-4 + 16] = 0.0
    _, li, ri = l2_decomposition(v, Field(w_vals, -16), spec)
    assert li == 0.0
    assert ri == 0.0


def test_l2_decomposition_requires_homogeneous_test_field():
    spec = DomainSpec(8, 2)
    v, _ = random_pair(8)
    bad = Field(np.ones(17), -8)
    with pytest.raises(ValueError):
        l2_decomposition(v, bad, spec)


def test_operator_apply_rejects_range_mismatch():
    A = assemble_la(C, 4, 0.25)
    with pytest.raises(ValueError):
        A.apply(Field(np.zeros(7), -3))


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK)
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F)
def test_sparse_assembly_matches_dense_oracles(phi2F, n, k):
    c = Coefficients(1.0, phi2F)
    spec = DomainSpec(n, k)
    eps = spec.eps
    cases = [
        (assemble_la(c, n, eps), la_dense(c, n, eps)),
        (assemble_llqc(c, n, eps), llqc_dense(c, n, eps)),
        (assemble_lqcf(c, spec), lqcf_dense(c, spec)),
        (assemble_l1(n, eps), llqc_dense(Coefficients(1.0, 0.0), n, eps)),
        (assemble_l2(spec), l2_dense(spec)),
        (assemble_ea(c, n, eps), ea_dense(c, n)),
        (assemble_eqcf(c, spec), eqcf_dense(c, spec)),
    ]
    for op, dense in cases:
        assert op.entries.shape == dense.shape
        assert_array_max_ulp(op.entries.toarray(), dense, maxulp=1)
        # stored pattern = nonzero pattern, read row-major
        rows, cols = np.nonzero(dense)
        triples = op.to_triples()
        assert [(i, j) for i, j, _ in triples] == [
            (int(r) + op.row_lo, int(c_) + op.col_lo) for r, c_ in zip(rows, cols)
        ]


@pytest.mark.parametrize("n,k", DIFFERENTIAL_NK)
@pytest.mark.parametrize("phi2F", DIFFERENTIAL_PHI2F)
def test_strain_stencil_bands_match_dense_oracles(phi2F, n, k):
    # the bands the strain solver reads: T plus the interface terms is E
    c = Coefficients(1.0, phi2F)
    w = np.random.default_rng(n + k).standard_normal(2 * n)
    for band, dense in ((n - 1, ea_dense(c, n)), (k, eqcf_dense(c, DomainSpec(n, k)))):
        s = strain_stencil(n, band)
        lower, diag, upper = s.tridiagonal(c)
        E = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        for rows, col in s.interfaces:
            E[rows, col:col + 3] += c.phi2F * np.array([1.0, -2.0, 1.0])
        assert_allclose(E, dense, rtol=0, atol=1e-15)
        assert_allclose(s.apply(c, w), dense @ w, rtol=0, atol=1e-14 * np.max(np.abs(w)))
