import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcf1d import scans, stability
from qcf1d.lattice import DomainSpec
from qcf1d.potentials import Coefficients
from qcf1d.scans import PatchTestRow, _eig_point, coercivity_scan, loglog_slope, write_table

from oracles import DIFFERENTIAL_PHI2F, lqcf_dense

EIG_GRID = [
    (n, k)
    for n in (4, 8, 17, 64)
    for k in sorted({2, n // 4, n // 2})
    if 2 <= k <= n // 2
]


@pytest.mark.parametrize("n,k", EIG_GRID)
@pytest.mark.parametrize("phi2F", sorted({-0.49, -0.2, -0.05, 0.3, 0.7, *DIFFERENTIAL_PHI2F}))
def test_eig_point_matches_full_interior_block(phi2F, n, k):
    # the two reflection blocks against one dense eigensolve of the
    # interior block of the loop-assembled oracle
    c = Coefficients(1.0, phi2F)
    interior = lqcf_dense(c, DomainSpec(n, k))[:, 1:-1]
    flip = np.eye(2 * n - 1)[::-1]
    assert np.array_equal(interior @ flip, flip @ interior)  # the symmetry the blocks rest on
    ev = np.linalg.eigvals(interior)
    row = _eig_point(c, n, k)
    assert (row.N, row.K) == (n, k)
    assert row.n_nonpositive == np.sum(ev.real <= 0.0)
    assert_allclose(row.min_real, ev.real.min(), rtol=1e-10)
    scale = np.abs(ev).max()  # rounding of an eigensolve is relative to the spectral radius
    assert abs(row.max_imag_abs - np.abs(ev.imag).max()) <= 1e-10 * scale


@pytest.mark.parametrize("phi2F", [-0.2, 0.3])
def test_coercivity_point_evaluates_each_candidate_once(phi2F, monkeypatch):
    # the two spike candidates give the witness and, through it, the
    # shift search of rayleigh_min, which finds the same shift without it
    c = Coefficients(1.0, phi2F)
    form = stability.quadratic_form
    calls = []

    def counted(*args):
        calls.append(args[1])
        return form(*args)

    for module in (scans, stability):
        monkeypatch.setattr(module, "quadratic_form", counted)
    for n, k in ((64, 16), (257, 64), (1024, 256)):
        spec = DomainSpec(n, k)
        calls.clear()
        [row] = coercivity_scan(c, [(n, k)])
        assert calls == [spec, spec]
        assert row.rayleigh_min == stability.rayleigh_min(c, spec)
        sigma = stability._shift_below_spectrum(c, spec, row.witness_value)[0]
        assert sigma == stability._shift_below_spectrum(c, spec)[0]


def test_loglog_slope_matches_least_squares_fit():
    # ladders as the sweeps take them: a power law with noise
    rng = np.random.default_rng(5)
    for size, power in ((2, 0.5), (3, -2.0), (7, 1.0), (40, -0.25)):
        xs = 16.0 * 2.0 ** np.arange(size)
        ys = xs**power * rng.uniform(0.5, 2.0, size)
        fit = np.polyfit(np.log(xs), np.log(ys), 1)[0]
        assert_allclose(loglog_slope(xs, ys), fit, rtol=1e-12, atol=1e-12)
    assert loglog_slope([2.0, 4.0, 8.0], [3.0, 12.0, 48.0]) == pytest.approx(2.0, rel=1e-14)
    assert np.isnan(loglog_slope([16, 16], [1.0, 2.0]))  # no spread in x: no slope
    with pytest.raises(ValueError, match="two points"):
        loglog_slope([1.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        loglog_slope([1.0, 2.0], [1.0, 0.0])


def test_csv_table_bytes(tmp_path):
    rows = [PatchTestRow(0.9, 16, 2, 1.5e-14, 2e-13, True), PatchTestRow(1.1, 16, 8, 0.25, 2e-13, False)]
    out = tmp_path / "t.csv"
    write_table(out, "csv", "patch-test", {"N_list": [16], "F_list": [0.9, 1.1]}, rows, {"all_passed": False})
    assert out.read_text() == (
        "# qcf1d patch-test\n"
        "# F_list=[0.9, 1.1]\n"
        "# N_list=[16]\n"
        "# all_passed=0\n"
        "F,N,K,residual,tolerance,passed\n"
        "0.9,16,2,1.5e-14,2e-13,1\n"
        "1.1,16,8,0.25,2e-13,0\n"
    )
    write_table(out, "csv", "eig-scan", {}, [])
    assert out.read_text() == "# qcf1d eig-scan\n\n"
