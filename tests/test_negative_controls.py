"""Negative controls: a method that breaks one of the paper's claims must fail that claim's check.

Each control swaps a broken method into the library for one CLI run and
expects the run to exit 1.  A check that no wrong method can fail
proves nothing.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from qcf1d import chain, cli, operators, stability
from qcf1d.chain import force_atomistic, force_lqc
from qcf1d.lattice import DomainSpec, uniform_positions
from qcf1d.potentials import lj_deriv1

from oracles import energy_atomistic_loop, energy_lqc_loop, energy_qce_loop, fd_gradient, force_qce, lj_energy


def run(argv, out):
    return cli.main([*map(str, argv), "--out", str(out)])


def test_force_qce_is_minus_the_gradient_of_the_qce_energy():
    phi, n = lj_deriv1, 16
    eps = 1.0 / n
    y = uniform_positions(1.0, n, eps) + 1e-3 * np.sin(np.arange(2 * n + 1))
    spec = DomainSpec(n, 4)
    fd = -fd_gradient(lambda v: energy_qce_loop(v, spec, lj_energy), y)[1:-1] / eps
    f = force_qce(y, spec, phi)
    assert np.max(np.abs(f - fd)) <= 1e-6 * np.max(np.abs(f))
    # every site atomistic, or none: the energies and forces of the two pure laws
    for k, energy, force in ((n, energy_atomistic_loop, force_atomistic), (-1, energy_lqc_loop, force_lqc)):
        whole = SimpleNamespace(N=n, K=k, eps=eps)
        assert energy_qce_loop(y, whole, lj_energy) == pytest.approx(energy(y, lj_energy, eps), rel=1e-14)
        np.testing.assert_allclose(force_qce(y, whole, phi), force(y, phi, eps), rtol=0, atol=1e-12)


def max_abs_force_qce(y, ks, phi):
    n = len(y) // 2
    return np.array([np.max(np.abs(force_qce(y, DomainSpec(n, k), phi))) for k in ks])


def test_ghost_forces_fail_the_patch_test(tmp_path, monkeypatch):
    # QCE's residual at a uniform state is phi'(2F) / (2 eps) at the interface
    phi, n = lj_deriv1, 16
    for F in (0.9, 1.0, 1.1):
        ghost = max_abs_force_qce(uniform_positions(F, n, 1.0 / n), [4], phi)[0]
        assert ghost == pytest.approx(abs(float(phi(2.0 * F))) * n / 2.0, rel=1e-12)
    monkeypatch.setattr(chain, "max_abs_force_qcf", max_abs_force_qce)
    out = tmp_path / "patch.csv"
    assert run(["patch-test", "--N-list", "16,32", "--K-all"], out) == 1
    assert "# all_passed=0" in out.read_text().splitlines()


@pytest.fixture
def no_interface(monkeypatch):
    """The strain stencil without its interface terms, in every kernel of the stability claims."""
    # the original, bound before the patch: interface_free would otherwise call itself
    strain_stencil = operators.strain_stencil

    def interface_free(n, k):
        s = strain_stencil(n, k)
        return operators.StrainStencil(s.band, s.diag, ())

    # cli imports strain_stencil from operators when a subcommand runs
    for module in (stability, operators):
        monkeypatch.setattr(module, "strain_stencil", interface_free)


def test_no_interface_fails_the_infsup_check(tmp_path, no_interface):
    # the exact 2-norm value stays put while the p=2 probe bound decays
    argv = ["infsup", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "64,128,256,512,1024"]
    assert run(argv, tmp_path / "infsup.csv") == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="coercivity checks only rayleigh_min <= witness, which the interface-free "
                   "stencil keeps; ROADMAP item 1's two-sided enclosure is the check it must fail")
def test_no_interface_fails_the_coercivity_check(tmp_path, no_interface):
    # rayleigh_min is 1/6 at every N: the form stays coercive, with no sqrt(N) loss
    out = tmp_path / "coercivity.csv"
    code = run(["coercivity", "--phiF", "1", "--phi2F", "-0.2", "--N-list", "256,512,1024,2048"], out)
    out.read_text()  # a run that never wrote its table raises here, which is no expected failure
    assert code == 1
