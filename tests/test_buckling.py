import functools
import math

import numpy as np
import pytest

from hcmkit import buckling, core
from hcmkit.errors import EigenFailure, NotBistable


def test_prebuckled_amplitude(pneumatic_geom):
    beta, l, A_ini = buckling._kink(pneumatic_geom)
    # A_ini = (l/pi) sin(beta): the half-sine w = A_ini*sin(pi z/l) has end slope sin(beta)
    assert abs(A_ini - 3.1983783296748824e-3) < 1e-12
    assert abs(l - 87.5e-3) < 1e-12
    assert beta == core.bistability_margin(pneumatic_geom)["beta"]


@functools.lru_cache(maxsize=None)
def _unit_eigenvalue_mp(n_grid, dps=40):
    """lam_hat and the interior mode (scaled to 1 at mid-span, where it peaks)
    of tridiag(-1, 2, -1)*x = lam_hat*diag(sin^2(pi s_i))*x by inverse
    iteration at dps digits, each step a tridiagonal (Thomas) solve."""
    import mpmath

    with mpmath.workdps(dps):
        m = n_grid - 2
        x = [mpmath.sin(mpmath.pi * (i + 1) / (n_grid - 1)) for i in range(m)]
        d = [v**2 for v in x]
        # forward elimination of tridiag(-1, 2, -1), shared by every step
        den = [mpmath.mpf(2)]
        for _ in range(m - 1):
            den.append(2 - 1 / den[-1])
        lam = None
        for _ in range(400):
            g = []
            for i in range(m):
                g.append((d[i] * x[i] + (g[-1] if i else 0)) / den[i])
            y = [g[-1]]
            for i in range(m - 2, -1, -1):
                y.append(g[i] + y[-1] / den[i])
            x = [v / y[m // 2] for v in reversed(y)]
            num = x[0] ** 2 + x[-1] ** 2 + sum((b - a) ** 2 for a, b in zip(x, x[1:]))
            new = num / sum(di * xi**2 for di, xi in zip(d, x))
            if lam is not None and abs(new - lam) < mpmath.mpf(10) ** (5 - dps) * new:
                return new, x
            lam = new
    raise AssertionError("inverse iteration did not settle")


@pytest.mark.parametrize("n_grid", [129, 257])
def test_unit_eigenvalue_matches_mpmath(n_grid):
    lam_hat, phi_hat, _ = buckling._unit_mode(n_grid)
    ref, _ = _unit_eigenvalue_mp(n_grid)
    assert abs(lam_hat / float(ref) - 1.0) <= 1e-14
    # clamped twist at both ends, single interior lobe, positive orientation
    assert phi_hat[0] == 0.0 and phi_hat[-1] == 0.0 and phi_hat.max() == 1.0
    assert np.all(phi_hat[1:-1] > 0.0)


@pytest.mark.parametrize("n_grid", [129, 257])
def test_unit_mode_matches_mpmath(n_grid):
    # the eigenvalue converges twice as fast as the mode, so this is the
    # sharper check; the LAPACK mode was 4.9e-14 / 2.4e-14 off here
    _, phi_hat, _ = buckling._unit_mode(n_grid)
    _, ref = _unit_eigenvalue_mp(n_grid)
    assert np.max(np.abs(phi_hat[1:-1] - np.array([float(v) for v in ref]))) <= 2e-15


@pytest.mark.parametrize("n_grid", [64, 4097])
def test_unit_mode_matches_lapack(n_grid):
    # the sizes the mpmath reference is too slow for: the symmetrised pencil
    # D^-1/2*T*D^-1/2 by LAPACK, whose own mode error at 4097 is about 4.5e-12
    import scipy.linalg

    lam_hat, phi_hat, _ = buckling._unit_mode(n_grid)
    d = np.sin(np.pi * np.linspace(0.0, 1.0, n_grid)[1:-1]) ** 2
    _, vecs = scipy.linalg.eigh_tridiagonal(
        2.0 / d, -1.0 / np.sqrt(d[:-1] * d[1:]), select="i", select_range=(0, 0)
    )
    ref = np.abs(vecs[:, 0]) / np.sqrt(d)
    ref /= ref.max()
    ref_lam = np.sum(np.diff(ref, prepend=0.0, append=0.0) ** 2) / np.sum(d * ref**2)
    assert abs(lam_hat / ref_lam - 1.0) <= 1e-15
    assert np.max(np.abs(phi_hat[1:-1] - ref)) <= 1e-11


def test_critical_load_reference_value(pneumatic_geom, plastic):
    # 40-digit reference: 256*sqrt(lam_hat*GJ*EI)/(l*A_ini) = 1.874648463780188619804487 N,
    # with lam_hat from _unit_eigenvalue_mp(257)
    mode = buckling.critical_load(pneumatic_geom, plastic)
    assert abs(mode.P_cr - 1.8746484637801886) < 1e-12


def test_closed_form_reference_value(pneumatic_geom, plastic):
    P = buckling.critical_load_closed_form(pneumatic_geom, plastic)
    assert abs(P - 2.311032962932434) < 1e-9
    # worked example quotes 2.29 N from rounded intermediates
    assert abs(P / 2.29 - 1.0) < 0.02


@pytest.mark.xfail(
    strict=True,
    reason="numeric eigenvalue sits 18.9% below the sinusoid-ansatz closed form "
    "(ratio 0.8112, a universal constant); the documented 15% bound is not "
    "attainable. See the decisions ledger.",
)
def test_numeric_within_15_percent_of_closed_form(pneumatic_geom, plastic):
    mode = buckling.critical_load(pneumatic_geom, plastic)
    P_cf = buckling.critical_load_closed_form(pneumatic_geom, plastic)
    assert abs(mode.P_cr / P_cf - 1.0) <= 0.15


def test_numeric_to_closed_form_ratio_is_universal(plastic):
    # P_num/P_cf = pi^2 sqrt(c0)/ (pi sqrt(2)) with c0 from a geometry-free
    # eigenproblem, so the ratio must not move across designs
    ratios = []
    for theta_deg, gamma in ((-3.0, 6.0), (10.0, 4.0), (-20.0, 2.0)):
        g = core.RibbonGeometry(
            L1=20e-3, gamma_s=gamma, theta=math.radians(theta_deg), h=12e-3, t=0.5e-3
        )
        mode = buckling.critical_load(g, plastic)
        ratios.append(mode.P_cr / buckling.critical_load_closed_form(g, plastic))
    # every design rescales the same cached unit eigenvalue, so only rounding
    # separates the ratios; 256*sqrt(lam_hat)/(pi*sqrt(2)) at 40 digits is
    # 0.8111733990161161
    assert max(ratios) - min(ratios) < 1e-13
    assert abs(ratios[0] - 0.8111733990161161) < 1e-12


def test_grid_convergence(pneumatic_geom, plastic):
    P_257 = buckling.critical_load(pneumatic_geom, plastic, n_grid=257).P_cr
    P_513 = buckling.critical_load(pneumatic_geom, plastic, n_grid=513).P_cr
    P_1025 = buckling.critical_load(pneumatic_geom, plastic, n_grid=1025).P_cr
    # second-order stencil: error shrinks ~4x per halving of dz
    assert abs(P_513 - P_1025) < abs(P_257 - P_1025)
    assert abs(P_257 / P_1025 - 1.0) < 1e-4


def test_scaling_laws(pneumatic_geom, plastic):
    # P_cr ~ sqrt(GJ*EI)/(A_ini*l) is invariant under E scaling of sqrt(E^2)=E
    mode1 = buckling.critical_load(pneumatic_geom, plastic)
    stiff = core.Material(E=plastic.E * 4.0, nu=plastic.nu, rho=plastic.rho)
    mode2 = buckling.critical_load(pneumatic_geom, stiff)
    assert abs(mode2.P_cr / mode1.P_cr - 4.0) < 1e-9


def test_monostable_raises(plastic):
    g = core.RibbonGeometry(L1=12.5e-3, gamma_s=2.0, theta=math.radians(-35.0), h=15e-3, t=0.4e-3)
    with pytest.raises(NotBistable, match="mono-stable"):
        buckling.critical_load(g, plastic)


def test_tiny_grid_rejected(pneumatic_geom, plastic):
    with pytest.raises(EigenFailure):
        buckling.critical_load(pneumatic_geom, plastic, n_grid=32)


def test_underflowing_design_raises_eigen_failure(plastic):
    # l = 7e-163 m: l*A_ini underflows to 0, and no division by zero escapes
    g = core.RibbonGeometry(L1=1e-163, gamma_s=6.0, theta=0.0, h=15e-3, t=0.4e-3)
    with pytest.raises(EigenFailure, match="critical load"):
        buckling.critical_load(g, plastic)
