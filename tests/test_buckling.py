import functools
import math

import numpy as np
import pytest

from conftest import unit_grid_mode
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


def _mathieu_constants_mp(dps=40, terms=30):
    """q, MU and KAPPA of the se_1 mode at a = 2q, at dps digits.

    se_1 = sum of B_k*sin((2k+1)x) over k < terms, and its coefficients solve
    the symmetric tridiagonal problem with diagonal [1 - q, 9, 25, 49, ...]
    and off-diagonal q. Its lowest eigenvalue is a, and each row past the
    first fixes B_k/B_(k-1) by a continued fraction (downward from the last
    row, which is stable for these decaying coefficients); the first row
    then reads 1 - q - a + q*B_1/B_0 = 0, solved for a = 2q.
    """
    import mpmath

    with mpmath.workdps(dps + 10):

        def ratios(q):
            r = [mpmath.mpf(0)] * (terms + 1)  # r[k] = B_k/B_(k-1)
            for k in range(terms - 1, 0, -1):
                r[k] = -q / ((2 * k + 1) ** 2 - 2 * q + q * r[k + 1])
            return r

        q = mpmath.findroot(lambda q: 1 - 3 * q + q * ratios(q)[1], mpmath.mpf("0.329"))
        B = [mpmath.mpf(1)]
        for r in ratios(q)[1:terms]:
            B.append(B[-1] * r)
        mu = 4 * mpmath.pi**2 * q
        # phi_hat(s) = se_1(pi s)/se_1(pi/2), and by its symmetry about s = 1/2
        # the moment is half its integral: sum of B_k/((2k+1)*pi), over se_1(pi/2)
        kappa = sum(b * 2 / (2 * k + 1) for k, b in enumerate(B)) / (
            2 * mpmath.pi * sum(b * (-1) ** k for k, b in enumerate(B))
        )
        return +q, +mu, +kappa


def test_mathieu_constants():
    from scipy.special import mathieu_b

    q, mu, kappa = _mathieu_constants_mp()
    # 40-digit values: q = 0.3290057278269146466, mu = 12.98862551737649783958,
    # kappa = 0.30207444685710060248
    assert abs(buckling.MU - float(mu)) <= math.ulp(buckling.MU)
    assert abs(buckling.KAPPA - float(kappa)) <= math.ulp(buckling.KAPPA)
    # a = 2q is the characteristic value b_1 of se_1
    assert abs(mathieu_b(1, float(q)) / (2.0 * float(q)) - 1.0) <= 1e-12
    assert abs(4.0 * math.pi**2 * float(q) / buckling.MU - 1.0) <= 1e-15


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
    lam_hat, phi_hat, _ = unit_grid_mode(n_grid)
    ref, _ = _unit_eigenvalue_mp(n_grid)
    assert abs(lam_hat / float(ref) - 1.0) <= 1e-14
    # clamped twist at both ends, single interior lobe, positive orientation
    assert phi_hat[0] == 0.0 and phi_hat[-1] == 0.0 and phi_hat.max() == 1.0
    assert np.all(phi_hat[1:-1] > 0.0)


@pytest.mark.parametrize("n_grid", [129, 257])
def test_unit_mode_matches_mpmath(n_grid):
    # the eigenvalue converges twice as fast as the mode, so this is the
    # sharper check; the LAPACK mode was 4.9e-14 / 2.4e-14 off here
    _, phi_hat, _ = unit_grid_mode(n_grid)
    _, ref = _unit_eigenvalue_mp(n_grid)
    assert np.max(np.abs(phi_hat[1:-1] - np.array([float(v) for v in ref]))) <= 2e-15


@pytest.mark.parametrize("n_grid", [64, 4097])
def test_unit_mode_matches_lapack(n_grid):
    # the sizes the mpmath reference is too slow for: the symmetrised pencil
    # D^-1/2*T*D^-1/2 by LAPACK, whose own mode error at 4097 is about 4.5e-12
    import scipy.linalg

    lam_hat, phi_hat, _ = unit_grid_mode(n_grid)
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
    # 40-digit reference: sqrt(mu*GJ*EI)/(l*A_ini) = 1.874661529793196020214581 N,
    # with mu from _mathieu_constants_mp()
    mode = buckling.critical_load(pneumatic_geom, plastic)
    assert abs(mode.P_cr - 1.874661529793196) < 1e-12


def test_closed_form_reference_value(pneumatic_geom, plastic):
    P = buckling.critical_load_closed_form(pneumatic_geom, plastic)
    assert abs(P - 2.311032962932434) < 1e-9
    # worked example quotes 2.29 N from rounded intermediates
    assert abs(P / 2.29 - 1.0) < 0.02


@pytest.mark.xfail(
    strict=True,
    reason="numeric eigenvalue sits 18.9% below the sinusoid-ansatz closed form "
    "(ratio 0.8112, a universal constant); the documented 15% bound is not "
    "attainable. See the Decisions section of README.md.",
)
def test_numeric_within_15_percent_of_closed_form(pneumatic_geom, plastic):
    mode = buckling.critical_load(pneumatic_geom, plastic)
    P_cf = buckling.critical_load_closed_form(pneumatic_geom, plastic)
    assert abs(mode.P_cr / P_cf - 1.0) <= 0.15


def test_numeric_to_closed_form_ratio_is_universal(plastic):
    # P_num/P_cf = sqrt(mu)/(pi*sqrt(2)) with mu from a geometry-free
    # eigenproblem, so the ratio must not move across designs
    ratios = []
    for theta_deg, gamma in ((-3.0, 6.0), (10.0, 4.0), (-20.0, 2.0)):
        g = core.RibbonGeometry(
            L1=20e-3, gamma_s=gamma, theta=math.radians(theta_deg), h=12e-3, t=0.5e-3
        )
        mode = buckling.critical_load(g, plastic)
        ratios.append(mode.P_cr / buckling.critical_load_closed_form(g, plastic))
    # every design rescales the same constant MU, so only rounding separates
    # the ratios; sqrt(mu)/(pi*sqrt(2)) at 40 digits is 0.8111790527706132
    assert max(ratios) - min(ratios) < 1e-13
    assert abs(ratios[0] - 0.8111790527706132) < 1e-12


def test_grid_convergence():
    # the central-difference pencil converges to the Mathieu constants at
    # O(h^2): its relative errors times (n_grid - 1)^2 settle at -0.913541
    # (MU) and -1.107833 (KAPPA), and the O(h^4) rest moves them by at most
    # 1.1e-5 of that from n_grid 257 on
    def rel_errs(n_grid):
        lam_hat, _, m_hat = unit_grid_mode(n_grid)
        return (n_grid - 1) ** 2 * lam_hat / buckling.MU - 1.0, m_hat / buckling.KAPPA - 1.0

    scaled = np.array([np.array(rel_errs(n)) * (n - 1) ** 2 for n in (257, 513, 1025)])
    assert np.all(scaled < 0.0)
    assert np.max(np.abs(scaled / scaled[-1] - 1.0)) < 2e-5
    # one Richardson step from 2049 and 4097 removes the h^2 term; it lands
    # 8.9e-16 (MU) and 1.11e-14 (KAPPA) from the constants
    coarse, fine = np.array(rel_errs(2049)), np.array(rel_errs(4097))
    rich = (4.0 * fine - coarse) / 3.0
    assert abs(rich[0]) <= 2e-15
    assert abs(rich[1]) <= 2e-14


def test_n_grid_is_inert(pneumatic_geom, plastic):
    modes = {buckling.critical_load(pneumatic_geom, plastic, n_grid=n) for n in (32, 257, 4097)}
    assert len(modes) == 1


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


def test_underflowing_design_raises_eigen_failure(plastic):
    # l = 7e-163 m: l*A_ini underflows to 0, and no division by zero escapes
    g = core.RibbonGeometry(L1=1e-163, gamma_s=6.0, theta=0.0, h=15e-3, t=0.4e-3)
    with pytest.raises(EigenFailure, match="critical load"):
        buckling.critical_load(g, plastic)
