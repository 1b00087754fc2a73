import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hcmkit import core, oracle, postbuckle

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).parent / "golden"


def run_python(args, cwd=None, env=None):
    """Run a Python subprocess that imports this checkout's src first; returns
    CompletedProcess with text output. env overrides the inherited variables;
    a None value drops one."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    child = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={k: v for k, v in child.items() if v is not None},
        timeout=600,
    )


@functools.lru_cache(maxsize=None)
def unit_grid_mode(n_grid):
    """Central-difference twist mode of -phi'' = lam*sin^2(pi s)*phi on n_grid points.

    Solves the pencil tridiag(-1, 2, -1)*x = lam_hat*diag(sin^2(pi s_i))*x on
    the interior points s_i = i/(n_grid - 1) by inverse iteration from
    x = sin(pi s), scaled to max 1 each step; T^-1 is applied by its exact
    Green's function min(i, j)*(m + 1 - max(i, j))/(m + 1), two cumulative
    sums with only positive terms. The step ratio is lam_1/lam_2 = 0.177, so
    13 to 15 steps reach rounding at every n_grid from 64 to 4097. Returns
    lam_hat, the read-only mode phi_hat on all n_grid points (0 at both
    ends, max 1) and the trapezoid m_hat of phi_hat(s)*(1 - s). The grid
    values converge at O(h^2): (n_grid - 1)^2*lam_hat to buckling.MU and
    m_hat to buckling.KAPPA.
    """
    s = np.linspace(0.0, 1.0, n_grid)
    x = np.sin(np.pi * s[1:-1])
    d = x**2
    m = x.size
    j = np.arange(1.0, m + 1.0)
    for _ in range(40):
        f = d * x
        above = np.zeros(m)  # sum over j > i of (m + 1 - j)*f_j
        above[:-1] = np.cumsum(((m + 1.0 - j) * f)[:0:-1])[::-1]
        y = ((m + 1.0 - j) * np.cumsum(j * f) + j * above) / (m + 1.0)
        y /= np.max(y)
        step = np.max(np.abs(y - x))
        x = y
        if step <= 1e-15:
            break
    else:
        raise AssertionError(f"inverse iteration at n_grid {n_grid} did not settle")
    phi = np.zeros(n_grid)
    phi[1:-1] = x
    phi.setflags(write=False)
    # the Rayleigh quotient squares the mode's error
    lam_hat = float(np.sum(np.diff(phi) ** 2) / np.sum(d * x**2))
    y = phi * (1.0 - s)
    m_hat = float(np.sum(np.diff(s) * (y[1:] + y[:-1]) / 2.0))
    return lam_hat, phi, m_hat


def gradient_check(
    ribbon: oracle.DiscreteRibbon, n_configs: int = 10, k_pen: float = 1e4, k_sad: float = 1e3
) -> float:
    """Max relative error of the analytic gradient against central differences
    at random configurations (fixed RNG seed; deterministic)."""
    m = ribbon.n_links - 1
    rng = np.random.default_rng(0)
    worst = 0.0
    eps = 1e-7
    for _ in range(n_configs):
        q = 0.2 * rng.standard_normal(3 * m)
        _, _, g, _, _, _ = oracle._energy_grad(ribbon, q, k_pen, k_sad)
        for i in rng.choice(3 * m, 5, replace=False):
            qp = q.copy()
            qp[i] += eps
            qm = q.copy()
            qm[i] -= eps
            fd = (
                oracle._energy_grad(ribbon, qp, k_pen, k_sad)[0]
                - oracle._energy_grad(ribbon, qm, k_pen, k_sad)[0]
            ) / (2.0 * eps)
            worst = max(worst, abs(fd - g[i]) / max(1.0, abs(fd)))
    return worst


def run_cli(args, cwd=None, env=None):
    """Run this checkout's CLI in a subprocess; returns CompletedProcess with text output."""
    return run_python(["-m", "hcmkit.cli", *args], cwd=cwd, env=env)


@pytest.fixture(scope="session")
def pneumatic_geom():
    return core.RibbonGeometry(
        L1=12.5e-3, gamma_s=6.0, theta=math.radians(-3.0), h=15e-3, t=0.381e-3
    )


@pytest.fixture(scope="session")
def plastic():
    return core.MATERIAL_PRESETS["plastic"]


@pytest.fixture(scope="session")
def calibration():
    return postbuckle.load_calibration()


@pytest.fixture(scope="session")
def pneumatic_ribbon(pneumatic_geom, plastic):
    return oracle.build_discrete(pneumatic_geom, plastic, n_links=60)


@pytest.fixture(scope="session")
def pneumatic_wells(pneumatic_ribbon):
    plus = oracle.find_equilibrium(pneumatic_ribbon, "plus")
    minus = oracle.find_equilibrium(pneumatic_ribbon, "minus")
    return plus, minus


@pytest.fixture(scope="session")
def pneumatic_saddle(pneumatic_ribbon, pneumatic_wells):
    plus, _ = pneumatic_wells
    return oracle.find_saddle(pneumatic_ribbon, well=plus)
