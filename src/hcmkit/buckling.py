"""Lateral-torsional critical load of the kinked-to-straight prestressed ribbon.

The assembled ribbon is modeled as a straight beam carrying the in-plane
prestress of the flattened kink. Its in-plane pre-buckled deflection is taken
as the first buckling mode w(z) = A_ini*sin(pi z/l), with the amplitude fixed
by requiring the end slope to equal the released kink rotation beta. The
out-of-plane escape is governed by the narrow-strip coupling ODE

    GJ*phi'' + (P^2 * w(z)^2 / EI_eta) * phi = 0,   phi(0) = phi(l) = 0.

On the unit span s = z/l it reads -phi'' = lam*sin^2(pi s)*phi with
lam = P^2*l^2*A_ini^2/(GJ*EI_eta), which holds no design parameter. Its
central-difference pencil on n_grid points is therefore solved once per
n_grid and cached with the unit moment m_hat = integral phi_hat(s)*(1 - s) ds
of its mode. A design reads two numbers off them: the critical load and the
moment integral phi(z)*(l - z) dz of its twist mode phi(z) = beta*phi_hat(z/l),

    P_cr = (n_grid - 1)*sqrt(lam_hat*GJ*EI_eta)/(l*A_ini),   moment = beta*l^2*m_hat.

The unit solve is numpy inverse iteration; each step applies the exact
Green's function of the second-difference matrix, so no eigensolver library
is needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Material, RibbonGeometry, bistability_margin, derive_lengths, section_properties
from .errors import EigenFailure, NotBistable

__all__ = [
    "BucklingMode",
    "critical_load",
    "critical_load_closed_form",
]

MIN_N_GRID = 64
MAX_STEPS = 40  # inverse-iteration cap; no n_grid from 64 to 4097 needs more than 15


@dataclass(frozen=True)
class BucklingMode:
    """Critical load and the moment integral phi(z)*(l - z) dz of the twist mode.

    The mode phi = beta*phi_hat(z/l) rescales the cached unit mode: pinned at
    both ends, positive inside and scaled so max|phi| equals the released kink
    rotation beta (linear buckling leaves the amplitude free, so the scale is a
    convention absorbed downstream by the tip-angle calibration). moment is
    beta*l^2*m_hat, in meters squared.
    """

    P_cr: float
    moment: float


def _kink(geom: RibbonGeometry) -> tuple[float, float, float]:
    """beta, the half-length l and the amplitude A_ini = (l/pi)*sin(beta) of a bistable design."""
    margin = bistability_margin(geom)
    if not margin["bistable"]:
        raise NotBistable(f"beta = {margin['beta']:.6g} rad; design is mono-stable")
    l = derive_lengths(geom)["l"]
    return margin["beta"], l, (l / math.pi) * math.sin(margin["beta"])


def _green_solve(f: np.ndarray) -> np.ndarray:
    """tridiag(-1, 2, -1)^-1 * f by its closed-form Green's function.

    With m = f.size and 1-based i, j the inverse is
    min(i, j)*(m + 1 - max(i, j))/(m + 1), so the product is two cumulative
    sums. Every term is positive for f > 0, so nothing cancels.
    """
    m = f.size
    j = np.arange(1.0, m + 1.0)
    below = np.cumsum(j * f)  # sum over j <= i of j*f_j
    above = np.zeros(m)  # sum over j > i of (m + 1 - j)*f_j
    above[:-1] = np.cumsum(((m + 1.0 - j) * f)[:0:-1])[::-1]
    return ((m + 1.0 - j) * below + j * above) / (m + 1.0)


@functools.lru_cache(maxsize=8)
def _unit_mode(n_grid: int) -> tuple[float, np.ndarray, float]:
    """Fundamental pair of tridiag(-1, 2, -1)*x = lam_hat*diag(sin^2(pi s_i))*x.

    s_i = i/(n_grid - 1) are the interior points. Inverse iteration
    x <- T^-1*(d*x) from x = sin(pi s), scaled to max 1 each step, converges
    by the pencil's eigenvalue ratio lam_1/lam_2 = 0.177 per step: 13 to 15
    steps reach rounding at every n_grid from 64 to 4097. T^-1 and d are
    positive, so every iterate is nodeless. Returns lam_hat, the read-only
    mode phi_hat on all n_grid points, positive inside and scaled to max 1,
    and its unit moment m_hat = integral phi_hat(s)*(1 - s) ds by the
    trapezoid rule on the same grid.
    """
    s = np.linspace(0.0, 1.0, n_grid)
    x = np.sin(np.pi * s[1:-1])
    d = x**2
    for _ in range(MAX_STEPS):
        y = _green_solve(d * x)
        y /= np.max(y)
        step = np.max(np.abs(y - x))
        x = y
        if step <= 1e-15:
            break
    else:
        raise EigenFailure(
            f"inverse iteration at n_grid {n_grid} moved {step:.3g} after {MAX_STEPS} steps"
        )
    phi = np.zeros(n_grid)
    phi[1:-1] = x
    phi.setflags(write=False)
    # The Rayleigh quotient squares the mode's error, so lam_hat is exact to rounding.
    lam_hat = float(np.sum(np.diff(phi) ** 2) / np.sum(d * x**2))
    y = phi * (1.0 - s)
    m_hat = float(np.sum(np.diff(s) * (y[1:] + y[:-1]) / 2.0))
    return lam_hat, phi, m_hat


def critical_load(
    geom: RibbonGeometry,
    mat: Material,
    n_grid: int = 257,
    corrected_torsion: bool = False,
) -> BucklingMode:
    """Smallest P > 0 with a nontrivial twist mode, by rescaling the cached unit mode.

    n_grid counts grid points including both ends and selects the grid of the
    unit solve; n_grid >= MIN_N_GRID required.
    """
    beta, l, A_ini = _kink(geom)
    if n_grid < MIN_N_GRID:
        raise EigenFailure(f"n_grid must be at least {MIN_N_GRID}, got {n_grid}")
    sec = section_properties(geom, mat, corrected_torsion=corrected_torsion)
    lam_hat, _, m_hat = _unit_mode(n_grid)
    root = (n_grid - 1) * math.sqrt(lam_hat * sec.G * sec.J * mat.E * sec.I_eta)
    # l*A_ini underflows to 0 for l below about 1e-161 m.
    P_cr = root / (l * A_ini) if l * A_ini > 0.0 else math.inf
    if not 0.0 < P_cr < math.inf:
        raise EigenFailure(f"no positive finite critical load (P_cr = {P_cr:.6g} N)")
    return BucklingMode(P_cr=P_cr, moment=beta * l**2 * m_hat)


def critical_load_closed_form(
    geom: RibbonGeometry, mat: Material, corrected_torsion: bool = False
) -> float:
    """Uniform-moment surrogate: replaces sin^2 by its mean 1/2 in the coupling ODE."""
    _, l, A_ini = _kink(geom)
    sec = section_properties(geom, mat, corrected_torsion=corrected_torsion)
    return math.pi * math.sqrt(2.0 * sec.G * sec.J * mat.E * sec.I_eta) / (A_ini * l)
