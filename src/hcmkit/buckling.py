"""Lateral-torsional critical load of the kinked-to-straight prestressed ribbon.

The assembled ribbon is modeled as a straight beam carrying the in-plane
prestress of the flattened kink. Its in-plane pre-buckled deflection is taken
as the first buckling mode w(z) = A_ini*sin(pi z/l), with the amplitude fixed
by requiring the end slope to equal the released kink rotation beta. The
out-of-plane escape is governed by the narrow-strip coupling ODE

    GJ*phi'' + (P^2 * w(z)^2 / EI_eta) * phi = 0,   phi(0) = phi(l) = 0.

On the unit span s = z/l it reads -phi'' = lam*sin^2(pi s)*phi with
lam = P^2*l^2*A_ini^2/(GJ*EI_eta), which holds no design parameter. With
x = pi*s it is Mathieu's equation y'' + (a - 2q*cos 2x)*y = 0 at a = 2q
(DLMF 28.2), whose lowest root is the odd mode se_1. Two constants of that
mode therefore carry the whole reduction: its eigenvalue MU = 4*pi^2*q, and
its unit moment KAPPA = integral phi_hat(s)*(1 - s) ds with phi_hat scaled
to max 1. A design reads off the critical load and the moment
integral phi(z)*(l - z) dz of its twist mode phi(z) = beta*phi_hat(z/l),

    P_cr = sqrt(MU*GJ*EI_eta)/(l*A_ini),   moment = beta*l^2*KAPPA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (Material, RibbonGeometry, SectionProperties, bistability_margin,
                   derive_lengths, section_properties)
from .errors import EigenFailure, NotBistable

__all__ = [
    "BucklingMode",
    "MU",
    "KAPPA",
    "critical_load",
    "critical_load_closed_form",
]

# The se_1 mode at a = 2q, q = 0.3290057278269146466 (40 digits in the tests):
# MU = 4*pi^2*q = 12.98862551737649783958, KAPPA = 0.30207444685710060248.
MU = 12.988625517376498
KAPPA = 0.3020744468571006


@dataclass(frozen=True)
class BucklingMode:
    """Critical load and the moment integral phi(z)*(l - z) dz of the twist mode.

    The mode phi = beta*phi_hat(z/l) is pinned at both ends, positive inside
    and scaled so max|phi| equals the released kink rotation beta (linear
    buckling leaves the amplitude free, so the scale is a convention absorbed
    downstream by the tip-angle calibration). moment is beta*l^2*KAPPA, in
    meters squared.
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


def coupling_product(sec: SectionProperties, mat: Material) -> float:
    """MU*GJ*EI_eta, the square of P_cr*l*A_ini; neither theta nor gamma_s enters it."""
    return MU * sec.G * sec.J * mat.E * sec.I_eta


def critical_load(
    geom: RibbonGeometry,
    mat: Material,
    n_grid: int = 257,
    corrected_torsion: bool = False,
) -> BucklingMode:
    """Smallest P > 0 with a nontrivial twist mode, from the Mathieu constants.

    n_grid is accepted and ignored: no grid is solved. It stays in the
    signature for callers that still pass it.
    """
    beta, l, A_ini = _kink(geom)
    sec = section_properties(geom, mat, corrected_torsion=corrected_torsion)
    root = math.sqrt(coupling_product(sec, mat))
    # l*A_ini underflows to 0 for l below about 1e-161 m.
    P_cr = root / (l * A_ini) if l * A_ini > 0.0 else math.inf
    if not 0.0 < P_cr < math.inf:
        raise EigenFailure(f"no positive finite critical load (P_cr = {P_cr:.6g} N)")
    return BucklingMode(P_cr=P_cr, moment=beta * l**2 * KAPPA)


def critical_load_closed_form(
    geom: RibbonGeometry, mat: Material, corrected_torsion: bool = False
) -> float:
    """Uniform-moment surrogate: replaces sin^2 by its mean 1/2 in the coupling ODE."""
    _, l, A_ini = _kink(geom)
    sec = section_properties(geom, mat, corrected_torsion=corrected_torsion)
    return math.pi * math.sqrt(2.0 * sec.G * sec.J * mat.E * sec.I_eta) / (A_ini * l)
