"""Lateral-torsional critical load of the kinked-to-straight prestressed ribbon.

The assembled ribbon is modeled as a straight beam carrying the in-plane
prestress of the flattened kink. Its in-plane pre-buckled deflection is taken
as the first buckling mode w(z) = A_ini*sin(pi z/l), with the amplitude fixed
by requiring the end slope to equal the released kink rotation beta. The
out-of-plane escape is governed by the narrow-strip coupling ODE

    GJ*phi'' + (P^2 * w(z)^2 / EI_eta) * phi = 0,   phi(0) = phi(l) = 0,

solved as a generalized eigenproblem in P^2 on a central-difference grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Material, RibbonGeometry, bistability_margin, derive_lengths, section_properties
from .errors import EigenFailure, NotBistable

__all__ = [
    "PrebuckledShape",
    "BucklingMode",
    "prebuckled_inplane_shape",
    "critical_load",
    "critical_load_closed_form",
]

MIN_N_GRID = 64


@dataclass(frozen=True)
class PrebuckledShape:
    """In-plane deflection of the assembled (flattened-kink) ribbon."""

    A_ini: float
    z: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class BucklingMode:
    """Critical load plus the sampled fundamental twist mode phi(z).

    phi is dimensionless, pinned at both ends, has no interior sign change,
    and is scaled so max|phi| equals `normalization` (the released kink
    rotation beta; linear buckling leaves the amplitude free, so the scale
    is a convention absorbed downstream by the tip-angle calibration).
    """

    P_cr: float
    grid: np.ndarray
    phi: np.ndarray
    normalization: float


def _require_bistable(geom: RibbonGeometry) -> float:
    margin = bistability_margin(geom)
    if not margin["bistable"]:
        raise NotBistable(f"beta = {margin['beta']:.6g} rad; design is mono-stable")
    return margin["beta"]


def prebuckled_inplane_shape(geom: RibbonGeometry, n_samples: int = 129) -> PrebuckledShape:
    """First-mode in-plane shape whose end slope equals the released kink rotation.

    w(z) = A_ini*sin(pi z/l) with A_ini = (l/pi)*sin(beta), so w'(0) = sin(beta).
    """
    beta = _require_bistable(geom)
    l = derive_lengths(geom)["l"]
    A_ini = (l / math.pi) * math.sin(beta)
    z = np.linspace(0.0, l, n_samples)
    w = A_ini * np.sin(math.pi * z / l)
    # Endpoints are pinned; enforce exact zeros against roundoff.
    w[0] = 0.0
    w[-1] = 0.0
    return PrebuckledShape(A_ini=A_ini, z=z, w=w)


def critical_load(
    geom: RibbonGeometry,
    mat: Material,
    n_grid: int = 257,
    corrected_torsion: bool = False,
) -> BucklingMode:
    """Smallest P > 0 with a nontrivial twist mode, by dense generalized eigensolve.

    n_grid counts grid points including both ends; n_grid >= MIN_N_GRID required.
    """
    beta = _require_bistable(geom)
    if n_grid < MIN_N_GRID:
        raise EigenFailure(f"n_grid must be at least {MIN_N_GRID}, got {n_grid}")
    l = derive_lengths(geom)["l"]
    sec = section_properties(geom, mat, corrected_torsion=corrected_torsion)
    GJ = sec.G * sec.J
    EI = mat.E * sec.I_eta
    shape = prebuckled_inplane_shape(geom, n_grid)

    n_int = n_grid - 2
    dz = l / (n_grid - 1)

    # -GJ*phi'' = lambda * (w^2/EI) * phi with lambda = P^2.
    main = np.full(n_int, 2.0 * GJ / dz**2)
    off = np.full(n_int - 1, -GJ / dz**2)
    A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    B = np.diag(shape.w[1:-1] ** 2 / EI)

    try:
        vals, vecs = scipy.linalg.eigh(A, B, subset_by_index=[0, 0])
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigenFailure(f"eigensolve failed: {exc}") from exc
    lam = float(vals[0])
    if not math.isfinite(lam) or lam <= 0.0:
        raise EigenFailure(f"no positive eigenvalue found (lambda = {lam:.6g})")

    phi = np.zeros(n_grid)
    phi[1:-1] = vecs[:, 0]
    # Fundamental mode of this SPD pencil is nodeless; fix the sign and verify.
    if phi[n_grid // 2] < 0.0:
        phi = -phi
    if np.any(phi[1:-1] <= 0.0):
        raise EigenFailure("computed mode has interior sign changes; not fundamental")
    phi *= beta / np.max(np.abs(phi))

    return BucklingMode(P_cr=math.sqrt(lam), grid=shape.z, phi=phi, normalization=beta)


def critical_load_closed_form(
    geom: RibbonGeometry, mat: Material, corrected_torsion: bool = False
) -> float:
    """Uniform-moment surrogate: replaces sin^2 by its mean 1/2 in the coupling ODE."""
    beta = _require_bistable(geom)
    l = derive_lengths(geom)["l"]
    sec = section_properties(geom, mat, corrected_torsion=corrected_torsion)
    A_ini = (l / math.pi) * math.sin(beta)
    return math.pi * math.sqrt(2.0 * sec.G * sec.J * mat.E * sec.I_eta) / (A_ini * l)
