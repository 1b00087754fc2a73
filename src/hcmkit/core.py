"""Canonical domain types, section properties, the bistability criterion and
the snap timescale.

All quantities are SI (meters, pascals, kilograms, seconds, radians).
Degrees and millimeters exist only at the config/CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

__all__ = [
    "RibbonGeometry",
    "Material",
    "SectionProperties",
    "MATERIAL_PRESETS",
    "derive_lengths",
    "section_properties",
    "bistability_margin",
    "snap_timescale",
]


def _require_finite(obj) -> None:
    for f in fields(obj):
        val = getattr(obj, f.name)
        if not math.isfinite(val):
            raise ConfigError(f"{f.name} must be finite, got {val}")


@dataclass(frozen=True)
class RibbonGeometry:
    """Shape of the flat kinked blank.

    L1 is the core-end segment length; the far-end segment is L2 = gamma_s*L1.
    theta is the signed prop angle at the kink. h and t are the strip width
    and thickness.
    """

    L1: float
    gamma_s: float
    theta: float
    h: float
    t: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.L1 > 0):
            raise ConfigError(f"L1 must be positive, got {self.L1}")
        if not (self.gamma_s > 1):
            raise ConfigError(f"gamma_s must exceed 1, got {self.gamma_s}")
        if not (abs(self.theta) < math.pi / 2):
            raise ConfigError(f"theta must satisfy |theta| < pi/2, got {self.theta}")
        if not (self.h > 0):
            raise ConfigError(f"h must be positive, got {self.h}")
        if not (0 < self.t < self.h):
            raise ConfigError(f"t must satisfy 0 < t < h, got t={self.t}, h={self.h}")


@dataclass(frozen=True)
class Material:
    E: float
    nu: float
    rho: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.E > 0):
            raise ConfigError(f"E must be positive, got {self.E}")
        if not (0 <= self.nu < 0.5):
            raise ConfigError(f"nu must be in [0, 0.5), got {self.nu}")
        if not (self.rho > 0):
            raise ConfigError(f"rho must be positive, got {self.rho}")


@dataclass(frozen=True)
class SectionProperties:
    """Thin-strip section constants: out-of-plane bending I_eta, torsion J, shear G."""

    I_eta: float
    J: float
    G: float


# Handbook values; the sources report E and rho but never nu, so the Poisson
# ratios here are conventional assumptions exposed through config.
MATERIAL_PRESETS = {
    "plastic": Material(E=1.73e9, nu=0.35, rho=1200.0),
    "steel": Material(E=200.0e9, nu=0.30, rho=7850.0),
}


def derive_lengths(geom: RibbonGeometry) -> dict:
    """Segment lengths derived from (L1, gamma_s): L2, half-length l, blank length 2l."""
    L2 = geom.gamma_s * geom.L1
    l = geom.L1 + L2
    return {"L2": L2, "l": l, "two_l": 2.0 * l}


def section_properties(
    geom: RibbonGeometry, mat: Material, corrected_torsion: bool = False
) -> SectionProperties:
    """Thin-strip section constants.

    Default torsion constant is the uncorrected limit J = h*t^3/3, which keeps
    J = 4*I_eta exactly and preserves the exact eight-fold barrier growth under
    t -> 2t. The (1 - 0.63 t/h) end correction is opt-in.
    """
    I_eta = geom.h * geom.t**3 / 12.0
    J = geom.h * geom.t**3 / 3.0
    if corrected_torsion:
        J *= 1.0 - 0.63 * geom.t / geom.h
    G = mat.E / (2.0 * (1.0 + mat.nu))
    return SectionProperties(I_eta=I_eta, J=J, G=G)


def bistability_margin(geom: RibbonGeometry) -> dict:
    """beta = asin(1/gamma_s) + theta. The assembly is bistable iff beta > 0."""
    beta = math.asin(1.0 / geom.gamma_s) + geom.theta
    return {"beta": beta, "bistable": beta > 0.0}


def snap_timescale(geom: RibbonGeometry, mat: Material) -> float:
    """Elastic-wave snap timescale t* = (2l)^2 / (t*sqrt(E/rho))."""
    two_l = derive_lengths(geom)["two_l"]
    return two_l**2 / (geom.t * math.sqrt(mat.E / mat.rho))
