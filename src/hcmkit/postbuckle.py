"""Post-buckling analytics: tip angle and energy barrier.

The tip bend angle follows from the twist mode by integrating twist times
moment arm,

    psi_l = C_psi * (P_cr/EI_eta) * integral phi(z)*(l - z) dz,

where C_psi is a single global calibration constant absorbing the amplitude
left free by linear buckling theory. It is anchored once at a reference
design and persisted as a small JSON artifact; an independent second design
then serves as a genuine validation point.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import snapdyn
from .buckling import BucklingMode, critical_load
from .core import Material, RibbonGeometry, bistability_margin, derive_lengths, section_properties
from .errors import DegenerateAnchor, NotBistable, NotCalibrated

__all__ = [
    "HcmAnalysis",
    "Calibration",
    "UNCALIBRATED",
    "tip_angle",
    "energy_barrier",
    "calibrate",
    "analyze",
    "load_calibration",
    "save_calibration",
]


@dataclass(frozen=True)
class HcmAnalysis:
    """Derived performance bundle. psi_eq is identified with psi_l."""

    psi_l: float
    psi_eq: float
    U_barr: float
    U_barr_unitless: float
    P_cr: float
    t_star: float


@dataclass(frozen=True)
class Calibration:
    C_psi: float
    anchor_id: str
    created: str


# Unit scale: analyze then reports the raw (P_cr/EI_eta) * integral.
UNCALIBRATED = Calibration(C_psi=1.0, anchor_id="uncalibrated", created="")


def tip_angle(
    geom: RibbonGeometry, mat: Material, mode: BucklingMode, calib: Calibration
) -> float:
    """Positive magnitude of the stable-state tip angle, in radians."""
    if not bistability_margin(geom)["bistable"]:
        raise NotBistable("tip angle undefined for a mono-stable design")
    if calib is None:
        raise NotCalibrated("no calibration supplied; run calibrate first")
    sec = section_properties(geom, mat)
    z = mode.grid
    y = mode.phi * (derive_lengths(geom)["l"] - z)
    integral = float(np.sum(np.diff(z) * (y[1:] + y[:-1]) / 2.0))  # trapezoid rule
    return calib.C_psi * (mode.P_cr / (mat.E * sec.I_eta) * integral)


def energy_barrier(geom: RibbonGeometry, mat: Material, P_cr: float) -> dict:
    """U_barr = 3*P_cr*L2*beta and its unitless form U_barr*L1/(E*I_eta)."""
    margin = bistability_margin(geom)
    if not margin["bistable"]:
        raise NotBistable("energy barrier undefined for a mono-stable design")
    lengths = derive_lengths(geom)
    sec = section_properties(geom, mat)
    U_barr = 3.0 * P_cr * lengths["L2"] * margin["beta"]
    return {
        "U_barr": U_barr,
        "U_barr_unitless": U_barr * geom.L1 / (mat.E * sec.I_eta),
    }


def calibrate(
    anchor_geom: RibbonGeometry,
    anchor_mat: Material,
    anchor_psi_l: float,
    n_grid: int = 257,
    corrected_torsion: bool = False,
) -> Calibration:
    """Fix C_psi so that analyze of the anchor design gives anchor_psi_l exactly."""
    if not (anchor_psi_l > 0.0):
        raise DegenerateAnchor(f"anchor psi_l must be positive, got {anchor_psi_l}")
    raw = analyze(anchor_geom, anchor_mat, UNCALIBRATED, n_grid, corrected_torsion).psi_l
    if raw < 1e-12:
        raise DegenerateAnchor(f"uncalibrated integral {raw:.3g} below 1e-12")
    anchor_id = (
        f"theta={math.degrees(anchor_geom.theta):g}deg,"
        f"gamma_s={anchor_geom.gamma_s:g},"
        f"psi_l={math.degrees(anchor_psi_l):g}deg,n_grid={n_grid}"
        + (",corrected_torsion" if corrected_torsion else "")
    )
    return Calibration(
        C_psi=anchor_psi_l / raw,
        anchor_id=anchor_id,
        created=datetime.date.today().isoformat(),
    )


def analyze(
    geom: RibbonGeometry,
    mat: Material,
    calib: Calibration,
    n_grid: int = 257,
    corrected_torsion: bool = False,
) -> HcmAnalysis:
    """Full derived bundle for a bistable design."""
    mode = critical_load(geom, mat, n_grid=n_grid, corrected_torsion=corrected_torsion)
    psi_l = tip_angle(geom, mat, mode, calib)
    barrier = energy_barrier(geom, mat, mode.P_cr)
    return HcmAnalysis(
        psi_l=psi_l,
        psi_eq=psi_l,
        U_barr=barrier["U_barr"],
        U_barr_unitless=barrier["U_barr_unitless"],
        P_cr=mode.P_cr,
        t_star=snapdyn.snap_timescale(geom, mat),
    )


def save_calibration(calib: Calibration, path) -> None:
    payload = {"c_psi": calib.C_psi, "anchor_id": calib.anchor_id, "created": calib.created}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_calibration(path=None) -> Calibration:
    """Load a calibration JSON; defaults to the artifact shipped with the package."""
    if path is None:
        ref = resources.files("hcmkit").joinpath("data/calibration.json")
        payload = json.loads(ref.read_text(encoding="utf-8"))
    else:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    return Calibration(
        C_psi=float(payload["c_psi"]),
        anchor_id=str(payload["anchor_id"]),
        created=str(payload["created"]),
    )
