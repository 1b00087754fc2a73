"""JSON design-config parsing with unit-suffixed field names.

Field names carry their units (L1_mm, theta_deg, E_GPa, ...) and are
converted to SI here, at the boundary; everything downstream is SI. Unknown
keys are rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

from .buckling import coupling_product
from .core import (MATERIAL_PRESETS, Material, RibbonGeometry, SectionProperties,
                   section_properties, snap_timescale)
from .errors import ConfigError
from .snapdyn import DAMPING_PRESETS, MAX_ZETA, effective_inertia
from .swim import DEFAULT_K_DRAG, Waveform

__all__ = [
    "OptionsBlock", "HydroBlock", "ParsedConfig", "check_scales", "load_config", "parse_config"
]

# options.n_grid selects nothing: the beam reduction uses the Mathieu constants
# of buckling, not a grid. The key stays accepted and range-checked only while
# callers still pass it.
MIN_N_GRID = 64
MAX_N_GRID = 4097

# The scales the model derives from a whole design: (name, the config fields it
# reads, the model's own function of geom, mat and section). A product can leave
# the float range while each factor is inside it, so check_scales evaluates these.
SCALES = (
    ("snap timescale t*", "geometry.L1_mm geometry.gamma_s geometry.t_mm material.E_GPa "
     "material.rho_kg_m3", lambda geom, mat, sec: snap_timescale(geom, mat)),
    ("inertia I_eff", "geometry.L1_mm geometry.gamma_s geometry.h_mm geometry.t_mm "
     "material.rho_kg_m3", lambda geom, mat, sec: effective_inertia(geom, mat)),
    ("bending stiffness EI_eta", "geometry.h_mm geometry.t_mm material.E_GPa",
     lambda geom, mat, sec: mat.E * sec.I_eta),
    ("torsional stiffness GJ", "geometry.h_mm geometry.t_mm material.E_GPa material.nu "
     "options.corrected_torsion", lambda geom, mat, sec: sec.G * sec.J),
    ("buckling product MU*GJ*EI_eta", "geometry.h_mm geometry.t_mm material.E_GPa material.nu "
     "options.corrected_torsion", lambda geom, mat, sec: coupling_product(sec, mat)),
)


def check_scales(geom: RibbonGeometry, mat: Material, corrected_torsion: bool = False) -> None:
    """ConfigError naming the fields of the first of SCALES that is not positive and finite."""
    try:
        sec = section_properties(geom, mat, corrected_torsion)
    except OverflowError:  # t^3 is beyond the float range: EI_eta and GJ are inf
        sec = SectionProperties(I_eta=math.inf, J=math.inf, G=math.inf)
    for name, fields, scale in SCALES:
        try:
            ok = 0.0 < scale(geom, mat, sec) < math.inf
        except ArithmeticError:  # a float power that overflows, or a division by 0
            ok = False
        if not ok:
            *head, last = fields.split()
            raise ConfigError(
                f"fields {', '.join(head)} and {last} give a {name} out of the float range"
            )


@dataclass(frozen=True)
class OptionsBlock:
    corrected_torsion: bool = False
    n_grid: int = 257
    n_links: int = 60
    damping: dict = field(default_factory=lambda: dict(DAMPING_PRESETS))


@dataclass(frozen=True)
class HydroBlock:
    mass: float
    body_length: float
    k_drag: float
    reference_waveform: Waveform | None
    reference_speed: float | None


@dataclass(frozen=True)
class ParsedConfig:
    geom: RibbonGeometry
    mat: Material
    material_name: str
    options: OptionsBlock
    hydro: HydroBlock | None
    snap_time_override: float | None


def _check_keys(block: dict, allowed, where: str):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _number(block: dict, key: str, where: str, required: bool = True, default=None):
    if key not in block:
        if required:
            raise ConfigError(f"missing required field {where}.{key}")
        return default
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"field {where}.{key} must be a number, got {val!r}")
    # NaN fails both bounds; an int beyond the float range fails one.
    if not -sys.float_info.max <= val <= sys.float_info.max:
        raise ConfigError(f"field {where}.{key} must be finite, got {val!r}")
    return float(val)


def _parse_geometry(block) -> RibbonGeometry:
    if not isinstance(block, dict):
        raise ConfigError("geometry must be an object")
    _check_keys(block, ("L1_mm", "gamma_s", "theta_deg", "h_mm", "t_mm"), "geometry")
    return RibbonGeometry(
        L1=_number(block, "L1_mm", "geometry") * 1e-3,
        gamma_s=_number(block, "gamma_s", "geometry"),
        theta=math.radians(_number(block, "theta_deg", "geometry")),
        h=_number(block, "h_mm", "geometry") * 1e-3,
        t=_number(block, "t_mm", "geometry") * 1e-3,
    )


def _parse_material(block):
    if isinstance(block, str):
        if block not in MATERIAL_PRESETS:
            known = ", ".join(sorted(MATERIAL_PRESETS))
            raise ConfigError(f"unknown material preset {block!r}; known: {known}")
        return MATERIAL_PRESETS[block], block
    if not isinstance(block, dict):
        raise ConfigError("material must be a preset name or an object")
    _check_keys(block, ("E_GPa", "nu", "rho_kg_m3"), "material")
    E_GPa = _number(block, "E_GPa", "material")
    # The only unit conversion that scales up: 1e300 GPa is finite, 1e309 Pa is not.
    if not math.isfinite(E_GPa * 1e9):
        raise ConfigError(f"field material.E_GPa must be finite in Pa, got {E_GPa!r} GPa")
    return Material(
        E=E_GPa * 1e9,
        nu=_number(block, "nu", "material"),
        rho=_number(block, "rho_kg_m3", "material"),
    ), "custom"


def _parse_options(block) -> OptionsBlock:
    if block is None:
        return OptionsBlock()
    if not isinstance(block, dict):
        raise ConfigError("options must be an object")
    _check_keys(block, ("corrected_torsion", "n_grid", "n_links", "damping"), "options")
    corrected = block.get("corrected_torsion", False)
    if not isinstance(corrected, bool):
        raise ConfigError("options.corrected_torsion must be true or false")
    n_grid = block.get("n_grid", 257)
    n_links = block.get("n_links", 60)
    for name, val in (("n_grid", n_grid), ("n_links", n_links)):
        if isinstance(val, bool) or not isinstance(val, int) or val <= 0:
            raise ConfigError(f"options.{name} must be a positive integer, got {val!r}")
    if not MIN_N_GRID <= n_grid <= MAX_N_GRID:
        raise ConfigError(f"options.n_grid must be in [{MIN_N_GRID}, {MAX_N_GRID}], got {n_grid}")
    damping = dict(DAMPING_PRESETS)
    if "damping" in block:
        if not isinstance(block["damping"], dict):
            raise ConfigError("options.damping must be an object")
        _check_keys(block["damping"], ("air", "water"), "options.damping")
        for medium in ("air", "water"):
            if medium in block["damping"]:
                z = _number(block["damping"], medium, "options.damping")
                if z < 0.0:
                    raise ConfigError(f"options.damping.{medium} must be >= 0")
                if z > MAX_ZETA:
                    raise ConfigError(
                        f"options.damping.{medium} must be <= {MAX_ZETA:.4g}, the largest "
                        f"damping ratio the snap step integrates stably; got {z!r}"
                    )
                damping[medium] = z
    return OptionsBlock(corrected_torsion=corrected, n_grid=n_grid, n_links=n_links,
                        damping=damping)


def _parse_hydro(block) -> HydroBlock | None:
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError("hydro must be an object")
    _check_keys(block, ("mass_kg", "body_length_cm", "k_drag_kg_m", "reference"), "hydro")
    mass = _number(block, "mass_kg", "hydro")
    body_length = _number(block, "body_length_cm", "hydro") * 1e-2
    if mass <= 0.0 or body_length <= 0.0:
        raise ConfigError("hydro.mass_kg and hydro.body_length_cm must be positive")
    k_drag = _number(block, "k_drag_kg_m", "hydro", required=False, default=DEFAULT_K_DRAG)
    if k_drag <= 0.0:
        raise ConfigError("hydro.k_drag_kg_m must be positive")
    ref_wave = ref_speed = None
    if "reference" in block:
        ref = block["reference"]
        if not isinstance(ref, dict):
            raise ConfigError("hydro.reference must be an object")
        keys = ("kind", "amplitude_deg", "frequency_hz", "snap_time_ms", "speed_cm_s")
        _check_keys(ref, keys, "hydro.reference")
        kind = ref.get("kind")
        if kind not in ("sinusoid", "bistable"):
            raise ConfigError("hydro.reference.kind must be sinusoid or bistable")
        snap_time = _number(ref, "snap_time_ms", "hydro.reference", required=False)
        ref_wave = Waveform(
            kind=kind,
            amplitude=math.radians(_number(ref, "amplitude_deg", "hydro.reference")),
            frequency=_number(ref, "frequency_hz", "hydro.reference"),
            snap_time=None if snap_time is None else snap_time * 1e-3,
        )
        ref_speed = _number(ref, "speed_cm_s", "hydro.reference") * 1e-2
        if ref_speed <= 0.0:
            raise ConfigError("hydro.reference.speed_cm_s must be positive")
        if not math.isfinite(ref_speed * ref_speed):  # the thrust fit squares it
            raise ConfigError(
                f"field hydro.reference.speed_cm_s is too large to square, got {ref['speed_cm_s']!r}"
            )
    return HydroBlock(mass=mass, body_length=body_length, k_drag=k_drag,
                      reference_waveform=ref_wave, reference_speed=ref_speed)


def parse_config(payload: dict) -> ParsedConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be an object")
    _check_keys(payload, ("geometry", "material", "options", "hydro", "swim"), "config")
    for name in ("geometry", "material"):
        if name not in payload:
            raise ConfigError(f"missing required block: {name}")
    geom = _parse_geometry(payload["geometry"])
    mat, mat_name = _parse_material(payload["material"])
    options = _parse_options(payload.get("options"))
    check_scales(geom, mat, options.corrected_torsion)
    hydro = _parse_hydro(payload.get("hydro"))
    snap_override = None
    if "swim" in payload:
        block = payload["swim"]
        if not isinstance(block, dict):
            raise ConfigError("swim must be an object")
        _check_keys(block, ("snap_time_ms",), "swim")
        snap_override = _number(block, "snap_time_ms", "swim", required=False)
        if snap_override is not None:
            if snap_override <= 0.0:
                raise ConfigError("swim.snap_time_ms must be positive")
            snap_override *= 1e-3
    return ParsedConfig(geom=geom, mat=mat, material_name=mat_name, options=options,
                        hydro=hydro, snap_time_override=snap_override)


def load_config(path) -> ParsedConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, digit limit, deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(payload)
