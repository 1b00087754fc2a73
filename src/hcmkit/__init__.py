"""Design toolkit for bistable kinked-ribbon snap-through actuators.

The package covers the full chain from ribbon geometry to swimming speed:

- core: geometry, materials, section properties, the bistability margin
- buckling: pre-buckled shape and the torsional buckling eigenproblem
- postbuckle: tip angle, energy barrier, calibration bookkeeping
- snapdyn: lumped double-well snap-through dynamics
- oracle: independent discrete-chain minimization cross-check
- swim: tail kinematics to thrust and cruise speed
- cli: the `hcmkit` command
"""

from .buckling import (
    BucklingMode,
    PrebuckledShape,
    critical_load,
    critical_load_closed_form,
    prebuckled_inplane_shape,
)
from .core import (
    MATERIAL_PRESETS,
    Material,
    RibbonGeometry,
    SectionProperties,
    bistability_margin,
    derive_lengths,
    section_properties,
)
from .errors import (
    ConfigError,
    DegenerateAnchor,
    EigenFailure,
    FellToOppositeSide,
    HcmError,
    NoConvergence,
    NoCrossing,
    NonFinite,
    NotBistable,
    NotCalibrated,
    StepTooLarge,
    TooCoarse,
)
from .postbuckle import (
    Calibration,
    HcmAnalysis,
    analyze,
    calibrate,
    energy_barrier,
    load_calibration,
    save_calibration,
    tip_angle,
)
from .snapdyn import (
    DAMPING_PRESETS,
    DoubleWell,
    SnapTrace,
    effective_inertia,
    simulate_snap,
    snap_duration,
    snap_timescale,
    triggered_snap,
)

__version__ = "0.1.0"

__all__ = [
    "BucklingMode",
    "Calibration",
    "ConfigError",
    "DAMPING_PRESETS",
    "DegenerateAnchor",
    "DoubleWell",
    "EigenFailure",
    "FellToOppositeSide",
    "HcmAnalysis",
    "HcmError",
    "MATERIAL_PRESETS",
    "Material",
    "NoConvergence",
    "NoCrossing",
    "NonFinite",
    "NotBistable",
    "NotCalibrated",
    "PrebuckledShape",
    "RibbonGeometry",
    "SectionProperties",
    "SnapTrace",
    "StepTooLarge",
    "TooCoarse",
    "analyze",
    "bistability_margin",
    "calibrate",
    "critical_load",
    "critical_load_closed_form",
    "derive_lengths",
    "effective_inertia",
    "energy_barrier",
    "load_calibration",
    "prebuckled_inplane_shape",
    "save_calibration",
    "section_properties",
    "simulate_snap",
    "snap_duration",
    "snap_timescale",
    "tip_angle",
    "triggered_snap",
    "__version__",
]
