"""Reduced-order undulatory propulsion: waveforms, thrust/drag fit, speeds.

Thrust is lumped as k_thrust * <psi_dot^2> (cycle-averaged squared tip rate),
resistance as k_drag * v^2, giving the Riccati cruise dynamics

    m * dv/dt = k_thrust * <psi_dot^2> - k_drag * v^2

with steady state v = sqrt(k_thrust*<psi_dot^2>/k_drag). Only the ratio
k_thrust/k_drag is observable from a single cruise speed, so fit_hydro pins
k_drag from a documented default drag coefficient and frontal area and
back-solves k_thrust from one reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DtTooLarge, NonFinite

__all__ = [
    "Waveform",
    "HydroFit",
    "SwimResult",
    "waveform_series",
    "mean_square_tip_rate",
    "fit_hydro",
    "steady_speed",
    "cruise_speed",
    "speed_metrics",
    "fig6_rows",
    "fig6_to_csv",
]

RHO_WATER = 1000.0  # kg/m^3
DEFAULT_CD = 1.0  # blunt-body drag coefficient
DEFAULT_FRONTAL_AREA = 0.002  # m^2, fish-scale frontal area
DEFAULT_K_DRAG = 0.5 * RHO_WATER * DEFAULT_CD * DEFAULT_FRONTAL_AREA  # = 1.0 kg/m


@dataclass(frozen=True)
class Waveform:
    """Tail waveform: pure sinusoid or bistable dwell-snap-dwell pattern.

    amplitude is the tip half-amplitude in radians (Psi for the sinusoid,
    psi_eq for the bistable pattern); snap_time applies to the bistable kind
    only. amplitude = 0 is tolerated as a degenerate limit (zero thrust).
    """

    kind: str
    amplitude: float
    frequency: float
    snap_time: float | None = None

    def __post_init__(self):
        if self.kind not in ("sinusoid", "bistable"):
            raise ConfigError(f"waveform kind must be sinusoid|bistable, got {self.kind!r}")
        if self.amplitude < 0.0:
            raise ConfigError(f"waveform amplitude must be >= 0, got {self.amplitude}")
        if not (self.frequency > 0.0):
            raise ConfigError(f"waveform frequency must be positive, got {self.frequency}")
        if self.kind == "bistable":
            if self.snap_time is None or not (self.snap_time > 0.0):
                raise ConfigError("bistable waveform requires a positive snap_time")
            if not (2.0 * self.frequency * self.snap_time < 1.0):
                raise ConfigError(
                    "bistable waveform needs 2*frequency*snap_time < 1 "
                    f"(got {2.0 * self.frequency * self.snap_time:.3g})"
                )
        try:
            msr = mean_square_tip_rate(self)
        except OverflowError:
            msr = math.inf
        if not math.isfinite(msr):
            raise ConfigError(f"mean-square tip rate is not finite at {self.frequency:.6g} Hz")


@dataclass(frozen=True)
class HydroFit:
    k_thrust: float
    k_drag: float
    mass: float


@dataclass(frozen=True)
class SwimResult:
    v_steady: float
    time: np.ndarray
    v_trace: np.ndarray
    accel0: float
    speed_BL_s: float


def waveform_series(w: Waveform, dt: float, T: float):
    """Sampled (time, psi, psi_dot).

    The bistable pattern dwells at -amplitude, ramps linearly to +amplitude
    over snap_time, dwells, and ramps back: two transitions per period with
    peak rate 2*amplitude/snap_time.
    """
    limit = 1.0 / (50.0 * w.frequency)
    if w.kind == "bistable":
        limit = min(limit, w.snap_time / 10.0)
    if dt > limit:
        raise DtTooLarge(f"dt = {dt:.3g} s too coarse; need dt <= {limit:.3g} s")
    t = np.arange(0.0, T + 0.5 * dt, dt)
    if w.kind == "sinusoid":
        omega = 2.0 * math.pi * w.frequency
        return t, w.amplitude * np.sin(omega * t), w.amplitude * omega * np.cos(omega * t)

    period = 1.0 / w.frequency
    ts = w.snap_time
    rate = 2.0 * w.amplitude / ts
    u = np.mod(t, period)
    psi = np.empty_like(t)
    dpsi = np.zeros_like(t)
    half = 0.5 * period
    ramp1 = u < ts
    dwell1 = (u >= ts) & (u < half)
    ramp2 = (u >= half) & (u < half + ts)
    psi[ramp1] = -w.amplitude + rate * u[ramp1]
    dpsi[ramp1] = rate
    psi[dwell1] = w.amplitude
    psi[ramp2] = w.amplitude - rate * (u[ramp2] - half)
    dpsi[ramp2] = -rate
    rest = ~(ramp1 | dwell1 | ramp2)
    psi[rest] = -w.amplitude
    return t, psi, dpsi


def mean_square_tip_rate(w: Waveform) -> float:
    """Cycle-averaged psi_dot^2 in (rad/s)^2, closed form."""
    if w.kind == "sinusoid":
        return (2.0 * math.pi * w.frequency * w.amplitude) ** 2 / 2.0
    # two linear ramps per period, each of duration snap_time
    rate = 2.0 * w.amplitude / w.snap_time
    return rate**2 * (2.0 * w.frequency * w.snap_time)


def fit_hydro(
    reference_waveform: Waveform,
    reference_speed: float,
    mass: float,
    k_drag: float = DEFAULT_K_DRAG,
) -> HydroFit:
    """Single-point fit: k_thrust chosen so the reference waveform cruises at
    reference_speed; k_drag is fixed by the documented default split."""
    if not (reference_speed > 0.0):
        raise ConfigError(f"reference speed must be positive, got {reference_speed}")
    if not (mass > 0.0) or not (k_drag > 0.0):
        raise ConfigError("mass and k_drag must be positive")
    msr = mean_square_tip_rate(reference_waveform)
    if msr <= 0.0:
        raise ConfigError("reference waveform has zero mean-square tip rate")
    return HydroFit(k_thrust=k_drag * reference_speed**2 / msr, k_drag=k_drag, mass=mass)


def steady_speed(hydro: HydroFit, msr: float) -> float:
    """Cruise speed at which the thrust k_thrust*msr balances the drag k_drag*v^2."""
    return math.sqrt(hydro.k_thrust * msr / hydro.k_drag)


def cruise_speed(w: Waveform, hydro: HydroFit, T: float, body_length: float) -> SwimResult:
    """Cruise from rest over duration T, sampled at 2001 points.

    The Riccati dynamics have the exact solution
    v(t) = v_steady * tanh(t * sqrt(thrust * k_drag) / mass).
    """
    msr = mean_square_tip_rate(w)
    thrust = hydro.k_thrust * msr
    v_steady = steady_speed(hydro, msr)
    rate = math.sqrt(thrust * hydro.k_drag) / hydro.mass
    if not (math.isfinite(v_steady) and math.isfinite(rate)):
        raise NonFinite("cruise speed or rise rate overflowed")
    n = 2000
    time = (T / n) * np.arange(n + 1)
    return SwimResult(
        v_steady=v_steady,
        time=time,
        v_trace=v_steady * np.tanh(time * rate),
        accel0=thrust * (1.0 / hydro.mass),
        speed_BL_s=v_steady / body_length,
    )


def speed_metrics(distance: float, duration: float, body_length: float) -> dict:
    if distance <= 0.0 or duration <= 0.0 or body_length <= 0.0:
        raise ConfigError("speed_metrics requires positive distance, duration, body length")
    v = distance / duration
    return {"v": v, "BL_s": v / body_length}


# Published comparison points for the frequency-speed table. Speeds are the
# reported values (the corrected literature point is reported only in BL/s
# terms: 85.27 mm/s at a 15 cm body, i.e. 0.57 BL/s). Frequency is blank where
# the source does not state it.
_FIG6_LITERATURE = (
    ("hcm_fish_tethered", 1.3, 26.54, 1.40, True),
    ("reference_fish_tethered", 1.3, 13.10, 0.69, True),
    ("hcm_fish_untethered", 3.0, 43.60, 2.03, False),
    ("literature_corrected", None, 8.527, 0.57, False),
)


def fig6_rows() -> list:
    """The published comparison points as table rows."""
    return [
        {
            "label": label,
            "frequency_hz": f,
            "speed_cm_s": v,
            "speed_bl_s": bl,
            "tethered": tether,
        }
        for (label, f, v, bl, tether) in _FIG6_LITERATURE
    ]


def fig6_to_csv(rows) -> str:
    """Two-decimal fixed formatting to match reporting conventions."""
    out = ["label,frequency_hz,speed_cm_s,speed_bl_s,tethered"]
    for r in rows:
        f = "" if r["frequency_hz"] is None else f"{r['frequency_hz']:g}"
        out.append(
            f"{r['label']},{f},{r['speed_cm_s']:.2f},{r['speed_bl_s']:.2f},"
            f"{'true' if r['tethered'] else 'false'}"
        )
    return "\n".join(out) + "\n"
