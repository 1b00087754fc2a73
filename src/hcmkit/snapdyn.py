"""A single-DOF double-well snap simulator.

The reduced model is a quartic double well in the tip angle psi,

    U(psi) = U_barr * ((psi/psi_eq)^2 - 1)^2,

the minimal smooth potential with two equal wells at +-psi_eq separated by a
barrier U_barr. The tip angle carries an effective rotational inertia I_eff
and linear damping c = 2*zeta*sqrt(I_eff * U''(psi_eq)), with zeta the
medium's damping ratio relative to the small-oscillation well frequency.

With x = psi/psi_eq and s = omega_well*t the equation of motion reads
x'' = x*(1 - x^2)/2 - 2*zeta*x', with no design parameter in it. One
fixed-step RK4 kernel integrates that form, so traces are bit-reproducible,
and every trace is its unit solution scaled to the design. A triggered snap
starts from the same unit state for every design, so its unit solution
depends on zeta alone; those of the preset damping ratios are kept.

A damped solution settles in a well, where the float64 RK4 step ends up
mapping the state onto itself exactly. The kernel stops there and copies that
state into the remaining samples, which is what the further steps would have
computed; an undamped or lightly damped snap runs every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# numpy is imported inside the functions that build arrays, so that `import hcmkit`
# and the CLI commands that build none skip its import.

from .core import Material, RibbonGeometry, derive_lengths
from .errors import NoCrossing, NonFinite, StepTooLarge

__all__ = [
    "DoubleWell",
    "SnapTrace",
    "DAMPING_PRESETS",
    "MAX_ZETA",
    "effective_inertia",
    "simulate_snap",
    "snap_duration",
    "triggered_snap",
]

# Damping ratios per medium, overridable through config. Water is set so the
# triggered-snap water/air duration ratio lands near the measured ~2.9x
# (17 ms in air vs 50 ms in water); 0.5 puts the ratio just under 2.
DAMPING_PRESETS = {"air": 0.05, "water": 0.8}

# Most RK4 steps simulate_snap takes: a trace holds five float64 arrays of
# steps + 1 samples, 40 MB at this cap. A triggered snap takes 240,000.
MAX_SNAP_STEPS = 1_000_000


@dataclass(frozen=True)
class DoubleWell:
    U_barr: float
    psi_eq: float
    I_eff: float
    zeta: float

    @property
    def omega_well(self) -> float:
        """Small-oscillation angular frequency about either well."""
        return math.sqrt(8.0 * self.U_barr / (self.I_eff * self.psi_eq**2))


@dataclass(frozen=True)
class SnapTrace:
    time: np.ndarray
    psi: np.ndarray
    psi_dot: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray


def effective_inertia(geom: RibbonGeometry, mat: Material) -> float:
    """Slender-strip inertia about the pinned end: rho*h*t*l^3/3."""
    l = derive_lengths(geom)["l"]
    return mat.rho * geom.h * geom.t * l**3 / 3.0


def _rk4(zeta: float, x0: float, v0: float, ds: float, n: int):
    """n fixed RK4 steps of ds on x'' = 0.5*x*(1 - x^2) - 2*zeta*x' from (x0, v0).

    Returns the n+1 samples of x and x' as float64 arrays.

    The loop stops at the first step that maps the state onto itself
    (x and x' both unchanged) and fills the remaining samples with that
    state. The step is a pure function of (x, x'), so every later step would
    return the same state again: the samples equal those of the full loop.
    A damped snap reaches such a state in its well; a NaN state never
    compares equal, so an overflow still runs to the last sample.
    """
    import numpy as np

    x = np.empty(n + 1)
    v = np.empty(n + 1)
    xs = memoryview(x)
    vs = memoryview(v)
    xs[0] = p = x0
    vs[0] = q = v0
    c = 2.0 * zeta
    h = 0.5 * ds
    w = ds / 6.0
    for i in range(1, n + 1):
        a1 = 0.5 * p * (1.0 - p * p) - c * q
        p2 = p + h * q
        q2 = q + h * a1
        a2 = 0.5 * p2 * (1.0 - p2 * p2) - c * q2
        p3 = p + h * q2
        q3 = q + h * a2
        a3 = 0.5 * p3 * (1.0 - p3 * p3) - c * q3
        p4 = p + ds * q3
        q4 = q + ds * a3
        a4 = 0.5 * p4 * (1.0 - p4 * p4) - c * q4
        pn = p + w * (q + 2.0 * (q2 + q3) + q4)
        qn = q + w * (a1 + 2.0 * (a2 + a3) + a4)
        xs[i] = pn
        vs[i] = qn
        if pn == p and qn == q:
            x[i + 1 :] = pn
            v[i + 1 :] = qn
            break
        p = pn
        q = qn
    return x, v


def _omega_well(well: DoubleWell) -> float:
    """well.omega_well; NonFinite if it is not positive and finite, as no time step could follow."""
    try:
        omega = well.omega_well
    except ZeroDivisionError:  # I_eff*psi_eq^2 underflowed to 0
        omega = math.inf
    if not 0.0 < omega < math.inf:
        raise NonFinite(f"omega_well = {omega:.6g} rad/s is not positive and finite")
    return omega


def _scaled_trace(well: DoubleWell, x: np.ndarray, v: np.ndarray, dt: float) -> SnapTrace:
    """SnapTrace of the unit solution (x, x') sampled every dt seconds.

    psi and psi_dot are written over x and v unless those are read-only.
    Raises NonFinite on overflow and, for zeta = 0, StepTooLarge if the total
    energy drifts more than 5% of U_barr.
    """
    import numpy as np

    if not (math.isfinite(x[-1]) and math.isfinite(v[-1])):
        raise NonFinite("snap integration overflowed; reduce dt")
    U = well.U_barr
    # 0.5*I_eff*psi_dot^2 = 4*U_barr*v^2, since I_eff*omega^2*psi_eq^2 = 8*U_barr.
    kinetic = np.square(v)
    kinetic *= 4.0 * U
    potential = np.square(x)
    potential -= 1.0
    np.square(potential, out=potential)
    potential *= U
    if well.zeta == 0.0:
        energy = kinetic + potential
        drift = np.max(np.abs(energy - energy[0]))
        if drift > 0.05 * U:
            raise StepTooLarge(f"undamped energy drift {drift / U:.3g} of U_barr exceeds 5%")
    omega = well.omega_well
    psi = np.multiply(x, well.psi_eq, out=x if x.flags.writeable else None)
    psi_dot = np.multiply(v, omega * well.psi_eq, out=v if v.flags.writeable else None)
    time = np.arange(x.size, dtype=np.float64)
    time *= dt
    return SnapTrace(time=time, psi=psi, psi_dot=psi_dot, kinetic=kinetic, potential=potential)


def simulate_snap(
    well: DoubleWell, psi0: float, psi_dot0: float, dt: float, T: float
) -> SnapTrace:
    """Integrate I_eff*psi'' = -U'(psi) - c*psi_dot from (psi0, psi_dot0).

    Runs the dimensionless kernel from x0 = psi0/psi_eq, v0 =
    psi_dot0/(omega_well*psi_eq) with step omega_well*dt, and scales the
    samples back. Raises StepTooLarge if an undamped run drifts more than 5%
    of U_barr in total energy, NonFinite on overflow or for an omega_well
    that is not positive and finite, and ValueError for a dt
    that is not positive and finite, a T that is not finite, or more than
    MAX_SNAP_STEPS steps.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    if abs(T / dt) > MAX_SNAP_STEPS:
        raise ValueError(
            f"T must span at most {MAX_SNAP_STEPS} steps of dt, got T = {T}, dt = {dt}"
        )
    n = int(round(T / dt))
    if n < 10:
        raise ValueError("T must cover at least 10 steps")
    omega = _omega_well(well)
    x, v = _rk4(well.zeta, psi0 / well.psi_eq, psi_dot0 / (omega * well.psi_eq), omega * dt, n)
    return _scaled_trace(well, x, v, dt)


def _first_crossing(psi: np.ndarray, level: float) -> int:
    """Index j of the first sample pair with psi[j] and psi[j+1] on opposite
    sides of level, or either one on it."""
    import numpy as np

    le = psi <= level
    ge = psi >= level
    hit = le[:-1] & ge[1:]
    hit |= ge[:-1] & le[1:]
    j = int(np.argmax(hit))
    if not hit[j]:
        raise NoCrossing(f"trace never reached level {level:.6g}")
    return j


def snap_duration(trace: SnapTrace, psi_eq: float) -> float:
    """10-90% travel time from the trace start to the destination well.

    Travel runs from psi(0) to the well the trace settles in; the duration is
    the time between the first crossings of the 10% and 90% levels, linearly
    interpolated between samples. Raises NoCrossing for traces that end on
    their starting side (never left the starting well).
    """
    import numpy as np

    psi = trace.psi
    t = trace.time
    # Destination well: side of the last sample well clear of the barrier top
    # (final sample alone can sit mid-oscillation near zero).
    clear = psi >= 0.5 * psi_eq
    clear |= psi <= -0.5 * psi_eq
    last = clear.size - 1 - int(np.argmax(clear[::-1]))
    ref = psi[last] if clear[last] else psi[-1]
    if math.copysign(1.0, ref) == math.copysign(1.0, psi[0]):
        raise NoCrossing("trace never left the starting well")
    dest = math.copysign(psi_eq, ref)
    travel = dest - psi[0]

    def crossing_time(level: float) -> float:
        j = _first_crossing(psi, level)
        if psi[j + 1] == psi[j]:
            return t[j]
        return t[j] + (level - psi[j]) / (psi[j + 1] - psi[j]) * (t[j + 1] - t[j])

    return crossing_time(psi[0] + 0.9 * travel) - crossing_time(psi[0] + 0.1 * travel)


# The unit snap: the start a triggered snap has in units of psi_eq and
# omega_well, 2000 steps per well period over 120 periods.
_UNIT_X0 = -1e-3
_UNIT_V0 = 1e-2
_UNIT_DS = 2.0 * math.pi / 2000
_UNIT_STEPS = 240_000

# Largest damping ratio the unit step integrates stably: the overdamped fast
# mode decays at rate 2*zeta, and RK4 is stable on the real axis out to
# |lambda*ds| = 2.785.
MAX_ZETA = 2.785 / (2.0 * _UNIT_DS)

# Read-only unit snaps (x, x') of the preset damping ratios, filled on first
# use. Its keys are DAMPING_PRESETS' values, so it holds at most two entries
# (7.7 MB); every other zeta is integrated on each call.
_PRESET_SNAPS: dict[float, tuple[np.ndarray, np.ndarray]] = {}


def triggered_snap(well: DoubleWell) -> SnapTrace:
    """Snap trace for a just-triggered transition, 2000 steps per well period
    over 120 periods.

    The actuator is modeled as having pushed the tip quasi-statically to just
    below the barrier top; the trace starts at psi = -1e-3*psi_eq moving
    toward the far well at 1e-2*omega_well*psi_eq (kinetic energy 4e-4*U_barr,
    negligible against the barrier), crosses psi = 0, and falls into +psi_eq.

    In x = psi/psi_eq and s = omega_well*t that start and the equation of
    motion hold no design parameter, so the unit snap depends on zeta alone:
    it is integrated once per call, or once per process for a preset zeta,
    and scaled to the design. Raises NonFinite if omega_well is not positive
    and finite.
    """
    omega = _omega_well(well)
    xv = _PRESET_SNAPS.get(well.zeta)
    if xv is None:
        xv = _rk4(well.zeta, _UNIT_X0, _UNIT_V0, _UNIT_DS, _UNIT_STEPS)
        if well.zeta in DAMPING_PRESETS.values():
            for a in xv:
                a.flags.writeable = False
            _PRESET_SNAPS[well.zeta] = xv
    return _scaled_trace(well, *xv, _UNIT_DS / omega)
