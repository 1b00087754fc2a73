"""Implementation-independent references for the benchmark's output checks.

Every reference here is derived from the model equations, not from hcmkit's
code, so a faster implementation that drifts numerically shows up as a check
miss or as a larger `max_rel_err`:

- P_cr from the exact Mathieu constant of the normalised coupling ODE
  -phi'' = mu*sin^2(pi*s)*phi on [0, 1]:  P_cr = sqrt(mu*GJ*EI)/(l*A),
  A = l*sin(beta)/pi.
- psi_l from its scaling law psi_l ~ (beta/sin beta)*sqrt(GJ/EI_eta),
  anchored at the published 39 deg of the pneumatic design.
- U_barr = 3*P_cr*L2*beta.
- The snap 10-90% duration times omega_well, which depends on zeta alone,
  from an adaptive high-order integration of the dimensionless well.
- The Riccati cruise speed in closed form.
"""

from __future__ import annotations

import math

# mu = 4*pi^2*q where mathieu_b(1, q) = 2q (the se_1 mode with a = 2q);
# test_perfbench checks it against scipy.special.
MATHIEU_MU = 12.98862551737649

# Anchor of the tip-angle scaling law: configs/pneumatic.json at 39 deg.
ANCHOR_PSI_DEG = 39.0
ANCHOR = {"L1": 12.5e-3, "gamma_s": 6.0, "theta": math.radians(-3.0), "h": 15e-3,
          "t": 0.381e-3, "E": 1.73e9, "nu": 0.35}

# Initial state of a triggered snap in units of psi_eq and omega_well.
SNAP_X0 = -1e-3
SNAP_V0 = 1e-2


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def beta(gamma_s: float, theta: float) -> float:
    return math.asin(1.0 / gamma_s) + theta


def _stiffnesses(h, t, E, nu, corrected_torsion):
    I_eta = h * t**3 / 12.0
    J = h * t**3 / 3.0
    if corrected_torsion:
        J *= 1.0 - 0.63 * t / h
    return E / (2.0 * (1.0 + nu)) * J, E * I_eta


def p_cr(L1, gamma_s, theta, h, t, E, nu, corrected_torsion=False) -> float:
    l = L1 * (1.0 + gamma_s)
    GJ, EI = _stiffnesses(h, t, E, nu, corrected_torsion)
    A = l * math.sin(beta(gamma_s, theta)) / math.pi
    return math.sqrt(MATHIEU_MU * GJ * EI) / (l * A)


def _psi_shape(gamma_s, theta, h, t, E, nu, corrected_torsion):
    b = beta(gamma_s, theta)
    GJ, EI = _stiffnesses(h, t, E, nu, corrected_torsion)
    return b / math.sin(b) * math.sqrt(GJ / EI)


def psi_l(L1, gamma_s, theta, h, t, E, nu, corrected_torsion=False) -> float:
    """Calibrated tip angle in radians."""
    a = ANCHOR
    scale = math.radians(ANCHOR_PSI_DEG) / _psi_shape(
        a["gamma_s"], a["theta"], a["h"], a["t"], a["E"], a["nu"], False)
    return scale * _psi_shape(gamma_s, theta, h, t, E, nu, corrected_torsion)


def u_barr(L1, gamma_s, theta, h, t, E, nu, corrected_torsion=False) -> float:
    P = p_cr(L1, gamma_s, theta, h, t, E, nu, corrected_torsion)
    return 3.0 * P * gamma_s * L1 * beta(gamma_s, theta)


def u_barr_unitless(L1, gamma_s, theta, h, t, E, nu, corrected_torsion=False) -> float:
    U = u_barr(L1, gamma_s, theta, h, t, E, nu, corrected_torsion)
    return U * L1 / (E * h * t**3 / 12.0)


def t_star(L1, gamma_s, t, E, rho) -> float:
    two_l = 2.0 * L1 * (1.0 + gamma_s)
    return two_l**2 / (t * math.sqrt(E / rho))


def snap_tau(zeta: float) -> float:
    """omega_well * (10-90% travel time) of a triggered snap at damping ratio zeta.

    With x = psi/psi_eq and s = omega_well*t the double well reads
    x'' = -x(x^2 - 1)/2 - 2*zeta*x', started at (SNAP_X0, SNAP_V0); the snap
    falls into x = +1 for every zeta below ~4.9.
    """
    from scipy.integrate import solve_ivp

    travel = 1.0 - SNAP_X0
    levels = (SNAP_X0 + 0.1 * travel, SNAP_X0 + 0.9 * travel)

    def rhs(_s, y):
        return (y[1], -0.5 * y[0] * (y[0] * y[0] - 1.0) - 2.0 * zeta * y[1])

    events = [lambda _s, y, lv=lv: y[0] - lv for lv in levels]
    events[1].terminal = True
    sol = solve_ivp(rhs, (0.0, 400.0), (SNAP_X0, SNAP_V0), method="DOP853",
                    rtol=1e-12, atol=1e-14, events=events)
    t10, t90 = sol.t_events[0], sol.t_events[1]
    if len(t10) == 0 or len(t90) == 0:
        raise ValueError(f"reference snap at zeta={zeta} never reached the far well")
    return float(t90[0] - t10[0])


def mean_square_rate(kind: str, amplitude: float, frequency: float, snap_time=None) -> float:
    """Cycle average of psi_dot^2 from the waveform definitions."""
    if kind == "sinusoid":
        return (2.0 * math.pi * frequency * amplitude) ** 2 / 2.0
    rate = 2.0 * amplitude / snap_time
    return rate**2 * (2.0 * frequency * snap_time)


def cruise_at(T, k_thrust, k_drag, mass, msr) -> tuple[float, float]:
    """(v_steady, v(T)) of m*v' = k_thrust*msr - k_drag*v^2 from rest."""
    v_s = math.sqrt(k_thrust * msr / k_drag)
    return v_s, v_s * math.tanh(T * math.sqrt(k_thrust * msr * k_drag) / mass)
