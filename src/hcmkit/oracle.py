"""Brute-force discrete-ribbon oracle for wells, saddle, and barrier.

The ribbon is discretized as a chain of rigid links joined by elastic hinges
carrying in-plane bending, out-of-plane bending, and twist. The rest state is
the flat kinked blank; assembly pins the two extremity nodes together, which
is enforced by a quadratic penalty whose stiffness is ramped over continuation
stages. Equilibria are found by quasi-Newton (L-BFGS-B) descent from a seeded
out-of-plane perturbation; the saddle is found by restricting to the
mirror-symmetric subspace (out-of-plane coordinates reflected about mid-span,
which with the clamped base link forces psi_tip = 0) via a second ramped
penalty.

Internally everything is dimensionless (lengths in l, energies in EI_eta/l);
results are reported in SI. The solve path is deterministic: fixed seeds,
fixed stage schedules, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import Material, RibbonGeometry, derive_lengths, section_properties
from .errors import FellToOppositeSide, NoConvergence, TooCoarse

__all__ = [
    "DiscreteRibbon",
    "ChainState",
    "OracleResult",
    "build_discrete",
    "find_equilibrium",
    "find_saddle",
    "oracle_report",
    "gradient_check",
    "nodes_to_csv",
]

PENALTY_STAGES = (1e2, 1e3, 1e4, 1e5, 1e6)
SADDLE_STAGES = (1e2, 1e3, 1e4, 1e5)
SEED_ANGLE = 4e-3  # rad; out-of-plane mid-span kick, displaces distal half by ~2e-3*l
GAP_TOL = 1e-4  # converged closure gap, in units of l


def _rotz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _roty(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rotx(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


@dataclass(frozen=True)
class DiscreteRibbon:
    """Discretized blank plus hinge stiffness.

    node_positions describe the rest (flat kinked) blank in meters; the
    out-of-plane joint stiffness is in N*m/rad and is allocated per joint
    spacing, so sum(1/k_bend_out) over the n_links-1 joints equals l/EI_eta
    exactly.
    """

    n_links: int
    link_length: float
    node_positions: np.ndarray
    k_bend_out: float
    rest_kink_index: int
    rest_kink_angle: float
    l: float
    energy_scale: float  # EI_eta / l, joules per unit of dimensionless energy
    h_over_t: float
    nu: float


@dataclass
class ChainState:
    """A converged chain configuration in SI units."""

    q: np.ndarray
    energy: float
    psi_tip: float
    gap: float
    iterations: int
    converged: bool
    node_positions: np.ndarray


@dataclass(frozen=True)
class OracleResult:
    U_min: float
    U_saddle: float
    barrier: float
    psi_tip: float
    converged: bool
    iterations: int


class _Solver:
    """Dimensionless chain: l = 1, EI_eta = 1. Coordinates per joint are
    (in-plane bend, out-of-plane bend, twist); link 0 is gauge-fixed."""

    def __init__(self, ribbon: DiscreteRibbon):
        n = ribbon.n_links
        self.n = n
        self.m = n - 1
        self.dl = 1.0 / n
        ku = float(n - 1)
        self.k_in = ku * ribbon.h_over_t**2
        self.k_out = ku
        self.k_tw = ku * 2.0 / (1.0 + ribbon.nu)
        self.rest = np.zeros(self.m)
        self.rest[ribbon.rest_kink_index] = ribbon.rest_kink_angle

    def fk(self, q):
        m = self.m
        b_in = q[:m]
        b_out = q[m : 2 * m]
        tau = q[2 * m :]
        R = np.empty((self.n, 3, 3))
        R[0] = np.eye(3)
        axes = np.empty((m, 3, 3))
        for j in range(m):
            Rp = R[j]
            axes[j, 0] = Rp[:, 2]
            Rz = Rp @ _rotz(b_in[j])
            axes[j, 1] = Rz[:, 1]
            Rj = Rz @ _roty(b_out[j]) @ _rotx(tau[j])
            axes[j, 2] = Rj[:, 0]
            R[j + 1] = Rj
        x = np.empty((self.n + 1, 3))
        x[0] = 0.0
        np.cumsum(R[:, :, 0] * self.dl, axis=0, out=x[1:])
        return R, x, axes

    def energy_grad(self, q, k_pen, k_sad=0.0):
        """Elastic + penalty energy and its analytic gradient.

        The pin penalty couples every joint to the end gap through the lever
        arm from that joint's node to the last node; the saddle penalty sums
        z-antisymmetry residuals, whose joint gradients collapse to suffix
        sums over node coefficients.
        """
        m, n = self.m, self.n
        R, x, axes = self.fk(q)
        b_in = q[:m]
        b_out = q[m : 2 * m]
        tau = q[2 * m :]
        d_in = b_in - self.rest
        Em = 0.5 * (
            self.k_in * d_in @ d_in + self.k_out * b_out @ b_out + self.k_tw * tau @ tau
        )
        g = np.empty((3, m))
        g[0] = self.k_in * d_in
        g[1] = self.k_out * b_out
        g[2] = self.k_tw * tau

        gap = x[n] - x[0]
        E = Em + 0.5 * k_pen * gap @ gap

        csad = np.zeros(n + 1)
        if k_sad != 0.0:
            zs = x[1:n, 2]
            sv = zs + zs[::-1]
            E += 0.25 * k_sad * (sv @ sv)
            csad[1:n] = k_sad * sv

        f_pen = k_pen * gap
        p_all = x[1:n]  # joint j pivots at node j+1
        lever = np.cross(x[n] - p_all, f_pen)
        if k_sad != 0.0:
            # suffix sums over nodes i >= j+2 of csad_i*x_i and csad_i
            cs = csad[:, None] * x
            S1 = np.cumsum(cs[::-1], axis=0)[::-1]
            S0 = np.cumsum(csad[::-1])[::-1]
            zhat = np.array([0.0, 0.0, 1.0])
            Sx = S1[2 : n + 1] - S0[2 : n + 1, None] * p_all
            lever = lever + np.cross(Sx, zhat)
        g[0] += np.einsum("mi,mi->m", axes[:, 0], lever)
        g[1] += np.einsum("mi,mi->m", axes[:, 1], lever)
        g[2] += np.einsum("mi,mi->m", axes[:, 2], lever)
        return E, Em, g.reshape(-1), gap, R, x

    def solve(self, q0, kp_stages, ks_stages=()):
        """Staged minimization: ramp the pin penalty, then the saddle penalty."""
        q = np.array(q0, dtype=float)
        total_it = 0
        ok = True
        schedule = [(kp, 0.0) for kp in kp_stages]
        if ks_stages:
            schedule += [(kp_stages[-1], ks) for ks in ks_stages]
        for kp, ks in schedule:

            def fun(qq, _kp=kp, _ks=ks):
                out = self.energy_grad(qq, _kp, _ks)
                return out[0], out[2]

            res = minimize(
                fun,
                q,
                jac=True,
                method="L-BFGS-B",
                options=dict(maxiter=40000, ftol=1e-16, gtol=1e-10),
            )
            q = res.x
            total_it += int(res.nit)
            # L-BFGS-B often ends in a line-search stall once the gradient is
            # tiny relative to the joint stiffness scale (k ~ 1e2..1e5); a
            # residual of 1e-3 bounds the energy error near 1e-8.
            ok = ok and (res.success or float(np.max(np.abs(res.jac))) < 1e-3)
        return q, total_it, ok

    def seed_blank(self, sign):
        q = np.zeros(3 * self.m)
        q[: self.m] = self.rest
        q[self.m + self.m // 2] += math.copysign(SEED_ANGLE, sign)
        return q

    def tip_angle(self, R):
        return math.asin(max(-1.0, min(1.0, R[-1][2, 0])))


def build_discrete(geom: RibbonGeometry, mat: Material, n_links: int = 60) -> DiscreteRibbon:
    """Discretize the flat kinked blank into n_links equal links.

    The kink lands on the joint nearest arclength L1 from the core end; with
    generic n_links this snaps the kink to the grid (at n_links = 60 and
    gamma_s = 6 the snap is 0.625 mm on an 87.5 mm half-length).
    """
    if n_links < 20:
        raise TooCoarse(f"n_links must be at least 20, got {n_links}")
    lengths = derive_lengths(geom)
    l = lengths["l"]
    sec = section_properties(geom, mat)
    EI_eta = mat.E * sec.I_eta

    kink_node = int(round(n_links / (1.0 + geom.gamma_s)))
    kink_node = min(max(kink_node, 1), n_links - 1)

    ribbon = DiscreteRibbon(
        n_links=n_links,
        link_length=l / n_links,
        node_positions=np.zeros((n_links + 1, 3)),
        k_bend_out=EI_eta * ((n_links - 1) / l),
        rest_kink_index=kink_node - 1,
        rest_kink_angle=geom.theta,
        l=l,
        energy_scale=EI_eta / l,
        h_over_t=geom.h / geom.t,
        nu=mat.nu,
    )
    solver = _Solver(ribbon)
    q_rest = np.zeros(3 * solver.m)
    q_rest[: solver.m] = solver.rest
    _, x, _ = solver.fk(q_rest)
    ribbon.node_positions[:] = x * l
    return ribbon


def _state_from(ribbon: DiscreteRibbon, solver: _Solver, q, iterations, ok) -> ChainState:
    E, Em, _, gap, R, x = solver.energy_grad(q, PENALTY_STAGES[-1], 0.0)
    gap_norm = float(np.linalg.norm(gap))
    return ChainState(
        q=q,
        energy=Em * ribbon.energy_scale,
        psi_tip=solver.tip_angle(R),
        gap=gap_norm * ribbon.l,
        iterations=iterations,
        converged=ok and gap_norm <= GAP_TOL,
        node_positions=x * ribbon.l,
    )


def find_equilibrium(ribbon: DiscreteRibbon, side: str) -> ChainState:
    """Minimize from the blank, seeded out-of-plane on the requested side."""
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    sign = 1.0 if side == "plus" else -1.0
    solver = _Solver(ribbon)
    q, nit, ok = solver.solve(solver.seed_blank(sign), PENALTY_STAGES)
    state = _state_from(ribbon, solver, q, nit, ok)
    if not ok:
        raise NoConvergence(f"equilibrium solve failed on side {side}")
    if state.psi_tip != 0.0 and math.copysign(1.0, state.psi_tip) != sign:
        raise FellToOppositeSide(
            f"seeded {side} but settled at psi_tip = {state.psi_tip:.4g} rad"
        )
    return state


def find_saddle(ribbon: DiscreteRibbon, well: ChainState) -> ChainState:
    """Lowest mirror-symmetric configuration, reached by ramping the
    z-antisymmetry penalty from the plus-side well."""
    solver = _Solver(ribbon)
    # The antisymmetry pull stretches the pin, so the pin gets one extra
    # tightening stage to keep the extremity gap inside the 1e-4*l budget.
    pin_stages = (PENALTY_STAGES[-1], 10.0 * PENALTY_STAGES[-1])
    q, nit, ok = solver.solve(well.q, pin_stages, SADDLE_STAGES)
    state = _state_from(ribbon, solver, q, well.iterations + nit, ok)
    if not ok:
        raise NoConvergence("saddle solve failed")
    return state


def oracle_report(geom: RibbonGeometry, mat: Material, n_links: int = 60) -> OracleResult:
    """Wells on both sides plus the saddle; barrier = U_saddle - U_min >= 0."""
    ribbon = build_discrete(geom, mat, n_links)
    plus = find_equilibrium(ribbon, "plus")
    minus = find_equilibrium(ribbon, "minus")
    saddle = find_saddle(ribbon, well=plus)
    U_min = min(plus.energy, minus.energy)
    return OracleResult(
        U_min=U_min,
        U_saddle=saddle.energy,
        barrier=saddle.energy - U_min,
        psi_tip=abs(plus.psi_tip),
        converged=plus.converged and minus.converged and saddle.converged,
        iterations=plus.iterations + minus.iterations + saddle.iterations,
    )


def gradient_check(
    ribbon: DiscreteRibbon, n_configs: int = 10, k_pen: float = 1e4, k_sad: float = 1e3
) -> float:
    """Max relative error of the analytic gradient against central differences
    at random configurations (fixed RNG seed; deterministic)."""
    solver = _Solver(ribbon)
    rng = np.random.default_rng(0)
    worst = 0.0
    eps = 1e-7
    for _ in range(n_configs):
        q = 0.2 * rng.standard_normal(3 * solver.m)
        _, _, g, _, _, _ = solver.energy_grad(q, k_pen, k_sad)
        for i in rng.choice(3 * solver.m, 5, replace=False):
            qp = q.copy()
            qp[i] += eps
            qm = q.copy()
            qm[i] -= eps
            fd = (
                solver.energy_grad(qp, k_pen, k_sad)[0]
                - solver.energy_grad(qm, k_pen, k_sad)[0]
            ) / (2.0 * eps)
            worst = max(worst, abs(fd - g[i]) / max(1.0, abs(fd)))
    return worst


def nodes_to_csv(state: ChainState) -> str:
    lines = ["node_index,x_m,y_m,z_m"]
    for i, p in enumerate(state.node_positions):
        lines.append(f"{i},{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    return "\n".join(lines) + "\n"
