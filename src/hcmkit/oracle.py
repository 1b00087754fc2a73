"""Brute-force discrete-ribbon oracle for wells, saddle, and barrier.

The ribbon is discretized as a chain of rigid links joined by elastic hinges
carrying in-plane bending, out-of-plane bending, and twist. The rest state is
the flat kinked blank; assembly pins the two extremity nodes together, which
is enforced by a quadratic penalty whose stiffness is ramped over continuation
stages. Equilibria are found by quasi-Newton (L-BFGS-B) descent from a seeded
out-of-plane perturbation; the saddle is found from the plus well by a second
ramped penalty on the mirror antisymmetry of the node heights about mid-span.
That penalty is soft: the 60-link pneumatic saddle still tips 3.69 deg out of
plane, not 0.

Each joint turns its link into the next by Rz(in-plane bend)*Ry(out-of-plane
bend)*Rx(twist). Forward kinematics writes these joint rotations for all joints
in closed form, then chains them into link frames by a prefix scan of
ceil(log2(n_links)) batched products; the gradient reads each joint's three
rotation axes from the link frames. With no rest kink the wells converge, as
O(1/n_links), to the pinned "teardrop" elastica, whose modulus solves
2E(k) = K(k); the tests use it as the exact reference.

`build_discrete` builds the one dimensionless chain (lengths in l, joint
stiffnesses and energies in EI_eta/l) that `_fk` and `_energy_grad` read.
Every stationary point is one `_solve` through a fixed (pin, mirror) penalty
schedule, reported in SI. Fixed seeds and schedules make it deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# numpy is imported inside the functions that build arrays, so that `import hcmkit`
# and the CLI commands that build none skip its import.

from .core import Material, RibbonGeometry, derive_lengths, section_properties
from .errors import ConfigError, FellToOppositeSide, NoConvergence, TooCoarse

__all__ = [
    "DiscreteRibbon",
    "ChainState",
    "OracleResult",
    "build_discrete",
    "find_equilibrium",
    "find_saddle",
    "oracle_report",
    "nodes_to_csv",
]


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use.

    Only the oracle needs scipy.optimize; importing it costs about 0.35 s and
    20 MB in every process that imports hcmkit.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


# (pin, mirror) penalty stiffness per L-BFGS stage. The mirror pull stretches
# the pin, so the saddle tightens the pin once more before ramping the pull,
# to keep the extremity gap inside GAP_TOL.
PENALTY_STAGES = (1e2, 1e3, 1e4, 1e5, 1e6)
WELL_SCHEDULE = tuple((k, 0.0) for k in PENALTY_STAGES)
SADDLE_SCHEDULE = ((1e6, 0.0), (1e7, 0.0), (1e7, 1e2), (1e7, 1e3), (1e7, 1e4), (1e7, 1e5))
# An energy evaluation costs about 0.5 ms at 1,000 links on a 2-vCPU x86 VM,
# linear in the links, and a report takes over 1.2e4 L-BFGS iterations (16 s
# at 1,000 links), so a much finer chain's report would run for minutes.
MAX_LINKS = 1000
SEED_ANGLE = 4e-3  # rad; out-of-plane mid-span kick, displaces distal half by ~2e-3*l
GAP_TOL = 1e-4  # converged closure gap, in units of l


@dataclass(frozen=True)
class DiscreteRibbon:
    """Dimensionless chain of the discretized blank: l = 1, EI_eta = 1.

    Coordinates per joint are (in-plane bend, out-of-plane bend, twist);
    link 0 is gauge-fixed. The joint stiffnesses k_in, k_out and k_tw are in
    units of EI_eta/l and allocated per joint spacing, so the n_links - 1
    out-of-plane compliances 1/k_out sum to l/EI_eta exactly; rest holds the
    read-only rest in-plane bends. node_positions is the rest (flat kinked)
    blank in meters; l and energy_scale convert lengths and energies to SI.
    """

    n_links: int
    k_in: float
    k_out: float
    k_tw: float
    rest: np.ndarray
    node_positions: np.ndarray
    l: float
    energy_scale: float  # EI_eta / l, joules per unit of dimensionless energy


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


def _fk(q):
    """Link frames R (n, 3, 3), nodes x (n + 1, 3) and the joints' in-plane-bent y axes.

    Joint j turns link j into link j + 1 by Rz(b_in)*Ry(b_out)*Rx(tau); its
    three rotation axes are R[j][:, 2], the returned y[j] and R[j + 1][:, 0].
    R is the inclusive prefix product of the joint rotations, formed by
    doubling the span s of each partial product (Hillis and Steele, 1986).
    """
    import numpy as np

    n = q.size // 3 + 1
    (ca, cb, cc), (sa, sb, sc) = np.cos(q.reshape(3, -1)), np.sin(q.reshape(3, -1))
    R = np.empty((n, 3, 3))
    R[0] = np.eye(3)
    R[1:] = np.stack((ca * cb, ca * sb * sc - sa * cc, ca * sb * cc + sa * sc,
                      sa * cb, sa * sb * sc + ca * cc, sa * sb * cc - ca * sc,
                      -sb, cb * sc, cb * cc), axis=-1).reshape(-1, 3, 3)
    s = 1
    while s < n:
        R[s:] = R[:-s] @ R[s:]
        s *= 2
    y = ca[:, None] * R[:-1, :, 1] - sa[:, None] * R[:-1, :, 0]
    x = np.zeros((n + 1, 3))
    np.cumsum(R[:, :, 0] * (1.0 / n), axis=0, out=x[1:])
    return R, x, y


def _energy_grad(ribbon: DiscreteRibbon, q, k_pen, k_sad=0.0):
    """Elastic + penalty energy and its analytic gradient.

    Returns (E, elastic part of E, gradient, end gap, R, x). The pin penalty
    couples every joint to the end gap through the lever arm from that
    joint's node to the last node; the saddle penalty sums z-antisymmetry
    residuals, whose joint gradients collapse to suffix sums over node
    coefficients.
    """
    import numpy as np

    n = ribbon.n_links
    m = n - 1
    k_in, k_out, k_tw = ribbon.k_in, ribbon.k_out, ribbon.k_tw
    R, x, y = _fk(q)
    b_in, b_out, tau = q.reshape(3, m)
    d_in = b_in - ribbon.rest
    Em = 0.5 * (k_in * d_in @ d_in + k_out * b_out @ b_out + k_tw * tau @ tau)
    g = np.array([k_in * d_in, k_out * b_out, k_tw * tau])

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
    g[0] += np.einsum("mi,mi->m", R[:-1, :, 2], lever)
    g[1] += np.einsum("mi,mi->m", y, lever)
    g[2] += np.einsum("mi,mi->m", R[1:, :, 0], lever)
    return E, Em, g.reshape(-1), gap, R, x


def _solve(ribbon: DiscreteRibbon, q, schedule, what: str) -> ChainState:
    """Minimize from q through the (k_pen, k_sad) stages of schedule; the
    state in SI, with the iterations of all stages, or NoConvergence naming what."""
    import numpy as np

    total_it = 0
    ok = True
    for kp, ks in schedule:

        def fun(qq, _kp=kp, _ks=ks):
            out = _energy_grad(ribbon, qq, _kp, _ks)
            return out[0], out[2]

        res = minimize(
            fun, q, jac=True, method="L-BFGS-B", options=dict(maxiter=40000, ftol=1e-16, gtol=1e-10)
        )
        q = res.x
        total_it += int(res.nit)
        # L-BFGS-B often ends in a line-search stall once the gradient is
        # tiny relative to the joint stiffness scale (k ~ 1e2..1e5); a
        # residual of 1e-3 bounds the energy error near 1e-8.
        ok = ok and (res.success or float(np.max(np.abs(res.jac))) < 1e-3)
    if not ok:
        raise NoConvergence(f"{what} failed")
    _, Em, _, gap, R, x = _energy_grad(ribbon, q, 0.0)
    gap_norm = float(np.linalg.norm(gap))
    return ChainState(
        q=q,
        energy=Em * ribbon.energy_scale,
        psi_tip=math.asin(max(-1.0, min(1.0, R[-1][2, 0]))),
        gap=gap_norm * ribbon.l,
        iterations=total_it,
        converged=gap_norm <= GAP_TOL,
        node_positions=x * ribbon.l,
    )


def build_discrete(geom: RibbonGeometry, mat: Material, n_links: int = 60) -> DiscreteRibbon:
    """Discretize the flat kinked blank into n_links equal links.

    The kink lands on the joint nearest arclength L1 from the core end; with
    generic n_links this snaps the kink to the grid (at n_links = 60 and
    gamma_s = 6 the snap is 0.625 mm on an 87.5 mm half-length).
    """
    import numpy as np

    if n_links < 20:
        raise TooCoarse(f"n_links must be at least 20, got {n_links}")
    if n_links > MAX_LINKS:
        raise ConfigError(f"n_links must be at most {MAX_LINKS}, got {n_links}")
    l = derive_lengths(geom)["l"]
    EI_eta = mat.E * section_properties(geom, mat).I_eta

    kink_node = int(round(n_links / (1.0 + geom.gamma_s)))
    kink_node = min(max(kink_node, 1), n_links - 1)
    m = n_links - 1
    rest = np.zeros(m)
    rest[kink_node - 1] = geom.theta
    rest.flags.writeable = False
    _, x, _ = _fk(np.concatenate((rest, np.zeros(2 * m))))
    ku = float(m)
    return DiscreteRibbon(
        n_links=n_links,
        k_in=ku * (geom.h / geom.t) ** 2,
        k_out=ku,
        k_tw=ku * 2.0 / (1.0 + mat.nu),
        rest=rest,
        node_positions=x * l,
        l=l,
        energy_scale=EI_eta / l,
    )


def find_equilibrium(ribbon: DiscreteRibbon, side: str) -> ChainState:
    """Minimize from the blank, seeded out-of-plane on the requested side."""
    import numpy as np

    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    sign = 1.0 if side == "plus" else -1.0
    m = ribbon.n_links - 1
    q = np.zeros(3 * m)
    q[:m] = ribbon.rest
    q[m + m // 2] = math.copysign(SEED_ANGLE, sign)
    state = _solve(ribbon, q, WELL_SCHEDULE, f"equilibrium solve on side {side}")
    if state.psi_tip != 0.0 and math.copysign(1.0, state.psi_tip) != sign:
        raise FellToOppositeSide(f"seeded {side} but settled at psi_tip = {state.psi_tip:.4g} rad")
    return state


def find_saddle(ribbon: DiscreteRibbon, well: ChainState) -> ChainState:
    """Lowest mirror-symmetric configuration, reached by ramping the
    z-antisymmetry penalty from the plus-side well. Its iterations are the
    saddle solve's own, not the well's."""
    return _solve(ribbon, well.q, SADDLE_SCHEDULE, "saddle solve")


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


def nodes_to_csv(state: ChainState) -> str:
    lines = ["node_index,x_m,y_m,z_m"]
    for i, p in enumerate(state.node_positions):
        lines.append(f"{i},{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    return "\n".join(lines) + "\n"
