import dataclasses
import functools
import math

import numpy as np
import pytest

from hcmkit import core, oracle
from hcmkit.errors import TooCoarse

from conftest import gradient_check

# Dimensionless chain energies (units of EI_eta/l) for the 60-link pneumatic
# build, frozen from the first converged run of this solver.
WELL_ND = 13.8177
SADDLE_ND = 18.0249
BARRIER_ND = 4.2072
TIP_DEG = 81.27


def nd(state_energy, ribbon):
    return state_energy / ribbon.energy_scale


def test_build_discretization(pneumatic_ribbon, pneumatic_geom):
    rib = pneumatic_ribbon
    assert rib.n_links == 60
    assert abs(rib.l - 87.5e-3) < 1e-15
    # kink snaps to the nearest joint: node 9 of 60 (13.125 mm vs true 12.5 mm)
    # the rest in-plane bends hold the kink theta alone and cannot be written
    assert rib.rest[8] == pneumatic_geom.theta and not rib.rest.flags.writeable
    assert np.count_nonzero(np.delete(rib.rest, 8)) == 0
    assert abs(rib.energy_scale - 1.3668567132857142e-3) < 1e-15
    # rest blank is planar and kinked at the snap node
    z = rib.node_positions[:, 2]
    assert np.max(np.abs(z)) == 0.0
    seg = np.diff(rib.node_positions, axis=0)
    assert abs(np.sum(np.linalg.norm(seg, axis=1)) - 87.5e-3) < 1e-12


def test_joint_stiffness_allocation(pneumatic_ribbon, pneumatic_geom, plastic):
    # sum of out-of-plane joint compliances equals the strip compliance l/EI
    sec = core.section_properties(pneumatic_geom, plastic)
    EI = plastic.E * sec.I_eta
    m = pneumatic_ribbon.n_links - 1
    total_compliance = m * (1.0 / (pneumatic_ribbon.k_out * pneumatic_ribbon.energy_scale))
    assert abs(total_compliance - 87.5e-3 / EI) < 1e-9 * (87.5e-3 / EI)


def test_wells(pneumatic_ribbon, pneumatic_wells):
    plus, minus = pneumatic_wells
    assert plus.converged and minus.converged
    assert abs(nd(plus.energy, pneumatic_ribbon) - WELL_ND) < 1e-3 * WELL_ND
    assert abs(math.degrees(plus.psi_tip) - TIP_DEG) < 0.05
    assert abs(math.degrees(minus.psi_tip) + TIP_DEG) < 0.05
    # pinned extremities must close to within 1e-4 of the half-length
    assert plus.gap < 1e-4 * pneumatic_ribbon.l
    assert minus.gap < 1e-4 * pneumatic_ribbon.l


def test_mirror_degeneracy(pneumatic_ribbon, pneumatic_wells):
    # the minus well is the plus well reflected through the blank's plane, exactly:
    # out-of-plane bends, twists and node heights change sign, nothing else changes
    plus, minus = pneumatic_wells
    m = pneumatic_ribbon.n_links - 1
    q_ref = plus.q.copy()
    q_ref[m:] = -q_ref[m:]
    nodes_ref = plus.node_positions.copy()
    nodes_ref[:, 2] = -nodes_ref[:, 2]
    assert q_ref.tobytes() == minus.q.tobytes()
    # node 0 is the origin; its height flips to -0.0, equal to but not the bytes of 0.0
    assert np.array_equal(nodes_ref, minus.node_positions)
    assert plus.energy == minus.energy and plus.psi_tip == -minus.psi_tip
    assert plus.gap == minus.gap and plus.iterations == minus.iterations


def test_mirror_reflection_is_exact(pneumatic_ribbon, pneumatic_wells):
    # flipping out-of-plane bends and twists reproduces the energy exactly
    plus, _ = pneumatic_wells
    m = pneumatic_ribbon.n_links - 1
    q_ref = plus.q.copy()
    q_ref[m:] = -q_ref[m:]
    E1 = oracle._energy_grad(pneumatic_ribbon, plus.q, 1e6)[1]
    E2 = oracle._energy_grad(pneumatic_ribbon, q_ref, 1e6)[1]
    assert E1 == E2


def test_saddle_and_barrier(pneumatic_ribbon, pneumatic_wells, pneumatic_saddle):
    plus, minus = pneumatic_wells
    saddle = pneumatic_saddle
    assert saddle.converged
    assert saddle.gap < 1e-4 * pneumatic_ribbon.l
    assert abs(nd(saddle.energy, pneumatic_ribbon) - SADDLE_ND) < 1e-3 * SADDLE_ND
    barrier = saddle.energy - min(plus.energy, minus.energy)
    assert barrier >= 0.0
    assert abs(nd(barrier, pneumatic_ribbon) - BARRIER_ND) < 2e-3 * BARRIER_ND
    # the saddle sits between the wells: small tip, not a third well
    assert abs(math.degrees(saddle.psi_tip)) < 10.0


def test_saddle_reports_only_its_own_iterations(monkeypatch, pneumatic_ribbon):
    # oracle_report adds the wells' iterations itself, so a saddle that also
    # carried its starting well's would count that well twice
    well = oracle.ChainState(q=np.zeros(3), energy=0.0, psi_tip=0.0, gap=0.0, iterations=635,
                             converged=True, node_positions=np.zeros((2, 3)))
    monkeypatch.setattr(oracle, "_solve",
                        lambda ribbon, q, schedule, what: dataclasses.replace(well, iterations=7))
    assert oracle.find_saddle(pneumatic_ribbon, well).iterations == 7


def test_gradient_matches_finite_differences(pneumatic_ribbon):
    assert gradient_check(pneumatic_ribbon) < 1e-5


@pytest.mark.parametrize("n_links", [20, 60, oracle.MAX_LINKS])
def test_fk_matches_euler_chain(n_links):
    # reference: each joint's intrinsic z-y'-x'' rotation from scipy, chained link by link
    from scipy.spatial.transform import Rotation

    m = n_links - 1
    q = np.random.default_rng(n_links).uniform(-math.pi, math.pi, 3 * m)
    R, x, y = oracle._fk(q)
    R_ref = [np.eye(3)]
    y_ref = []
    for j in range(m):
        y_ref.append(R_ref[j] @ Rotation.from_euler("Z", q[j]).as_matrix()[:, 1])
        euler = Rotation.from_euler("ZYX", [q[j], q[m + j], q[2 * m + j]])
        R_ref.append(R_ref[j] @ euler.as_matrix())
    R_ref = np.array(R_ref)
    x_ref = np.vstack([np.zeros(3), np.cumsum(R_ref[:, :, 0], axis=0) / n_links])
    assert np.max(np.abs(R - R_ref)) <= 1e-13
    assert np.max(np.abs(x - x_ref)) <= 1e-13
    assert np.max(np.abs(y - np.array(y_ref))) <= 1e-13


@functools.lru_cache(maxsize=None)
def _teardrop():
    """Modulus k, tip angle in degrees and energy in EI/l of the pinned teardrop elastica.

    A strip of length l with both ends pinned to one point is the inflectional
    elastica sin(theta/2) = k*sn(u) between the inflections u = K and 3K
    (Love, Treatise on the Mathematical Theory of Elasticity, ch. XIX; Levien,
    "The elastica: a mathematical history", UCB/EECS-2008-103). The ends meet
    when 2E(k) = K(k).
    """
    import mpmath

    with mpmath.workdps(30):
        k = mpmath.findroot(
            lambda k: 2 * mpmath.ellipe(k**2) - mpmath.ellipk(k**2), (0.8, 0.95), solver="illinois"
        )
        m = k**2
        K = mpmath.ellipk(m)
        ends = [K, 2 * K, 3 * K]
        # dx/ds = cos(theta) = 1 - 2m*sn^2: the ends meet along the load line
        gap = mpmath.quad(lambda u: 1 - 2 * m * mpmath.ellipfun("sn", u, m=m) ** 2, ends)
        energy = 8 * K**2 * (m - 0.5)
        # 0.5*int(theta'^2 ds) with theta' = 2k*alpha*cn(u) and alpha = 2K/l
        quad_energy = 4 * m * K * mpmath.quad(lambda u: mpmath.ellipfun("cn", u, m=m) ** 2, ends)
        # the end tangents sit at +-2*asin(k) from the load line, 360 - 4*asin(k)
        # degrees apart; the chain's asin(sin) tip angle is 180 minus that
        tip = mpmath.degrees(4 * mpmath.asin(k)) - 180
        assert abs(gap) < 1e-25 and abs(quad_energy - energy) < 1e-25
        return float(k), float(tip), float(energy)


def test_teardrop_elastica_reference():
    k, tip, energy = _teardrop()
    assert abs(k - 0.9089085575) < 1e-10
    assert abs(tip - 81.4198214) < 1e-7
    assert abs(energy - 14.0549512) < 1e-7


def test_unkinked_chain_converges_to_teardrop(pneumatic_geom, plastic):
    # at theta = 0 the chain's well is the teardrop loop; its energy error is
    # O(1/n_links), so one Richardson step from 80 and 160 links removes it
    _, tip, energy = _teardrop()
    geom = dataclasses.replace(pneumatic_geom, theta=0.0)
    E, tip_deg = {}, {}
    for n in (80, 160):
        ribbon = oracle.build_discrete(geom, plastic, n)
        well = oracle.find_equilibrium(ribbon, "plus")
        assert well.converged
        E[n] = nd(well.energy, ribbon)
        tip_deg[n] = math.degrees(well.psi_tip)
    assert abs(2.0 * E[160] - E[80] - energy) < 2e-3
    assert abs(tip_deg[160] - tip) < 0.02


def test_report_struct(pneumatic_geom, plastic):
    rep = oracle.oracle_report(pneumatic_geom, plastic, n_links=40)
    assert rep.converged
    assert rep.barrier == rep.U_saddle - rep.U_min
    assert abs(rep.barrier - 0.00596145953174) < 1e-3 * rep.barrier
    assert abs(math.degrees(rep.psi_tip) - 81.1684176245) < 0.05
    assert rep.iterations > 0


def test_mesh_refinement_drift(pneumatic_geom, plastic):
    r80 = oracle.oracle_report(pneumatic_geom, plastic, n_links=80)
    b80 = r80.barrier / oracle.build_discrete(pneumatic_geom, plastic, 80).energy_scale
    b40 = 4.3614  # measured once at n_links=40; report_struct covers the run
    assert abs(b40 / b80 - 1.0) < 0.10


def test_too_coarse(pneumatic_geom, plastic):
    with pytest.raises(TooCoarse):
        oracle.build_discrete(pneumatic_geom, plastic, n_links=10)


def test_bad_side_rejected(pneumatic_ribbon):
    with pytest.raises(ValueError):
        oracle.find_equilibrium(pneumatic_ribbon, side="sideways")


def test_nodes_csv(pneumatic_wells):
    plus, _ = pneumatic_wells
    text = oracle.nodes_to_csv(plus)
    lines = text.strip().split("\n")
    assert lines[0] == "node_index,x_m,y_m,z_m"
    assert len(lines) == 1 + 61
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
