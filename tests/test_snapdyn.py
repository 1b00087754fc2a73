import math
import time

import numpy as np
import pytest

from hcmkit import core, postbuckle, snapdyn
from hcmkit.errors import NoCrossing, NonFinite, StepTooLarge


def _well_maker(geom, mat, calibration):
    res = postbuckle.analyze(geom, mat, calibration)
    I_eff = snapdyn.effective_inertia(geom, mat)

    def make(zeta):
        return snapdyn.DoubleWell(U_barr=res.U_barr, psi_eq=res.psi_eq, I_eff=I_eff, zeta=zeta)

    return make


@pytest.fixture(scope="module")
def pneumatic_well(pneumatic_geom, plastic, calibration):
    return _well_maker(pneumatic_geom, plastic, calibration)


@pytest.fixture(scope="module")
def untethered_well(plastic, calibration):
    geom = core.RibbonGeometry(
        L1=29e-3, gamma_s=2.0, theta=math.radians(-23.5), h=15e-3, t=0.762e-3
    )
    return _well_maker(geom, plastic, calibration)


def test_snap_timescales(pneumatic_geom, plastic):
    assert abs(core.snap_timescale(pneumatic_geom, plastic) * 1e3 - 66.94508435832583) < 1e-9

    steel = core.MATERIAL_PRESETS["steel"]
    g_steel = core.RibbonGeometry(
        L1=12.5e-3, gamma_s=6.0, theta=math.radians(-3.0), h=15e-3, t=0.254e-3
    )
    assert abs(core.snap_timescale(g_steel, steel) * 1e3 - 23.887033096746773) < 1e-9

    unt = core.RibbonGeometry(
        L1=29e-3, gamma_s=2.0, theta=math.radians(-23.5), h=15e-3, t=0.762e-3
    )
    assert abs(core.snap_timescale(unt, plastic) * 1e3 - 33.09109182094159) < 1e-9


def test_effective_inertia(pneumatic_geom, plastic):
    I_eff = snapdyn.effective_inertia(pneumatic_geom, plastic)
    assert abs(I_eff - 1.53144140625e-6) < 1e-15
    # rho*h*t*l^3/3 exactly
    l = core.derive_lengths(pneumatic_geom)["l"]
    assert I_eff == plastic.rho * pneumatic_geom.h * pneumatic_geom.t * l**3 / 3.0


def test_well_shape(pneumatic_well):
    # damped, so _scaled_trace applies no energy-drift check to these static states
    well = pneumatic_well(0.05)
    eps = 1e-4
    x = np.array([-1.0, 0.0, 1.0, 1.0 - eps, 1.0 + eps])
    U = snapdyn._scaled_trace(well, x.copy(), np.zeros(x.size), 1.0).potential
    # quartic double well: zero at both minima, U_barr at psi = 0
    assert U[0] == 0.0 and U[2] == 0.0
    assert abs(U[1] - well.U_barr) < 1e-18
    # sqrt(8*U_barr/(I_eff*psi_eq^2)) with the 40-digit U_barr of
    # test_postbuckle.py::test_energy_barrier_reference_values and psi_eq = 39 deg
    assert abs(well.omega_well - 739.8112326317864) < 1e-6
    # curvature consistency: U''(psi_eq) = I_eff*omega_well^2 = 8 U_barr / psi_eq^2
    curv = well.I_eff * well.omega_well**2
    assert abs(curv / (8.0 * well.U_barr / well.psi_eq**2) - 1.0) < 1e-12
    num = (U[3] - 2.0 * U[2] + U[4]) / (eps * well.psi_eq) ** 2
    assert abs(num / curv - 1.0) < 1e-6


def test_energy_conservation_undamped(pneumatic_geom, plastic, pneumatic_well):
    well = pneumatic_well(0.0)
    dt = core.snap_timescale(pneumatic_geom, plastic) / 500.0
    T = 10.0 * 2.0 * math.pi / well.omega_well
    tr = snapdyn.simulate_snap(
        well, psi0=-1e-3 * well.psi_eq, psi_dot0=1e-2 * well.omega_well * well.psi_eq, dt=dt, T=T
    )
    E = tr.kinetic + tr.potential
    assert np.max(np.abs(E - E[0])) / well.U_barr < 1e-3


def _measured_duration(well):
    return snapdyn.snap_duration(snapdyn.triggered_snap(well), well.psi_eq)


def _tau(zeta):
    """omega_well * (10-90% duration) of a triggered snap, on a well with omega_well = 1."""
    return _measured_duration(snapdyn.DoubleWell(U_barr=1.0, psi_eq=1.0, I_eff=8.0, zeta=zeta))


def test_triggered_snap_durations(pneumatic_well):
    air = _measured_duration(pneumatic_well(0.05))
    water = _measured_duration(pneumatic_well(0.8))
    # tau(zeta)/omega_well: the n_grid-257 pins 0.004798878955690383 and
    # 0.013730079297454265 scaled by sqrt(U_barr(257)/U_barr) at 40 digits
    assert abs(air - 0.0047988622320517) < 1e-9
    assert abs(water - 0.013730031449428) < 1e-9
    assert 2.0 <= water / air <= 4.0


def test_damping_presets():
    assert snapdyn.DAMPING_PRESETS["air"] == 0.05
    assert snapdyn.DAMPING_PRESETS["water"] == 0.8


@pytest.mark.xfail(
    strict=True,
    reason="zeta = 0.5 lands at a water/air duration ratio of 1.970, just "
    "below the [2, 4] band; shipped water preset is 0.8 (ratio 2.861). "
    "See the Decisions section of README.md.",
)
def test_half_critical_water_hits_band(pneumatic_well):
    air = _measured_duration(pneumatic_well(0.05))
    water = _measured_duration(pneumatic_well(0.5))
    assert 2.0 <= water / air <= 4.0


@pytest.mark.xfail(
    strict=True,
    reason="the fitted well transits in ~4.8 ms while the material timescale "
    "argument suggests ~67 ms; factor 0.072 is far outside [0.3, 3]. "
    "See the Decisions section of README.md.",
)
def test_air_duration_tracks_material_timescale(pneumatic_geom, plastic, pneumatic_well):
    air = _measured_duration(pneumatic_well(0.05))
    t_star = core.snap_timescale(pneumatic_geom, plastic)
    assert 0.3 <= air / t_star <= 3.0


def test_snap_duration_on_linear_ramp():
    T = 1.0
    t = np.linspace(0.0, T, 10001)
    psi_eq = 0.5
    z = np.zeros_like(t)
    tr = snapdyn.SnapTrace(
        time=t, psi=-psi_eq + 2 * psi_eq * t / T, psi_dot=z + 2 * psi_eq / T, kinetic=z, potential=z
    )
    # 10%-to-90% of the travel between wells is exactly 0.8 T on a ramp
    assert abs(snapdyn.snap_duration(tr, psi_eq) - 0.8 * T) < 1e-12


def test_snap_duration_requires_crossing():
    t = np.linspace(0.0, 1.0, 101)
    z = np.zeros_like(t)
    tr = snapdyn.SnapTrace(time=t, psi=z - 0.4, psi_dot=z, kinetic=z, potential=z)
    with pytest.raises(NoCrossing):
        snapdyn.snap_duration(tr, 0.5)


def test_unstable_step_is_caught(pneumatic_well):
    well = pneumatic_well(0.0)
    with pytest.raises((StepTooLarge, NonFinite)):
        snapdyn.simulate_snap(
            well,
            psi0=-0.5 * well.psi_eq,
            psi_dot0=0.0,
            dt=10.0 / well.omega_well,
            T=3000.0 / well.omega_well,
        )


@pytest.mark.parametrize(
    "U_barr, psi_eq, I_eff", [(1e300, 1.0, 1e-10), (1e-300, 1.0, 1e300), (1.0, 1e-10, 1e-320)]
)
def test_well_frequency_out_of_range_raises(U_barr, psi_eq, I_eff):
    # omega_well overflows to inf, underflows to 0, or divides by an
    # I_eff*psi_eq^2 that underflowed to 0: the trace's dt would be 0 or inf
    well = snapdyn.DoubleWell(U_barr=U_barr, psi_eq=psi_eq, I_eff=I_eff, zeta=0.05)
    with pytest.raises(NonFinite, match="omega_well"):
        snapdyn.triggered_snap(well)
    with pytest.raises(NonFinite, match="omega_well"):
        snapdyn.simulate_snap(well, psi0=-psi_eq, psi_dot0=0.0, dt=1e-3, T=1.0)


def test_damped_trace_settles_in_far_well(pneumatic_well):
    tr = snapdyn.triggered_snap(pneumatic_well(0.8))
    well = pneumatic_well(0.8)
    assert abs(tr.psi[-1] - well.psi_eq) < 1e-3 * well.psi_eq
    assert abs(tr.psi_dot[-1]) < 1e-4 * well.omega_well * well.psi_eq


@pytest.mark.parametrize("zeta", [0.05, 0.3])
def test_triggered_snap_is_design_free(pneumatic_well, untethered_well, zeta):
    a, b = pneumatic_well(zeta), untethered_well(zeta)
    assert a.U_barr != b.U_barr and a.psi_eq != b.psi_eq and a.I_eff != b.I_eff
    ta, tb = snapdyn.triggered_snap(a), snapdyn.triggered_snap(b)
    np.testing.assert_allclose(ta.psi / a.psi_eq, tb.psi / b.psi_eq, rtol=1e-15, atol=0.0)
    tau_a = snapdyn.snap_duration(ta, a.psi_eq) * a.omega_well
    tau_b = snapdyn.snap_duration(tb, b.psi_eq) * b.omega_well
    assert abs(tau_a - tau_b) <= 1e-13


def test_air_tau_matches_dop853_reference():
    # perfbench/refs.py::snap_tau(0.05): scipy DOP853 at rtol 1e-12, atol 1e-14
    assert abs(_tau(0.05) - 3.5502521912) <= 1e-8


@pytest.mark.parametrize("zeta", [0.05, 0.3])
def test_writing_a_returned_trace_leaves_the_next_one_alone(pneumatic_well, zeta):
    well = pneumatic_well(zeta)
    first = snapdyn.triggered_snap(well)
    psi, psi_dot = first.psi.copy(), first.psi_dot.copy()
    first.psi[:] = 0.0
    first.psi_dot[:] = 0.0
    again = snapdyn.triggered_snap(well)
    assert np.array_equal(again.psi, psi)
    assert np.array_equal(again.psi_dot, psi_dot)


def test_preset_memo_holds_only_the_presets(pneumatic_well):
    for zeta in (*snapdyn.DAMPING_PRESETS.values(), 0.11, 0.22, 0.33):
        snapdyn.triggered_snap(pneumatic_well(zeta))
    memo = snapdyn._PRESET_SNAPS
    assert len(memo) <= 2
    assert set(memo) <= set(snapdyn.DAMPING_PRESETS.values())
    assert not any(a.flags.writeable for xv in memo.values() for a in xv)


def test_crossings_match_the_product_form(pneumatic_well):
    t = np.linspace(0.0, 1.0, 10001)
    traces = [snapdyn.triggered_snap(pneumatic_well(z)).psi for z in (0.05, 0.8, 1.3)]
    traces += [-0.5 + t, 0.5 - t]
    for psi in traces:
        travel = psi[-1] - psi[0]
        levels = [psi[0] + f * travel for f in (0.1, 0.5, 0.9)] + [psi[77], psi[5000]]
        for level in levels:
            product = (psi[:-1] - level) * (psi[1:] - level)
            assert snapdyn._first_crossing(psi, level) == np.flatnonzero(product <= 0.0)[0]


# The strict xfails above restated as facts of zeta alone, tau(zeta) being
# omega_well times the snap duration.


def test_water_air_ratio_is_tau_ratio(pneumatic_well, untethered_well):
    for make in (pneumatic_well, untethered_well):
        ratio = _measured_duration(make(0.8)) / _measured_duration(make(0.05))
        assert abs(ratio - _tau(0.8) / _tau(0.05)) <= 1e-12


def test_half_critical_ratio_is_1_970():
    assert abs(_tau(0.5) / _tau(0.05) - 1.970) <= 5e-4


def test_transit_factor_is_tau_over_omega_t_star(pneumatic_geom, plastic, pneumatic_well):
    well = pneumatic_well(0.05)
    t_star = core.snap_timescale(pneumatic_geom, plastic)
    factor = _tau(0.05) / (well.omega_well * t_star)
    assert abs(_measured_duration(well) / t_star - factor) <= 1e-12
    assert abs(factor - 0.072) <= 5e-4


# The kernel stops at the first state its step maps onto itself. Everything
# after that is a copy of the state, so the trace must equal the full loop's.


def _rk4_full(zeta, x0, v0, ds, n):
    """Every one of the n RK4 steps of snapdyn._rk4, with no stop."""
    x = np.empty(n + 1)
    v = np.empty(n + 1)
    x[0] = p = x0
    v[0] = q = v0
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
        p += w * (q + 2.0 * (q2 + q3) + q4)
        q += w * (a1 + 2.0 * (a2 + a3) + a4)
        x[i] = p
        v[i] = q
    return x, v


_UNIT = (snapdyn._UNIT_X0, snapdyn._UNIT_V0, snapdyn._UNIT_DS, snapdyn._UNIT_STEPS)


# 0.02 and 0.05 never settle within the horizon, 0.390749 lands on x == 1.0
# and decays x' through the subnormals, the others stop early.
@pytest.mark.parametrize("zeta", [0.02, 0.05, 0.2, 0.390749, 0.8, 1.5])
def test_unit_snap_equals_the_full_loop(zeta):
    x, v = snapdyn._rk4(zeta, *_UNIT)
    x_ref, v_ref = _rk4_full(zeta, *_UNIT)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(v, v_ref)


def test_undamped_simulate_snap_equals_the_full_loop():
    # omega_well = psi_eq = 1, so the scaling back to psi is exact
    well = snapdyn.DoubleWell(U_barr=1.0, psi_eq=1.0, I_eff=8.0, zeta=0.0)
    ds, n = snapdyn._UNIT_DS, 20_000
    tr = snapdyn.simulate_snap(well, psi0=-1e-3, psi_dot0=1e-2, dt=ds, T=n * ds)
    x_ref, v_ref = _rk4_full(0.0, -1e-3, 1e-2, ds, n)
    assert np.array_equal(tr.psi, x_ref)
    assert np.array_equal(tr.psi_dot, v_ref)


def _best_time(fn, *args, repeat=2):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_settled_snap_stops_at_its_fixed_point():
    x0, v0, ds, n = _UNIT
    # water settles within a tenth of the horizon; air at 0.05 never does
    t_long, (x, v) = _best_time(snapdyn._rk4, 0.8, x0, v0, ds, 5 * n)
    t_air, _ = _best_time(snapdyn._rk4, 0.05, x0, v0, ds, n)
    assert t_long < t_air
    assert math.isfinite(x[-1]) and math.isfinite(v[-1])
    assert abs(x[-1] - 1.0) < 1e-12
    assert np.all(x[n:] == x[-1]) and np.all(v[n:] == v[-1])
    x_short, v_short = snapdyn._rk4(0.8, x0, v0, ds, n)
    assert np.array_equal(x[: n + 1], x_short) and np.array_equal(v[: n + 1], v_short)


def test_overflowing_snap_still_raises():
    well = snapdyn.DoubleWell(U_barr=1.0, psi_eq=1.0, I_eff=8.0, zeta=1e6)
    with pytest.raises(NonFinite):
        snapdyn.triggered_snap(well)


@pytest.mark.parametrize(
    "dt,T,name",
    [
        (math.nan, 1.0, "dt"),
        (math.inf, 1.0, "dt"),
        (1e-3, math.nan, "T"),
        (1e-3, math.inf, "T"),
        (1e-300, 1e300, "T"),
        (1e-3, 1e12, "T"),
    ],
)
def test_simulate_snap_rejects_non_finite_dt_and_T(dt, T, name):
    well = snapdyn.DoubleWell(U_barr=1.0, psi_eq=1.0, I_eff=8.0, zeta=0.05)
    with pytest.raises(ValueError, match=rf"^{name} must"):
        snapdyn.simulate_snap(well, psi0=-1e-3, psi_dot0=1e-2, dt=dt, T=T)
