import math

import pytest

from hcmkit import buckling, core, postbuckle
from hcmkit.errors import DegenerateAnchor, NotBistable, NotCalibrated


def test_energy_barrier_reference_values(pneumatic_geom, plastic):
    mode = buckling.critical_load(pneumatic_geom, plastic)
    eb = postbuckle.energy_barrier(pneumatic_geom, plastic, mode.P_cr)
    assert abs(eb["U_barr"] - 0.04854373204944645) < 1e-12
    assert abs(eb["U_barr_unitless"] - 5.073552184951701) < 1e-9


def test_energy_barrier_worked_example_with_closed_form_load(pneumatic_geom, plastic):
    # the quoted 59.3 mJ / 6.20 figures use the closed-form load and rounded
    # intermediates; they come back within 2%
    P_cf = buckling.critical_load_closed_form(pneumatic_geom, plastic)
    eb = postbuckle.energy_barrier(pneumatic_geom, plastic, P_cf)
    assert abs(eb["U_barr"] / 59.3e-3 - 1.0) < 0.02
    assert abs(eb["U_barr_unitless"] / 6.20 - 1.0) < 0.02


def test_calibration_anchor_roundtrip(pneumatic_geom, plastic, calibration):
    assert abs(calibration.C_psi - 0.16315471185527639) < 1e-12
    res = postbuckle.analyze(pneumatic_geom, plastic, calibration)
    assert abs(math.degrees(res.psi_l) - 39.0) < 1e-9
    assert res.psi_eq == res.psi_l


def test_validation_design_within_15_percent(plastic, calibration):
    val = core.RibbonGeometry(
        L1=29e-3, gamma_s=2.0, theta=math.radians(-23.5), h=15e-3, t=0.762e-3
    )
    res = postbuckle.analyze(val, plastic, calibration)
    err = math.degrees(res.psi_l) / 34.0 - 1.0
    assert abs(err) < 0.15
    # pinned: the margin is structural, not tuned (universal mode shape)
    assert abs(err - 0.14698703204069985) < 1e-9


def test_scale_invariance_of_shape_outputs(pneumatic_geom, plastic, calibration):
    base = postbuckle.analyze(pneumatic_geom, plastic, calibration)
    for s in (0.1, 10.0):
        g = core.RibbonGeometry(
            L1=pneumatic_geom.L1 * s,
            gamma_s=pneumatic_geom.gamma_s,
            theta=pneumatic_geom.theta,
            h=pneumatic_geom.h * s,
            t=pneumatic_geom.t * s,
        )
        r = postbuckle.analyze(g, plastic, calibration)
        assert abs(r.psi_l / base.psi_l - 1.0) < 1e-6
        assert abs(r.U_barr_unitless / base.U_barr_unitless - 1.0) < 1e-6
    for s in (0.01, 100.0):
        m = core.Material(E=plastic.E * s, nu=plastic.nu, rho=plastic.rho)
        r = postbuckle.analyze(pneumatic_geom, m, calibration)
        assert abs(r.psi_l / base.psi_l - 1.0) < 1e-6
        assert abs(r.U_barr_unitless / base.U_barr_unitless - 1.0) < 1e-6


def test_doubling_thickness_multiplies_barrier_by_eight(pneumatic_geom, plastic, calibration):
    base = postbuckle.analyze(pneumatic_geom, plastic, calibration)
    g2 = core.RibbonGeometry(
        L1=pneumatic_geom.L1,
        gamma_s=pneumatic_geom.gamma_s,
        theta=pneumatic_geom.theta,
        h=pneumatic_geom.h,
        t=pneumatic_geom.t * 2.0,
    )
    r2 = postbuckle.analyze(g2, plastic, calibration)
    assert abs(r2.U_barr / base.U_barr - 8.0) < 1e-12 * 8.0


def test_flat_kink_limit_is_finite(plastic, calibration):
    # beta -> 0+: the load diverges but psi_l and the unitless barrier stay
    # finite (both go as beta/sin(beta) -> 1 times a shape constant)
    vals = []
    for eps in (1e-3, 1e-5, 1e-7):
        theta = -math.asin(1.0 / 6.0) + eps
        g = core.RibbonGeometry(L1=12.5e-3, gamma_s=6.0, theta=theta, h=15e-3, t=0.381e-3)
        r = postbuckle.analyze(g, plastic, calibration)
        vals.append((math.degrees(r.psi_l), r.U_barr_unitless))
    assert abs(vals[-1][0] - 38.913963) < 1e-3
    assert abs(vals[-1][1] - 5.062359) < 1e-3
    assert abs(vals[0][0] - vals[-1][0]) < 1e-3


def test_uncalibrated_raises(pneumatic_geom, plastic):
    mode = buckling.critical_load(pneumatic_geom, plastic)
    with pytest.raises(NotCalibrated):
        postbuckle.tip_angle(pneumatic_geom, plastic, mode, None)


def test_monostable_raises(plastic, calibration):
    g = core.RibbonGeometry(L1=12.5e-3, gamma_s=2.0, theta=math.radians(-35.0), h=15e-3, t=0.4e-3)
    with pytest.raises(NotBistable):
        postbuckle.analyze(g, plastic, calibration)
    with pytest.raises(NotBistable):
        postbuckle.energy_barrier(g, plastic, 1.0)


def test_degenerate_anchor(pneumatic_geom, plastic):
    with pytest.raises(DegenerateAnchor):
        postbuckle.calibrate(pneumatic_geom, plastic, 0.0)
    with pytest.raises(DegenerateAnchor):
        postbuckle.calibrate(pneumatic_geom, plastic, -1.0)


def test_calibrate_honours_corrected_torsion(pneumatic_geom, plastic):
    anchor = math.radians(39.0)
    calib = postbuckle.calibrate(pneumatic_geom, plastic, anchor, corrected_torsion=True)
    res = postbuckle.analyze(pneumatic_geom, plastic, calib, corrected_torsion=True)
    assert abs(res.psi_l - anchor) < 1e-9
    assert calib.anchor_id.endswith(",n_grid=257,corrected_torsion")


@pytest.mark.parametrize("n_grid", [129, 257, 385])
def test_tip_integral_equals_scipy_trapezoid(pneumatic_geom, plastic, n_grid):
    from scipy.integrate import trapezoid

    mode = buckling.critical_load(pneumatic_geom, plastic, n_grid=n_grid)
    sec = core.section_properties(pneumatic_geom, plastic)
    arm = core.derive_lengths(pneumatic_geom)["l"] - mode.grid
    ref = mode.P_cr / (plastic.E * sec.I_eta) * float(trapezoid(mode.phi * arm, mode.grid))
    assert postbuckle.tip_angle(pneumatic_geom, plastic, mode, postbuckle.UNCALIBRATED) == ref


def test_calibration_file_roundtrip(tmp_path, pneumatic_geom, plastic):
    calib = postbuckle.calibrate(pneumatic_geom, plastic, math.radians(39.0))
    path = tmp_path / "calib.json"
    postbuckle.save_calibration(calib, path)
    loaded = postbuckle.load_calibration(path)
    assert loaded == calib
    assert "theta=-3deg" in loaded.anchor_id


def test_packaged_calibration_loads(calibration):
    assert calibration.C_psi > 0.0
    assert calibration.anchor_id == "theta=-3deg,gamma_s=6,psi_l=39deg,n_grid=257"
