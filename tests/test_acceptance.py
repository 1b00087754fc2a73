"""Acceptance gate: one test per release criterion.

Each criterion is a single pytest node so `pytest -v` prints one pass/fail
line per criterion. Criteria 4 and 5 fail today: the discrete-chain
cross-check disagrees with the calibrated beam reduction far beyond the
stated tolerances. The failures are real model disagreement, not test bugs;
the tests still run the full protocol and print the measured numbers.
"""

import json
import math
import time

import numpy as np

from conftest import CONFIGS, GOLDEN, gradient_check, run_cli
from hcmkit import buckling, core, oracle, postbuckle, snapdyn, swim

PLASTIC = core.MATERIAL_PRESETS["plastic"]


def _geom(theta_deg, gamma_s, L1_mm=12.5, h_mm=15.0, t_mm=0.381):
    return core.RibbonGeometry(
        L1=L1_mm * 1e-3,
        gamma_s=gamma_s,
        theta=math.radians(theta_deg),
        h=h_mm * 1e-3,
        t=t_mm * 1e-3,
    )


def test_acceptance_1_snap_timescales():
    t0 = time.perf_counter()
    pneumatic = core.snap_timescale(_geom(-3.0, 6.0), PLASTIC) * 1e3
    steel = core.snap_timescale(_geom(-3.0, 6.0, t_mm=0.254), core.MATERIAL_PRESETS["steel"]) * 1e3
    untethered = core.snap_timescale(_geom(-23.5, 2.0, L1_mm=29.0, t_mm=0.762), PLASTIC) * 1e3
    elapsed = time.perf_counter() - t0
    print(f"t* [ms]: pneumatic {pneumatic:.3f}, steel {steel:.3f}, "
          f"untethered {untethered:.3f} ({elapsed * 1e3:.0f} ms)")
    assert elapsed < 1.0
    assert abs(pneumatic - 67.0) <= 1.0
    assert abs(steel - 24.0) <= 1.0
    assert abs(untethered - 34.0) <= 2.0


def test_acceptance_2_tip_angle_calibration():
    t0 = time.perf_counter()
    anchor = _geom(-3.0, 6.0)
    calib = postbuckle.calibrate(anchor, PLASTIC, math.radians(39.0))
    back = math.degrees(postbuckle.analyze(anchor, PLASTIC, calib).psi_l)
    validation = _geom(-23.5, 2.0, L1_mm=29.0, t_mm=0.762)
    psi_val = math.degrees(postbuckle.analyze(validation, PLASTIC, calib).psi_l)
    rel = (psi_val - 34.0) / 34.0
    elapsed = time.perf_counter() - t0
    print(f"anchor round-trip {back:.6f} deg; validation {psi_val:.4f} deg "
          f"({rel:+.2%} of 34 deg) ({elapsed:.2f} s)")
    assert elapsed < 5.0
    assert abs(back - 39.0) < 1e-9
    assert abs(rel) <= 0.15


def test_acceptance_3_scaling_invariances(calibration):
    base = _geom(-3.0, 6.0)
    ref = postbuckle.analyze(base, PLASTIC, calibration)

    def rel(a, b):
        return abs(a / b - 1.0)

    worst = 0.0
    for s in (0.1, 10.0):
        g = core.RibbonGeometry(
            L1=base.L1 * s, gamma_s=base.gamma_s, theta=base.theta, h=base.h * s, t=base.t * s
        )
        r = postbuckle.analyze(g, PLASTIC, calibration)
        worst = max(worst, rel(r.psi_l, ref.psi_l), rel(r.U_barr_unitless, ref.U_barr_unitless))
    for f in (0.01, 100.0):
        m = core.Material(E=PLASTIC.E * f, nu=PLASTIC.nu, rho=PLASTIC.rho)
        r = postbuckle.analyze(base, m, calibration)
        worst = max(worst, rel(r.psi_l, ref.psi_l), rel(r.U_barr_unitless, ref.U_barr_unitless))

    doubled = core.RibbonGeometry(
        L1=base.L1, gamma_s=base.gamma_s, theta=base.theta, h=base.h, t=2.0 * base.t
    )
    ratio = postbuckle.analyze(doubled, PLASTIC, calibration).U_barr / ref.U_barr
    print(f"worst invariance violation {worst:.3g}; U(2t)/U(t) = {ratio:.12f}")
    assert worst < 1e-6
    assert abs(ratio - 8.0) < 1e-9 * 8.0


def test_acceptance_4_discrete_chain_grid(calibration):
    t0 = time.perf_counter()
    rows = []
    for theta in (0.0, 10.0, 20.0):
        for gamma in (4.0, 6.0, 8.0):
            g = _geom(theta, gamma)
            beam = postbuckle.analyze(g, PLASTIC, calibration)
            psi_beam = math.degrees(beam.psi_l)
            try:
                rep = oracle.oracle_report(g, PLASTIC, n_links=60)
                psi_err = math.degrees(rep.psi_tip) / psi_beam - 1.0
                barr_err = rep.barrier / beam.U_barr - 1.0
                rows.append((theta, gamma, psi_beam, math.degrees(rep.psi_tip), psi_err,
                             beam.U_barr, rep.barrier, barr_err, rep.converged))
            except Exception as exc:  # a cell that cannot converge fails the grid
                rows.append((theta, gamma, psi_beam, float("nan"), float("nan"),
                             beam.U_barr, float("nan"), float("nan"), f"{type(exc).__name__}"))
    elapsed = time.perf_counter() - t0

    print(f"chain-vs-beam grid, n_links = 60 ({elapsed:.0f} s):")
    print("  theta gamma  psi_beam  psi_chain  rel_err   U_beam[J]  U_chain[J]  rel_err  conv")
    for th, ga, pb, pc, pe, ub, uc, ue, cv in rows:
        print(f"  {th:5.0f} {ga:5.0f}  {pb:8.3f}  {pc:9.3f}  {pe:+7.1%}  "
              f"{ub:.4e}  {uc:.4e}  {ue:+7.1%}  {cv}")
    assert elapsed < 300.0
    ok = [r for r in rows
          if not isinstance(r[8], str) and bool(r[8])
          and abs(r[4]) <= 0.25 and abs(r[7]) <= 0.25]
    assert len(ok) == 9, (
        f"only {len(ok)}/9 grid cells land within 25% of the beam reduction; "
        "the chain tip angle runs roughly double the calibrated value and its "
        "barrier roughly an eighth. Documented model disagreement."
    )


def test_acceptance_5_chain_internal_checks(pneumatic_ribbon, pneumatic_wells):
    worst_grad = gradient_check(pneumatic_ribbon, 10)
    plus, minus = pneumatic_wells
    mirror = abs(plus.energy - minus.energy) / max(abs(plus.energy), abs(minus.energy))

    flat = _geom(math.degrees(-math.asin(1.0 / 6.0)), 6.0)
    assert abs(core.bistability_margin(flat)["beta"]) < 1e-15
    rep = oracle.oracle_report(flat, PLASTIC, n_links=60)
    saddle_gap = (rep.U_saddle - rep.U_min) / abs(rep.U_saddle)

    print(f"gradient check {worst_grad:.3g}; well degeneracy {mirror:.3g}; "
          f"beta = 0 saddle excess {saddle_gap:.3f} of U_saddle")
    assert worst_grad < 1e-5
    assert mirror <= 0.02
    assert saddle_gap < 1e-2, (
        f"at beta = 0 the chain keeps a barrier of {saddle_gap:.1%} of U_saddle "
        "instead of collapsing to the degenerate well. Documented model disagreement."
    )


def test_acceptance_6_snap_dynamics(calibration):
    g = _geom(-3.0, 6.0)
    res = postbuckle.analyze(g, PLASTIC, calibration)
    I_eff = snapdyn.effective_inertia(g, PLASTIC)

    def well(zeta):
        return snapdyn.DoubleWell(U_barr=res.U_barr, psi_eq=res.psi_eq, I_eff=I_eff, zeta=zeta)

    w0 = well(0.0)
    period = 2.0 * math.pi / w0.omega_well
    tr = snapdyn.simulate_snap(
        w0, psi0=-1e-3 * w0.psi_eq, psi_dot0=1e-2 * w0.omega_well * w0.psi_eq,
        dt=core.snap_timescale(g, PLASTIC) / 500.0, T=10.0 * period,
    )
    E = tr.kinetic + tr.potential
    drift = float(np.max(np.abs(E - E[0]))) / w0.U_barr

    def crosses(ke_frac):
        v0 = math.sqrt(2.0 * ke_frac * w0.U_barr / w0.I_eff)
        t = snapdyn.simulate_snap(w0, psi0=-w0.psi_eq, psi_dot0=v0,
                                  dt=period / 2000.0, T=30.0 * period)
        return float(np.max(t.psi)) > 0.0

    below, above = crosses(0.999), crosses(1.001)

    air = snapdyn.snap_duration(snapdyn.triggered_snap(well(0.05)), res.psi_eq)
    water = snapdyn.snap_duration(snapdyn.triggered_snap(well(0.8)), res.psi_eq)
    ratio = water / air
    print(f"drift {drift:.3g} of U_barr; gate 0.999 -> {below}, 1.001 -> {above}; "
          f"water/air duration ratio {ratio:.3f}")
    assert drift < 1e-3
    assert below is False and above is True
    assert 2.0 <= ratio <= 4.0


def test_acceptance_7_swim_comparison(calibration):
    g = _geom(-3.0, 6.0)
    res = postbuckle.analyze(g, PLASTIC, calibration)
    sine = swim.Waveform(kind="sinusoid", amplitude=math.radians(41.6), frequency=1.3)
    fit = swim.fit_hydro(sine, 0.1310, mass=0.0425)
    bist = swim.Waveform(kind="bistable", amplitude=res.psi_eq, frequency=1.3, snap_time=0.068)
    v_s = swim.cruise_speed(sine, fit, 10.0, 0.186).v_steady
    v_b = swim.cruise_speed(bist, fit, 10.0, 0.186).v_steady
    ratio = v_b / v_s
    peak = math.degrees(2.0 * bist.amplitude / bist.snap_time)
    print(f"speed ratio {ratio:.4f} (sinusoid {v_s * 100:.2f} cm/s, "
          f"bistable {v_b * 100:.2f} cm/s); peak tip rate {peak:.0f} deg/s")
    assert 1.7 <= ratio <= 2.4
    assert abs(peak - 1200.0) <= 0.10 * 1200.0


def test_acceptance_8_speed_metrics():
    tank = swim.speed_metrics(5.54, 12.7, 0.215)
    corrected = swim.speed_metrics(0.08527, 1.0, 0.15)
    print(f"tank {tank['BL_s']:.4f} BL/s; corrected literature point "
          f"{corrected['BL_s']:.4f} BL/s")
    assert abs(tank["BL_s"] - 2.03) <= 0.01
    assert abs(corrected["BL_s"] - 0.57) <= 0.005


def test_acceptance_9_cli_contract(tmp_path):
    pneu = str(CONFIGS / "pneumatic.json")
    mono = str(CONFIGS / "monostable.json")

    # byte-identical outputs against the checked-in goldens
    assert run_cli(["analyze", "--config", pneu]).stdout == (
        GOLDEN / "analyze_pneumatic.json").read_text()
    assert run_cli(["analyze", "--config", mono]).stdout == (
        GOLDEN / "analyze_monostable.json").read_text()
    assert run_cli(["swim", "--config", pneu, "--compare"]).stdout == (
        GOLDEN / "compare.json").read_text()
    run_cli(["sweep", "--config", pneu, "--theta=-10:10:10", "--gamma=4:8:2",
             "--out", str(tmp_path)])
    sweep_text = (tmp_path / "sweep.csv").read_text()
    assert sweep_text == (GOLDEN / "sweep_small.csv").read_text()
    run_cli(["swim", "--fig6", "--out", str(tmp_path)])
    assert (tmp_path / "fig6.csv").read_text() == (GOLDEN / "fig6.csv").read_text()
    run_cli(["plot", "--sweep-csv", str(GOLDEN / "sweep_small.csv"), "--out", str(tmp_path)])
    for name in ("psi_l_deg.svg", "u_barr_unitless.svg"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    # exit-code contract
    assert run_cli(["analyze", "--config", mono]).returncode == 0
    assert run_cli(["analyze", "--config", str(tmp_path / "absent.json")]).returncode == 2
    assert run_cli(["snap", "--config", mono, "--out", str(tmp_path)]).returncode == 3

    # every bistable sweep cell must agree with a standalone analyze run
    base = json.loads((CONFIGS / "pneumatic.json").read_text())
    checked = 0
    for line in sweep_text.strip().split("\n")[1:]:
        theta, gamma, psi, ubar, tstar, bist = line.split(",")
        cfg = json.loads(json.dumps(base))
        cfg["geometry"]["theta_deg"] = float(theta)
        cfg["geometry"]["gamma_s"] = float(gamma)
        p = tmp_path / f"cell_{theta}_{gamma}.json"
        p.write_text(json.dumps(cfg))
        payload = json.loads(run_cli(["analyze", "--config", str(p)]).stdout)
        assert abs(payload["t_star_ms"] / float(tstar) - 1.0) < 1e-9
        if bist == "true":
            assert abs(payload["psi_l_deg"] / float(psi) - 1.0) < 1e-9
            assert abs(payload["U_barr_unitless"] / float(ubar) - 1.0) < 1e-9
            checked += 1
        else:
            assert payload["bistable"] is False and psi == ""
    print(f"goldens byte-identical; exit codes 0/2/3 honored; "
          f"{checked} bistable sweep cells cross-checked against analyze")
    assert checked == 7
