"""Command line interface.

Subcommands: analyze, sweep, snap, swim, oracle, calibrate, plot.

Exit codes: 0 on success (including an analyze of a mono-stable design, which
reports bistable=false), 2 on input or validation problems, 3 on numeric or
convergence failures. No traceback ever reaches the terminal.

All floats in JSON output are rounded to 12 significant digits so repeated
runs are byte-identical across platforms. CSV floats use Python repr, the
shortest string that round-trips.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import config, core, oracle, postbuckle, snapdyn, svgplot, swim
from .errors import ConfigError, HcmError

__all__ = ["main"]

SWEEP_HEADER = "theta_deg,gamma_s,psi_l_deg,u_barr_unitless,t_star_ms,bistable"
SNAP_HEADER = "time_s,psi_rad,psi_dot_rad_s,kinetic_J,potential_J"
SWIM_HEADER = "time_s,v_m_s"

MAX_SNAP_ROWS = 2400
MAX_SWIM_ROWS = 240
CRUISE_T = 10.0
MAX_SWEEP_CELLS = 100_000


def _round12(obj):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise HcmError("non-finite value in output")
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(_round12(obj), indent=2) + "\n")


def _write(out_dir, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def _fnum(x) -> str:
    return repr(float(x))


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else _fnum(v)


def _finite(text: str) -> float:
    """argparse type: a float flag that refuses inf and nan."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return val


def _require_config(args) -> config.ParsedConfig:
    if args.config is None:
        raise ConfigError("this command needs --config PATH")
    return config.load_config(args.config)


def _load_calibration(args):
    if args.uncalibrated:
        return None
    return postbuckle.load_calibration()


def _analyze(cfg: config.ParsedConfig, calib, geom=None) -> postbuckle.HcmAnalysis:
    """postbuckle.analyze of the config's design, or of geom in its place."""
    return postbuckle.analyze(
        cfg.geom if geom is None else geom,
        cfg.mat,
        postbuckle.UNCALIBRATED if calib is None else calib,  # None: the raw integral
        n_grid=cfg.options.n_grid,
        corrected_torsion=cfg.options.corrected_torsion,
    )


def _analysis_record(cfg: config.ParsedConfig, calib, geom=None) -> dict:
    geom = cfg.geom if geom is None else geom
    margin = core.bistability_margin(geom)
    record = {
        "psi_l_deg": None,
        "psi_eq_deg": None,
        "P_cr_N": None,
        "U_barr_J": None,
        "U_barr_unitless": None,
        "t_star_ms": snapdyn.snap_timescale(geom, cfg.mat) * 1e3,
        "bistable": bool(margin["bistable"]),
        "beta_deg": math.degrees(margin["beta"]),
    }
    if margin["bistable"]:
        res = _analyze(cfg, calib, geom)
        record.update(
            psi_l_deg=math.degrees(res.psi_l),
            psi_eq_deg=math.degrees(res.psi_eq),
            P_cr_N=res.P_cr,
            U_barr_J=res.U_barr,
            U_barr_unitless=res.U_barr_unitless,
        )
    return record


def _input_echo(cfg: config.ParsedConfig) -> dict:
    geom, mat = cfg.geom, cfg.mat
    return {
        "L1_mm": geom.L1 * 1e3,
        "gamma_s": geom.gamma_s,
        "theta_deg": math.degrees(geom.theta),
        "h_mm": geom.h * 1e3,
        "t_mm": geom.t * 1e3,
        "material": cfg.material_name,
        "E_GPa": mat.E / 1e9,
        "nu": mat.nu,
        "rho_kg_m3": mat.rho,
    }


def _calibration_echo(calib) -> dict:
    if calib is None:
        return None
    return {"c_psi": calib.C_psi, "anchor_id": calib.anchor_id, "created": calib.created}


def cmd_analyze(args) -> int:
    cfg = _require_config(args)
    calib = _load_calibration(args)
    record = _analysis_record(cfg, calib)
    if args.format == "csv":
        sys.stdout.write(_csv(",".join(record), [map(_cell, record.values())]))
    else:
        _emit_json({**record, "input": _input_echo(cfg), "calibration": _calibration_echo(calib)})
    return 0


def _parse_range(spec: str, name: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name} wants MIN:MAX:STEP, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--{name} has a non-numeric part in {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"--{name} has a non-finite part in {spec!r}")
    if step <= 0:
        raise ConfigError(f"--{name} step must be positive")
    if hi < lo:
        raise ConfigError(f"--{name} max is below min")
    span = (hi - lo) / step + 1e-9  # inf when hi - lo overflows
    if span >= MAX_SWEEP_CELLS:
        raise ConfigError(f"--{name} spans more than {MAX_SWEEP_CELLS} values")
    return [round(lo + i * step, 10) for i in range(int(math.floor(span)) + 1)]


def cmd_sweep(args) -> int:
    cfg = _require_config(args)
    calib = _load_calibration(args)
    thetas = _parse_range(args.theta, "theta")
    gammas = _parse_range(args.gamma, "gamma")
    if len(thetas) * len(gammas) > MAX_SWEEP_CELLS:
        raise ConfigError(f"--theta by --gamma spans more than {MAX_SWEEP_CELLS} cells")
    rows = []
    for theta_deg in thetas:
        for gamma_s in gammas:
            geom = core.RibbonGeometry(
                L1=cfg.geom.L1,
                gamma_s=gamma_s,
                theta=math.radians(theta_deg),
                h=cfg.geom.h,
                t=cfg.geom.t,
            )
            rec = _analysis_record(cfg, calib, geom)
            keys = ("psi_l_deg", "U_barr_unitless", "t_star_ms", "bistable")
            rows.append([_cell(v) for v in (theta_deg, gamma_s, *(rec[k] for k in keys))])
    _write(args.out, "sweep.csv", _csv(SWEEP_HEADER, rows))
    _emit_json({"written": ["sweep.csv"], "rows": len(rows)})
    return 0


def _decimate(n: int, max_rows: int) -> int:
    return max(1, n // max_rows)


def cmd_snap(args) -> int:
    cfg = _require_config(args)
    calib = _load_calibration(args)
    zeta = cfg.options.damping[args.medium]
    res = _analyze(cfg, calib)
    well = snapdyn.DoubleWell(
        U_barr=res.U_barr,
        psi_eq=res.psi_eq,
        I_eff=snapdyn.effective_inertia(cfg.geom, cfg.mat),
        zeta=zeta,
    )
    trace = snapdyn.triggered_snap(well)
    duration = snapdyn.snap_duration(trace, well.psi_eq)
    stride = _decimate(len(trace.time), MAX_SNAP_ROWS)
    rows = [
        [
            _fnum(trace.time[i]),
            _fnum(trace.psi[i]),
            _fnum(trace.psi_dot[i]),
            _fnum(trace.kinetic[i]),
            _fnum(trace.potential[i]),
        ]
        for i in range(0, len(trace.time), stride)
    ]
    name = f"snap_{args.medium}.csv"
    _write(args.out, name, _csv(SNAP_HEADER, rows))
    _emit_json(
        {
            "medium": args.medium,
            "zeta": zeta,
            "psi_eq_deg": math.degrees(well.psi_eq),
            "t_star_ms": res.t_star * 1e3,
            "duration_ms": duration * 1e3,
            "written": [name],
        }
    )
    return 0


def _hydro_fit(cfg: config.ParsedConfig) -> swim.HydroFit:
    hyd = cfg.hydro
    if hyd is None:
        raise ConfigError("this command needs a hydro block in the config")
    if hyd.reference_waveform is None:
        raise ConfigError("this command needs hydro.reference in the config")
    return swim.fit_hydro(hyd.reference_waveform, hyd.reference_speed, hyd.mass, hyd.k_drag)


def _bistable_waveform(cfg, calib, frequency: float) -> swim.Waveform:
    res = _analyze(cfg, calib)
    snap_time = cfg.snap_time_override if cfg.snap_time_override is not None else res.t_star
    return swim.Waveform(
        kind="bistable", amplitude=res.psi_eq, frequency=frequency, snap_time=snap_time
    )


def cmd_swim(args) -> int:
    if args.fig6:
        _write(args.out, "fig6.csv", swim.fig6_to_csv(swim.fig6_rows()))
        _emit_json({"written": ["fig6.csv"]})
        return 0

    cfg = _require_config(args)
    fit = _hydro_fit(cfg)
    hyd = cfg.hydro
    ref = hyd.reference_waveform
    freq = args.frequency_hz if args.frequency_hz is not None else ref.frequency
    calib = _load_calibration(args)

    if args.compare:
        sine = swim.Waveform(kind="sinusoid", amplitude=ref.amplitude, frequency=freq)
        bist = _bistable_waveform(cfg, calib, freq)
        msr_s = swim.mean_square_tip_rate(sine)
        msr_b = swim.mean_square_tip_rate(bist)
        v_s = swim.steady_speed(fit, msr_s)
        v_b = swim.steady_speed(fit, msr_b)
        _emit_json(
            {
                "frequency_hz": freq,
                "sinusoid": {
                    "amplitude_deg": math.degrees(sine.amplitude),
                    "msr_rad2_s2": msr_s,
                    "v_steady_m_s": v_s,
                    "v_steady_bl_s": v_s / hyd.body_length,
                },
                "bistable": {
                    "amplitude_deg": math.degrees(bist.amplitude),
                    "snap_time_ms": bist.snap_time * 1e3,
                    "msr_rad2_s2": msr_b,
                    "v_steady_m_s": v_b,
                    "v_steady_bl_s": v_b / hyd.body_length,
                },
                "msr_ratio": msr_b / msr_s,
                "speed_ratio": v_b / v_s,
                "peak_tip_rate_deg_s": math.degrees(2.0 * bist.amplitude / bist.snap_time),
            }
        )
        return 0

    if args.waveform == "sinusoid":
        w = swim.Waveform(kind="sinusoid", amplitude=ref.amplitude, frequency=freq)
    else:
        w = _bistable_waveform(cfg, calib, freq)
    result = swim.cruise_speed(w, fit, CRUISE_T, hyd.body_length)
    stride = _decimate(len(result.time), MAX_SWIM_ROWS)
    rows = [
        [_fnum(result.time[i]), _fnum(result.v_trace[i])]
        for i in range(0, len(result.time), stride)
    ]
    name = f"swim_{args.waveform}.csv"
    _write(args.out, name, _csv(SWIM_HEADER, rows))
    _emit_json(
        {
            "waveform": args.waveform,
            "frequency_hz": freq,
            "amplitude_deg": math.degrees(w.amplitude),
            "v_steady_m_s": result.v_steady,
            "v_steady_bl_s": result.speed_BL_s,
            "accel0_m_s2": result.accel0,
            "written": [name],
        }
    )
    return 0


def cmd_oracle(args) -> int:
    cfg = _require_config(args)
    geom, mat = cfg.geom, cfg.mat
    n_links = args.n_links if args.n_links is not None else cfg.options.n_links
    if args.format == "csv":
        ribbon = oracle.build_discrete(geom, mat, n_links=n_links)
        sys.stdout.write(oracle.nodes_to_csv(oracle.find_equilibrium(ribbon, side="plus")))
        return 0

    report = oracle.oracle_report(geom, mat, n_links=n_links)
    # Beam-model comparison values at the same design point.
    if core.bistability_margin(geom)["bistable"]:
        beam = _analyze(cfg, _load_calibration(args))
        barr_err = report.barrier / beam.U_barr - 1.0
        psi_err = report.psi_tip / beam.psi_l - 1.0
    else:
        barr_err = None
        psi_err = None
    _emit_json(
        {
            "n_links": n_links,
            "barrier_J": report.barrier,
            "barrier_vs_eq2_rel_err": barr_err,
            "psi_tip_deg": math.degrees(report.psi_tip),
            "psi_vs_eq1_rel_err": psi_err,
            "converged": bool(report.converged),
            "iterations": report.iterations,
        }
    )
    return 0


def cmd_calibrate(args) -> int:
    cfg = _require_config(args)
    if args.psi_l_deg <= 0:
        raise ConfigError("--psi-l-deg must be positive")
    opts = cfg.options
    calib = postbuckle.calibrate(
        cfg.geom, cfg.mat, math.radians(args.psi_l_deg), opts.n_grid, opts.corrected_torsion
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "calibration.json")
    postbuckle.save_calibration(calib, path)
    _emit_json(
        {
            "c_psi": calib.C_psi,
            "anchor_id": calib.anchor_id,
            "created": calib.created,
            "written": ["calibration.json"],
        }
    )
    return 0


def cmd_plot(args) -> int:
    if args.sweep_csv is None:
        raise ConfigError("plot needs --sweep-csv PATH")
    written = svgplot.render_plots(args.sweep_csv, args.out)
    _emit_json({"written": [os.path.basename(p) for p in written]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON design config")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory for files")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument(
        "--uncalibrated",
        action="store_true",
        help="skip the tip-angle calibration and report raw model output",
    )

    parser = argparse.ArgumentParser(
        prog="hcmkit", description="bistable ribbon actuator design toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze", parents=[common], help="full analysis of one design")

    p = sub.add_parser("sweep", parents=[common], help="grid sweep over theta and gamma_s")
    p.add_argument(
        "--theta",
        required=True,
        metavar="MIN:MAX:STEP",
        help="theta range in degrees; write --theta=-30:0:5 when MIN is negative",
    )
    p.add_argument("--gamma", required=True, metavar="MIN:MAX:STEP", help="gamma_s range")

    p = sub.add_parser("snap", parents=[common], help="simulate one triggered snap-through")
    p.add_argument("--medium", choices=("air", "water"), default="air")

    p = sub.add_parser("swim", parents=[common], help="cruise speed from tail kinematics")
    p.add_argument("--waveform", choices=("sinusoid", "bistable"), default="bistable")
    p.add_argument("--frequency-hz", type=_finite, default=None)
    p.add_argument("--compare", action="store_true", help="sinusoid vs bistable at one frequency")
    p.add_argument("--fig6", action="store_true", help="write the speed comparison table")

    p = sub.add_parser("oracle", parents=[common], help="discrete chain cross-check")
    p.add_argument("--n-links", type=int, default=None)

    p = sub.add_parser("calibrate", parents=[common], help="fit the tip-angle scale to an anchor")
    p.add_argument("--psi-l-deg", type=_finite, required=True, help="measured anchor tip angle")

    p = sub.add_parser("plot", parents=[common], help="render heatmaps from a sweep CSV")
    p.add_argument("--sweep-csv", metavar="PATH")

    return parser


_HANDLERS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "snap": cmd_snap,
    "swim": cmd_swim,
    "oracle": cmd_oracle,
    "calibrate": cmd_calibrate,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # no traceback leaks to the terminal
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
