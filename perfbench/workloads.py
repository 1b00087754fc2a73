"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

Each workload draws every input from `random.Random(seed)` in op order, so op
i has the same input on every run with that seed however fast the code is.
`run()` is the timed op; `check()` runs outside the timing, compares the
output with the implementation-independent references in `refs`, appends
each relative error it measures to `errs` and raises `CheckFailed` on a miss.

Why these workloads:
- sweep: the design-space exploration users run; almost all time in
  buckling/postbuckle, none in snapdyn, swim or oracle. The mixed n_grid and
  the mono-stable cells expose the miss and bypass cost of any per-grid
  cache or vectorised path. Every op has the same 6 mono-stable and 12
  bistable cells, so op cost depends on n_grid alone and the tail
  percentile lands inside the n_grid = 385 share on every run. 18 cells
  keep a run at a few hundred ops, well inside the p95 rung of the tail
  rule; with 9 cells some runs passed 1000 ops and moved to p99.
- dynamics: snapdyn dominates the op and swim the cruise calls; buckling is
  a ~0.5% share. Preset zeta values repeat across designs beside a fresh
  zeta per design, so a zeta-keyed reuse shows both its hit and its miss.
- oracle: ~100% oracle time; wells and saddle use the same solver with very
  different iteration counts, so a saddle-only change shows against
  unchanged wells.
- cli: fresh interpreters, so import time, argument handling and the
  discarded solves of `oracle --format csv` show here and nowhere else.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import refs
import setup_probe

# Relative tolerance of grid-discretised quantities (P_cr, psi_l, U_barr).
# The seed's n_grid = 129 sits at 7.2e-5, n_grid = 257 at 7e-6.
TOL_GRID = 2e-4
# Quantities that follow exactly from the inputs.
TOL_EXACT = 1e-9
# omega_well * snap duration against the adaptive reference (seed: <= 1.3e-7).
TOL_SNAP = 1e-6
CRUISE_T = 10.0  # s, the CLI's cruise horizon
GAP_TOL = 1e-4  # oracle closure gap in units of l
MIRROR_TOL = 0.02
SADDLE_TIP_DEG = 10.0


class CheckFailed(Exception):
    """An output missed its reference check."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _within(errs: list, value: float, ref: float, tol: float, what: str) -> None:
    err = refs.rel_err(value, ref)
    errs.append(err)
    _expect(err <= tol, f"{what}: {value!r} vs reference {ref!r} (rel err {err:.3g})")


def _design_args(cfg: dict) -> dict:
    """SI design parameters of a generated config, read from the config itself."""
    g = cfg["geometry"]
    mat = cfg["material"]
    if isinstance(mat, str):
        E, nu, rho = {"plastic": (1.73e9, 0.35, 1200.0), "steel": (200e9, 0.30, 7850.0)}[mat]
    else:
        E, nu, rho = mat["E_GPa"] * 1e9, mat["nu"], mat["rho_kg_m3"]
    return {
        "L1": g["L1_mm"] * 1e-3, "gamma_s": g["gamma_s"], "theta": math.radians(g["theta_deg"]),
        "h": g["h_mm"] * 1e-3, "t": g["t_mm"] * 1e-3, "E": E, "nu": nu, "rho": rho,
        "corrected_torsion": cfg.get("options", {}).get("corrected_torsion", False),
    }


def _model_args(d: dict, **over) -> tuple:
    d = {**d, **over}
    return (d["L1"], d["gamma_s"], d["theta"], d["h"], d["t"], d["E"], d["nu"],
            d["corrected_torsion"])


def _material(rng: random.Random, presets=("plastic", "steel"), E_range=(1.0, 210.0)):
    if rng.random() < 0.5:
        return rng.choice(presets)
    return {"E_GPa": round(rng.uniform(*E_range), 3), "nu": round(rng.uniform(0.25, 0.45), 3),
            "rho_kg_m3": round(rng.uniform(900.0, 8000.0), 1)}


def _deck(rng: random.Random, items, i: int, store: list):
    """Item i of a sequence dealt from shuffled copies of `items`, so every
    complete deck holds each item in its stated share."""
    if i % len(items) == 0:
        store[:] = rng.sample(list(items), len(items))
    return store[i % len(items)]


def call_main(argv, recorder=None) -> tuple[int, str, str]:
    """hcmkit.cli.main in-process with captured streams; (exit code, stdout, stderr).

    With a recorder the call is a `cli.<subcommand>` span.
    """
    from hcmkit import cli

    out, err = io.StringIO(), io.StringIO()
    idx = recorder.open(f"cli.{argv[0]}") if recorder is not None else None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            if idx is not None:
                recorder.close(idx)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Op:
    """One generated input and what the op measured besides its latency."""

    index: int
    units: int
    payload: dict
    sub: dict = field(default_factory=dict)


class Workload:
    name = ""
    in_process = True
    # The speed-reference kernel of the work that dominates the op (speedref.py).
    SPEED_REF = "interp"

    def __init__(self, root: str, work: str, seed: int):
        self.root = root
        self.work = work
        self.rng = random.Random(seed)
        self.recorder = None  # a tracing.Recorder during a traced run
        os.makedirs(work, exist_ok=True)

    def warm_up(self) -> None:
        self.calib = setup_probe.ready("design", self.root)

    def start(self) -> None:
        """Called after tracing is installed and before the first op."""

    def stop(self) -> None:
        """Called after the last op and before tracing is removed."""

    def properties(self) -> dict:
        return {}

    def latencies(self, ops: list) -> list:
        """The op latencies (s) that the latency statistics are taken over."""
        return [o["latency"] for o in ops]

    def report_reaches_output(self, op: Op, result) -> bool:
        """Whether an oracle_report solved during the op reaches its output."""
        return False


# --------------------------------------------------------------------------
class Sweep(Workload):
    """`hcmkit sweep` in-process through cli.main on generated configs."""

    name = "sweep"
    SPEED_REF = "lapack"
    N_GRID_DECK = (257, 257, 257, 257, 257, 257, 129, 385)
    N_GAMMA = 6  # gamma columns; with 3 theta rows, 18 cells per op
    CELLS = 3 * N_GAMMA

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self._grid_deck: list = []
        self.cells = 0
        self.mono_cells = 0
        self.n_grid_ops: dict[int, int] = {}
        self.corrected_ops = 0

    def next_op(self, i: int) -> Op:
        rng = self.rng
        n_grid = _deck(rng, self.N_GRID_DECK, i, self._grid_deck)
        cfg = {
            "geometry": {
                "L1_mm": round(rng.uniform(8.0, 30.0), 2),
                "gamma_s": 2.0,  # replaced by the sweep
                "theta_deg": 0.0,
                "h_mm": round(rng.uniform(10.0, 20.0), 2),
                "t_mm": round(rng.uniform(0.2, 0.8), 3),
            },
            "material": _material(rng),
            "options": {"n_grid": n_grid, "corrected_torsion": rng.random() < 0.25},
        }
        g0 = round(rng.uniform(2.0, 6.0), 2)
        dg = rng.choice((0.5, 1.0, 1.5))
        g_max = round(g0 + (self.N_GAMMA - 1) * dg, 2)
        # The lowest theta row is mono-stable at every gamma and the other two
        # are bistable at every gamma, so each op analyzes exactly 12 cells.
        th_low = round(-math.degrees(math.asin(1.0 / g0)) - rng.uniform(1.0, 10.0), 1)
        th_mid = -math.degrees(math.asin(1.0 / g_max)) + rng.uniform(1.0, 10.0)
        dth = round(th_mid - th_low, 1)
        path = os.path.join(self.work, "sweep.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(self.work, "sweep_out")
        argv = ["sweep", "--config", path, f"--theta={th_low}:{round(th_low + 2 * dth, 1)}:{dth}",
                f"--gamma={g0}:{g_max}:{dg}", "--out", out]
        return Op(i, self.CELLS, {"cfg": cfg, "argv": argv, "out": out})

    def run(self, op: Op):
        return call_main(op.payload["argv"], self.recorder)

    def check(self, op: Op, result, errs: list) -> None:
        code, stdout, stderr = result
        _expect(code == 0, f"sweep exited {code}: {stderr.strip()}")
        _expect(json.loads(stdout) == {"written": ["sweep.csv"], "rows": self.CELLS},
                "sweep summary")
        with open(os.path.join(op.payload["out"], "sweep.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        _expect(rows[0] == ["theta_deg", "gamma_s", "psi_l_deg", "u_barr_unitless",
                            "t_star_ms", "bistable"], "sweep header")
        _expect(len(rows) == self.CELLS + 1, "sweep row count")
        d = _design_args(op.payload["cfg"])
        cfg_opts = op.payload["cfg"]["options"]
        self.n_grid_ops[cfg_opts["n_grid"]] = self.n_grid_ops.get(cfg_opts["n_grid"], 0) + 1
        self.corrected_ops += cfg_opts["corrected_torsion"]
        for row in rows[1:]:
            theta, gamma = math.radians(float(row[0])), float(row[1])
            bistable = refs.beta(gamma, theta) > 0.0
            self.cells += 1
            self.mono_cells += not bistable
            _expect(row[5] == ("true" if bistable else "false"), f"bistable flag {row}")
            _within(errs, float(row[4]), 1e3 * refs.t_star(d["L1"], gamma, d["t"], d["E"],
                                                           d["rho"]), TOL_EXACT, "t_star_ms")
            if not bistable:
                _expect(row[2] == "" and row[3] == "", f"mono-stable cell has values {row}")
                continue
            args = _model_args(d, gamma_s=gamma, theta=theta)
            _within(errs, float(row[2]), math.degrees(refs.psi_l(*args)), TOL_GRID, "psi_l_deg")
            _within(errs, float(row[3]), refs.u_barr_unitless(*args), TOL_GRID,
                    "u_barr_unitless")

    def properties(self) -> dict:
        return {
            "cells_per_op": self.CELLS,
            "mono_stable_share": self.mono_cells / self.cells if self.cells else None,
            "n_grid_ops": {str(k): v for k, v in sorted(self.n_grid_ops.items())},
            "n_grid_deck": list(self.N_GRID_DECK),
            "corrected_torsion_share": self.corrected_ops / max(1, sum(self.n_grid_ops.values())),
        }


# --------------------------------------------------------------------------
class Dynamics(Workload):
    """Per design: analyze, three triggered snaps, hydro fit and cruise speeds."""

    name = "dynamics"
    ZETA_PRESETS = ("air", "water")
    N_FREQ = 3

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.snaps = 0
        self.repeated_snaps = 0
        self._tau_ref: dict[float, float] = {}
        self._tau_seen: dict[float, float] = {}

    def next_op(self, i: int) -> Op:
        rng = self.rng
        gamma = round(rng.uniform(2.0, 8.0), 3)
        beta_deg = rng.uniform(3.0, 25.0)
        L1 = round(rng.uniform(10.0, 30.0), 2)
        t = round(rng.uniform(0.25, 0.8), 3)
        cfg = {
            "geometry": {
                "L1_mm": L1, "gamma_s": gamma,
                "theta_deg": round(beta_deg - math.degrees(math.asin(1.0 / gamma)), 3),
                "h_mm": round(rng.uniform(12.0, 18.0), 2), "t_mm": t,
            },
            "material": _material(rng, E_range=(1.0, 5.0)),
            "options": {"corrected_torsion": rng.random() < 0.25},
            "hydro": {
                "mass_kg": round(rng.uniform(0.03, 0.12), 4),
                "body_length_cm": round(rng.uniform(15.0, 25.0), 2),
                "reference": {
                    "kind": "sinusoid", "amplitude_deg": round(rng.uniform(30.0, 50.0), 2),
                    "frequency_hz": round(rng.uniform(1.0, 2.0), 3),
                    "speed_cm_s": round(rng.uniform(8.0, 16.0), 2),
                },
            },
        }
        d = _design_args(cfg)
        ts = refs.t_star(d["L1"], d["gamma_s"], d["t"], d["E"], d["rho"])
        f_max = min(3.0, 0.45 / ts)
        freqs = [round(rng.uniform(0.2 * f_max, f_max), 4) for _ in range(self.N_FREQ)]
        fresh = round(rng.uniform(0.02, 1.5), 6)
        return Op(i, 1, {"cfg": cfg, "freqs": freqs, "fresh_zeta": fresh})

    def run(self, op: Op):
        from hcmkit import config, postbuckle, snapdyn, swim

        cfg = config.parse_config(op.payload["cfg"])
        geom, mat = cfg.geom, cfg.mat
        res = postbuckle.analyze(geom, mat, self.calib, n_grid=cfg.options.n_grid,
                                 corrected_torsion=cfg.options.corrected_torsion)
        I_eff = snapdyn.effective_inertia(geom, mat)
        zetas = [cfg.options.damping[m] for m in self.ZETA_PRESETS] + [op.payload["fresh_zeta"]]
        snaps = []
        for zeta in zetas:
            well = snapdyn.DoubleWell(U_barr=res.U_barr, psi_eq=res.psi_eq, I_eff=I_eff,
                                      zeta=zeta)
            t0 = time.perf_counter()
            trace = snapdyn.triggered_snap(well)
            duration = snapdyn.snap_duration(trace, well.psi_eq)
            op.sub.setdefault("snap", []).append(time.perf_counter() - t0)
            del trace
            snaps.append((zeta, duration * well.omega_well))
        hyd = cfg.hydro
        fit = swim.fit_hydro(hyd.reference_waveform, hyd.reference_speed, hyd.mass,
                             k_drag=hyd.k_drag)
        cruises = []
        for f in op.payload["freqs"]:
            for w in (swim.Waveform(kind="sinusoid", amplitude=hyd.reference_waveform.amplitude,
                                    frequency=f),
                      swim.Waveform(kind="bistable", amplitude=res.psi_eq, frequency=f,
                                    snap_time=res.t_star)):
                t0 = time.perf_counter()
                r = swim.cruise_speed(w, fit, CRUISE_T, hyd.body_length)
                op.sub.setdefault("cruise", []).append(time.perf_counter() - t0)
                cruises.append((w, r.v_steady, float(r.v_trace[-1])))
        return res, snaps, fit, cruises

    def _tau(self, zeta: float) -> float:
        if zeta not in self._tau_ref:
            self._tau_ref[zeta] = refs.snap_tau(zeta)
        return self._tau_ref[zeta]

    def check(self, op: Op, result, errs: list) -> None:
        res, snaps, fit, cruises = result
        cfg = op.payload["cfg"]
        d = _design_args(cfg)
        args = _model_args(d)
        _within(errs, res.P_cr, refs.p_cr(*args), TOL_GRID, "P_cr")
        _within(errs, res.psi_l, refs.psi_l(*args), TOL_GRID, "psi_l")
        _within(errs, res.U_barr, refs.u_barr(*args), TOL_GRID, "U_barr")
        for k, (zeta, tau) in enumerate(snaps):
            _within(errs, tau, self._tau(zeta), TOL_SNAP, f"omega*duration at zeta={zeta}")
            self.snaps += 1
            if k < len(self.ZETA_PRESETS):
                self.repeated_snaps += 1
                first = self._tau_seen.setdefault(zeta, tau)
                _within(errs, tau, first, TOL_EXACT, f"zeta-only snap at zeta={zeta}")
        ref = cfg["hydro"]["reference"]
        msr_ref = refs.mean_square_rate("sinusoid", math.radians(ref["amplitude_deg"]),
                                        ref["frequency_hz"])
        k_drag = 1.0  # the documented default drag split
        k_thrust = k_drag * (ref["speed_cm_s"] * 1e-2) ** 2 / msr_ref
        mass = cfg["hydro"]["mass_kg"]
        for w, v_steady, v_end in cruises:
            msr = refs.mean_square_rate(w.kind, w.amplitude, w.frequency, w.snap_time)
            v_s, v_T = refs.cruise_at(CRUISE_T, k_thrust, k_drag, mass, msr)
            _within(errs, v_steady, v_s, TOL_EXACT, "v_steady")
            _within(errs, v_end, v_T, TOL_EXACT, "v(T)")

    def properties(self) -> dict:
        return {
            "zeta_per_design": ["air preset", "water preset", "fresh U(0.02, 1.5)"],
            "repeated_zeta_share": self.repeated_snaps / self.snaps if self.snaps else None,
            "cruise_calls_per_design": 2 * self.N_FREQ,
        }


# --------------------------------------------------------------------------
class Oracle(Workload):
    """oracle_report at a seeded n_links plus the beam comparison of `hcmkit oracle`."""

    name = "oracle"
    N_LINKS = (20, 24, 28)

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self._links_deck: list = []
        self.n_links_ops: dict[int, int] = {}
        self.states: list = []
        self._saved: list = []

    def start(self) -> None:
        # oracle_report returns only totals; the states it solved for are
        # captured where oracle_report looks up its solvers.
        from hcmkit import oracle

        for name in ("find_equilibrium", "find_saddle"):
            fn = getattr(oracle, name)
            self._saved.append((name, fn))

            def capture(*a, _fn=fn, _name=name, **k):
                state = _fn(*a, **k)
                self.states.append((_name, state))
                return state

            setattr(oracle, name, capture)

    def stop(self) -> None:
        from hcmkit import oracle

        for name, fn in reversed(self._saved):
            setattr(oracle, name, fn)
        self._saved.clear()

    def next_op(self, i: int) -> Op:
        rng = self.rng
        n_links = _deck(rng, self.N_LINKS, i, self._links_deck)
        cfg = {
            "geometry": {
                "L1_mm": round(rng.uniform(10.0, 16.0), 2), "gamma_s": round(rng.uniform(4.0, 8.0), 3),
                "theta_deg": round(rng.uniform(-5.0, 0.0), 3), "h_mm": round(rng.uniform(12.0, 18.0), 2),
                "t_mm": round(rng.uniform(0.3, 0.5), 3),
            },
            "material": _material(rng, presets=("plastic",), E_range=(1.0, 5.0)),
            "options": {"n_links": n_links},
        }
        return Op(i, 1, {"cfg": cfg})

    def run(self, op: Op):
        from hcmkit import buckling, config, oracle, postbuckle

        self.states.clear()
        cfg = config.parse_config(op.payload["cfg"])
        geom, mat = cfg.geom, cfg.mat
        report = oracle.oracle_report(geom, mat, n_links=cfg.options.n_links)
        mode = buckling.critical_load(geom, mat, n_grid=cfg.options.n_grid)
        psi_beam = postbuckle.tip_angle(geom, mat, mode, self.calib)
        barrier_beam = postbuckle.energy_barrier(geom, mat, mode.P_cr)["U_barr"]
        return report, list(self.states), mode.P_cr, psi_beam, barrier_beam

    def check(self, op: Op, result, errs: list) -> None:
        report, states, P_cr, psi_beam, barrier_beam = result
        n_links = op.payload["cfg"]["options"]["n_links"]
        self.n_links_ops[n_links] = self.n_links_ops.get(n_links, 0) + 1
        d = _design_args(op.payload["cfg"])
        args = _model_args(d)
        l = d["L1"] * (1.0 + d["gamma_s"])
        _within(errs, P_cr, refs.p_cr(*args), TOL_GRID, "beam P_cr")
        _within(errs, psi_beam, refs.psi_l(*args), TOL_GRID, "beam psi_l")
        _within(errs, barrier_beam, refs.u_barr(*args), TOL_GRID, "beam U_barr")
        _expect(report.converged, "oracle report not converged")
        names = [n for n, _ in states]
        _expect(names == ["find_equilibrium", "find_equilibrium", "find_saddle"],
                f"oracle_report solved {names}")
        (_, plus), (_, minus), (_, saddle) = states
        for s in (plus, minus, saddle):
            _expect(s.converged, "oracle state not converged")
            _expect(s.gap <= GAP_TOL * l, f"closure gap {s.gap / l:.3g} l")
        mirror = abs(plus.energy - minus.energy) / max(abs(plus.energy), abs(minus.energy))
        errs.append(mirror)
        _expect(mirror <= MIRROR_TOL, f"well energies differ by {mirror:.3g}")
        _expect(abs(plus.psi_tip + minus.psi_tip) <= MIRROR_TOL * abs(plus.psi_tip),
                "well tip angles are not mirror images")
        _expect(report.barrier >= 0.0, f"negative barrier {report.barrier}")
        _within(errs, report.barrier, saddle.energy - min(plus.energy, minus.energy),
                TOL_EXACT, "barrier = U_saddle - U_min")
        _expect(abs(math.degrees(saddle.psi_tip)) < SADDLE_TIP_DEG,
                f"saddle tip at {math.degrees(saddle.psi_tip):.3g} deg")

    def report_reaches_output(self, op: Op, result) -> bool:
        return True

    def properties(self) -> dict:
        return {"n_links_set": list(self.N_LINKS),
                "n_links_ops": {str(k): v for k, v in sorted(self.n_links_ops.items())}}


# --------------------------------------------------------------------------
class Cli(Workload):
    """`python -m hcmkit.cli` subprocesses, one at a time, from a seeded mix.

    Every run starts with one `oracle --format csv` and one golden `analyze`
    so that each run holds the costly oracle path and a P_cr output; the
    rest is dealt from a shuffled deck.
    """

    name = "cli"
    SPEED_REF = "fault"
    FIRST = ("oracle_csv", "analyze_pneumatic")
    DECK = ("analyze_monostable", "analyze_untethered_csv", "analyze_steel", "sweep_plot",
            "snap_air", "snap_water", "swim_compare", "swim_bistable", "swim_sinusoid",
            "swim_fig6", "calibrate", "bad_config", "bad_snap_monostable", "bad_range")

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.golden = os.path.join(root, "tests", "golden")
        self.configs = os.path.join(root, "configs")
        self._queue: list = []
        self.mix: dict[str, int] = {}
        self.exit_mismatch = 0
        self.in_process = False  # the traced run drives cli.main in-process
        bad = os.path.join(work, "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump({"geometry": {"L1_mm": 12.5, "gamma_s": 6.0, "theta_deg": -3.0,
                                    "h_mm": -15.0, "t_mm": 0.381}, "material": "plastic"}, fh)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def warm_up(self) -> None:
        if self.in_process:
            super().warm_up()
        with open(os.path.join(self.root, "src", "hcmkit", "data", "calibration.json"),
                  encoding="utf-8") as fh:
            self.shipped_c_psi = json.load(fh)["c_psi"]

    def _cfg(self, name):
        return os.path.join(self.configs, f"{name}.json")

    def latencies(self, ops: list) -> list:
        """The latencies of one run's first ops and one deck, each op taken at
        the median latency of its kind over the run.

        Every run thus weighs the subcommands alike, however much of its last
        deck it dealt, and no sample is dropped. Kinds the run never reached
        are left out.
        """
        by_kind: dict[str, list] = {}
        for o in ops:
            by_kind.setdefault(o["kind"], []).append(o["latency"])
        one_deck = [*self.FIRST]
        for kind in self.DECK:
            one_deck += ["sweep", "plot"] if kind == "sweep_plot" else [kind]
        return [statistics.median(by_kind[k]) for k in one_deck if k in by_kind]

    def _kinds(self, i):
        """Subcommand plan of op i; a sweep is followed by its plot."""
        if i < len(self.FIRST):
            return self.FIRST[i]
        if not self._queue:
            for kind in self.rng.sample(self.DECK, len(self.DECK)):
                self._queue += ["sweep", "plot"] if kind == "sweep_plot" else [kind]
        return self._queue.pop(0)

    def next_op(self, i: int) -> Op:
        kind = self._kinds(i)
        rng = self.rng
        out = os.path.join(self.work, "out")
        p = {"kind": kind, "expect": 0, "out": out}
        if kind == "oracle_csv":
            p["n_links"] = 20
            argv = ["oracle", "--config", self._cfg("pneumatic"), "--n-links", "20",
                    "--format", "csv"]
        elif kind.startswith("analyze_"):
            name = kind.split("_")[1]
            p["config"] = name
            argv = ["analyze", "--config", self._cfg(name)]
            if kind.endswith("_csv"):
                argv += ["--format", "csv"]
        elif kind == "sweep":
            argv = ["sweep", "--config", self._cfg("pneumatic"), "--theta=-10:10:10",
                    "--gamma=4:8:2", "--out", out]
        elif kind == "plot":
            argv = ["plot", "--sweep-csv", os.path.join(out, "sweep.csv"), "--out", out]
        elif kind.startswith("snap_"):
            p["medium"] = kind.split("_")[1]
            p["config"] = rng.choice(("pneumatic", "untethered", "steel"))
            argv = ["snap", "--config", self._cfg(p["config"]), "--medium", p["medium"],
                    "--out", out]
        elif kind == "swim_compare":
            argv = ["swim", "--config", self._cfg("pneumatic"), "--compare"]
        elif kind in ("swim_bistable", "swim_sinusoid"):
            p["config"] = rng.choice(("pneumatic", "untethered"))
            p["frequency"] = round(rng.uniform(0.5, 3.0), 3)
            argv = ["swim", "--config", self._cfg(p["config"]), "--waveform", kind[5:],
                    "--frequency-hz", str(p["frequency"]), "--out", out]
        elif kind == "swim_fig6":
            argv = ["swim", "--fig6", "--out", out]
        elif kind == "calibrate":
            p["psi"] = round(rng.uniform(30.0, 45.0), 3)
            argv = ["calibrate", "--config", self._cfg("pneumatic"), "--psi-l-deg", str(p["psi"]),
                    "--out", out]
        elif kind == "bad_config":
            p["expect"] = 2
            argv = ["analyze", "--config", os.path.join(self.work, "bad.json")]
        elif kind == "bad_snap_monostable":
            p["expect"] = 3
            argv = ["snap", "--config", self._cfg("monostable"), "--out", out]
        else:  # bad_range
            p["expect"] = 2
            argv = ["sweep", "--config", self._cfg("pneumatic"), "--theta=0:10", "--gamma=4:8:2",
                    "--out", out]
        p["argv"] = argv
        self.mix[kind] = self.mix.get(kind, 0) + 1
        return Op(i, 1, p)

    def run(self, op: Op):
        if self.in_process:
            return call_main(op.payload["argv"], self.recorder)
        proc = subprocess.run([sys.executable, "-m", "hcmkit.cli", *op.payload["argv"]],
                              capture_output=True, text=True, env=self.env, cwd=self.work,
                              timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    # -- checks ----------------------------------------------------------
    def _golden(self, name) -> bytes:
        with open(os.path.join(self.golden, name), "rb") as fh:
            return fh.read()

    def _file(self, name) -> bytes:
        with open(os.path.join(self.work, "out", name), "rb") as fh:
            return fh.read()

    def _design(self, name) -> dict:
        with open(self._cfg(name), encoding="utf-8") as fh:
            return _design_args(json.load(fh))

    def _check_analyze(self, name, rec, errs):
        d = self._design(name)
        b = refs.beta(d["gamma_s"], d["theta"])
        _expect(rec["bistable"] == (b > 0.0), "bistable flag")
        _within(errs, rec["beta_deg"], math.degrees(b), TOL_EXACT, "beta_deg")
        _within(errs, rec["t_star_ms"], 1e3 * refs.t_star(d["L1"], d["gamma_s"], d["t"], d["E"],
                                                          d["rho"]), TOL_EXACT, "t_star_ms")
        if b > 0.0:
            args = _model_args(d)
            _within(errs, rec["P_cr_N"], refs.p_cr(*args), TOL_GRID, "P_cr_N")
            _within(errs, rec["psi_l_deg"], math.degrees(refs.psi_l(*args)), TOL_GRID,
                    "psi_l_deg")
            _within(errs, rec["U_barr_J"], refs.u_barr(*args), TOL_GRID, "U_barr_J")

    def check(self, op: Op, result, errs: list) -> None:
        code, stdout, stderr = result
        p = op.payload
        kind = p["kind"]
        self.exit_mismatch += code != p["expect"]
        _expect(code == p["expect"], f"{kind} exited {code}, expected {p['expect']}: "
                                     f"{stderr.strip()[-200:]}")
        if p["expect"] != 0:
            _expect(stderr.startswith("error: ") and "internal error" not in stderr
                    and "Traceback" not in stderr, f"{kind} stderr {stderr!r}")
            return
        if kind == "oracle_csv":
            lines = stdout.strip().split("\n")
            n = p["n_links"]
            _expect(lines[0] == "node_index,x_m,y_m,z_m" and len(lines) == n + 2, "node csv")
            nodes = [tuple(float(v) for v in ln.split(",")[1:]) for ln in lines[1:]]
            d = self._design("pneumatic")
            l = d["L1"] * (1.0 + d["gamma_s"])
            _expect(math.dist(nodes[0], nodes[-1]) <= GAP_TOL * l, "chain not closed")
            for a, b in zip(nodes, nodes[1:]):
                _within(errs, math.dist(a, b), l / n, TOL_EXACT, "link length")
        elif kind in ("analyze_pneumatic", "analyze_monostable"):
            _expect(stdout.encode() == self._golden(f"{kind}.json"), f"{kind} != golden")
            self._check_analyze(p["config"], json.loads(stdout), errs)
        elif kind.startswith("analyze_"):
            if kind.endswith("_csv"):
                keys, vals = (ln.split(",") for ln in stdout.strip().split("\n"))
                rec = {k: (v == "true" if v in ("true", "false") else float(v) if v else None)
                       for k, v in zip(keys, vals)}
            else:
                rec = json.loads(stdout)
            self._check_analyze(p["config"], rec, errs)
        elif kind == "sweep":
            _expect(self._file("sweep.csv") == self._golden("sweep_small.csv"), "sweep != golden")
        elif kind == "plot":
            for name in ("psi_l_deg.svg", "u_barr_unitless.svg"):
                _expect(self._file(name) == self._golden(name), f"{name} != golden")
        elif kind.startswith("snap_"):
            rec = json.loads(stdout)
            d = self._design(p["config"])
            args = _model_args(d)
            zeta = {"air": 0.05, "water": 0.8}[p["medium"]]
            psi_eq = refs.psi_l(*args)
            I_eff = d["rho"] * d["h"] * d["t"] * (d["L1"] * (1 + d["gamma_s"])) ** 3 / 3.0
            omega = math.sqrt(8.0 * refs.u_barr(*args) / (I_eff * psi_eq**2))
            _within(errs, rec["psi_eq_deg"], math.degrees(psi_eq), TOL_GRID, "psi_eq_deg")
            _within(errs, rec["duration_ms"] * 1e-3 * omega, refs.snap_tau(zeta), TOL_GRID,
                    "omega*duration")
            _expect(len(self._file(f"snap_{p['medium']}.csv").splitlines()) > 1000, "snap csv")
        elif kind == "swim_compare":
            _expect(stdout.encode() == self._golden("compare.json"), "compare != golden")
        elif kind in ("swim_bistable", "swim_sinusoid"):
            self._check_swim(p, json.loads(stdout), errs)
        elif kind == "swim_fig6":
            _expect(self._file("fig6.csv") == self._golden("fig6.csv"), "fig6 != golden")
        elif kind == "calibrate":
            rec = json.loads(stdout)
            with open(os.path.join(p["out"], "calibration.json"), encoding="utf-8") as fh:
                saved = json.load(fh)
            _within(errs, saved["c_psi"], rec["c_psi"], 1e-11, "written c_psi")
            # C_psi is linear in the anchor angle; the shipped one is anchored at 39 deg.
            _within(errs, saved["c_psi"], self.shipped_c_psi * p["psi"] / refs.ANCHOR_PSI_DEG,
                    TOL_EXACT, "c_psi")

    def _check_swim(self, p, rec, errs):
        with open(self._cfg(p["config"]), encoding="utf-8") as fh:
            cfg = json.load(fh)
        d = _design_args(cfg)
        ref = cfg["hydro"]["reference"]
        msr_ref = refs.mean_square_rate("sinusoid", math.radians(ref["amplitude_deg"]),
                                        ref["frequency_hz"])
        k_thrust = (ref["speed_cm_s"] * 1e-2) ** 2 / msr_ref  # k_drag = 1 kg/m
        if p["kind"] == "swim_sinusoid":
            amp = math.radians(ref["amplitude_deg"])
            msr = refs.mean_square_rate("sinusoid", amp, p["frequency"])
        else:
            amp = refs.psi_l(*_model_args(d))
            msr = refs.mean_square_rate("bistable", amp, p["frequency"],
                                        cfg["swim"]["snap_time_ms"] * 1e-3)
        v_s, v_T = refs.cruise_at(CRUISE_T, k_thrust, 1.0, cfg["hydro"]["mass_kg"], msr)
        _within(errs, rec["amplitude_deg"], math.degrees(amp), TOL_GRID, "amplitude_deg")
        _within(errs, rec["v_steady_m_s"], v_s, TOL_GRID, "v_steady_m_s")
        with open(os.path.join(p["out"], f"swim_{p['kind'][5:]}.csv"), encoding="utf-8") as fh:
            last = fh.read().strip().split("\n")[-1].split(",")
        _within(errs, float(last[0]), CRUISE_T, TOL_EXACT, "last cruise sample time")
        _within(errs, float(last[1]), v_T, TOL_GRID, "v(T)")

    def report_reaches_output(self, op: Op, result) -> bool:
        return '"barrier_J"' in result[1]

    def properties(self) -> dict:
        return {"subcommand_mix": dict(sorted(self.mix.items())),
                "first_ops": list(self.FIRST)}


WORKLOADS = {w.name: w for w in (Sweep, Dynamics, Oracle, Cli)}
