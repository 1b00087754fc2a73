"""Self-tests of the benchmark: its checks catch wrong outputs, tracing leaves
no patched name behind, and the tail rule picks the stated percentile.

Run with `PYTHONPATH=src python3 -m pytest perfbench` from the repository root.
"""

import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import refs  # noqa: E402
import run  # noqa: E402
import speedref  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _failed_frac(wl, seconds=0.01):
    ops, failures = run.run_loop(wl, seconds, None)
    return sum(o["failed"] for o in ops) / len(ops), failures


def test_mathieu_constant_matches_scipy():
    from scipy.optimize import brentq
    from scipy.special import mathieu_b

    q = brentq(lambda q: mathieu_b(1, q) - 2.0 * q, 0.1, 1.0, xtol=1e-15)
    assert abs(4.0 * math.pi**2 * q / refs.MATHIEU_MU - 1.0) < 1e-12


@pytest.mark.parametrize("n, p", [(19, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
                                  (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
                                  (1000, 99.0), (10000, 99.9)])
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, p):
    t = stats.tail(list(range(n)))
    assert t["p"] == p
    assert t["n"] == n
    if p != 50.0:
        assert t["beyond"] >= stats.MIN_BEYOND


def _sweep(tmp_path, column):
    """A sweep workload whose CSV column `column` is scaled by 1 + 1e-3."""

    class Perturbed(workloads.Sweep):
        def run(self, op):
            result = super().run(op)
            path = os.path.join(op.payload["out"], "sweep.csv")
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().strip().split("\n")
            rows = [lines[0]]
            for line in lines[1:]:
                cells = line.split(",")
                if cells[column]:
                    cells[column] = repr(float(cells[column]) * (1.0 + 1e-3))
                rows.append(",".join(cells))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
            return result

    wl = Perturbed(str(ROOT), str(tmp_path), seed=1)
    wl.warm_up()
    return wl


def test_unperturbed_sweep_passes(tmp_path):
    wl = workloads.Sweep(str(ROOT), str(tmp_path), seed=1)
    wl.warm_up()
    frac, failures = _failed_frac(wl)
    assert frac == 0.0, failures


@pytest.mark.parametrize("column, what", [(2, "psi_l_deg"), (3, "u_barr_unitless")])
def test_perturbed_psi_or_p_cr_raises_failed_frac(tmp_path, column, what):
    # u_barr_unitless carries P_cr: U_barr = 3*P_cr*L2*beta.
    frac, failures = _failed_frac(_sweep(tmp_path, column))
    assert frac == 1.0
    assert what in failures[0]


def test_wrong_exit_code_raises_failed_frac(tmp_path):
    class WrongExit(workloads.Cli):
        def run(self, op):
            return 3, "", "error: injected"

    wl = WrongExit(str(ROOT), str(tmp_path), seed=1)
    wl.warm_up()
    ops, failures = run.run_loop(wl, 0.01, None)
    # only the ops that expect exit code 3 accept the injected code
    assert "expected 0" in failures[0]
    assert wl.exit_mismatch == sum(o["failed"] for o in ops) > 0


def test_non_converged_oracle_state_raises_failed_frac(tmp_path):
    d = {"L1": 12.5e-3, "gamma_s": 6.0, "theta": math.radians(-3.0), "h": 15e-3,
         "t": 0.381e-3, "E": 1.73e9, "nu": 0.35, "corrected_torsion": False}
    args = workloads._model_args(d)
    l = d["L1"] * 7.0

    def state(energy, psi, converged=True):
        return SimpleNamespace(energy=energy, psi_tip=psi, gap=1e-6 * l, converged=converged)

    class Unconverged(workloads.Oracle):
        def run(self, op):
            op.payload["cfg"] = {
                "geometry": {"L1_mm": 12.5, "gamma_s": 6.0, "theta_deg": -3.0, "h_mm": 15.0,
                             "t_mm": 0.381},
                "material": "plastic", "options": {"n_links": 20}}
            plus, minus = state(1.0, 1.4), state(1.0, -1.4)
            saddle = state(1.5, 0.0, converged=False)
            report = SimpleNamespace(converged=True, barrier=0.5)
            states = [("find_equilibrium", plus), ("find_equilibrium", minus),
                      ("find_saddle", saddle)]
            return (report, states, refs.p_cr(*args), refs.psi_l(*args), refs.u_barr(*args))

    wl = Unconverged(str(ROOT), str(tmp_path), seed=1)
    wl.warm_up()
    frac, failures = _failed_frac(wl)
    assert frac == 1.0 and "not converged" in failures[0]


def _hcmkit_globals():
    return {(name, g): id(v) for name, m in sys.modules.items()
            if m is not None and (name == "hcmkit" or name.startswith("hcmkit."))
            for g, v in vars(m).items()}


def test_traced_run_restores_every_patched_name(tmp_path):
    import hcmkit.cli  # noqa: F401
    from hcmkit import buckling, postbuckle

    before = _hcmkit_globals()
    original = buckling.critical_load
    wl = workloads.Sweep(str(ROOT), str(tmp_path), seed=2)
    wl.warm_up()
    rec = tracing.Recorder()
    rec.install()
    try:
        # postbuckle imported critical_load by name, so it needs its own wrapper
        assert postbuckle.critical_load is not original
        assert "hcmkit.postbuckle.critical_load" in rec.patched_names()
        assert "hcmkit.oracle.minimize" in rec.patched_names()
        wl.recorder = rec
        ops, failures = run.run_loop(wl, 0.01, rec)
    finally:
        rec.restore()
    assert not failures
    names = {s.name for s in rec.spans}
    assert {"cli.sweep", "postbuckle.analyze", "buckling.critical_load"} <= names
    assert _hcmkit_globals() == before
    assert postbuckle.critical_load is original


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_gated_times_are_wall_times_at_reference_speed():
    meter = speedref.Meter("interp")
    meter.samples = [2.0 * speedref.NOMINAL_MS["interp"]] * 3  # a host at half speed
    ops = [{"latency": x, "units": 1, "failed": False, "errs": [], "sub": {}}
           for x in (0.2, 0.4, 0.6)]
    e2e = run.end_to_end("dynamics", ops, [o["latency"] for o in ops], [1.0, 3.0, 2.0], 1.0,
                         meter.scale())
    assert e2e["op_p50_wall_ms"] == pytest.approx(400.0)
    assert e2e["op_p50_ms"] == pytest.approx(200.0)
    assert e2e["setup_s"] == e2e["setup_wall_s"] == 2.0


def test_cli_latencies_weigh_one_deck_whatever_the_run_dealt(tmp_path):
    wl = workloads.Cli(str(ROOT), str(tmp_path), seed=1)
    ops = [{"kind": wl.next_op(i).payload["kind"], "latency": 1.0} for i in range(40)]
    assert len(wl.latencies(ops[:10])) == len({o["kind"] for o in ops[:10]})
    for o in ops:
        o["latency"] = 2.0 if o["kind"] == "snap_air" else 1.0
    deck = wl.latencies(ops)
    assert len(deck) == len(wl.FIRST) + len(wl.DECK) + 1  # sweep_plot deals two ops
    assert sorted(deck)[-1] == 2.0 and sorted(deck)[-2] == 1.0
    assert wl.latencies(ops[:33]) == deck
