import datetime
import hashlib
import json
import re

import pytest

from hcmkit import cli, oracle

from conftest import CONFIGS, GOLDEN, ROOT, run_cli, run_python

PNEU = str(CONFIGS / "pneumatic.json")
MONO = str(CONFIGS / "monostable.json")


def test_analyze_matches_golden():
    res = run_cli(["analyze", "--config", PNEU])
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / "analyze_pneumatic.json").read_text()


def test_analyze_monostable_exits_zero():
    res = run_cli(["analyze", "--config", MONO])
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / "analyze_monostable.json").read_text()
    payload = json.loads(res.stdout)
    assert payload["bistable"] is False
    assert payload["psi_l_deg"] is None
    assert payload["beta_deg"] == -5.0


def test_analyze_csv_row():
    res = run_cli(["analyze", "--config", PNEU, "--format", "csv"])
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0].startswith("psi_l_deg,psi_eq_deg,P_cr_N,")
    assert lines[1].split(",")[0] == "39.0"


def test_analyze_uncalibrated_flag():
    res = run_cli(["analyze", "--config", PNEU, "--uncalibrated"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["calibration"] is None
    assert payload["psi_l_deg"] > 200.0  # raw integral, no anchor scale


def test_sweep_matches_golden(tmp_path):
    res = run_cli(
        ["sweep", "--config", PNEU, "--theta=-10:10:10", "--gamma=4:8:2", "--out", str(tmp_path)]
    )
    assert res.returncode == 0
    assert (tmp_path / "sweep.csv").read_text() == (GOLDEN / "sweep_small.csv").read_text()


def test_sweep_ignores_n_grid(tmp_path):
    # options.n_grid is validated but selects nothing: the beam reduction has no grid
    payload = json.loads((CONFIGS / "pneumatic.json").read_text())
    outputs = set()
    for n_grid in (129, 257, 385):
        payload["options"] = {"n_grid": n_grid}
        p = tmp_path / f"grid{n_grid}.json"
        p.write_text(json.dumps(payload))
        out = tmp_path / f"out{n_grid}"
        res = run_cli(["sweep", "--config", str(p), "--theta=-10:10:10", "--gamma=4:8:2",
                       "--out", str(out)])
        assert res.returncode == 0, res.stderr
        outputs.add((out / "sweep.csv").read_bytes())
    assert len(outputs) == 1


def test_sweep_bad_range_exits_2(tmp_path):
    res = run_cli(["sweep", "--config", PNEU, "--theta=0:10", "--gamma=4:8:2", "--out", str(tmp_path)])
    assert res.returncode == 2
    assert "MIN:MAX:STEP" in res.stderr
    res = run_cli(["sweep", "--config", PNEU, "--theta=0:10:-1", "--gamma=4:8:2", "--out", str(tmp_path)])
    assert res.returncode == 2


def test_sweep_range_cap_exits_2(tmp_path):
    # about 1e18 theta values, and a span that overflows: refused from the
    # count, before any list is built
    for theta in ("--theta=0:1e9:1e-9", "--theta=-1e308:1e308:1"):
        res = run_cli(["sweep", "--config", PNEU, theta, "--gamma=4:8:2", "--out", str(tmp_path)])
        assert res.returncode == 2
        assert "--theta" in res.stderr
    res = run_cli(
        ["sweep", "--config", PNEU, "--theta=0:999:1", "--gamma=2:201:1", "--out", str(tmp_path)]
    )
    assert res.returncode == 2
    assert "cells" in res.stderr
    assert not (tmp_path / "sweep.csv").exists()


def test_snap_monostable_exits_3(tmp_path):
    res = run_cli(["snap", "--config", MONO, "--out", str(tmp_path)])
    assert res.returncode == 3
    assert "mono-stable" in res.stderr
    assert "Traceback" not in res.stderr


def test_snap_writes_trace(tmp_path):
    res = run_cli(["snap", "--config", PNEU, "--medium", "water", "--out", str(tmp_path)])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["zeta"] == 0.8
    # tau(0.8)/omega_well, omega_well from the 40-digit U_barr of
    # test_postbuckle.py::test_energy_barrier_reference_values
    assert abs(payload["duration_ms"] - 13.7300314495) < 1e-6
    lines = (tmp_path / "snap_water.csv").read_text().strip().split("\n")
    assert lines[0] == "time_s,psi_rad,psi_dot_rad_s,kinetic_J,potential_J"
    assert len(lines) > 1000


def test_snap_damping_above_the_stable_limit_exits_2(tmp_path):
    # 1e6 overflows the unit snap; 400 is within the step's stability limit
    # and stays a snap that never leaves its starting well
    payload = json.loads((CONFIGS / "pneumatic.json").read_text())
    for zeta, code, fragment in ((1e6, 2, "options.damping.water"), (400.0, 3, "starting well")):
        payload["options"] = {"damping": {"water": zeta}}
        p = tmp_path / "damped.json"
        p.write_text(json.dumps(payload))
        res = run_cli(["snap", "--config", str(p), "--medium", "water", "--out", str(tmp_path)])
        assert res.returncode == code, res.stderr
        assert fragment in res.stderr
        assert "internal error" not in res.stderr
    assert not (tmp_path / "snap_water.csv").exists()


# Designs that analyze accepts but whose well frequency
# omega_well = sqrt(8*U_barr/(I_eff*psi_eq^2)) leaves the float range.
@pytest.mark.parametrize(
    "geometry,material",
    [
        # L1 = 1e-100 mm overflows omega_well to inf
        ({"L1_mm": 1e-100}, None),
        # omega_well underflows to 0
        ({"L1_mm": 2.0754390150589178e-59, "gamma_s": 5.038725205784724e93,
          "theta_deg": 42.03194478157786, "h_mm": 1.521382492818126e-19,
          "t_mm": 2.0174847061239748e-30},
         {"E_GPa": 1.6317212313296231e25, "nu": 0.4072936735615389,
          "rho_kg_m3": 3.039721026170083e220}),
    ],
    ids=["overflows", "underflows"],
)
def test_snap_out_of_range_well_frequency_exits_2_naming_fields(tmp_path, geometry, material):
    payload = json.loads((CONFIGS / "pneumatic.json").read_text())
    payload["geometry"].update(geometry)
    if material is not None:
        payload["material"] = material
    p = tmp_path / "design.json"
    p.write_text(json.dumps(payload))
    assert run_cli(["analyze", "--config", str(p)]).returncode == 0
    res = run_cli(["snap", "--config", str(p), "--out", str(tmp_path)])
    assert res.returncode == 2, res.stdout
    assert cli.DESIGN_FIELDS in res.stderr and "material.rho_kg_m3" in res.stderr
    assert "omega_well" in res.stderr and "internal error" not in res.stderr
    assert not (tmp_path / "snap_air.csv").exists()


def test_swim_compare_matches_golden():
    res = run_cli(["swim", "--config", PNEU, "--compare"])
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / "compare.json").read_text()
    payload = json.loads(res.stdout)
    assert 1.7 <= payload["speed_ratio"] <= 2.4


def test_swim_trace(tmp_path):
    res = run_cli(["swim", "--config", PNEU, "--waveform", "sinusoid", "--out", str(tmp_path)])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert abs(payload["v_steady_m_s"] - 0.131) < 1e-9
    lines = (tmp_path / "swim_sinusoid.csv").read_text().strip().split("\n")
    assert lines[0] == "time_s,v_m_s"
    assert lines[1] == "0.0,0.0"


# OPENBLAS_NUM_THREADS for a child: 1, or dropped with the other thread-count
# variables so that OpenBLAS uses every core.
BLAS_ENVS = {
    "blas1": {"OPENBLAS_NUM_THREADS": "1"},
    "blas_default": dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")),
}
ARRAY_COMMANDS = {
    "snap_air": ["snap", "--medium", "air"],
    "snap_water": ["snap", "--medium", "water"],
    "swim_sinusoid": ["swim", "--waveform", "sinusoid"],
    "swim_bistable": ["swim", "--waveform", "bistable"],
}


@pytest.mark.parametrize("blas", BLAS_ENVS)
@pytest.mark.parametrize("name", ARRAY_COMMANDS)
def test_array_outputs_match_golden(tmp_path, name, blas):
    # stdout byte for byte; the CSV (up to 255 kB) by its SHA-256 in csv.sha256
    res = run_cli([*ARRAY_COMMANDS[name], "--config", PNEU, "--out", str(tmp_path)],
                  env=BLAS_ENVS[blas])
    assert res.returncode == 0, res.stderr
    assert res.stdout == (GOLDEN / f"{name}.json").read_text()
    digests = {f: d for d, f in map(str.split, (GOLDEN / "csv.sha256").read_text().splitlines())}
    assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == digests[f"{name}.csv"]


@pytest.mark.parametrize("blas", BLAS_ENVS)
def test_calibrate_matches_golden_but_for_its_date(tmp_path, blas):
    # `created` is the day the calibration was made; every other byte is frozen
    days = {datetime.date.today().isoformat()}
    res = run_cli(["calibrate", "--config", PNEU, "--psi-l-deg", "39", "--out", str(tmp_path)],
                  env=BLAS_ENVS[blas])
    days.add(datetime.date.today().isoformat())
    assert res.returncode == 0, res.stderr
    for text, name in ((res.stdout, "calibrate.json"),
                       ((tmp_path / "calibration.json").read_text(), "calibration.json")):
        created = json.loads(text)["created"]
        assert created in days
        golden, n = re.subn(r'"created": "[^"]*"', f'"created": "{created}"',
                            (GOLDEN / name).read_text())
        assert n == 1
        assert text == golden


def test_swim_without_hydro_reference_exits_2(tmp_path):
    payload = json.loads((CONFIGS / "pneumatic.json").read_text())
    del payload["hydro"]["reference"]
    p = tmp_path / "noref.json"
    p.write_text(json.dumps(payload))
    for extra in (["--compare"], ["--waveform", "sinusoid", "--out", str(tmp_path)]):
        res = run_cli(["swim", "--config", str(p), *extra])
        assert res.returncode == 2
        assert "hydro.reference" in res.stderr
        assert "internal error" not in res.stderr


def test_float_flags_reject_non_finite(tmp_path):
    for bad in ("inf", "-inf", "nan"):
        res = run_cli(["swim", "--config", PNEU, "--frequency-hz", bad, "--out", str(tmp_path)])
        assert res.returncode == 2
        assert "--frequency-hz" in res.stderr
        res = run_cli(["calibrate", "--config", PNEU, "--psi-l-deg", bad, "--out", str(tmp_path)])
        assert res.returncode == 2
        assert "--psi-l-deg" in res.stderr
    assert not (tmp_path / "calibration.json").exists()


def test_swim_overflowing_tip_rate_exits_2(tmp_path):
    # 1e-300 Hz: the rate underflows to 0, and --compare divided by the 0 speed
    for freq in ("1e200", "1e-300"):
        for mode in (["--waveform", "sinusoid"], ["--compare"]):
            res = run_cli(["swim", "--config", PNEU, *mode, "--frequency-hz", freq,
                           "--out", str(tmp_path)])
            assert res.returncode == 2
            assert "tip rate" in res.stderr
            assert "internal error" not in res.stderr


def test_swim_fig6_matches_golden(tmp_path):
    res = run_cli(["swim", "--fig6", "--out", str(tmp_path)])
    assert res.returncode == 0
    assert (tmp_path / "fig6.csv").read_text() == (GOLDEN / "fig6.csv").read_text()


def test_plot_matches_golden(tmp_path):
    res = run_cli(["plot", "--sweep-csv", str(GOLDEN / "sweep_small.csv"), "--out", str(tmp_path)])
    assert res.returncode == 0
    for name in ("psi_l_deg.svg", "u_barr_unitless.svg"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_plot_missing_csv_exits_2(tmp_path):
    res = run_cli(["plot", "--sweep-csv", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert res.returncode == 2


@pytest.mark.parametrize("n_links", ["10", "1001", "1000000000000000"])
def test_oracle_too_coarse_exits_2(n_links):
    res = run_cli(["oracle", "--config", PNEU, "--n-links", n_links])
    assert res.returncode == 2
    assert "n_links" in res.stderr


def test_oracle_json_report():
    res = run_cli(["oracle", "--config", PNEU, "--n-links", "40"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["converged"] is True
    assert abs(payload["psi_tip_deg"] - 81.1684176245) < 0.05
    assert payload["barrier_J"] > 0.0
    # the chain and the beam reduction disagree strongly; the report says so
    assert payload["barrier_vs_eq2_rel_err"] < -0.5
    assert payload["psi_vs_eq1_rel_err"] > 0.5


def test_oracle_nodes_csv():
    res = run_cli(["oracle", "--config", PNEU, "--n-links", "40", "--format", "csv"])
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "node_index,x_m,y_m,z_m"
    assert len(lines) == 1 + 41


def test_oracle_csv_solves_only_the_plus_well(monkeypatch, capsys):
    def no_report(*args, **kwargs):
        raise AssertionError("oracle --format csv ran the full report")

    monkeypatch.setattr(oracle, "oracle_report", no_report)
    code = cli.main(["oracle", "--config", PNEU, "--n-links", "20", "--format", "csv"])
    out = capsys.readouterr()
    assert code == 0, out.err
    lines = out.out.strip().split("\n")
    assert lines[0] == "node_index,x_m,y_m,z_m"
    assert len(lines) == 1 + 21


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--config", PNEU, "--theta=0:0:1", "--gamma=6:6:1"],
        ["snap", "--config", PNEU],
        ["swim", "--config", PNEU, "--waveform", "sinusoid"],
        ["swim", "--fig6"],
        ["calibrate", "--config", PNEU, "--psi-l-deg", "39"],
        ["plot", "--sweep-csv", str(GOLDEN / "sweep_small.csv")],
    ],
    ids=["sweep", "snap", "swim", "swim-fig6", "calibrate", "plot"],
)
def test_unusable_out_exits_2(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        code = cli.main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: --out ") and "internal error" not in err
    assert blocker.read_text() == ""


def test_calibrate_writes_artifact(tmp_path):
    res = run_cli(["calibrate", "--config", PNEU, "--psi-l-deg", "39", "--out", str(tmp_path)])
    assert res.returncode == 0
    payload = json.loads((tmp_path / "calibration.json").read_text())
    # the 40-digit reference of test_postbuckle.py::test_calibration_anchor_roundtrip
    assert abs(payload["c_psi"] / 0.1631508165206301 - 1.0) <= 2e-15
    res2 = run_cli(["calibrate", "--config", PNEU, "--psi-l-deg", "-5", "--out", str(tmp_path)])
    assert res2.returncode == 2


def test_calibrate_uses_corrected_torsion(tmp_path):
    payload = json.loads((CONFIGS / "pneumatic.json").read_text())
    payload["options"] = {"corrected_torsion": True}
    p = tmp_path / "corrected.json"
    p.write_text(json.dumps(payload))
    res = run_cli(["calibrate", "--config", str(p), "--psi-l-deg", "39", "--out", str(tmp_path)])
    assert res.returncode == 0
    assert json.loads(res.stdout)["anchor_id"].endswith(",corrected_torsion")


def test_cli_import_leaves_out_scipy_integrate():
    res = run_python(["-c", "import sys, hcmkit.cli; print('scipy.integrate' in sys.modules)"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy_optimize():
    # only the oracle solves with scipy.optimize; it imports it on first use
    res = run_python(["-c", "import sys, hcmkit.cli; print('scipy.optimize' in sys.modules)"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_leaves_out_scipy_except_for_the_oracle(tmp_path):
    # every subcommand but oracle runs without scipy, which costs about 0.5 s to import
    script = (
        "import json, sys; from hcmkit import cli; cfg, out = sys.argv[1:]; "
        "codes = [cli.main(a) for a in ("
        "['analyze', '--config', cfg], "
        "['sweep', '--config', cfg, '--theta=-10:10:10', '--gamma=4:8:2', '--out', out], "
        "['plot', '--sweep-csv', out + '/sweep.csv', '--out', out], "
        "['snap', '--config', cfg, '--out', out], "
        "['swim', '--config', cfg, '--compare'], "
        "['calibrate', '--config', cfg, '--psi-l-deg', '39', '--out', out])]; "
        "print(json.dumps([codes, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))"
    )
    res = run_python(["-c", script, PNEU, str(tmp_path)])
    assert res.returncode == 0, res.stderr
    codes, scipy_modules = json.loads(res.stdout.strip().split("\n")[-1])
    assert codes == [0] * 6
    assert scipy_modules == []


def test_array_free_commands_leave_out_numpy(tmp_path):
    # only snap, swim --waveform and oracle build arrays; the rest start without
    # numpy, which is most of a short command's wall time
    bad = tmp_path / "bad.json"
    bad.write_text('{"geometry": {"L1_mm": 1.0}}')
    script = (
        "import json, sys; from hcmkit import cli; cfg, mono, bad, out = sys.argv[1:]; "
        "codes = [cli.main(a) for a in ("
        "['analyze', '--config', cfg], "
        "['sweep', '--config', cfg, '--theta=-10:10:10', '--gamma=4:8:2', '--out', out], "
        "['plot', '--sweep-csv', out + '/sweep.csv', '--out', out], "
        "['calibrate', '--config', cfg, '--psi-l-deg', '39', '--out', out], "
        "['swim', '--config', cfg, '--compare'], "
        "['swim', '--fig6', '--out', out], "
        "['analyze', '--config', bad], "
        "['sweep', '--config', cfg, '--theta=0:10', '--gamma=4:8:2', '--out', out], "
        "['snap', '--config', mono, '--out', out])]; "
        "print(json.dumps([codes, [m for m in sys.modules if m.split('.')[0] == 'numpy']]))"
    )
    res = run_python(["-c", script, PNEU, MONO, str(bad), str(tmp_path)])
    assert res.returncode == 0, res.stderr
    codes, numpy_modules = json.loads(res.stdout.strip().split("\n")[-1])
    assert codes == [0] * 6 + [2, 2, 3]
    assert numpy_modules == []
    res = run_python(["-c", "import sys, hcmkit; print('numpy' in sys.modules)"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_import_loads_every_layer_the_benchmark_traces():
    # perfbench's tracer wraps each traced layer and oracle.minimize through
    # sys.modules right after `import hcmkit.cli`; a layer imported on first
    # use would end a traced run in a KeyError
    script = (
        "import json, sys; import hcmkit.cli; loaded = set(sys.modules); "
        "sys.path.insert(0, sys.argv[1]); import tracing; "
        "print(json.dumps([[l for l in tracing.LAYERS if 'hcmkit.' + l not in loaded], "
        "callable(getattr(sys.modules['hcmkit.oracle'], 'minimize', None))]))"
    )
    res = run_python(["-c", script, str(ROOT / "perfbench")])
    assert res.returncode == 0, res.stderr
    missing, minimize_resolves = json.loads(res.stdout)
    assert missing == []
    assert minimize_resolves


def test_analyze_is_independent_of_blas_threads():
    # the oracle's link frames are batched 3x3 matrix products
    outs = [run_cli(["oracle", "--config", PNEU, "--format", "csv", "--n-links", "20"], env=env)
            for env in BLAS_ENVS.values()]
    for res in outs:
        assert res.returncode == 0, res.stderr
    assert outs[0].stdout == outs[1].stdout


def test_missing_config_exits_2():
    for cmd in ("analyze", "snap", "oracle"):
        res = run_cli([cmd])
        assert res.returncode == 2
        assert "config" in res.stderr


def test_bad_config_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"geometry": {"L1_mm": 1.0}}')
    res = run_cli(["analyze", "--config", str(p)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_unknown_subcommand_exits_2():
    res = run_cli(["transmogrify"])
    assert res.returncode == 2


def test_reruns_are_byte_identical():
    a = run_cli(["analyze", "--config", PNEU])
    b = run_cli(["analyze", "--config", PNEU])
    assert a.stdout == b.stdout
