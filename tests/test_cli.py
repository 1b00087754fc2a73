import json

from hcmkit import cli, oracle

from conftest import CONFIGS, GOLDEN, run_cli, run_python

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
    assert abs(payload["duration_ms"] - 13.7300792975) < 1e-6
    lines = (tmp_path / "snap_water.csv").read_text().strip().split("\n")
    assert lines[0] == "time_s,psi_rad,psi_dot_rad_s,kinetic_J,potential_J"
    assert len(lines) > 1000


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
    for mode in (["--waveform", "sinusoid"], ["--compare"]):
        res = run_cli(["swim", "--config", PNEU, *mode, "--frequency-hz", "1e200",
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


def test_oracle_too_coarse_exits_2():
    res = run_cli(["oracle", "--config", PNEU, "--n-links", "10"])
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


def test_calibrate_writes_artifact(tmp_path):
    res = run_cli(["calibrate", "--config", PNEU, "--psi-l-deg", "39", "--out", str(tmp_path)])
    assert res.returncode == 0
    payload = json.loads((tmp_path / "calibration.json").read_text())
    assert abs(payload["c_psi"] - 0.16315471185527639) < 1e-12
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
