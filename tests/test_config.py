import json
import math

import pytest

from hcmkit import config
from hcmkit.errors import ConfigError

from conftest import CONFIGS


def test_shipped_pneumatic_config():
    cfg = config.load_config(CONFIGS / "pneumatic.json")
    assert abs(cfg.geom.L1 - 12.5e-3) < 1e-12
    assert cfg.geom.gamma_s == 6.0
    assert abs(cfg.geom.theta - math.radians(-3.0)) < 1e-12
    assert cfg.material_name == "plastic"
    assert cfg.mat.E == 1.73e9
    assert cfg.hydro is not None
    assert abs(cfg.hydro.mass - 0.0425) < 1e-12
    assert abs(cfg.hydro.body_length - 0.186) < 1e-12
    assert cfg.hydro.reference_waveform.kind == "sinusoid"
    assert abs(cfg.hydro.reference_waveform.amplitude - math.radians(41.6)) < 1e-12
    assert abs(cfg.hydro.reference_speed - 0.1310) < 1e-12
    assert abs(cfg.snap_time_override - 0.068) < 1e-12
    # defaults
    assert cfg.options.n_grid == 257
    assert cfg.options.n_links == 60
    assert not cfg.options.corrected_torsion
    assert cfg.options.damping == {"air": 0.05, "water": 0.8}


def test_shipped_steel_config_has_no_hydro():
    cfg = config.load_config(CONFIGS / "steel.json")
    assert cfg.material_name == "steel"
    assert cfg.hydro is None
    assert cfg.snap_time_override is None


def _write(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return p


BASE = {
    "geometry": {"L1_mm": 12.5, "gamma_s": 6.0, "theta_deg": -3.0, "h_mm": 15.0, "t_mm": 0.381},
    "material": "plastic",
}


def test_custom_material(tmp_path):
    payload = dict(BASE)
    payload["material"] = {"E_GPa": 2.0, "nu": 0.4, "rho_kg_m3": 1100.0}
    cfg = config.load_config(_write(tmp_path, payload))
    assert cfg.material_name == "custom"
    assert cfg.mat.E == 2.0e9
    assert cfg.mat.nu == 0.4


def test_options_overrides(tmp_path):
    payload = dict(BASE)
    payload["options"] = {
        "corrected_torsion": True,
        "n_grid": 129,
        "n_links": 40,
        "damping": {"air": 0.02, "water": 1.1},
    }
    cfg = config.load_config(_write(tmp_path, payload))
    assert cfg.options.corrected_torsion
    assert cfg.options.n_grid == 129
    assert cfg.options.n_links == 40
    assert cfg.options.damping == {"air": 0.02, "water": 1.1}


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda p: p.pop("geometry"), "geometry"),
        (lambda p: p.pop("material"), "material"),
        (lambda p: p["geometry"].pop("L1_mm"), "L1_mm"),
        (lambda p: p["geometry"].update(L1_mm="wide"), "L1_mm"),
        (lambda p: p["geometry"].update(extra=1.0), "extra"),
        (lambda p: p.update(material="adamantium"), "adamantium"),
        (lambda p: p.update(material={"E_GPa": 2.0}), "nu"),
        (lambda p: p.update(options={"n_grid": -4}), "n_grid"),
        (lambda p: p.update(options={"n_grid": 10}), "options.n_grid"),
        (lambda p: p.update(options={"n_grid": 200000}), "options.n_grid"),
        (lambda p: p.update(options={"mystery": 1}), "mystery"),
        (lambda p: p.update(hydro={"mass_kg": 0.1}), "body_length_cm"),
        (lambda p: p.update(swim={"snap_time_ms": -5.0}), "snap_time_ms"),
        (lambda p: p.update(bogus_block={}), "bogus"),
        (lambda p: p["geometry"].update(gamma_s=math.inf), "gamma_s"),
        (lambda p: p["geometry"].update(h_mm=math.inf), "h_mm"),
        (lambda p: p["geometry"].update(theta_deg=math.nan), "theta_deg"),
        (lambda p: p["geometry"].update(t_mm=10**400), "t_mm"),
        (lambda p: p.update(options={"damping": {"air": math.inf}}), "damping.air"),
    ],
)
def test_rejects_malformed(tmp_path, mutate, fragment):
    payload = json.loads(json.dumps(BASE))
    mutate(payload)
    with pytest.raises(ConfigError) as err:
        config.load_config(_write(tmp_path, payload))
    assert fragment in str(err.value)


def test_missing_file():
    with pytest.raises(ConfigError):
        config.load_config("/nonexistent/nope.json")


def test_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    for text in (
        "{not json",
        json.dumps(BASE).replace("12.5", "1" * 5001),  # beyond the int-parsing digit limit
        "[" * 200000 + "]" * 200000,  # beyond the decoder's recursion limit
    ):
        p.write_text(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            config.load_config(p)


def test_geometry_limits_surface_as_config_errors(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["geometry"]["gamma_s"] = 0.5
    with pytest.raises(ConfigError, match="gamma_s"):
        config.load_config(_write(tmp_path, payload))
