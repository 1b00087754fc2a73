import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcmkit import cli, config
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
        (lambda p: p.update(hydro={"mass_kg": 0.1, "body_length_cm": 20.0, "k_drag_kg_m": -1.0}),
         "hydro.k_drag_kg_m"),
        (lambda p: p.update(hydro={"mass_kg": 0.1, "body_length_cm": 20.0, "k_drag_kg_m": 0}),
         "hydro.k_drag_kg_m"),
        (lambda p: p.update(swim={"snap_time_ms": -5.0}), "snap_time_ms"),
        (lambda p: p.update(bogus_block={}), "bogus"),
        (lambda p: p["geometry"].update(gamma_s=math.inf), "gamma_s"),
        (lambda p: p["geometry"].update(h_mm=math.inf), "h_mm"),
        (lambda p: p["geometry"].update(theta_deg=math.nan), "theta_deg"),
        (lambda p: p["geometry"].update(t_mm=10**400), "t_mm"),
        (lambda p: p.update(material={"E_GPa": 1e300, "nu": 0.4, "rho_kg_m3": 1e3}),
         "material.E_GPa"),
        (lambda p: p.update(material={"E_GPa": 1.0, "nu": 0.4, "rho_kg_m3": 1e-300}),
         "material.E_GPa and material.rho_kg_m3"),
        (lambda p: p.update(material={"E_GPa": 1e-300, "nu": 0.4, "rho_kg_m3": 1e300}),
         "material.E_GPa and material.rho_kg_m3"),
        (lambda p: p["geometry"].update(L1_mm=1e300), "geometry.L1_mm"),
        (lambda p: p["geometry"].update(L1_mm=1e-150), "geometry.gamma_s"),
        (lambda p: p["geometry"].update(h_mm=1e120, t_mm=1e110), "geometry.t_mm"),
        (lambda p: p.update(hydro={"mass_kg": 0.1, "body_length_cm": 20.0, "reference": {
            "kind": "sinusoid", "amplitude_deg": 40.0, "frequency_hz": 1.0, "speed_cm_s": 1e300}}),
         "reference.speed_cm_s"),
        (lambda p: p.update(options={"damping": {"air": math.inf}}), "damping.air"),
        (lambda p: p.update(options={"damping": {"water": 1e6}}), "options.damping.water"),
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


def _key_paths(node, prefix=()):
    """Every key path into a nested JSON object, blocks and leaves alike."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield prefix + (key,)
            yield from _key_paths(child, prefix + (key,))


_HOSTILE = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0, 0.0, -0.0, None, True, "", "12", [], {}]),
    st.integers(min_value=10**300, max_value=10**400),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300, allow_nan=False),
    st.floats(min_value=1e300, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.json"))), data=st.data())
def test_config_mutations_never_end_in_internal_error(name, data):
    # drop keys, change types, insert non-finite, huge and negative numbers;
    # each command must then succeed or fail with a named error
    payload = json.loads((CONFIGS / name).read_text())
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="mutations")):
        paths = list(_key_paths(payload))
        if not paths:
            break
        *parent_keys, key = data.draw(st.sampled_from(paths), label="path")
        parent = payload
        for k in parent_keys:
            parent = parent[k]
        if data.draw(st.booleans(), label="drop"):
            del parent[key]
        else:
            parent[key] = data.draw(_HOSTILE, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        for command in (["analyze"], ["swim", "--compare"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*command, "--config", path])
            assert code in (0, 2, 3), (command, payload, err.getvalue())
            assert "internal error" not in err.getvalue(), (command, payload, err.getvalue())


# Printed fields that carry a model scale: on exit 0 each must be positive and finite.
_SCALE_FIELDS = {"t_star_ms", "P_cr_N", "U_barr_J", "U_barr_unitless", "psi_l_deg",
                 "duration_ms", "v_steady_m_s", "u_barr_unitless"}


def _scale_values(node):
    """Every value under a key of _SCALE_FIELDS in a JSON document."""
    if isinstance(node, dict):
        for key, child in node.items():
            if key in _SCALE_FIELDS:
                yield key, child
            else:
                yield from _scale_values(child)


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_DECADES = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    data=st.fixed_dictionaries({
        "L1_mm": _DECADES, "h_mm": _DECADES, "t_mm": _DECADES,
        "E_GPa": _DECADES, "rho_kg_m3": _DECADES,
        "gamma_s": st.floats(-15.0, 300.0).map(lambda e: 1.0 + 10.0**e),
    })
)
def test_log_uniform_designs_exit_2_or_print_positive_finite_scales(data):
    # no run ends in an internal error, and a run that exits 0 prints only
    # positive, finite scales
    payload = json.loads((CONFIGS / "pneumatic.json").read_text())
    payload["material"] = {"E_GPa": data.pop("E_GPa"), "nu": 0.35,
                           "rho_kg_m3": data.pop("rho_kg_m3")}
    payload["geometry"].update(data)
    theta, gamma = payload["geometry"]["theta_deg"], payload["geometry"]["gamma_s"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "design.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        for argv in (
            ["analyze"],
            ["sweep", f"--theta={theta!r}:{theta!r}:1", f"--gamma={gamma!r}:{gamma!r}:1"],
            ["snap"],
            ["swim", "--compare"],
        ):
            code, out, err = _run_in_process([*argv, "--config", path, "--out", tmp])
            assert code in (0, 2, 3), (argv, payload, err)
            assert "internal error" not in err, (argv, payload, err)
            if code != 0:
                continue
            values = list(_scale_values(json.loads(out)))
            if argv[0] == "sweep":
                with open(os.path.join(tmp, "sweep.csv"), encoding="utf-8") as fh:
                    header, row = fh.read().split()
                values += [(k, float(v)) for k, v in zip(header.split(","), row.split(","))
                           if k in _SCALE_FIELDS and v]
            for key, val in values:
                assert val is None or 0.0 < val < math.inf, (argv, key, val, payload)


_P_CR_UNDERFLOWS = {
    "geometry": {"L1_mm": 5.632226714721765e94, "gamma_s": 1.0000001504624028,
                 "theta_deg": 22.33296255270014, "h_mm": 1.2489201527719482e-10,
                 "t_mm": 3.6955487635337503e-14},
    "material": {"E_GPa": 1.6703262959361052e-89, "nu": 0.025328397031150265,
                 "rho_kg_m3": 1.3863807177778084e-26},
}


@pytest.mark.parametrize(
    "geometry,material,argv,fragment",
    [
        # t*sqrt(E/rho) underflows to 0: t* divided by zero
        ({"t_mm": 5.83e-195}, {"E_GPa": 3.73e-170, "nu": 0.35, "rho_kg_m3": 4.47e154},
         ["analyze"], "material.rho_kg_m3"),
        # a mono-stable design whose t* underflows to 0
        ({"gamma_s": 2.0, "theta_deg": -35.0, "L1_mm": 1e-100, "t_mm": 1e100, "h_mm": 1e101},
         {"E_GPa": 1e290, "nu": 0.35, "rho_kg_m3": 1e-8}, ["analyze"], "geometry.L1_mm"),
        # a sweep cell whose blank length squared overflows
        ({}, "plastic", ["sweep", "--theta=-3:-3:1", "--gamma=1e200:1e200:1"], "gamma_s=1e+200"),
        # MU*G*J*E underflows to 0 before I_eta multiplies it; GJ and EI_eta are in range
        ({"h_mm": 2000, "t_mm": 1000}, {"E_GPa": 1e-209, "nu": 0.35, "rho_kg_m3": 1200},
         ["analyze"], "options.corrected_torsion give a buckling product"),
        # the same product on a mono-stable design, which computes no P_cr
        ({"gamma_s": 2.0, "theta_deg": -35.0, "h_mm": 2000, "t_mm": 1000},
         {"E_GPa": 1e-209, "nu": 0.35, "rho_kg_m3": 1200}, ["analyze"], "buckling product"),
        # U_barr*L1 underflows at theta 30 deg while every design-wide scale is in range
        ({"L1_mm": 1e-150, "gamma_s": 1e200, "theta_deg": 30},
         {"E_GPa": 1e-135, "nu": 0.35, "rho_kg_m3": 1200},
         ["analyze"], "geometry.theta_deg, geometry.h_mm"),
        ({"L1_mm": 1e-150, "gamma_s": 1e200}, {"E_GPa": 1e-135, "nu": 0.35, "rho_kg_m3": 1200},
         ["sweep", "--theta=30:30:1", "--gamma=1e200:1e200:1"], "gamma_s=1e+200: fields"),
        # root/(l*A_ini) underflows to P_cr = 0 while every design-wide scale is in range
        (_P_CR_UNDERFLOWS["geometry"], _P_CR_UNDERFLOWS["material"],
         ["analyze"], "options.corrected_torsion give a P_cr"),
        (_P_CR_UNDERFLOWS["geometry"], _P_CR_UNDERFLOWS["material"],
         ["sweep", "--theta=22.33296255270014:22.33296255270014:1",
          "--gamma=1.0000001504624028:1.0000001504624028:1"], "gamma_s=1.0000001505: fields"),
    ],
    ids=["t_star_divides_by_zero", "t_star_underflows", "sweep_cell_overflows",
         "buckling_product_underflows", "monostable_buckling_product_underflows",
         "u_barr_unitless_underflows", "sweep_cell_u_barr_unitless_underflows",
         "p_cr_underflows", "sweep_cell_p_cr_underflows"],
)
def test_out_of_range_scales_exit_2_naming_fields(tmp_path, geometry, material, argv, fragment):
    payload = json.loads((CONFIGS / "pneumatic.json").read_text())
    payload["geometry"].update(geometry)
    payload["material"] = material
    code, out, err = _run_in_process([*argv, "--config", str(_write(tmp_path, payload)),
                                      "--out", str(tmp_path)])
    assert code == 2, (out, err)
    assert fragment in err and "give a" in err, err
