import math

import pytest

from hcmkit import core
from hcmkit.errors import ConfigError


def test_derived_lengths(pneumatic_geom):
    lengths = core.derive_lengths(pneumatic_geom)
    assert abs(lengths["L2"] - 75e-3) < 1e-12
    assert abs(lengths["l"] - 87.5e-3) < 1e-12
    assert abs(lengths["two_l"] - 175e-3) < 1e-12


def test_bistability_margin_sign():
    # beta = asin(1/gamma_s) + theta; bistable iff beta > 0
    g = core.RibbonGeometry(L1=12.5e-3, gamma_s=6.0, theta=math.radians(-3.0), h=15e-3, t=0.4e-3)
    m = core.bistability_margin(g)
    assert m["bistable"]
    assert abs(math.degrees(m["beta"]) - 6.594068226860461) < 1e-9

    flat = core.RibbonGeometry(
        L1=12.5e-3, gamma_s=2.0, theta=math.radians(-35.0), h=15e-3, t=0.4e-3
    )
    m2 = core.bistability_margin(flat)
    assert not m2["bistable"]
    assert abs(math.degrees(m2["beta"]) + 5.0) < 1e-9


def test_section_properties_thin_strip(pneumatic_geom, plastic):
    sec = core.section_properties(pneumatic_geom, plastic)
    h, t = pneumatic_geom.h, pneumatic_geom.t
    assert sec.I_eta == h * t**3 / 12.0
    assert sec.J == h * t**3 / 3.0
    assert sec.J == 4.0 * sec.I_eta
    assert sec.G == plastic.E / (2.0 * (1.0 + plastic.nu))


def test_section_properties_corrected_torsion(pneumatic_geom, plastic):
    sec = core.section_properties(pneumatic_geom, plastic, corrected_torsion=True)
    h, t = pneumatic_geom.h, pneumatic_geom.t
    assert sec.J == (h * t**3 / 3.0) * (1.0 - 0.63 * t / h)


def test_material_presets():
    p = core.MATERIAL_PRESETS["plastic"]
    assert p.E == 1.73e9 and p.nu == 0.35 and p.rho == 1200.0
    s = core.MATERIAL_PRESETS["steel"]
    assert s.E == 200e9 and s.nu == 0.30 and s.rho == 7850.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(L1=0.0, gamma_s=6.0, theta=0.0, h=15e-3, t=0.4e-3),
        dict(L1=12.5e-3, gamma_s=0.9, theta=0.0, h=15e-3, t=0.4e-3),
        dict(L1=12.5e-3, gamma_s=6.0, theta=0.0, h=-1e-3, t=0.4e-3),
        dict(L1=12.5e-3, gamma_s=6.0, theta=0.0, h=15e-3, t=0.0),
        dict(L1=12.5e-3, gamma_s=6.0, theta=0.0, h=0.3e-3, t=0.4e-3),  # needs h > t
    ],
)
def test_geometry_validation(kwargs):
    with pytest.raises(ConfigError):
        core.RibbonGeometry(**kwargs)


def test_material_validation():
    with pytest.raises(ConfigError):
        core.Material(E=-1.0, nu=0.35, rho=1200.0)
    with pytest.raises(ConfigError):
        core.Material(E=1e9, nu=0.6, rho=1200.0)
    with pytest.raises(ConfigError):
        core.Material(E=1e9, nu=0.35, rho=0.0)


GEOM = dict(L1=12.5e-3, gamma_s=6.0, theta=0.0, h=15e-3, t=0.4e-3)
MAT = dict(E=1e9, nu=0.35, rho=1200.0)


@pytest.mark.parametrize(
    "cls, base", [(core.RibbonGeometry, GEOM), (core.Material, MAT)], ids=["geometry", "material"]
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_fields_rejected(cls, base, value):
    for name in base:
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            cls(**{**base, name: value})


def test_steep_fold_needs_large_negative_theta():
    # near-centered kink: asin(1/1.05) = 72.2 deg, so even theta = -80 deg kills it
    g = core.RibbonGeometry(L1=12.5e-3, gamma_s=1.05, theta=math.radians(-80.0), h=15e-3, t=0.4e-3)
    assert not core.bistability_margin(g)["bistable"]
