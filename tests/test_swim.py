import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcmkit import swim
from hcmkit.errors import ConfigError


class DtTooLarge(ConfigError):
    """Waveform sampling step too coarse for the requested waveform."""


def waveform_series(w: swim.Waveform, dt: float, T: float):
    """Sampled (time, psi, psi_dot), an independent check of the closed forms.

    The bistable pattern dwells at -amplitude, ramps linearly to +amplitude
    over snap_time, dwells, and ramps back: two transitions per period with
    peak rate 2*amplitude/snap_time.
    """
    limit = 1.0 / (50.0 * w.frequency)
    if w.kind == "bistable":
        limit = min(limit, w.snap_time / 10.0)
    if dt > limit:
        raise DtTooLarge(f"dt = {dt:.3g} s too coarse; need dt <= {limit:.3g} s")
    t = np.arange(0.0, T + 0.5 * dt, dt)
    if w.kind == "sinusoid":
        omega = 2.0 * math.pi * w.frequency
        return t, w.amplitude * np.sin(omega * t), w.amplitude * omega * np.cos(omega * t)

    period = 1.0 / w.frequency
    ts = w.snap_time
    rate = 2.0 * w.amplitude / ts
    u = np.mod(t, period)
    psi = np.empty_like(t)
    dpsi = np.zeros_like(t)
    half = 0.5 * period
    ramp1 = u < ts
    dwell1 = (u >= ts) & (u < half)
    ramp2 = (u >= half) & (u < half + ts)
    psi[ramp1] = -w.amplitude + rate * u[ramp1]
    dpsi[ramp1] = rate
    psi[dwell1] = w.amplitude
    psi[ramp2] = w.amplitude - rate * (u[ramp2] - half)
    dpsi[ramp2] = -rate
    rest = ~(ramp1 | dwell1 | ramp2)
    psi[rest] = -w.amplitude
    return t, psi, dpsi


SINE_REF = swim.Waveform(kind="sinusoid", amplitude=math.radians(41.6), frequency=1.3)
BIST_REF = swim.Waveform(
    kind="bistable", amplitude=math.radians(39.0), frequency=1.3, snap_time=0.068
)


def test_mean_square_rate_closed_forms():
    assert abs(swim.mean_square_tip_rate(SINE_REF) - 17.585626383942436) < 1e-12
    assert abs(swim.mean_square_tip_rate(BIST_REF) - 70.86117931108927) < 1e-12


@pytest.mark.parametrize("w", [SINE_REF, BIST_REF], ids=["sinusoid", "bistable"])
def test_closed_form_matches_sampled_series(w):
    dt = 1.0 / (w.frequency * 20000)
    n_per = round(1.0 / (w.frequency * dt))
    _, _, dpsi = waveform_series(w, dt, 1.0 / w.frequency)
    msr_num = float(np.mean(dpsi[:n_per] ** 2))
    assert abs(msr_num / swim.mean_square_tip_rate(w) - 1.0) < 1e-9


def test_rate_ratio_and_peak():
    ratio = swim.mean_square_tip_rate(BIST_REF) / swim.mean_square_tip_rate(SINE_REF)
    assert abs(ratio - 4.029494188264635) < 1e-9
    assert 1.7 <= math.sqrt(ratio) <= 2.4
    peak = math.degrees(2.0 * BIST_REF.amplitude / BIST_REF.snap_time)
    assert abs(peak - 1147.0588235294117) < 1e-9


def test_fit_and_tethered_prediction():
    fit = swim.fit_hydro(SINE_REF, 0.1310, mass=0.0425)
    assert fit.k_drag == 1.0
    assert abs(fit.k_thrust - 0.0009758537811123883) < 1e-15
    # the fit reproduces its own reference point exactly
    v_sine = math.sqrt(fit.k_thrust * swim.mean_square_tip_rate(SINE_REF) / fit.k_drag)
    assert abs(v_sine - 0.1310) < 1e-12
    # switching the tail to the snap-through waveform roughly doubles speed
    v_bist = math.sqrt(fit.k_thrust * swim.mean_square_tip_rate(BIST_REF) / fit.k_drag)
    assert 0.22 <= v_bist <= 0.31


def test_fit_refuses_a_thrust_coefficient_that_underflows():
    # k_drag*v^2/msr is 0 here, which would make every predicted speed 0
    with pytest.raises(ConfigError, match="thrust coefficient"):
        swim.fit_hydro(SINE_REF, 1e-200, mass=0.0425)


def test_untethered_prediction_with_tethered_fit():
    fit = swim.fit_hydro(SINE_REF, 0.1310, mass=0.0425)
    unt = swim.Waveform(kind="bistable", amplitude=math.radians(34.0), frequency=3.0, snap_time=0.050)
    v = math.sqrt(fit.k_thrust * swim.mean_square_tip_rate(unt) / fit.k_drag)
    bl_s = v / 0.215
    assert abs(bl_s / 2.03 - 1.0) < 0.30
    assert abs(bl_s - 1.8889950418672912) < 1e-9


def test_cruise_speed_monotone_to_steady():
    fit = swim.fit_hydro(SINE_REF, 0.1310, mass=0.0425)
    res = swim.cruise_speed(BIST_REF, fit, 10.0, 0.186)
    assert res.v_trace[0] == 0.0
    assert np.all(np.diff(res.v_trace) >= -1e-12)
    assert abs(res.v_trace[-1] / res.v_steady - 1.0) < 1e-9
    assert abs(res.v_steady - 0.262964160609) < 1e-9
    assert abs(res.speed_BL_s - res.v_steady / 0.186) < 1e-12
    assert res.accel0 > 0.0


def test_cruise_trace_solves_the_riccati_equation():
    fit = swim.fit_hydro(SINE_REF, 0.1310, mass=0.0425)
    # T spans the whole rise (about 3 time constants) at a fine sampling step
    res = swim.cruise_speed(BIST_REF, fit, 0.5, 0.186)
    thrust = fit.k_thrust * swim.mean_square_tip_rate(BIST_REF)
    v, t = res.v_trace, res.time
    dvdt = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    residual = fit.mass * dvdt - (thrust - fit.k_drag * v[1:-1] ** 2)
    assert np.max(np.abs(residual)) < 1e-6 * thrust
    assert res.accel0 == thrust * (1.0 / fit.mass)


def test_speed_metrics_reference_points():
    loop = swim.speed_metrics(5.54, 12.7, 0.215)
    assert abs(loop["v"] - 0.436) < 5e-4
    assert abs(loop["BL_s"] - 2.03) < 0.01
    corrected = swim.speed_metrics(0.08527, 1.0, 0.15)
    assert abs(corrected["v"] - 0.08527) < 1e-15
    assert abs(corrected["BL_s"] - 0.57) < 0.005


@settings(deadline=None, max_examples=50)
@given(
    d=st.floats(1e-6, 1e3, allow_nan=False),
    tdur=st.floats(1e-6, 1e3, allow_nan=False),
    bl=st.floats(1e-3, 10.0, allow_nan=False),
    s=st.floats(0.1, 10.0, allow_nan=False),
)
def test_speed_metrics_scaling_property(d, tdur, bl, s):
    base = swim.speed_metrics(d, tdur, bl)
    assert math.isclose(swim.speed_metrics(d * s, tdur, bl)["v"], base["v"] * s, rel_tol=1e-12)
    assert math.isclose(swim.speed_metrics(d, tdur * s, bl)["v"], base["v"] / s, rel_tol=1e-12)


def test_waveform_validation():
    with pytest.raises(ConfigError):
        swim.Waveform(kind="square", amplitude=0.5, frequency=1.0)
    with pytest.raises(ConfigError):
        swim.Waveform(kind="sinusoid", amplitude=-0.1, frequency=1.0)
    with pytest.raises(ConfigError):
        swim.Waveform(kind="sinusoid", amplitude=0.5, frequency=0.0)
    with pytest.raises(ConfigError):
        swim.Waveform(kind="bistable", amplitude=0.5, frequency=1.0)  # snap_time missing
    with pytest.raises(ConfigError):
        # ramps longer than the half period cannot fit
        swim.Waveform(kind="bistable", amplitude=0.5, frequency=5.0, snap_time=0.2)
    with pytest.raises(ConfigError, match="not finite"):
        # the squared tip rate overflows the float range
        swim.Waveform(kind="sinusoid", amplitude=0.5, frequency=1e200)
    with pytest.raises(ConfigError, match="underflows"):
        swim.Waveform(kind="sinusoid", amplitude=0.5, frequency=1e-300)


def test_series_guards():
    with pytest.raises(DtTooLarge):
        waveform_series(swim.Waveform("sinusoid", 0.5, 10.0), dt=0.01, T=1.0)


def test_bistable_series_hits_both_dwells():
    dt = 1e-4
    _, psi, _ = waveform_series(BIST_REF, dt, 2.0 / BIST_REF.frequency)
    A = BIST_REF.amplitude
    assert abs(np.max(psi) - A) < 1e-12
    assert abs(np.min(psi) + A) < 1e-12
    # dwell fraction: ramps occupy 2*f*ts of each period
    frac_moving = np.mean(np.abs(np.diff(psi)) > 1e-15)
    expected = 2.0 * BIST_REF.frequency * BIST_REF.snap_time
    assert abs(frac_moving - expected) < 0.02


def test_fig6_table_bytes():
    text = swim.fig6_to_csv(swim.fig6_rows())
    assert text == (
        "label,frequency_hz,speed_cm_s,speed_bl_s,tethered\n"
        "hcm_fish_tethered,1.3,26.54,1.40,true\n"
        "reference_fish_tethered,1.3,13.10,0.69,true\n"
        "hcm_fish_untethered,3,43.60,2.03,false\n"
        "literature_corrected,,8.53,0.57,false\n"
    )
