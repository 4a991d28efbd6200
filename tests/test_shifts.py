"""Level-shift ladders, compensation solvers, and pi-pulse designers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmemcell import (
    CESIUM,
    ac_zeeman_compensation_intensity,
    ac_zeeman_ladder,
    class_dephasing,
    microwave_detuning_default,
    microwave_pi_pulse,
    stark_compensation_intensity,
    stark_ladder,
    stark_pi_pulse,
    zeeman_ladder,
    zeeman_pi_pulse,
)
from qmemcell.shifts import (ac_zeeman_state_shift, ladder_m_values, stark_pi_intensity,
                             stark_state_shift)

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 3.0e5
DELTA_S = TWO_PI * 3.0e9
DELTA_MU = TWO_PI * 3.6e7
TAU = 1.0e-3
PI_TAU = 30.0e-6


def test_ladder_m_values():
    assert ladder_m_values(4) == list(range(-4, 4))
    assert ladder_m_values(1) == [-1, 0]


# ---------------------------------------------------------------------------
# static-field ladder


def test_zeeman_ladder_frozen_values():
    ladder = zeeman_ladder(OMEGA_B)
    assert ladder.omegas[-4] == pytest.approx(1885386.3219409839, rel=1e-12)
    assert ladder.omegas[0] == pytest.approx(1884894.059327146, rel=1e-12)
    assert ladder.omegas[3] == pytest.approx(1884524.8623667678, rel=1e-12)


def test_zeeman_ladder_affine():
    ladder = zeeman_ladder(OMEGA_B)
    c0, c1 = ladder.affine_coefficients()
    assert c0 == pytest.approx(OMEGA_B, rel=1e-12)
    assert c1 == pytest.approx(-OMEGA_B**2 / CESIUM.delta_hf, rel=1e-9)
    assert ladder.affine_residual() <= 1e-9 * abs(c1)


def test_zeeman_ladder_spread():
    ladder = zeeman_ladder(OMEGA_B)
    assert ladder.spread() == pytest.approx(14.0 * OMEGA_B**2 / CESIUM.delta_hf, rel=1e-12)


def test_class_dephasing_frozen():
    assert class_dephasing(OMEGA_B, TAU) / math.pi == pytest.approx(
        0.27421109902067464, rel=1e-12)
    assert class_dephasing(TWO_PI * 5.0e4, TAU) == pytest.approx(
        23.929432617114852e-3, rel=1e-12)


def test_class_dephasing_equals_spread_times_tau():
    ladder = zeeman_ladder(OMEGA_B)
    assert class_dephasing(OMEGA_B, TAU) == pytest.approx(
        ladder.spread() * TAU, rel=1e-12)


def test_zeeman_validation():
    with pytest.raises(ValueError):
        zeeman_ladder(-1.0)
    with pytest.raises(ValueError):
        class_dephasing(OMEGA_B, -1.0)


# ---------------------------------------------------------------------------
# tensor light-shift ladder


def test_stark_ladder_is_odd_affine():
    ladder = stark_ladder(10.0, DELTA_S)
    c0, c1 = ladder.affine_coefficients()
    assert abs(c0) <= 1e-12 * abs(c1)
    assert c1 > 0.0
    assert ladder.affine_residual() <= 1e-9 * abs(c1)


def test_stark_ladder_linear_in_intensity():
    base = stark_ladder(1.0, DELTA_S)
    scaled = stark_ladder(7.5, DELTA_S)
    for m in base.omegas:
        assert scaled.omegas[m] == pytest.approx(7.5 * base.omegas[m], rel=1e-12)


def test_stark_slope_flips_inside_doublet():
    inside = stark_ladder(10.0, TWO_PI * 0.3e9)
    assert inside.affine_coefficients()[1] < 0.0


def test_stark_level_shifts_reproduce_ladder():
    ladder = stark_ladder(25.0, DELTA_S)
    for m in ladder.omegas:
        diff = ladder.energy_shifts[m + 1] - ladder.energy_shifts[m]
        assert diff == pytest.approx(ladder.omegas[m], rel=1e-9)


def test_stark_edge_states_couple_to_upper_component_only():
    # at m = +/-F the (F^2 - m^2) weight vanishes; the shift scales as
    # m^2 / (delta_s - delta2/2) alone
    f = CESIUM.f_ground
    d_up = DELTA_S - CESIUM.delta2 / 2.0
    d_low = DELTA_S + CESIUM.delta2 / 2.0
    ratio = stark_state_shift(f, 1.0, DELTA_S) / stark_state_shift(0, 1.0, DELTA_S)
    assert ratio == pytest.approx((f * f / d_up) / (f * f / d_low), rel=1e-12)


def test_stark_pole_guard():
    on_pole = CESIUM.delta2 / 2.0
    with pytest.raises(ValueError, match="resonance"):
        stark_ladder(1.0, on_pole)
    with pytest.raises(ValueError, match="resonance"):
        stark_state_shift(0, 1.0, -on_pole * (1.0 + 1e-8))


def test_stark_validation():
    with pytest.raises(ValueError):
        stark_ladder(-1.0, DELTA_S)
    with pytest.raises(ValueError):
        stark_state_shift(5, 1.0, DELTA_S)


# ---------------------------------------------------------------------------
# microwave dressing ladder


def test_ac_zeeman_ladder_is_odd_affine():
    ladder = ac_zeeman_ladder(100.0, DELTA_MU)
    c0, c1 = ladder.affine_coefficients()
    assert abs(c0) <= 1e-12 * abs(c1)
    assert c1 > 0.0
    assert ladder.affine_residual() <= 1e-9 * abs(c1)


def test_ac_zeeman_slope_follows_detuning_sign():
    red = ac_zeeman_ladder(100.0, -DELTA_MU)
    assert red.affine_coefficients()[1] < 0.0


def test_ac_zeeman_level_shifts_reproduce_ladder():
    ladder = ac_zeeman_ladder(250.0, DELTA_MU)
    for m in ladder.omegas:
        diff = ladder.energy_shifts[m + 1] - ladder.energy_shifts[m]
        assert diff == pytest.approx(ladder.omegas[m], rel=1e-9)


def test_ac_zeeman_edge_states_do_not_shift():
    f = CESIUM.f_ground
    assert ac_zeeman_state_shift(f, 100.0, DELTA_MU) == 0.0
    assert ac_zeeman_state_shift(-f, 100.0, DELTA_MU) == 0.0


def test_ac_zeeman_validation():
    with pytest.raises(ValueError):
        ac_zeeman_ladder(100.0, 0.0)
    with pytest.raises(ValueError):
        ac_zeeman_ladder(-1.0, DELTA_MU)
    with pytest.raises(ValueError):
        ac_zeeman_state_shift(5, 100.0, DELTA_MU)


# ---------------------------------------------------------------------------
# compensation solvers


def test_stark_compensation_frozen():
    intensity = stark_compensation_intensity(OMEGA_B, DELTA_S)
    assert intensity == pytest.approx(11.161280039512727, rel=1e-12)


def test_stark_compensation_cancels_slope():
    intensity = stark_compensation_intensity(OMEGA_B, DELTA_S)
    combined = zeeman_ladder(OMEGA_B) + stark_ladder(intensity, DELTA_S)
    assert combined.spread() <= 1e-9 * OMEGA_B
    # the common Larmor precession survives untouched
    c0, _ = combined.affine_coefficients()
    assert c0 == pytest.approx(OMEGA_B, rel=1e-9)


def test_stark_compensation_rejects_doublet_interior():
    with pytest.raises(ValueError, match="delta2/2"):
        stark_compensation_intensity(OMEGA_B, TWO_PI * 0.3e9)


def test_ac_zeeman_compensation_frozen():
    intensity = ac_zeeman_compensation_intensity(OMEGA_B, DELTA_MU)
    assert intensity == pytest.approx(13739.383537203784, rel=1e-12)


def test_ac_zeeman_compensation_cancels_slope():
    intensity = ac_zeeman_compensation_intensity(OMEGA_B, DELTA_MU)
    combined = zeeman_ladder(OMEGA_B) + ac_zeeman_ladder(intensity, DELTA_MU)
    assert combined.spread() <= 1e-9 * OMEGA_B


def test_ac_zeeman_compensation_needs_blue_detuning():
    with pytest.raises(ValueError, match="delta_mu > 0"):
        ac_zeeman_compensation_intensity(OMEGA_B, -DELTA_MU)


def test_microwave_detuning_default():
    assert microwave_detuning_default(OMEGA_B) == pytest.approx(120.0 * OMEGA_B, rel=1e-15)
    with pytest.raises(ValueError):
        microwave_detuning_default(-1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e4, max_value=1e7))
def test_compensation_property_over_field_range(f_larmor):
    omega_b = TWO_PI * f_larmor
    i_s = stark_compensation_intensity(omega_b, DELTA_S)
    assert (zeeman_ladder(omega_b) + stark_ladder(i_s, DELTA_S)).spread() <= 1e-9 * omega_b
    delta_mu = microwave_detuning_default(omega_b)
    i_mu = ac_zeeman_compensation_intensity(omega_b, delta_mu)
    assert (zeeman_ladder(omega_b) + ac_zeeman_ladder(i_mu, delta_mu)).spread() <= 1e-9 * omega_b


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e4, max_value=1e7))
def test_compensation_scales_as_omega_b_squared(f_larmor):
    omega_b = TWO_PI * f_larmor
    unit = stark_compensation_intensity(TWO_PI, DELTA_S)
    assert stark_compensation_intensity(omega_b, DELTA_S) == pytest.approx(
        unit * f_larmor**2, rel=1e-9)


# ---------------------------------------------------------------------------
# pi-pulse designers


def test_zeeman_pi_pulse_frozen():
    pulse = zeeman_pi_pulse(PI_TAU)
    assert pulse.achieved_phase_difference == pytest.approx(math.pi, rel=1e-12)
    assert pulse.omega_b == pytest.approx(TWO_PI * 3.3076390659314976e6, rel=1e-12)
    assert pulse.required_field * 1e4 == pytest.approx(9.452932780220278, rel=1e-12)
    assert pulse.required_intensity is None
    assert pulse.scattered_photons == 0.0


def test_zeeman_pi_pulse_bare_field_reading():
    with_g = zeeman_pi_pulse(PI_TAU)
    bare = zeeman_pi_pulse(PI_TAU, use_g_factor=False)
    assert bare.required_field == pytest.approx(
        CESIUM.g_f * with_g.required_field, rel=1e-12)


def test_stark_pi_pulse_frozen():
    pulse = stark_pi_pulse(PI_TAU, DELTA_S)
    assert pulse.achieved_phase_difference == pytest.approx(math.pi, rel=1e-9)
    assert pulse.required_intensity == pytest.approx(1356.774650305846, rel=1e-12)
    assert pulse.scattered_photons == pytest.approx(0.06322614360426586, rel=1e-9)
    assert pulse.required_field is None


def test_stark_pi_intensity_is_the_pulse_intensity():
    intensity = stark_pi_intensity(PI_TAU, DELTA_S)
    assert intensity == pytest.approx(1356.774650305846, rel=1e-12)
    assert intensity == stark_pi_pulse(PI_TAU, DELTA_S).required_intensity


def test_microwave_pi_pulse_frozen():
    pulse = microwave_pi_pulse(PI_TAU, DELTA_MU)
    assert pulse.achieved_phase_difference == pytest.approx(math.pi, rel=1e-9)
    assert pulse.required_intensity == pytest.approx(1.6701710940066502e6, rel=1e-11)
    assert pulse.scattered_photons == 0.0


def test_pi_pulse_validation():
    for designer in (lambda: zeeman_pi_pulse(0.0),
                     lambda: stark_pi_pulse(-1.0, DELTA_S),
                     lambda: microwave_pi_pulse(0.0, DELTA_MU)):
        with pytest.raises(ValueError):
            designer()


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e-2))
def test_zeeman_pi_pulse_phase_property(tau):
    pulse = zeeman_pi_pulse(tau)
    assert pulse.achieved_phase_difference == pytest.approx(math.pi, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-5, max_value=1e-3))
def test_microwave_pi_pulse_cost_scales_inversely_with_tau(tau):
    pulse = microwave_pi_pulse(tau, DELTA_MU)
    ref = microwave_pi_pulse(PI_TAU, DELTA_MU)
    assert pulse.required_intensity * tau == pytest.approx(
        ref.required_intensity * PI_TAU, rel=1e-9)
