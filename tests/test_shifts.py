"""Level-shift ladders, compensation solvers, and differential pi pulses."""

import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmemcell import (
    CESIUM,
    CODATA,
    InputError,
    ac_zeeman_compensation_intensity,
    ac_zeeman_ladder,
    class_dephasing,
    microwave_pi_intensity,
    stark_compensation_intensity,
    stark_ladder,
    stark_pi_intensity,
    stark_pi_scattered_photons,
    zeeman_ladder,
    zeeman_pi_field,
    zeeman_pi_omega_b,
)
from qmemcell.cli import main
from qmemcell.decoherence import edge_scattering_rate
from qmemcell.scenario import load_scenario
from qmemcell.shifts import POLE_GUARD, _stark_denominators, collective_kappa, ladder_m_values

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 3.0e5
DELTA_S = TWO_PI * 3.0e9
DELTA_MU = TWO_PI * 3.6e7
TAU = 1.0e-3
PI_TAU = 30.0e-6


# ---------------------------------------------------------------------------
# oracles the ladders no longer carry: per-level shifts and a least-squares fit


def stark_state_shift(m, intensity, delta_s, species=CESIUM):
    """Light shift E_S(m)/hbar (rad/s) of level m under the D1 field.

    Sums the contributions of the two excited hyperfine components with
    pi-polarization dipole weights (F^2 - m^2) and m^2; the edge states
    couple only to the upper component.
    """
    f = species.f_ground
    if abs(m) > f:
        raise ValueError(f"m = {m} outside |m| <= {f}")
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    d_low, d_up = _stark_denominators(delta_s, species)
    # squared dipole moments over eps0*hbar: lambda^3 gamma/(2^7 pi^2) * weight
    unit = species.lambda_d1**3 * species.gamma_d1 / (2.0**7 * math.pi**2)
    return intensity / (2.0 * CODATA.hbar * CODATA.c) * unit * (
        (f - m) * (f + m) / d_low + m * m / d_up)


def ac_zeeman_state_shift(m, intensity, delta_mu, species=CESIUM):
    """Microwave dressing shift E_mu(m)/hbar (rad/s) of level m.

    Magnetic-dipole weight mu_B^2 (1 - (m/F)^2): the edge states have no
    pi-coupled partner in the lower manifold and do not shift.  The sign
    is fixed so that neighbor differences reproduce ac_zeeman_ladder for
    the same detuning sign convention.
    """
    f = species.f_ground
    if abs(m) > f:
        raise ValueError(f"m = {m} outside |m| <= {f}")
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    if delta_mu == 0.0:
        raise ValueError("microwave detuning must be nonzero")
    musq = CODATA.mu_bohr**2 * (1.0 - (m / f) ** 2)
    return -intensity * musq / (
        2.0 * CODATA.epsilon0 * CODATA.hbar**2 * CODATA.c**3 * delta_mu)


def affine_fit(ladder):
    """Least-squares (c0, c1) of Omega(m) = c0 + c1 (2m + 1), and the largest residual."""
    omegas = ladder.omegas()
    xs = [2 * m + 1 for m in omegas]
    ys = list(omegas.values())
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    c1 = sxy / sxx
    c0 = ybar - c1 * xbar
    return c0, c1, max(abs(y - (c0 + c1 * x)) for x, y in zip(xs, ys))


def test_ladder_m_values():
    assert ladder_m_values(4) == list(range(-4, 4))
    assert ladder_m_values(1) == [-1, 0]


# ---------------------------------------------------------------------------
# static-field ladder


def test_zeeman_ladder_frozen_values():
    omegas = zeeman_ladder(OMEGA_B).omegas()
    assert omegas[-4] == pytest.approx(1885386.3219409839, rel=1e-12)
    assert omegas[0] == pytest.approx(1884894.059327146, rel=1e-12)
    assert omegas[3] == pytest.approx(1884524.8623667678, rel=1e-12)


def test_zeeman_ladder_affine():
    ladder = zeeman_ladder(OMEGA_B)
    assert ladder.terms == ((OMEGA_B, -OMEGA_B**2 / CESIUM.delta_hf),)
    c0, c1, residual = affine_fit(ladder)
    assert c0 == pytest.approx(OMEGA_B, rel=1e-12)
    assert c1 == pytest.approx(-OMEGA_B**2 / CESIUM.delta_hf, rel=1e-9)
    assert residual <= 1e-9 * abs(c1)


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
    ((start, slope),) = ladder.terms
    assert math.copysign(1.0, start) == -1.0 and start == 0.0
    assert slope > 0.0
    c0, c1, residual = affine_fit(ladder)
    assert abs(c0) <= 1e-12 * abs(c1)
    assert c1 > 0.0
    assert residual <= 1e-9 * abs(c1)


def test_stark_ladder_linear_in_intensity():
    base = stark_ladder(1.0, DELTA_S).omegas()
    scaled = stark_ladder(7.5, DELTA_S).omegas()
    for m in base:
        assert scaled[m] == pytest.approx(7.5 * base[m], rel=1e-12)


def test_stark_slope_flips_inside_doublet():
    inside = stark_ladder(10.0, TWO_PI * 0.3e9)
    assert inside.terms[0][1] < 0.0
    assert affine_fit(inside)[1] < 0.0


def test_stark_level_shifts_reproduce_ladder():
    for f_ground in (1, 4, 7):
        sp = CESIUM._replace(f_ground=f_ground)
        for delta_s in (DELTA_S, -DELTA_S, TWO_PI * 0.3e9):
            for m, omega in stark_ladder(25.0, delta_s, sp).omegas().items():
                diff = (stark_state_shift(m + 1, 25.0, delta_s, sp)
                        - stark_state_shift(m, 25.0, delta_s, sp))
                assert diff == pytest.approx(omega, rel=1e-9)


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
    message = ("fields 'stark_detuning_hz' = -5.84e+08 Hz and 'delta2_hz' = 1.168e+09 Hz are "
               "out of range together: the stark detuning sits on the excited hyperfine "
               "resonance, |delta_s| within 1e-06 relative of delta2/2")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as refused:
        stark_ladder(1.0, -on_pole)
    assert refused.value.keys == ("stark_detuning_hz", "delta2_hz")
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
    ((start, slope),) = ladder.terms
    assert math.copysign(1.0, start) == -1.0 and start == 0.0
    assert slope > 0.0
    c0, c1, residual = affine_fit(ladder)
    assert abs(c0) <= 1e-12 * abs(c1)
    assert c1 > 0.0
    assert residual <= 1e-9 * abs(c1)


def test_ac_zeeman_slope_follows_detuning_sign():
    red = ac_zeeman_ladder(100.0, -DELTA_MU)
    assert red.terms[0][1] < 0.0
    assert affine_fit(red)[1] < 0.0


def test_ac_zeeman_level_shifts_reproduce_ladder():
    for f_ground in (1, 4, 7):
        sp = CESIUM._replace(f_ground=f_ground)
        for delta_mu in (DELTA_MU, -DELTA_MU):
            for m, omega in ac_zeeman_ladder(250.0, delta_mu, sp).omegas().items():
                diff = (ac_zeeman_state_shift(m + 1, 250.0, delta_mu, sp)
                        - ac_zeeman_state_shift(m, 250.0, delta_mu, sp))
                assert diff == pytest.approx(omega, rel=1e-9)


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
# a ladder is its affine terms


def _hex(values):
    return [v.hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(f_larmor=st.one_of(st.just(0.0), st.floats(1.0, 1e8)),
       f_stark=st.floats(1e7, 1e12), f_mu=st.floats(1e3, 1e10),
       signs=st.tuples(st.sampled_from((-1.0, 1.0)), st.sampled_from((-1.0, 1.0))),
       intensity=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
       f_ground=st.integers(1, 8))
def test_ladders_are_the_written_out_expressions_bit_for_bit(
        f_larmor, f_stark, f_mu, signs, intensity, f_ground):
    sp = CESIUM._replace(f_ground=f_ground)
    omega_b = TWO_PI * f_larmor
    delta_s, delta_mu = signs[0] * TWO_PI * f_stark, signs[1] * TWO_PI * f_mu
    half = sp.delta2 / 2.0
    assume(abs(abs(delta_s) - half) > POLE_GUARD * half)
    d_low, d_up = delta_s + half, delta_s - half
    f, ms = f_ground, ladder_m_values(f_ground)

    def stark_rows(i):
        slope = (sp.lambda_d1**3 * sp.gamma_d1 * i * sp.delta2
                 / (2.0**8 * math.pi**2 * CODATA.hbar * CODATA.c * (d_low * d_up)))
        return {m: slope * (2 * m + 1) for m in ms}

    def ac_zeeman_rows(i, d):
        slope = i * CODATA.mu_bohr**2 / (
            2.0 * f * f * CODATA.epsilon0 * CODATA.hbar**2 * CODATA.c**3 * d)
        return {m: slope * (2 * m + 1) for m in ms}

    slope = -omega_b**2 / sp.delta_hf
    zee = {m: omega_b + slope * (2 * m + 1) for m in ms}
    sta, acz = stark_rows(intensity), ac_zeeman_rows(intensity, delta_mu)
    z, s, a = (zeeman_ladder(omega_b, sp), stark_ladder(intensity, delta_s, sp),
               ac_zeeman_ladder(intensity, delta_mu, sp))
    cases = [(z, zee), (s, sta), (a, acz), (z + s, {m: zee[m] + sta[m] for m in ms}),
             (z + s + a, {m: (zee[m] + sta[m]) + acz[m] for m in ms})]
    if d_low * d_up > 0.0:  # the compensated sums, whose spread is a rounding residual
        i_s = stark_compensation_intensity(omega_b, delta_s, sp)
        cases.append((z + stark_ladder(i_s, delta_s, sp),
                      {m: zee[m] + v for m, v in stark_rows(i_s).items()}))
    if delta_mu > 0.0:
        i_mu = ac_zeeman_compensation_intensity(omega_b, delta_mu, sp)
        cases.append((z + ac_zeeman_ladder(i_mu, delta_mu, sp),
                      {m: zee[m] + v for m, v in ac_zeeman_rows(i_mu, delta_mu).items()}))
    for ladder, want in cases:
        omegas = ladder.omegas()
        assert list(omegas) == ms
        assert _hex(omegas.values()) == _hex(want.values())
        assert ladder.spread().hex() == (max(want.values()) - min(want.values())).hex()


def test_a_sum_keeps_its_terms():
    z, s = zeeman_ladder(OMEGA_B), stark_ladder(10.0, DELTA_S)
    combined = z + s
    assert combined == (z.f_ground, z.terms + s.terms)
    with pytest.raises(ValueError, match="different m ranges"):
        z + zeeman_ladder(OMEGA_B, CESIUM._replace(f_ground=3))


@settings(max_examples=200, deadline=None)
@given(f_stark=st.floats(1e7, 1e12), f_mu=st.floats(1e3, 1e10),
       sign=st.sampled_from((-1.0, 1.0)), f_ground=st.integers(1, 8))
def test_least_squares_fit_agrees_with_the_closed_slope(f_stark, f_mu, sign, f_ground):
    sp = CESIUM._replace(f_ground=f_ground)
    delta_s, delta_mu = sign * TWO_PI * f_stark, TWO_PI * f_mu
    half = sp.delta2 / 2.0
    assume(abs(abs(delta_s) - half) > POLE_GUARD * half)
    factor = 4 * f_ground - 2
    for ladder in (stark_ladder(1.0, delta_s, sp), ac_zeeman_ladder(1.0, delta_mu, sp)):
        assert affine_fit(ladder)[1] == pytest.approx(ladder.terms[0][1], rel=1e-15)
    # the pi intensities as they were solved from the fitted unit ladders
    fitted = math.pi / (PI_TAU * (factor * abs(affine_fit(stark_ladder(1.0, delta_s, sp))[1])))
    assert stark_pi_intensity(PI_TAU, delta_s, sp) == pytest.approx(fitted, rel=1e-15)
    fitted = math.pi / (PI_TAU * (factor * abs(affine_fit(ac_zeeman_ladder(1.0, delta_mu, sp))[1])))
    assert microwave_pi_intensity(PI_TAU, delta_mu, sp) == pytest.approx(fitted, rel=1e-15)


def test_zero_field_shifts_csv_keeps_its_signed_zeros(capsys):
    assert main(["shifts", "--omega-b-hz", "0"]) == 0
    rows = [f"{mech}[m={m}],{value},Hz,,,,,"
            for mech, negative, positive in (("quadratic_zeeman", "0.0", "0.0"),
                                             ("ac_stark", "-0.0", "0.0"),
                                             ("ac_zeeman", "-0.0", "0.0"),
                                             ("composite_zeeman_stark", "0.0", "0.0"))
            for m, value in zip(range(-4, 4), [negative] * 4 + [positive] * 4)]
    assert capsys.readouterr().out == "\n".join(
        ["name,value,unit,reference,rel_dev,low,high,status", *rows, ""])


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
    c0, _, _ = affine_fit(combined)
    assert c0 == pytest.approx(OMEGA_B, rel=1e-9)


def test_stark_compensation_rejects_doublet_interior():
    message = ("fields 'stark_detuning_hz' = 3e+08 Hz and 'delta2_hz' = 1.168e+09 Hz are out "
               "of range together: stark compensation needs |delta_s| > delta2/2; between "
               "the excited components the tensor slope has the wrong sign")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as refused:
        stark_compensation_intensity(OMEGA_B, TWO_PI * 0.3e9)
    assert refused.value.keys == ("stark_detuning_hz", "delta2_hz")


def test_out_of_range_pairs_carry_every_key():
    with pytest.raises(InputError, match="out of range together") as refused:
        stark_compensation_intensity(TWO_PI * 1e153, TWO_PI * 2e153)
    assert refused.value.keys == ("omega_b_hz", "stark_detuning_hz")
    cfg = load_scenario('{"atom_number": 1e300, "photon_number": 1e300}')
    with pytest.raises(InputError, match="out of range together") as refused:
        collective_kappa(cfg)
    assert refused.value.keys == ("atom_number", "photon_number", "probe_detuning_hz")


def test_ac_zeeman_compensation_frozen():
    intensity = ac_zeeman_compensation_intensity(OMEGA_B, DELTA_MU)
    assert intensity == pytest.approx(13739.383537203784, rel=1e-12)


def test_ac_zeeman_compensation_cancels_slope():
    intensity = ac_zeeman_compensation_intensity(OMEGA_B, DELTA_MU)
    combined = zeeman_ladder(OMEGA_B) + ac_zeeman_ladder(intensity, DELTA_MU)
    assert combined.spread() <= 1e-9 * OMEGA_B


def test_ac_zeeman_compensation_needs_blue_detuning():
    with pytest.raises(InputError, match=r"^field 'microwave_detuning_hz' = -3\.6e\+07 Hz is out "
                                         r"of range: microwave compensation needs delta_mu > 0$"
                       ) as refused:
        ac_zeeman_compensation_intensity(OMEGA_B, -DELTA_MU)
    assert refused.value.keys == ("microwave_detuning_hz",)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e4, max_value=1e7))
def test_compensation_property_over_field_range(f_larmor):
    omega_b = TWO_PI * f_larmor
    i_s = stark_compensation_intensity(omega_b, DELTA_S)
    assert (zeeman_ladder(omega_b) + stark_ladder(i_s, DELTA_S)).spread() <= 1e-9 * omega_b
    delta_mu = 120.0 * omega_b
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
# differential pi pulses


def test_zeeman_pi_pulse_frozen():
    omega_b = zeeman_pi_omega_b(PI_TAU)
    assert class_dephasing(omega_b, PI_TAU) == pytest.approx(math.pi, rel=1e-12)
    assert omega_b == pytest.approx(TWO_PI * 3.3076390659314976e6, rel=1e-12)
    assert zeeman_pi_field(PI_TAU) * 1e4 == pytest.approx(9.452932780220278, rel=1e-12)


def test_zeeman_pi_pulse_bare_field_reading():
    # the bare reading B = hbar Omega_B / mu_B is g_F times the field
    omega_b = zeeman_pi_omega_b(PI_TAU)
    assert CODATA.hbar * omega_b / CODATA.mu_bohr == pytest.approx(
        CESIUM.g_f * zeeman_pi_field(PI_TAU), rel=1e-12)


def test_stark_pi_pulse_frozen():
    intensity = stark_pi_intensity(PI_TAU, DELTA_S)
    assert stark_ladder(intensity, DELTA_S).spread() * PI_TAU == pytest.approx(
        math.pi, rel=1e-9)
    assert intensity == pytest.approx(1356.774650305846, rel=1e-12)
    assert stark_pi_scattered_photons(PI_TAU, DELTA_S) == pytest.approx(
        0.06322614360426586, rel=1e-9)


def test_stark_pi_intensity_is_the_pulse_intensity():
    # the photon cost is the edge atoms' rate at the pi intensity, bit for bit
    intensity = stark_pi_intensity(PI_TAU, DELTA_S)
    assert stark_pi_scattered_photons(PI_TAU, DELTA_S) == (
        edge_scattering_rate(intensity, DELTA_S, CESIUM) * PI_TAU)


def test_microwave_pi_pulse_frozen():
    intensity = microwave_pi_intensity(PI_TAU, DELTA_MU)
    assert ac_zeeman_ladder(intensity, DELTA_MU).spread() * PI_TAU == pytest.approx(
        math.pi, rel=1e-9)
    assert intensity == pytest.approx(1.6701710940066502e6, rel=1e-11)
    # a red-tuned microwave needs the same intensity
    assert microwave_pi_intensity(PI_TAU, -DELTA_MU) == intensity


def test_pi_pulse_validation():
    for solve in (lambda: zeeman_pi_omega_b(0.0), lambda: zeeman_pi_field(-1.0),
                  lambda: stark_pi_intensity(-1.0, DELTA_S),
                  lambda: stark_pi_scattered_photons(0.0, DELTA_S),
                  lambda: microwave_pi_intensity(0.0, DELTA_MU)):
        with pytest.raises(InputError, match=r"^pulse duration tau must be positive, ") as refused:
            solve()
        assert refused.value.keys == ("tau",)


@pytest.mark.parametrize("designer, tau, solved", [
    (lambda tau: zeeman_pi_omega_b(tau), 1e-300, "Larmor frequency"),
    (lambda tau: stark_pi_intensity(tau, DELTA_S), 1e-320, "D1 intensity"),
    (lambda tau: stark_pi_scattered_photons(tau, DELTA_S), 1e-320, "D1 intensity"),
    (lambda tau: microwave_pi_intensity(tau, DELTA_MU), 1e-320, "microwave intensity"),
    (zeeman_pi_field, 1e-300, "Larmor frequency"),
])
def test_pi_pulse_designers_reject_non_finite_solutions(designer, tau, solved):
    message = rf"^pulse duration tau = {tau:g} s .* {solved} .* inf$"
    with pytest.raises(InputError, match=message) as refused:
        designer(tau)
    assert refused.value.keys == ("tau",)
    designer(1e300)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e-2))
def test_zeeman_pi_pulse_phase_property(tau):
    assert class_dephasing(zeeman_pi_omega_b(tau), tau) == pytest.approx(math.pi, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e-2))
def test_stark_pi_pulse_phase_property(tau):
    intensity = stark_pi_intensity(tau, DELTA_S)
    assert stark_ladder(intensity, DELTA_S).spread() * tau == pytest.approx(math.pi, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e-2), st.sampled_from([DELTA_MU, -DELTA_MU]))
def test_microwave_pi_pulse_phase_property(tau, delta_mu):
    intensity = microwave_pi_intensity(tau, delta_mu)
    assert ac_zeeman_ladder(intensity, abs(delta_mu)).spread() * tau == pytest.approx(
        math.pi, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-5, max_value=1e-3))
def test_microwave_pi_pulse_cost_scales_inversely_with_tau(tau):
    assert microwave_pi_intensity(tau, DELTA_MU) * tau == pytest.approx(
        microwave_pi_intensity(PI_TAU, DELTA_MU) * PI_TAU, rel=1e-9)
