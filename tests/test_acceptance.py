"""Acceptance gate: every headline number and invariant at its stated
tolerance, one printed pass/fail line per criterion.

The lines are emitted with capture suspended so they show up even in a
plain captured run; a failed criterion also fails its test with the
same detail string.
"""

import math
import time

import numpy as np
import pytest

from qmemcell import (
    CESIUM,
    ac_zeeman_compensation_intensity,
    ac_zeeman_ladder,
    boundary_loss_budget,
    class_dephasing,
    differential_rotation,
    doppler_averaged_scattering,
    evolve_pumping,
    memory_vacuum,
    microwave_pi_pulse,
    qnd_transform,
    residual_pump_occupation,
    run_write,
    scattered_photon_limit,
    spin_exchange_probability,
    stark_compensation_intensity,
    stark_ladder,
    stark_pi_pulse,
    symplectic_form,
    uniform_f4_system,
    zeeman_ladder,
    zeeman_pi_pulse,
)
from qmemcell.decoherence import WIDTH_HWHM, WIDTH_SIGMA
from qmemcell.gaussian import LIGHT_C, LIGHT_S
from qmemcell.memory import VARIANT_CLASS_1, VARIANT_CLASS_2, atomic_basis_matrix

from _mc_oracle import write_fidelity_mc

TWO_PI = 2.0 * math.pi
OMEGA_B = TWO_PI * 3.0e5
DELTA_S = TWO_PI * 3.0e9
DELTA_MU = TWO_PI * 3.6e7
TAU = 1.0e-3
PI_TAU = 30.0e-6


_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_lines_past_capture(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _check(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status} ({detail})"
    with _CAPSYS.disabled():
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def test_01_class_dephasing_window():
    phase = class_dephasing(OMEGA_B, TAU) / math.pi
    _check(1, "class_dephasing", 0.25 <= phase <= 0.31,
           f"{phase:.4f} pi in [0.25, 0.31] pi")


def test_02_weak_field_dephasing_window():
    phase = class_dephasing(TWO_PI * 5.0e4, TAU)
    _check(2, "weak_field_dephasing", 10.0e-3 <= phase <= 30.0e-3,
           f"{phase * 1e3:.2f} mrad in [10, 30] mrad")


def test_03_stark_compensation():
    intensity = stark_compensation_intensity(OMEGA_B, DELTA_S)
    mw_cm2 = intensity * 0.1
    spread = (zeeman_ladder(OMEGA_B) + stark_ladder(intensity, DELTA_S)).spread()
    ok = 0.9 <= mw_cm2 <= 1.3 and spread < 1e-9 * OMEGA_B
    _check(3, "stark_compensation", ok,
           f"{mw_cm2:.4f} mW/cm^2 in [0.9, 1.3], residual spread "
           f"{spread:.3e} rad/s < 1e-9 * Omega_B")


def test_04_doppler_averaged_scattering():
    intensity = stark_compensation_intensity(OMEGA_B, DELTA_S)
    center = DELTA_S - CESIUM.delta2 / 2.0
    start = time.perf_counter()
    hwhm = doppler_averaged_scattering(intensity, center, CESIUM.doppler_halfwidth,
                                       CESIUM.gamma_d1, CESIUM.lambda_d1,
                                       width_convention=WIDTH_HWHM)
    sigma = doppler_averaged_scattering(intensity, center, CESIUM.doppler_halfwidth,
                                        CESIUM.gamma_d1, CESIUM.lambda_d1,
                                        width_convention=WIDTH_SIGMA)
    elapsed = time.perf_counter() - start
    ok = 10.8 <= hwhm <= 25.2 and 10.8 <= sigma <= 25.2 and elapsed < 1.0
    _check(4, "doppler_scattering", ok,
           f"hwhm {hwhm:.2f} and sigma {sigma:.2f} 1/s in [10.8, 25.2], "
           f"{elapsed * 1e3:.0f} ms < 1 s")


def test_05_microwave_compensation():
    w_cm2 = ac_zeeman_compensation_intensity(OMEGA_B, DELTA_MU) * 1e-4
    _check(5, "microwave_compensation", 1.3 <= w_cm2 <= 1.5,
           f"{w_cm2:.4f} W/cm^2 in [1.3, 1.5]")


def test_06_zeeman_pi_pulse():
    pulse = zeeman_pi_pulse(PI_TAU)
    omega_mhz = pulse.omega_b / TWO_PI * 1e-6
    field_g = pulse.required_field * 1e4
    ok = 3.0 <= omega_mhz <= 3.4 and 8.4 <= field_g <= 9.2
    _check(6, "zeeman_pi_pulse", ok,
           f"Omega_B {omega_mhz:.4f} MHz in [3.0, 3.4], "
           f"B {field_g:.4f} G in [8.4, 9.2]")


def test_07_stark_pi_pulse():
    pulse = stark_pi_pulse(PI_TAU, DELTA_S)
    mw_cm2 = pulse.required_intensity * 0.1
    ok = 120.0 <= mw_cm2 <= 155.0 and 0.04 <= pulse.scattered_photons <= 0.08
    _check(7, "stark_pi_pulse", ok,
           f"{mw_cm2:.1f} mW/cm^2 in [120, 155], "
           f"{pulse.scattered_photons:.4f} photons in [0.04, 0.08]")


def test_08_scattered_photon_floor():
    floor = scattered_photon_limit()
    far = stark_pi_pulse(PI_TAU, 30.0 * CESIUM.delta2)
    ratio = far.scattered_photons / floor
    ok = 0.038 <= floor <= 0.046 and abs(ratio - 1.0) <= 0.1
    _check(8, "scattered_photon_floor", ok,
           f"floor {floor:.5f} in [0.038, 0.046], far-detuned cost "
           f"{ratio:.4f} of floor within 10%")


def test_09_microwave_pi_pulse():
    w_cm2 = microwave_pi_pulse(PI_TAU, DELTA_MU).required_intensity * 1e-4
    _check(9, "microwave_pi_pulse", 160.0 <= w_cm2 <= 180.0,
           f"{w_cm2:.2f} W/cm^2 in [160, 180]")


def test_10_spin_exchange_probability():
    eta = spin_exchange_probability(TAU)
    ok = abs(eta / 6.5e-3 - 1.0) <= 0.01
    _check(10, "spin_exchange", ok, f"{eta:.6f} within 1% of 6.5e-3")


def test_11_residual_pump_occupation():
    occ = residual_pump_occupation()
    _check(11, "residual_occupation", 3.0e-4 <= occ <= 3.0e-3,
           f"{occ:.3e} in [3e-4, 3e-3]")


def test_12_boundary_loss_doubling():
    two = boundary_loss_budget(0.01, 2).added_vacuum_fraction
    four = boundary_loss_budget(0.01, 4).added_vacuum_fraction
    ratio = four / two
    _check(12, "boundary_doubling", 1.9 <= ratio <= 2.0,
           f"4-vs-2 crossing vacuum ratio {ratio:.4f} in [1.9, 2.0]")


def test_13_symplectic_invariant_random_compositions():
    rng = np.random.default_rng(13)
    variants = ("two_class", "class1", "class2", "both_classes")
    omega = symplectic_form(4)

    def factory():
        kind = rng.integers(0, 4)
        if kind == 0:
            return qnd_transform(float(rng.uniform(-2.0, 2.0)),
                                 variants[rng.integers(0, 4)])
        if kind == 1:
            return differential_rotation(float(rng.uniform(-math.pi, math.pi)),
                                         float(rng.uniform(-math.pi, math.pi)))
        if kind == 2:
            theta = float(rng.uniform(-math.pi, math.pi))
            return differential_rotation(theta, theta)
        return atomic_basis_matrix()

    worst = 0.0
    for _ in range(1000):
        a, b, c = factory(), factory(), factory()
        s = c.then(b.then(a)).x
        worst = max(worst, float(np.max(np.abs(s @ omega @ s.T - omega))))
    _check(13, "symplectic_invariant", worst <= 1e-10,
           f"max |S Omega S^T - Omega| = {worst:.2e} over 1000 compositions")


def test_14_sideband_cross_covariance():
    collective = qnd_transform(1.0).apply(memory_vacuum())
    clean = float(np.max(np.abs(collective.cross_block(LIGHT_C, LIGHT_S))))
    singles = []
    for variant in (VARIANT_CLASS_1, VARIANT_CLASS_2):
        state = qnd_transform(1.0, variant).apply(memory_vacuum("class"))
        singles.append(float(np.max(np.abs(state.cross_block(LIGHT_C, LIGHT_S)))))
    ok = clean < 1e-12 and all(s > 1e-3 for s in singles)
    _check(14, "sideband_cross_covariance", ok,
           f"two-class {clean:.1e} < 1e-12, single-class "
           f"{singles[0]:.3f}/{singles[1]:.3f} > 1e-3")


def test_15_rotation_maps_exact():
    swap = np.eye(8)
    swap[4:8, 4:8] = 0.0
    swap[4, 7] = 1.0
    swap[5, 6] = -1.0
    swap[6, 5] = 1.0
    swap[7, 4] = -1.0
    err_common = float(np.max(np.abs(
        differential_rotation(math.pi / 2.0, math.pi / 2.0).x - swap)))
    per_mode = np.eye(8)
    quarter = np.array([[0.0, 1.0], [-1.0, 0.0]])
    per_mode[4:6, 4:6] = quarter
    per_mode[6:8, 6:8] = quarter
    err_diff = float(np.max(np.abs(
        differential_rotation(math.pi / 2.0, -math.pi / 2.0).x - per_mode)))
    ok = err_common <= 1e-12 and err_diff <= 1e-12
    _check(15, "quarter_turn_maps", ok,
           f"common swap error {err_common:.1e}, differential per-mode error "
           f"{err_diff:.1e}, both <= 1e-12")


def test_16_write_fidelity_against_monte_carlo():
    start = time.perf_counter()
    fid = run_write(1.0).mean_fidelity
    mc = write_fidelity_mc()
    elapsed = time.perf_counter() - start
    target = 2.0 / math.sqrt(6.0)
    ok = (abs(fid / mc - 1.0) <= 0.01 and abs(mc / target - 1.0) <= 0.01
          and elapsed < 30.0)
    _check(16, "write_fidelity", ok,
           f"analytic {fid:.6f} vs 1e5-trial MC {mc:.6f} (target {target:.6f}), "
           f"agreement within 1%, {elapsed:.1f} s < 30 s")


def test_17_pump_dark_split():
    system = evolve_pumping(uniform_f4_system(1.0e4, 1.0e4), 1.0e-6, 20000)
    left, right = system.dark_split()
    drift = abs(system.total_population - 1.0)
    ok = abs(left - 0.5) <= 1e-3 and abs(right - 0.5) <= 1e-3 and drift <= 1e-9
    _check(17, "pump_dark_split", ok,
           f"split {left:.6f}/{right:.6f} within 1e-3 of 0.5, "
           f"population drift {drift:.1e} <= 1e-9")
