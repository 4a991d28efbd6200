"""Constants, line data, and unit converters."""

import math

import pytest

from qmemcell import CESIUM, CODATA
from qmemcell.constants import (
    angular_to_hz,
    dipole_moment_squared,
    hz_to_angular,
    mode_denominator,
    saturation_intensity,
    tesla_to_gauss,
    vacuum_field_squared,
    w_m2_to_mw_cm2,
    w_m2_to_w_cm2,
)


def test_converters_spot_values():
    assert hz_to_angular(1.0) == 2.0 * math.pi
    assert angular_to_hz(2.0 * math.pi) == 1.0
    assert w_m2_to_mw_cm2(10.0) == 1.0
    assert w_m2_to_w_cm2(1.0e4) == 1.0
    assert tesla_to_gauss(1.0) == 1.0e4


def test_converters_round_trip():
    for value in (1.0, 3.7e-5, 2.9e11):
        assert angular_to_hz(hz_to_angular(value)) == pytest.approx(value, rel=1e-15)


def test_cesium_line_data_sanity():
    assert CESIUM.lambda_d1 > CESIUM.lambda_d2 > 0.0
    assert CESIUM.gamma_d2 > CESIUM.gamma_d1 > 0.0
    assert CESIUM.delta_hf > CESIUM.delta2 > 0.0
    assert CESIUM.f_ground == 4
    assert CESIUM.g_f == 0.25


def test_saturation_intensity_d1_frozen():
    isat = saturation_intensity(CESIUM.gamma_d1, CESIUM.lambda_d1)
    assert isat == pytest.approx(8.324600094049815, rel=1e-12)
    # lab units: about 0.83 mW/cm^2
    assert w_m2_to_mw_cm2(isat) == pytest.approx(0.832, rel=2e-3)


def test_saturation_intensity_scaling():
    base = saturation_intensity(CESIUM.gamma_d1, CESIUM.lambda_d1)
    assert saturation_intensity(2.0 * CESIUM.gamma_d1, CESIUM.lambda_d1) == pytest.approx(
        2.0 * base, rel=1e-14)
    assert saturation_intensity(CESIUM.gamma_d1, 2.0 * CESIUM.lambda_d1) == pytest.approx(
        base / 8.0, rel=1e-14)


def test_vacuum_field_squared_frozen():
    value = vacuum_field_squared(2.0e-4, 1.0e-3, CESIUM.lambda_d2)
    assert value == pytest.approx(2.1951025765207052e-10, rel=1e-12)


def test_vacuum_field_squared_consistency():
    # hbar omega0 / (2 eps0 A c T) assembled independently
    area, duration = 3.0e-4, 2.0e-3
    omega0 = 2.0 * math.pi * CODATA.c / CESIUM.lambda_d1
    expected = CODATA.hbar * omega0 / (2.0 * CODATA.epsilon0 * area * CODATA.c * duration)
    assert vacuum_field_squared(area, duration, CESIUM.lambda_d1) == pytest.approx(
        expected, rel=1e-14)


def test_dipole_moment_squared_frozen():
    value = dipole_moment_squared(CESIUM.gamma_d2, CESIUM.lambda_d2)
    assert value == pytest.approx(2.8816699720959953e-57, rel=1e-12)


def test_dipole_saturation_intensity_relation():
    # I_sat = c eps0 gamma^2 hbar^2 / (4 mu0^2) holds for the two-level pair
    for gamma, lam in ((CESIUM.gamma_d1, CESIUM.lambda_d1),
                       (CESIUM.gamma_d2, CESIUM.lambda_d2)):
        musq = dipole_moment_squared(gamma, lam)
        isat = saturation_intensity(gamma, lam)
        assert isat * musq == pytest.approx(
            CODATA.c * CODATA.epsilon0 * (CODATA.hbar * gamma) ** 2 / 4.0, rel=1e-12)


def test_vacuum_field_squared_divides_by_the_mode_denominator():
    area, duration = 2.0e-4, 1.0e-3
    mode = mode_denominator(area, duration)
    assert mode == 2.0 * CODATA.epsilon0 * area * CODATA.c * duration
    omega0 = 2.0 * math.pi * CODATA.c / CESIUM.lambda_d2
    assert vacuum_field_squared(area, duration, CESIUM.lambda_d2) == CODATA.hbar * omega0 / mode


def test_validation_errors():
    for area, duration in ((0.0, 1e-3), (-1e-4, 1e-3), (1e-4, 0.0)):
        with pytest.raises(ValueError, match="must be positive"):
            mode_denominator(area, duration)
    with pytest.raises(ValueError):
        vacuum_field_squared(0.0, 1e-3, 852e-9)
    with pytest.raises(ValueError):
        vacuum_field_squared(1e-4, -1.0, 852e-9)
    with pytest.raises(ValueError):
        vacuum_field_squared(1e-4, 1e-3, 0.0)
    with pytest.raises(ValueError):
        dipole_moment_squared(-1.0, 852e-9)
    with pytest.raises(ValueError):
        saturation_intensity(CESIUM.gamma_d1, -852e-9)
