"""Physical constants, unit helpers, and the line formulas.

All internal physics is strict SI with angular frequencies in rad/s.
User-facing documents and reports use the lab conventions instead
(cyclic Hz, mW/cm^2, W/cm^2, Gauss); the converters live here so the
core formulas never see a non-SI number.
"""

from __future__ import annotations

import math
from collections import namedtuple

TWO_PI = 2.0 * math.pi


def hz_to_angular(f_hz: float) -> float:
    """Cyclic frequency in Hz to angular frequency in rad/s."""
    return TWO_PI * f_hz


def angular_to_hz(omega: float) -> float:
    """Angular frequency in rad/s to cyclic frequency in Hz."""
    return omega / TWO_PI


def w_m2_to_mw_cm2(intensity: float) -> float:
    return intensity * 0.1


def w_m2_to_w_cm2(intensity: float) -> float:
    return intensity * 1e-4


def tesla_to_gauss(b: float) -> float:
    return b * 1e4


#: CODATA 2018 values, field name -> default
_CODATA_2018 = {
    "hbar": 1.054571817e-34,        # J s (exact in the 2019 SI)
    "c": 299792458.0,               # m/s (exact)
    "epsilon0": 8.8541878128e-12,   # F/m
    "mu_bohr": 9.2740100783e-24,    # J/T
}


class PhysicalConstants(namedtuple("PhysicalConstants", _CODATA_2018,
                                   defaults=_CODATA_2018.values())):
    """CODATA 2018 values, frozen at build time."""

    __slots__ = ()


CODATA = PhysicalConstants()


def mode_denominator(area: float, duration: float) -> float:
    """2 eps0 A c T of a pulse mode of beam area ``area`` (m^2) and pulse
    duration ``duration`` (s), in J/(V^2/m^2)."""
    if area <= 0.0:
        raise ValueError(f"beam area must be positive, got {area}")
    if duration <= 0.0:
        raise ValueError(f"pulse duration must be positive, got {duration}")
    return 2.0 * CODATA.epsilon0 * area * CODATA.c * duration


def vacuum_field_squared(area: float, duration: float, wavelength: float) -> float:
    """Squared field amplitude per photon of a pulse mode, in V^2/m^2.

    A single photon at the carrier wavelength, spread over beam area
    ``area`` (m^2) and pulse duration ``duration`` (s), carries the mean
    squared field hbar*omega0 / (2 eps0 A c T).
    """
    mode = mode_denominator(area, duration)
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    omega0 = TWO_PI * CODATA.c / wavelength
    return CODATA.hbar * omega0 / mode


def dipole_moment_squared(gamma: float, wavelength: float) -> float:
    """Reduced squared dipole moment of a D line, in (C m)^2.

    Inverts the spontaneous-decay relation for a transition with natural
    linewidth ``gamma`` (rad/s) at ``wavelength`` (m):
    mu0^2 = 3 eps0 hbar lambda^3 gamma / (2 pi^2).
    """
    if gamma <= 0.0:
        raise ValueError(f"linewidth must be positive, got {gamma}")
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    return 3.0 * CODATA.epsilon0 * CODATA.hbar * wavelength**3 * gamma / (2.0 * math.pi**2)


def saturation_intensity(gamma: float, wavelength: float) -> float:
    """Two-level saturation intensity 2 pi^2 hbar c gamma / (3 lambda^3), W/m^2."""
    if gamma <= 0.0:
        raise ValueError(f"linewidth must be positive, got {gamma}")
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    return 2.0 * math.pi**2 * CODATA.hbar * CODATA.c * gamma / (3.0 * wavelength**3)
