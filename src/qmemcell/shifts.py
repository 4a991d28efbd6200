"""Magnetic-sublevel shift ladders and their engineering.

The memory stores collective coherences between neighboring magnetic
sublevels, so the quantity that matters everywhere is the *ladder* of
neighboring-level precession frequencies Omega(m) for m = -F .. F-1,
not the level energies themselves.  Three mechanisms move the ladder:

* the static field: linear Larmor term plus a second-order correction
  that makes the spacings depend on m through (2m + 1),
* an off-resonant light field on the D1 line (tensor light shift),
* an off-resonant microwave dressing the ground hyperfine transition.

All three ladders are exactly affine in (2m + 1), so any one of them can
cancel the m-dependence of another.  The compensation solvers and the
pi-pulse solutions below do exactly that bookkeeping.  The same ladder
coherences couple to the probe light; their collective coupling closes
the module.

The angular factors hold for an alkali ground manifold F = I + 1/2 driven
on its D1 line (J = J' = 1/2); they are taken from ``f_ground``, and reduce
to cesium's constants at F = 4.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .constants import (CODATA, dipole_moment_squared, dressing_denominator, mode_denominator,
                        vacuum_field_squared)
from .scenario import CESIUM, InputError, ScenarioConfig, SpeciesData, refusal

#: relative guard around the tensor-shift pole at |detuning| = delta2/2
POLE_GUARD = 1e-6


def ladder_m_values(f_ground: int) -> list[int]:
    """m indices of the neighboring-level spacings Omega(m), m -> m+1."""
    return list(range(-f_ground, f_ground))


class ShiftLadder(namedtuple("ShiftLadder", ("f_ground", "values"))):
    """Spacing frequencies Omega(m) in rad/s, m = -F .. F-1, of one mechanism.

    ``values`` holds Omega(m) in ascending m; a sum of ladders adds them per
    m, so a composite row is the sum of its parts' rows, rounded as such.
    """

    __slots__ = ()

    def omegas(self) -> dict[int, float]:
        """Omega(m) of the (m, m+1) coherence, rad/s, in ascending m."""
        return dict(zip(ladder_m_values(self.f_ground), self.values))

    def spread(self) -> float:
        """Full spread max Omega - min Omega across the ladder, rad/s."""
        return max(self.values) - min(self.values)

    def __add__(self, other: "ShiftLadder") -> "ShiftLadder":
        if self.f_ground != other.f_ground:
            raise ValueError("cannot compose ladders over different m ranges")
        return ShiftLadder(self.f_ground, tuple(a + b for a, b in zip(self.values, other.values)))


# ---------------------------------------------------------------------------
# ladders


def _affine_ladder(f_ground: int, start: float, slope: float) -> ShiftLadder:
    """The ladder start + slope (2m + 1).  An odd ladder starts at -0.0, the
    exact additive identity: it keeps the sign of a zero product, where a 0.0
    start would print -0.0 rows as 0.0."""
    return ShiftLadder(f_ground, tuple(start + slope * (2 * m + 1)
                                       for m in ladder_m_values(f_ground)))


def zeeman_ladder(omega_b: float, species: SpeciesData = CESIUM) -> ShiftLadder:
    """Ladder of the static field: Omega_B - (Omega_B^2/Delta_hf)(2m+1).

    The (2m+1) term is the second-order repulsion from the other ground
    hyperfine manifold; it is what dephases the two pumped classes.  A
    ladder whose spread (4F - 2) Omega_B^2/Delta_hf is not finite raises
    InputError naming the Larmor frequency and the hyperfine splitting.
    """
    if omega_b < 0.0:
        raise ValueError(f"omega_b must be non-negative, got {omega_b}")
    slope = -omega_b**2 / species.delta_hf
    if not math.isfinite((4 * species.f_ground - 2) * slope):
        raise refusal("are out of range together: the Zeeman ladder spread (4F - 2) "
                      "omega_b^2 / Delta_hf overflows", omega_b=omega_b,
                      delta_hf=species.delta_hf)
    return _affine_ladder(species.f_ground, omega_b, slope)


def class_dephasing(omega_b: float, tau: float, species: SpeciesData = CESIUM) -> float:
    """Relative phase (rad) between the edge coherences after time tau.

    Equals (4F - 2) * Omega_B^2 * tau / Delta_hf, i.e. the full ladder
    spread times tau; 14 Omega_B^2 tau / Delta_hf for F = 4.  A phase that
    is not finite raises InputError naming the Larmor frequency, the pulse
    duration and the hyperfine splitting.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    spread = (4 * species.f_ground - 2) * omega_b**2 / species.delta_hf
    phase = spread * tau
    if not math.isfinite(phase):
        raise refusal(f"are out of range together: the class dephasing (4F - 2) omega_b^2 "
                      f"tau / Delta_hf is {phase!r} rad", omega_b=omega_b,
                      pulse_duration=tau, delta_hf=species.delta_hf)
    return phase


def _stark_denominators(delta_s: float, species: SpeciesData) -> tuple[float, float]:
    """Detunings from the two D1 excited hyperfine components; a detuning on
    either one is refused as an InputError naming both keys that set it."""
    half = species.delta2 / 2.0
    if abs(abs(delta_s) - half) <= POLE_GUARD * half:
        raise refusal("are out of range together: the stark detuning sits on the excited "
                      f"hyperfine resonance, |delta_s| within {POLE_GUARD:.0e} relative "
                      "of delta2/2", stark_detuning=delta_s, delta2=species.delta2)
    return delta_s + half, delta_s - half


def _d1_strength(species: SpeciesData) -> float:
    """lambda_d1^3 gamma_d1, the D1 line strength both Stark formulas scale with;
    a product outside the normal float range has lost its digits, and is
    refused as an InputError naming both keys."""
    strength = species.lambda_d1**3 * species.gamma_d1
    if not sys.float_info.min <= strength < math.inf:
        raise refusal(f"are out of range together: the D1 line strength lambda^3 gamma is "
                      f"{strength!r}", lambda_d1=species.lambda_d1, gamma_d1=species.gamma_d1)
    return strength


def _tensor_denominator(species: SpeciesData) -> float:
    """16 F^2 pi^2 hbar c, the denominator of the D1 tensor light shift: the
    m^2 weight of pi light on J = 1/2 -> J' = 1/2 from F = I + 1/2 is
    -/+ 1/(6 F^2) for F' = F - 1 and F' = F.  It is 2^8 pi^2 hbar c at F = 4."""
    f = species.f_ground
    return 16.0 * f * f * math.pi**2 * CODATA.hbar * CODATA.c


def _stark_slope(intensity: float, delta_s: float, species: SpeciesData) -> float:
    """Slope of the tensor ladder at ``intensity``; a slope that is not finite,
    its denominator underflowing to zero included, is refused naming the Stark
    detuning and the D1 line data."""
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    d_low, d_up = _stark_denominators(delta_s, species)
    denominator = _tensor_denominator(species) * (d_low * d_up)
    slope = (_d1_strength(species) * intensity * species.delta2 / denominator
             if denominator else math.inf)
    if not math.isfinite(slope):
        raise refusal(f"are out of range together: at {intensity:.4g} W/m^2 the tensor slope "
                      f"lambda^3 gamma I Delta_2 / (16 F^2 pi^2 hbar c (Delta_S^2 - Delta_2^2/4)) "
                      f"is {slope!r}", stark_detuning=delta_s, lambda_d1=species.lambda_d1,
                      gamma_d1=species.gamma_d1, delta2=species.delta2)
    return slope


def stark_ladder(intensity: float, delta_s: float,
                 species: SpeciesData = CESIUM) -> ShiftLadder:
    """Tensor light-shift ladder of an off-resonant D1 field.

    Omega_S(m) = lambda^3 gamma I Delta_2 (2m+1)
                 / (16 F^2 pi^2 hbar c (Delta_S^2 - Delta_2^2/4)).

    Pure odd-affine: no m-independent part.  The slope flips sign when
    the field is tuned between the two excited hyperfine components
    (|Delta_S| < Delta_2/2).
    """
    return _affine_ladder(species.f_ground, -0.0, _stark_slope(intensity, delta_s, species))


def _ac_zeeman_slope(intensity: float, delta_mu: float, species: SpeciesData) -> float:
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    if delta_mu == 0.0:
        raise ValueError("microwave detuning must be nonzero")
    return intensity * CODATA.mu_bohr**2 / dressing_denominator(species.f_ground, delta_mu)


def ac_zeeman_ladder(intensity: float, delta_mu: float,
                     species: SpeciesData = CESIUM) -> ShiftLadder:
    """Microwave dressing ladder.

    Omega_mu(m) = I mu_B^2 (2m+1) / (2 F^2 eps0 hbar^2 c^3 Delta_mu).  Odd-
    affine with slope sign following the detuning sign, so a red- or
    blue-tuned microwave can cancel either sign of static-ladder slope.
    """
    return _affine_ladder(species.f_ground, -0.0,
                          _ac_zeeman_slope(intensity, delta_mu, species))


# ---------------------------------------------------------------------------
# compensation solvers


def stark_compensation_intensity(omega_b: float, delta_s: float,
                                 species: SpeciesData = CESIUM) -> float:
    """D1 intensity (W/m^2) whose tensor shift cancels the static ladder slope.

    I_S = 16 F^2 pi^2 hbar c Omega_B^2 / (lambda^3 gamma Delta_hf)
          * (Delta_S^2 - Delta_2^2/4) / Delta_2.

    Requires |Delta_S| > Delta_2/2: inside the doublet the tensor slope
    has the wrong sign for cancellation at positive intensity, which
    raises InputError naming the Stark detuning and Delta_2.  Two
    in-range values can still overflow the product; that raises
    InputError naming the Larmor frequency and the Stark detuning.  A
    D1 line strength lambda^3 gamma outside the normal float range raises
    InputError naming the wavelength and the linewidth, and a denominator
    lambda^3 gamma Delta_hf below it one naming the hyperfine splitting too.
    """
    if omega_b < 0.0:
        raise ValueError(f"omega_b must be non-negative, got {omega_b}")
    d_low, d_up = _stark_denominators(delta_s, species)
    if d_low * d_up <= 0.0:
        raise refusal("are out of range together: stark compensation needs |delta_s| > "
                      "delta2/2; between the excited components the tensor slope has the "
                      "wrong sign", stark_detuning=delta_s, delta2=species.delta2)
    denominator = _d1_strength(species) * species.delta_hf
    if denominator < sys.float_info.min:
        raise refusal("are out of range together: the compensation denominator lambda^3 gamma "
                      "Delta_hf underflows", lambda_d1=species.lambda_d1,
                      gamma_d1=species.gamma_d1, delta_hf=species.delta_hf)
    intensity = (_tensor_denominator(species) * omega_b**2 / denominator
                 * (d_low * d_up) / species.delta2)
    if not math.isfinite(intensity):
        raise refusal("are out of range together: the Stark compensation intensity "
                      f"omega_b^2 (Delta_S^2 - Delta_2^2/4) is {intensity!r}",
                      omega_b=omega_b, stark_detuning=delta_s)
    return intensity


def ac_zeeman_compensation_intensity(omega_b: float, delta_mu: float,
                                     species: SpeciesData = CESIUM) -> float:
    """Microwave intensity (W/m^2) cancelling the static ladder slope.

    I_mu = 2 F^2 eps0 hbar^2 c^3 Delta_mu Omega_B^2 / (Delta_hf mu_B^2).
    Needs Delta_mu > 0 so the dressing slope opposes the static one at
    positive intensity.  An intensity that is not finite raises InputError
    naming the Larmor frequency, the detuning and the hyperfine splitting.
    """
    if omega_b < 0.0:
        raise ValueError(f"omega_b must be non-negative, got {omega_b}")
    if delta_mu <= 0.0:
        raise refusal("is out of range: microwave compensation needs delta_mu > 0",
                      microwave_detuning=delta_mu)
    intensity = (dressing_denominator(species.f_ground, delta_mu) * omega_b**2
                 / (species.delta_hf * CODATA.mu_bohr**2))
    if not math.isfinite(intensity):
        raise refusal("are out of range together: the microwave compensation intensity "
                      f"Delta_mu omega_b^2 / Delta_hf is {intensity!r}", omega_b=omega_b,
                      microwave_detuning=delta_mu, delta_hf=species.delta_hf)
    return intensity


# ---------------------------------------------------------------------------
# differential pi pulses


def _check_tau(tau: float) -> None:
    if tau <= 0.0:
        raise InputError(f"pulse duration tau must be positive, got {tau}", "tau")


def _finite_solution(value: float, what: str, tau: float) -> float:
    """``value`` if finite; else the pulse duration is out of range."""
    if not math.isfinite(value):
        raise InputError(f"pulse duration tau = {tau:g} s is out of range: "
                         f"the pi pulse needs {what} {value!r}", "tau")
    return value


def _pi_intensity(tau: float, slope: float, species: SpeciesData, what: str,
                  **slope_fields: float) -> float:
    """Intensity (W/m^2) at which a ladder of ``slope`` per unit intensity
    puts a pi phase across its (4F - 2)-wide span in tau.  A slope of 0 or
    inf is refused naming ``slope_fields``, the config fields that set it."""
    unit = (4 * species.f_ground - 2) * abs(slope)
    if not 0.0 < unit < math.inf:
        verb = "are out of range together" if len(slope_fields) > 1 else "is out of range"
        raise refusal(f"{verb}: the pi pulse needs {what} inf, at a slope of {slope!r} per "
                      "unit intensity", **slope_fields)
    span = tau * unit
    return _finite_solution(math.pi / span if span else math.inf, what, tau)


def zeeman_pi_omega_b(tau: float, species: SpeciesData = CESIUM) -> float:
    """Larmor frequency (rad/s) of the strong-field pulse giving the edge
    coherences a relative phase pi in tau.

    Solves (4F - 2) Omega_B^2 tau / Delta_hf = pi, i.e. sets
    :func:`class_dephasing` to pi.
    """
    _check_tau(tau)
    factor = 4 * species.f_ground - 2
    return _finite_solution(math.sqrt(math.pi * species.delta_hf / (factor * tau)),
                            "a Larmor frequency (rad/s) of", tau)


def zeeman_pi_field(tau: float, species: SpeciesData = CESIUM) -> float:
    """Static field (T) of the strong-field pi pulse, B = hbar Omega_B / (g_F mu_B).
    A field that is not finite is refused naming g_F and the hyperfine splitting."""
    field = CODATA.hbar * zeeman_pi_omega_b(tau, species) / (species.g_f * CODATA.mu_bohr)
    if not math.isfinite(field):
        raise refusal(f"are out of range together: the pi-pulse field hbar Omega_B / (g_F mu_B) "
                      f"is {field!r} T", g_f=species.g_f, delta_hf=species.delta_hf)
    return field


def stark_pi_intensity(tau: float, delta_s: float, species: SpeciesData = CESIUM) -> float:
    """D1 intensity (W/m^2) whose tensor ladder accumulates a pi edge phase in tau.

    I_S = 4 F^2 pi^3 hbar c |Delta_2^2 - 4 Delta_S^2|
          / ((4F - 2) lambda^3 gamma Delta_2 tau); far off resonance this
    approaches 16 F^2 pi^3 hbar c Delta_S^2 / ((4F - 2) lambda^3 gamma Delta_2 tau).
    """
    _check_tau(tau)
    return _pi_intensity(tau, _stark_slope(1.0, delta_s, species), species,
                         "a D1 intensity (W/m^2) of", stark_detuning=delta_s,
                         delta2=species.delta2)


def microwave_pi_intensity(tau: float, delta_mu: float,
                           species: SpeciesData = CESIUM) -> float:
    """Microwave intensity (W/m^2) whose dressing ladder accumulates a pi
    edge phase in tau.

    I_mu = 2 pi F^2 eps0 hbar^2 c^3 |Delta_mu| / ((4F - 2) mu_B^2 tau).
    No photon-scattering cost: the dressing field is far from any
    optical transition.
    """
    _check_tau(tau)
    return _pi_intensity(tau, _ac_zeeman_slope(1.0, abs(delta_mu), species), species,
                         "a microwave intensity (W/m^2) of", microwave_detuning=delta_mu)


# ---------------------------------------------------------------------------
# probe couplings


class CouplingSet(namedtuple("CouplingSet", ("kappa_per_s", "kappa_tau", "k_eff"))):
    """Collective coupling figures for one operating point.

    kappa_per_s  collective two-mode coupling rate (1/s), signed like
                 1/detuning
    kappa_tau    dimensionless integrated coupling
    k_eff        pass-interaction strength entering the protocol maps
    """

    __slots__ = ()


def collective_kappa(config: ScenarioConfig) -> CouplingSet:
    """Collective coupling of the configured cell on the probe line.

    The probe runs on the stronger line; its vacuum field is set by the
    beam area and the pulse duration.  kappa carries the sign of
    -1/detuning, so red and blue probe detunings give opposite k_eff.
    A non-positive beam area or pulse duration, or a zero detuning, raises
    a ValueError.  A mode denominator 2 eps0 A c tau
    below the smallest normal float raises an InputError naming the beam
    area and the pulse duration, and a non-finite k_eff one naming the
    three keys that set it.
    """
    sp = config.species
    if mode_denominator(config.beam_area, config.pulse_duration) < sys.float_info.min:
        raise refusal("are out of range together: the mode denominator 2 eps0 A c tau "
                      "underflows", beam_area=config.beam_area,
                      pulse_duration=config.pulse_duration)
    e0_sq = vacuum_field_squared(config.beam_area, config.pulse_duration, sp.lambda_d2)
    mu_sq = dipole_moment_squared(sp.gamma_d2, sp.lambda_d2)
    if config.probe_detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    kappa = -(e0_sq * mu_sq * math.sqrt(config.photon_number * config.atom_number)
              / (12.0 * CODATA.hbar**2 * config.probe_detuning))
    kappa_tau = kappa * config.pulse_duration
    k_eff = math.sqrt(2.0) * kappa_tau
    if not math.isfinite(k_eff):
        raise refusal(f"are out of range together: the collective coupling kappa is {kappa!r} /s",
                      atom_number=config.atom_number, photon_number=config.photon_number,
                      probe_detuning=config.probe_detuning)
    return CouplingSet(kappa_per_s=kappa, kappa_tau=kappa_tau, k_eff=k_eff)
