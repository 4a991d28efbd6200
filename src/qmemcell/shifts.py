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
pi-pulse designers below do exactly that bookkeeping.  The same ladder
coherences couple to the probe light; their single-atom and collective
coupling strengths close the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import (CESIUM, CODATA, PhysicalConstants, SpeciesData,
                        angular_to_hz, dipole_moment_squared, vacuum_field_squared)
from .scenario import ScenarioConfig, ScenarioError

#: relative guard around the tensor-shift pole at |detuning| = delta2/2
POLE_GUARD = 1e-6

MECH_ZEEMAN = "quadratic_zeeman"
MECH_STARK = "ac_stark"
MECH_AC_ZEEMAN = "ac_zeeman"
MECH_COMPOSITE = "composite"


def ladder_m_values(f_ground: int) -> list[int]:
    """m indices of the neighboring-level spacings Omega(m), m -> m+1."""
    return list(range(-f_ground, f_ground))


@dataclass(frozen=True)
class ShiftLadder:
    """Spacing frequencies Omega(m) in rad/s for one shift mechanism.

    ``omegas[m]`` is the precession frequency of the (m, m+1) coherence
    contribution of this mechanism.  ``energy_shifts[m]``, where a
    mechanism defines per-level shifts, holds E(m)/hbar in rad/s over
    the full m = -F .. F range.
    """

    mechanism: str
    omegas: dict[int, float]
    energy_shifts: dict[int, float] = field(default_factory=dict)

    def spread(self) -> float:
        """Full spread max Omega - min Omega across the ladder, rad/s."""
        vals = list(self.omegas.values())
        return max(vals) - min(vals)

    def affine_coefficients(self) -> tuple[float, float]:
        """Least-squares (c0, c1) of Omega(m) = c0 + c1 (2m + 1).

        For the physical mechanisms the fit is exact to rounding; the
        residual is available through :func:`affine_residual`.
        """
        ms = sorted(self.omegas)
        n = len(ms)
        xs = [2 * m + 1 for m in ms]
        ys = [self.omegas[m] for m in ms]
        xbar = sum(xs) / n
        ybar = sum(ys) / n
        sxx = sum((x - xbar) ** 2 for x in xs)
        sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        c1 = sxy / sxx
        c0 = ybar - c1 * xbar
        return c0, c1

    def affine_residual(self) -> float:
        """Largest deviation from the affine fit, rad/s."""
        c0, c1 = self.affine_coefficients()
        return max(abs(self.omegas[m] - (c0 + c1 * (2 * m + 1))) for m in self.omegas)

    def __add__(self, other: "ShiftLadder") -> "ShiftLadder":
        if sorted(self.omegas) != sorted(other.omegas):
            raise ValueError("cannot compose ladders over different m ranges")
        omegas = {m: self.omegas[m] + other.omegas[m] for m in self.omegas}
        return ShiftLadder(mechanism=MECH_COMPOSITE, omegas=omegas)


@dataclass(frozen=True)
class PulseDesign:
    """A differential pi pulse: parameters plus what it costs.

    ``achieved_phase_difference`` is |Omega(F-1) - Omega(-F)| * duration,
    the relative phase accumulated between the two edge coherences; the
    designers solve for it to equal pi exactly.

    Exactly one of ``required_intensity`` (W/m^2) and ``required_field``
    (T) is set, depending on the mechanism.  ``scattered_photons`` is
    the photon-scattering cost per atom for light-driven pulses, 0 for
    the others.
    """

    mechanism: str
    duration: float
    achieved_phase_difference: float
    required_intensity: float | None = None
    required_field: float | None = None
    omega_b: float | None = None
    scattered_photons: float = 0.0


# ---------------------------------------------------------------------------
# ladders


def zeeman_ladder(omega_b: float, species: SpeciesData = CESIUM) -> ShiftLadder:
    """Ladder of the static field: Omega_B - (Omega_B^2/Delta_hf)(2m+1).

    The (2m+1) term is the second-order repulsion from the other ground
    hyperfine manifold; it is what dephases the two pumped classes.
    """
    if omega_b < 0.0:
        raise ValueError(f"omega_b must be non-negative, got {omega_b}")
    slope = -omega_b**2 / species.delta_hf
    omegas = {m: omega_b + slope * (2 * m + 1) for m in ladder_m_values(species.f_ground)}
    return ShiftLadder(mechanism=MECH_ZEEMAN, omegas=omegas)


def class_dephasing(omega_b: float, tau: float, species: SpeciesData = CESIUM) -> float:
    """Relative phase (rad) between the edge coherences after time tau.

    Equals (4F - 2) * Omega_B^2 * tau / Delta_hf, i.e. the full ladder
    spread times tau; 14 Omega_B^2 tau / Delta_hf for F = 4.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    spread = (4 * species.f_ground - 2) * omega_b**2 / species.delta_hf
    return spread * tau


def _stark_denominators(delta_s: float, species: SpeciesData) -> tuple[float, float]:
    """Detunings from the two D1 excited hyperfine components."""
    half = species.delta2 / 2.0
    if abs(abs(delta_s) - half) <= POLE_GUARD * half:
        raise ValueError(
            "stark detuning sits on the excited hyperfine resonance: "
            f"|delta_s| = {abs(delta_s):.6e} rad/s is within {POLE_GUARD:.0e} "
            f"relative of delta2/2 = {half:.6e} rad/s")
    return delta_s + half, delta_s - half


def stark_state_shift(m: int, intensity: float, delta_s: float,
                      species: SpeciesData = CESIUM,
                      constants: PhysicalConstants = CODATA) -> float:
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
    w_low = (f - m) * (f + m)
    w_up = m * m
    return intensity / (2.0 * constants.hbar * constants.c) * unit * (
        w_low / d_low + w_up / d_up)


def stark_ladder(intensity: float, delta_s: float,
                 species: SpeciesData = CESIUM,
                 constants: PhysicalConstants = CODATA) -> ShiftLadder:
    """Tensor light-shift ladder of an off-resonant D1 field.

    Omega_S(m) = lambda^3 gamma I Delta_2 (2m+1)
                 / (2^8 pi^2 hbar c (Delta_S^2 - Delta_2^2/4)).

    Pure odd-affine: no m-independent part.  The slope flips sign when
    the field is tuned between the two excited hyperfine components
    (|Delta_S| < Delta_2/2).  ``energy_shifts`` carries the underlying
    per-level shifts, whose neighbor differences reproduce the ladder.
    """
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    d_low, d_up = _stark_denominators(delta_s, species)
    slope = (species.lambda_d1**3 * species.gamma_d1 * intensity * species.delta2
             / (2.0**8 * math.pi**2 * constants.hbar * constants.c * (d_low * d_up)))
    f = species.f_ground
    omegas = {m: slope * (2 * m + 1) for m in ladder_m_values(f)}
    shifts = {m: stark_state_shift(m, intensity, delta_s, species, constants)
              for m in range(-f, f + 1)}
    return ShiftLadder(mechanism=MECH_STARK, omegas=omegas, energy_shifts=shifts)


def ac_zeeman_state_shift(m: int, intensity: float, delta_mu: float,
                          species: SpeciesData = CESIUM,
                          constants: PhysicalConstants = CODATA) -> float:
    """Microwave dressing shift E_mu(m)/hbar (rad/s) of level m.

    Magnetic-dipole weight mu_B^2 (1 - (m/F)^2): the edge states have no
    pi-coupled partner in the lower manifold and do not shift.  The sign
    is fixed so that neighbor differences reproduce
    :func:`ac_zeeman_ladder` for the same detuning sign convention.
    """
    f = species.f_ground
    if abs(m) > f:
        raise ValueError(f"m = {m} outside |m| <= {f}")
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    if delta_mu == 0.0:
        raise ValueError("microwave detuning must be nonzero")
    musq = constants.mu_bohr**2 * (1.0 - (m / f) ** 2)
    return -intensity * musq / (
        2.0 * constants.epsilon0 * constants.hbar**2 * constants.c**3 * delta_mu)


def ac_zeeman_ladder(intensity: float, delta_mu: float,
                     species: SpeciesData = CESIUM,
                     constants: PhysicalConstants = CODATA) -> ShiftLadder:
    """Microwave dressing ladder.

    Omega_mu(m) = I mu_B^2 (2m+1) / (32 eps0 hbar^2 c^3 Delta_mu) for
    F = 4 (the general-F coefficient is 2/F^2 in place of 1/8).  Odd-
    affine with slope sign following the detuning sign, so a red- or
    blue-tuned microwave can cancel either sign of static-ladder slope.
    """
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    if delta_mu == 0.0:
        raise ValueError("microwave detuning must be nonzero")
    f = species.f_ground
    slope = intensity * constants.mu_bohr**2 / (
        2.0 * f * f * constants.epsilon0 * constants.hbar**2 * constants.c**3 * delta_mu)
    omegas = {m: slope * (2 * m + 1) for m in ladder_m_values(f)}
    shifts = {m: ac_zeeman_state_shift(m, intensity, delta_mu, species, constants)
              for m in range(-f, f + 1)}
    return ShiftLadder(mechanism=MECH_AC_ZEEMAN, omegas=omegas, energy_shifts=shifts)


# ---------------------------------------------------------------------------
# compensation solvers


def stark_compensation_intensity(omega_b: float, delta_s: float,
                                 species: SpeciesData = CESIUM,
                                 constants: PhysicalConstants = CODATA) -> float:
    """D1 intensity (W/m^2) whose tensor shift cancels the static ladder slope.

    I_S = 2^8 pi^2 hbar c Omega_B^2 / (lambda^3 gamma Delta_hf)
          * (Delta_S^2 - Delta_2^2/4) / Delta_2.

    Requires |Delta_S| > Delta_2/2: inside the doublet the tensor slope
    has the wrong sign for cancellation at positive intensity.  Two
    in-range values can still overflow the product; that raises
    ValueError naming both scenario keys.
    """
    if omega_b < 0.0:
        raise ValueError(f"omega_b must be non-negative, got {omega_b}")
    d_low, d_up = _stark_denominators(delta_s, species)
    if d_low * d_up <= 0.0:
        raise ValueError(
            "stark compensation needs |delta_s| > delta2/2; between the "
            f"excited components (|delta_s| = {abs(delta_s):.6e} rad/s) the "
            "tensor slope has the wrong sign")
    intensity = (2.0**8 * math.pi**2 * constants.hbar * constants.c * omega_b**2
                 / (species.lambda_d1**3 * species.gamma_d1 * species.delta_hf)
                 * (d_low * d_up) / species.delta2)
    if not math.isfinite(intensity):
        raise ValueError(
            f"fields 'omega_b_hz' = {angular_to_hz(omega_b):g} Hz and 'stark_detuning_hz' = "
            f"{angular_to_hz(delta_s):g} Hz are out of range together: the Stark "
            f"compensation intensity omega_b^2 (Delta_S^2 - Delta_2^2/4) is {intensity!r}")
    return intensity


def ac_zeeman_compensation_intensity(omega_b: float, delta_mu: float,
                                     species: SpeciesData = CESIUM,
                                     constants: PhysicalConstants = CODATA) -> float:
    """Microwave intensity (W/m^2) cancelling the static ladder slope.

    I_mu = 2 F^2 eps0 hbar^2 c^3 Delta_mu Omega_B^2 / (Delta_hf mu_B^2),
    i.e. 32 eps0 hbar^2 c^3 Delta_mu Omega_B^2 / (Delta_hf mu_B^2) for
    F = 4.  Needs Delta_mu > 0 so the dressing slope opposes the static
    one at positive intensity.
    """
    if omega_b < 0.0:
        raise ValueError(f"omega_b must be non-negative, got {omega_b}")
    if delta_mu <= 0.0:
        raise ValueError(
            f"microwave compensation needs delta_mu > 0, got {delta_mu}")
    f = species.f_ground
    return (2.0 * f * f * constants.epsilon0 * constants.hbar**2 * constants.c**3
            * delta_mu * omega_b**2 / (species.delta_hf * constants.mu_bohr**2))


def microwave_detuning_default(omega_b: float) -> float:
    """Convenient dressing detuning, 120 * Omega_B.

    The hyperfine transition frequencies of the different m pairs span
    about 12 Omega_B (linear Zeeman fan of both manifolds); detuning ten
    times further keeps the dressing uniform across the ladder.
    """
    if omega_b < 0.0:
        raise ValueError(f"omega_b must be non-negative, got {omega_b}")
    return 120.0 * omega_b


# ---------------------------------------------------------------------------
# pi-pulse designers


def zeeman_pi_pulse(tau: float, species: SpeciesData = CESIUM,
                    constants: PhysicalConstants = CODATA,
                    use_g_factor: bool = True) -> PulseDesign:
    """Strong-field pulse giving the edge coherences a relative phase pi.

    Solves (4F - 2) Omega_B^2 tau / Delta_hf = pi for Omega_B, then
    converts to field via B = hbar Omega_B / (g_F mu_B).  With
    ``use_g_factor=False`` the conversion drops g_F (the bare
    B = hbar Omega_B / mu_B reading).
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    factor = 4 * species.f_ground - 2
    omega_b = math.sqrt(math.pi * species.delta_hf / (factor * tau))
    g = species.g_f if use_g_factor else 1.0
    b_field = constants.hbar * omega_b / (g * constants.mu_bohr)
    return PulseDesign(
        mechanism=MECH_ZEEMAN,
        duration=tau,
        achieved_phase_difference=class_dephasing(omega_b, tau, species),
        required_field=b_field,
        omega_b=omega_b,
    )


def stark_pi_intensity(tau: float, delta_s: float, species: SpeciesData = CESIUM,
                       constants: PhysicalConstants = CODATA) -> float:
    """D1 intensity (W/m^2) whose tensor ladder accumulates a pi edge phase in tau.

    I_S = 32 pi^3 hbar c |Delta_2^2 - 4 Delta_S^2|
          / (7 lambda^3 gamma Delta_2 tau)  for F = 4; far off resonance
    this approaches 128 pi^3 hbar c Delta_S^2/(7 lambda^3 gamma Delta_2 tau).
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    factor = 4 * species.f_ground - 2
    unit = stark_ladder(1.0, delta_s, species, constants)
    return math.pi / (tau * (factor * abs(unit.affine_coefficients()[1])))


def stark_pi_pulse(tau: float, delta_s: float,
                   species: SpeciesData = CESIUM,
                   constants: PhysicalConstants = CODATA) -> PulseDesign:
    """Light pulse on D1 at :func:`stark_pi_intensity`.

    ``scattered_photons`` reports the Doppler-averaged photon-scattering
    cost per atom of the pulse, that of the edge-pumped atoms (see
    :func:`qmemcell.decoherence.edge_scattering_rate`).
    """
    intensity = stark_pi_intensity(tau, delta_s, species, constants)
    ladder = stark_ladder(intensity, delta_s, species, constants)
    phase = ladder.spread() * tau
    from .decoherence import edge_scattering_rate
    n_phot = edge_scattering_rate(intensity, delta_s, species, constants) * tau
    return PulseDesign(
        mechanism=MECH_STARK,
        duration=tau,
        achieved_phase_difference=phase,
        required_intensity=intensity,
        scattered_photons=n_phot,
    )


def microwave_pi_pulse(tau: float, delta_mu: float,
                       species: SpeciesData = CESIUM,
                       constants: PhysicalConstants = CODATA) -> PulseDesign:
    """Microwave pulse whose dressing ladder accumulates a pi edge phase.

    I_mu = 16 pi eps0 hbar^2 c^3 Delta_mu / (7 mu_B^2 tau) for F = 4.
    No photon-scattering cost: the dressing field is far from any
    optical transition.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    factor = 4 * species.f_ground - 2
    unit = ac_zeeman_ladder(1.0, abs(delta_mu), species, constants)
    span_per_intensity = factor * abs(unit.affine_coefficients()[1])
    intensity = math.pi / (tau * span_per_intensity)
    ladder = ac_zeeman_ladder(intensity, abs(delta_mu), species, constants)
    return PulseDesign(
        mechanism=MECH_AC_ZEEMAN,
        duration=tau,
        achieved_phase_difference=ladder.spread() * tau,
        required_intensity=intensity,
    )


# ---------------------------------------------------------------------------
# probe couplings


@dataclass(frozen=True)
class CouplingSet:
    """Single-atom and collective coupling figures for one operating point.

    g_m          single-atom Raman rates (1/s) for the m -> m+1 ladder
    kappa_per_s  collective two-mode coupling rate (1/s), signed like
                 1/detuning
    kappa_tau    dimensionless integrated coupling
    k_eff        pass-interaction strength entering the protocol maps
    """

    g_m: dict[int, float]
    kappa_per_s: float
    kappa_tau: float
    k_eff: float


def coupling_g(m: int, f: int, field_squared: float, dipole_squared: float,
               detuning: float, constants: PhysicalConstants = CODATA) -> float:
    """Single-atom coupling of the m <-> m+1 coherence to the sidebands."""
    if not -f <= m <= f - 1:
        raise ValueError(f"m must lie in [{-f}, {f - 1}] for F = {f}, got {m}")
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    strength = math.sqrt(f * (f + 1) - m * (m + 1))
    return (dipole_squared * field_squared * strength
            / (48.0 * constants.hbar**2 * detuning))


def _collective(config: ScenarioConfig,
                constants: PhysicalConstants) -> tuple[float, float, float, float, float]:
    """(E0^2, mu^2, kappa, kappa tau, k_eff) of :func:`collective_kappa`.

    Everything but the g_m ladder, with collective_kappa's errors in
    its order: a zero detuning raises coupling_g's ValueError before
    kappa divides by it, and a non-finite k_eff raises ScenarioError.
    """
    sp = config.species
    e0_sq = vacuum_field_squared(config.beam_area, config.pulse_duration,
                                 sp.lambda_d2, constants)
    mu_sq = dipole_moment_squared(sp.gamma_d2, sp.lambda_d2, constants)
    if config.probe_detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    kappa = -(e0_sq * mu_sq * math.sqrt(config.photon_number * config.atom_number)
              / (12.0 * constants.hbar**2 * config.probe_detuning))
    kappa_tau = kappa * config.pulse_duration
    k_eff = math.sqrt(2.0) * kappa_tau
    if not math.isfinite(k_eff):
        raise ScenarioError(
            f"fields 'atom_number' = {config.atom_number:g}, 'photon_number' = "
            f"{config.photon_number:g} and 'probe_detuning_hz' = "
            f"{angular_to_hz(config.probe_detuning):g} Hz are out of range together: "
            f"the collective coupling kappa is {kappa!r} /s")
    return e0_sq, mu_sq, kappa, kappa_tau, k_eff


def collective_kappa(config: ScenarioConfig,
                     constants: PhysicalConstants = CODATA) -> CouplingSet:
    """Collective coupling of the configured cell on the probe line.

    The probe runs on the stronger line; its vacuum field is set by the
    beam area and the pulse duration.  kappa carries the sign of
    -1/detuning, so red and blue probe detunings give opposite k_eff.
    """
    e0_sq, mu_sq, kappa, kappa_tau, k_eff = _collective(config, constants)
    f = config.species.f_ground
    g_m = {m: coupling_g(m, f, e0_sq, mu_sq, config.probe_detuning, constants)
           for m in range(-f, f)}
    return CouplingSet(g_m=g_m, kappa_per_s=kappa, kappa_tau=kappa_tau, k_eff=k_eff)


def collective_k_eff(config: ScenarioConfig,
                     constants: PhysicalConstants = CODATA) -> float:
    """``collective_kappa(config).k_eff`` without building the g_m ladder."""
    return _collective(config, constants)[4]
