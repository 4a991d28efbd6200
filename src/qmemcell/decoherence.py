"""Decoherence budget of the cell: photon scattering, collisions, windows.

Rates are computed in SI; the Gaussian-channel side (how a given budget
acts on a stored state) lives here as well so that the protocol code in
``memory`` only ever composes ready-made channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CESIUM, CODATA, PhysicalConstants, SpeciesData, saturation_intensity
from .gaussian import GaussianChannel, attenuation_channel
from .numerics import faddeeva
from .scenario import ScenarioConfig, ScenarioError

#: width conventions for the Doppler average
WIDTH_HWHM = "hwhm"
WIDTH_SIGMA = "sigma"

_HWHM_TO_SIGMA = 1.0 / math.sqrt(2.0 * math.log(2.0))


def scattering_rate(intensity: float, detuning: float,
                    gamma: float = CESIUM.gamma_d1,
                    wavelength: float = CESIUM.lambda_d1,
                    constants: PhysicalConstants = CODATA) -> float:
    """Photon scattering rate (1/s) of a two-level atom.

    Gamma_ph = (gamma/2) s/(1+s) with saturation parameter
    s = (I/I_sat) / (1 + (2 detuning/gamma)^2).
    """
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    isat = saturation_intensity(gamma, wavelength, constants)
    s = (intensity / isat) / (1.0 + (2.0 * detuning / gamma) ** 2)
    return 0.5 * gamma * s / (1.0 + s)


def doppler_averaged_scattering(intensity: float, center_detuning: float,
                                doppler_halfwidth: float,
                                gamma: float = CESIUM.gamma_d1,
                                wavelength: float = CESIUM.lambda_d1,
                                width_convention: str = WIDTH_HWHM,
                                constants: PhysicalConstants = CODATA) -> float:
    """Scattering rate averaged over the Doppler-shifted detuning.

    The detuning of the field from an atom's resonance is Gaussian-
    distributed around ``center_detuning`` with half width
    ``doppler_halfwidth``; pass the mean detuning from the resonance of
    the atoms that actually scatter (e.g. field at Delta_S from the line
    center, edge-pumped atoms resonant at Delta_2/2, hence center
    Delta_S - Delta_2/2).

    ``width_convention`` decides whether the width is read as a HWHM
    (default) or directly as the Gaussian standard deviation.

    The rate is a power-broadened Lorentzian in the detuning, of peak
    (gamma/2) s0/(1+s0) and HWHM w = (gamma/2) sqrt(1+s0) with
    s0 = I/I_sat, so its Gaussian average is a Voigt profile, evaluated
    in closed form through the Faddeeva function.  The result carries
    that function's accuracy: about 1e-9 relative while w is at least
    1.4e-5 of the Gaussian standard deviation, less in the far wing of
    narrower lines (see ``qmemcell.numerics.faddeeva``).
    """
    if doppler_halfwidth < 0.0:
        raise ValueError(f"doppler width must be non-negative, got {doppler_halfwidth}")
    if width_convention == WIDTH_HWHM:
        sigma = doppler_halfwidth * _HWHM_TO_SIGMA
    elif width_convention == WIDTH_SIGMA:
        sigma = doppler_halfwidth
    else:
        raise ValueError(f"unknown width convention {width_convention!r}")
    if sigma == 0.0:
        return scattering_rate(intensity, center_detuning, gamma, wavelength, constants)
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")

    s0 = intensity / saturation_intensity(gamma, wavelength, constants)
    peak = 0.5 * gamma * s0 / (1.0 + s0)
    width = 0.5 * gamma * math.sqrt(1.0 + s0)
    scale = sigma * math.sqrt(2.0)
    voigt = faddeeva(complex(abs(center_detuning), width) / scale).real
    value = peak * math.sqrt(math.pi) * width * voigt / scale
    if not math.isfinite(value):
        raise ArithmeticError(
            f"doppler average is not finite: intensity={intensity}, "
            f"center={center_detuning}, sigma={sigma}")
    return value


def scattered_photon_limit(species: SpeciesData = CESIUM) -> float:
    """Far-detuned floor of scattered photons per atom for a pi pulse.

    Take the light pi pulse, let the detuning grow and keep solving for
    the required intensity: duration and detuning cancel and the
    scattered-photon number approaches 48 pi/(4F - 2) * gamma/Delta_2,
    i.e. 24 pi/7 * gamma/Delta_2 for F = 4.  A property of the line
    quality alone.
    """
    factor = 4 * species.f_ground - 2
    return 48.0 * math.pi / factor * species.gamma_d1 / species.delta2


def spin_exchange_probability(tau: float, species: SpeciesData = CESIUM,
                              density: float | None = None,
                              mean_speed: float | None = None) -> float:
    """Collision probability eta = sigma * v * tau * rho during time tau."""
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    rho = 2.5e16 if density is None else density
    v = species.mean_speed if mean_speed is None else mean_speed
    if rho < 0.0 or v < 0.0:
        raise ValueError("density and speed must be non-negative")
    return species.spin_exchange_cross_section * v * tau * rho


def residual_pump_occupation(species: SpeciesData = CESIUM) -> float:
    """Steady off-resonant excitation fraction under continuous pumping.

    gamma * Delta_Doppler / Delta_2^2: the pump, resonant for one
    excited hyperfine component, weakly excites the other across the
    Doppler profile.  Dimensionless.
    """
    return species.gamma_d1 * species.doppler_halfwidth / species.delta2**2


@dataclass(frozen=True)
class BoundaryLossBudget:
    """Transmission bookkeeping for n lossy window crossings."""

    loss_per_crossing: float
    n_crossings: int
    transmission: float
    added_vacuum_fraction: float


def boundary_loss_budget(loss_per_crossing: float, n_crossings: int) -> BoundaryLossBudget:
    """Total transmission (1-A)^n and the vacuum fraction 1-(1-A)^n."""
    if not 0.0 <= loss_per_crossing <= 1.0:
        raise ValueError(f"loss per crossing must lie in [0, 1], got {loss_per_crossing}")
    if n_crossings < 0:
        raise ValueError(f"n_crossings must be non-negative, got {n_crossings}")
    transmission = (1.0 - loss_per_crossing) ** n_crossings
    return BoundaryLossBudget(
        loss_per_crossing=loss_per_crossing,
        n_crossings=n_crossings,
        transmission=transmission,
        added_vacuum_fraction=1.0 - transmission,
    )


@dataclass(frozen=True)
class DecoherenceBudget:
    """Per-pulse decoherence parameters applied by the memory protocol.

    eta              spin-exchange collision probability
    gamma_ph         photon scattering rate of the auxiliary light, 1/s
    n_phot           scattered photons per atom per pulse
    boundary_loss    intensity loss per window crossing
    n_boundaries     window crossings per pass (2 for a single cell)
    """

    eta: float = 0.0
    gamma_ph: float = 0.0
    n_phot: float = 0.0
    boundary_loss: float = 0.0
    n_boundaries: int = 2

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        if self.gamma_ph < 0.0:
            raise ValueError(f"gamma_ph must be non-negative, got {self.gamma_ph}")
        if not 0.0 <= self.n_phot < 1.0:
            raise ValueError(f"n_phot must lie in [0, 1), got {self.n_phot}")
        if not 0.0 <= self.boundary_loss < 1.0:
            raise ValueError(f"boundary_loss must lie in [0, 1), got {self.boundary_loss}")
        if self.n_boundaries < 0:
            raise ValueError(f"n_boundaries must be non-negative, got {self.n_boundaries}")

    @classmethod
    def from_scenario(cls, config: ScenarioConfig,
                      constants: PhysicalConstants = CODATA) -> "DecoherenceBudget":
        """Budget of the configured operating point.

        Scattering is evaluated for the slope-compensation light at the
        configured Stark detuning; the mean detuning from the resonance
        of the edge-pumped atoms is |Delta_S| - Delta_2/2.  A pulse that
        scatters one photon per atom or more raises ScenarioError.
        """
        from .shifts import stark_compensation_intensity
        sp = config.species
        eta = spin_exchange_probability(config.pulse_duration, sp,
                                        density=config.atom_density)
        i_s = stark_compensation_intensity(config.omega_b, config.stark_detuning,
                                           sp, constants)
        gamma_ph = doppler_averaged_scattering(
            i_s, abs(config.stark_detuning) - sp.delta2 / 2.0,
            sp.doppler_halfwidth, gamma=sp.gamma_d1,
            wavelength=sp.lambda_d1, constants=constants)
        n_phot = gamma_ph * config.pulse_duration
        if n_phot >= 1.0:
            raise ScenarioError(
                f"field 'tau_s' = {config.pulse_duration:g} s scatters "
                f"{n_phot:.3g} photons per atom at {gamma_ph:.4g} /s; the scattering "
                "channel needs fewer than 1 per pulse (n_phot < 1)")
        return cls(eta=eta, gamma_ph=gamma_ph, n_phot=n_phot,
                   boundary_loss=config.boundary_loss, n_boundaries=2)


def _labels(modes: tuple[str, ...], chosen: tuple[str, ...] | None,
            prefix: str) -> tuple[str, ...]:
    return tuple(m for m in modes if m.startswith(prefix)) if chosen is None else chosen


def spin_exchange_channel(modes: tuple[str, ...], eta: float,
                          atomic_modes: tuple[str, ...] | None = None) -> GaussianChannel:
    """Spin-exchange collision channel on the atomic modes of a register.

    A colliding atom leaves its class, shortening the collective means
    by eta and admixing vacuum-level fluctuation of the fresh spins: an
    attenuation of transmission (1 - eta)^2.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    return attenuation_channel(modes, _labels(modes, atomic_modes, "atom"),
                               (1.0 - eta) ** 2)


def scattering_channel(modes: tuple[str, ...], n_phot: float,
                       atomic_modes: tuple[str, ...] | None = None) -> GaussianChannel:
    """Photon-scattering channel on the atomic modes of a register.

    Each scattered photon randomizes one atom's sublevel; for
    n_phot << 1 per atom the collective effect is the same attenuation
    with vacuum refill as a collision with probability n_phot.
    """
    if not 0.0 <= n_phot < 1.0:
        raise ValueError(f"n_phot must lie in [0, 1), got {n_phot}")
    return attenuation_channel(modes, _labels(modes, atomic_modes, "atom"),
                               (1.0 - n_phot) ** 2)


def boundary_loss_channel(modes: tuple[str, ...], loss: float, n_crossings: int,
                          light_modes: tuple[str, ...] | None = None) -> GaussianChannel:
    """Pass the light modes of a register through n lossy window crossings."""
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must lie in [0, 1), got {loss}")
    if n_crossings < 0:
        raise ValueError(f"n_crossings must be non-negative, got {n_crossings}")
    return attenuation_channel(modes, _labels(modes, light_modes, "light"),
                               (1.0 - loss) ** n_crossings)
