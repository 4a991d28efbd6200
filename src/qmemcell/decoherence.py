"""Decoherence budget of the cell: photon scattering, collisions, windows.

Rates and probabilities are scalars in SI, computed without numpy; how
a budget acts on a stored state (the Gaussian channels) is part of the
protocol in ``memory``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import saturation_intensity
from .scenario import CESIUM, ScenarioConfig, SpeciesData, refusal
from .shifts import stark_compensation_intensity, stark_pi_intensity

#: width conventions for the Doppler average
WIDTH_HWHM = "hwhm"
WIDTH_SIGMA = "sigma"

_HWHM_TO_SIGMA = 1.0 / math.sqrt(2.0 * math.log(2.0))
#: a Gaussian narrower than this fraction of the Lorentzian width moves the
#: Voigt profile by (sigma/w)^2, below double precision
_NARROW = 2.0**-27

# Weideman's rational approximation of the Faddeeva function (SIAM J.
# Numer. Anal. 31, 1497, 1994): w(z) = 2 p(Z)/(L - iz)^2
# + 1/(sqrt(pi) (L - iz)) with Z = (L + iz)/(L - iz) and p of degree
# N - 1, its coefficients the cosine transform of exp(-t^2)(L^2 + t^2)
# sampled at t = L tan(theta/2).  N = 64; the coefficients, highest
# degree first, are frozen here (tests regenerate them).
_WEIDEMAN_L = math.sqrt(64 / math.sqrt(2.0))
_WEIDEMAN = (
    -1.251627807285738e-15, -3.0251827701090727e-16, -4.340074589256645e-16,
    -3.177164336998839e-16, -1.0957975872344028e-16, -1.386870465532728e-16,
    2.033505345211895e-16, -3.9101209455665375e-16, -7.907434769100884e-17,
    1.6428947759643127e-16, 8.969486089580865e-17, -1.444026755516516e-16,
    1.492359113773491e-16, -2.0287144505233468e-16, -6.375656004727575e-18,
    -2.302916695120676e-16, -2.4771222125552e-16, 3.013221191703104e-16,
    2.8047137916472375e-16, -6.421041732625369e-17, 3.0224104963333574e-16,
    5.15412429248131e-16, -9.527376377561692e-16, -4.104858814903822e-15,
    -1.7572521654696281e-16, 3.2842731061156457e-14, 5.90835466258037e-14,
    -1.5495445350625424e-13, -7.920013772045437e-13, -3.9385020880980017e-13,
    5.832265156291847e-12, 1.7501643361469962e-11, -6.470591641387651e-12,
    -1.7560599378261833e-10, -4.5339125297432565e-10, 2.443480460108034e-10,
    5.1869556471466424e-09, 1.5926813999991468e-08, 7.435710869302685e-09,
    -1.3610261240907367e-07, -6.650424121637082e-07, -1.5547722782406348e-06,
    -7.564244086551467e-08, 1.7901801586021525e-05, 0.0001022700679891804,
    0.00039627451039821323, 0.0012549788049982255, 0.0034602079481075108,
    0.00856538141317579, 0.019380399024538218, 0.040552846529580244,
    0.07911655067602583, 0.14477859973586416, 0.24963969994535562, 0.4070443030398736,
    0.6293868343374367, 0.9249760252638086, 1.294437751717516, 1.7275060857871174,
    2.201256571286409, 2.680732639559084, 3.1224481894020366, 3.4804961039850424,
    3.7141697931977022,
)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

    Accepts a complex scalar or a numpy array.  Against a reference
    implementation the real part is within 1e-9 relative for
    Im z >= 1e-5 and |Re z| <= 1e7.  Closer to the real axis the
    approximation keeps an absolute error near 1e-18, so in the far
    wing, where Re w(z) is itself that small, the relative error grows:
    1e-8 at Im z = 1e-6, 1e-5 at Im z = 1e-9.
    """
    iz = 1j * z
    denom = _WEIDEMAN_L - iz
    zz = (_WEIDEMAN_L + iz) / denom
    p = 0.0
    for c in _WEIDEMAN:
        p = p * zz + c
    return 2.0 * p / (denom * denom) + _INV_SQRT_PI / denom


def scattering_rate(intensity: float, detuning: float, gamma: float,
                    wavelength: float) -> float:
    """Photon scattering rate (1/s) of a two-level atom.

    Gamma_ph = (gamma/2) s/(1+s) with saturation parameter
    s = (I/I_sat) / (1 + (2 detuning/gamma)^2).
    """
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    isat = saturation_intensity(gamma, wavelength)
    s = (intensity / isat) / (1.0 + (2.0 * detuning / gamma) ** 2)
    return 0.5 * gamma * s / (1.0 + s)


def doppler_averaged_scattering(intensity: float, center_detuning: float,
                                doppler_halfwidth: float, gamma: float,
                                wavelength: float, width_convention: str = WIDTH_HWHM) -> float:
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
    narrower lines (see :func:`faddeeva`).
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
        return scattering_rate(intensity, center_detuning, gamma, wavelength)
    if intensity < 0.0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")

    s0 = intensity / saturation_intensity(gamma, wavelength)
    peak = 0.5 * gamma * s0 / (1.0 + s0)
    width = 0.5 * gamma * math.sqrt(1.0 + s0)
    scale = sigma * math.sqrt(2.0)
    voigt = faddeeva(complex(abs(center_detuning), width) / scale).real
    value = peak * math.sqrt(math.pi) * width * voigt / scale
    if not math.isfinite(value):
        if sigma <= _NARROW * width < math.inf:
            # the Faddeeva form overflows for a Gaussian this narrow, which is a
            # delta function in double precision: take the exact sigma -> 0 limit
            return scattering_rate(intensity, center_detuning, gamma, wavelength)
        raise ArithmeticError(
            f"doppler average is not finite: intensity={intensity}, "
            f"center={center_detuning}, sigma={sigma}")
    return value


def edge_scattering_rate(intensity: float, delta_s: float, species: SpeciesData) -> float:
    """Doppler-averaged scattering rate (1/s) of the edge-pumped atoms in D1 light
    at ``delta_s`` from the line center: they are resonant at Delta_2/2, so the
    mean detuning is |Delta_S| - Delta_2/2.  The line data are the species' own;
    a D1 line whose saturation parameter I/I_sat overflows is refused by its keys."""
    try:
        return doppler_averaged_scattering(
            intensity, abs(delta_s) - species.delta2 / 2.0, species.doppler_halfwidth,
            species.gamma_d1, species.lambda_d1)
    except ArithmeticError:
        saturation = intensity / saturation_intensity(species.gamma_d1, species.lambda_d1)
        if math.isfinite(saturation):
            raise
        raise refusal(f"are out of range together: at {intensity:.4g} W/m^2 the D1 "
                      "saturation parameter I/I_sat overflows",
                      lambda_d1=species.lambda_d1, gamma_d1=species.gamma_d1) from None


def compensation_scattering_rate(config: ScenarioConfig) -> float:
    """Scattering rate (1/s) of the slope-compensation light of the configured point."""
    sp = config.species
    intensity = stark_compensation_intensity(config.omega_b, config.stark_detuning, sp)
    return edge_scattering_rate(intensity, config.stark_detuning, sp)


def scattered_photon_limit(species: SpeciesData = CESIUM) -> float:
    """Far-detuned floor of scattered photons per atom for a pi pulse.

    Take the light pi pulse, let the detuning grow and keep solving for
    the required intensity: duration and detuning cancel and the
    scattered-photon number approaches 48 pi/(4F - 2) * gamma/Delta_2,
    i.e. 24 pi/7 * gamma/Delta_2 for F = 4.  A property of the line
    quality alone.
    """
    factor = 4 * species.f_ground - 2
    value = 48.0 * math.pi / factor * species.gamma_d1 / species.delta2
    if not math.isfinite(value):
        raise refusal("are out of range together: the scattered-photon floor gamma/Delta_2 "
                      f"is {value!r}", gamma_d1=species.gamma_d1, delta2=species.delta2)
    return value


def stark_pi_scattered_photons(tau: float, delta_s: float,
                               species: SpeciesData = CESIUM) -> float:
    """Photons scattered per atom by the light pi pulse of duration tau at
    ``delta_s``: the edge atoms' rate at :func:`~qmemcell.shifts.stark_pi_intensity`
    times tau.  Far detuned it approaches :func:`scattered_photon_limit`.
    """
    return edge_scattering_rate(stark_pi_intensity(tau, delta_s, species), delta_s,
                                species) * tau


def spin_exchange_probability(tau: float, species: SpeciesData, density: float) -> float:
    """Collision probability eta = sigma * v * tau * rho in time tau, v the mean speed."""
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    v = species.mean_speed
    if density < 0.0 or v < 0.0:
        raise ValueError("density and speed must be non-negative")
    return species.spin_exchange_cross_section * v * tau * density


def residual_pump_occupation(species: SpeciesData = CESIUM) -> float:
    """Steady off-resonant excitation fraction under continuous pumping.

    gamma * Delta_Doppler / Delta_2^2: the pump, resonant for one
    excited hyperfine component, weakly excites the other across the
    Doppler profile.  Dimensionless.
    """
    value = species.gamma_d1 * species.doppler_halfwidth / species.delta2**2
    if not math.isfinite(value):
        raise refusal("are out of range together: the residual occupation gamma "
                      f"Delta_D/Delta_2^2 is {value!r}", gamma_d1=species.gamma_d1,
                      doppler_halfwidth=species.doppler_halfwidth, delta2=species.delta2)
    return value


def boundary_transmission(loss_per_crossing: float, n_crossings: int) -> float:
    """Total transmission (1-A)^n of n lossy window crossings; the vacuum
    fraction they add is its complement."""
    if not 0.0 <= loss_per_crossing <= 1.0:
        raise ValueError(f"loss per crossing must lie in [0, 1], got {loss_per_crossing}")
    if n_crossings < 0:
        raise ValueError(f"n_crossings must be non-negative, got {n_crossings}")
    return (1.0 - loss_per_crossing) ** n_crossings


class DecoherenceBudget(namedtuple("DecoherenceBudget", ("eta", "n_phot", "boundary_loss"))):
    """The three per-pulse losses the memory protocol applies.

    eta              spin-exchange collision probability
    n_phot           scattered photons per atom per pulse
    boundary_loss    intensity loss per window crossing; a single cell has
                     one window on the way in and one on the way out

    The scattering rate behind n_phot is
    :func:`compensation_scattering_rate` of the scenario.  The ranges are
    checked on construction, ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, eta: float = 0.0, n_phot: float = 0.0, boundary_loss: float = 0.0):
        if not 0.0 <= eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {eta}")
        if not 0.0 <= n_phot < 1.0:
            raise ValueError(f"n_phot must lie in [0, 1), got {n_phot}")
        if not 0.0 <= boundary_loss < 1.0:
            raise ValueError(f"boundary_loss must lie in [0, 1), got {boundary_loss}")
        return tuple.__new__(cls, (eta, n_phot, boundary_loss))

    @classmethod
    def _make(cls, iterable) -> "DecoherenceBudget":
        return cls(*iterable)

    @classmethod
    def from_scenario(cls, config: ScenarioConfig) -> "DecoherenceBudget":
        """Budget of the configured operating point.

        Scattering is that of the slope-compensation light
        (:func:`compensation_scattering_rate`).  A pulse with a collision
        probability of 1 or more, or that scatters one photon per atom or
        more, raises InputError.
        """
        return cls._from_scenario_with_rate(config)[0]

    @classmethod
    def _from_scenario_with_rate(cls, config: ScenarioConfig) -> tuple["DecoherenceBudget", float]:
        """``from_scenario``'s budget and the scattering rate (1/s) behind its n_phot."""
        eta = spin_exchange_probability(config.pulse_duration, config.species,
                                        config.atom_density)
        if eta >= 1.0:
            sp = config.species
            raise refusal(f"give a spin-exchange probability of {eta:.3g} per pulse; the "
                          "collision channel needs eta < 1", atom_density=config.atom_density,
                          pulse_duration=config.pulse_duration,
                          spin_exchange_cross_section=sp.spin_exchange_cross_section,
                          mean_speed=sp.mean_speed)
        rate = compensation_scattering_rate(config)
        n_phot = rate * config.pulse_duration
        if n_phot >= 1.0:
            # the rate follows the compensation light, whose intensity
            # omega_b_hz and stark_detuning_hz set
            raise refusal(f"scatter {n_phot:.3g} photons per atom at {rate:.4g} /s from the "
                          "compensation light; the scattering channel needs fewer than 1 per "
                          "pulse (n_phot < 1)", pulse_duration=config.pulse_duration,
                          omega_b=config.omega_b, stark_detuning=config.stark_detuning)
        return cls(eta=eta, n_phot=n_phot, boundary_loss=config.boundary_loss), rate
