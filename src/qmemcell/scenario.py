"""Scenario configuration: operating point of the cell plus species data.

Config documents are JSON with frequencies given as cyclic Hz (the lab
convention); they are converted to angular rad/s on load.  Unknown keys
are rejected so typos fail loudly instead of silently using a default.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import namedtuple

from .constants import CESIUM, CODATA, SpeciesData, angular_to_hz, hz_to_angular


class InputError(ValueError):
    """A refused input.  ``keys`` names the document keys or library parameters
    refused together; it is empty where the document is not a JSON object or
    holds an unknown key, which leaves no value to correct."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


ScenarioError = InputError  # the older name, kept for callers that catch it


class ScenarioConfig(namedtuple("ScenarioConfig", (
        "omega_b", "pulse_duration", "probe_detuning", "stark_detuning", "microwave_detuning",
        "atom_number", "photon_number", "beam_area", "atom_density", "boundary_loss",
        "feedback_gain", "species"))):
    """Operating point of the memory, all values SI with rad/s frequencies.

    omega_b            Larmor frequency of the bias field
    pulse_duration     light pulse / interaction time tau (also the
                       quantization window of the pulse modes)
    probe_detuning     detuning of the quantum probe from the D2 line
    stark_detuning     detuning of the compensation light from the D1
                       line center
    microwave_detuning detuning of the dressing microwave from the
                       ground hyperfine transition
    atom_number        atoms per pumped class
    photon_number      photons in the probe pulse
    beam_area          beam cross section, m^2
    atom_density       vapor density, m^-3
    boundary_loss      intensity loss per cell-window crossing
    feedback_gain      homodyne feedback gain g of the write step
    species            line data (defaults to cesium)
    """

    __slots__ = ()


# JSON key -> (ScenarioConfig field, converter). Frequencies are cyclic Hz
# in the document and angular rad/s in the config object.
_SCALAR_KEYS = {
    "omega_b_hz": ("omega_b", hz_to_angular),
    "tau_s": ("pulse_duration", float),
    "probe_detuning_hz": ("probe_detuning", hz_to_angular),
    "stark_detuning_hz": ("stark_detuning", hz_to_angular),
    "microwave_detuning_hz": ("microwave_detuning", hz_to_angular),
    "atom_number": ("atom_number", float),
    "photon_number": ("photon_number", float),
    "beam_area_m2": ("beam_area", float),
    "atom_density_m3": ("atom_density", float),
    "boundary_loss": ("boundary_loss", float),
    "feedback_gain": ("feedback_gain", float),
}
#: JSON key -> (index of its field in a ScenarioConfig, converter)
_FIELD_SLOTS = {key: (ScenarioConfig._fields.index(field), conv)
                for key, (field, conv) in _SCALAR_KEYS.items()}

_SPECIES_KEYS = {
    "lambda_d1_m": ("lambda_d1", float),
    "lambda_d2_m": ("lambda_d2", float),
    "gamma_d1_hz": ("gamma_d1", hz_to_angular),
    "gamma_d2_hz": ("gamma_d2", hz_to_angular),
    "delta_hf_hz": ("delta_hf", hz_to_angular),
    "delta2_hz": ("delta2", hz_to_angular),
    "doppler_halfwidth_hz": ("doppler_halfwidth", hz_to_angular),
    "mean_speed_m_s": ("mean_speed", float),
    "spin_exchange_cross_section_m2": ("spin_exchange_cross_section", float),
    "f_ground": ("f_ground", int),
    "g_f": ("g_f", float),
}

# Documented defaults, in document units: the packaged cesium operating point.
# The microwave detuning is 120 Omega_B, ten times the ~12 Omega_B span of the
# m pairs' hyperfine transitions (linear Zeeman fan): the dressing is uniform.
DEFAULTS = {
    "omega_b_hz": 3.0e5,
    "tau_s": 1.0e-3,
    "probe_detuning_hz": 7.0e8,
    "stark_detuning_hz": 3.0e9,
    "microwave_detuning_hz": 3.6e7,
    "atom_number": 1.0e12,
    "photon_number": 1.0e12,
    "beam_area_m2": 2.0e-4,
    "atom_density_m3": 2.5e16,
    "boundary_loss": 0.01,
    "feedback_gain": -1.0,
}

#: largest species f_ground: cesium's F = 4 is the largest integer ground F
#: of a stable alkali, and a ladder holds 2 f_ground spacings per mechanism
F_GROUND_MAX = 10

_POSITIVE_FIELDS = ("tau_s", "atom_number", "photon_number", "beam_area_m2",
                    "atom_density_m3")
_NONZERO_FIELDS = ("probe_detuning_hz", "stark_detuning_hz", "microwave_detuning_hz")
#: every key with a range check, in the order a document's errors are reported
_CHECKED_KEYS = (*_POSITIVE_FIELDS, "omega_b_hz", *_NONZERO_FIELDS, "boundary_loss")
#: keys whose angular value is squared by the physics, and the term it enters
_SQUARED_FIELDS = {"omega_b_hz": "the quadratic Zeeman term omega_b^2",
                   "stark_detuning_hz": "the Stark compensation term Delta_S^2"}


def _coerce_number(key, raw):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InputError(f"field '{key}' must be a number, got {raw!r}", key)
    value = float(raw)
    if not math.isfinite(value):
        raise InputError(f"field '{key}' must be finite, got {raw!r}", key)
    return value


def _check_scalar(key: str, value: float) -> None:
    """Range checks of one coerced scalar key, in document units."""
    if key in _POSITIVE_FIELDS and value <= 0.0:
        raise InputError(f"field '{key}' must be positive, got {value}", key)
    if key == "omega_b_hz" and value < 0.0:
        raise InputError(f"field 'omega_b_hz' must be non-negative, got {value}", key)
    if key in _NONZERO_FIELDS and value == 0.0:
        raise InputError(f"field '{key}' must be nonzero (it appears in denominators)", key)
    if key in _SQUARED_FIELDS:
        omega = hz_to_angular(value)
        if not math.isfinite(omega * omega):
            raise InputError(f"field '{key}' = {value:g} is out of range: "
                             f"{_SQUARED_FIELDS[key]} overflows", key)
    if key == "probe_detuning_hz" and 12.0 * CODATA.hbar**2 * hz_to_angular(value) == 0.0:
        # the collective coupling divides by 12 hbar^2 Delta (shifts.collective_kappa)
        raise InputError(f"field 'probe_detuning_hz' = {value:g} is out of range: "
                         "the coupling denominator hbar^2 Delta underflows to zero", key)
    if key == "microwave_detuning_hz" and abs(
            2.0 * CODATA.epsilon0 * CODATA.hbar**2 * CODATA.c**3
            * hz_to_angular(value)) < sys.float_info.min:
        # the dressing slope divides by 2 F^2 eps0 hbar^2 c^3 Delta_mu with F >= 1
        # (shifts.ac_zeeman_ladder); a subnormal one has lost its digits
        raise InputError(f"field 'microwave_detuning_hz' = {value:g} is out of range: "
                         "the dressing denominator 2 F^2 eps0 hbar^2 c^3 Delta_mu "
                         "underflows", key)
    if key == "boundary_loss" and not 0.0 <= value < 1.0:
        raise InputError(f"field 'boundary_loss' must lie in [0, 1), got {value}", key)


def load_scenario(text: str) -> ScenarioConfig:
    """Parse a JSON scenario document; missing keys fall back to defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("scenario document must be a JSON object")

    unknown = set(doc) - set(_SCALAR_KEYS) - {"species"}
    if unknown:
        raise InputError(f"unknown scenario keys: {sorted(unknown)}")

    merged = dict(DEFAULTS)
    for key, raw in doc.items():
        if key == "species":
            continue
        merged[key] = _coerce_number(key, raw)

    for key in _CHECKED_KEYS:
        _check_scalar(key, merged[key])

    species = CESIUM
    if "species" in doc:
        block = doc["species"]
        if not isinstance(block, dict):
            raise InputError("field 'species' must be a JSON object", "species")
        unknown = set(block) - set(_SPECIES_KEYS)
        if unknown:
            raise InputError(f"unknown species keys: {sorted(unknown)}")
        overrides = {}
        for key, raw in block.items():
            field, conv = _SPECIES_KEYS[key]
            if key == "f_ground":
                if isinstance(raw, bool) or not isinstance(raw, int):
                    raise InputError(f"field 'f_ground' must be an integer, got {raw!r}", key)
                if raw < 1:
                    raise InputError(f"field 'f_ground' must be >= 1, got {raw}", key)
                if raw > F_GROUND_MAX:
                    raise InputError(
                        f"field 'f_ground' must be <= {F_GROUND_MAX}, got {raw}", key)
                overrides[field] = raw
            else:
                value = _coerce_number(key, raw)
                if key == "g_f" and abs(value * CODATA.mu_bohr) < sys.float_info.min:
                    # zeeman_pi_field converts a Larmor frequency to a field over g_F mu_B
                    raise InputError(f"field 'g_f' = {value:g} is out of range: the "
                                     "field denominator g_F mu_B underflows", key)
                if key == "spin_exchange_cross_section_m2" and value < 0.0:
                    raise InputError(f"field '{key}' must be non-negative, got {value}", key)
                overrides[field] = conv(value)
        species = CESIUM._replace(**overrides)
        for key in ("lambda_d1_m", "lambda_d2_m", "gamma_d1_hz", "gamma_d2_hz", "delta_hf_hz",
                    "delta2_hz", "doppler_halfwidth_hz", "mean_speed_m_s"):
            field = _SPECIES_KEYS[key][0]
            if getattr(species, field) <= 0.0:
                raise InputError(f"species field '{field}' must be positive", key)

    kwargs = {}
    for key, (field, conv) in _SCALAR_KEYS.items():
        kwargs[field] = conv(merged[key]) if conv is not float else merged[key]
    return ScenarioConfig(species=species, **kwargs)


def load_scenario_file(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def scenario_to_document(config: ScenarioConfig) -> dict:
    """Config back in document form (cyclic Hz), for editing and saving.

    Sweeps do not go through it: ``scenario_with`` replaces one field.
    """
    doc = {}
    for key, (fieldname, conv) in _SCALAR_KEYS.items():
        value = getattr(config, fieldname)
        doc[key] = angular_to_hz(value) if conv is hz_to_angular else value
    if config.species != CESIUM:
        block = {}
        for key, (fieldname, conv) in _SPECIES_KEYS.items():
            value = getattr(config.species, fieldname)
            block[key] = angular_to_hz(value) if conv is hz_to_angular else value
        doc["species"] = block
    return doc


def scenario_with(config: ScenarioConfig, key: str, value: float) -> ScenarioConfig:
    """Copy of ``config`` with one scalar document key replaced.

    ``key`` uses the document spelling (e.g. ``stark_detuning_hz``); the
    new value passes the same per-key checks as a loaded document, and
    every other field is kept as it is.
    """
    slot = _FIELD_SLOTS.get(key)
    if slot is None:
        raise InputError(
            f"unknown scenario key '{key}'; choose from {sorted(_SCALAR_KEYS)}")
    value = _coerce_number(key, value)
    _check_scalar(key, value)
    # ScenarioConfig checks nothing on construction, so _make skips no check;
    # it keeps type(config) and shares the species object
    index, conv = slot
    values = list(config)
    values[index] = conv(value)
    return type(config)._make(values)


@functools.cache
def default_scenario() -> ScenarioConfig:
    """The packaged cesium operating point (``DEFAULTS``).

    Built on the first call; ScenarioConfig is immutable, so every caller
    shares the one instance.
    """
    return load_scenario("{}")
