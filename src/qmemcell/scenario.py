"""Scenario configuration: operating point of the cell plus species data.

Config documents are JSON with frequencies given as cyclic Hz (the lab
convention); they are converted to angular rad/s on load.  Unknown keys
are rejected so typos fail loudly instead of silently using a default.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple

from .constants import CODATA, angular_to_hz, dressing_denominator, hz_to_angular


class InputError(ValueError):
    """A refused input.  ``keys`` names the document keys or library parameters
    refused together; it is empty where the document is not a JSON object or
    holds an unknown key, which leaves no value to correct."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


#: largest species f_ground: cesium's F = 4 is the largest integer ground F
#: of a stable alkali, and a ladder holds 2 f_ground spacings per mechanism
F_GROUND_MAX = 10


def _number(key: str, raw) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InputError(f"field '{key}' must be a number, got {raw!r}", key)
    value = float(raw)
    if not math.isfinite(value):
        raise InputError(f"field '{key}' must be finite, got {raw!r}", key)
    return value


class _Key(namedtuple("_Key", ("field", "unit", "default", "sign", "limit", "read"),
                      defaults=(None, None, None, _number))):
    """A document key: the config field it sets, its unit in the document and
    in messages ("Hz" is read as rad/s), its default (a species key's is
    cesium's), the sign its value must have (``_POSITIVE`` ...), its limit (a
    test that refuses a config value, and why) and the reader of its JSON value.
    A key read by ``_number`` is checked once its block is read; any other
    reader checks the value as it reads it."""

    __slots__ = ()

    def to_config(self, value):
        return hz_to_angular(value) if self.unit == "Hz" else value

    def to_document(self, value):
        return angular_to_hz(value) if self.unit == "Hz" else value


# A sign is (whether a document value has it, the refusal of one that lacks it).
_POSITIVE = (lambda v: v > 0.0, "field '{key}' must be positive, got {value}")
_NON_NEGATIVE = (lambda v: v >= 0.0, "field '{key}' must be non-negative, got {value}")
_NONZERO = (lambda v: v != 0.0, "field '{key}' must be nonzero (it appears in denominators)")
_LOSS = (lambda v: 0.0 <= v < 1.0, "field '{key}' must lie in [0, 1), got {value}")
_LINE_DATUM = (lambda v: v > 0.0, "species field '{field}' must be positive")


def _check(key: str, spec: _Key, value: float) -> float:
    """The config value of a document value, refused without its key's sign,
    then where it is not finite (a Hz value above about 2.86e307 overflows
    2 pi f), then past its key's limit."""
    if spec.sign and not spec.sign[0](value):
        raise InputError(spec.sign[1].format(key=key, field=spec.field, value=value), key)
    converted = spec.to_config(value)
    if not math.isfinite(converted):
        raise InputError(f"field '{key}' = {value:g} is out of range: the angular frequency "
                         "2 pi f overflows", key)
    if spec.limit and spec.limit[0](converted):
        raise InputError(f"field '{key}' = {value:g} is out of range: {spec.limit[1]}", key)
    return converted


def _checked_number(key: str, raw) -> float:
    value = _number(key, raw)
    _check(key, _SPECIES_KEYS[key], value)
    return value


def _ground_f(key: str, raw) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InputError(f"field '{key}' must be an integer, got {raw!r}", key)
    if raw < 1:
        raise InputError(f"field '{key}' must be >= 1, got {raw}", key)
    if raw > F_GROUND_MAX:
        raise InputError(f"field '{key}' must be <= {F_GROUND_MAX}, got {raw}", key)
    return raw


def _squares_to_inf(omega: float) -> bool:
    return not math.isfinite(omega * omega)


#: a wavelength's limit: its cube must be a normal float
_CUBE = (lambda length: not sys.float_info.min <= length * length * length < math.inf,
         "the cube lambda^3 underflows or overflows")


# Every document key, declared once.  Each block's fields, in this order, are those of its
# record (ScenarioConfig, SpeciesData); its defaults are the packaged cesium operating point.
# The microwave detuning is 120 Omega_B, ten times the ~12 Omega_B span of the m pairs'
# hyperfine transitions (linear Zeeman fan): the dressing is uniform.
_SCALAR_KEYS = {
    "omega_b_hz": _Key("omega_b", "Hz", 3.0e5, _NON_NEGATIVE,
                       (_squares_to_inf, "the quadratic Zeeman term omega_b^2 overflows")),
    "tau_s": _Key("pulse_duration", "s", 1.0e-3, _POSITIVE),
    # the collective coupling divides by 12 hbar^2 Delta (shifts.collective_kappa)
    "probe_detuning_hz": _Key("probe_detuning", "Hz", 7.0e8, _NONZERO, (
        lambda omega: 12.0 * CODATA.hbar**2 * omega == 0.0,
        "the coupling denominator hbar^2 Delta underflows to zero")),
    "stark_detuning_hz": _Key("stark_detuning", "Hz", 3.0e9, _NONZERO,
                              (_squares_to_inf,
                               "the Stark compensation term Delta_S^2 overflows")),
    # the dressing slope divides by 2 F^2 eps0 hbar^2 c^3 Delta_mu with F >= 1
    # (shifts.ac_zeeman_ladder); a subnormal one has lost its digits
    "microwave_detuning_hz": _Key("microwave_detuning", "Hz", 3.6e7, _NONZERO, (
        lambda omega: abs(dressing_denominator(1, omega)) < sys.float_info.min,
        "the dressing denominator 2 F^2 eps0 hbar^2 c^3 Delta_mu underflows")),
    "atom_number": _Key("atom_number", "", 1.0e12, _POSITIVE),
    "photon_number": _Key("photon_number", "", 1.0e12, _POSITIVE),
    "beam_area_m2": _Key("beam_area", "m^2", 2.0e-4, _POSITIVE),
    "atom_density_m3": _Key("atom_density", "m^-3", 2.5e16, _POSITIVE),
    "boundary_loss": _Key("boundary_loss", "", 0.01, _LOSS),
    "feedback_gain": _Key("feedback_gain", "", -1.0),
}
_SPECIES_KEYS = {
    # the D1 wavelength is cubed in the Stark formulas and the saturation
    # intensity, the D2 one in the dipole moment
    "lambda_d1_m": _Key("lambda_d1", "m", 894.6e-9, _LINE_DATUM, _CUBE),
    "lambda_d2_m": _Key("lambda_d2", "m", 852.3e-9, _LINE_DATUM, _CUBE),
    "gamma_d1_hz": _Key("gamma_d1", "Hz", 4.56e6, _LINE_DATUM),
    "gamma_d2_hz": _Key("gamma_d2", "Hz", 5.22e6, _LINE_DATUM),
    # the microwave compensation divides by Delta_hf mu_B^2
    # (shifts.ac_zeeman_compensation_intensity); a subnormal one has lost its digits
    "delta_hf_hz": _Key("delta_hf", "Hz", 9.19e9, _LINE_DATUM, (
        lambda omega: omega * CODATA.mu_bohr**2 < sys.float_info.min,
        "the compensation denominator Delta_hf mu_B^2 underflows")),
    "delta2_hz": _Key("delta2", "Hz", 1.168e9, _LINE_DATUM),
    "doppler_halfwidth_hz": _Key("doppler_halfwidth", "Hz", 1.90e8, _LINE_DATUM),
    "mean_speed_m_s": _Key("mean_speed", "m/s", 130.0, _LINE_DATUM),
    "spin_exchange_cross_section_m2": _Key("spin_exchange_cross_section", "m^2", 2.0e-18,
                                           _NON_NEGATIVE, read=_checked_number),
    "f_ground": _Key("f_ground", "", 4, read=_ground_f),
    # zeeman_pi_field converts a Larmor frequency to a field over g_F mu_B
    "g_f": _Key("g_f", "", 0.25, limit=(lambda g: abs(g * CODATA.mu_bohr) < sys.float_info.min,
                                        "the field denominator g_F mu_B underflows"),
                read=_checked_number),
}


class ScenarioConfig(namedtuple("ScenarioConfig", (
        *(spec.field for spec in _SCALAR_KEYS.values()), "species"))):
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


class SpeciesData(namedtuple("SpeciesData", (spec.field for spec in _SPECIES_KEYS.values()),
                             defaults=(spec.to_config(spec.default)
                                       for spec in _SPECIES_KEYS.values()))):
    """Line data for the alkali species filling the cell.

    Only the handful of cesium numbers the memory formulas need; pass a
    modified instance (``CESIUM._replace(f_ground=3)``, or the
    ``species`` block of a scenario file) to override any of them.

    Attributes
    ----------
    lambda_d1, lambda_d2 : m
        D1 and D2 transition wavelengths.
    gamma_d1, gamma_d2 : rad/s
        Natural linewidths of the two lines.
    delta_hf : rad/s
        Ground-state hyperfine splitting.
    delta2 : rad/s
        Hyperfine splitting of the D1 excited state.
    doppler_halfwidth : rad/s
        Half width (HWHM) of the Doppler profile at operating temperature.
    mean_speed : m/s
        Mean relative thermal speed entering the collision rate.
    spin_exchange_cross_section : m^2
    f_ground : total angular momentum of the populated ground manifold
    g_f : ground-state Lande factor (1/4 for cesium F = 4)
    """

    __slots__ = ()


CESIUM = SpeciesData()


#: documented defaults, in document units
DEFAULTS = {key: spec.default for key, spec in _SCALAR_KEYS.items()}
#: the scalar keys, sorted: what ``scenario_with`` and a sweep replace
SCALAR_KEYS = tuple(sorted(_SCALAR_KEYS))
#: every key of a scenario document: the scalar keys, "species" and the species keys
DOCUMENT_KEYS = frozenset((*_SCALAR_KEYS, "species", *_SPECIES_KEYS))
#: scalar key -> (index of its ScenarioConfig field, declaration)
_SLOTS = {key: (ScenarioConfig._fields.index(spec.field), spec)
          for key, spec in _SCALAR_KEYS.items()}
#: config field -> (document key, declaration), both blocks
_FIELD_KEYS = {spec.field: (key, spec)
               for keys in (_SCALAR_KEYS, _SPECIES_KEYS) for key, spec in keys.items()}
_DEFAULT = ScenarioConfig(*(spec.to_config(spec.default) for spec in _SCALAR_KEYS.values()),
                          CESIUM)
#: each block's keys that are checked once the block is read, in the order
#: their refusals are reported: positivity first, then declaration order
_SCALAR_CHECKS, _SPECIES_CHECKS = (
    tuple(sorted(((key, spec) for key, spec in keys.items() if spec.read is _number),
                 key=lambda item: item[1].sign is not _POSITIVE))
    for keys in (_SCALAR_KEYS, _SPECIES_KEYS))


def refusal(predicate: str, **fields) -> InputError:
    """InputError for config ``fields`` (name=value, rad/s frequencies) refused
    together: ``field 'k' = v U`` or ``fields 'k' = v U, ... and 'k' = v U`` in
    document keys and units, then ``predicate``; its keys are those keys."""
    keys, terms = [], []
    for field, value in fields.items():
        key, spec = _FIELD_KEYS[field]
        keys.append(key)
        terms.append(f"'{key}' = {spec.to_document(value):g}{' ' if spec.unit else ''}{spec.unit}")
    named = terms[0] if len(terms) == 1 else f"{', '.join(terms[:-1])} and {terms[-1]}"
    return InputError(f"field{'s' if len(terms) > 1 else ''} {named} {predicate}", *keys)


def _read(block: dict, keys: dict, checks: tuple, name: str) -> dict:
    """Config field -> value of one block: each value read in document order,
    then checked in the order of ``checks``, (key, declaration) pairs."""
    unknown = block.keys() - keys.keys()
    if unknown:
        raise InputError(f"unknown {name} keys: {sorted(unknown)}")
    values = {key: keys[key].read(key, raw) for key, raw in block.items()}
    fields = {spec.field: _check(key, spec, values.pop(key))
              for key, spec in checks if key in values}
    fields.update((keys[key].field, keys[key].to_config(value)) for key, value in values.items())
    return fields


def load_scenario(text: str) -> ScenarioConfig:
    """Parse a JSON scenario document; missing keys fall back to defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("scenario document must be a JSON object")
    fields = _read({key: raw for key, raw in doc.items() if key != "species"},
                   _SCALAR_KEYS, _SCALAR_CHECKS, "scenario")
    if "species" in doc:
        block = doc["species"]
        if not isinstance(block, dict):
            raise InputError("field 'species' must be a JSON object", "species")
        fields["species"] = CESIUM._replace(
            **_read(block, _SPECIES_KEYS, _SPECIES_CHECKS, "species"))
    return _DEFAULT._replace(**fields)


def load_scenario_file(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def scenario_to_document(config: ScenarioConfig) -> dict:
    """Config back in document form (cyclic Hz), for editing and saving.

    Sweeps do not go through it: ``scenario_with`` replaces one field.
    """
    doc = {key: spec.to_document(getattr(config, spec.field))
           for key, spec in _SCALAR_KEYS.items()}
    if config.species != CESIUM:
        doc["species"] = {key: spec.to_document(getattr(config.species, spec.field))
                          for key, spec in _SPECIES_KEYS.items()}
    return doc


def scenario_with(config: ScenarioConfig, key: str, value: float) -> ScenarioConfig:
    """Copy of ``config`` with one scalar document key replaced.

    ``key`` uses the document spelling (e.g. ``stark_detuning_hz``); the
    new value passes the same per-key checks as a loaded document, and
    every other field is kept as it is.
    """
    slot = _SLOTS.get(key)
    if slot is None:
        raise InputError(f"unknown scenario key '{key}'; choose from {list(SCALAR_KEYS)}")
    index, spec = slot
    converted = _check(key, spec, spec.read(key, value))
    # ScenarioConfig checks nothing on construction, so _make skips no check;
    # it keeps type(config) and shares the species object
    values = list(config)
    values[index] = converted
    return type(config)._make(values)


def default_scenario() -> ScenarioConfig:
    """The packaged cesium operating point (``DEFAULTS``); ScenarioConfig is
    immutable, so every caller shares the one instance."""
    return _DEFAULT
