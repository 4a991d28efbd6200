"""Desk-scale simulator and parameter engine for a single-cell atomic
quantum memory for light.

The package splits into a parameter side (level-shift ladders, slope
compensation, pi pulses, decoherence budgets, optical pumping) and a
Gaussian-dynamics side (symplectic pass interactions, homodyne plus
feedback write/read protocol).  ``qmemcell.cli`` exposes both on the
command line.

The exports below load their submodule on first access (PEP 562), so
``import qmemcell`` and the parameter side run without numpy; only the
Gaussian side (``gaussian``, ``memory``, ``pumping``) imports it.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it, in the order of __all__
_EXPORTS = {
    "CODATA": "constants", "PhysicalConstants": "constants", "dipole_moment_squared": "constants",
    "saturation_intensity": "constants", "vacuum_field_squared": "constants",
    "DecoherenceBudget": "decoherence", "boundary_transmission": "decoherence",
    "doppler_averaged_scattering": "decoherence",
    "residual_pump_occupation": "decoherence", "scattered_photon_limit": "decoherence",
    "scattering_rate": "decoherence", "spin_exchange_probability": "decoherence",
    "stark_pi_scattered_photons": "decoherence",
    "GaussianChannel": "gaussian", "GaussianState": "gaussian",
    "VACUUM_VARIANCE": "gaussian", "attenuation_channel": "gaussian",
    "displace": "gaussian", "memory_vacuum": "gaussian", "symplectic_form": "gaussian",
    "vacuum_state": "gaussian", "CouplingSet": "shifts", "ProtocolResult": "memory",
    "collective_kappa": "shifts", "differential_rotation": "memory", "qnd_transform": "memory",
    "run_read": "memory", "run_write": "memory",
    "PumpLevelSystem": "pumping", "pumping_history": "pumping", "rate_matrix": "pumping",
    "state_index": "pumping", "uniform_f4_system": "pumping", "CESIUM": "scenario",
    "InputError": "scenario", "ScenarioConfig": "scenario", "SpeciesData": "scenario",
    "default_scenario": "scenario", "load_scenario": "scenario",
    "load_scenario_file": "scenario", "scenario_with": "scenario", "ShiftLadder": "shifts",
    "ac_zeeman_compensation_intensity": "shifts", "ac_zeeman_ladder": "shifts",
    "class_dephasing": "shifts", "microwave_pi_intensity": "shifts",
    "stark_compensation_intensity": "shifts", "stark_ladder": "shifts",
    "stark_pi_intensity": "shifts", "zeeman_ladder": "shifts",
    "zeeman_pi_field": "shifts", "zeeman_pi_omega_b": "shifts",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
