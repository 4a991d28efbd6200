"""Desk-scale simulator and parameter engine for a single-cell atomic
quantum memory for light.

The package splits into a parameter side (level-shift ladders, slope
compensation, pulse designs, decoherence budgets, optical pumping) and a
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
    "CESIUM": "constants", "CODATA": "constants", "PhysicalConstants": "constants",
    "SpeciesData": "constants", "dipole_moment_squared": "constants",
    "saturation_intensity": "constants", "vacuum_field_squared": "constants",
    "DecoherenceBudget": "decoherence", "boundary_loss_budget": "decoherence",
    "boundary_loss_channel": "memory", "doppler_averaged_scattering": "decoherence",
    "residual_pump_occupation": "decoherence", "scattered_photon_limit": "decoherence",
    "scattering_channel": "memory", "scattering_rate": "decoherence",
    "spin_exchange_channel": "memory", "spin_exchange_probability": "decoherence",
    "BASIS_CLASS": "gaussian", "BASIS_PLUS_MINUS": "gaussian",
    "GaussianChannel": "gaussian", "GaussianState": "gaussian",
    "VACUUM_VARIANCE": "gaussian", "attenuation_channel": "gaussian",
    "displace": "gaussian", "hamiltonian_to_symplectic": "gaussian",
    "memory_vacuum": "gaussian", "symplectic_form": "gaussian",
    "vacuum_state": "gaussian", "CouplingSet": "shifts", "ProtocolResult": "memory",
    "collective_kappa": "shifts", "coupling_g": "shifts", "differential_rotation": "memory",
    "mean_fidelity": "memory", "qnd_transform": "memory", "run_read": "memory",
    "run_write": "memory", "PumpLevelSystem": "pumping", "evolve_pumping": "pumping",
    "pumping_history": "pumping", "rate_matrix": "pumping", "state_index": "pumping",
    "uniform_f4_system": "pumping", "ScenarioConfig": "scenario",
    "ScenarioError": "scenario", "default_scenario": "scenario",
    "load_scenario": "scenario", "load_scenario_file": "scenario",
    "scenario_with": "scenario", "PulseDesign": "shifts", "ShiftLadder": "shifts",
    "ac_zeeman_compensation_intensity": "shifts", "ac_zeeman_ladder": "shifts",
    "class_dephasing": "shifts", "microwave_detuning_default": "shifts",
    "microwave_pi_pulse": "shifts", "stark_compensation_intensity": "shifts",
    "stark_ladder": "shifts", "stark_pi_pulse": "shifts", "zeeman_ladder": "shifts",
    "zeeman_pi_pulse": "shifts",
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
