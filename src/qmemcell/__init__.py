"""Desk-scale simulator and parameter engine for a single-cell atomic
quantum memory for light.

The package splits into a parameter side (level-shift ladders, slope
compensation, pulse designs, decoherence budgets, optical pumping) and a
Gaussian-dynamics side (symplectic pass interactions, homodyne plus
feedback write/read protocol).  ``qmemcell.cli`` exposes both on the
command line.
"""

from .constants import (CESIUM, CODATA, PhysicalConstants, SpeciesData,
                        dipole_moment_squared, saturation_intensity,
                        vacuum_field_squared)
from .decoherence import (DecoherenceBudget, boundary_loss_budget,
                          boundary_loss_channel, doppler_averaged_scattering,
                          residual_pump_occupation, scattered_photon_limit,
                          scattering_channel, scattering_rate,
                          spin_exchange_channel, spin_exchange_probability)
from .gaussian import (BASIS_CLASS, BASIS_PLUS_MINUS, GaussianChannel,
                       GaussianState, SymplecticTransform, VACUUM_VARIANCE,
                       apply_symplectic, attenuation_channel, displace,
                       hamiltonian_to_symplectic, homodyne_condition,
                       memory_vacuum, rotate_mode, state_from_json,
                       state_to_json, symplectic_channel, symplectic_form,
                       vacuum_state)
from .memory import (CouplingSet, ProtocolResult, atomic_basis_change,
                     collective_kappa, common_weak_rotation, coupling_g,
                     differential_rotation, mean_fidelity, qnd_transform,
                     run_read, run_write)
from .pumping import (PumpLevelSystem, evolve_pumping, pumping_history,
                      rate_matrix, state_index, uniform_f4_system)
from .scenario import (ScenarioConfig, ScenarioError, default_scenario,
                       load_scenario, load_scenario_file, scenario_with)
from .shifts import (PulseDesign, ShiftLadder, ac_zeeman_compensation_intensity,
                     ac_zeeman_ladder, class_dephasing, microwave_detuning_default,
                     microwave_pi_pulse, stark_compensation_intensity,
                     stark_ladder, stark_pi_pulse, zeeman_ladder, zeeman_pi_pulse)

__version__ = "0.1.0"

__all__ = [
    "CESIUM", "CODATA", "PhysicalConstants", "SpeciesData",
    "dipole_moment_squared", "saturation_intensity", "vacuum_field_squared",
    "DecoherenceBudget", "boundary_loss_budget", "boundary_loss_channel",
    "doppler_averaged_scattering", "residual_pump_occupation",
    "scattered_photon_limit", "scattering_channel", "scattering_rate",
    "spin_exchange_channel", "spin_exchange_probability",
    "BASIS_CLASS", "BASIS_PLUS_MINUS", "GaussianChannel", "GaussianState",
    "SymplecticTransform", "VACUUM_VARIANCE", "apply_symplectic",
    "attenuation_channel", "displace", "hamiltonian_to_symplectic",
    "homodyne_condition", "memory_vacuum", "rotate_mode", "state_from_json",
    "state_to_json", "symplectic_channel", "symplectic_form", "vacuum_state",
    "CouplingSet", "ProtocolResult", "atomic_basis_change", "collective_kappa",
    "common_weak_rotation", "coupling_g", "differential_rotation",
    "mean_fidelity", "qnd_transform", "run_read", "run_write",
    "PumpLevelSystem", "evolve_pumping", "pumping_history", "rate_matrix",
    "state_index", "uniform_f4_system",
    "ScenarioConfig", "ScenarioError", "default_scenario", "load_scenario",
    "load_scenario_file", "scenario_with",
    "PulseDesign", "ShiftLadder", "ac_zeeman_compensation_intensity",
    "ac_zeeman_ladder", "class_dephasing", "microwave_detuning_default",
    "microwave_pi_pulse", "stark_compensation_intensity", "stark_ladder",
    "stark_pi_pulse", "zeeman_ladder", "zeeman_pi_pulse",
]
