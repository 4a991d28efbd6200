"""Report rows and renderers for the command-line front end.

Every subcommand reduces to a list of :class:`ReportRow`; the renderers
turn those into CSV, a fixed-width table, or JSON.  Floats are emitted
with ``repr`` in the machine formats so values survive a round trip
within 1e-12.  Display units follow the usual lab conventions
(mW/cm^2, W/cm^2, Gauss, mrad) rather than raw SI.

Only the protocol and pumping rows need numpy; their builders import
the numpy modules (``gaussian``, ``memory``, ``pumping``) when called,
so the scalar reports run without it.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

from .constants import TWO_PI, tesla_to_gauss, w_m2_to_mw_cm2, w_m2_to_w_cm2
from .decoherence import (DecoherenceBudget, boundary_loss_budget,
                          doppler_averaged_scattering, residual_pump_occupation,
                          scattered_photon_limit, spin_exchange_probability)
from .scenario import ScenarioConfig
from .shifts import (MECH_AC_ZEEMAN, MECH_STARK, MECH_ZEEMAN,
                     ac_zeeman_compensation_intensity, ac_zeeman_ladder,
                     class_dephasing, collective_k_eff, collective_kappa,
                     microwave_pi_pulse, stark_compensation_intensity, stark_ladder,
                     stark_pi_pulse, zeeman_ladder, zeeman_pi_pulse)

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"

#: pulse duration of the fast-gate designs in the reference check
PI_PULSE_TAU = 30.0e-6

#: weak-field operating point of the reference check
WEAK_OMEGA_B = TWO_PI * 50.0e3

CSV_COLUMNS = ("name", "value", "unit", "reference", "rel_dev",
               "low", "high", "status")


class _Factory:
    """Default of a field that gets a fresh value per instance."""

    def __repr__(self):
        return "<factory>"


_FACTORY = _Factory()


@dataclass(frozen=True, init=False)
class ReportRow:
    """One reported quantity, optionally checked against a reference.

    rel_dev is the signed relative deviation from the reference and is
    present exactly when a reference is; status carries PASS/FAIL for
    windowed checks.  extras holds named sub-values that take part in
    the status but are only shown in the JSON rendering.

    ``__init__`` takes the arguments of the generated one and writes the
    instance dict once, not once per field: a sweep builds a row per
    point.  ``dataclasses.replace`` goes through it, so it recomputes
    rel_dev.
    """

    name: str
    value: float
    unit: str
    reference: float | None = None
    rel_dev: float | None = field(default=None, init=False)
    low: float | None = None
    high: float | None = None
    status: str | None = None
    extras: dict[str, float] = field(default_factory=dict)

    def __init__(self, name: str, value: float, unit: str,
                 reference: float | None = None, low: float | None = None,
                 high: float | None = None, status: str | None = None,
                 extras: dict[str, float] = _FACTORY) -> None:
        self.__dict__.update(
            name=name, value=value, unit=unit, reference=reference,
            rel_dev=None if reference is None else (value - reference) / abs(reference),
            low=low, high=high, status=status,
            extras={} if extras is _FACTORY else extras)


def in_window(value: float, low: float, high: float) -> bool:
    return low <= value <= high


def _checked(name: str, value: float, unit: str, reference: float,
             low: float, high: float, extra_ok: bool = True,
             extras: dict[str, float] | None = None) -> ReportRow:
    ok = in_window(value, low, high) and extra_ok
    return ReportRow(name=name, value=value, unit=unit, reference=reference,
                     low=low, high=high,
                     status=STATUS_PASS if ok else STATUS_FAIL,
                     extras=extras or {})


# ---------------------------------------------------------------------------
# renderers


def _fmt_machine(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: list[ReportRow]) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        cells = [row.name, _fmt_machine(row.value), row.unit,
                 _fmt_machine(row.reference), _fmt_machine(row.rel_dev),
                 _fmt_machine(row.low), _fmt_machine(row.high),
                 row.status or ""]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def render_table(rows: list[ReportRow]) -> str:
    header = ["quantity", "value", "unit", "reference", "rel dev", "window", "status"]
    body = []
    for row in rows:
        window = ""
        if row.low is not None and row.high is not None:
            window = f"[{row.low:.6g}, {row.high:.6g}]"
        body.append([
            row.name,
            f"{row.value:.6g}",
            row.unit,
            "" if row.reference is None else f"{row.reference:.6g}",
            "" if row.rel_dev is None else f"{row.rel_dev:+.2%}",
            window,
            row.status or "",
        ])
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_json(rows: list[ReportRow]) -> str:
    docs = []
    for row in rows:
        doc = {"name": row.name, "value": row.value, "unit": row.unit}
        if row.reference is not None:
            doc["reference"] = row.reference
            doc["rel_dev"] = row.rel_dev
        if row.low is not None:
            doc["low"] = row.low
        if row.high is not None:
            doc["high"] = row.high
        if row.status is not None:
            doc["status"] = row.status
        if row.extras:
            doc["extras"] = dict(sorted(row.extras.items()))
        docs.append(doc)
    return json.dumps(docs, indent=2) + "\n"


RENDERERS = {"csv": render_csv, "table": render_table, "json": render_json}


def render_rows(rows: list[ReportRow], fmt: str) -> str:
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; choose from {sorted(RENDERERS)}")
    return renderer(rows)


# ---------------------------------------------------------------------------
# subcommand row builders


def shifts_rows(config: ScenarioConfig) -> list[ReportRow]:
    """Ladder tables of all three mechanisms at the configured point.

    The light and microwave ladders are evaluated at their slope
    compensation intensities, so the composite rows directly show the
    cancellation of the magnetic ladder.
    """
    sp = config.species
    zee = zeeman_ladder(config.omega_b, sp)
    i_s = stark_compensation_intensity(config.omega_b, config.stark_detuning, sp)
    sta = stark_ladder(i_s, config.stark_detuning, sp)
    i_mu = ac_zeeman_compensation_intensity(config.omega_b, config.microwave_detuning, sp)
    acz = ac_zeeman_ladder(i_mu, config.microwave_detuning, sp)
    rows = []
    for mech, ladder in ((MECH_ZEEMAN, zee), (MECH_STARK, sta),
                         (MECH_AC_ZEEMAN, acz), ("composite_zeeman_stark", zee + sta)):
        for m in sorted(ladder.omegas):
            rows.append(ReportRow(name=f"{mech}[m={m}]",
                                  value=ladder.omegas[m] / TWO_PI, unit="Hz"))
    return rows


def compensate_rows(config: ScenarioConfig) -> list[ReportRow]:
    sp = config.species
    i_s = stark_compensation_intensity(config.omega_b, config.stark_detuning, sp)
    i_mu = ac_zeeman_compensation_intensity(config.omega_b, config.microwave_detuning, sp)
    zee = zeeman_ladder(config.omega_b, sp)
    sta = stark_ladder(i_s, config.stark_detuning, sp)
    acz = ac_zeeman_ladder(i_mu, config.microwave_detuning, sp)
    return [
        ReportRow("stark_compensation_intensity", w_m2_to_mw_cm2(i_s), "mW/cm^2"),
        ReportRow("ac_zeeman_compensation_intensity", w_m2_to_w_cm2(i_mu), "W/cm^2"),
        ReportRow("zeeman_ladder_spread", zee.spread() / TWO_PI, "Hz"),
        ReportRow("compensated_stark_spread", (zee + sta).spread() / TWO_PI, "Hz"),
        ReportRow("compensated_ac_zeeman_spread", (zee + acz).spread() / TWO_PI, "Hz"),
    ]


def pulse_design_rows(config: ScenarioConfig, tau: float) -> list[ReportRow]:
    sp = config.species
    zee = zeeman_pi_pulse(tau, sp)
    sta = stark_pi_pulse(tau, config.stark_detuning, sp)
    mic = microwave_pi_pulse(tau, config.microwave_detuning, sp)
    return [
        ReportRow("zeeman_pi_omega_b", zee.omega_b / TWO_PI / 1e6, "MHz"),
        ReportRow("zeeman_pi_field", tesla_to_gauss(zee.required_field), "G"),
        ReportRow("stark_pi_intensity", w_m2_to_mw_cm2(sta.required_intensity), "mW/cm^2"),
        ReportRow("stark_pi_scattered_photons", sta.scattered_photons, "1"),
        ReportRow("microwave_pi_intensity", w_m2_to_w_cm2(mic.required_intensity), "W/cm^2"),
        ReportRow("pulse_duration", tau * 1e6, "us"),
    ]


def decoherence_rows(config: ScenarioConfig) -> list[ReportRow]:
    sp = config.species
    budget = DecoherenceBudget.from_scenario(config)
    bl = boundary_loss_budget(config.boundary_loss, budget.n_boundaries)
    return [
        ReportRow("spin_exchange_eta", budget.eta, "1"),
        ReportRow("doppler_scattering_rate", budget.gamma_ph, "1/s"),
        ReportRow("scattered_photons_per_pulse", budget.n_phot, "1"),
        ReportRow("boundary_transmission", bl.transmission, "1"),
        ReportRow("boundary_added_vacuum", bl.added_vacuum_fraction, "1"),
        ReportRow("residual_pump_occupation", residual_pump_occupation(sp), "1"),
        ReportRow("scattered_photon_floor", scattered_photon_limit(sp), "1"),
    ]


def pump_rows(pump_rate: float, repump_rate: float, dt: float,
              steps: int, n_checkpoints: int = 5) -> list[ReportRow]:
    from .pumping import DARK_INDICES, pumping_history, uniform_f4_system
    system = uniform_f4_system(pump_rate, repump_rate)
    record_every = max(1, steps // max(1, n_checkpoints))
    times, pops = pumping_history(system, dt, steps, record_every)
    lo, hi = DARK_INDICES
    rows = []
    for t, row in zip(times, pops):
        dark = float(row[lo] + row[hi])
        rows.append(ReportRow(name=f"dark_fraction[t={t:.6g}s]", value=dark, unit="1"))
    final = pops[-1]
    rows.append(ReportRow("dark_minus_edge", float(final[lo]), "1"))
    rows.append(ReportRow("dark_plus_edge", float(final[hi]), "1"))
    rows.append(ReportRow("total_population", float(final.sum()), "1"))
    return rows


def memory_sim_rows(config: ScenarioConfig, seed: int | None = None,
                    k_eff: float = 1.0,
                    gain: float | None = None) -> list[ReportRow]:
    """Write-then-read run under the configured decoherence budget.

    The protocol runs at the given pass strength (default: the
    canonical unit pass, where the configured feedback gain -1 is
    matched); the coupling the configured cell would actually reach is
    reported alongside, so off-canonical runs can pass it back in via
    ``k_eff``.
    """
    from .gaussian import POLICY_MEAN, POLICY_SAMPLE
    from .memory import run_read, run_write
    coupling = collective_kappa(config)
    budget = DecoherenceBudget.from_scenario(config)
    policy = POLICY_MEAN if seed is None else POLICY_SAMPLE
    if gain is None:
        gain = config.feedback_gain
    write = run_write(k_eff, gain=gain, budget=budget,
                      policy=policy, seed=seed)
    read = run_read(k_eff, state=write.state, gain=gain, budget=budget,
                    policy=policy, seed=None if seed is None else seed + 1)
    rows = [
        ReportRow("configured_kappa", coupling.kappa_per_s, "1/s"),
        ReportRow("configured_k_eff", coupling.k_eff, "1"),
        ReportRow("protocol_k_eff", k_eff, "1"),
        ReportRow("protocol_gain", gain, "1"),
        ReportRow("spin_exchange_eta", budget.eta, "1"),
        ReportRow("scattered_photons_per_pulse", budget.n_phot, "1"),
        ReportRow("write_mean_fidelity", write.mean_fidelity, "1"),
        ReportRow("read_mean_fidelity", read.mean_fidelity, "1"),
    ]
    labels = ("x_plus", "p_plus", "x_minus", "p_minus")
    for lab, noise in zip(labels, write.added_noise):
        rows.append(ReportRow(f"write_added_noise[{lab}]", float(noise), "vac/2"))
    labels = ("x_c", "p_c", "x_s", "p_s")
    for lab, noise in zip(labels, read.added_noise):
        rows.append(ReportRow(f"read_added_noise[{lab}]", float(noise), "vac/2"))
    for key, val in sorted(write.measurements.items()):
        rows.append(ReportRow(f"write_outcome[{key}]", val, "1"))
    for key, val in sorted(read.measurements.items()):
        rows.append(ReportRow(f"read_outcome[{key}]", val, "1"))
    return rows


# ---------------------------------------------------------------------------
# the twelve-quantity reference check


def paper_check_rows(config: ScenarioConfig) -> list[ReportRow]:
    """Evaluate the twelve benchmark quantities against their windows.

    Rows with several bound sub-quantities (the magnetic pi pulse, the
    light pi pulse, the scattering floor) fold the companion value into
    the status and expose it under extras.
    """
    sp = config.species
    rows = []

    # 1. splitting dephasing across the ladder at the slow operating point
    phase = class_dephasing(config.omega_b, config.pulse_duration, sp)
    rows.append(_checked("zeeman_dephasing_phase", phase / math.pi, "pi rad",
                         reference=0.3, low=0.25, high=0.31))

    # 2. the same figure at the weak-field point, in milliradian
    weak = class_dephasing(WEAK_OMEGA_B, config.pulse_duration, sp)
    rows.append(_checked("weak_field_dephasing", weak * 1e3, "mrad",
                         reference=20.0, low=10.0, high=30.0))

    # 3. light-shift compensation intensity
    i_s = stark_compensation_intensity(config.omega_b, config.stark_detuning, sp)
    rows.append(_checked("stark_compensation_intensity", w_m2_to_mw_cm2(i_s),
                         "mW/cm^2", reference=1.0, low=0.9, high=1.3))

    # 4. scattering of that light, Doppler averaged; the configured width
    # must land in the window whether read as a HWHM or as a sigma
    center = abs(config.stark_detuning) - sp.delta2 / 2.0
    rate_hwhm = doppler_averaged_scattering(i_s, center, sp.doppler_halfwidth,
                                            width_convention="hwhm")
    rate_sigma = doppler_averaged_scattering(i_s, center, sp.doppler_halfwidth,
                                             width_convention="sigma")
    rows.append(_checked("doppler_scattering_rate", rate_hwhm, "1/s",
                         reference=18.0, low=10.8, high=25.2,
                         extra_ok=in_window(rate_sigma, 10.8, 25.2),
                         extras={"sigma_convention_rate": rate_sigma}))

    # 5. microwave-shift compensation intensity
    i_mu = ac_zeeman_compensation_intensity(config.omega_b,
                                            config.microwave_detuning, sp)
    rows.append(_checked("ac_zeeman_compensation_intensity", w_m2_to_w_cm2(i_mu),
                         "W/cm^2", reference=1.4, low=1.3, high=1.5))

    # 6. fast magnetic gate: splitting and field
    zee = zeeman_pi_pulse(PI_PULSE_TAU, sp)
    omega_mhz = zee.omega_b / TWO_PI / 1e6
    field_g = tesla_to_gauss(zee.required_field)
    rows.append(_checked("zeeman_pi_field", field_g, "G",
                         reference=8.8, low=8.4, high=9.2,
                         extra_ok=in_window(omega_mhz, 3.0, 3.4),
                         extras={"omega_b_mhz": omega_mhz}))

    # 7. fast light gate: intensity and scattering cost
    sta = stark_pi_pulse(PI_PULSE_TAU, config.stark_detuning, sp)
    rows.append(_checked("stark_pi_intensity", w_m2_to_mw_cm2(sta.required_intensity),
                         "mW/cm^2", reference=135.0, low=120.0, high=155.0,
                         extra_ok=in_window(sta.scattered_photons, 0.04, 0.08),
                         extras={"scattered_photons": sta.scattered_photons}))

    # 8. detuning-independent scattering floor and convergence toward it
    floor = scattered_photon_limit(sp)
    far = stark_pi_pulse(PI_PULSE_TAU, 30.0 * sp.delta2, sp)
    far_ratio = far.scattered_photons / floor
    rows.append(_checked("scattered_photon_floor", floor, "1",
                         reference=0.04, low=0.038, high=0.046,
                         extra_ok=in_window(far_ratio, 0.9, 1.1),
                         extras={"far_detuned_ratio": far_ratio}))

    # 9. fast microwave gate
    mic = microwave_pi_pulse(PI_PULSE_TAU, config.microwave_detuning, sp)
    rows.append(_checked("microwave_pi_intensity", w_m2_to_w_cm2(mic.required_intensity),
                         "W/cm^2", reference=170.0, low=160.0, high=180.0))

    # 10. spin-exchange collision probability over one pulse
    eta = spin_exchange_probability(config.pulse_duration, sp,
                                    density=config.atom_density)
    rows.append(_checked("spin_exchange_eta", eta, "1",
                         reference=6.5e-3, low=6.5e-3 * 0.99, high=6.5e-3 * 1.01))

    # 11. residual excited-state occupation under continuous pumping
    occ = residual_pump_occupation(sp)
    rows.append(_checked("residual_pump_occupation", occ, "1",
                         reference=1.0e-3, low=3.0e-4, high=3.0e-3))

    # 12. window-loss noise, four crossings against two
    four = boundary_loss_budget(config.boundary_loss, 4).added_vacuum_fraction
    two = boundary_loss_budget(config.boundary_loss, 2).added_vacuum_fraction
    ratio = four / two
    rows.append(_checked("boundary_noise_ratio", ratio, "1",
                         reference=2.0, low=1.9, high=2.0))

    return rows


# ---------------------------------------------------------------------------
# sweep registry


def _q_stark_intensity(config: ScenarioConfig) -> float:
    return w_m2_to_mw_cm2(stark_compensation_intensity(
        config.omega_b, config.stark_detuning, config.species))


def _q_ac_zeeman_intensity(config: ScenarioConfig) -> float:
    return w_m2_to_w_cm2(ac_zeeman_compensation_intensity(
        config.omega_b, config.microwave_detuning, config.species))


def _q_dephasing(config: ScenarioConfig) -> float:
    return class_dephasing(config.omega_b, config.pulse_duration,
                           config.species) / math.pi


def _q_scattering(config: ScenarioConfig) -> float:
    sp = config.species
    i_s = stark_compensation_intensity(config.omega_b, config.stark_detuning, sp)
    return doppler_averaged_scattering(
        i_s, abs(config.stark_detuning) - sp.delta2 / 2.0, sp.doppler_halfwidth)


def _q_eta(config: ScenarioConfig) -> float:
    return spin_exchange_probability(config.pulse_duration, config.species,
                                     density=config.atom_density)


def _q_k_eff(config: ScenarioConfig) -> float:
    return collective_k_eff(config)


SWEEP_QUANTITIES = {
    "stark_compensation_intensity": (_q_stark_intensity, "mW/cm^2"),
    "ac_zeeman_compensation_intensity": (_q_ac_zeeman_intensity, "W/cm^2"),
    "zeeman_dephasing": (_q_dephasing, "pi rad"),
    "doppler_scattering_rate": (_q_scattering, "1/s"),
    "spin_exchange_eta": (_q_eta, "1"),
    "k_eff": (_q_k_eff, "1"),
}
