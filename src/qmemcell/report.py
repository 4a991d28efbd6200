"""Report rows and renderers for the command-line front end.

Every subcommand reduces to a list of :class:`ReportRow`; the renderers
turn those into CSV, a fixed-width table, or JSON.  Floats are emitted
with ``repr`` in the machine formats so values survive a round trip
within 1e-12.  The JSON text is byte for byte what
``json.dumps(docs, indent=2)`` gives (ASCII-escaped strings, ``NaN`` and
``Infinity`` tokens, extras in sorted key order), but is written here
leaf by leaf: with an indent, json runs its pure-Python encoder, which
cost more than computing the rows.  Display units follow the usual lab
conventions (mW/cm^2, W/cm^2, Gauss, mrad) rather than raw SI.

Only the protocol and pumping rows need numpy; their builders import
the numpy modules (``gaussian``, ``memory``, ``pumping``) when called,
so the scalar reports run without it.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from json.encoder import encode_basestring_ascii

from .constants import TWO_PI, tesla_to_gauss, w_m2_to_mw_cm2, w_m2_to_w_cm2
from .decoherence import (WIDTH_HWHM, WIDTH_SIGMA, DecoherenceBudget,
                          boundary_transmission, compensation_scattering_rate,
                          doppler_averaged_scattering, residual_pump_occupation,
                          scattered_photon_limit, scattered_photons_per_pulse,
                          spin_exchange_probability, stark_pi_scattered_photons)
from .scenario import CESIUM, InputError, ScenarioConfig, refusal
from .shifts import (ac_zeeman_compensation_intensity, ac_zeeman_ladder,
                     class_dephasing, collective_kappa, microwave_pi_intensity,
                     stark_compensation_intensity, stark_ladder, stark_pi_intensity,
                     zeeman_ladder, zeeman_pi_field, zeeman_pi_omega_b)

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"

#: pulse duration of the fast-gate designs in the reference check
PI_PULSE_TAU = 30.0e-6

#: weak-field operating point of the reference check
WEAK_OMEGA_B = TWO_PI * 50.0e3

#: a pump report records the dark fraction every max(1, steps // PUMP_CHECKPOINTS) spacings
PUMP_CHECKPOINTS = 5

CSV_COLUMNS = ("name", "value", "unit", "reference", "rel_dev",
               "low", "high", "status")


class ReportRow(namedtuple("ReportRow", ("name", "value", "unit", "reference", "low", "high",
                                         "status", "extras"), defaults=(None,) * 5)):
    """One reported quantity, optionally checked against a reference.

    status carries PASS/FAIL for windowed checks.  extras holds named
    sub-values that take part in the status but are only shown in the
    JSON rendering.
    """

    __slots__ = ()

    @property
    def rel_dev(self) -> float | None:
        """Signed relative deviation from the reference; None without one."""
        reference = self.reference
        return None if reference is None else (self.value - reference) / abs(reference)


def in_window(value: float, low: float, high: float) -> bool:
    return low <= value <= high


# ---------------------------------------------------------------------------
# renderers


def _fmt_machine(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: list[ReportRow]) -> str:
    m = _fmt_machine
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for row in rows:
        name, value, unit, reference, low, high, status, _ = row
        if reference is None and low is None and high is None:
            lines.append(f"{name},{m(value)},{unit},,,,,{status or ''}\n")
        else:
            lines.append(f"{name},{m(value)},{unit},{m(reference)},{m(row.rel_dev)},"
                         f"{m(low)},{m(high)},{status or ''}\n")
    return "".join(lines)


_TABLE_HEADER = ("quantity", "value", "unit", "reference", "rel dev", "window", "status")


def render_table(rows: list[ReportRow]) -> str:
    body = [(r.name, f"{r.value:.6g}", r.unit,
             "" if r.reference is None else f"{r.reference:.6g}",
             "" if r.rel_dev is None else f"{r.rel_dev:+.2%}",
             "" if r.low is None or r.high is None else f"[{r.low:.6g}, {r.high:.6g}]",
             r.status or "") for r in rows]
    widths = [max(map(len, col)) for col in zip(_TABLE_HEADER, *body)]
    line = "  ".join(f"{{:<{w}}}" for w in widths).format
    return "\n".join([line(*_TABLE_HEADER).rstrip(),
                      "  ".join("-" * w for w in widths),
                      *[line(*cells).rstrip() for cells in body]]) + "\n"


#: json's tokens for the floats that have no JSON literal
_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_leaf(value, pad: str = "    ") -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it at indent ``pad``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_TOKENS.get(text, text)
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _json_row(row: ReportRow) -> str:
    leaf = _json_leaf
    text = (f'  {{\n    "name": {leaf(row.name)},\n    "value": {leaf(row.value)},'
            f'\n    "unit": {leaf(row.unit)}')
    if row.reference is not None:
        text += (f',\n    "reference": {leaf(row.reference)}'
                 f',\n    "rel_dev": {leaf(row.rel_dev)}')
    if row.low is not None:
        text += f',\n    "low": {leaf(row.low)}'
    if row.high is not None:
        text += f',\n    "high": {leaf(row.high)}'
    if row.status is not None:
        text += f',\n    "status": {leaf(row.status)}'
    if row.extras:
        extras = sorted(row.extras.items())
        if all(isinstance(key, str) for key, _ in extras):
            text += ',\n    "extras": {\n' + ",\n".join(
                [f"      {leaf(key)}: {leaf(val, '      ')}" for key, val in extras]
            ) + "\n    }"
        else:  # json coerces int, float, bool and None keys, or raises
            text += f',\n    "extras": {leaf(dict(extras))}'
    return text + "\n  }"


def render_json(rows: list[ReportRow]) -> str:
    body = ",\n".join(map(_json_row, rows))
    return f"[\n{body}\n]\n" if body else "[]\n"


RENDERERS = {"csv": render_csv, "table": render_table, "json": render_json}


def render_rows(rows: list[ReportRow], fmt: str) -> str:
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; choose from {sorted(RENDERERS)}") from None
    return renderer(rows)


# ---------------------------------------------------------------------------
# the registry of quantities


def _stark(c: ScenarioConfig):
    """The light-shift ladder at its slope-compensation intensity."""
    i_s = stark_compensation_intensity(c.omega_b, c.stark_detuning, c.species)
    return stark_ladder(i_s, c.stark_detuning, c.species)


def _ac_zeeman(c: ScenarioConfig):
    """The microwave ladder at its slope-compensation intensity."""
    i_mu = ac_zeeman_compensation_intensity(c.omega_b, c.microwave_detuning, c.species)
    return ac_zeeman_ladder(i_mu, c.microwave_detuning, c.species)


def _weak_field_dephasing(c: ScenarioConfig) -> float:
    """Class dephasing (rad) at the fixed WEAK_OMEGA_B, which no document key
    sets: a phase that is not finite is refused naming the pulse duration and
    the hyperfine splitting only."""
    try:
        return class_dephasing(WEAK_OMEGA_B, c.pulse_duration, c.species)
    except InputError:
        raise refusal("are out of range together: the class dephasing at the weak field "
                      "2 pi x 50 kHz overflows", pulse_duration=c.pulse_duration,
                      delta_hf=c.species.delta_hf) from None


def _pi_pulses(tau: float) -> dict:
    """The differential pi pulses of duration ``tau``: name -> (config -> value in
    the display unit, unit, config -> the config fields that set the pulse's slope)."""
    return {
        "zeeman_pi_omega_b": (
            lambda c: zeeman_pi_omega_b(tau, c.species) / TWO_PI / 1e6, "MHz",
            lambda c: dict(delta_hf=c.species.delta_hf)),
        "zeeman_pi_field": (
            lambda c: tesla_to_gauss(zeeman_pi_field(tau, c.species)), "G",
            lambda c: dict(delta_hf=c.species.delta_hf)),
        "stark_pi_intensity": (
            lambda c: w_m2_to_mw_cm2(stark_pi_intensity(tau, c.stark_detuning, c.species)),
            "mW/cm^2", lambda c: dict(stark_detuning=c.stark_detuning, delta2=c.species.delta2)),
        "stark_pi_scattered_photons": (
            lambda c: stark_pi_scattered_photons(tau, c.stark_detuning, c.species), "1",
            lambda c: dict(stark_detuning=c.stark_detuning, delta2=c.species.delta2)),
        "microwave_pi_intensity": (
            lambda c: w_m2_to_w_cm2(microwave_pi_intensity(tau, c.microwave_detuning, c.species)),
            "W/cm^2", lambda c: dict(microwave_detuning=c.microwave_detuning)),
    }


def _at_fixed_tau(value, slope_fields):
    """``value`` of a pi pulse of the fixed PI_PULSE_TAU, which no document key
    sets: a pulse that duration cannot reach is refused naming the fields that
    set its slope, ``slope_fields(config)``."""
    def fixed(c: ScenarioConfig) -> float:
        try:
            return value(c)
        except InputError as exc:
            if exc.keys != ("tau",):
                raise
            fields = slope_fields(c)
            verb = "are out of range together" if len(fields) > 1 else "is out of range"
            raise refusal(f"{verb}: the pi pulse of the fixed duration {PI_PULSE_TAU:g} s "
                          "has no finite solution", **fields) from None
    return fixed


def _far_detuned_ratio(c: ScenarioConfig) -> float:
    """The light pi pulse at the fixed detuning 30 Delta_2 against the floor.  No
    document key sets that detuning or PI_PULSE_TAU: a pulse refused for either is
    refused naming Delta_2 alone."""
    sp = c.species
    delta_s = 30.0 * sp.delta2
    try:
        photons = stark_pi_scattered_photons(PI_PULSE_TAU, delta_s, sp)
    except InputError as exc:
        if not {"tau", *refusal("", stark_detuning=delta_s).keys} & set(exc.keys):
            raise
        raise refusal("is out of range: the light pi pulse at 30 Delta_2 has no finite solution",
                      delta2=sp.delta2) from None
    return photons / scattered_photon_limit(sp)


#: name -> (config -> value in the display unit, unit) of every quantity the
#: reports compute from the configuration alone (pi pulses at PI_PULSE_TAU).
#: Reports read them here or from the DecoherenceBudget, which calls the same
#: functions, and a sweep may evaluate any of them.
QUANTITIES = {
    "stark_compensation_intensity": (lambda c: w_m2_to_mw_cm2(
        stark_compensation_intensity(c.omega_b, c.stark_detuning, c.species)), "mW/cm^2"),
    "ac_zeeman_compensation_intensity": (lambda c: w_m2_to_w_cm2(ac_zeeman_compensation_intensity(
        c.omega_b, c.microwave_detuning, c.species)), "W/cm^2"),
    "zeeman_ladder_spread": (
        lambda c: zeeman_ladder(c.omega_b, c.species).spread() / TWO_PI, "Hz"),
    "compensated_stark_spread": (
        lambda c: (zeeman_ladder(c.omega_b, c.species) + _stark(c)).spread() / TWO_PI, "Hz"),
    "compensated_ac_zeeman_spread": (
        lambda c: (zeeman_ladder(c.omega_b, c.species) + _ac_zeeman(c)).spread() / TWO_PI, "Hz"),
    "zeeman_dephasing": (lambda c: class_dephasing(
        c.omega_b, c.pulse_duration, c.species) / math.pi, "pi rad"),
    "weak_field_dephasing": (lambda c: _weak_field_dephasing(c) * 1e3, "mrad"),
    "doppler_scattering_rate": (compensation_scattering_rate, "1/s"),
    "scattered_photons_per_pulse": (lambda c: scattered_photons_per_pulse(c)[0], "1"),
    "spin_exchange_eta": (lambda c: spin_exchange_probability(
        c.pulse_duration, c.species, c.atom_density), "1"),
    # a single cell's pass crosses two windows
    "boundary_transmission": (lambda c: boundary_transmission(c.boundary_loss, 2), "1"),
    "boundary_added_vacuum": (lambda c: 1.0 - boundary_transmission(c.boundary_loss, 2), "1"),
    # window-loss noise, four crossings against two: (1 - t^2) / (1 - t) at
    # t = (1 - A)^2 is exactly 1 + t, also in the lossless limit A = 0
    "boundary_noise_ratio": (lambda c: 1.0 + boundary_transmission(c.boundary_loss, 2), "1"),
    "residual_pump_occupation": (lambda c: residual_pump_occupation(c.species), "1"),
    "scattered_photon_floor": (lambda c: scattered_photon_limit(c.species), "1"),
    "far_detuned_ratio": (_far_detuned_ratio, "1"),
    **{name: (_at_fixed_tau(value, slope_fields), unit)
       for name, (value, unit, slope_fields) in _pi_pulses(PI_PULSE_TAU).items()},
    "kappa": (lambda c: collective_kappa(c).kappa_per_s, "1/s"),
    "k_eff": (lambda c: collective_kappa(c).k_eff, "1"),
}


def _row(config: ScenarioConfig, name: str, printed: str | None = None) -> ReportRow:
    """The registered quantity ``name`` as a row, printed as ``printed`` if given."""
    func, unit = QUANTITIES[name]
    return ReportRow(printed or name, func(config), unit)


# ---------------------------------------------------------------------------
# subcommand row builders


def shifts_rows(config: ScenarioConfig) -> list[ReportRow]:
    """Ladder tables of all three mechanisms at the configured point.

    The light and microwave ladders are evaluated at their slope
    compensation intensities, so the composite rows directly show the
    cancellation of the magnetic ladder.
    """
    zee, sta = zeeman_ladder(config.omega_b, config.species), _stark(config)
    rows = []
    for mech, ladder in (("quadratic_zeeman", zee), ("ac_stark", sta),
                         ("ac_zeeman", _ac_zeeman(config)),
                         ("composite_zeeman_stark", zee + sta)):
        for m, omega in ladder.omegas().items():
            rows.append(ReportRow(name=f"{mech}[m={m}]", value=omega / TWO_PI, unit="Hz"))
    return rows


def compensate_rows(config: ScenarioConfig) -> list[ReportRow]:
    return [_row(config, name) for name in (
        "stark_compensation_intensity", "ac_zeeman_compensation_intensity",
        "zeeman_ladder_spread", "compensated_stark_spread", "compensated_ac_zeeman_spread")]


def pulse_design_rows(config: ScenarioConfig, tau: float) -> list[ReportRow]:
    duration_us = tau * 1e6
    # a negative or NaN tau keeps the pi pulses' own refusal
    if duration_us == math.inf:
        raise InputError(f"pulse duration tau = {tau:g} s is out of range: "
                         "its duration in us overflows", "tau")
    return [*[ReportRow(name, func(config), unit)
              for name, (func, unit, _) in _pi_pulses(tau).items()],
            ReportRow("pulse_duration", duration_us, "us")]


def decoherence_rows(config: ScenarioConfig) -> list[ReportRow]:
    eta = _row(config, "spin_exchange_eta")  # its refusal comes first
    n_phot, rate = scattered_photons_per_pulse(config)
    return [
        eta,
        # the registry's compensation_scattering_rate, already computed for n_phot
        ReportRow("doppler_scattering_rate", rate, "1/s"),
        ReportRow("scattered_photons_per_pulse", n_phot, "1"),
        *[_row(config, name) for name in (
            "boundary_transmission", "boundary_added_vacuum",
            "residual_pump_occupation", "scattered_photon_floor")],
    ]


def pump_rows(config: ScenarioConfig, pump_rate: float, repump_rate: float, dt: float,
              steps: int) -> list[ReportRow]:
    if config.species.f_ground != 4:
        raise refusal("is not supported by pump: the pumping model is the F = 4 manifold",
                      f_ground=config.species.f_ground)
    from .pumping import DARK_INDICES, pumping_history, uniform_f4_system
    system = uniform_f4_system(pump_rate, repump_rate)
    record_every = max(1, steps // PUMP_CHECKPOINTS)
    times, pops = pumping_history(system, dt, steps, record_every)
    lo, hi = DARK_INDICES
    rows = [ReportRow(f"dark_fraction[t={t:.6g}s]", dark, "1")
            for t, dark in zip(times.tolist(), (pops[:, lo] + pops[:, hi]).tolist())]
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
    rows = [_row(config, "kappa", "configured_kappa"),
            _row(config, "k_eff", "configured_k_eff")]
    budget = DecoherenceBudget.from_scenario(config)
    policy = POLICY_MEAN if seed is None else POLICY_SAMPLE
    given = gain is not None
    if not given:
        gain = config.feedback_gain
    try:
        write = run_write(k_eff, gain=gain, budget=budget,
                          policy=policy, seed=seed)
        read = run_read(k_eff, state=write.state, gain=gain, budget=budget,
                        policy=policy, seed=None if seed is None else seed + 1)
    except InputError as exc:
        if given or exc.keys != ("gain", "k_eff"):
            raise
        # the gain is the document's: name its key, not the parameter, with k_eff
        named = refusal(f"is the protocol gain, and {exc}", feedback_gain=gain)
        raise InputError(str(named), *named.keys, "k_eff") from None
    rows += [
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


def _row_4_rate(c: ScenarioConfig, convention: str) -> float:
    """Row 4: the compensation light's scattering with cesium D1 line data
    whatever the species, as the benchmark's references pin it (FOUND in
    CHANGES.md on row 4 and species overrides)."""
    sp = c.species
    return doppler_averaged_scattering(
        stark_compensation_intensity(c.omega_b, c.stark_detuning, sp),
        abs(c.stark_detuning) - sp.delta2 / 2.0, sp.doppler_halfwidth,
        gamma=CESIUM.gamma_d1, wavelength=CESIUM.lambda_d1, width_convention=convention)


_Q = QUANTITIES

#: the twelve benchmark quantities: printed name, registry entry, reference, window,
#: and an optional companion (extras key, entry, window) that takes part in the
#: status.  Row 4's width must land in the window read as a HWHM or as a sigma.
PAPER_CHECKS = (
    ("zeeman_dephasing_phase", _Q["zeeman_dephasing"], 0.3, 0.25, 0.31, None),
    ("weak_field_dephasing", _Q["weak_field_dephasing"], 20.0, 10.0, 30.0, None),
    ("stark_compensation_intensity", _Q["stark_compensation_intensity"], 1.0, 0.9, 1.3, None),
    ("doppler_scattering_rate", (lambda c: _row_4_rate(c, WIDTH_HWHM), "1/s"), 18.0, 10.8, 25.2,
     ("sigma_convention_rate", (lambda c: _row_4_rate(c, WIDTH_SIGMA), "1/s"), 10.8, 25.2)),
    ("ac_zeeman_compensation_intensity", _Q["ac_zeeman_compensation_intensity"],
     1.4, 1.3, 1.5, None),
    ("zeeman_pi_field", _Q["zeeman_pi_field"], 8.8, 8.4, 9.2,
     ("omega_b_mhz", _Q["zeeman_pi_omega_b"], 3.0, 3.4)),
    ("stark_pi_intensity", _Q["stark_pi_intensity"], 135.0, 120.0, 155.0,
     ("scattered_photons", _Q["stark_pi_scattered_photons"], 0.04, 0.08)),
    ("scattered_photon_floor", _Q["scattered_photon_floor"], 0.04, 0.038, 0.046,
     ("far_detuned_ratio", _Q["far_detuned_ratio"], 0.9, 1.1)),
    ("microwave_pi_intensity", _Q["microwave_pi_intensity"], 170.0, 160.0, 180.0, None),
    ("spin_exchange_eta", _Q["spin_exchange_eta"], 6.5e-3, 6.5e-3 * 0.99, 6.5e-3 * 1.01, None),
    ("residual_pump_occupation", _Q["residual_pump_occupation"], 1.0e-3, 3.0e-4, 3.0e-3, None),
    ("boundary_noise_ratio", _Q["boundary_noise_ratio"], 2.0, 1.9, 2.0, None),
)


def paper_check_rows(config: ScenarioConfig) -> list[ReportRow]:
    """Evaluate the twelve benchmark quantities against their windows; a
    companion takes part in the status and is shown under extras."""
    rows = []
    for name, (func, unit), reference, low, high, companion in PAPER_CHECKS:
        value = func(config)
        ok = in_window(value, low, high)
        extras = {}
        if companion:
            key, (extra_func, _), extra_low, extra_high = companion
            extras[key] = extra = extra_func(config)
            ok = ok and in_window(extra, extra_low, extra_high)
        rows.append(ReportRow(name, value, unit, reference=reference, low=low, high=high,
                              status=STATUS_PASS if ok else STATUS_FAIL, extras=extras))
    return rows
