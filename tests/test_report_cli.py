"""Report rows, renderers, and the command-line front end."""

import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import qmemcell
from qmemcell import cli, default_scenario, scenario
from qmemcell.cli import CONFIG_ENV_VAR, main
from qmemcell.report import (
    CSV_COLUMNS,
    QUANTITIES,
    STATUS_FAIL,
    STATUS_PASS,
    ReportRow,
    compensate_rows,
    decoherence_rows,
    in_window,
    memory_sim_rows,
    paper_check_rows,
    pulse_design_rows,
    pump_rows,
    render_csv,
    render_json,
    render_rows,
    render_table,
    shifts_rows,
)
from qmemcell.constants import w_m2_to_mw_cm2, w_m2_to_w_cm2
from qmemcell.decoherence import (boundary_loss_budget, doppler_averaged_scattering,
                                  residual_pump_occupation, scattered_photon_limit,
                                  spin_exchange_probability)
from qmemcell.shifts import (ac_zeeman_compensation_intensity, ac_zeeman_ladder,
                             class_dephasing, collective_kappa, microwave_pi_pulse,
                             stark_compensation_intensity, stark_ladder, stark_pi_pulse,
                             zeeman_ladder, zeeman_pi_pulse)

PAPER_CHECK_NAMES = [
    "zeeman_dephasing_phase",
    "weak_field_dephasing",
    "stark_compensation_intensity",
    "doppler_scattering_rate",
    "ac_zeeman_compensation_intensity",
    "zeeman_pi_field",
    "stark_pi_intensity",
    "scattered_photon_floor",
    "microwave_pi_intensity",
    "spin_exchange_eta",
    "residual_pump_occupation",
    "boundary_noise_ratio",
]


# ---------------------------------------------------------------------------
# rows and renderers


def test_report_row_rel_dev_tracks_reference():
    bare = ReportRow(name="a", value=1.0, unit="1")
    assert bare.reference is None and bare.rel_dev is None
    checked = ReportRow(name="b", value=1.1, unit="1", reference=1.0)
    assert checked.rel_dev == pytest.approx(0.1, rel=1e-12)
    negative_ref = ReportRow(name="c", value=-2.2, unit="1", reference=-2.0)
    assert negative_ref.rel_dev == pytest.approx(-0.1, rel=1e-12)


@dataclasses.dataclass(frozen=True)
class _GeneratedRow:
    """ReportRow's fields with the dataclass-generated __init__."""

    name: str
    value: float
    unit: str
    reference: float | None = None
    rel_dev: float | None = dataclasses.field(default=None, init=False)
    low: float | None = None
    high: float | None = None
    status: str | None = None
    extras: dict[str, float] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.reference is not None:
            object.__setattr__(self, "rel_dev",
                               (self.value - self.reference) / abs(self.reference))


def test_report_row_keeps_the_frozen_dataclass_contract():
    row = ReportRow("a", 1.0, "1")
    assert (row.name, row.value, row.unit, row.reference, row.rel_dev) == ("a", 1.0, "1",
                                                                           None, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.value = 2.0
    names = [f.name for f in dataclasses.fields(ReportRow)]
    assert names == [f.name for f in dataclasses.fields(_GeneratedRow)]

    def parameters(cls):
        return [(p.name, p.kind, repr(p.default))
                for p in inspect.signature(cls).parameters.values()]

    assert parameters(ReportRow) == parameters(_GeneratedRow)
    args = ("b", 1.1, "mW", 1.0, 0.9, 1.2, STATUS_PASS, {"x": 2.0})
    assert repr(ReportRow(*args)) == repr(_GeneratedRow(*args)).replace("_GeneratedRow",
                                                                         "ReportRow")
    assert vars(ReportRow(*args)) == vars(_GeneratedRow(*args))
    assert ReportRow(*args) == ReportRow(*args) and ReportRow(*args) != ReportRow(*args[:7])
    # extras is a dict, so rows hash only without one, as before
    assert hash(ReportRow("a", 1.0, "1", extras=None)) == hash(
        ReportRow(name="a", value=1.0, unit="1", extras=None))
    with pytest.raises(TypeError, match="unhashable"):
        hash(row)
    moved = dataclasses.replace(ReportRow(*args), value=1.3)
    assert moved.rel_dev == (1.3 - 1.0) / 1.0 and moved.extras == {"x": 2.0}
    assert dataclasses.replace(moved, reference=None).rel_dev is None
    assert ReportRow("a", 1.0, "1").extras is not row.extras


def test_in_window_boundaries():
    assert in_window(1.0, 1.0, 2.0)
    assert in_window(2.0, 1.0, 2.0)
    assert not in_window(2.0000001, 1.0, 2.0)


def test_render_csv_round_trips_floats():
    rows = paper_check_rows(default_scenario())
    text = render_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows)
    for rec, row in zip(parsed, rows):
        assert rec["name"] == row.name
        assert float(rec["value"]) == row.value
        assert float(rec["reference"]) == row.reference
        assert float(rec["rel_dev"]) == row.rel_dev
        assert rec["status"] == row.status
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_render_csv_blank_for_missing_fields():
    text = render_csv([ReportRow(name="a", value=1.5, unit="1")])
    assert text.splitlines()[1] == "a,1.5,1,,,,,"


def test_render_json():
    rows = paper_check_rows(default_scenario())
    docs = json.loads(render_json(rows))
    assert [d["name"] for d in docs] == PAPER_CHECK_NAMES
    for doc, row in zip(docs, rows):
        assert doc["value"] == row.value
        assert doc["rel_dev"] == row.rel_dev
        assert doc["status"] == row.status
    field_doc = docs[PAPER_CHECK_NAMES.index("zeeman_pi_field")]
    assert "extras" in field_doc
    assert "omega_b_mhz" in field_doc["extras"]


def test_render_table():
    rows = paper_check_rows(default_scenario())
    text = render_table(rows)
    lines = text.splitlines()
    assert lines[0].startswith("quantity")
    assert "window" in lines[0]
    for row in rows:
        assert any(line.startswith(row.name) for line in lines[2:])
    assert text.endswith("\n")


def test_render_rows_dispatch():
    rows = [ReportRow(name="a", value=1.0, unit="1")]
    assert render_rows(rows, "csv") == render_csv(rows)
    with pytest.raises(ValueError) as info:
        render_rows(rows, "yaml")
    assert str(info.value) == "unknown format 'yaml'; choose from ['csv', 'json', 'table']"
    # raised from None: a library caller sees no chained KeyError
    assert info.value.__cause__ is None and info.value.__suppress_context__


# Reference renderers written with io and json.dumps: the byte-for-byte
# oracles of the ones in qmemcell.report.

def _oracle_machine(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _oracle_csv(rows):
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        cells = [row.name, _oracle_machine(row.value), row.unit,
                 _oracle_machine(row.reference), _oracle_machine(row.rel_dev),
                 _oracle_machine(row.low), _oracle_machine(row.high),
                 row.status or ""]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def _oracle_table(rows):
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


def _oracle_json(rows):
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


RENDER_PAIRS = [(render_csv, _oracle_csv), (render_table, _oracle_table),
                (render_json, _oracle_json)]
SPECIES_OVERRIDE = ('{"omega_b_hz": 2.0e5, "species": {"gamma_d1_hz": 4.8e6, '
                    '"doppler_halfwidth_hz": 2.0e8}}')


def _subcommand_rows(doc):
    config = scenario.load_scenario(doc)
    sweep = [ReportRow(f"{q}[omega_b_hz={v:g}]",
                       fn(scenario.scenario_with(config, "omega_b_hz", v)), unit)
             for q, (fn, unit) in QUANTITIES.items() for v in (1.0e5, 3.3e5)]
    return [shifts_rows(config), compensate_rows(config),
            pulse_design_rows(config, 30.0e-6), decoherence_rows(config),
            paper_check_rows(config), memory_sim_rows(config),
            memory_sim_rows(config, seed=7, k_eff=0.5),
            pump_rows(1.0e4, 2.0e4, 1.0e-6, 2000), sweep]


@pytest.mark.parametrize("render, oracle", RENDER_PAIRS)
@pytest.mark.parametrize("doc", ["{}", SPECIES_OVERRIDE])
def test_renderers_match_their_oracles_on_every_subcommand(render, oracle, doc):
    for rows in _subcommand_rows(doc):
        assert render(rows) == oracle(rows)


def _special_rows():
    import numpy as np
    odd_names = ['quote"d', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "µs Ω ✓ 𝔼",
                 "plain", ""]
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e300, 1e16, 1.5e-7,
              3, -2, True, False, np.float64(0.1), np.float64(math.nan)]
    rows = [ReportRow(name, value, "1") for name in odd_names for value in values]
    rows += [ReportRow("ref", v, "Hz", reference=r, low=lo, high=hi, status=st,
                       extras=ex)
             for v, r, lo, hi, st, ex in [
                 (1.0, 2.0, 0.5, 1.5, STATUS_PASS, {}),
                 (math.nan, 1.0, -math.inf, math.inf, STATUS_FAIL, {"z": 1.0, "a": -0.0}),
                 (5e300, -3.0, None, 7.0, None, {"bé": math.nan, "\"q\"": 2,
                                                 "a\\": True, "ctl\x01": None}),
                 (np.float64(2.5), np.float64(2.0), 1, True, "µ-status",
                  {"y": np.float64(1e-300), "x": -math.inf}),
                 (7, 4, 0.0, None, "", {"only": 5e300}),
             ]]
    return rows


@pytest.mark.parametrize("render, oracle", RENDER_PAIRS)
def test_renderers_match_their_oracles_on_special_values(render, oracle):
    rows = _special_rows()
    assert render(rows) == oracle(rows)
    for row in rows:
        assert render([row]) == oracle([row])
    assert render([]) == oracle([])


def test_render_json_hands_other_leaves_and_keys_to_json():
    rows = [ReportRow("nested", [1.0, [math.inf, "x"], {"k": None, "a": []}], "1",
                      extras={"list": [1, {"deep": [2.0, {}]}], "empty": {}}),
            ReportRow("coerced_keys", 1.0, "1", extras={3: 1.0, 1: math.nan, 2: "two"}),
            ReportRow("float_keys", 1.0, "1", extras={2.5: 1, 0.5: 2}),
            ReportRow("big_int", 10**40, "1", reference=3, extras={"x": 10**30})]
    for row in rows:
        assert render_json([row]) == _oracle_json([row])
    assert render_json(rows) == _oracle_json(rows)
    assert '"1": NaN,\n      "2": "two",\n      "3": 1.0\n' in render_json(rows)


@pytest.mark.parametrize("row", [
    ReportRow("bad", object(), "1"),
    ReportRow("bad", 1.0, "1", extras={"x": {1, 2}}),
    ReportRow("bad", 1.0, "1", extras={(1, 2): 1.0}),
    ReportRow("bad", 1.0, "1", extras={"a": 1.0, 2: 2.0}),
])
def test_render_json_raises_what_json_raises(row):
    with pytest.raises(TypeError) as expected:
        _oracle_json([row])
    with pytest.raises(TypeError) as got:
        render_json([row])
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# row builders


def test_shifts_rows_layout():
    rows = shifts_rows(default_scenario())
    assert len(rows) == 32
    names = [r.name for r in rows]
    for i, mech in enumerate(("quadratic_zeeman", "ac_stark", "ac_zeeman",
                              "composite_zeeman_stark")):
        block = names[8 * i:8 * i + 8]
        assert block == [f"{mech}[m={m}]" for m in range(-4, 4)]
    # the ladder values are reported in cyclic Hz
    assert rows[0].value == pytest.approx(300068.55277475517, rel=1e-12)
    # the composite block is the compensated ladder: flat to rounding
    comp = [r.value for r in rows[24:32]]
    assert max(comp) - min(comp) <= 1e-9 * 3.0e5


def test_compensate_rows():
    rows = {r.name: r for r in compensate_rows(default_scenario())}
    assert rows["stark_compensation_intensity"].value == pytest.approx(
        1.1161280039512727, rel=1e-12)
    assert rows["ac_zeeman_compensation_intensity"].value == pytest.approx(
        1.3739383537203784, rel=1e-12)
    assert rows["zeeman_ladder_spread"].value == pytest.approx(137.1055495103231, rel=1e-12)
    assert rows["compensated_stark_spread"].value == 0.0
    assert rows["compensated_ac_zeeman_spread"].value == 0.0


def test_pulse_design_rows():
    rows = {r.name: r for r in pulse_design_rows(default_scenario(), 30.0e-6)}
    assert rows["zeeman_pi_omega_b"].value == pytest.approx(3.3076390659314976, rel=1e-12)
    assert rows["zeeman_pi_field"].value == pytest.approx(9.452932780220278, rel=1e-12)
    assert rows["stark_pi_intensity"].value == pytest.approx(135.6774650305846, rel=1e-12)
    assert rows["microwave_pi_intensity"].value == pytest.approx(167.017109400665, rel=1e-12)
    assert rows["pulse_duration"].value == 30.0


def test_decoherence_rows():
    rows = {r.name: r for r in decoherence_rows(default_scenario())}
    assert rows["spin_exchange_eta"].value == pytest.approx(6.5e-3, rel=1e-12)
    assert rows["doppler_scattering_rate"].value == pytest.approx(
        17.339887707386037, rel=1e-9)
    assert rows["boundary_transmission"].value == pytest.approx(0.9801, rel=1e-12)
    assert rows["scattered_photon_floor"].value == pytest.approx(
        0.04205184686996905, rel=1e-12)


def test_pump_rows():
    rows = pump_rows(1.0e4, 1.0e4, 1.0e-6, 2000)
    names = [r.name for r in rows]
    assert names[0] == "dark_fraction[t=0s]"
    assert names[-3:] == ["dark_minus_edge", "dark_plus_edge", "total_population"]
    dark = [r.value for r in rows if r.name.startswith("dark_fraction")]
    assert dark == sorted(dark)
    by_name = {r.name: r.value for r in rows}
    assert by_name["total_population"] == pytest.approx(1.0, abs=1e-12)
    assert by_name["dark_minus_edge"] == pytest.approx(by_name["dark_plus_edge"], rel=1e-12)


def test_memory_sim_rows_defaults():
    rows = {r.name: r.value for r in memory_sim_rows(default_scenario())}
    assert rows["configured_k_eff"] == pytest.approx(-1.524061815982785, rel=1e-12)
    assert rows["protocol_k_eff"] == 1.0
    assert rows["protocol_gain"] == -1.0
    assert 0.0 < rows["write_mean_fidelity"] < 1.0
    assert rows["write_outcome[m_c]"] == 0.0
    # the clean stored quadratures carry far less excess than the driven ones
    assert rows["write_added_noise[x_plus]"] < 0.1 < rows["write_added_noise[p_plus]"]


def test_memory_sim_rows_seeded():
    a = memory_sim_rows(default_scenario(), seed=3)
    b = memory_sim_rows(default_scenario(), seed=3)
    c = memory_sim_rows(default_scenario(), seed=4)
    assert [(r.name, r.value) for r in a] == [(r.name, r.value) for r in b]
    outcomes_a = {r.name: r.value for r in a if "outcome" in r.name}
    outcomes_c = {r.name: r.value for r in c if "outcome" in r.name}
    assert outcomes_a != outcomes_c


def test_paper_check_rows_statuses():
    rows = paper_check_rows(default_scenario())
    assert [r.name for r in rows] == PAPER_CHECK_NAMES
    statuses = {r.name: r.status for r in rows}
    for name in PAPER_CHECK_NAMES:
        expected = STATUS_FAIL if name == "zeeman_pi_field" else STATUS_PASS
        assert statuses[name] == expected
    for row in rows:
        if row.status == STATUS_PASS:
            assert in_window(row.value, row.low, row.high)
    field_row = next(r for r in rows if r.name == "zeeman_pi_field")
    assert not in_window(field_row.value, field_row.low, field_row.high)
    assert in_window(field_row.extras["omega_b_mhz"], 3.0, 3.4)


# ---------------------------------------------------------------------------
# command line


def test_cli_paper_check_exit_code(capsys):
    code = main(["paper-check", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("PASS") == 11
    assert out.count("FAIL") == 1


def test_cli_output_is_deterministic(capsys):
    main(["paper-check", "--format", "csv"])
    first = capsys.readouterr().out
    main(["paper-check", "--format", "csv"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_shifts_exit_zero_and_override(capsys):
    assert main(["shifts"]) == 0
    base = capsys.readouterr().out
    assert main(["shifts", "--omega-b-hz", "2.0e5"]) == 0
    override = capsys.readouterr().out
    assert base != override
    assert base.splitlines()[1].startswith("quadratic_zeeman[m=-4]")


def test_cli_memory_sim_seeded(capsys):
    assert main(["memory-sim", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["memory-sim", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert main(["memory-sim", "--seed", "8"]) == 0
    third = capsys.readouterr().out
    assert first == second
    assert first != third


#: three scenarios of the benchmark catalogue, off the packaged point
PINNED_SCENARIOS = (
    {"omega_b_hz": 1.5e5, "tau_s": 2.0e-3, "stark_detuning_hz": 2.5e9},
    {"omega_b_hz": 6.0e5, "probe_detuning_hz": -9.0e8, "atom_density_m3": 4.0e16,
     "boundary_loss": 0.03},
    {"tau_s": 5.0e-4, "microwave_detuning_hz": 2.0e7, "feedback_gain": -0.8,
     "beam_area_m2": 1.0e-4},
)
#: memory-sim rows per (scenario, k_eff), exact: the write and read
#: fidelities and the eight added-noise rows, which are the same under
#: both outcome policies, then the four outcomes drawn with seed 11
PINNED_PROTOCOL_ROWS = {
    (0, 0.5): (
        0.06147258670114161, 0.06463388067571318, 0.1522945140165043, 0.5011947206213668,
        0.5011947206213668, 0.1522945140165043, 0.150640633938725, 0.5054726584846813,
        0.5054726584846813, 0.150640633938725, 0.027004710720603484, 1.073899304704657,
        1.9265386173101176, 0.019936515787497673,
    ),
    (0, 2.0): (
        0.03041212700691363, 0.03140234510536114, 0.4999762258116015, 0.5191155299418699,
        0.5191155299418699, 0.4999762258116015, 0.521890633938725, 0.5875625357548999,
        0.5875625357548999, 0.521890633938725, 0.05384682371716507, 2.1413325678137665,
        3.842727260725913, 0.039744835750235796,
    ),
    (1, 0.5): (
        0.009129226733189732, 0.015052518345498027, 0.2102283797233005, 0.5031806415633352,
        0.5031806415633352, 0.2102283797233005, 0.20988702447530305, 0.5184092561188258,
        0.5184092561188258, 0.20988702447530305, 0.02695053872879725, 1.0717450411416412,
        1.795263420448824, 0.017075361219566126,
    ),
    (1, 2.0): (
        0.008327375683795575, 0.012798572395980957, 0.4998120789100466, 0.5508902650133645,
        0.5508902650133645, 0.4998120789100466, 0.573637024475303, 0.7945480979012123,
        0.7945480979012123, 0.573637024475303, 0.05341080987150666, 2.1239935572041495,
        3.563967862958772, 0.03380029570086384,
    ),
    (2, 0.5): (
        7.018195781518503e-06, 9.712513397948907e-06, 0.1949594608632042,
        0.5012204473512987, 0.5012204473512987, 0.1949594608632042, 0.19068982328684175,
        0.5029257122214226, 0.5029257122214226, 0.19068982328684175, 0.027004710720603484,
        1.073899304704657, 1.6666166195001701, 0.01569100886837429,
    ),
    (2, 2.0): (
        3.3812064049078676e-06, 4.939272106540922e-06, 0.18911603263292254,
        0.5195271576207805, 0.5195271576207805, 0.18911603263292254, 0.1906898232868417,
        0.5468113955427611, 0.5468113955427611, 0.1906898232868417, 0.05384682371716507,
        2.1413325678137665, 3.3251552383930916, 0.03127477109530524,
    ),
}


def test_memory_sim_seeded_outcomes_pinned():
    rows = {r.name: r.value for r in memory_sim_rows(default_scenario(), seed=3)}
    assert rows["write_outcome[m_c]"] == 2.035810429714782
    assert rows["write_outcome[m_s]"] == -2.549267862253927
    assert rows["read_outcome[m_minus]"] == -2.6044474689017374
    assert rows["read_outcome[m_plus]"] == 1.288553601736854
    # fidelity and added noise to the last bit: a reordered float
    # operation anywhere in the protocol shows here
    for (index, k_eff), pinned in PINNED_PROTOCOL_ROWS.items():
        config = scenario.load_scenario(json.dumps(PINNED_SCENARIOS[index]))
        for seed, outcomes in ((None, (0.0,) * 4), (11, pinned[10:])):
            got = tuple(r.value for r in memory_sim_rows(config, seed, k_eff)
                        if r.name.startswith(("write_", "read_")))
            assert got == pinned[:10] + outcomes, (index, k_eff, seed)


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    assert main(["compensate", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "stark_compensation_intensity" in text


def test_cli_config_argument(tmp_path, capsys):
    path = tmp_path / "off.json"
    path.write_text('{"omega_b_hz": 1.5e5}')
    assert main(["compensate", "--config", str(path), "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    by_name = {d["name"]: d["value"] for d in docs}
    # compensation intensity scales with the square of the Larmor frequency
    assert by_name["stark_compensation_intensity"] == pytest.approx(
        1.1161280039512727 * 0.25, rel=1e-9)


def test_cli_config_env_fallback(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env.json"
    path.write_text('{"omega_b_hz": 1.5e5}')
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    assert main(["compensate", "--format", "json"]) == 0
    env_out = capsys.readouterr().out
    docs = json.loads(env_out)
    by_name = {d["name"]: d["value"] for d in docs}
    assert by_name["stark_compensation_intensity"] == pytest.approx(
        1.1161280039512727 * 0.25, rel=1e-9)
    # an explicit --config wins over the environment
    other = tmp_path / "other.json"
    other.write_text("{}")
    assert main(["compensate", "--config", str(other), "--format", "json"]) == 0
    explicit = json.loads(capsys.readouterr().out)
    assert {d["name"]: d["value"] for d in explicit}[
        "stark_compensation_intensity"] == pytest.approx(1.1161280039512727, rel=1e-12)


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["compensate", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["compensate", "--config", str(missing)]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["pump", "--steps", "-1"]) == 2
    assert "steps" in capsys.readouterr().err
    # only memory-sim samples outcomes, so only it takes a seed
    assert main(["shifts", "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decoherence", "memory-sim"])
def test_cli_scattering_past_one_photon_exits_2(tmp_path, capsys, command):
    # at tau_s = 0.1 s the compensation light scatters 1.73 photons per atom
    path = tmp_path / "cfg.json"
    path.write_text('{"tau_s": 0.1}')
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tau_s" in captured.err and "1.73" in captured.err


@pytest.mark.parametrize("command", ["decoherence", "memory-sim"])
def test_cli_saturating_compensation_light_names_its_keys(tmp_path, capsys, command):
    # omega_b_hz 1e150 passes its own bound; the compensation light it
    # calls for scatters 1.43e4 photons per atom in the default 1 ms
    path = tmp_path / "cfg.json"
    path.write_text('{"omega_b_hz": 1e150}')
    assert main([command, "--config", str(path)]) == 2
    line = _single_error_line(capsys.readouterr())
    for key in ("tau_s", "omega_b_hz", "stark_detuning_hz"):
        assert f"'{key}'" in line
    assert "1.43e+04 photons per atom" in line


@pytest.mark.parametrize("command", ["decoherence", "memory-sim"])
def test_cli_collisions_past_one_per_pulse_exit_2(tmp_path, capsys, command):
    # at 1e19 atoms per m^3 the spin-exchange probability per pulse is 2.6
    path = tmp_path / "cfg.json"
    path.write_text('{"atom_density_m3": 1e19}')
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "atom_density_m3" in lines[0] and "tau_s" in lines[0]


def test_cli_overflowing_gain_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["memory-sim", "--gain", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "gain" in lines[0]


def test_cli_degenerate_output_noise_exits_2(capsys):
    # the map stays finite, but its ~1e80 output noise has determinant 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["memory-sim", "--gain", "1e40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "gain=1e+40" in lines[0] and "k_eff" in lines[0]


def _single_error_line(captured) -> str:
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["shifts"], ["compensate"], ["decoherence"], ["memory-sim"], ["paper-check"],
    ["sweep", "--param", "stark_detuning_hz", "--quantity", "stark_compensation_intensity",
     "--values", "3e9,2e153"],
    ["sweep", "--param", "stark_detuning_hz", "--quantity", "doppler_scattering_rate",
     "--values", "2e153"],
])
def test_cli_overflowing_stark_intensity_exits_2(tmp_path, capsys, argv):
    # each key passes its own bound; omega_b^2 times Delta_S^2 overflows
    path = tmp_path / "cfg.json"
    path.write_text('{"omega_b_hz": 1e100, "stark_detuning_hz": 2e153}')
    assert main([*argv, "--config", str(path)]) == 2
    line = _single_error_line(capsys.readouterr())
    assert "'omega_b_hz' = 1e+100" in line and "'stark_detuning_hz' = 2e+153" in line


@pytest.mark.parametrize("argv", [
    ["memory-sim"],
    ["sweep", "--param", "tau_s", "--quantity", "k_eff", "--values", "1e-3"],
])
def test_cli_overflowing_collective_kappa_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "cfg.json"
    path.write_text('{"atom_number": 1e200, "photon_number": 1e200, '
                    '"probe_detuning_hz": 1e-100}')
    assert main([*argv, "--config", str(path)]) == 2
    line = _single_error_line(capsys.readouterr())
    for key in ("atom_number", "photon_number", "probe_detuning_hz"):
        assert f"'{key}'" in line


def test_cli_overflowing_omega_b_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"omega_b_hz": 1e300}')
    for argv in (["shifts", "--omega-b-hz", "1e300"], ["shifts", "--config", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "omega_b_hz" in lines[0]


@pytest.mark.parametrize("doc, key", [
    ('{"tau_s": NaN}', "tau_s"),
    ('{"species": {"doppler_halfwidth_hz": Infinity}}', "doppler_halfwidth_hz"),
])
def test_cli_non_finite_config_exits_2(tmp_path, capsys, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    for command in ("paper-check", "decoherence"):
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err


@pytest.mark.parametrize("argv, option", [
    (["pulse-design", "--tau-s", "nan"], "--tau-s"),
    (["pump", "--dt", "inf"], "--dt"),
    (["pump", "--pump-rate=-inf"], "--pump-rate"),
    (["shifts", "--omega-b-hz", "NaN"], "--omega-b-hz"),
    (["sweep", "--param", "omega_b_hz", "--quantity", "zeeman_dephasing",
      "--start", "1e5", "--stop", "inf", "--num", "3"], "--stop"),
])
def test_cli_non_finite_option_exits_2(capsys, argv, option):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert option in err and "finite" in err


def test_cli_sweep_non_finite_value_exits_2(capsys):
    assert main(["sweep", "--param", "tau_s", "--quantity", "spin_exchange_eta",
                 "--values", "1e-3,nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'tau_s' must be finite" in captured.err


def test_cli_memory_sim_negative_seed_exits_2_naming_seed(capsys):
    assert main(["memory-sim", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("grid, option", [
    (["--start", "1e-4", "--stop", "2e-3", "--num", "100000000000"], "--num"),
    (["--values", ",".join(["1e-3"] * (cli.MAX_SWEEP_POINTS + 1))], "--values"),
])
def test_cli_sweep_point_count_is_bounded(capsys, monkeypatch, grid, option):
    # refused before any grid point is built or evaluated
    def no_grid(*args):
        raise AssertionError("the sweep grid was built")

    monkeypatch.setattr(cli, "range", no_grid, raising=False)
    monkeypatch.setitem(QUANTITIES, "k_eff", None)
    assert main(["sweep", "--param", "tau_s", "--quantity", "k_eff", *grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {option} ")
    assert str(cli.MAX_SWEEP_POINTS) in captured.err


def test_sweep_grid_of_the_maximum_size_is_allowed():
    args = cli.build_parser().parse_args(
        ["sweep", "--param", "tau_s", "--quantity", "k_eff", "--start", "0",
         "--stop", "1", "--num", str(cli.MAX_SWEEP_POINTS)])
    assert len(cli._sweep_values(args)) == cli.MAX_SWEEP_POINTS


def test_cli_sweep_values_order(capsys):
    assert main(["sweep", "--param", "stark_detuning_hz",
                 "--quantity", "stark_compensation_intensity",
                 "--values", "3e9,2e9,4e9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("stark_compensation_intensity[stark_detuning_hz=3e+09]")
    assert lines[2].startswith("stark_compensation_intensity[stark_detuning_hz=2e+09]")
    assert lines[3].startswith("stark_compensation_intensity[stark_detuning_hz=4e+09]")


def test_cli_sweep_sign_change(capsys):
    assert main(["sweep", "--param", "probe_detuning_hz", "--quantity", "k_eff",
                 "--values", "7e8,-7e8", "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert docs[0]["value"] == pytest.approx(-1.524061815982785, rel=1e-12)
    assert docs[1]["value"] == pytest.approx(1.524061815982785, rel=1e-12)


def test_cli_sweep_grid(capsys):
    assert main(["sweep", "--param", "omega_b_hz", "--quantity", "zeeman_dephasing",
                 "--start", "1e5", "--stop", "3e5", "--num", "3",
                 "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 3
    assert docs[0]["name"].endswith("[omega_b_hz=100000]")
    # the dephasing phase grows with the square of the field
    assert docs[2]["value"] == pytest.approx(9.0 * docs[0]["value"], rel=1e-9)


def _reference_quantity(quantity, cfg):
    """Each registered quantity through the public functions, as documented."""
    sp = cfg.species
    i_s = stark_compensation_intensity(cfg.omega_b, cfg.stark_detuning, sp)
    i_mu = ac_zeeman_compensation_intensity(cfg.omega_b, cfg.microwave_detuning, sp)
    zee = zeeman_ladder(cfg.omega_b, sp)
    # the compensation light scatters on the species' own D1 line, at the
    # mean detuning of the edge-pumped atoms
    rate = doppler_averaged_scattering(i_s, abs(cfg.stark_detuning) - sp.delta2 / 2.0,
                                       sp.doppler_halfwidth, sp.gamma_d1, sp.lambda_d1)
    tau = 30.0e-6
    values = {
        "stark_compensation_intensity": lambda: w_m2_to_mw_cm2(i_s),
        "ac_zeeman_compensation_intensity": lambda: w_m2_to_w_cm2(i_mu),
        "zeeman_ladder_spread": lambda: zee.spread() / (2.0 * math.pi),
        "compensated_stark_spread": lambda: (zee + stark_ladder(
            i_s, cfg.stark_detuning, sp)).spread() / (2.0 * math.pi),
        "compensated_ac_zeeman_spread": lambda: (zee + ac_zeeman_ladder(
            i_mu, cfg.microwave_detuning, sp)).spread() / (2.0 * math.pi),
        "zeeman_dephasing": lambda: class_dephasing(cfg.omega_b, cfg.pulse_duration,
                                                    sp) / math.pi,
        "weak_field_dephasing": lambda: class_dephasing(
            2.0 * math.pi * 50.0e3, cfg.pulse_duration, sp) * 1e3,
        "doppler_scattering_rate": lambda: rate,
        "scattered_photons_per_pulse": lambda: rate * cfg.pulse_duration,
        "spin_exchange_eta": lambda: spin_exchange_probability(cfg.pulse_duration, sp,
                                                               density=cfg.atom_density),
        "boundary_transmission": lambda: boundary_loss_budget(cfg.boundary_loss,
                                                              2).transmission,
        "boundary_added_vacuum": lambda: boundary_loss_budget(
            cfg.boundary_loss, 2).added_vacuum_fraction,
        "boundary_noise_ratio": lambda: (
            boundary_loss_budget(cfg.boundary_loss, 4).added_vacuum_fraction
            / boundary_loss_budget(cfg.boundary_loss, 2).added_vacuum_fraction),
        "residual_pump_occupation": lambda: residual_pump_occupation(sp),
        "scattered_photon_floor": lambda: scattered_photon_limit(sp),
        "far_detuned_ratio": lambda: stark_pi_pulse(
            tau, 30.0 * sp.delta2, sp).scattered_photons / scattered_photon_limit(sp),
        "zeeman_pi_omega_b": lambda: zeeman_pi_pulse(tau, sp).omega_b / (2.0 * math.pi) / 1e6,
        "zeeman_pi_field": lambda: zeeman_pi_pulse(tau, sp).required_field * 1e4,
        "stark_pi_intensity": lambda: w_m2_to_mw_cm2(
            stark_pi_pulse(tau, cfg.stark_detuning, sp).required_intensity),
        "stark_pi_scattered_photons": lambda: stark_pi_pulse(
            tau, cfg.stark_detuning, sp).scattered_photons,
        "microwave_pi_intensity": lambda: w_m2_to_w_cm2(
            microwave_pi_pulse(tau, cfg.microwave_detuning, sp).required_intensity),
        "kappa": lambda: collective_kappa(cfg).kappa_per_s,
        "k_eff": lambda: collective_kappa(cfg).k_eff,
    }
    return values[quantity]()


REGISTERED_NAMES = [
    "stark_compensation_intensity", "ac_zeeman_compensation_intensity",
    "zeeman_ladder_spread", "compensated_stark_spread", "compensated_ac_zeeman_spread",
    "zeeman_dephasing", "weak_field_dephasing", "doppler_scattering_rate",
    "scattered_photons_per_pulse", "spin_exchange_eta", "boundary_transmission",
    "boundary_added_vacuum", "boundary_noise_ratio", "residual_pump_occupation",
    "scattered_photon_floor", "far_detuned_ratio", "zeeman_pi_omega_b", "zeeman_pi_field",
    "stark_pi_intensity", "stark_pi_scattered_photons", "microwave_pi_intensity",
    "kappa", "k_eff",
]


@pytest.mark.parametrize("doc", [
    "{}", '{"omega_b_hz": 2.0e5, "species": {"gamma_d1_hz": 4.8e6, '
          '"doppler_halfwidth_hz": 2.0e8, "delta_hf_hz": 8.0e9, "f_ground": 3}}'])
def test_sweep_rows_match_the_public_functions(doc):
    config = scenario.load_scenario(doc)
    assert sorted(QUANTITIES) == sorted(REGISTERED_NAMES)
    for param, (field, conv) in scenario._SCALAR_KEYS.items():
        values = [f * scenario.DEFAULTS[param] for f in (0.5, 1.0, 1.7)]
        for quantity, (_, unit) in QUANTITIES.items():
            args = cli.build_parser().parse_args(
                ["sweep", "--param", param, "--quantity", quantity,
                 "--values=" + ",".join(map(repr, values))])
            rows = cli._sweep_rows(config, args)
            expected = [ReportRow(f"{quantity}[{param}={v:g}]", _reference_quantity(
                quantity, dataclasses.replace(config, **{field: conv(v)})), unit)
                for v in values]
            assert rows == expected, (param, quantity)


def test_cli_sweep_usage_errors(capsys):
    assert main(["sweep", "--param", "omega_b_hz", "--quantity", "zeeman_dephasing",
                 "--values", "1e5", "--start", "1e5"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--param", "omega_b_hz",
                 "--quantity", "zeeman_dephasing"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--param", "omega_b_hz", "--quantity", "zeeman_dephasing",
                 "--values", "one,two"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--param", "nonsense", "--quantity", "zeeman_dephasing",
                 "--values", "1e5"]) == 2
    capsys.readouterr()


def _fresh_cli(argv: list[str], env: dict) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "qmemcell.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_main_reused_in_process_matches_fresh_interpreters(tmp_path, monkeypatch):
    # help and usage text wrap at the terminal width: pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    src = str(Path(qmemcell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    config = tmp_path / "cfg.json"
    config.write_text('{"omega_b_hz": 2.0e5, "species": {"gamma_d1_hz": 4.8e6}}')
    sweep = ["sweep", "--param", "stark_detuning_hz",
             "--quantity", "stark_compensation_intensity", "--values", "2e9,3e9"]
    argvs = [
        ["shifts"], sweep, ["shifts", "--seed", "1"],
        ["compensate", "--format", "json", "--config", str(config)],
        ["pump", "--steps", "400"], ["sweep", "--help"], ["pulse-design", "--format", "table"],
        ["decoherence", "--config", str(config)], ["memory-sim", "--seed", "3"],
        ["paper-check"], ["compensate", "--out", "OUT"], [*sweep, "--format", "json"],
        ["shifts", "--omega-b-hz", "2e5", "--config", str(config)],
    ]

    def with_out(argv, name):
        return [str(tmp_path / name) if a == "OUT" else a for a in argv]

    expected = [_fresh_cli(with_out(argv, "fresh.csv"), env) for argv in argvs]
    assert [code for code, _, _ in expected] == [0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert [_in_process_cli(with_out(argv, "reused.csv")) for argv in argvs] == expected
        assert (tmp_path / "reused.csv").read_text() == (tmp_path / "fresh.csv").read_text()
    # one parser serves every call of the process
    assert cli.build_parser.cache_info().misses == 1


def test_cli_sweep_loads_only_its_config_file(tmp_path, monkeypatch, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"omega_b_hz": 2.0e5}')
    texts = []
    load = scenario.load_scenario
    monkeypatch.setattr(scenario, "load_scenario", lambda text: texts.append(text) or load(text))
    assert main(["sweep", "--config", str(config), "--param", "tau_s",
                 "--quantity", "spin_exchange_eta",
                 "--start", "1e-4", "--stop", "1e-3", "--num", "37"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 37
    assert texts == ['{"omega_b_hz": 2.0e5}']


# ---------------------------------------------------------------------------
# the registry of quantities

#: printed row or extras names that are registered under another name
PRINTED_AS = {"zeeman_dephasing_phase": "zeeman_dephasing", "configured_k_eff": "k_eff",
              "configured_kappa": "kappa", "omega_b_mhz": "zeeman_pi_omega_b",
              "scattered_photons": "stark_pi_scattered_photons"}
D1_OVERRIDE = '{"species": {"gamma_d1_hz": 9.12e6, "lambda_d1_m": 795e-9}}'


def _cli_json(argv, capsys):
    assert main([*argv, "--format", "json"]) in (0, 1)
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("doc", ["{}", SPECIES_OVERRIDE])
def test_every_registered_quantity_agrees_across_reports(doc, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(doc)
    config = scenario.load_scenario(doc)
    cfg = ["--config", str(path)]
    printed = []  # (report, registry name, value, unit)
    for command in ("shifts", "compensate", "pulse-design", "decoherence", "memory-sim",
                    "paper-check"):
        for row in _cli_json([command, *cfg], capsys):
            if command == "paper-check" and row["name"] == "doppler_scattering_rate":
                continue  # row 4: test_paper_check_row_4_reads_the_registry
            name = PRINTED_AS.get(row["name"], row["name"])
            if name in QUANTITIES:
                printed.append((command, name, row["value"], row["unit"]))
            for key, value in row.get("extras", {}).items():
                name = PRINTED_AS.get(key, key)
                if name in QUANTITIES:
                    printed.append((command, name, value, QUANTITIES[name][1]))
    for name in QUANTITIES:
        [row] = _cli_json(["sweep", *cfg, "--param", "tau_s", "--quantity", name,
                           "--values", repr(config.pulse_duration)], capsys)
        printed.append(("sweep", name, row["value"], row["unit"]))
    assert {name for _, name, _, _ in printed} == set(QUANTITIES)
    for report, name, value, unit in printed:
        func, want_unit = QUANTITIES[name]
        assert (value, unit) == (func(config), want_unit), (report, name)


@pytest.mark.parametrize("doc", [
    "{}",
    pytest.param(D1_OVERRIDE, marks=pytest.mark.xfail(
        strict=True, reason="paper-check row 4 keeps the cesium D1 line data until the "
                            "benchmark references are regenerated (FOUND in CHANGES.md)")),
])
def test_paper_check_row_4_reads_the_registry(doc):
    config = scenario.load_scenario(doc)
    row = paper_check_rows(config)[3]
    assert row.name == "doppler_scattering_rate"
    assert row.value == QUANTITIES["doppler_scattering_rate"][0](config)


def test_d1_override_gives_one_scattering_rate_outside_row_4(tmp_path, capsys):
    path = tmp_path / "d1.json"
    path.write_text(D1_OVERRIDE)
    cfg = ["--config", str(path)]
    rates = {row["name"]: row["value"] for row in _cli_json(["decoherence", *cfg], capsys)}
    [swept] = _cli_json(["sweep", *cfg, "--param", "omega_b_hz", "--quantity",
                         "doppler_scattering_rate", "--values", "3e5"], capsys)
    assert rates["doppler_scattering_rate"] == swept["value"] == 34.67967973110079
    [_, _, _, row_4, *_] = _cli_json(["paper-check", *cfg], capsys)
    assert row_4["value"] == 12.353833236618891


def test_cli_sweep_lists_the_registry():
    [commands] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    [quantity] = [a for a in commands.choices["sweep"]._actions if a.dest == "quantity"]
    assert list(quantity.choices) == sorted(QUANTITIES)


@pytest.mark.parametrize("doc", ["{}", D1_OVERRIDE])
@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
def test_cli_sweeps_every_registered_quantity(quantity, doc, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--config", str(path), "--param", "omega_b_hz",
                     "--quantity", quantity, "--start", "1e5", "--stop", "5e5", "--num", "5",
                     "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = json.loads(captured.out)
    assert len(rows) == 5
    assert all(math.isfinite(row["value"]) and row["unit"] == QUANTITIES[quantity][1]
               for row in rows)


@pytest.mark.parametrize("argv, rate", [
    (["pump", "--pump-rate", "1e300"], "1e+300"),
    (["pump", "--pump-rate", "1e16"], "1e+16"),
])
def test_cli_pump_too_stiff_to_conserve_population_exits_2(capsys, argv, rate):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: pump rate {rate} /s and repump rate 10000 /s ")
