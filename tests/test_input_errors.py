"""Input errors: one class that carries the refused keys as data, and the
option spellings of the command line known to ``cli`` alone.

A library error names its own parameter (``tau``, ``pump_rate``) in
``InputError.keys``; ``cli`` prints a key that is not a scenario document
key as the option whose dest it is, in argparse's own error format.
"""

import ast
import contextlib
import inspect
import io
import json
import math
import random
import re
import sys
import warnings
from pathlib import Path

import pytest

import qmemcell
from qmemcell import (InputError, ScenarioConfig, SpeciesData, cli,
                      decoherence, run_read, run_write, scenario, vacuum_state)
from qmemcell.cli import main
from qmemcell.gaussian import MEMORY_MODES_CLASS
from qmemcell.report import QUANTITIES

#: argv that a library check refuses, and the options its error line names
REFUSED_ARGV = [
    (["pump", "--steps", "-1"], ("--steps",)),
    (["pump", "--dt", "0"], ("--dt",)),
    (["pump", "--pump-rate", "-1"], ("--pump-rate",)),
    (["pulse-design", "--tau-s", "0"], ("--tau-s",)),
    (["pulse-design", "--tau-s=1e-320"], ("--tau-s",)),
    (["pulse-design", "--tau-s", "1e-300"], ("--tau-s",)),
    (["pulse-design", "--tau-s", "1e303"], ("--tau-s",)),
    (["pulse-design", "--tau-s", "3e306"], ("--tau-s",)),
    (["memory-sim", "--gain", "1e154"], ("--gain", "--k-eff")),
    (["memory-sim", "--gain", "1e300"], ("--gain", "--k-eff")),
    (["memory-sim", "--seed", "-1"], ("--seed",)),
    (["memory-sim", "--k-eff", "0"], ("--k-eff",)),
    (["pump", "--dt", "1e300", "--steps", "1000000"], ("--dt", "--steps")),
    (["pump", "--pump-rate", "1e12"], ("--pump-rate", "--repump-rate")),
    (["pump", "--pump-rate", "1.7e308"], ("--pump-rate", "--repump-rate")),
]

REFUSED_IDS = [" ".join(argv) for argv, _ in REFUSED_ARGV]

PACKAGE = Path(qmemcell.__file__).parent


def test_only_cli_spells_an_option():
    options = {option for sub in cli._subparsers().values()
               for action in sub._actions for option in action.option_strings}
    assert {"--tau-s", "--steps", "--dt", "--pump-rate", "--repump-rate"} <= options
    pattern = re.compile("|".join(rf"(?<![\w-]){re.escape(option)}(?![\w-])"
                                  for option in sorted(options)))
    spelled = {path.name: sorted(set(pattern.findall(path.read_text())))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"}
    assert {name: found for name, found in spelled.items() if found} == {}


def _string_literals(tree: ast.Module) -> list[str]:
    """Every string constant of a module but its docstrings (f-string parts included)."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docstrings]


def _names(tree: ast.Module) -> set[str]:
    """Every name a module reads, imports or takes as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def test_only_scenario_spells_a_document_key():
    # A refusal names a document key as 'key'; a key spelled unlike every config
    # field is also named by its bare word.  cli's --omega-b-hz override is the
    # one caller that passes a key to scenario_with.
    keys = [*scenario._SCALAR_KEYS, *scenario._SPECIES_KEYS]
    fields = {*ScenarioConfig._fields, *SpeciesData._fields}
    pattern = re.compile("|".join(
        rf"'{key}'" if key in fields else rf"(?<!\w){key}(?!\w)" for key in keys))
    spelled, converting = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "scenario.py":
            continue
        tree = ast.parse(path.read_text())
        found = sorted({match for text in _string_literals(tree)
                        for match in pattern.findall(text)})
        if found:
            spelled[path.name] = found
        if path.name != "constants.py" and "angular_to_hz" in _names(tree):
            converting.add(path.name)
    assert spelled == {"cli.py": ["omega_b_hz"]}
    assert converting == set()


def test_no_module_imports_a_private_scenario_name():
    private = {path.name: [alias.name for node in ast.walk(ast.parse(path.read_text()))
                           if isinstance(node, ast.ImportFrom) and node.module == "scenario"
                           for alias in node.names if alias.name.startswith("_")]
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in private.items() if found} == {}


@pytest.mark.parametrize("argv, options", REFUSED_ARGV, ids=REFUSED_IDS)
def test_refused_argv_exits_2_naming_the_option(argv, options):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert out.getvalue() == ""
    [line] = err.getvalue().splitlines()
    assert line.startswith(f"error: argument {', '.join(options)}: ")


@pytest.mark.parametrize("argv, options", REFUSED_ARGV, ids=REFUSED_IDS)
def test_refused_keys_are_actions_of_the_subcommand(argv, options):
    args = cli._parse_args(argv)
    with pytest.raises(InputError) as refused:
        cli._dispatch(args)
    actions = {action.dest: action for action in cli._subparsers()[argv[0]]._actions}
    assert len(refused.value.keys) == len(options)
    for key, option in zip(refused.value.keys, options):
        assert option in actions[key].option_strings


@pytest.mark.parametrize("argv, line", [
    (["pump", "--dt", "1e300", "--steps", "1000000"],
     "error: argument --dt, --steps: run time dt * steps = 2e+305 s overflows the rate matrix"),
    (["pump", "--pump-rate", "1e12"],
     "error: argument --pump-rate, --repump-rate: pump rate 1e+12 /s and repump rate 10000 /s "
     "are too stiff to propagate: over 0.0004 s the propagator changes the total population "
     "by up to 2.69e-09 (tolerance 1e-09)"),
    (["pump", "--pump-rate", "1.7e308"],
     "error: argument --pump-rate, --repump-rate: pump rate 1.7e+308 /s and repump rate "
     "10000 /s overflow the rate matrix"),
])
def test_pump_run_refusals_name_both_options(capsys, argv, line):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


#: two taus a decade over every positive double, 5e-324 (3e-324 rounded) to 1.7e308
SCANNED_TAUS = sorted(({float(f"{m}e{e}") for e in range(-324, 309) for m in (1, 3)}
                       - {0.0, math.inf}) | {1.7e308})


def test_pulse_design_over_every_tau_is_normal_or_refused():
    # each tau prints finite, nonzero, normal values or one line naming --tau-s
    wrong = []
    for tau in SCANNED_TAUS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["pulse-design", f"--tau-s={tau!r}"])
        values = [float(line.split(",")[1]) for line in out.getvalue().splitlines()[1:]]
        lines = err.getvalue().splitlines()
        if code == 0:
            ok = not lines and values and all(
                math.isfinite(v) and abs(v) >= sys.float_info.min for v in values)
        else:
            ok = (code == 2 and not values and len(lines) == 1
                  and lines[0].startswith("error: argument --tau-s: "))
        if not ok:
            wrong.append((tau, code, out.getvalue(), err.getvalue()))
    assert len(SCANNED_TAUS) > 1260
    assert wrong == []


def _scanned_documents(seed: int, count: int) -> list[tuple[dict, str]]:
    """``count`` documents of 1 to 3 number keys, each 10 ** uniform(-300, 300) and
    negated one time in four, with a registry quantity for each one's sweep."""
    rng = random.Random(seed)
    scalar = sorted(set(scenario._SCALAR_KEYS) - {"feedback_gain"})
    species = sorted(set(scenario._SPECIES_KEYS) - {"f_ground"})
    drawn = []
    for _ in range(count):
        doc = {}
        for key in rng.sample(scalar + species, rng.randint(1, 3)):
            value = 10 ** rng.uniform(-300, 300)
            if rng.random() < 0.25:
                value = -value
            (doc.setdefault("species", {}) if key in species else doc)[key] = value
        drawn.append((doc, rng.choice(sorted(QUANTITIES))))
    return drawn


def test_seeded_scan_of_the_scalar_subcommands_is_finite_or_keyed(tmp_path):
    # each run returns finite rows or refuses naming document keys or its own options
    path = tmp_path / "cfg.json"
    wrong = []
    for doc, quantity in _scanned_documents(20050913, 1000):
        path.write_text(json.dumps(doc))
        for argv in (["shifts"], ["compensate"], ["pulse-design"], ["decoherence"],
                     ["paper-check"], ["sweep", "--param", "tau_s", "--values", "1e-3",
                                       "--quantity", quantity]):
            dests = {action.dest for action in cli._subparsers()[argv[0]]._actions}
            try:
                rows, _ = cli._dispatch(cli._parse_args([*argv, "--config", str(path)]))
            except InputError as exc:
                if not exc.keys or not set(exc.keys) <= scenario.DOCUMENT_KEYS | dests:
                    wrong.append((doc, argv, exc.keys, str(exc)))
            except (ValueError, ArithmeticError) as exc:
                wrong.append((doc, argv, type(exc).__name__, str(exc)))
            else:
                values = [value for row in rows
                          for value in (row.value, *(row.extras or {}).values())]
                if not all(math.isfinite(value) for value in values):
                    wrong.append((doc, argv, "not finite", values))
    assert wrong == []


#: documents that each refuse the Stark detuning against the D1 doublet
_DOUBLET = ("are out of range together: stark compensation needs |delta_s| > delta2/2; "
            "between the excited components the tensor slope has the wrong sign")
_POLE = ("are out of range together: the stark detuning sits on the excited hyperfine "
         "resonance, |delta_s| within 1e-06 relative of delta2/2")
STARK_DOCUMENTS = [
    ({"stark_detuning_hz": 3e8},
     f"fields 'stark_detuning_hz' = 3e+08 Hz and 'delta2_hz' = 1.168e+09 Hz {_DOUBLET}"),
    ({"species": {"delta2_hz": 1e200}},
     f"fields 'stark_detuning_hz' = 3e+09 Hz and 'delta2_hz' = 1e+200 Hz {_DOUBLET}"),
    ({"stark_detuning_hz": 5.84e8},
     f"fields 'stark_detuning_hz' = 5.84e+08 Hz and 'delta2_hz' = 1.168e+09 Hz {_POLE}"),
]


@pytest.mark.parametrize("command", ["shifts", "compensate", "decoherence", "paper-check"])
@pytest.mark.parametrize("doc, message", STARK_DOCUMENTS)
def test_stark_doublet_and_pole_refusals_name_both_keys(tmp_path, capsys, command, doc,
                                                         message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    with pytest.raises(InputError) as refused:
        cli._dispatch(cli._parse_args(argv))
    assert refused.value.keys == ("stark_detuning_hz", "delta2_hz")


@pytest.mark.parametrize("command", ["decoherence", "paper-check"])
@pytest.mark.parametrize("species, texts", [
    ({"gamma_d1_hz": 1e300}, ("'gamma_d1_hz' = 1e+300 Hz", "is inf")),
    ({"gamma_d1_hz": 1e300, "delta2_hz": 1e-10}, ("'gamma_d1_hz' = 1e+300 Hz",
                                                  "'delta2_hz' = 1e-10 Hz", "is inf")),
])
def test_species_closed_forms_out_of_range_exit_2(tmp_path, capsys, command, species, texts):
    # decoherence printed residual_pump_occupation,inf (and scattered_photon_floor,inf)
    # with exit 0, and paper-check exited 1 with a rel_dev of inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"species": species}))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: fields 'gamma_d1_hz'")
    assert all(text in line for text in texts), line


#: the sweeps that reach the Stark and the microwave compensation formulas
_SWEEP = ["sweep", "--param", "omega_b_hz", "--values", "3e5", "--quantity"]
_STARK_SWEEP = [*_SWEEP, "stark_compensation_intensity"]
_MICROWAVE_SWEEP = [*_SWEEP, "ac_zeeman_compensation_intensity"]
_TAU_SWEEP = ["sweep", "--param", "tau_s", "--values", "1e-3", "--quantity"]
_STARK_COMMANDS = [["shifts"], ["compensate"], ["decoherence"], ["memory-sim"], ["paper-check"],
                   _STARK_SWEEP, ["pulse-design"]]

#: (document or None, argv, every key the refusal names) of the refusals keyed
#: where a Zeeman term overflows or a denominator is subnormal
KEYED_OVERFLOWS = (
    (None, ["sweep", "--param", "tau_s", "--values", "1e308", "--quantity", "zeeman_dephasing"],
     ("omega_b_hz", "tau_s", "delta_hf_hz")),
    ({"omega_b_hz": 1e150, "species": {"delta_hf_hz": 1e-200}},
     ["sweep", "--param", "tau_s", "--values", "1e-3", "--quantity", "zeeman_ladder_spread"],
     ("omega_b_hz", "delta_hf_hz")),
    ({"species": {"delta_hf_hz": 1e-300}}, _MICROWAVE_SWEEP, ("delta_hf_hz",)),
    ({"beam_area_m2": 1e-310}, ["memory-sim"], ("beam_area_m2", "tau_s")),
    (None, ["sweep", "--param", "beam_area_m2", "--values", "1e-310", "--quantity", "k_eff"],
     ("beam_area_m2", "tau_s")),
    # the weak field's Larmor frequency is fixed, not a document key
    (None, ["sweep", "--param", "tau_s", "--values", "1e308", "--quantity",
            "weak_field_dephasing"], ("tau_s", "delta_hf_hz")),
    # closed forms that printed inf with exit 0, or ended in an error naming no key
    *[({"microwave_detuning_hz": 6.453987731070459e247,
        "species": {"delta_hf_hz": 6.953461970294792e-218}}, argv,
       ("omega_b_hz", "microwave_detuning_hz", "delta_hf_hz"))
      for argv in (["shifts"], ["compensate"], ["paper-check"], _MICROWAVE_SWEEP)],
    *[({"species": {"g_f": 5.675e-284, "delta_hf_hz": 1.88e284}}, argv, ("g_f", "delta_hf_hz"))
      for argv in (["pulse-design"], ["paper-check"], [*_TAU_SWEEP, "zeeman_pi_field"])],
    *[({"species": {"delta_hf_hz": 4.95e-72, "gamma_d1_hz": 1.18e-243}}, argv,
       ("lambda_d1_m", "gamma_d1_hz", "delta_hf_hz"))
      for argv in (["shifts"], ["compensate"], ["decoherence"], ["memory-sim"])],
    *[({"species": {"delta2_hz": delta2}}, [*_TAU_SWEEP, "residual_pump_occupation"],
       ("gamma_d1_hz", "doppler_halfwidth_hz", "delta2_hz")) for delta2 in (1e-170, 9e204)],
    *[({"species": {"gamma_d1_hz": 2.2e-263, "lambda_d1_m": 2.7e60}}, argv,
       ("lambda_d1_m", "gamma_d1_hz"))
      for argv in (["decoherence"], ["pulse-design"], ["paper-check"])],
    # a tensor slope that overflows at the compensation intensity
    *[({"species": {"gamma_d1_hz": 7.77e72, "delta_hf_hz": 1.05e-137, "delta2_hz": 3.27e-209}},
       argv, ("stark_detuning_hz", "lambda_d1_m", "gamma_d1_hz", "delta2_hz"))
      for argv in (["shifts"], ["compensate"])],
    # the registry's fixed 30 Delta_2 and PI_PULSE_TAU are no document keys: the
    # keys that set them, or the pulse's slope, are named instead
    *[({"species": {"delta2_hz": delta2}}, argv, ("delta2_hz",))
      for delta2, argv in ((1e-170, ["paper-check"]), (1e-170, [*_TAU_SWEEP, "far_detuned_ratio"]),
                           (9e204, [*_TAU_SWEEP, "far_detuned_ratio"]),
                           (4.25e-299, [*_TAU_SWEEP, "far_detuned_ratio"]))],
    *[({"species": {"delta2_hz": 4.25e-299}}, [*_TAU_SWEEP, quantity],
       ("stark_detuning_hz", "delta2_hz"))
      for quantity in ("stark_pi_intensity", "stark_pi_scattered_photons")],
)
#: (document or None, argv, the document key or option dest the case set), one row
#: per subcommand that reaches the refusal
EDGE_CASES = [
    *[({"species": {"gamma_d1_hz": 1e-300}}, argv, "gamma_d1_hz") for argv in _STARK_COMMANDS],
    *[({"species": {"lambda_d1_m": 1e-200}}, argv, "lambda_d1_m") for argv in _STARK_COMMANDS],
    *[({"species": {"lambda_d1_m": 1e200}}, argv, "lambda_d1_m") for argv in _STARK_COMMANDS],
    ({"species": {"lambda_d2_m": 1e200}}, ["memory-sim"], "lambda_d2_m"),
    ({"species": {"lambda_d2_m": 1e-200}}, ["memory-sim"], "lambda_d2_m"),
    ({"species": {"delta2_hz": 1e200}}, ["pulse-design"], "delta2_hz"),
    *[({"microwave_detuning_hz": -3.6e7}, argv, "microwave_detuning_hz")
      for argv in (["shifts"], ["compensate"], ["paper-check"], _MICROWAVE_SWEEP)],
    *[({"microwave_detuning_hz": 1.7e308}, argv, "microwave_detuning_hz")
      for argv in (["pulse-design"], ["paper-check"])],
    *[({"species": {key: 1e300}}, [command], key)
      for key in ("mean_speed_m_s", "spin_exchange_cross_section_m2")
      for command in ("decoherence", "memory-sim")],
    # a Hz value whose angular frequency 2 pi f overflows, in a document or a sweep
    *[({"species": {"delta_hf_hz": 1.7e308}}, [command], "delta_hf_hz")
      for command in ("shifts", "compensate", "decoherence")],
    *[({"microwave_detuning_hz": 1.7e308}, [command], "microwave_detuning_hz")
      for command in ("shifts", "compensate")],
    (None, ["sweep", "--param", "probe_detuning_hz", "--values", "1.7e308", "--quantity",
            "k_eff"], "probe_detuning_hz"),
    # a D1 line that the compensation or pi-pulse light saturates beyond the float range
    *[({"species": {"gamma_d1_hz": 1e-290}}, argv, "gamma_d1_hz")
      for argv in (["decoherence"], ["memory-sim"], ["pulse-design"], ["paper-check"],
                   [*_SWEEP, "doppler_scattering_rate"])],
    (None, ["memory-sim", "--gain", "1e154"], "gain"),
    (None, ["memory-sim", "--gain", "1e300"], "gain"),
    (None, ["memory-sim", "--k-eff", "1e200"], "k_eff"),
    ({"feedback_gain": 1e154}, ["memory-sim"], "feedback_gain"),
    ({"feedback_gain": 1e300}, ["memory-sim"], "feedback_gain"),
    # a pulse mode whose denominator 2 eps0 A c tau underflows to zero
    *[({key: 1e-320}, ["memory-sim"], key) for key in ("tau_s", "beam_area_m2")],
    *[(None, ["sweep", "--param", "tau_s", "--values", "1e-320", "--quantity", quantity],
       "tau_s") for quantity in ("kappa", "k_eff")],
    # a budget quantity of 1 or more, refused where it is computed
    (None, ["sweep", "--param", "tau_s", "--values", "1e308", "--quantity",
            "spin_exchange_eta"], "tau_s"),
    ({"tau_s": 1.7e308}, ["paper-check"], "tau_s"),
    (None, ["sweep", "--param", "tau_s", "--values", "1e300", "--quantity",
            "scattered_photons_per_pulse"], "tau_s"),
    # a Zeeman ladder or class dephasing that overflows, refused where it is
    # computed; a compensation denominator Delta_hf mu_B^2 or a mode denominator
    # 2 eps0 A c tau below the smallest normal float
    *[(doc, argv, keys[0]) for doc, argv, keys in KEYED_OVERFLOWS],
]


@pytest.mark.parametrize("doc, argv, key", EDGE_CASES,
                         ids=[f"{json.dumps(doc)} {' '.join(argv)}" for doc, argv, _ in EDGE_CASES])
def test_edge_inputs_exit_2_on_one_keyed_line(tmp_path, capsys, doc, argv, key):
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # a warning is printed to stderr, as on the command line
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "Warning" not in line
    with pytest.raises(InputError) as refused:
        cli._dispatch(cli._parse_args(argv))
    assert key in refused.value.keys


@pytest.mark.parametrize("doc, argv, keys", KEYED_OVERFLOWS,
                         ids=[" ".join(argv) for _, argv, _ in KEYED_OVERFLOWS])
def test_overflow_refusals_name_every_key(tmp_path, doc, argv, keys):
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(path)]
    with pytest.raises(InputError) as refused:
        cli._dispatch(cli._parse_args(argv))
    assert refused.value.keys == keys


def test_hyperfine_splitting_keeps_the_compensation_denominator_normal():
    with pytest.raises(InputError, match=r"^field 'delta_hf_hz' = 1e-300 is out of range: the "
                                         r"compensation denominator Delta_hf mu_B\^2 "
                                         r"underflows$") as refused:
        scenario.load_scenario('{"species": {"delta_hf_hz": 1e-300}}')
    assert refused.value.keys == ("delta_hf_hz",)
    # just above the limit, about 4e-263 Hz, the compensation intensity is finite
    point = qmemcell.default_scenario()
    species = scenario.load_scenario('{"species": {"delta_hf_hz": 1e-262}}').species
    assert 0.0 < qmemcell.ac_zeeman_compensation_intensity(
        point.omega_b, point.microwave_detuning, species) < math.inf


def test_species_refusals_name_the_line_data():
    # the Stark formulas scale with lambda_d1^3 gamma_d1; a subnormal product
    # has lost its digits, whatever the scenario's own keys
    species = scenario.load_scenario('{"species": {"gamma_d1_hz": 1e-300}}').species
    point = qmemcell.default_scenario()
    with pytest.raises(InputError, match=r"^fields 'lambda_d1_m' = 8\.946e-07 m and 'gamma_d1_hz' "
                                         r"= 1e-300 Hz are out of range together: the D1 line "
                                         r"strength lambda\^3 gamma is 4\.49") as refused:
        qmemcell.stark_compensation_intensity(point.omega_b, point.stark_detuning, species)
    assert refused.value.keys == ("lambda_d1_m", "gamma_d1_hz")
    with pytest.raises(InputError, match=r"^field 'lambda_d2_m' = 1e\+200 is out of range: the "
                                         r"cube lambda\^3 underflows or overflows$") as refused:
        scenario.load_scenario('{"species": {"lambda_d2_m": 1e200}}')
    assert refused.value.keys == ("lambda_d2_m",)
    # a slope of -0.0 per unit intensity: the Stark denominator overflows
    species = scenario.load_scenario('{"species": {"delta2_hz": 1e200}}').species
    with pytest.raises(InputError, match=r"are out of range together: the pi pulse needs a D1 "
                                         r"intensity \(W/m\^2\) of inf, at a slope of -0\.0 per "
                                         r"unit intensity$") as refused:
        qmemcell.stark_pi_intensity(30e-6, point.stark_detuning, species)
    assert refused.value.keys == ("stark_detuning_hz", "delta2_hz")


def test_hz_overflow_and_d1_saturation_refusals_name_their_keys():
    # 2 pi f overflows above about 2.86e307 Hz; a value just below it converts
    with pytest.raises(InputError, match=r"^field 'delta_hf_hz' = 1\.7e\+308 is out of range: "
                                         r"the angular frequency 2 pi f overflows$") as refused:
        scenario.load_scenario('{"species": {"delta_hf_hz": 1.7e308}}')
    assert refused.value.keys == ("delta_hf_hz",)
    point = qmemcell.default_scenario()
    with pytest.raises(InputError, match=r"^field 'probe_detuning_hz' = -1\.7e\+308 is out of "
                                         r"range: the angular frequency") as refused:
        qmemcell.scenario_with(point, "probe_detuning_hz", -1.7e308)
    assert refused.value.keys == ("probe_detuning_hz",)
    assert qmemcell.scenario_with(point, "probe_detuning_hz", 2.8e307).probe_detuning < math.inf
    # I/I_sat of a 1e-290 Hz line overflows at the compensation intensity
    species = scenario.load_scenario('{"species": {"gamma_d1_hz": 1e-290}}').species
    intensity = qmemcell.stark_compensation_intensity(point.omega_b, point.stark_detuning,
                                                      species)
    with pytest.raises(InputError, match=r"^fields 'lambda_d1_m' = 8\.946e-07 m and 'gamma_d1_hz' "
                                         r"= 1e-290 Hz are out of range together: at 5\.09e\+297 "
                                         r"W/m\^2 the D1 saturation parameter I/I_sat "
                                         r"overflows$") as refused:
        decoherence.edge_scattering_rate(intensity, point.stark_detuning, species)
    assert refused.value.keys == ("lambda_d1_m", "gamma_d1_hz")


def test_protocol_overflow_names_the_document_gain(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"feedback_gain": 1e300}')
    assert main(["memory-sim", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: argument --k-eff: field 'feedback_gain' = 1e+300 is the protocol gain, and "
            "the protocol fails at gain=1e+300, k_eff=1.0: the protocol map is not finite\n")


#: (arguments of run_write and run_read, the parameters the refusal names, the
#: start of its message)
PROTOCOL_REFUSALS = [
    (dict(k_eff=0.0), ("k_eff",), r"k_eff must be nonzero$"),
    (dict(k_eff=math.nan), ("k_eff",), r"pass strength must be finite, got k_eff=nan$"),
    (dict(k_eff=-math.inf), ("k_eff",), r"pass strength must be finite, got k_eff=-inf$"),
    (dict(k_eff=1e200), ("gain", "k_eff"), r"the protocol fails at gain=-1e-200, k_eff=1e\+200"),
    (dict(k_eff=1.0, gain=math.inf), ("gain", "k_eff"), r"the protocol fails at gain=inf, "),
    (dict(k_eff=1e200, policy="sample", seed=1), ("gain", "k_eff"),
     r"the protocol fails at .*: homodyne variance must be finite"),
    (dict(k_eff=1.0, state=vacuum_state(MEMORY_MODES_CLASS)), ("state",),
     r"protocol states must use the \(light_c, light_s, atom_plus, atom_minus\) layout"),
    (dict(k_eff=1.0, seed=-1), ("seed",), r"seed must be a non-negative integer, got -1$"),
    (dict(k_eff=1.0, policy="bogus"), ("policy",), r"unknown outcome policy 'bogus'$"),
    (dict(k_eff=1.0, policy="sample"), ("policy", "seed"), r"policy 'sample' requires a seed$"),
]


@pytest.mark.parametrize("run", [run_write, run_read])
@pytest.mark.parametrize("kwargs, keys, message", PROTOCOL_REFUSALS,
                         ids=[repr({key: "class basis" if key == "state" else value
                                    for key, value in kwargs.items()})
                              for kwargs, _, _ in PROTOCOL_REFUSALS])
def test_protocol_refusals_name_their_own_parameters(run, kwargs, keys, message):
    # a refusal names the parameters that caused it, not whichever the run
    # was handling when it surfaced
    assert inspect.signature(run) == inspect.signature(run_write)
    with pytest.raises(InputError, match=f"^{message}") as refused:
        run(**kwargs)
    assert refused.value.keys == keys
    assert set(keys) <= set(inspect.signature(run_write).parameters)
