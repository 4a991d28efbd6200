"""Input errors: one class that carries the refused keys as data, and the
option spellings of the command line known to ``cli`` alone.

A library error names its own parameter (``tau``, ``pump_rate``) in
``InputError.keys``; ``cli`` prints a key that is not a scenario document
key as the option whose dest it is, in argparse's own error format.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import qmemcell
from qmemcell import InputError, ScenarioError, cli
from qmemcell.cli import main

#: argv that a library check refuses, and the option each error line names
REFUSED_ARGV = [
    (["pump", "--steps", "-1"], "--steps"),
    (["pump", "--dt", "0"], "--dt"),
    (["pump", "--pump-rate", "-1"], "--pump-rate"),
    (["pulse-design", "--tau-s", "0"], "--tau-s"),
    (["pulse-design", "--tau-s=1e-320"], "--tau-s"),
    (["memory-sim", "--seed", "-1"], "--seed"),
    (["memory-sim", "--k-eff", "0"], "--k-eff"),
]


def _argv_id(argv):
    return " ".join(argv[0])


def test_scenario_error_is_the_input_error_class():
    assert ScenarioError is InputError
    assert issubclass(InputError, ValueError)


def test_only_cli_spells_an_option():
    options = {option for sub in cli._subparsers().values()
               for action in sub._actions for option in action.option_strings}
    assert {"--tau-s", "--steps", "--dt", "--pump-rate", "--repump-rate"} <= options
    pattern = re.compile("|".join(rf"(?<![\w-]){re.escape(option)}(?![\w-])"
                                  for option in sorted(options)))
    package = Path(qmemcell.__file__).parent
    spelled = {path.name: sorted(set(pattern.findall(path.read_text())))
               for path in sorted(package.glob("*.py")) if path.name != "cli.py"}
    assert {name: found for name, found in spelled.items() if found} == {}


@pytest.mark.parametrize("argv, option", REFUSED_ARGV, ids=_argv_id)
def test_refused_argv_exits_2_naming_the_option(argv, option):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert out.getvalue() == ""
    [line] = err.getvalue().splitlines()
    assert line.startswith(f"error: argument {option}: ")


@pytest.mark.parametrize("argv, option", REFUSED_ARGV, ids=_argv_id)
def test_refused_keys_are_actions_of_the_subcommand(argv, option):
    args = cli._parse_args(argv)
    with pytest.raises(InputError) as refused:
        cli._dispatch(args)
    actions = {action.dest: action for action in cli._subparsers()[argv[0]]._actions}
    assert refused.value.keys
    for key in refused.value.keys:
        assert option in actions[key].option_strings


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
