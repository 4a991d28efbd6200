"""Byte identity of the scalar subcommands against committed digests,
of the decoherence report's rows against the quantity registry, and of
``main``'s argument parsing against argparse's nested path.

``cli_golden.json`` holds one sha256 of ``(exit code, stdout, stderr)``
per case: each scalar subcommand (``shifts``, ``compensate``,
``pulse-design``, ``decoherence``, ``paper-check``, ``sweep``) in every
output format, on the packaged cesium point and on seven edge documents.
The scalar subcommands load no numpy, so their bytes do not depend on a
BLAS build.  A refactor that keeps the reports leaves every digest as it
is.

Regenerate the file only for a change that is meant to alter the output,
and list the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from qmemcell import DecoherenceBudget, InputError, cli, load_scenario
from qmemcell.cli import build_parser, main
from qmemcell.report import QUANTITIES, decoherence_rows

GOLDEN = Path(__file__).with_name("cli_golden.json")

#: scenario documents by file name: the packaged point and seven edge cases
DOCUMENTS = {
    "cesium.json": json.loads((Path(__file__).parents[1] / "cesium.json").read_text()),
    "d1.json": {"species": {"gamma_d1_hz": 9.12e6, "lambda_d1_m": 795e-9}},
    "f_ground_3.json": {"species": {"f_ground": 3}},
    "boundary_loss_0.json": {"boundary_loss": 0.0},
    "omega_b_1e150.json": {"omega_b_hz": 1e150},
    "tau_1e-300.json": {"tau_s": 1e-300},
    # the two species keys read by scenario._checked_number
    "g_f_cross_section.json": {"species": {"g_f": 0.2503,
                                           "spin_exchange_cross_section_m2": 1.0e-18}},
    # a Doppler width so narrow that the Voigt form overflows: its zero-width limit
    "doppler_1e-300.json": {"species": {"doppler_halfwidth_hz": 1e-300}},
}

COMMANDS = (
    ("shifts",),
    ("compensate",),
    ("pulse-design", "--tau-s", "30e-6"),
    ("pulse-design", "--tau-s", "1e-320"),
    ("pulse-design", "--tau-s", "0"),
    ("decoherence",),
    ("paper-check",),
    ("sweep", "--param", "boundary_loss", "--quantity", "boundary_noise_ratio",
     "--values", "0.001,0.01,0.5"),
    ("sweep", "--param", "tau_s", "--quantity", "spin_exchange_eta",
     "--start", "1e-4", "--stop", "1e-3", "--num", "3"),
)

FORMATS = ("csv", "table", "json")

CASES = {" ".join((*command, "--format", fmt, "--config", doc)):
         [*command, "--format", fmt, "--config", doc]
         for doc in DOCUMENTS for command in COMMANDS for fmt in FORMATS}


def write_documents(directory: Path) -> None:
    for name, doc in DOCUMENTS.items():
        (directory / name).write_text(json.dumps(doc))


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_documents(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_the_golden_file_lists_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_scalar_subcommand_output_is_unchanged(case, documents, golden, monkeypatch):
    monkeypatch.chdir(documents)
    assert digest(CASES[case]) == golden[case]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_decoherence_rows_are_their_registry_quantities(name):
    # the report prints what the registry computes, bit for bit (repr
    # tells every double apart, signed zeros included)
    config = load_scenario(json.dumps(DOCUMENTS[name]))
    try:
        DecoherenceBudget.from_scenario(config)
    except InputError:
        # a pulse the budget refuses prints no rows
        with pytest.raises(InputError):
            decoherence_rows(config)
        return
    for row in decoherence_rows(config):
        func, unit = QUANTITIES[row.name]
        assert (repr(row.value), row.unit) == (repr(func(config)), unit), row.name


#: argv that parse: every golden command, a negative value, an attached
#: value and an abbreviated option
PARSED = [*map(list, COMMANDS), ["pump", "--dt", "-1e-6"], ["pump", "--pump-rate=1e4"],
          ["shifts", "--form", "json"]]
#: argv that argparse refuses or answers with a help text
REFUSED = [[], ["-h"], ["shifts", "-h"], ["nope"], ["--format", "csv", "shifts"],
           ["shifts", "--bogus"], ["shifts", "extra"], ["shifts", "--", "x"],
           ["pump", "--steps", "x"]]


def _argv_id(argv):
    return " ".join(argv) or "<none>"


@pytest.mark.parametrize("argv", PARSED, ids=_argv_id)
def test_main_parses_as_the_nested_parser(argv, monkeypatch):
    parsed = []

    def dispatch(args):
        parsed.append(args)
        return [], 0

    monkeypatch.setattr(cli, "_dispatch", dispatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert vars(parsed[0]) == vars(build_parser().parse_args(argv))


def _outcome(call) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``call``; a SystemExit's code as ``main`` returns it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = int(exc.code) if exc.code else 0
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", REFUSED, ids=_argv_id)
def test_main_refuses_and_helps_as_the_nested_parser(argv):
    # the oracle is argparse itself on this Python, so its texts may change
    # with the version but main's must follow them
    nested = _outcome(lambda: build_parser().parse_args(argv))
    assert nested[1] or nested[2]
    assert _outcome(lambda: main(argv)) == nested


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_documents(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            digests = {case: digest(argv) for case, argv in CASES.items()}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
