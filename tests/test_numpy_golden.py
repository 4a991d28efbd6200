"""Rows of the numpy subcommands, ``memory-sim`` and ``pump``, against
committed values.

``numpy_golden.json`` holds per case the exit code, stderr, and each
row's name, unit and value ``repr``.  Names, units, exit codes and stderr
must match exactly.  Values must match to 1e-12 relative, the renderers'
round-trip bound, which also leaves room for the last digits of another
BLAS build; a committed value of 0 must match exactly, sign included.

A change meant to move a value regenerates the file, and CHANGES.md
gives the reason:

    PYTHONPATH=src python tests/test_numpy_golden.py
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from qmemcell.cli import main
from test_cli_golden import DOCUMENTS, write_documents

GOLDEN = Path(__file__).with_name("numpy_golden.json")

REL_TOL = 1e-12

MEMORY_SIM = [["memory-sim", *seed, "--k-eff", k_eff, *gain, "--config", doc]
              for doc in DOCUMENTS
              for seed in ([], ["--seed", "3"], ["--seed", "11"])
              for k_eff in ("0.5", "1", "1.7")
              for gain in ([], ["--gain", "-0.8"])]

PUMP = [["pump", *rates, "--config", "cesium.json"] for rates in (
    [],
    ["--pump-rate", "1e3", "--repump-rate", "1e5"],
    ["--pump-rate", "1e6", "--repump-rate", "0"],
    ["--pump-rate", "2.5e4", "--dt", "1e-5", "--steps", "137"],
    # refused: two options and a document key
    ["--steps", "-1"],
    ["--pump-rate", "-1"],
)] + [["pump", "--config", "f_ground_3.json"]]

#: the cases also printed as a table and as JSON: the packaged point's unit
#: pass, unseeded and at seed 3, and two pump runs
ALL_FORMATS = [MEMORY_SIM[2], MEMORY_SIM[8], PUMP[0], PUMP[3]]

CASES = {" ".join(argv): argv for argv in
         [[*argv, "--format", "csv"] for argv in MEMORY_SIM + PUMP]
         + [[*argv, "--format", fmt] for argv in ALL_FORMATS for fmt in ("table", "json")]}


def parse_rows(text: str, fmt: str) -> list[list[str]]:
    """``[name, unit, repr(value)]`` of each row of a rendered report."""
    if fmt == "json":
        rows = [(doc["name"], doc["value"], doc["unit"]) for doc in json.loads(text)]
    elif fmt == "csv":
        rows = [row[:3] for row in csv.reader(text.splitlines()[1:])]
    else:  # the table's cells hold no spaces; skip its header and rule lines
        rows = [line.split()[:3] for line in text.splitlines()[2:]]
    return [[name, unit, repr(float(value))] for name, value, unit in rows]


def outcome(argv: list[str]) -> dict:
    """Exit code, stderr and parsed rows of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    rows = parse_rows(out.getvalue(), argv[argv.index("--format") + 1]) if out.getvalue() else []
    return {"exit": code, "stderr": err.getvalue(), "rows": rows}


def _same_value(value: str, want: str) -> bool:
    if float(want) == 0.0:
        return value == want
    return math.isclose(float(value), float(want), rel_tol=REL_TOL, abs_tol=0.0)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("numpy_golden")
    write_documents(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_the_golden_file_lists_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_numpy_subcommand_rows_are_unchanged(case, documents, golden, monkeypatch):
    monkeypatch.chdir(documents)
    got, want = outcome(CASES[case]), golden[case]
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert [row[:2] for row in got["rows"]] == [row[:2] for row in want["rows"]]
    for (name, _, value), (_, _, expected) in zip(got["rows"], want["rows"]):
        assert _same_value(value, expected), (name, value, expected)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_documents(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            cases = {case: outcome(argv) for case, argv in CASES.items()}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
