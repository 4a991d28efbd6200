"""Every ``def`` under ``src/qmemcell`` is run by a subcommand, or is named
in ``ALLOWLIST`` with the consumer that keeps it.

A fresh interpreter installs a profile hook before it imports the
package, so the builders that run at import count too.  It then runs
``cli.main`` in process on every argv of ``cli_golden.json`` and
``numpy_golden.json`` and on one ``sweep`` per registry quantity, and
reports the functions it entered.  A helper no subcommand runs arrives
with the subcommand that uses it, or with an allowlist entry that names
its consumer; an entry whose function is gone or now runs is refused too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmemcell
from qmemcell.report import QUANTITIES
from test_cli_golden import write_documents

TESTS = Path(__file__).parent
PACKAGE = Path(qmemcell.__file__).resolve().parent

#: qualified name (module stem, then ``__qualname__``) -> the consumer that
#: keeps a def that no subcommand runs
ALLOWLIST = {
    # benchmark calls
    "gaussian.displace": "bench/run.py builds the protocol workload's inputs with it",
    "gaussian.GaussianState.mode_index": "gaussian.displace, for bench/run.py",
    "__init__.__getattr__": "`import qmemcell` exports, as the benchmark's setup_s child uses",
    # planned consumers (ROADMAP)
    "memory._stage_channels": "the per-stage trace of ROADMAP items 6 and 13",
    "pumping.PumpLevelSystem.dark_split": "ROADMAP item 5: the split acceptance test 17 checks",
    "scenario.scenario_to_document": "the provenance block of ROADMAP item 6",
    # test references and library protocol
    "gaussian.GaussianChannel.__new__": "the checked constructor for library callers and tests",
    "gaussian.GaussianChannel.then": "composition in the acceptance suite and test_memory",
    "gaussian.GaussianChannel.propagate": "test_memory's bit-for-bit oracle of the fold",
    "gaussian.GaussianChannel.apply": "the acceptance suite and test_memory apply channels",
    "gaussian.GaussianChannel._make": "named-tuple protocol, checked like the constructor",
    "decoherence.DecoherenceBudget._make": "named-tuple protocol, checked like the constructor",
    "pumping.PumpLevelSystem._make": "named-tuple protocol, checked like the constructor",
}

#: runs in the fresh interpreter: argv lists and a working directory on
#: stdin, the entered (file, qualified name) pairs on stdout
CHILD = """
import contextlib, io, json, os, sys
job = json.load(sys.stdin)
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
from qmemcell.cli import main
os.chdir(job["cwd"])
for argv in job["argv"]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
sys.setprofile(None)
json.dump(sorted({(code.co_filename, code.co_qualname) for code in entered}), sys.stdout)
"""


def defined() -> set[str]:
    """``module.qualname`` of every def in the package's modules."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return names


def subcommand_argv() -> list[list[str]]:
    """Every golden argv, then one sweep of each registry quantity."""
    argv = [key.split() for name in ("cli_golden.json", "numpy_golden.json")
            for key in json.loads((TESTS / name).read_text())]
    return argv + [["sweep", "--param", "tau_s", "--values", "1e-3", "--quantity", quantity]
                   for quantity in QUANTITIES]


@pytest.fixture(scope="module")
def entered(tmp_path_factory) -> set[str]:
    cwd = tmp_path_factory.mktemp("reachability")
    write_documents(cwd)
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          input=json.dumps({"cwd": str(cwd), "argv": subcommand_argv()}),
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {f"{Path(filename).stem}.{qualname}" for filename, qualname in json.loads(proc.stdout)
            if Path(filename).resolve().parent == PACKAGE}


def test_every_def_is_run_or_allowlisted(entered):
    assert sorted(defined() - entered - ALLOWLIST.keys()) == []


def test_every_allowlisted_def_exists():
    assert sorted(ALLOWLIST.keys() - defined()) == []


def test_no_allowlisted_def_is_run(entered):
    assert sorted(ALLOWLIST.keys() & entered) == []
