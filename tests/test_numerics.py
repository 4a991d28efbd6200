"""Plain-numpy kernels against scipy, the scipy-free runtime, the
named-tuple records, and which subcommands load numpy and dataclasses."""

import ast
import copy
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.special import wofz

import qmemcell
from qmemcell import (CESIUM, CODATA, CouplingSet, DecoherenceBudget, PhysicalConstants,
                      ShiftLadder, SpeciesData, cli, default_scenario, symplectic_form,
                      zeeman_ladder)
from qmemcell.decoherence import _WEIDEMAN, _WEIDEMAN_L, faddeeva
from qmemcell.gaussian import GaussianChannel
from qmemcell.pumping import PumpLevelSystem, expm, uniform_f4_system
from qmemcell.report import ReportRow


@pytest.mark.parametrize("scale", [0.0, 1e-3, 0.5, 4.0, 30.0, 200.0])
def test_expm_matches_scipy_on_dense_matrices(scale):
    rng = np.random.default_rng(11)
    for size in (1, 2, 5, 16):
        a = scale * rng.normal(size=(size, size)) / np.sqrt(size)
        ref = scipy_expm(a)
        assert np.max(np.abs(expm(a) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("t", [0.3, 3.0, 40.0])
def test_expm_matches_scipy_on_symplectic_generators(t):
    # Omega H with H symmetric: a rotation part keeps the exponential
    # bounded while the 1-norm of the generator needs squaring
    rng = np.random.default_rng(5)
    n = 4
    omega = symplectic_form(n)
    h = rng.normal(size=(2 * n, 2 * n))
    h = 0.05 * (h + h.T) + np.eye(2 * n)
    gen = omega @ h * t
    assert np.any(np.linalg.matrix_power(gen, 2 * n + 1))   # not nilpotent
    s = expm(gen)
    ref = scipy_expm(gen)
    assert np.max(np.abs(s - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(s @ omega @ s.T - omega)) <= 1e-10


def test_expm_keeps_zero_columns_exact():
    # an absorbing state of a rate matrix stays exactly absorbing
    a = np.array([[0.0, 2.0e5], [0.0, -2.0e5]])
    out = expm(a)
    assert np.array_equal(out[:, 0], [1.0, 0.0])
    assert out[0, 1] + out[1, 1] == pytest.approx(1.0, abs=1e-15)


def test_expm_validation():
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        expm(np.array([[np.nan]]))
    with pytest.raises(ArithmeticError, match="overflow"):
        expm(np.array([[1.0e3]]))


def test_faddeeva_matches_scipy():
    rng = np.random.default_rng(2)
    y = 10.0 ** rng.uniform(-5.0, 7.0, size=4000)
    x = rng.choice([-1.0, 1.0], size=4000) * 10.0 ** rng.uniform(-8.0, 7.0, size=4000)
    z = x + 1j * y
    ref = wofz(z)
    got = faddeeva(z)
    assert np.max(np.abs(got.real - ref.real) / np.abs(ref.real)) <= 2e-9
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-9
    # scalar input gives the same value as the array path
    assert faddeeva(complex(z[0])) == pytest.approx(got[0], rel=1e-15)


def test_weideman_coefficients_are_the_frozen_literals():
    # Weideman's construction: cosine transform of exp(-t^2)(L^2 + t^2)
    # sampled at t = L tan(theta/2), highest degree first
    n = 64
    big_l = math.sqrt(n / math.sqrt(2.0))
    m = 2 * n
    k = np.arange(-m + 1, m)
    t = big_l * np.tan(k * math.pi / (2 * m))
    f = np.exp(-t * t) * (big_l * big_l + t * t)
    a = np.cos(np.outer(np.arange(1, n + 1), k) * math.pi / m) @ f / (2 * m)
    assert _WEIDEMAN_L == big_l
    assert _WEIDEMAN == tuple(float(c) for c in a[::-1])


def test_lazy_exports_resolve():
    for name in qmemcell.__all__:
        home = importlib.import_module(f"qmemcell.{qmemcell._EXPORTS[name]}")
        assert getattr(qmemcell, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        qmemcell.no_such_name


def _fresh_python(code: str) -> str:
    src = str(Path(qmemcell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("QMEMCELL_CONFIG", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout


def test_import_does_not_load_scipy():
    code = ("import sys, qmemcell, qmemcell.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).strip() == "[]"


_SWEEP = ["sweep", "--param", "omega_b_hz", "--start", "1e5", "--stop", "1e6", "--num", "4",
          "--quantity"]
SCALAR_ARGVS = [
    ["shifts"], ["shifts", "--omega-b-hz", "2e5", "--format", "json"], ["compensate"],
    ["pulse-design", "--format", "table"], ["decoherence"], ["paper-check"],
    *([*_SWEEP, q] for q in ("stark_compensation_intensity",
                             "ac_zeeman_compensation_intensity", "zeeman_dephasing",
                             "doppler_scattering_rate", "spin_exchange_eta", "k_eff")),
]

# runs subcommands through cli.main with the modules named in
# poison made unimportable, and prints exit codes, stdout and which of
# numpy and the dataclass machinery got loaded
_SCALAR_RUN = """
import contextlib, io, json, sys
for name in {poison!r}:
    sys.modules[name] = None
import qmemcell
qmemcell.load_scenario_file({config!r})
from qmemcell.cli import main
runs = []
for argv in {argvs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([main(argv), out.getvalue()])
loaded = sorted(m for m, mod in sys.modules.items() if mod is not None
                and m.split(".")[0] in ("numpy", "dataclasses", "inspect"))
print(json.dumps({{"runs": runs, "loaded": loaded}}))
"""


def test_scalar_subcommands_run_without_numpy(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"omega_b_hz": 2.0e5, "species": {"gamma_d1_hz": 4.8e6}}')
    argvs = [[*argv, "--config", str(config)] for argv in SCALAR_ARGVS] + SCALAR_ARGVS
    plain, *poisoned = [json.loads(_fresh_python(_SCALAR_RUN.format(
        poison=poison, config=str(config), argvs=argvs)))
        for poison in ((), ("numpy",), ("dataclasses",))]
    for run in poisoned:
        assert run == plain
    # neither numpy nor the dataclass machinery: the records are namedtuples
    assert plain["loaded"] == []
    for argv, (code, out) in zip(argvs, plain["runs"]):
        assert out.startswith(("name,", "[", "quantity")), argv
        # paper-check reports its windows; at these points the magnetic
        # pi-pulse field row falls outside (the documented discrepancy)
        assert code == (1 if argv[0] == "paper-check" else 0), argv


#: the named-tuple records, module.class -> fields in order: the scalar path's,
#: then the two of the numpy side, which hold read-only arrays
SCALAR_RECORDS = {
    "constants.PhysicalConstants": "hbar c epsilon0 mu_bohr",
    "scenario.SpeciesData": "lambda_d1 lambda_d2 gamma_d1 gamma_d2 delta_hf delta2 "
                             "doppler_halfwidth mean_speed spin_exchange_cross_section "
                             "f_ground g_f",
    "scenario.ScenarioConfig": "omega_b pulse_duration probe_detuning stark_detuning "
                               "microwave_detuning atom_number photon_number beam_area "
                               "atom_density boundary_loss feedback_gain species",
    "shifts.ShiftLadder": "f_ground values",
    "shifts.CouplingSet": "kappa_per_s kappa_tau k_eff",
    "decoherence.DecoherenceBudget": "eta n_phot boundary_loss",
    "report.ReportRow": "name value unit reference low high status extras",
    "gaussian.GaussianChannel": "x y",
    "pumping.PumpLevelSystem": "populations pump_rate repump_rate",
}

#: two instances of each record that differ in every field
RECORD_PAIRS = {
    "constants.PhysicalConstants": (CODATA, PhysicalConstants(1.0, 2.0, 3.0, 4.0)),
    "scenario.SpeciesData": (CESIUM, SpeciesData(*[float(i) for i in range(1, 10)], 3, 0.5)),
    "scenario.ScenarioConfig": (
        default_scenario(), default_scenario()._make([*range(1, 12), CESIUM._replace(g_f=0.5)])),
    "shifts.ShiftLadder": (zeeman_ladder(1.0e6), ShiftLadder(3, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))),
    "shifts.CouplingSet": (CouplingSet(1.0, 2.0, 3.0), CouplingSet(-1.0, -2.0, -3.0)),
    "decoherence.DecoherenceBudget": (DecoherenceBudget(),
                                      DecoherenceBudget(0.1, 0.2, 0.3)),
    "report.ReportRow": (ReportRow("a", 1.0, "1"),
                         ReportRow("b", 1.1, "mW", 1.0, 0.9, 1.2, "PASS", {"x": 2.0})),
    "gaussian.GaussianChannel": (GaussianChannel(np.eye(4), np.zeros((4, 4))),
                                 GaussianChannel(2.0 * np.eye(4), np.ones((4, 4)))),
    "pumping.PumpLevelSystem": (uniform_f4_system(1.0e4, 2.0e4),
                                PumpLevelSystem(np.full(16, 1.0 / 16.0), 5.0e3, 0.0)),
}
#: records that check their fields on every construction: changes each must
#: refuse, as (field, value, message)
REFUSED_CHANGES = {
    "decoherence.DecoherenceBudget": [("eta", 1.0, "eta must lie")],
    "gaussian.GaussianChannel": [("x", np.diag([1.0, np.inf, 1.0, 1.0]),
                                  "channel X must be finite")],
    "pumping.PumpLevelSystem": [("pump_rate", -5.0, "pump_rate must be"),
                                ("populations", np.zeros(15), "length 16"),
                                ("populations", np.full(16, 1.0), "sum to 1"),
                                ("populations", np.full((4, 4), 1.0 / 16.0), "1-D array")],
}


def _same_fields(a, b) -> bool:
    """Field-wise equality; tuple ``==`` raises on array fields."""
    return len(a) == len(b) and all(
        np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v for u, v in zip(a, b))


@pytest.mark.parametrize("path", SCALAR_RECORDS)
def test_scalar_records_are_slotted_namedtuples(path):
    module, name = path.split(".")
    cls = getattr(importlib.import_module(f"qmemcell.{module}"), name)
    assert issubclass(cls, tuple) and cls.__name__ == name
    assert cls._fields == tuple(SCALAR_RECORDS[path].split())
    # no instance dict: a record holds its fields and nothing else
    assert cls.__dict__["__slots__"] == () and cls.__dictoffset__ == 0


@pytest.mark.parametrize("path", SCALAR_RECORDS)
def test_scalar_records_copy_pickle_make_and_replace(path):
    record, other = RECORD_PAIRS[path]
    cls = type(record)
    assert f"{cls.__module__}.{cls.__name__}" == f"qmemcell.{path}"
    for rebuilt in (copy.copy(record), pickle.loads(pickle.dumps(record)),
                    cls._make(tuple(record))):
        assert type(rebuilt) is cls and _same_fields(rebuilt, record)
        assert not any(v.flags.writeable for v in rebuilt if isinstance(v, np.ndarray))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], getattr(other, cls._fields[0]))
    for field in cls._fields:
        new = getattr(other, field)
        changed = record._replace(**{field: new})
        assert type(changed) is cls
        assert _same_fields(changed, tuple(new if f == field else getattr(record, f)
                                           for f in cls._fields))
    for field, value, message in REFUSED_CHANGES.get(path, ()):
        with pytest.raises(ValueError, match=message):
            record._replace(**{field: value})
        with pytest.raises(ValueError, match=message):
            cls._make(value if f == field else getattr(record, f) for f in cls._fields)


#: the scalar modules in layer order: each imports only the ones before it
SCALAR_LAYERS = ("constants", "scenario", "shifts", "decoherence", "report", "cli")
#: the only imports inside functions: the numpy side, loaded when its rows are built
DEFERRED_IMPORTS = {("report", "pump_rows", "pumping"), ("report", "memory_sim_rows", "gaussian"),
                    ("report", "memory_sim_rows", "memory")}
#: the numpy side: each module and the package modules it imports (scenario
#: for InputError)
NUMPY_IMPORTS = {"gaussian": set(), "pumping": {"scenario"},
                 "memory": {"decoherence", "gaussian", "scenario"}}
#: the only modules that import dataclasses, for GaussianState and ProtocolResult
DATACLASS_MODULES = {"gaussian", "memory"}


def _package_imports(tree):
    """(enclosing function or None, qmemcell module) of each package import in ``tree``."""
    enclosing = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):  # inner functions come later and win
                enclosing[node] = func.name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qmemcell."):
            targets = [node.module.split(".")[1]]
        elif isinstance(node, ast.Import):
            targets = [a.name.split(".")[1] for a in node.names
                       if a.name.startswith("qmemcell.")]
        else:
            continue
        for target in targets:
            yield enclosing.get(node), target.split(".")[0]


def test_scalar_modules_import_each_other_in_layer_order():
    deferred = set()
    for rank, name in enumerate(SCALAR_LAYERS):
        tree = ast.parse((Path(qmemcell.__file__).parent / f"{name}.py").read_text())
        for func, target in _package_imports(tree):
            if func is None:
                assert target in SCALAR_LAYERS[:rank], f"{name} imports {target}"
            else:
                deferred.add((name, func, target))
    assert deferred == DEFERRED_IMPORTS
    for name, allowed in NUMPY_IMPORTS.items():
        tree = ast.parse((Path(qmemcell.__file__).parent / f"{name}.py").read_text())
        assert {target for _, target in _package_imports(tree)} == allowed, name


def test_only_gaussian_and_memory_import_dataclasses():
    importers = set()
    for path in Path(qmemcell.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any((name or "").split(".")[0] == "dataclasses" for name in names):
                importers.add(path.stem)
    assert importers == DATACLASS_MODULES


def _in_process(argvs, capsys):
    """[exit code, stdout] of each argv through cli.main in this process."""
    runs = []
    for argv in argvs:
        code = cli.main(argv)
        runs.append([code, capsys.readouterr().out])
    return runs


def test_numpy_subcommands_still_run_with_dataclasses(tmp_path, capsys):
    # memory-sim loads numpy and, through gaussian and memory, dataclasses
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    argvs = [["memory-sim", "--seed", "3"], ["memory-sim", "--format", "json"]]
    expected = _in_process(argvs, capsys)
    run = json.loads(_fresh_python(_SCALAR_RUN.format(
        poison=(), config=str(config), argvs=argvs)))
    assert run["runs"] == expected and [code for code, _ in expected] == [0, 0]
    assert {"numpy", "dataclasses"} <= set(run["loaded"])


def test_pump_runs_without_dataclasses(tmp_path, capsys):
    # pumping's record is a named tuple: pump loads numpy but never dataclasses
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    argvs = [["pump", "--steps", "20"], ["pump", "--steps", "7", "--format", "json"],
             ["pump", "--pump-rate", "-5"], ["pump", "--steps", "-1"]]
    expected = _in_process(argvs, capsys)
    plain, poisoned = [json.loads(_fresh_python(_SCALAR_RUN.format(
        poison=poison, config=str(config), argvs=argvs)))
        for poison in ((), ("dataclasses",))]
    assert plain["runs"] == poisoned["runs"] == expected
    assert [code for code, _ in expected] == [0, 0, 2, 2]
    assert "numpy" in plain["loaded"] and "dataclasses" not in plain["loaded"]
